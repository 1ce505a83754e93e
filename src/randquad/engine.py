"""Monte Carlo simulation of the randomly perturbed quadratic map.

The process is X_{n+1} = eps_{n+1} * X_n * (1 - X_n) with i.i.d. parameters
drawn from a NoiseModel.  This module produces binned Cesaro occupation
measures and ensembles of them, and the single walk that they, the
`simulate` command, the diagnostics and the kernel's probes reduce.

`_walk` is the single path loop.  It advances L lanes (independent paths,
each with its own start and parameter stream) in lockstep through blocks of
at most CHUNK lane-steps, on one block schedule, and stops each lane at its
first state below ABSORB_FLOOR (recorded as 0) or at 1.  Each block's
parameters come from one draw filler, `draws(eps, live)`; `_lane_draws`
builds it for a noise model and one generator per lane: each live lane
draws one uniform per step into its row of a uniform buffer, and one
`NoiseModel.quantile` call maps the whole block, bit-identical to one
`sample` call per lane.  The kernels only compute states, and `_walk`
picks one per block (see its docstring): the scalar kernel `_advance` down
each column below MIN_LANES lanes, the row kernel `_advance_lanes` from
MIN_LANES on, `_advance_linear` while every state is at most LINEAR_MAX
(where the map is x -> eps * x bit for bit; a dying walk spends most of its
rows there), and `_advance_segments` on long blocks of walks of at most
SPEC_LANES lanes, which runs a block's segments of SEG rows as the columns
of one row-kernel pass, speculating that two float paths of a stable chain
driven by the same draws become bit-equal, and repairs bit for bit where
they do not.  All of them compute
eps * x * (1 - x) in the same operand order, so every lane is bit-identical
to the same path walked alone.  The scalar kernel steps a Python float PIECE
draws at a time and stores each piece with one struct.pack while it is
still in cache: the same bits as a loop over numpy scalars at about 3.5
times its speed.  Every consumer, here and in the diagnostics and kernel, is
a reduction over the blocks the walk yields (`_occupations`, `_snapshots`,
`_first_entry`, `_exponent`), so the recurrence, the block schedule and the
stop rule live in one place; all replicates of all starts of a stability
test share one walk.  `_occupations` maps each state to its slot, a
right-closed bin of [0, 1] or a guard slot for 0 or for 1, and counts the
slots of a block's lanes into an integer table of groups by slots, in
cache-sized pieces, a row per half of each group's replicates
(`_half_tables`).  With workers > 1, `_half_tables` forks one child per
contiguous shard of the lanes and adds the tables they send back, so its
tables do not depend on the worker count.

Reproducibility contract: every stochastic routine takes a seed (or, for a
single path, an explicit generator); replicate i reads substream (seed,
*key, i), laid out by `_substreams`, so adding a replicate changes no
other, and every stream is read in a chunk-invariant layout, so results are
bitwise identical for a given (model, inputs, seed) regardless of internal
chunking or lane grouping.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .noise import NoiseModel, substream

__all__ = [
    "SimConfig",
    "OccupationMeasure",
    "ensemble_occupation",
    "ensemble_occupations",
]

# lane-steps per block: bounds the (steps, lanes) buffers of a walk
CHUNK = 1 << 16

# steps in the first block of a walk; each later block doubles up to the
# CHUNK bound, so a reduction that stops early draws little past its stop
FIRST_ROWS = 16

# fewest lanes at which one numpy row per step keeps up with a scalar loop
# per lane (pure Python, 2 cores, whole walk with batched draws, median of
# 15 M lane-steps/s scalar vs rows: 20 lanes 9.0 vs 8.1, 24 lanes 8.4 vs
# 8.1, 26 lanes 8.3 vs 8.7, 28 lanes 8.5 vs 9.3, 30 lanes 8.3 vs 9.9,
# 32 lanes 8.1 vs 10.4; repeated runs cross anywhere from 24 to 28 lanes)
MIN_LANES = 28

# draws per piece of the pure-Python scalar kernel: small enough that a
# piece's states are still in cache when one struct.pack stores them
PIECE = 4096

# rows per speculative segment of a long block; a multiple of 64, so the
# carried state, every segment's first guess, lies in the right phase class
# of any cycle whose period divides 64; 128 rows make a block's SEG + WIN
# row calls half as many as 256 rows made, and twice as wide, and at that
# width the ~0.45 us that each ufunc call costs no longer dominates
SEG = 128

# rows of the second pass, which runs each segment again from its
# predecessor's end and looks for the row at which the two passes agree
WIN = 64

# fewest lane-steps in a block's segments for it to speculate: both passes
# and the copies take about 0.5 ms up to a few hundred columns, so on U[2,3]
# segments break even with the plain kernels near 6,000-8,000 lane-steps
# (medians of 15 timings, pure Python, 2 cores); twice that keeps the block
# that a walk whose paths never couple loses small
SPEC_STEPS = 1 << 14

# most lanes a walk may have to speculate: wider rows gain too little from
# segments to pay for pass 2 (200 lanes of U[2,3] to step 30,000: 95 ms
# speculating, 87 ms not, medians of 12, pure Python, 2 cores); at CHUNK =
# 2^16 these wider walks are those that 256-row segments never reached
SPEC_LANES = 128

# states per piece in which `_occupations` bins a block, so that its three
# buffers (17 bytes a state) stay in cache
BIN_PIECE = 1 << 13

# smallest normal double: once the state is subnormal it can plateau at
# 5e-324 forever (noise >= 0.5 rounds it back up), so extinction regimes
# would never register; anything this small is numerically extinct
ABSORB_FLOOR = 2.2250738585072014e-308

# largest state x for which 1 - x rounds to 1: the doubles below 1 are
# 2^-53 apart, so 1 - 2^-54 is a tie and rounds to even, which is 1, while
# 1 - x for the next double above 2^-54 rounds to 1 - 2^-53; from a state
# this small, eps * x * (1 - x) is eps * x bit for bit
LINEAR_MAX = 2.0**-54


def _advance(x, eps, out):
    """Run the map recurrence over a column of noise draws, on Python floats.

    Fills out[k] with the state after applying eps[k], computed as
    (eps[k] * x) * (1 - x); the caller finds where the path stops.  The
    column is stepped PIECE draws at a time, one list comprehension per
    piece, and each piece is stored by one struct.pack, strided or not.
    """
    x, eps = float(x), memoryview(eps)
    for lo in range(0, len(eps), PIECE):
        states = [x := e * x * (1.0 - x) for e in eps[lo : lo + PIECE]]
        out[lo : lo + len(states)] = np.frombuffer(struct.pack(f"{len(states)}d", *states))


def _advance_lanes(x, eps, out):
    """Run the map recurrence for L lanes in lockstep over an (m, L) block, in place.

    x is a row of L states and out[k] receives the row after eps[k], in the
    same IEEE operations as `_advance`, through one reused temporary row.
    1 - x subtracts from a row of ones, which spares converting the Python
    float 1.0 at every row and gives the same bits.
    """
    t, one = np.empty_like(x), np.ones_like(x)
    subtract, multiply = np.subtract, np.multiply
    for e, o in zip(eps, out):
        subtract(one, x, t)
        multiply(e, x, o)
        multiply(o, t, o)
        x = o


def _advance_linear(x, eps, out) -> int:
    """Run the map as x -> eps * x over an (m, L) block from a row x of states <= LINEAR_MAX.

    out[0] = eps[0] * x and one multiply.accumulate down the block give each
    lane's running product in the recurrence's own order.  Returns the
    number of leading rows settled: through the first row in which some lane
    exceeds LINEAR_MAX (its successor is no longer a plain product), or all
    m.  Rows past that may hold anything, inf included.
    """
    with np.errstate(over="ignore"):
        np.multiply(eps[0], x, out[0])
        out[1:] = eps[1:]
        np.multiply.accumulate(out, axis=0, out=out)
    if out.max() <= LINEAR_MAX:
        return len(out)
    return int((out > LINEAR_MAX).any(axis=1).argmax()) + 1


def _advance_segments(x, eps, out, bufs) -> np.ndarray:
    """Run the map over an (S * SEG, L) block from a row x of states, as S * L coupled segments.

    Fills out bit for bit as `_advance` down each column would, and returns
    how many segments of each lane it re-ran.  Pass 1 runs every lane's S
    segments of SEG rows as one contiguous (SEG, S * L) block through
    `_advance_lanes`, each from the lane's state x: exact for segment 0, a
    guess for the rest.
    Pass 2 runs segments 1..S-1 again for WIN rows, each from its
    predecessor's pass-1 end; at the first row where the passes are equal
    (states are never NaN or -0.0, so == is bit equality) the two paths have
    coupled, and pass 2's rows before it are kept.  A segment is then exact
    when its predecessor's end is exact and it coupled; any other segment
    is re-run by `_repair` from the true end before it, until the segment
    before holds the lane's stop (below ABSORB_FLOOR or at 1), past which
    `_walk` reads no row.  bufs holds three flat buffers of at least
    S * SEG * L, S * SEG * L and WIN * S * L floats.
    """
    segs, lanes = len(eps) // SEG, len(x)
    width = segs * lanes
    e1, o1 = (b[: SEG * width].reshape(SEG, width) for b in bufs[:2])
    o2 = bufs[2][: WIN * (width - lanes)].reshape(WIN, width - lanes)
    e1.reshape(SEG, segs, lanes)[:] = eps.reshape(segs, SEG, lanes).transpose(1, 0, 2)
    _advance_lanes(np.tile(x, segs), e1, o1)
    _advance_lanes(o1[-1, :-lanes], e1[:WIN, lanes:], o2)
    head = o1[:WIN, lanes:]
    same = o2 == head
    coupled = same.any(axis=0)
    first = np.where(coupled, same.argmax(axis=0), 0)
    np.copyto(head, o2, where=np.arange(WIN)[:, None] < first)
    out.reshape(segs, SEG, lanes)[:] = o1.reshape(SEG, segs, lanes).transpose(1, 0, 2)
    coupled = coupled.reshape(segs - 1, lanes)
    repaired = np.zeros(lanes, dtype=np.int64)
    for j in np.flatnonzero(~coupled.all(axis=0)):
        exact = True  # the end of the segment before s is the true one
        for s in range(1, segs):
            if exact and coupled[s - 1, j]:
                continue
            # segment s - 1 is the true path, and `_walk` reads no row past a stop
            true = out[(s - 1) * SEG : s * SEG, j]
            if true.min() < ABSORB_FLOOR or true.max() == 1.0:
                break
            rows = slice(s * SEG, (s + 1) * SEG)
            exact = _repair(out[s * SEG - 1, j], eps[rows, j], out[rows, j])
            repaired[j] += 1
    return repaired


def _repair(x, eps, out) -> bool:
    """Re-run one lane's segment from its true start x until it meets the states in out.

    out holds a path of the same draws from some other start.  `_advance`
    steps WIN draws at a time; from the first row equal to the stored one,
    the stored rows are the true path.  Returns whether such a row came; if
    not, out now holds the true path, whose end differs from the stored end.
    """
    for lo in range(0, len(eps), WIN):
        o = out[lo : lo + WIN]
        t = np.empty(len(o))
        _advance(x, eps[lo : lo + WIN], t)
        same = t == o
        if same.any():
            r = int(same.argmax())
            o[:r] = t[:r]
            return True
        o[:] = t
        x = t[-1]
    return False


def _walk(starts, n: int, draws):
    """Walk n steps from each start in lockstep, yielding (done, eps, states, valid).

    Lane j starts at starts[j], which must lie in (0, 1).  Once per block,
    draws(eps, live) fills eps[:, j] with the next m parameters of each lane
    j in the integer array live; other columns may hold anything finite.
    eps and states have shape (m, L); row k holds the draws and states of
    step done+k+1.  valid[j] is the number of leading rows that belong to
    lane j: a lane stops after the step at which it falls below ABSORB_FLOOR
    (recorded as exactly 0) or reaches 1, and a stopped lane draws nothing
    more and has valid 0 from then on.  The kernels only compute states;
    one scan of each block finds the stops.  The arrays are views into
    buffers reused across blocks, so copy them to keep them.  The walk ends
    after n steps or when every lane has stopped.  The first block has
    FIRST_ROWS steps and each later one doubles up to max(1, CHUNK // L).

    This is the one place that picks a kernel.  A block whose carried row
    (a stopped lane carries exactly 0) lies at or below LINEAR_MAX starts
    with `_advance_linear`: at x <= 2^-54, 1 - x is within half an ulp of 1
    (the doubles below 1 are 2^-53 apart, and the tie at 2^-54 rounds to
    even, to 1), so eps * x * (1 - x) equals eps * x exactly.  It settles
    the rows through the first one in which some lane exceeds 2^-54; from
    that row the scalar kernel (fewer than MIN_LANES lanes) or the row
    kernel computes the rest of the block.  In a walk of at most SPEC_LANES
    lanes, when the rest holds at least two segments of SEG rows, and at
    least SPEC_STEPS lane-steps in them, `_advance_segments` computes those
    segments: it runs them as coupled lanes of the row kernel and re-runs
    exactly each one it cannot prove coupled, so it gives the kernels'
    bits.  The rows past the last whole segment take the plain kernel.
    Once a block re-runs more than 1/8 of the segments of the lanes still
    live after it (paths that do not couple: chaotic, or dying), the walk
    stops speculating; a lane that stopped in the block is not counted, as
    it costs later blocks nothing.  That changes the walk's time, never its
    bits.
    """
    x = np.array(starts, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):
        raise ValueError("x0 must lie in (0, 1)")
    lanes = len(x)
    rows = min(max(1, CHUNK // lanes), n)
    # zeroed: rows and columns no kernel wrote stay finite
    eps, out = np.zeros((rows, lanes)), np.zeros((rows, lanes))
    valid = np.zeros(lanes, dtype=np.int64)
    live = np.arange(lanes)
    # segment buffers for the longest block, reused; a walk that never
    # speculates never touches their pages
    full = rows // SEG * lanes
    bufs = (np.empty(full * SEG), np.empty(full * SEG), np.empty(full * WIN))
    speculate = lanes <= SPEC_LANES
    done, m = 0, min(FIRST_ROWS, rows)
    while done < n and len(live):
        m = min(m, n - done)
        e, o = eps[:m], out[:m]
        draws(e, live)
        k = _advance_linear(x, e, o) if x.max() <= LINEAR_MAX else 0
        if k:
            x = o[k - 1]
        segs = (m - k) // SEG
        segmented = speculate and segs >= 2 and segs * SEG * lanes >= SPEC_STEPS
        if segmented:
            end = k + segs * SEG
            repaired = _advance_segments(x, e[k:end], o[k:end], bufs)
            k, x = end, o[end - 1]
        if lanes < MIN_LANES:
            for j in live:
                _advance(x[j], e[k:, j], o[k:, j])
        else:
            # stopped lanes run on from 0 with stale draws; their rows are never valid
            _advance_lanes(x, e[k:], o[k:])
        valid[:] = 0
        if o.min() >= ABSORB_FLOOR and o.max() < 1.0:
            valid[live] = m
        else:
            low = o < ABSORB_FLOOR
            o[low] = 0.0
            hit = (low | (o == 1.0))[:, live]
            stopped = hit.any(axis=0)
            valid[live] = np.where(stopped, hit.argmax(axis=0) + 1, m)
            live = live[~stopped]
        if segmented:
            speculate = 8 * repaired[live].sum() <= segs * len(live)
        x = np.zeros(lanes)
        x[live] = o[m - 1, live]
        yield done, e, o, valid
        done += m
        m = min(2 * m, rows)


def _lane_draws(model: NoiseModel, rngs):
    """Draw filler for `_walk` in which lane j reads rngs[j].

    Lane j's column over the blocks is bitwise sample(rngs[j], m) for its m
    steps in all.  Each live lane draws one uniform per row of a block into
    its row of a (lanes, rows) buffer, with one generator call, and one
    `NoiseModel.quantile` call maps the whole block.  The buffer is zeroed
    when allocated, so a stopped lane's column, placed from its stale row,
    stays finite and inside the support, as `_walk` requires.  It is kept
    for the whole walk, like the walk's own buffers, and reallocated only
    while the walk's blocks grow.
    """
    buf = np.zeros((len(rngs), 0))

    def draws(eps, live):
        nonlocal buf
        if buf.shape[1] < len(eps):
            buf = None  # free the smaller buffer first, so the two never coexist
            buf = np.zeros((len(rngs), len(eps)))
        u = buf[:, : len(eps)]
        for j in live.tolist():
            rngs[j].random(out=u[j])
        model.quantile(u.T, eps)

    return draws


def _substreams(seed, keys, n: int, lo: int = 0, hi: int | None = None) -> list:
    """One generator for each of lanes lo..hi-1 (default: all) of n replicates per key.

    Lane i is replicate i % n of keys[i // n] and reads substream (seed,
    *keys[i // n], i % n); only the lanes asked for are built.
    """
    hi = len(keys) * n if hi is None else hi
    return [substream(seed, *keys[i // n], i % n) for i in range(lo, hi)]


def _path(model: NoiseModel, x0: float, n: int, seed):
    """Walk one path from x0, yielding (done, eps, states) cut to its valid rows."""
    draws = _lane_draws(model, [_generator(seed)])
    for done, eps, states, valid in _walk((x0,), n, draws):
        yield done, eps[: valid[0], 0], states[: valid[0], 0]


def _snapshots(blocks, steps) -> np.ndarray:
    """Every lane's state at each of the increasing steps, 0 once the lane has stopped."""
    for done, _, states, valid in blocks:
        if done == 0:
            snaps = np.zeros((len(steps), len(valid)))
        for i, step in enumerate(steps):
            if done < step <= done + len(states):
                snaps[i] = np.where(step - done <= valid, states[step - done - 1], 0.0)
    return snaps


def _first_entry(blocks, lo: float, hi: float) -> int | None:
    """First step at which a valid state of any lane lies in the open (lo, hi), or None."""
    for done, _, states, valid in blocks:
        rows = np.arange(len(states))[:, None]
        inside = ((states > lo) & (states < hi) & (rows < valid)).any(axis=1)
        if inside.any():
            return done + int(inside.argmax()) + 1
    return None


def _exponent(blocks, x0: float, burn_in: int):
    """One lane's sum of log|eps * (1 - 2x)| from step burn_in on, and its term counts.

    Each valid row's draw eps pairs with the state x before it (x0 first);
    vertex terms (derivative 0) are skipped.  np.add.accumulate, seeded by
    the running total, adds in step order, so the sum does not depend on
    the blocks (ndarray.sum adds pairwise).  Returns (sum, terms, skipped,
    stop), stop being None or (step, state) where the lane stopped: state 0
    below ABSORB_FLOOR, or 1.
    """
    total, count, skipped, stop, x = 0.0, 0, 0, None, float(x0)
    for done, eps, states, valid in blocks:
        e, s = eps[: valid[0], 0], states[: valid[0], 0]
        deriv = np.abs(e * (1.0 - 2.0 * np.r_[x, s[:-1]]))[max(0, burn_in - done) :]
        terms = np.log(deriv[deriv != 0.0])
        total = np.add.accumulate(np.r_[total, terms])[-1]
        count, skipped = count + len(terms), skipped + len(deriv) - len(terms)
        x = s[-1]
        if x == 0.0 or x == 1.0:
            stop = done + len(s), x
    return float(total), count, skipped, stop


def _generator(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else substream(seed)


def _check_interval(J) -> tuple[float, float]:
    """(lo, hi) with 0 < lo < hi < 1: a target set of states away from the
    absorbing state 0 and the point 1, which maps to 0."""
    lo, hi = float(J[0]), float(J[1])
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"interval {J!r} must be nondegenerate inside (0, 1)")
    return lo, hi


@dataclass(frozen=True)
class SimConfig:
    """Shared simulation parameters.

    n_steps is per replicate; the occupation measure bins the n_steps -
    burn_in post-burn-in states of each of n_replicates independent
    replicates.
    """

    master_seed: int
    n_steps: int
    n_replicates: int = 1
    burn_in: int = 1000
    initial_states: tuple[float, ...] = (0.5,)
    n_bins: int = 200

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        if not self.initial_states:
            raise ValueError("initial_states is empty: list at least one state")
        if any(not (0.0 < x < 1.0) for x in self.initial_states):
            raise ValueError("initial states must lie in (0, 1)")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")


@cache
def _bin_edges(bins: int) -> np.ndarray:
    """The bins + 1 edges of `bins` uniform bins of [0, 1], one read-only array per bin count."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.flags.writeable = False
    return edges


def _uniform_bin_index(states, edges, bufs) -> np.ndarray:
    """Index i of the right-closed bin (edges[i], edges[i+1]] holding each state in (0, 1).

    For edges within a few ulps of i / B, floor(v * B) misses the bin by at
    most one near an edge (or is B); one comparison with each neighbouring
    edge fixes it.  A state at 0 gets -1 and one at 1 gets B - 1, for the
    caller to overwrite.  bufs gives an int64, a float and a bool array of
    states' shape to work in; the indices fill the first.
    """
    idx, edge, above = bufs
    np.multiply(states, len(edges) - 1, out=idx, casting="unsafe")
    np.greater_equal(np.take(edges, idx, out=edge), states, out=above)
    idx -= above
    np.less(np.take(edges[1:], idx, out=edge), states, out=above)
    idx += above
    return idx


@dataclass(frozen=True)
class OccupationMeasure:
    """Binned Cesaro occupation measure over post-burn-in states.

    counts[i] counts states in the right-closed bin (edges[i], edges[i+1]];
    underflow/overflow hold mass at exactly 0 or 1 (expected zero outside
    extinction regimes); total = sum(counts) + guards.  absorbed counts how
    many contributing replicates hit the boundary.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int
    underflow: int = 0
    overflow: int = 0
    absorbed: int = 0

    def __post_init__(self):
        if int(self.counts.sum()) + self.underflow + self.overflow != self.total:
            raise ValueError("counts plus boundary guards must equal total")

    @property
    def frequencies(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.total


def _measure(slots: np.ndarray, absorbed) -> OccupationMeasure:
    """The occupation measure of one row of slot counts (see `_occupations`)."""
    bins = len(slots) - 2
    under, over = (int(n) for n in slots[bins:])
    return OccupationMeasure(
        _bin_edges(bins), slots[:bins], int(slots.sum()), under, over, int(absorbed)
    )


def _occupations(blocks, burn_in: int, bins: int, labels, groups: int):
    """Count the slots of walked lanes' states after step burn_in, by group.

    A state's slot is its right-closed bin i < bins of `bins` uniform bins
    of [0, 1], slot bins for a state at 0 or slot bins + 1 for one at 1.
    Lane j belongs to group labels[j]; its slots are offset by labels[j] *
    (bins + 2), and np.bincount counts all lanes' into a (groups, bins + 2)
    integer table.  Each block goes through `_uniform_bin_index` and one
    bincount per piece of about BIN_PIECE states, in three buffers made
    once.  A 0 or a 1 is a lane's stop, so in a block where some lane
    stopped, or had stopped before, each piece sends its 0s and 1s to their
    slots and its rows past a lane's valid ones to one extra slot, dropped
    at the end.  Returns the table and how many lanes of each group stopped.
    """
    labels = np.asarray(labels)
    offsets = labels * (bins + 2)
    width = groups * (bins + 2)
    table = np.zeros(width + 1, dtype=np.int64)
    stopped = np.zeros(groups, dtype=np.int64)
    edges, rows = _bin_edges(bins), max(1, BIN_PIECE // len(labels))
    bufs = [np.empty((rows, len(labels)), dtype) for dtype in (np.int64, float, bool)]
    for done, _, states, valid in blocks:
        # a lane stopped in this block iff its last valid state is 0 or 1
        last = states[np.maximum(valid - 1, 0), np.arange(len(valid))]
        ends = (valid > 0) & ((last == 0.0) | (last == 1.0))
        np.add.at(stopped, labels[ends], 1)
        guard = ends.any() or valid.min() < len(states)
        for lo in range(max(0, burn_in - done), len(states), rows):
            piece = states[lo : lo + rows]
            idx = _uniform_bin_index(piece, edges, [b[: len(piece)] for b in bufs])
            idx += offsets
            if guard:
                np.copyto(idx, offsets + bins, where=piece == 0.0)
                np.copyto(idx, offsets + bins + 1, where=piece == 1.0)
                idx[np.arange(lo, lo + len(piece))[:, None] >= valid] = width
            table += np.bincount(idx.reshape(-1), minlength=len(table))
    return table[:width].reshape(groups, bins + 2), stopped


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_shards(shard, cuts) -> list:
    """shard(lo, hi) for each pair of neighbouring cuts, each run in a child forked from this one.

    A child pickles its result, or the exception it raised, into its own
    pipe and leaves by os._exit.  The pipes are read in shard order; a
    child's exception is re-raised here, a child that died before sending
    raises BrokenProcessPool instead of hanging the caller, and no child is
    left unreaped.  On CPython >= 3.12 fork warns, as OpenBLAS runs threads.
    """
    import signal  # imported only when used, as it costs every start a few ms

    children = []
    try:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        data = pickle.dumps((True, shard(lo, hi)))
                    except BaseException as exc:
                        try:
                            data = pickle.dumps((False, exc))
                        except Exception:
                            data = pickle.dumps((False, RuntimeError(f"shard raised {exc!r}")))
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        found = []
        for pid, r in children:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool(f"shard worker {pid} died before sending its table")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            found.append(value)
        return found
    finally:
        # a child that has sent has only to exit; one that has not is cut short
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_occupations(
    model: NoiseModel, starts, config: SimConfig, stream_keys, lo: int, hi: int
):
    """Walk lanes lo..hi-1 of `_half_tables`; their slot table over all halves of all groups.

    Lane i is replicate i % r of group i // r (r = config.n_replicates), in
    row 2 * (i // r) + 1 if i % r >= r // 2, else in row 2 * (i // r).
    """
    r = config.n_replicates
    rngs = _substreams(config.master_seed, stream_keys, r, lo, hi)
    walk = _walk([starts[i // r] for i in range(lo, hi)], config.n_steps, _lane_draws(model, rngs))
    lanes = np.arange(lo, hi)
    halves = 2 * (lanes // r) + (lanes % r >= r // 2)
    return _occupations(walk, config.burn_in, config.n_bins, halves, 2 * len(starts))


def _half_tables(model: NoiseModel, starts, config: SimConfig, stream_keys, workers: int = 1):
    """Each group's slot counts and stopped lanes, split into two halves of its replicates.

    Returns a (groups, 2, bins + 2) table and a (groups, 2) count of stopped
    lanes: half 0 of a group holds its first r // 2 replicates, half 1 the
    rest.  The replicates of all groups are the lanes of one walk, cut into
    min(workers, lanes, usable CPUs) contiguous shards; past one, each shard
    walks in a child forked for it (`_fork_shards`), never in this process.
    Each shard counts its lanes' slots into one integer table with a row per
    half (see `_occupations`), and the tables add, so the result does not
    depend on the number of workers.
    """
    starts, stream_keys = tuple(starts), tuple(stream_keys)
    if not starts or len(starts) != len(stream_keys):
        raise ValueError("need one stream key per start, and at least one start")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    lanes = len(starts) * config.n_replicates
    w = min(workers, lanes, _usable_cpus())
    cuts = [k * (lanes // w) + min(k, lanes % w) for k in range(w + 1)]
    shard = partial(_shard_occupations, model, starts, config, stream_keys)
    found = [shard(0, lanes)] if w == 1 else _fork_shards(shard, cuts)
    tables, stopped = zip(*found)
    return sum(tables).reshape(len(starts), 2, -1), sum(stopped).reshape(len(starts), 2)


def ensemble_occupations(
    model: NoiseModel, starts, config: SimConfig, stream_keys
) -> list[OccupationMeasure]:
    """One occupation measure per (start, stream key) group, walked together.

    Group g runs config.n_replicates independent replicates from starts[g];
    its replicate i runs on substream (master_seed, *stream_keys[g], i).
    The replicates of all groups are the lanes of one walk (`_half_tables`),
    and each measure adds its group's two halves, so it equals the sum of
    its replicates' measures walked alone, whatever the grouping.
    """
    table, stopped = _half_tables(model, starts, config, stream_keys)
    return list(map(_measure, table.sum(axis=1), stopped.sum(axis=1)))


def ensemble_occupation(model: NoiseModel, x0: float, config: SimConfig) -> OccupationMeasure:
    """Merged occupation measure over config.n_replicates independent replicates.

    Replicate i runs on substream (master_seed, i); the result is
    independent of execution order.
    """
    return ensemble_occupations(model, (x0,), config, ((),))[0]

