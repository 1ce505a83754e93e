"""Monte Carlo simulation of the randomly perturbed quadratic map.

The process is X_{n+1} = eps_{n+1} * X_n * (1 - X_n) with i.i.d. parameters
drawn from a NoiseModel.  This module produces trajectories, binned Cesaro
occupation measures and ensembles with order-independent merging, and the
single walk that the diagnostics and the kernel's probes reduce.

`_walk` is the single path loop.  It advances L lanes (independent paths,
each with its own start and parameter stream) in lockstep through blocks of
at most CHUNK lane-steps.  Every walk has one block schedule: the first
block has FIRST_ROWS steps and each later one doubles up to
max(1, CHUNK // L), so a reduction that stops early draws little more than
it uses.  Each block's parameters come from one draw filler, `draws(eps,
live)`; `_lane_draws` builds it for a noise model and one generator per
lane, so every live lane draws its uniforms into one buffer and a single
`NoiseModel.sample_lanes` step places them all, bit-identical to one
`sample` call per lane.  That uniform buffer, like the walk's own eps and
state buffers, is reused across blocks.  The kernels only compute states:
below MIN_LANES lanes (a single chain, a small ensemble) each lane runs the
scalar kernel `_advance` down its column, and from MIN_LANES on
`_advance_lanes` computes one row of L states per step.  Both compute
eps * x * (1 - x) in the same operand order, so every lane is bit-identical
to the same path walked alone.  After either kernel, one scan of the block
in `_walk` records states below ABSORB_FLOOR as 0 and stops each lane at
its first 0 or 1.  With numba one compiled kernel serves both call shapes.
Without it the scalar kernel steps a Python float through its column
PIECE draws at a time, one list comprehension per piece, and stores each
piece with one struct.pack while it is still in cache; that gives the same
bits as the array loop at about 3.5 times its speed.  The row kernel
writes each row in place with `out=` ufuncs.  Every consumer, here and in
the diagnostics and kernel, is a reduction over the blocks it yields
(`_occupations`, `_snapshots`, `_first_entry`), so the recurrence, the
block schedule and the stop rule live in one place; all replicates of all
starts of a stability test share one walk.  With workers > 1,
`ensemble_occupations` walks contiguous shards of those lanes in forked
worker processes and sums each group's integer counts, so its measures do
not depend on the worker count.

Reproducibility contract: every stochastic routine takes a seed (or, for a
single path, an explicit generator); replicate i reads substream (seed,
*key, i), laid out by `_substreams`, so adding a replicate changes no
other, and every stream is read in a chunk-invariant layout, so results are
bitwise identical for a given (model, inputs, seed) regardless of internal
chunking or lane grouping.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .noise import NoiseModel, substream

__all__ = [
    "SimConfig",
    "Trajectory",
    "OccupationMeasure",
    "bin_states",
    "simulate_trajectory",
    "occupation_measure",
    "merge_occupations",
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

# smallest normal double: once the state is subnormal it can plateau at
# 5e-324 forever (noise >= 0.5 rounds it back up), so extinction regimes
# would never register; anything this small is numerically extinct
ABSORB_FLOOR = 2.2250738585072014e-308


def _advance(x, eps, out):
    """Run the map recurrence over a block of noise draws.

    Fills out[k] with the state after applying eps[k].  x is one state with
    eps and out columns of m draws and states, or a row of L states with
    eps and out of shape (m, L).  The caller finds where each path stops.
    """
    for k in range(eps.shape[0]):
        x = eps[k] * x * (1.0 - x)
        out[k] = x


try:  # identical semantics with or without the JIT; numba is optional
    import numba

    _advance = _advance_lanes = numba.njit(cache=True, nogil=True)(_advance)
except ImportError:  # pragma: no cover

    def _advance(x, eps, out):
        """Run the map recurrence over a column of noise draws, on Python floats.

        Same contract and the same IEEE operations, (eps[k] * x) * (1 - x),
        as the array kernel above, so the states are bit-identical.  The
        column is stepped PIECE draws at a time, one list comprehension per
        piece, and each piece is stored by one struct.pack, strided or not.
        """
        x, eps = float(x), memoryview(eps)
        for lo in range(0, len(eps), PIECE):
            states = [x := e * x * (1.0 - x) for e in eps[lo : lo + PIECE]]
            out[lo : lo + len(states)] = np.frombuffer(struct.pack(f"{len(states)}d", *states))

    def _advance_lanes(x, eps, out):
        """Run the map recurrence for L lanes in lockstep over an (m, L) block, in place.

        Same contract and the same IEEE operations, (eps[k] * x) * (1 - x),
        as the array kernel above, without its three temporaries per row.
        """
        t = np.empty_like(x)
        subtract, multiply = np.subtract, np.multiply
        for e, o in zip(eps, out):
            subtract(1.0, x, t)
            multiply(e, x, o)
            multiply(o, t, o)
            x = o


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
    done, m = 0, min(FIRST_ROWS, rows)
    while done < n and len(live):
        m = min(m, n - done)
        e, o = eps[:m], out[:m]
        draws(e, live)
        if lanes < MIN_LANES:
            for j in live:
                _advance(x[j], e[:, j], o[:, j])
        else:
            # stopped lanes run on with stale draws; their rows are never valid
            _advance_lanes(x, e, o)
        low = o < ABSORB_FLOOR
        o[low] = 0.0
        hit = (low | (o == 1.0))[:, live]
        stopped = hit.any(axis=0)
        valid[:] = 0
        valid[live] = np.where(stopped, hit.argmax(axis=0) + 1, m)
        x = o[m - 1].copy()
        yield done, e, o, valid
        live = live[~stopped]
        done += m
        m = min(2 * m, rows)


def _lane_draws(model: NoiseModel, rngs):
    """Draw filler for `_walk` in which lane j reads rngs[j]; see NoiseModel.sample_lanes.

    The lanes' uniform buffer is kept for the whole walk, like the walk's
    own buffers, and reallocated only while the walk's blocks grow.
    """
    buf = np.zeros((len(rngs), 0, 2))

    def draws(eps, live):
        nonlocal buf
        if buf.shape[1] < len(eps):
            buf = None  # free the smaller buffer first, so the two never coexist
            buf = np.zeros((len(rngs), len(eps), 2))
        model.sample_lanes(rngs, live, eps, buf)

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

    @property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_bins + 1)


@dataclass(frozen=True)
class Trajectory:
    """A simulated path: values[0] is X_0, values[k] is X_k.

    epsilons[k] is the draw that produced values[k + 1].  When the path is
    absorbed at the boundary it truncates just after the absorbing value and
    `absorbed` is set.
    """

    values: np.ndarray
    epsilons: np.ndarray
    absorbed: bool


def simulate_trajectory(model: NoiseModel, x0: float, n: int, seed) -> Trajectory:
    """Simulate n steps from x0; bit-reproducible given (model, x0, n, seed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    values, epsilons = [np.array([x0], dtype=float)], []
    for _, eps, states in _path(model, x0, n, seed):
        values.append(states.copy())
        epsilons.append(eps.copy())
    return Trajectory(
        values=np.concatenate(values),
        epsilons=np.concatenate(epsilons) if epsilons else np.empty(0),
        absorbed=bool(values[-1][-1] == 0.0 or values[-1][-1] == 1.0),
    )


def bin_states(values: np.ndarray, bin_edges: np.ndarray):
    """Bin states with right-closed bins (edge values go to the bin they end).

    bin_edges must start at 0 and end at 1.  Returns (counts, underflow,
    overflow) where the guards count states exactly at 0 or 1.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must increase strictly from 0 to 1")
    values = np.asarray(values, dtype=float)
    inside = (values > 0.0) & (values < 1.0)
    if inside.all():
        interior, under, over = values, 0, 0
    else:
        under = int(np.count_nonzero(values <= 0.0))
        over = int(np.count_nonzero(values >= 1.0))
        interior = values[inside]
    bins = len(edges) - 1
    if np.array_equal(edges, np.linspace(0.0, 1.0, bins + 1)):
        idx = _uniform_bin_index(interior, edges)
    else:
        idx = np.searchsorted(edges, interior, side="left") - 1
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    return counts, under, over


def _uniform_bin_index(interior, edges) -> np.ndarray:
    """Index i of the right-closed bin (edges[i], edges[i+1]] holding each state in (0, 1).

    For edges within a few ulps of i / B, floor(v * B) misses the bin by at
    most one near an edge; one comparison with each neighbouring edge fixes it.
    """
    bins = len(edges) - 1
    idx = np.minimum((interior * bins).astype(np.int64), bins - 1)
    idx -= edges[idx] >= interior
    idx += edges[idx + 1] < interior
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

    def mass_in(self, interval) -> float:
        """Estimated mass of an interval, boundary bins weighted by overlap."""
        lo, hi = float(interval[0]), float(interval[1])
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"interval {interval!r} must be nondegenerate inside [0, 1]")
        left = self.bin_edges[:-1]
        right = self.bin_edges[1:]
        overlap = np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)
        width = right - left
        return float(np.sum(self.frequencies * (overlap / width)))


def occupation_measure(trajectory: Trajectory, bin_edges, burn_in: int) -> OccupationMeasure:
    """Bin the post-burn-in states X_{burn_in+1}, ..., X_N of one trajectory."""
    n_states = len(trajectory.values) - 1
    if burn_in < 0 or burn_in > n_states:
        raise ValueError("burn_in must lie within the trajectory length")
    states = trajectory.values[burn_in + 1 :]
    counts, under, over = bin_states(states, bin_edges)
    return OccupationMeasure(
        bin_edges=np.asarray(bin_edges, dtype=float),
        counts=counts,
        total=len(states),
        underflow=under,
        overflow=over,
        absorbed=int(trajectory.absorbed),
    )


def merge_occupations(measures) -> OccupationMeasure:
    """Sum occupation measures on identical bins (commutative and associative)."""
    measures = list(measures)
    if not measures:
        raise ValueError("nothing to merge")
    edges = measures[0].bin_edges
    for m in measures[1:]:
        if len(m.bin_edges) != len(edges) or np.any(m.bin_edges != edges):
            raise ValueError("occupation measures use different bins")
    return OccupationMeasure(
        bin_edges=edges,
        counts=np.sum([m.counts for m in measures], axis=0),
        total=sum(m.total for m in measures),
        underflow=sum(m.underflow for m in measures),
        overflow=sum(m.overflow for m in measures),
        absorbed=sum(m.absorbed for m in measures),
    )


def _occupations(blocks, burn_in: int, bin_edges: np.ndarray, widths):
    """Bin the states after step burn_in of walked lanes, block by block.

    The lanes split, in order, into runs of the given widths; returns one
    occupation measure per run, binning each run's valid states of a block
    in one call.
    """
    # per group: counts, total, underflow, overflow, absorbed
    bins = len(bin_edges) - 1
    ends = np.cumsum(widths)
    runs = [slice(end - width, end) for end, width in zip(ends, widths)]
    measures = [[np.zeros(bins, dtype=np.int64), 0, 0, 0, 0] for _ in runs]
    for done, _, states, valid in blocks:
        skip = max(0, burn_in - done)
        rows = np.arange(skip, len(states))[:, None]
        # a lane stopped in this block iff its last valid state is 0 or 1
        last = states[np.maximum(valid - 1, 0), np.arange(len(valid))]
        stopped = (valid > 0) & ((last == 0.0) | (last == 1.0))
        for cols, acc in zip(runs, measures):
            block, v = states[skip:, cols], valid[cols]
            post = block.ravel() if np.all(v == len(states)) else block[rows < v]
            if len(post):
                c, u, o = bin_states(post, bin_edges)
                acc[0] += c
                acc[1] += len(post)
                acc[2] += u
                acc[3] += o
            acc[4] += int(np.count_nonzero(stopped[cols]))
    return [
        OccupationMeasure(
            bin_edges=bin_edges, counts=c, total=t, underflow=u, overflow=o, absorbed=a
        )
        for c, t, u, o, a in measures
    ]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(workers: int):
    """An executor of worker processes forked from this one, imported only when used.

    A worker that dies raises BrokenProcessPool in the caller instead of
    hanging it.  On CPython >= 3.12 fork warns, as OpenBLAS runs threads.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _shard_occupations(
    model: NoiseModel, starts, config: SimConfig, stream_keys, lo: int, hi: int
):
    """Walk lanes lo..hi-1 of `ensemble_occupations`; one measure per group they touch.

    Lane i is replicate i % r of group i // r (r = config.n_replicates).
    """
    r = config.n_replicates
    widths = [min(hi, (g + 1) * r) - max(lo, g * r) for g in range(lo // r, (hi - 1) // r + 1)]
    rngs = _substreams(config.master_seed, stream_keys, r, lo, hi)
    lanes = [starts[i // r] for i in range(lo, hi)]
    walk = _walk(lanes, config.n_steps, _lane_draws(model, rngs))
    return _occupations(walk, config.burn_in, config.bin_edges, widths)


def ensemble_occupations(
    model: NoiseModel,
    starts,
    config: SimConfig,
    stream_keys,
    workers: int = 1,
) -> list[OccupationMeasure]:
    """One merged occupation measure per (start, stream key) group, walked together.

    Group g runs config.n_replicates independent replicates from starts[g];
    its replicate i runs on substream (master_seed, *stream_keys[g], i).
    The replicates of all groups are the lanes of one walk, cut into
    min(workers, lanes, usable CPUs) contiguous shards; past one, each shard
    walks in a forked worker and the parent merges each group's segments.
    Each measure equals that group's replicates walked alone and merged,
    whatever the grouping or the number of workers.
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
    if w == 1:
        found = [shard(0, lanes)]
    else:
        # leaving the block waits for every shard and joins every worker
        with _pool(w) as pool:
            found = list(pool.map(shard, cuts[:-1], cuts[1:]))
    groups = [[] for _ in starts]
    for lo, measures in zip(cuts, found):
        for g, measure in enumerate(measures, lo // config.n_replicates):
            groups[g].append(measure)
    return [merge_occupations(segments) for segments in groups]


def ensemble_occupation(
    model: NoiseModel,
    x0: float,
    config: SimConfig,
    stream_key: tuple[int, ...] = (),
) -> OccupationMeasure:
    """Merged occupation measure over config.n_replicates independent replicates.

    Replicate i runs on substream (master_seed, *stream_key, i); the result
    is independent of execution order.
    """
    return ensemble_occupations(model, (x0,), config, (stream_key,))[0]

