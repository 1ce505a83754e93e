"""Monte Carlo simulation of the randomly perturbed quadratic map.

The process is X_{n+1} = eps_{n+1} * X_n * (1 - X_n) with i.i.d. parameters
drawn from a NoiseModel.  This module produces trajectories, binned Cesaro
occupation measures, parallel ensembles with schedule-independent merging,
and the hitting-time / visit-count probes used by the recurrence
diagnostics.

`_walk` is the single path loop: it draws parameters a chunk at a time,
runs the recurrence and stops at absorption.  Every single-chain consumer
(here and in the diagnostics) is a reduction over the blocks it yields, so
the chunk layout and the absorption policy live in one place.

Reproducibility contract: every stochastic routine takes a seed (or an
explicit generator) and consumes the stream in a chunk-invariant layout, so
results are bitwise identical for a given (model, inputs, seed) regardless
of internal chunking, replicate scheduling, or thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
    "hitting_time",
    "visit_counts",
]

CHUNK = 1 << 20

# smallest normal double: once the state is subnormal it can plateau at
# 5e-324 forever (noise >= 0.5 rounds it back up), so extinction regimes
# would never register; anything this small is numerically extinct
ABSORB_FLOOR = 2.2250738585072014e-308


def _advance(x, eps, out):
    """Run the map recurrence over a block of noise draws.

    Fills out[k] with the state after applying eps[k]; returns the index at
    which the state was absorbed (recorded as exactly 0) or reached 1 (which
    maps to 0 next step), -1 if the block completed.  Absorption only occurs
    through floating-point underflow in extinction regimes.
    """
    n = eps.shape[0]
    for k in range(n):
        x = eps[k] * x * (1.0 - x)
        if x < ABSORB_FLOOR:
            out[k] = 0.0
            return k
        out[k] = x
        if x == 1.0:
            return k
    return -1


try:  # identical semantics with or without the JIT; numba is optional
    import numba

    _advance = numba.njit(cache=True, nogil=True)(_advance)
except ImportError:  # pragma: no cover
    pass


def _walk(x0: float, n: int, draw):
    """Walk n steps from x0, yielding (done, eps, states, absorbed) blocks.

    draw(m) returns the next m parameters.  states holds the states after
    steps done+1 .. done+len(states); it is a view into one buffer reused
    across blocks, so copy it to keep it.  A block that ends in absorption
    is the last one.
    """
    x = float(x0)
    done = 0
    out = np.empty(min(CHUNK, n))
    while done < n:
        m = min(CHUNK, n - done)
        eps = draw(m)
        stop = _advance(x, eps, out[:m])
        k = m if stop < 0 else stop + 1
        yield done, eps[:k], out[:k], stop >= 0
        if stop >= 0:
            return
        x = out[k - 1]
        done += k


def _generator(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else substream(seed)


def _check_interval(J) -> tuple[float, float]:
    lo, hi = float(J[0]), float(J[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"interval {J!r} must be nondegenerate inside (0, 1)")
    return lo, hi


@dataclass(frozen=True)
class SimConfig:
    """Shared simulation parameters.

    n_steps is per replicate; the occupation measure bins the n_steps -
    burn_in post-burn-in states of each of n_replicates independent
    replicates.  threads only affects scheduling, never results.
    """

    master_seed: int
    n_steps: int
    n_replicates: int = 1
    burn_in: int = 1000
    initial_states: tuple[float, ...] = (0.5,)
    n_bins: int = 200
    threads: int = 1

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        if any(not (0.0 < x < 1.0) for x in self.initial_states):
            raise ValueError("initial states must lie in (0, 1)")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

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
    if not (0.0 < x0 < 1.0):
        raise ValueError("x0 must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    values, epsilons, absorbed = [[float(x0)]], [], False
    for _, eps, states, absorbed in _walk(x0, n, partial(model.sample, _generator(seed))):
        values.append(states.copy())
        epsilons.append(eps)
    return Trajectory(
        values=np.concatenate(values),
        epsilons=np.concatenate(epsilons) if epsilons else np.empty(0),
        absorbed=absorbed,
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
    under = int(np.count_nonzero(values <= 0.0))
    over = int(np.count_nonzero(values >= 1.0))
    interior = values[(values > 0.0) & (values < 1.0)]
    idx = np.searchsorted(edges, interior, side="left") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1).astype(np.int64)
    return counts, under, over


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
        lo, hi = _check_interval(interval)
        left = self.bin_edges[:-1]
        right = self.bin_edges[1:]
        overlap = np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, None)
        width = right - left
        return float(np.sum(self.frequencies * (overlap / width)))

    def binned_density(self) -> np.ndarray:
        """Frequencies divided by bin widths (a density estimate)."""
        return self.frequencies / np.diff(self.bin_edges)


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


def _bin_path(blocks, burn_in: int, bin_edges: np.ndarray) -> OccupationMeasure:
    """Bin the states after step burn_in of a walked path, block by block."""
    counts = np.zeros(len(bin_edges) - 1, dtype=np.int64)
    under = over = produced = 0
    absorbed = False
    for done, _, states, absorbed in blocks:
        post = states[max(0, burn_in - done) :]
        if len(post):
            c, u, o = bin_states(post, bin_edges)
            counts += c
            under += u
            over += o
            produced += len(post)
    return OccupationMeasure(
        bin_edges=bin_edges,
        counts=counts,
        total=produced,
        underflow=under,
        overflow=over,
        absorbed=int(absorbed),
    )


def ensemble_occupation(
    model: NoiseModel,
    x0: float,
    config: SimConfig,
    stream_key: tuple[int, ...] = (),
) -> OccupationMeasure:
    """Merged occupation measure over config.n_replicates independent replicates.

    Replicate i runs on substream (master_seed, *stream_key, i); the merge is
    a commutative monoid, so the result is independent of execution order and
    of config.threads.
    """
    if not (0.0 < x0 < 1.0):
        raise ValueError("x0 must lie in (0, 1)")
    edges = config.bin_edges

    def one(i: int) -> OccupationMeasure:
        draw = partial(model.sample, substream(config.master_seed, *stream_key, i))
        return _bin_path(_walk(x0, config.n_steps, draw), config.burn_in, edges)

    indices = range(config.n_replicates)
    if config.threads > 1 and config.n_replicates > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            parts = list(pool.map(one, indices))
    else:
        parts = [one(i) for i in indices]
    return merge_occupations(parts)


def hitting_time(model: NoiseModel, x0: float, J, seed, cap: int) -> int | None:
    """First step n >= 1 with X_n in the open interval J, or None past cap."""
    lo, hi = _check_interval(J)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for done, _, states, _ in _walk(x0, cap, partial(model.sample, _generator(seed))):
        hits = np.nonzero((states > lo) & (states < hi))[0]
        if len(hits):
            return done + int(hits[0]) + 1
    return None  # past cap, or absorbed at the boundary with J unreachable


def visit_counts(model: NoiseModel, x0: float, J, n: int, seed) -> int:
    """Number of steps 1 <= k <= n with X_k in the open interval J."""
    lo, hi = _check_interval(J)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(
        int(np.count_nonzero((states > lo) & (states < hi)))
        for _, _, states, _ in _walk(x0, n, partial(model.sample, _generator(seed)))
    )
