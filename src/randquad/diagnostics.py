"""Statistical verdicts on simulated output.

Each test here turns a qualitative claim about the perturbed quadratic map
into a reproducible numerical check: stability in distribution (Cesaro
occupation measures forget the initial state), extinction when
E log(eps) <= 0, cyclicity of the visit pattern, and the small-noise
approximation of the physical measure of a deterministic map; and the
Lyapunov exponent of a deterministic map, a reduction over one walk.

Convergence rates are not available from the theory, so thresholds are
self-calibrated where possible (stability compares cross-start distances
against the distance between two halves of each start's replicates) and
otherwise fixed, documented desk-scale choices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    OccupationMeasure,
    SimConfig,
    _check_interval,
    _exponent,
    _half_tables,
    _lane_draws,
    _measure,
    _occupations,
    _path,
    _snapshots,
    _substreams,
    _walk,
    ensemble_occupation,
)
from .noise import NoiseModel, check_conditions
from .quadmap import DomainError, _check_theta

__all__ = [
    "StabilityReport",
    "ExtinctionReport",
    "CyclicityReport",
    "KolmogorovReport",
    "tv_distance",
    "stability_test",
    "extinction_test",
    "cyclicity_detect",
    "kolmogorov_approx",
    "lyapunov_deterministic",
]

# visits to J below which cyclicity_detect reports no period
MIN_VISITS = 1000


def tv_distance(mu: OccupationMeasure, nu: OccupationMeasure) -> float:
    """Total variation distance between two binned occupation measures.

    This is the exact TV of the binned discretizations and therefore a lower
    bound on the TV of the underlying distributions.
    """
    if len(mu.bin_edges) != len(nu.bin_edges) or np.any(mu.bin_edges != nu.bin_edges):
        raise ValueError("occupation measures use different bins")
    if mu.total == 0 or nu.total == 0:
        raise ValueError("both measures need positive total mass")
    return float(0.5 * np.abs(mu.frequencies - nu.frequencies).sum())


@dataclass(frozen=True)
class StabilityReport:
    """Cross-start agreement of Cesaro occupation measures.

    noise_scale, the floor against which cross-start distances are judged,
    estimates the TV between two independent same-start ensembles: the mean
    over starts of the TV between the halves of a start's r replicates (h =
    r // 2 and r - h), divided by sqrt((1/h + 1/(r - h)) / (2/r)), which is
    sqrt(2) at even r.  The verdict is stable iff max_cross_tv <= 3 *
    noise_scale; stable is None when absorption invalidated the comparison.
    When some half has no state left after the burn-in, no TV is computed:
    tv_matrix, noise_scale and max_cross_tv are NaN.  advisory marks runs on
    models whose stability hypotheses were not verified.
    """

    initial_states: tuple[float, ...]
    tv_matrix: np.ndarray
    noise_scale: float
    max_cross_tv: float
    stable: bool | None
    advisory: bool
    absorbed: int
    measures: tuple[OccupationMeasure, ...] = field(repr=False, default=())


def stability_test(model: NoiseModel, config: SimConfig, workers: int = 1) -> StabilityReport:
    """Compare long-run occupation measures across config.initial_states.

    Runs one ensemble of r = config.n_replicates >= 2 replicates per state,
    k * r lanes in one walk, and calibrates the verdict threshold by the TV
    between the halves of each ensemble (see StabilityReport).  workers caps
    the worker processes of the walk (see engine._half_tables); the report
    does not depend on it.
    """
    r = config.n_replicates
    if r < 2:
        raise ValueError(f"stability needs sim.replicates >= 2 for its noise floor, got {r}")
    states = tuple(float(x) for x in config.initial_states)
    report = check_conditions(model)
    k = len(states)
    table, stopped = _half_tables(model, states, config, [(i,) for i in range(k)], workers)
    measures = list(map(_measure, table.sum(axis=1), stopped.sum(axis=1)))
    halves = [list(map(_measure, t, a)) for t, a in zip(table, stopped)]
    tv = np.full((k, k), np.nan)
    noise_scale = max_cross = float("nan")
    # a half whose replicates all stopped before the burn-in ended is empty
    if all(m.total for pair in halves for m in pair):
        h = r // 2
        split = np.mean([tv_distance(a, b) for a, b in halves])
        noise_scale = float(split / np.sqrt((1 / h + 1 / (r - h)) / (2 / r)))
        tv = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                tv[i, j] = tv[j, i] = tv_distance(measures[i], measures[j])
        max_cross = float(tv.max()) if k > 1 else 0.0
    absorbed = int(stopped.sum())
    stable = None if absorbed else bool(max_cross <= 3.0 * noise_scale)
    return StabilityReport(
        initial_states=states,
        tv_matrix=tv,
        noise_scale=noise_scale,
        max_cross_tv=max_cross,
        stable=stable,
        advisory=not report.all_ok,
        absorbed=absorbed,
        measures=tuple(measures),
    )


@dataclass(frozen=True)
class ExtinctionReport:
    """Fractions of replicates below the threshold at each checkpoint."""

    checkpoints: tuple[int, ...]
    fractions: tuple[float, ...]
    threshold: float
    n_replicates: int

    @property
    def final_fraction(self) -> float:
        return self.fractions[-1]

    def nondecreasing_within(self) -> bool:
        """Monotonicity of the checkpoint series up to two binomial errors."""
        m = self.n_replicates
        for prev, cur in zip(self.fractions[:-1], self.fractions[1:]):
            se = np.sqrt(max(prev * (1.0 - prev), cur * (1.0 - cur)) / m)
            if cur < prev - 2.0 * se - 1e-12:
                return False
        return True


def extinction_test(
    model: NoiseModel,
    x0: float,
    checkpoints,
    n_replicates: int,
    threshold: float,
    seed: int,
    stream_key: tuple[int, ...],
) -> ExtinctionReport:
    """Fraction of replicates with X_N below threshold at each checkpoint N.

    Marginal snapshots, not Cesaro averages: convergence to extinction is a
    statement about the law of X_N itself.  Replicate i runs on substream
    (seed, *stream_key, i) and reads 0 after it stops (absorbed below
    ABSORB_FLOOR, or at 1).  Once every replicate is at most 2^-54, where
    the map is x -> eps * x in floating point, the walk steps them as one
    running product per block (see engine._walk), with the same bits.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise ValueError("checkpoints must be positive step counts")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must increase")
    draws = _lane_draws(model, _substreams(seed, (stream_key,), int(n_replicates)))
    walk = _walk((x0,) * int(n_replicates), checkpoints[-1], draws)
    snapshots = _snapshots(walk, checkpoints)
    return ExtinctionReport(
        checkpoints=checkpoints,
        fractions=tuple(float(np.mean(s < threshold)) for s in snapshots),
        threshold=float(threshold),
        n_replicates=int(n_replicates),
    )


@dataclass(frozen=True)
class CyclicityReport:
    """Estimated period of the visit pattern to a reference interval.

    residue_masses[r] is the fraction of all counted steps whose index is
    congruent to r modulo the estimated period and whose state lies in the
    reference set; the masses sum to the overall visit frequency.  period is
    None when the reference set was visited fewer than MIN_VISITS (1,000)
    times, too rarely to decide.
    """

    period: int | None
    residue_masses: tuple[float, ...]
    visit_frequency: float
    concentration_by_d: dict[int, float]
    n_visits: int

    @property
    def aperiodic(self) -> bool | None:
        return None if self.period is None else self.period == 1

    @property
    def inconclusive(self) -> bool:
        return self.period is None


def cyclicity_detect(
    model: NoiseModel,
    J,
    n: int,
    d_max: int,
    seed,
    x0: float,
    burn_in: int,
) -> CyclicityReport:
    """Estimate the period of visits to J from one long trajectory.

    The path starts at x0 and runs burn_in + n steps, of which only the n
    after the burn-in are counted.  For each candidate period d the
    concentration is (max residue-class visit count) / (mean residue-class
    visit count), which reaches d for a perfectly cyclic pattern and stays
    near 1 for an aperiodic one.  A
    candidate qualifies when its concentration is within 5% of 2; among
    qualifying candidates within a small tie tolerance of the best, the
    smallest d wins (multiples of the true period tie with it up to noise).
    Below MIN_VISITS (1,000) visits to J the report is inconclusive, with
    period None.
    """
    lo, hi = _check_interval(J)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    # residue-class visit counts for every candidate d, built block by block;
    # post-burn-in step k (k = 0, 1, ...) falls in class k mod d
    residue_counts = {d: np.zeros(d, dtype=np.int64) for d in range(1, d_max + 1)}
    steps = 0
    for done, _, states in _path(model, x0, burn_in + n, seed):
        skip = max(0, burn_in - done)
        post = states[skip:]
        idx = np.nonzero((post > lo) & (post < hi))[0] + (done + skip - burn_in)
        for d, counts in residue_counts.items():
            counts += np.bincount(idx % d, minlength=d)
        steps += len(post)
    n_visits = int(residue_counts[1][0])
    visit_freq = n_visits / steps if steps else 0.0
    if n_visits < MIN_VISITS:
        return CyclicityReport(
            period=None,
            residue_masses=(),
            visit_frequency=visit_freq,
            concentration_by_d={},
            n_visits=n_visits,
        )
    concentration = {
        d: float(counts.max() / counts.mean())
        for d, counts in residue_counts.items()
        if d >= 2
    }
    qualifying = {d: r for d, r in concentration.items() if r >= 2.0 * 0.95}
    if not qualifying:
        period = 1
    else:
        best = max(qualifying.values())
        period = min(d for d, r in qualifying.items() if r >= best - 0.02)
    masses = tuple(residue_counts[period] / steps)
    return CyclicityReport(
        period=period,
        residue_masses=masses,
        visit_frequency=visit_freq,
        concentration_by_d=concentration,
        n_visits=n_visits,
    )


@dataclass(frozen=True)
class KolmogorovReport:
    """Small-noise invariant estimate against the deterministic orbit histogram."""

    theta0: float
    eta: float
    tv: float
    noise_measure: OccupationMeasure
    deterministic_measure: OccupationMeasure


def kolmogorov_approx(theta0: float, eta: float, config: SimConfig) -> KolmogorovReport:
    """Approximate the physical measure of F_theta0 by uniform parameter noise.

    Builds Uniform[theta0 - eta, theta0 + eta] noise, estimates its invariant
    occupation measure, and compares it (binned TV) against the occupation
    histogram of the deterministic orbit of F_theta0 started from the first
    configured initial state, matched in sample count, bins and burn-in.
    """
    if eta <= 0.0:
        raise DomainError("eta must be positive")
    if not (0.0 < theta0 - eta and theta0 + eta < 4.0):
        raise DomainError("noise interval must stay inside (0, 4)")
    model = NoiseModel.uniform(theta0 - eta, theta0 + eta)
    x0 = config.initial_states[0]
    noise_measure = ensemble_occupation(model, x0, config)

    # one long deterministic orbit, matched in total post-burn-in samples
    n_det = config.n_replicates * (config.n_steps - config.burn_in) + config.burn_in
    orbit = _walk((x0,), n_det, lambda eps, live: eps.fill(theta0))
    table, stopped = _occupations(orbit, config.burn_in, config.n_bins, [0], 1)
    det_measure = _measure(table[0], stopped[0])
    tv = tv_distance(noise_measure, det_measure)
    return KolmogorovReport(
        theta0=float(theta0),
        eta=float(eta),
        tv=tv,
        noise_measure=noise_measure,
        deterministic_measure=det_measure,
    )


def lyapunov_deterministic(theta: float, x0: float, n: int, burn_in: int = 0) -> float:
    """Time-averaged log-derivative (1/(n - burn_in)) sum log|theta*(1 - 2*x_k)|.

    The orbit of F_theta from x0 is one walk with every draw theta, and the
    sum runs over its steps from burn_in on (engine._exponent).  Terms where
    the orbit sits exactly on the vertex (zero derivative) are skipped and
    the average renormalized; if the walk stops the orbit (at 1, which only
    theta = 4 reaches, or below engine.ABSORB_FLOOR, where an orbit decaying
    to 0 ends), the sum stops there.  Both events trigger a RuntimeWarning
    that names the stop and its step, since they indicate a nongeneric start.
    """
    theta = _check_theta(theta)
    if not n > burn_in:
        raise ValueError("need n > burn_in")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    orbit = _walk((x0,), n, lambda eps, live: eps.fill(theta))
    total, count, skipped, stop = _exponent(orbit, x0, burn_in)
    if stop is not None:
        step, x = stop
        where = "reached 1" if x == 1.0 else "absorbed below ABSORB_FLOOR"
        warnings.warn(
            f"orbit {where} at step {step}; Lyapunov average truncated to {count} terms",
            RuntimeWarning,
            stacklevel=2,
        )
    if skipped:
        warnings.warn(
            f"skipped {skipped} vertex terms with zero derivative", RuntimeWarning, stacklevel=2
        )
    if count == 0:
        raise ValueError("no usable terms in the Lyapunov average")
    return total / count
