"""Statistical verdicts on simulated output.

Each test here turns a qualitative claim about the perturbed quadratic map
into a reproducible numerical check: stability in distribution (Cesaro
occupation measures forget the initial state), invariant-measure probes
against a minorization certificate, extinction when E log(eps) <= 0,
cyclicity of the visit pattern, and the small-noise approximation of the
physical measure of a deterministic map.

Convergence rates are not available from the theory, so thresholds are
self-calibrated where possible (stability compares cross-start distances
against same-start replicate noise) and otherwise fixed, documented desk-
scale choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (
    OccupationMeasure,
    SimConfig,
    _check_interval,
    _lane_draws,
    _occupations,
    _path,
    _snapshots,
    _substreams,
    _walk,
    ensemble_occupation,
    ensemble_occupations,
)
from .kernel import MinorizationCertificate
from .noise import NoiseModel, check_conditions
from .quadmap import DomainError

__all__ = [
    "StabilityReport",
    "InvariantEstimate",
    "ExtinctionReport",
    "CyclicityReport",
    "KolmogorovReport",
    "tv_distance",
    "stability_test",
    "invariant_estimate",
    "extinction_test",
    "cyclicity_detect",
    "kolmogorov_approx",
]

# a stream namespace, so the same master seed never reuses a substream
_NOISE_PAIR_KEY = 1_000_003


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

    noise_scale is the TV between two independent same-start ensembles, the
    measurement floor against which cross-start distances are judged; the
    verdict is stable iff max_cross_tv <= 3 * noise_scale.  stable is None
    when absorption invalidated the comparison.  advisory marks runs on
    models whose stability hypotheses were not verified.
    """

    initial_states: tuple[float, ...]
    n_steps: int
    n_replicates: int
    n_bins: int
    tv_matrix: np.ndarray
    noise_scale: float
    max_cross_tv: float
    stable: bool | None
    advisory: bool
    absorbed: int
    measures: tuple[OccupationMeasure, ...] = field(repr=False, default=())


def stability_test(
    model: NoiseModel, initial_states, config: SimConfig, workers: int = 1
) -> StabilityReport:
    """Compare long-run occupation measures across initial states.

    Runs one ensemble per initial state plus an independent same-start pair
    (at the first state) whose TV distance calibrates the verdict threshold.
    workers caps the worker processes of the walk (see ensemble_occupations);
    the report does not depend on it.
    """
    states = tuple(float(x) for x in initial_states)
    if not states:
        raise ValueError("need at least one initial state")
    report = check_conditions(model)
    k = len(states)
    # every replicate of every ensemble is a lane of one walk
    found = ensemble_occupations(
        model,
        states + (states[0], states[0]),
        config,
        [(i,) for i in range(k)] + [(_NOISE_PAIR_KEY, r) for r in (0, 1)],
        workers,
    )
    measures, pair = found[:k], found[k:]
    noise_scale = tv_distance(pair[0], pair[1])
    tv = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            tv[i, j] = tv[j, i] = tv_distance(measures[i], measures[j])
    max_cross = float(tv.max()) if k > 1 else 0.0
    absorbed = sum(m.absorbed for m in measures + pair)
    stable = None if absorbed else bool(max_cross <= 3.0 * noise_scale)
    return StabilityReport(
        initial_states=states,
        n_steps=config.n_steps,
        n_replicates=config.n_replicates,
        n_bins=config.n_bins,
        tv_matrix=tv,
        noise_scale=noise_scale,
        max_cross_tv=max_cross,
        stable=stable,
        advisory=not report.all_ok,
        absorbed=absorbed,
        measures=tuple(measures),
    )


@dataclass(frozen=True)
class InvariantEstimate:
    """Long-run occupation measure with the minorization consistency probes.

    mass_on_J estimates the invariant mass of the certificate's interval;
    min_density_on_J is the smallest binned density over bins inside J.  The
    invariant measure must satisfy density >= delta * mass_on_J on J, so
    `consistent` flags whether the estimate respects that bound up to the
    stated slack.
    """

    measure: OccupationMeasure
    certificate: MinorizationCertificate
    mass_on_J: float
    min_density_on_J: float
    density_floor: float
    consistent: bool


def invariant_estimate(
    model: NoiseModel,
    config: SimConfig,
    certificate: MinorizationCertificate,
    x0: float | None = None,
    slack: float = 0.10,
) -> InvariantEstimate:
    """Estimate the invariant measure and check it against a certificate.

    slack is the tolerated relative shortfall of the binned density below
    the delta * mass_on_J floor, covering binning and Monte Carlo error.
    """
    x0 = config.initial_states[0] if x0 is None else float(x0)
    measure = ensemble_occupation(model, x0, config)
    lo, hi = certificate.J
    mass = measure.mass_in((lo, hi))
    inside = (measure.bin_edges[:-1] >= lo) & (measure.bin_edges[1:] <= hi)
    if not inside.any():
        raise ValueError("certificate interval is narrower than one bin")
    min_density = float(measure.binned_density()[inside].min())
    floor = certificate.delta * mass
    consistent = mass > 0.0 and min_density >= floor * (1.0 - slack)
    return InvariantEstimate(
        measure=measure,
        certificate=certificate,
        mass_on_J=mass,
        min_density_on_J=min_density,
        density_floor=floor,
        consistent=consistent,
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

    def nondecreasing_within(self, n_se: float = 2.0) -> bool:
        """Monotonicity of the checkpoint series up to n_se binomial errors."""
        m = self.n_replicates
        for prev, cur in zip(self.fractions[:-1], self.fractions[1:]):
            se = np.sqrt(max(prev * (1.0 - prev), cur * (1.0 - cur)) / m)
            if cur < prev - n_se * se - 1e-12:
                return False
        return True


def extinction_test(
    model: NoiseModel,
    x0: float,
    checkpoints,
    n_replicates: int,
    threshold: float,
    seed: int,
    stream_key: tuple[int, ...] = (),
) -> ExtinctionReport:
    """Fraction of replicates with X_N below threshold at each checkpoint N.

    Marginal snapshots, not Cesaro averages: convergence to extinction is a
    statement about the law of X_N itself.  Replicate i runs on substream
    (seed, *stream_key, i) and reads 0 after it stops (absorbed below
    ABSORB_FLOOR, or at 1).
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise ValueError("checkpoints must be positive step counts")
    if list(checkpoints) != sorted(checkpoints):
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
    None when the reference set was visited too rarely to decide.
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
    x0: float = 0.5,
    burn_in: int = 1000,
    min_visits: int = 1000,
) -> CyclicityReport:
    """Estimate the period of visits to J from one long trajectory.

    For each candidate period d the concentration is (max residue-class
    visit count) / (mean residue-class visit count), which reaches d for a
    perfectly cyclic pattern and stays near 1 for an aperiodic one.  A
    candidate qualifies when its concentration is within 5% of 2; among
    qualifying candidates within a small tie tolerance of the best, the
    smallest d wins (multiples of the true period tie with it up to noise).
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
    if n_visits < min_visits:
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
    (det_measure,) = _occupations(orbit, config.burn_in, config.bin_edges, (1,))
    tv = tv_distance(noise_measure, det_measure)
    return KolmogorovReport(
        theta0=float(theta0),
        eta=float(eta),
        tv=tv,
        noise_measure=noise_measure,
        deterministic_measure=det_measure,
    )
