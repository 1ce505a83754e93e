"""Parameter-noise distributions on (0, 4).

A NoiseModel is a finite mixture of point masses and uniform pieces, rich
enough to realize every hypothesis pattern the stability theory
distinguishes (purely atomic, purely absolutely continuous, mixed) while
keeping all required moments in closed form.  The module also houses the
seedable substream derivation used by every stochastic consumer in the
package: substreams come from (master_seed, stream-index) splitting and no
global generator exists anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "ConditionReport",
    "check_conditions",
    "substream",
]

WEIGHT_TOL = 1e-12


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream `key` under `master_seed`.

    Splitting is (seed, stream-index) based, so any consumer can derive its
    own stream without coordination and results never depend on scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class NoiseModel:
    """Mixture distribution for the random map parameter.

    atoms: ((location, weight), ...) with locations strictly inside (0, 4).
    uniform_pieces: ((c, d, weight), ...) with 0 < c < d < 4.  Weights are
    nonnegative and sum to one.  Overlapping pieces stack their densities.
    A zero-weight component is checked like any other and then dropped, so
    atoms and uniform_pieces hold only the components that carry mass.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    uniform_pieces: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        pieces = tuple((float(c), float(d), float(w)) for c, d, w in self.uniform_pieces)
        if not atoms and not pieces:
            raise ValueError("noise model needs at least one component")
        for loc, w in atoms:
            if not (0.0 < loc < 4.0):
                raise ValueError(f"atom location {loc} outside (0, 4)")
            if not w >= 0.0:  # also rejects NaN
                raise ValueError("atom weights must be nonnegative")
        for c, d, w in pieces:
            if not (0.0 < c < d < 4.0):
                raise ValueError(f"uniform piece ({c}, {d}) invalid in (0, 4)")
            if not w >= 0.0:
                raise ValueError("piece weights must be nonnegative")
        total = sum(w for _, w in atoms) + sum(w for *_, w in pieces)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        # a zero-weight component adds exactly +0.0 to every density, cdf and
        # moment, and must never be drawn: drop it here, once, for every method
        atoms, pieces = (tuple(x for x in xs if x[-1] > 0.0) for xs in (atoms, pieces))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "uniform_pieces", pieces)
        # sampling tables, built once; an atom is a piece of zero width
        drawn = [(a, a, w) for a, w in atoms] + list(pieces)
        lo, hi, weights = map(np.array, zip(*drawn))
        cum = np.cumsum(weights)
        cum[-1] = 1.0  # guard against roundoff in the last edge
        object.__setattr__(self, "_tables", (cum, lo, hi - lo))
        # (left, right, density) of the open cells between the pieces'
        # endpoints, on which the density is constant, out to +-inf
        cuts = [-math.inf, *sorted({e for c, d, _ in pieces for e in (c, d)}), math.inf]
        cells = [(a, b, self.density(0.5 * (a + b))) for a, b in zip(cuts[:-1], cuts[1:])]
        object.__setattr__(self, "_cells", cells)

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def uniform(cls, c: float, d: float) -> "NoiseModel":
        """Uniform[c, d] noise."""
        return cls(uniform_pieces=((c, d, 1.0),))

    @classmethod
    def point_mass(cls, theta: float) -> "NoiseModel":
        """Degenerate noise: the deterministic map F_theta."""
        return cls(atoms=((theta, 1.0),))

    # ------------------------------------------------------------------ #
    # basic structure

    @property
    def ac_weight(self) -> float:
        """Total weight of the absolutely continuous component."""
        return sum(w for *_, w in self.uniform_pieces)

    def support_bounds(self) -> tuple[float, float]:
        """(mu, nu): smallest and largest support points, inside (0, 4)."""
        ends = [(a, a) for a, _ in self.atoms] + [(c, d) for c, d, _ in self.uniform_pieces]
        return min(lo for lo, _ in ends), max(hi for _, hi in ends)

    def ac_bounds(self) -> tuple[float, float]:
        """(c_min, d_max) = (min c, max d) of the uniform pieces, outside which h vanishes."""
        if not self.uniform_pieces:
            raise ValueError("model has no absolutely continuous component")
        c, d, _ = zip(*self.uniform_pieces)
        return min(c), max(d)

    # ------------------------------------------------------------------ #
    # density / cdf

    def density(self, theta) -> np.ndarray | float:
        """Density h(theta) of the absolutely continuous component.

        Atoms contribute nothing.  Piece endpoints are inclusive, so a
        uniform piece is a closed box; the convention only matters on a
        Lebesgue-null set.
        """
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for c, d, w in self.uniform_pieces:
            out = out + (w / (d - c)) * ((theta >= c) & (theta <= d))
        return out if out.ndim else float(out)

    def ac_cdf(self, u) -> np.ndarray | float:
        """Integral of the density from 0 to u (reaches ac_weight, not 1)."""
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for c, d, w in self.uniform_pieces:
            out = out + w * np.clip((u - c) / (d - c), 0.0, 1.0)
        return out if out.ndim else float(out)

    def cdf(self, u) -> np.ndarray | float:
        """Full distribution function, atoms included (right-continuous)."""
        u = np.asarray(u, dtype=float)
        out = np.asarray(self.ac_cdf(u), dtype=float).copy()
        for loc, w in self.atoms:
            out = out + w * (u >= loc)
        return out if out.ndim else float(out)

    def inf_density(self, lo, hi) -> np.ndarray | float:
        """Exact infimum of the density over [lo, hi] (lo < hi), up to null sets.

        The least value over the cells between piece endpoints that the
        interval meets in positive length, so an end sitting on a cut does not
        reach past it; 0 once it leaves the support.  Atoms are dropped.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        out = math.inf
        for left, right, value in self._cells:
            out = np.minimum(out, np.where((left < hi) & (lo < right), value, math.inf))
        return out if out.ndim else float(out)

    def density_runs(self) -> list[tuple[float, float]]:
        """Maximal intervals inside [1, 4] on which the density is positive.

        Found exactly from the density's cells (see inf_density), clipped to
        [1, 4]: a run is a maximal chain of adjacent cells of positive density.
        Runs come in increasing order.
        """
        runs: list[tuple[float, float]] = []
        for left, right, value in self._cells:
            left, right = max(left, 1.0), min(right, 4.0)
            if value > 0.0 and left < right:
                if runs and runs[-1][1] == left:
                    runs[-1] = (runs[-1][0], right)
                else:
                    runs.append((left, right))
        return runs

    # ------------------------------------------------------------------ #
    # sampling

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw parameters from the mixture.

        Consumes exactly two uniforms per draw (component selector, then the
        within-piece position), laid out so that chunked and one-shot
        requests read the identical stream: sample(rng, n) concatenated over
        chunks is bitwise the same sequence for any chunking.  The uniforms
        are drawn as rng.random((n, 2)) and then placed by the same step that
        `sample_lanes` runs over a whole block of lanes.
        """
        n = 1 if size is None else int(size)
        out = self._place(rng.random((n, 2)), np.empty(n))
        return float(out[0]) if size is None else out

    def sample_lanes(self, rngs, live, out: np.ndarray, buf: np.ndarray) -> None:
        """Fill out[:, j] with the next m = len(out) draws of rngs[j] for each lane j in live.

        live is an integer array of lane indices.  Lane j's column is bitwise
        sample(rngs[j], m), and consecutive calls continue each lane's stream
        as consecutive sample calls would.  buf, of shape (len(rngs), >= m, 2),
        holds the lanes' uniforms: each live lane draws its (m, 2) block into
        buf[j], then one placement step converts every lane's uniforms at
        once.  A lane outside live draws nothing; its column is placed from
        whatever its buf rows still hold, which is finite and inside the
        support when buf started zeroed.
        """
        u = buf[:, : len(out)]
        for j in live.tolist():
            rngs[j].random(out=u[j])
        self._place(u.transpose(1, 0, 2), out)

    def _place(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write to out the parameters that uniform pairs u[..., 0], u[..., 1] select.

        u[..., 0] picks the component through the cumulative weights and the
        parameter is u[..., 1] * width + lo of that component.  With a single
        component there is nothing to pick: the same two IEEE operations run
        on its scalar lo and width, so the bits agree.
        """
        cum, lo, width = self._tables
        idx = 0 if len(cum) == 1 else np.searchsorted(cum, u[..., 0], side="right")
        np.multiply(u[..., 1], width[idx], out=out)
        out += lo[idx]
        return out

    # ------------------------------------------------------------------ #
    # closed-form moments

    def e_log(self) -> float:
        """E log(eps), with exact piece integrals (no quadrature error)."""
        total = sum(w * math.log(a) for a, w in self.atoms)
        for c, d, w in self.uniform_pieces:
            total += w * (d * math.log(d) - d - c * math.log(c) + c) / (d - c)
        return total

    def e_log4m(self) -> float:
        """E |log(4 - eps)|, exact; finite for every valid model.

        Each piece integral of |log(4 - theta)| is computed by substituting
        u = 4 - theta and splitting at u = 1 (theta = 3) where the sign of
        the logarithm flips, avoiding any quadrature near the singularity.
        """
        total = sum(w * abs(math.log(4.0 - a)) for a, w in self.atoms)
        for c, d, w in self.uniform_pieces:
            total += w * _abs_log_integral(4.0 - d, 4.0 - c) / (d - c)
        return total


def _abs_log_integral(a: float, b: float) -> float:
    """Integral of |log(u)| over [a, b], 0 < a < b, via G(u) = u log u - u."""
    g = lambda u: u * math.log(u) - u
    if a >= 1.0:
        return g(b) - g(a)
    if b <= 1.0:
        return g(a) - g(b)
    # split at u = 1 where G takes its minimum value -1
    return g(a) + g(b) + 2.0


@dataclass(frozen=True)
class ConditionReport:
    """Evaluated stability hypotheses for a noise model.

    moments_ok is the moment condition E log(eps) > 0 and E|log(4-eps)| < inf;
    density_interval, when present, is a nondegenerate (c, d) inside (1, 4) on
    which the density stays at or above inf_h > 0.  all_ok means every
    hypothesis needed for stability in distribution was verified.
    """

    e_log: float
    e_log4m: float
    support_bounds: tuple[float, float]
    density_interval: tuple[float, float, float] | None
    moments_ok: bool
    density_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.moments_ok and self.density_ok


def check_conditions(model: NoiseModel) -> ConditionReport:
    """Evaluate the stability hypotheses for `model`.

    The density interval is the widest of the model's density runs inside
    [1, 4] (the first on a tie), reported with the exact infimum of the
    density over it (inf_density).  Absence of a qualifying interval is an
    outcome, not an error.
    """
    e_log = model.e_log()
    e_log4m = model.e_log4m()
    moments_ok = e_log > 0.0 and math.isfinite(e_log4m)

    best = max(model.density_runs(), key=lambda r: r[1] - r[0], default=None)
    # a run is a chain of cells of positive density, so its infimum is positive
    density_interval = None if best is None else (*best, model.inf_density(*best))

    return ConditionReport(
        e_log=e_log,
        e_log4m=e_log4m,
        support_bounds=model.support_bounds(),
        density_interval=density_interval,
        moments_ok=moments_ok,
        density_ok=density_interval is not None,
    )
