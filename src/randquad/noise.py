"""Parameter-noise distributions on (0, 4).

A NoiseModel is a finite mixture of point masses and uniform pieces, rich
enough to realize every hypothesis pattern the stability theory
distinguishes (purely atomic, purely absolutely continuous, mixed) while
keeping all required moments in closed form.  The module also houses the
seedable substream derivation used by every stochastic consumer in the
package: substreams come from (master_seed, stream-index) splitting and no
global generator exists anywhere.

A draw reads one uniform u and maps it through the law's quantile function,
the inverse of its CDF (`ac_cdf` plus the atoms), so common uniforms couple
stochastically ordered models monotonically.
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
        # (left, right, density) of the open cells between the pieces'
        # endpoints, on which the density is constant, out to +-inf; read by
        # density_runs, kernel._box_bound and the quantile table below
        cuts = [-math.inf, *sorted({e for c, d, _ in pieces for e in (c, d)}), math.inf]
        cells = [(a, b, self.density(0.5 * (a + b))) for a, b in zip(cuts[:-1], cuts[1:])]
        object.__setattr__(self, "_cells", cells)
        # the quantile table, built once: segments (lo, hi, mass) in order of
        # location, each atom one of zero width and each cell of positive
        # density split at the atoms inside it, so the CDF runs through them
        # in order; `quantile` reads (cum, base, cum - base, lo, width)
        drawn = [(a, a, w) for a, w in atoms]
        for left, right, value in cells:
            if value > 0.0:
                ends = [left, *sorted({a for a, _ in atoms if left < a < right}), right]
                drawn += [(x, y, value * (y - x)) for x, y in zip(ends[:-1], ends[1:])]
        lo, hi, mass = map(np.array, zip(*sorted(drawn, key=lambda seg: seg[:2])))
        cum = np.cumsum(mass)
        cum[-1] = 1.0  # guard against roundoff in the last edge
        base = np.concatenate(([0.0], cum[:-1]))
        # where lo + width rounds past hi, one ulp less cannot: hi - lo rounds
        # by at most half an ulp of width
        width = hi - lo
        width = np.where(lo + width > hi, np.nextafter(width, 0.0), width)
        object.__setattr__(self, "_tables", (cum, base, cum - base, lo, width))

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def uniform(cls, c: float, d: float) -> "NoiseModel":
        """Uniform[c, d] noise."""
        return cls(uniform_pieces=((c, d, 1.0),))

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

    def density_runs(self) -> list[tuple[float, float, float]]:
        """Maximal intervals (lo, hi) inside [1, 4] on which the density is
        positive, each with its floor, the least value of the density on it.

        Found exactly from the density's cells, the open intervals between
        piece ends on which it is constant, clipped to [1, 4]: a run is a
        maximal chain of adjacent cells of positive density, and its floor the
        least value of those cells.  Runs come in increasing order.
        """
        runs: list[tuple[float, float, float]] = []
        for left, right, value in self._cells:
            left, right = max(left, 1.0), min(right, 4.0)
            if value > 0.0 and left < right:
                if runs and runs[-1][1] == left:
                    runs[-1] = (runs[-1][0], right, min(runs[-1][2], value))
                else:
                    runs.append((left, right, value))
        return runs

    # ------------------------------------------------------------------ #
    # sampling

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw parameters from the mixture.

        Consumes exactly one uniform per draw, rng.random(n), and maps it
        through `quantile`.  Chunked and one-shot requests read the identical
        stream: sample(rng, n) concatenated over chunks is bitwise the same
        sequence for any chunking.
        """
        n = 1 if size is None else int(size)
        out = self.quantile(rng.random(n), np.empty(n))
        return float(out[0]) if size is None else out

    def quantile(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write to out the quantiles of the uniforms u in [0, 1), one parameter each.

        u falls in segment k = searchsorted(cum, u, "right") of the quantile
        table, between the cumulative masses base[k] = cum[k - 1] and cum[k],
        and goes to lo[k] + width[k] * (u - base[k]) / (cum[k] - base[k]).
        Dividing by the table's own difference keeps the position in [0, 1],
        as rounding is monotone, and width is shrunk where lo + width would
        round past the segment's right end, so every draw lies in its closed
        segment and an atom, of width 0, comes out exactly.  With a single
        component there is no search and no rescaling: the parameter is
        u * width + lo.
        """
        cum, base, mass, lo, width = self._tables
        if len(cum) == 1:
            np.multiply(u, width[0], out=out)
            out += lo[0]
            return out
        k = np.searchsorted(cum, u, side="right")
        np.subtract(u, base[k], out=out)
        out /= mass[k]
        out *= width[k]
        out += lo[k]
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
    density_interval, when present, is (c, d, inf_h): a nondegenerate (c, d)
    inside [1, 4] on which the density stays at or above inf_h > 0.  all_ok
    means every hypothesis needed for stability in distribution was verified.
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
    [1, 4] (the first on a tie), (c, d, floor) as density_runs gives it: the
    floor is the exact infimum of the density over the run, and positive.
    Absence of a qualifying interval is an outcome, not an error.
    """
    e_log = model.e_log()
    e_log4m = model.e_log4m()
    moments_ok = e_log > 0.0 and math.isfinite(e_log4m)
    density_interval = max(model.density_runs(), key=lambda r: r[1] - r[0], default=None)

    return ConditionReport(
        e_log=e_log,
        e_log4m=e_log4m,
        support_bounds=model.support_bounds(),
        density_interval=density_interval,
        moments_ok=moments_ok,
        density_ok=density_interval is not None,
    )
