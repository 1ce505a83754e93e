"""Transition-density machinery for the parameter-noise quadratic map.

The one-step kernel of the chain has the absolutely continuous part

    p(x, y) = h(y / (x(1-x))) / (x(1-x)),

with h the density of the noise mixture; n-step densities follow by
integrating over the intermediate state.  Atomic noise components are
excluded throughout: the minorization argument only ever uses the density
channel, and dropping atoms makes every computed value a pointwise lower
bound for the full kernel.

Numerics: densities are represented as cell averages on a uniform grid over
(0, 1).  One recursion step integrates the kernel mass over each source
cell in closed form (the antiderivative of H(e / (z(1-z))) is elementary,
H being the piecewise-linear CDF of the density component), so mass is
conserved exactly and the only discretization error is the piecewise-
uniform representation of the previous row.  Pointwise sampling of the
discontinuous h inside quadratures is avoided entirely; plain trapezoid
sums on such integrands stall near 1e-4 accuracy at practical resolutions,
far short of what the normalization checks demand.  The closed form takes
logit(t) = log(t/(1-t)) at band ends clipped to the source edges; logit is
monotone, so clipping logit(z) between the logits of the band ends gives the
same floats as the logit of the clipped z, with one log per edge instead of
one per matrix entry.  The terms of one edge alone (crossings and their
logits, w/(d-c), logits of the source edges) are computed once per build
over all edges and sliced per block, and each clip is an in-place maximum
then minimum.  At edges z <= 1/2 the part of a band above t = 1/2 adds
exactly zero and the clip to a piece's upper crossing changes nothing; of
the half grid only the last edge can pass 1/2 (on an odd grid), so both
are done only where some edge does.

Storage: the transfer matrix is never held dense.  The kernel is symmetric
in the source state (s(x) = x(1-x) = s(1-x)), so only the source cells of
the half grid are kept, and each out cell receives mass from one contiguous
run of them; KernelOperator stores those runs in padded row blocks, each
built the first time a source density is nonzero over its columns.  All
blocks hold about half the nonzeros of the dense matrix, 44 MiB at R = 8192
for U[2,3] against 512 MiB for the dense R x R array; three steps from four
x in [0.25, 0.75] build 161 of the 256 blocks, 35 MiB.

Minorization (Doeblin's condition; Meyn & Tweedie, Markov Chains and
Stochastic Stability) rests on box lower bounds.  Over a box X x Y, s(x)
spans [s_lo, s_hi], so p >= inf h over [y_lo / s_hi, y_hi / s_lo] / s_hi.
delta is the least such bound over grid_n x grid_n boxes of J x J; m >= 2
chains p^(k+1)(X, Z) >= sum over Y of |Y| low^(k)(X, Y) inf p(Y, Z) through
`resolution` cells on each k-step image of J, outside which no mass lies.
Bounds round outward by _BOUND_SLACK (Tucker, Validated Numerics, 2011); the
s spans and k-step images of J take that rounding from quadmap.interval_image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import _check_interval, _first_entry, _lane_draws, _substreams, _walk
from .noise import NoiseModel
from .quadmap import _BOUND_SLACK, PeriodicOrbit, find_periodic_orbit, interval_image, q_of_theta

__all__ = [
    "QuadratureError",
    "DensityRow",
    "DensityGrid",
    "MinorizationCertificate",
    "MinorizationFailure",
    "KernelOperator",
    "one_step_density",
    "one_step_row_mass",
    "n_step_density",
    "density_grid",
    "orbit_density_chain",
    "minorization_probe",
    "irreducibility_probe",
]


class QuadratureError(RuntimeError):
    """Resolution too coarse: measured normalization drift beyond tolerance."""


def one_step_density(model: NoiseModel, x: float, y) -> np.ndarray | float:
    """Pointwise one-step density p(x, y) of the absolutely continuous part."""
    model.ac_bounds()  # raises without an a.c. part
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    s = x * (1.0 - x)
    y = np.asarray(y, dtype=float)
    out = np.asarray(model.density(y / s)) / s
    return out if out.ndim else float(out)


def one_step_row_mass(model: NoiseModel, x: float, y_lo: float = 0.0, y_hi: float = 1.0) -> float:
    """Exact integral of p(x, y) over y in [y_lo, y_hi] (no quadrature)."""
    model.ac_bounds()  # raises without an a.c. part
    s = x * (1.0 - x)
    return float(model.ac_cdf(y_hi / s) - model.ac_cdf(y_lo / s))


def _crossing(e, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    # {t : t(1-t) >= e/kappa}; empty unless 4e <= kappa (encoded as the
    # degenerate pair (0.5, 0.5))
    disc = 1.0 - 4.0 * e / kappa
    root = np.sqrt(np.maximum(disc, 0.0))
    empty = disc <= 0.0
    lo = np.where(empty, 0.5, (2.0 * e / kappa) / (1.0 + root))  # stable (1 - root)/2
    return lo, np.where(empty, 0.5, 0.5 * (1.0 + root))


def _logit(t):
    # infinite at t = 0 and 1: the grid's ends, and the crossings at e = 0 (set to A_0 = 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(t / (1.0 - t))


def _clip(a, lo, hi, out):
    """clip(a, lo, hi) into out, as an in-place maximum then minimum."""
    return np.minimum(np.maximum(a, lo, out=out), hi, out=out)


def _edge_terms(model: NoiseModel, e: np.ndarray) -> list:
    """Per uniform piece, (c, w, w / (d - c), the crossings zd1, zc1, zc2,
    zd2 over e's shape followed by their logits, stacked)."""
    terms = []
    for c, d, w in model.uniform_pieces:
        (zc1, zc2), (zd1, zd2) = _crossing(e, c), _crossing(e, d)
        cross = np.stack([zd1, zc1, zc2, zd2])
        terms.append((c, w, w / (d - c), np.concatenate([cross, _logit(cross)])))
    return terms


def _antiderivative(e: np.ndarray, terms: list, z: np.ndarray, logit_z: np.ndarray) -> np.ndarray:
    """A_e(z) from _edge_terms(model, e) and logit(z); see _h_mass_antiderivative."""
    shape = np.broadcast_shapes(e.shape, z.shape)
    total = np.zeros(shape)
    part_w, lam_band, log_band, right = (np.empty(shape) for _ in range(4))
    past_half = bool((z > 0.5).any())
    with np.errstate(invalid="ignore"):
        for c, w, slope, (zd1, zc1, zc2, zd2, logit_d1, logit_c1, logit_c2, logit_d2) in terms:
            # part_w = w * (z - lam_d), lam_d = clip(z, zd1, zd2) - zd1; the
            # left band is clip(z, zd1, zc1) - zd1, from the same max(z, zd1)
            np.maximum(z, zd1, out=part_w)
            np.minimum(part_w, zc1, out=lam_band)
            lam_band -= zd1
            if past_half:  # else z <= 1/2 <= zd2, and the min changes nothing
                np.minimum(part_w, zd2, out=part_w)
            part_w -= zd1
            np.subtract(z, part_w, out=part_w)
            part_w *= w
            # an empty band (zd1 == zc1 or zc2 == zd2) clips to its own
            # start and adds exactly zero
            _clip(logit_z, logit_d1, logit_c1, log_band)
            log_band -= logit_d1
            if past_half:
                lam_band += _clip(z, zc2, zd2, right) - zc2
                log_band += _clip(logit_z, logit_c2, logit_d2, right) - logit_c2
            # total += part_w + (w / (d - c)) * (e * log_band - c * lam_band)
            log_band *= e
            lam_band *= c
            log_band -= lam_band
            log_band *= slope
            log_band += part_w
            total += log_band
    return total if (e > 0.0).all() else np.where(e > 0.0, total, 0.0)


def _h_mass_antiderivative(model: NoiseModel, e, z) -> np.ndarray:
    """A_e(z) = integral from 0 to z of H(e / (t(1-t))) dt, in closed form.

    H is the CDF of the density component.  Per uniform piece (c, d, w) the
    integrand is w outside {t : t(1-t) >= e/d}, zero inside
    {t : t(1-t) >= e/c}, and affine in 1/(t(1-t)) on the two bands between,
    where the antiderivative of 1/(t(1-t)) is log(t/(1-t)).  e and z
    broadcast against each other (a column of out edges against a row of
    source edges gives one block of the transfer matrix); A_e vanishes for
    e <= 0.

    Every value is the same float as the plain formula's, for fewer passes
    over the broadcast array.  The terms of e alone come from _edge_terms,
    which the transfer matrix calls once per build and slices per block;
    both run _antiderivative.  logit is monotone, so logit(clip(z, a, b))
    equals clip(logit(z), logit(a), logit(b)) bit for bit: logit is taken
    once over z and once over each crossing, never over the 2-D array.
    Each clip is an in-place maximum then minimum, and one max(z, zd1)
    serves the w part and the left band.  Where z <= 1/2 the right band
    [zc2, zd2], which starts at or above 1/2, adds exactly +0.0 and the min
    with zd2 changes nothing, so both run only when some z exceeds 1/2 (on
    the half grid of the transfer matrix only the last edge can).  The
    arithmetic runs in place in the formula's operand order.
    """
    e = np.asarray(e, dtype=float)
    z = np.asarray(z, dtype=float)
    return _antiderivative(e, _edge_terms(model, e), z, _logit(z))


# out cells per padded block of the banded transfer matrix: small enough that
# the bands of a block's rows nearly coincide, large enough that applying the
# matrix is a few dozen matrix-vector products
_BLOCK_ROWS = 32


class _FoldedBand(NamedTuple):
    """Kernel mass matrix over folded source cells, in padded row blocks.

    s(t) = t(1-t) = s(1-t), so source cells i and R-1-i send identical mass
    to every out cell; only the half grid i < ceil(R/2) is stored, applied to
    the folded vector f_i + f_{R-1-i} (the middle cell of an odd grid is not
    doubled).  Out cell (e0, e1] receives mass only from sources with
    e0/d_max < s < e1/c_min, where (c_min, d_max) = model.ac_bounds(), one
    contiguous run of the half grid since s increases there.  Rows go in
    blocks of _BLOCK_ROWS: block k, dense over the union of its rows' runs,
    maps half-grid cells lo .. hi - 1 into out cells j0 .. j1 - 1
    (spans[k]); blocks[k] is None until its first use.
    """

    spans: list
    blocks: list
    out_edges: np.ndarray
    terms: list
    z: np.ndarray
    logit_z: np.ndarray

    def block(self, k: int) -> np.ndarray:
        if self.blocks[k] is None:
            j0, j1, lo, hi = self.spans[k]
            rows, cols = slice(j0, j1 + 1), slice(lo, hi + 1)
            cut = [(c, w, slope, cross[:, rows]) for c, w, slope, cross in self.terms]
            e, z, logit_z = self.out_edges[rows, None], self.z[None, cols], self.logit_z[:, cols]
            A = _antiderivative(e, cut, z, logit_z)
            self.blocks[k] = np.diff(np.diff(A, axis=1), axis=0)
        return self.blocks[k]

    def apply(self, folded: np.ndarray) -> np.ndarray:
        """Out-cell masses of each row of folded.  Each block meets every row
        in turn while in cache (one GEMM would sum in another order), or is
        skipped where all rows are zero over its columns: its out cells keep
        the +0.0 its products would give."""
        out = np.zeros((len(folded), len(self.out_edges) - 1))
        for k, (j0, j1, lo, hi) in enumerate(self.spans):
            if folded[:, lo:hi].any():
                for f, o in zip(folded[:, lo:hi], out):
                    o[j0:j1] = self.block(k) @ f
        return out


@dataclass(frozen=True)
class DensityRow:
    """Cell-averaged n-step density p^(n)(x, .) on the cells of y_edges.

    row_integral is the exact sum of cell masses; expected_mass is
    (a.c. weight)^n, since atomic noise removes kernel mass at every step.
    Values coincide with the pointwise density wherever it is constant
    across a cell; elsewhere they are averages.
    """

    n: int
    x: float
    y_edges: np.ndarray
    values: np.ndarray
    resolution: int
    row_integral: float
    expected_mass: float

    @property
    def y_centers(self) -> np.ndarray:
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])

    @property
    def drift(self) -> float:
        return abs(self.row_integral - self.expected_mass)


@dataclass(frozen=True)
class DensityGrid:
    """Stacked density rows for several source states on common y cells."""

    n: int
    x_values: np.ndarray
    y_edges: np.ndarray
    values: np.ndarray  # shape (len(x_values), len(y_edges) - 1)
    resolution: int
    row_integrals: np.ndarray
    expected_mass: float


class KernelOperator:
    """Reusable n-step density evaluator at a fixed internal resolution.

    Building the transfer matrix on the internal grid is the dominant cost,
    so construct one operator and query many source states against it.

    The matrix is stored folded and banded (see _FoldedBand): half the
    source columns, and of those only the run that can reach each out cell,
    in row blocks built when a source density first reaches them.  All of
    them keep about half the nonzeros, 44 MiB at R = 8192 for U[2,3] against
    512 MiB dense; rows(x, 3) for x in [0.25, 0.75] builds 35 MiB.
    """

    def __init__(self, model: NoiseModel, resolution: int):
        model.ac_bounds()  # raises without an a.c. part
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.model = model
        self.resolution = int(resolution)
        self.edges = np.linspace(0.0, 1.0, self.resolution + 1)
        self.widths = np.diff(self.edges)
        self._step_matrix: _FoldedBand | None = None

    def _band(self, out_edges: np.ndarray) -> _FoldedBand:
        """Masses from each folded half-grid source cell into each out cell."""
        half = (self.resolution + 1) // 2
        c_min, d_max = self.model.ac_bounds()
        # s over half-grid cell i spans [s_lo[i], s_hi[i]]; the last cell
        # reaches 1/2 (or straddles it on an odd grid), where s peaks at 1/4
        z = self.edges[: half + 1]
        s = z * (1.0 - z)
        s_lo, s_hi = s[:-1], np.append(s[1:-1], 0.25)
        # run of each out cell, widened by one cell against roundoff in s
        first = np.maximum(np.searchsorted(s_hi, out_edges[:-1] / d_max, side="left") - 1, 0)
        stop = np.minimum(np.searchsorted(s_lo, out_edges[1:] / c_min, side="left") + 1, half)
        # each block's out cells and the union of their runs
        j0 = np.arange(0, len(out_edges) - 1, _BLOCK_ROWS)
        lo = np.minimum.reduceat(first, j0)
        hi = np.maximum(np.maximum.reduceat(stop, j0), lo)
        spans = list(zip(j0, np.append(j0[1:], len(out_edges) - 1), lo, hi))
        # the terms of one out edge or one source edge, once; each block slices them
        terms, logit_z = _edge_terms(self.model, out_edges[:, None]), _logit(z[None, :])
        return _FoldedBand(spans, [None] * len(spans), out_edges, terms, z, logit_z)

    def _fold(self, masses: np.ndarray) -> np.ndarray:
        """Cell densities f, one row each, folded onto the half grid: f_i + f_{R-1-i}."""
        f = masses / self.widths
        half = (self.resolution + 1) // 2
        folded = f[:, :half] + f[:, ::-1][:, :half]
        if self.resolution % 2:
            folded[:, -1] = f[:, half - 1]
        return folded

    def _step(self) -> _FoldedBand:
        if self._step_matrix is None:
            self._step_matrix = self._band(self.edges)
        return self._step_matrix

    def rows(self, x_values, n: int) -> list[DensityRow]:
        """Cell-averaged p^(n)(x, .) on the internal grid for each x, all
        checked first; each step applies the matrix to every row at once."""
        x = np.asarray(x_values, dtype=float)
        for i, xi in enumerate(x):
            if not (0.0 < xi < 1.0):
                raise ValueError(f"x_values[{i}] = {float(xi)} must lie in (0, 1)")
        if n < 1:
            raise ValueError("n must be >= 1")
        s = x * (1.0 - x)
        masses = np.diff(self.model.ac_cdf(self.edges / s[:, None]), axis=1)
        for _ in range(n - 1):
            masses = self._step().apply(self._fold(masses))
        return [DensityRow(n=n, x=float(xi), y_edges=self.edges, values=m / self.widths,
                           resolution=self.resolution, row_integral=float(m.sum()),
                           expected_mass=self.model.ac_weight**n) for xi, m in zip(x, masses)]

    def row(self, x: float, n: int) -> DensityRow:
        """Cell-averaged p^(n)(x, .) on the internal grid."""
        return self.rows([x], n)[0]


def n_step_density(
    model: NoiseModel,
    x: float,
    n: int,
    resolution: int = 2048,
    normalization_tol: float = 1e-6,
) -> DensityRow:
    """n-step density row from x, with a normalization failure guard.

    The cell masses must sum to (a.c. weight)^n within normalization_tol;
    a larger measured drift raises QuadratureError, which
    indicates the resolution cannot support the requested computation (the
    closed-form transfer keeps drift at roundoff level unless the source
    state feeds mass into the extreme cells).
    """
    row = KernelOperator(model, resolution).row(x, n)
    if row.drift > normalization_tol:
        raise QuadratureError(
            f"normalization drift {row.drift:.3e} exceeds {normalization_tol:.3e} "
            f"at resolution {resolution}"
        )
    return row


def density_grid(
    model: NoiseModel,
    x_values,
    n: int,
    resolution: int = 2048,
) -> DensityGrid:
    """Density rows for several source states, sharing one transfer matrix."""
    x_values = np.asarray(x_values, dtype=float)
    if x_values.size == 0:
        raise ValueError("x_values is empty: need at least one source state")
    op = KernelOperator(model, resolution)
    rows = op.rows(x_values, n)
    return DensityGrid(
        n=n,
        x_values=x_values,
        y_edges=rows[0].y_edges,
        values=np.vstack([r.values for r in rows]),
        resolution=op.resolution,
        row_integrals=np.array([r.row_integral for r in rows]),
        expected_mass=rows[0].expected_mass,
    )


def orbit_density_chain(model: NoiseModel, orbit: PeriodicOrbit) -> list[float]:
    """One-step densities h(theta0) / (x_{i-1}(1-x_{i-1})) along the cycle.

    Every entry is strictly positive; this is the chain of transitions that
    seeds the minorization neighbourhood around the orbit.
    """
    h0 = float(model.density(orbit.theta))
    if h0 <= 0.0:
        raise ValueError(
            f"orbit parameter {orbit.theta} lies outside the density support"
        )
    cycle = orbit.cycle_order()
    return [h0 / (x * (1.0 - x)) for x in cycle]


@dataclass(frozen=True)
class MinorizationCertificate:
    """Doeblin minorization p^(m)(x, z) >= delta > 0 for almost all x, z in J.

    delta is the box lower bound of the a.c. density over grid_n x grid_n
    boxes of J x J, for m >= 2 chained through `resolution` cells on each
    image of J, rounded outward by _BOUND_SLACK (see the module docstring;
    Tucker 2011, Meyn & Tweedie).  gamma1 and gamma2 are the parameter values
    mapping onto the ends of J through the largest-orbit-point function.
    """

    J: tuple[float, float]
    m: int
    delta: float
    theta0: float
    gamma1: float
    gamma2: float
    grid_n: int
    resolution: int

    @property
    def ok(self) -> bool:
        return True

    def to_record(self) -> dict:
        return {
            "J_lo": self.J[0],
            "J_hi": self.J[1],
            "m": self.m,
            "delta": self.delta,
            "theta0": self.theta0,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "grid_n": self.grid_n,
            "resolution": self.resolution,
        }


@dataclass(frozen=True)
class MinorizationFailure:
    """Probe outcome when no positive box lower bound was found.

    Not a disproof: a finer grid or resolution may still certify.  bound is
    the largest box lower bound computed, if any.
    """

    message: str
    bound: float | None = None

    @property
    def ok(self) -> bool:
        return False


def _density_window(model: NoiseModel, theta0: float) -> tuple[float, float]:
    """Connected run of positive density inside (1, 4) containing theta0."""
    if not (1.0 < theta0 < 4.0):
        raise ValueError("theta0 must lie in (1, 4) for the minorization construction")
    if float(model.density(theta0)) <= 0.0:
        raise ValueError(f"density vanishes at theta0 = {theta0}")
    for lo, hi in model.density_runs():
        if lo <= theta0 <= hi:
            return lo, hi
    raise ValueError(f"no positive-density window inside (1, 4) contains {theta0}")


def _q_inverse(
    u: float, m: int, olo: PeriodicOrbit, ohi: PeriodicOrbit, tol: float = 1e-11
) -> float | None:
    """Invert the largest-orbit-point function by bisection between two orbits' parameters."""

    def q(th: float) -> float | None:
        orbit = find_periodic_orbit(th, m)
        return None if orbit is None else orbit.largest_point

    if (olo.largest_point - u) * (ohi.largest_point - u) > 0.0:
        return None
    a, b = olo.theta, ohi.theta
    fa = olo.largest_point - u
    while b - a > tol:
        mid = 0.5 * (a + b)
        qm = q(mid)
        if qm is None:
            return None
        if (qm - u) * fa <= 0.0:
            b = mid
        else:
            a = mid
            fa = qm - u
    return 0.5 * (a + b)


def _default_window(
    model: NoiseModel, theta0: float, m: int, n_scan: int = 33
) -> tuple[PeriodicOrbit, PeriodicOrbit] | None:
    """Parameter subinterval around theta0 with attractive m-orbits and monotone q.

    Returns the orbits at its two ends; their theta fields bound the window.
    """
    lo, hi = _density_window(model, theta0)
    pad = 1e-9 * (hi - lo)
    table = q_of_theta((lo + pad, hi - pad), m, n_scan)
    thetas, qs = table.thetas, table.q
    i0 = int(np.argmin(np.abs(thetas - theta0)))
    if np.isnan(qs[i0]):
        return None
    a = b = i0
    while a > 0 and not np.isnan(qs[a - 1]):
        a -= 1
    while b < n_scan - 1 and not np.isnan(qs[b + 1]):
        b += 1
    # widest strictly monotone sub-run of samples covering i0
    signs = np.sign(np.diff(qs[a : b + 1]))
    rel = i0 - a
    best = None
    k = 0
    while k < len(signs):
        if signs[k] == 0:
            k += 1
            continue
        j = k
        while j + 1 < len(signs) and signs[j + 1] == signs[k]:
            j += 1
        if k <= rel <= j + 1 and (best is None or j - k > best[1] - best[0]):
            best = (k, j)
        k = j + 1
    if best is None or best[1] + 1 - best[0] < 2:
        return None
    return table.orbits[a + best[0]], table.orbits[a + best[1] + 1]


def _box_bound(model: NoiseModel, x_edges: np.ndarray, y_edges: np.ndarray) -> np.ndarray:
    """Lower bounds of p(x, y) over the boxes of x cells (rows) by y cells (columns)."""
    # the image under theta = 1 is the outward-rounded span of s(x) = x(1-x)
    s_lo, s_hi = interval_image(1.0, 1.0, x_edges[:-1, None], x_edges[1:, None])
    r_lo = y_edges[:-1] / s_hi * (1.0 - _BOUND_SLACK)
    with np.errstate(divide="ignore"):  # s_lo = 0 on a cell from 0 leaves the support
        r_hi = y_edges[1:] / s_lo * (1.0 + _BOUND_SLACK)
    return model.inf_density(r_lo, r_hi) / s_hi


def _minorization_bound(model: NoiseModel, J, m: int, grid_n: int, resolution: int) -> float:
    """Box lower bound of p^(m)(x, z) over J x J (see the module docstring)."""
    # J, then the cells of the k-step images of J for k = 1 .. m - 1, then J
    grids = [np.linspace(J[0], J[1], grid_n + 1)]
    for _ in range(m - 1):
        image = interval_image(*model.ac_bounds(), grids[-1][0], grids[-1][-1])
        grids.append(np.linspace(*image, resolution + 1))
    grids.append(grids[0])
    low = _box_bound(model, grids[0], grids[1])  # low[i, j] <= p^(k) on J cell i x cell j
    for y, z in zip(grids[1:-1], grids[2:]):
        # one block of source cells at a time, never a resolution^2 array
        weighted = low * np.diff(y)
        low = sum(
            weighted[:, i : i + _BLOCK_ROWS] @ _box_bound(model, y[i : i + _BLOCK_ROWS + 1], z)
            for i in range(0, len(y) - 1, _BLOCK_ROWS)
        )
    return float(low.min()) * (1.0 - m * (resolution + 8) * _BOUND_SLACK)


def minorization_probe(
    model: NoiseModel,
    theta0: float,
    m: int,
    J=None,
    grid_n: int = 64,
    resolution: int = 2048,
) -> MinorizationCertificate | MinorizationFailure:
    """Probe the m-step minorization over J x J and certify a positive bound.

    When J is omitted it is constructed from the largest-orbit-point image
    of a parameter window around theta0 inside the density support, mirroring
    the analytical construction; an explicit J must lie inside that image so
    the certificate can record gamma1 and gamma2.  Returns a certificate
    with delta > 0 on success, a MinorizationFailure with diagnostics
    otherwise; hypothesis violations (no density component, theta0 outside
    the support) and bad arguments raise ValueError.
    """
    model.ac_bounds()  # raises without an a.c. part
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    candidates = None if J is None else [_check_interval(J)]
    if float(model.density(theta0)) <= 0.0:
        raise ValueError(f"density vanishes at theta0 = {theta0}")
    orbit = find_periodic_orbit(theta0, m)
    if orbit is None:
        return MinorizationFailure(
            message=f"no attractive period-{m} orbit found at theta0 = {theta0}"
        )

    window = _default_window(model, theta0, m)
    if window is None:
        return MinorizationFailure(
            message="no parameter window with attractive orbits and monotone "
            "largest point around theta0; no certificate constructed"
        )
    olo, ohi = window
    q0 = orbit.largest_point
    if candidates is None:
        # shrink symmetrically around q(theta0) within the image of the
        # window, until the box lower bound is positive; the analytical
        # construction guarantees only a small enough J
        img_lo, img_hi = sorted((olo.largest_point, ohi.largest_point))
        half = min(q0 - img_lo, img_hi - q0)
        if half <= 0.0:
            return MinorizationFailure(
                message="largest orbit point sits on the edge of the window image"
            )
        candidates = [(q0 - f * half, q0 + f * half) for f in (1.0, 0.5, 0.25, 0.1, 0.05)]

    best = 0.0
    for u1, u2 in candidates:
        delta = _minorization_bound(model, (u1, u2), m, grid_n, resolution)
        best = max(best, delta)
        if delta <= 0.0:
            continue
        gamma1 = _q_inverse(u1, m, olo, ohi)
        gamma2 = _q_inverse(u2, m, olo, ohi)
        if gamma1 is None or gamma2 is None:
            return MinorizationFailure(
                message="J is not contained in the largest-orbit-point image "
                f"of the parameter window ({olo.theta:.6g}, {ohi.theta:.6g})",
                bound=delta,
            )
        return MinorizationCertificate(
            J=(u1, u2),
            m=m,
            delta=delta,
            theta0=float(theta0),
            gamma1=float(gamma1),
            gamma2=float(gamma2),
            grid_n=grid_n,
            resolution=resolution,
        )
    return MinorizationFailure(
        message=f"box lower bound {best:.3e} over J x J is not positive at "
        f"grid {grid_n}, resolution {resolution}",
        bound=best,
    )


def irreducibility_probe(
    model: NoiseModel,
    x: float,
    J,
    n_max: int,
    n_paths: int,
    seed,
) -> int | None:
    """Smallest step at which any of n_paths simulated paths from x enters J.

    None means no path entered J within n_max steps, which under the
    stability hypotheses can only reflect an undersized budget (or a start
    in the Lebesgue-null set not attracted to the reference orbit), never a
    structural obstruction.  Path i runs on substream (seed, i) and stops
    once absorbed (below ABSORB_FLOOR).
    """
    lo, hi = _check_interval(J)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    draws = _lane_draws(model, _substreams(seed, [()], int(n_paths)))
    return _first_entry(_walk((x,) * int(n_paths), n_max, draws), lo, hi)
