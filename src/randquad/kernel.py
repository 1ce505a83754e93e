"""Transition-density machinery for the parameter-noise quadratic map.

The one-step kernel of the chain has the absolutely continuous part

    p(x, y) = h(y / (x(1-x))) / (x(1-x)),

with h the density of the noise mixture; n-step densities follow by
integrating over the intermediate state.  Atomic noise components are
excluded throughout: the minorization argument only ever uses the density
channel, and dropping atoms makes every computed value a pointwise lower
bound for the full kernel.

Numerics: densities are represented as cell averages on a uniform grid over
(0, 1).  One recursion step is the exact pushforward of the piecewise-uniform
previous row: the mass below an out edge e is G(e) = int f(t) H(e / t(1-t)) dt,
H being the piecewise-linear CDF of the density component, and per uniform
piece the integrand is constant or affine in 1/(t(1-t)), whose antiderivative
is logit(t) = log(t/(1-t)).  So G needs only two prefix sums per row, of cell
mass and of f times the logit difference across each cell, and a partial cell
at each crossing, located by searchsorted (see _crossings and
_pushforward).  Mass is conserved up to roundoff, and the only
discretization error is the piecewise-uniform representation of the
previous row.  Pointwise sampling of the discontinuous h inside quadratures
is avoided entirely; plain trapezoid sums on such integrands stall near 1e-4
accuracy at practical resolutions, far short of what the normalization
checks demand.

Storage: no transfer matrix is built or stored.  Each KernelOperator.rows
call with n >= 2 builds the crossing geometry once, in O(R log R): per
uniform piece, the cells of the four crossings of every out edge and the
offsets into them, about 1 MiB per piece at R = 8192.  All n - 1 steps of
the call use it, and it is dropped on return.  A step then costs O(R) per
row and holds a few arrays of rows x R floats: three steps from four x at
R = 8192 peak at about 5.0 MiB of numpy allocations, where the dense R x R
array would take 512 MiB.

Minorization (Doeblin's condition; Meyn & Tweedie, Markov Chains and
Stochastic Stability) rests on box lower bounds.  Over a box X x Y, s(x)
spans [s_lo, s_hi], so p >= inf h over [y_lo / s_hi, y_hi / s_lo] / s_hi.
delta is the least such bound over grid_n x grid_n boxes of J x J; m >= 2
chains p^(k+1)(X, Z) >= sum over Y of |Y| low^(k)(X, Y) inf p(Y, Z) through
`resolution` cells on each k-step image of J, outside which no mass lies.
Bounds round outward by _BOUND_SLACK (Tucker, Validated Numerics, 2011); the
s spans and k-step images of J take that rounding from quadmap.interval_image.
Along a row of boxes (one X, every Y) the interval's ends never decrease, so
the row is runs between the 2K columns where an end crosses one of the K
cuts of h, each run one read of a range-min table that _box_bound builds
from the model's cells: the least value of h over every chain of adjacent
cells.
The chained factor is built a span of source rows at a time, as many
blocks of _BLOCK_ROWS rows as fit in _SPAN_ELEMENTS entries (at least one),
and multiplied block by block in the summation order delta depends on: at
m = 3, R = 2048, about 5 MiB of numpy allocations at the peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _check_interval, _first_entry, _lane_draws, _substreams, _walk
from .noise import NoiseModel
from .quadmap import _BOUND_SLACK, PeriodicOrbit, find_periodic_orbit, interval_image, q_of_theta

__all__ = [
    "DensityRow",
    "MinorizationCertificate",
    "MinorizationFailure",
    "KernelOperator",
    "one_step_density",
    "one_step_row_mass",
    "minorization_probe",
    "irreducibility_probe",
]


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
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
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
    # infinite at t = 0 and 1, which _pushforward never passes
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(t / (1.0 - t))


def _crossings(model: NoiseModel, edges: np.ndarray) -> list:
    """Where the out edges' crossings fall on the grid, per uniform piece.

    For each piece (c, d, w), the crossings zd1, zc1, zc2, zd2 of every out
    edge (see _pushforward), each as (k, j, z - inner[j],
    logit(z) - logit(inner[j])): k is the cell holding z, and inner[j] the
    edge of cell k that the partial cell runs from, its left edge except in
    cell 0, which uses its right edge because logit is infinite at 0.
    Nothing here depends on the rows, so one build serves every step on the
    same model and grid.
    """
    R = len(edges) - 1
    inner, logit_inner = edges[1:-1], _logit(edges[1:-1])
    e = edges[1:]
    pieces = []
    for c, d, w in model.uniform_pieces:
        (zc1, zc2), (zd1, zd2) = _crossing(e, c), _crossing(e, d)
        cells = []
        for z in (zd1, zc1, zc2, zd2):
            k = np.minimum(np.searchsorted(edges, z, side="right") - 1, R - 1)
            j = np.maximum(k, 1) - 1
            cells.append((k, j, z - inner[j], _logit(z) - logit_inner[j]))
        pieces.append((c, d, w, cells))
    return pieces


def _pushforward(
    model: NoiseModel, edges: np.ndarray, masses: np.ndarray, crossings: list
) -> np.ndarray:
    """Out-cell masses after one kernel step, one row per row of cell masses.

    Each row's density f is constant on the cells of edges, and the out
    cells are those same cells.  The mass below out edge e is
    G(e) = int f(t) H(e / s(t)) dt with s(t) = t(1-t) and H the CDF of the
    density component.  Per uniform piece (c, d, w) the integrand is w
    outside the crossings [zd1, zd2], zero inside [zc1, zc2], and
    w (e / s - c) / (d - c) on the two bands between, where the
    antiderivative of 1/s is logit.  So G needs F (the mass below z) and L
    (the integral of f / s) at the four crossings: each is its value at an
    inner edge of z's cell, from a prefix sum, plus the partial cell to z.
    crossings, required, is _crossings(model, edges), which the caller
    builds once for every step on the same model and grid.  G(0) = 0.
    """
    R = len(edges) - 1
    f = masses / np.diff(edges)
    # F and L at inner edge z_j are F[:, j - 1] and L[:, j - 1]; L(z_1) = 0
    F = np.cumsum(masses, axis=1)
    L = np.zeros((len(f), R - 1))
    np.cumsum(f[:, 1:-1] * np.diff(_logit(edges[1:-1])), axis=1, out=L[:, 1:])
    e = edges[1:]

    def at(k, j, dz, dl):
        fk = np.take(f, k, axis=1)
        return np.take(F, j, axis=1) + fk * dz, np.take(L, j, axis=1) + fk * dl

    G = np.zeros_like(f)
    for c, d, w, cells in crossings:
        (Fd1, Ld1), (Fc1, Lc1), (Fc2, Lc2), (Fd2, Ld2) = (at(*z) for z in cells)
        G += w * (F[:, -1:] - (Fd2 - Fd1))
        G += w / (d - c) * (e * ((Lc1 - Ld1) + (Ld2 - Lc2)) - c * ((Fc1 - Fd1) + (Fd2 - Fc2)))
    return np.diff(G, axis=1, prepend=0.0)


# source cells per block of _minorization_bound's chained product, whose
# summation order low and delta depend on; as many blocks as fit in
# _SPAN_ELEMENTS entries (at least one) share one _box_bound build, so the
# resolution x resolution factor is never held whole
_BLOCK_ROWS = 32
_SPAN_ELEMENTS = 2**17


@dataclass(frozen=True)
class DensityRow:
    """Cell-averaged n-step density p^(n)(x, .) on the cells of y_edges.

    row_integral is the exact sum of cell masses; expected_mass is
    (a.c. weight)^n, since atomic noise removes kernel mass at every step,
    and drift, the gap between the two, measures normalization.  Values
    coincide with the pointwise density wherever it is constant across a
    cell; elsewhere they are averages.
    """

    x: float
    y_edges: np.ndarray
    values: np.ndarray
    row_integral: float
    expected_mass: float

    @property
    def drift(self) -> float:
        return abs(self.row_integral - self.expected_mass)


class KernelOperator:
    """Reusable n-step density evaluator at a fixed internal resolution.

    rows and row are the kernel's entry points for n-step densities: each
    source state gets one DensityRow, whose drift measures normalization.
    Nothing is stored beyond the grid.  Each rows call with n >= 2 builds
    the crossing geometry once (_crossings), applies the kernel to every row
    at once through _pushforward at each step, and drops the geometry on
    return, so one operator serves any number of source states and steps.
    """

    def __init__(self, model: NoiseModel, resolution: int):
        model.ac_bounds()  # raises without an a.c. part
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.model = model
        self.resolution = int(resolution)
        self.edges = np.linspace(0.0, 1.0, self.resolution + 1)
        self.widths = np.diff(self.edges)

    def rows(self, x_values, n: int) -> list[DensityRow]:
        """Cell-averaged p^(n)(x, .) on the internal grid for each x, all
        checked first; each step moves every row at once."""
        x = np.asarray(x_values, dtype=float)
        if x.size == 0:
            raise ValueError("x_values is empty: need at least one source state")
        for i, xi in enumerate(x):
            if not (0.0 < xi < 1.0):
                raise ValueError(f"x_values[{i}] = {float(xi)} must lie in (0, 1)")
        if n < 1:
            raise ValueError("n must be >= 1")
        s = x * (1.0 - x)
        masses = np.diff(self.model.ac_cdf(self.edges / s[:, None]), axis=1)
        if n > 1:
            crossings = _crossings(self.model, self.edges)
            for _ in range(n - 1):
                masses = _pushforward(self.model, self.edges, masses, crossings)
        return [DensityRow(x=float(xi), y_edges=self.edges, values=m / self.widths,
                           row_integral=float(m.sum()), expected_mass=self.model.ac_weight**n)
                for xi, m in zip(x, masses)]

    def row(self, x: float, n: int) -> DensityRow:
        """Cell-averaged p^(n)(x, .) on the internal grid."""
        return self.rows([x], n)[0]


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
    """The closed run of positive density (see `NoiseModel.density_runs`) holding theta0.

    theta0 must lie in (1, 4) at positive density, as in `minorization_probe`."""
    return next((lo, hi) for lo, hi, _ in model.density_runs() if lo <= theta0 <= hi)


# width in theta at which _q_inverse stops bisecting
_Q_INVERSE_TOL = 1e-11


def _q_inverse(u: float, m: int, olo: PeriodicOrbit, ohi: PeriodicOrbit) -> float | None:
    """Invert the largest-orbit-point function by bisection between two orbits' parameters."""

    def q(th: float) -> float | None:
        orbit = find_periodic_orbit(th, m)
        return None if orbit is None else orbit.largest_point

    if (olo.largest_point - u) * (ohi.largest_point - u) > 0.0:
        return None
    a, b = olo.theta, ohi.theta
    fa = olo.largest_point - u
    while b - a > _Q_INVERSE_TOL:
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


# parameter samples of the q(theta) table that `_default_window` scans
_WINDOW_SCAN = 33


def _default_window(
    model: NoiseModel, theta0: float, m: int
) -> tuple[PeriodicOrbit, PeriodicOrbit] | None:
    """Parameter subinterval around theta0 with attractive m-orbits and monotone q.

    Returns the orbits at its two ends; their theta fields bound the window.
    """
    lo, hi = _density_window(model, theta0)
    pad = 1e-9 * (hi - lo)
    table = q_of_theta((lo + pad, hi - pad), m, _WINDOW_SCAN)
    run = _monotone_run(table.q, int(np.argmin(np.abs(table.thetas - theta0))))
    return None if run is None else (table.orbits[run[0]], table.orbits[run[1]])


def _monotone_run(q: np.ndarray, i0: int) -> tuple[int, int] | None:
    """Samples k .. j of the widest strictly monotone run of q covering i0,
    the first on a tie; None unless it takes at least two steps.

    A run is maximal with equal +-1 signs of np.diff(q): NaN holes and flat
    steps end it.  One that covers sample i0 takes step i0 - 1 or step i0.
    """
    signs = np.sign(np.diff(q))
    runs = []
    for step in (i0 - 1, i0):
        if 0 <= step < len(signs) and abs(signs[step]) == 1:
            k, j = step, step + 1
            while k > 0 and signs[k - 1] == signs[step]:
                k -= 1
            while j < len(signs) and signs[j] == signs[step]:
                j += 1
            runs.append((k, j))
    k, j = max(runs, key=lambda run: run[1] - run[0], default=(i0, i0))
    return (k, j) if j - k >= 2 else None


def _first_column(holds, guess: np.ndarray, n: int) -> np.ndarray:
    """First j in [0, n] at which holds(j) is true, elementwise (n if none),
    for a holds that is monotone in j, walking from a nearby guess."""
    j = guess
    while (back := (j > 0) & holds(np.maximum(j - 1, 0))).any():
        j = j - back
    while (ahead := (j < n) & ~holds(np.minimum(j, n - 1))).any():
        j = j + ahead
    return j


def _box_bound(model: NoiseModel, x_edges: np.ndarray, y_edges: np.ndarray) -> np.ndarray:
    """Lower bounds of p(x, y) over the boxes of x cells (rows) by y cells (columns).

    Box (i, j) takes inf h over [r_lo, r_hi] / s_hi[i], with
    r_lo = y_lo[j] / s_hi[i] (1 - slack) and r_hi = y_hi[j] / s_lo[i] (1 + slack).
    h is constant on the cells between the K cuts (the pieces' ends), and the
    infimum is the least value over the cells that [r_lo, r_hi] meets in
    positive length: cells a..b, a being the number of cuts at or below r_lo
    and b the number below r_hi, so an end on a cut does not reach past it.
    table[a, b] holds that least value (inf where a > b: no cell is met).
    Along a row neither ratio decreases, since float division and
    multiplication by a positive constant are monotone, so a and b move only
    at the 2K columns where r_lo reaches a cut (r_lo >= cut) or r_hi passes
    one (r_hi > cut).  Each such column is found exactly: a searchsorted
    guess on the y edges, then a walk to the first column where that float
    predicate holds.  A row is then runs between crossing columns, each of
    value table[a, b] / s_hi, filled by one np.repeat at O(K) work per row.
    """
    cells = model._cells
    cuts = np.array([right for _, right, _ in cells[:-1]])
    values = np.array([value for *_, value in cells])
    rank = np.arange(len(values))
    table = np.minimum.accumulate(np.where(rank[:, None] <= rank, values, np.inf), axis=1)
    K, cols = len(cuts), len(y_edges) - 1
    y_lo, y_hi = y_edges[:-1], y_edges[1:]
    # the image under theta = 1 is the outward-rounded span of s(x) = x(1-x)
    s_lo, s_hi = interval_image(1.0, 1.0, x_edges[:-1, None], x_edges[1:, None])
    with np.errstate(divide="ignore"):  # s_lo = 0 on a cell from 0 leaves the support
        reach = _first_column(
            lambda j: y_lo[j] / s_hi * (1.0 - _BOUND_SLACK) >= cuts,
            np.searchsorted(y_lo, cuts * s_hi / (1.0 - _BOUND_SLACK)), cols)
        cross = _first_column(
            lambda j: y_hi[j] / s_lo * (1.0 + _BOUND_SLACK) > cuts,
            np.searchsorted(y_hi, cuts * s_lo / (1.0 + _BOUND_SLACK), side="right"), cols)
    columns = np.concatenate([reach, cross], axis=1)
    order = np.argsort(columns, axis=1)
    # run t starts after t crossings, a of them where r_lo reaches a cut
    a = np.cumsum(np.pad(order < K, ((0, 0), (1, 0))), axis=1)
    values = table[a, np.arange(2 * K + 1) - a] / s_hi
    lengths = np.diff(np.take_along_axis(columns, order, axis=1), axis=1, prepend=0, append=cols)
    return np.repeat(values.ravel(), lengths.ravel()).reshape(len(s_hi), cols)


def _box_blocks(model: NoiseModel, y_edges: np.ndarray, z_edges: np.ndarray):
    """(i, _box_bound over y cells i .. i + _BLOCK_ROWS - 1 by every z cell) in
    order of i, built as many blocks at a time as fit in _SPAN_ELEMENTS entries."""
    span = _BLOCK_ROWS * max(1, _SPAN_ELEMENTS // (_BLOCK_ROWS * (len(z_edges) - 1)))
    for i in range(0, len(y_edges) - 1, span):
        box = _box_bound(model, y_edges[i : i + span + 1], z_edges)
        for k in range(0, len(box), _BLOCK_ROWS):
            yield i + k, box[k : k + _BLOCK_ROWS]


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
        weighted = low * np.diff(y)
        low = sum(weighted[:, i : i + _BLOCK_ROWS] @ box for i, box in _box_blocks(model, y, z))
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
