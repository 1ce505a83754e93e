"""Tests for the transition-density machinery."""

import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from randquad import kernel
from randquad.kernel import (
    KernelOperator,
    MinorizationCertificate,
    MinorizationFailure,
    irreducibility_probe,
    minorization_probe,
    one_step_density,
    one_step_row_mass,
)
from randquad.noise import NoiseModel, substream
from randquad.quadmap import find_periodic_orbit
from test_engine import joined_path

U23 = NoiseModel.uniform(2.0, 3.0)
U2228 = NoiseModel.uniform(2.2, 2.8)
# no absolutely continuous part: the piece carries no weight and is dropped
ATOMIC_WITH_ZERO_PIECE = NoiseModel(atoms=((2.5, 1.0),), uniform_pieces=((2.0, 3.0, 0.0),))


# ----------------------------------------------------------------------- #
# independent Chapman-Kolmogorov oracle: adaptive quadrature over the
# alternative factorization p^(n+1)(x, y) = int h(u) p^(n)(F_u(x), y) du

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(96)


def _piecewise_gauss(f, breakpoints):
    total = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * np.sum(_GAUSS_WEIGHTS * f(mid + half * _GAUSS_NODES))
    return total


def _p1_oracle(model, w, y):
    w = np.asarray(w, dtype=float)
    s = w * (1.0 - w)
    return np.asarray(model.density(y / s)) / s


def _inner_breakpoints(model, s_z, y, mu, nu):
    """v-values where p1(v * s_z, y) jumps: w(1-w) = y/kappa at w = v * s_z."""
    points = [mu, nu]
    for kappa in {c for c, d, w in model.uniform_pieces} | {
        d for c, d, w in model.uniform_pieces
    }:
        disc = 1.0 - 4.0 * y / kappa
        if disc <= 0.0:
            continue
        for w_root in (0.5 * (1.0 - np.sqrt(disc)), 0.5 * (1.0 + np.sqrt(disc))):
            v = w_root / s_z
            if mu < v < nu:
                points.append(v)
    return sorted(points)


def p2_oracle(model, z, y):
    mu, nu = model.support_bounds()
    s_z = z * (1.0 - z)
    breaks = _inner_breakpoints(model, s_z, y, mu, nu)
    f = lambda v: np.asarray(model.density(v)) * _p1_oracle(model, v * s_z, y)
    return _piecewise_gauss(f, breaks)


def p3_oracle(model, x, y):
    mu, nu = model.support_bounds()
    s_x = x * (1.0 - x)
    val, err = quad(
        lambda u: float(model.density(u)) * p2_oracle(model, u * s_x, y),
        mu,
        nu,
        limit=300,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    assert err < 1e-8
    return val


# ----------------------------------------------------------------------- #
# dense oracle: the full (n_out, R) mass matrix from the closed-form
# antiderivative A_e(z) = int_0^z H(e / (t(1-t))) dt, one entry per out cell
# and source cell

_EPS = np.finfo(float).eps
# largest difference allowed between one step and the dense mass matrix, in
# units of eps * _entry_scale * max f
STEP_TOL = 2.0
# the same on grids of thousands of cells or of uneven widths, whose prefix
# sums carry more roundoff: the largest seen is 4.9, at R = 8191
STEP_TOL_LONG = 8.0

ORACLE_MODELS = {
    "U[2,3]": U23,
    "disjoint": NoiseModel(uniform_pieces=((1.5, 2.0, 0.5), (3.0, 3.5, 0.5))),
    "overlapping": NoiseModel(uniform_pieces=((2.0, 3.0, 0.5), (2.5, 3.5, 0.5))),
    "atom+piece": NoiseModel(atoms=((2.5, 0.4),), uniform_pieces=((2.0, 3.0, 0.6),)),
    "narrow": NoiseModel(uniform_pieces=((3.9, 3.99, 1.0),)),
    # a zero-weight piece wider than the other: no term and no band limit of it
    "zero-weight": NoiseModel(uniform_pieces=((1.2, 3.9, 0.0), (2.0, 3.0, 1.0))),
}
J_EDGES = np.linspace(0.55, 0.7, 17)


def _dense_mass_matrix(model, edges, out_edges):
    A = _reference_antiderivative(model, out_edges[:, None], edges[None, :])
    return np.diff(np.diff(A, axis=1), axis=0)


def _entry_scale(model):
    """Size of the terms the antiderivative sums: a matrix entry, a
    difference of such sums, carries roundoff of a few eps times this, and
    a step's out-cell mass that times the largest source density."""
    return sum(w * (1.0 + d / (d - c)) for c, d, w in model.uniform_pieces if w > 0.0)


def _point_floor(model, J, m):
    """Least p^(m) (m = 1 or 2, by the oracles above) on a 9 x 9 point grid of J x J."""
    pts = np.linspace(J[0], J[1], 9)
    if m == 1:
        return float(np.min(_p1_oracle(model, pts[:, None], pts[None, :])))
    return min(p2_oracle(model, x, z) for x in pts for z in pts)


def _centre_values(model, x_edges, y_edges):
    """A wrong box bound: p at the cell centres instead of its infimum over the box."""
    xc = 0.5 * (x_edges[:-1] + x_edges[1:])
    yc = 0.5 * (y_edges[:-1] + y_edges[1:])
    return _p1_oracle(model, xc[:, None], yc[None, :])


def _m1_closed_form(J, c, d, resolution):
    """Box bound for m = 1 when y / s stays inside [c, d] over J x J: 1/((d-c) s_max),
    less the slack, s_max being s at the end of J nearest 1/2."""
    s_max = 0.25 if J[0] <= 0.5 <= J[1] else max(u * (1.0 - u) for u in J)
    exact = 1.0 / ((d - c) * s_max)
    slack = kernel._BOUND_SLACK
    return exact * (1.0 - (resolution + 10) * slack), exact * (1.0 - (resolution + 8) * slack)


def _reference_antiderivative(model, e, z):
    """A_e(z) as the plain formula, over the broadcast e and z.  Per uniform
    piece (c, d, w) the integrand is w outside {t : t(1-t) >= e/d}, zero
    inside {t : t(1-t) >= e/c}, and affine in 1/(t(1-t)) on the two bands
    between, where the antiderivative of 1/(t(1-t)) is log(t/(1-t))."""
    e = np.asarray(e, dtype=float)
    z = np.asarray(z, dtype=float)
    total = np.zeros(np.broadcast_shapes(e.shape, z.shape))

    def crossing(kappa):
        disc = 1.0 - 4.0 * e / kappa
        root = np.sqrt(np.maximum(disc, 0.0))
        empty = disc <= 0.0
        lo = np.where(empty, 0.5, (2.0 * e / kappa) / (1.0 + root))
        return lo, np.where(empty, 0.5, 0.5 * (1.0 + root))

    logit = lambda t: np.log(t / (1.0 - t))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, d, w in model.uniform_pieces:
            if w <= 0.0:
                continue
            zc1, zc2 = crossing(c)
            zd1, zd2 = crossing(d)
            lam_d = np.clip(z, zd1, zd2) - zd1
            part_w = w * (z - lam_d)
            band_left_hi = np.clip(z, zd1, zc1)
            band_right_hi = np.clip(z, zc2, zd2)
            lam_band = (band_left_hi - zd1) + (band_right_hi - zc2)
            log_band = (logit(band_left_hi) - logit(zd1)) + (logit(band_right_hi) - logit(zc2))
            total += part_w + (w / (d - c)) * (e * log_band - c * lam_band)
    return np.where(e > 0.0, total, 0.0)


def _reference_box_bound(model, x_edges, y_edges):
    """kernel._box_bound as the plain elementwise formula: per box, inf h over
    [y_lo / s_hi (1 - slack), y_hi / s_lo (1 + slack)] / s_hi, the infimum
    being the least value over the open cells between the pieces' ends that
    the interval meets."""
    slack = kernel._BOUND_SLACK
    s_lo, s_hi = kernel.interval_image(1.0, 1.0, x_edges[:-1, None], x_edges[1:, None])
    r_lo = y_edges[:-1] / s_hi * (1.0 - slack)
    with np.errstate(divide="ignore"):
        r_hi = y_edges[1:] / s_lo * (1.0 + slack)
    cuts = [-np.inf, *sorted({e for c, d, w in model.uniform_pieces for e in (c, d)}), np.inf]
    low = np.full(r_lo.shape, np.inf)
    for left, right in zip(cuts[:-1], cuts[1:]):
        value = model.density(0.5 * (left + right))
        low = np.minimum(low, np.where((left < r_hi) & (r_lo < right), value, np.inf))
    return low / s_hi


def _crossing_floats(model, x_edges):
    """For each x cell and cut, the least y at which y / s_hi (1 - slack)
    reaches the cut and the least at which y / s_lo (1 + slack) passes it,
    each with one ulp either side: the y edges where _box_bound's runs turn."""
    slack = kernel._BOUND_SLACK
    s_lo, s_hi = kernel.interval_image(1.0, 1.0, x_edges[:-1], x_edges[1:])
    out = []
    for cut in sorted({e for c, d, w in model.uniform_pieces for e in (c, d)}):
        for s, holds in ((s_hi, lambda y, s: y / s * (1.0 - slack) >= cut),
                         (s_lo, lambda y, s: y / s * (1.0 + slack) > cut)):
            for si in s[s > 0.0]:
                y = cut * si
                while holds(y, si):
                    y = np.nextafter(y, -np.inf)
                while not holds(y, si):
                    y = np.nextafter(y, np.inf)
                out += [np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
    return np.array(out)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _unreached(model, edges, masses):
    """Out cells that no source mass of a row can reach, one row per row of
    masses: wholly below c_min s_lo or above d_max s_hi, where s = t(1-t)
    spans the row's source cells; every cell, for a row with no mass."""
    c_min, d_max = model.ac_bounds()
    s = edges * (1.0 - edges)
    out = np.ones(masses.shape, dtype=bool)
    for row, m in zip(out, masses):
        src = np.flatnonzero(m)
        if len(src):
            lo, hi = src[0], src[-1] + 1
            s_lo = min(s[lo], s[hi])
            s_hi = 0.25 if edges[lo] <= 0.5 <= edges[hi] else max(s[lo], s[hi])
            row[:] = (edges[:-1] > d_max * s_hi) | (edges[1:] < c_min * s_lo)
    return out


def _centers(row):
    """Midpoints of a density row's cells."""
    return 0.5 * (row.y_edges[:-1] + row.y_edges[1:])


def _eager_masses(op, xs, n):
    """Cell masses of p^(n)(x, .) for each x, one x at a time through kernel._pushforward."""
    crossings = kernel._crossings(op.model, op.edges)
    out = []
    for x in xs:
        masses = np.diff(np.asarray(op.model.ac_cdf(op.edges / (x * (1.0 - x))), dtype=float))
        for _ in range(n - 1):
            masses = kernel._pushforward(op.model, op.edges, masses[None], crossings)[0]
        out.append(masses)
    return np.array(out)


# ----------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "call",
    [
        lambda m: one_step_density(m, 0.3, 0.5),
        lambda m: one_step_row_mass(m, 0.3),
        lambda m: KernelOperator(m, 64),
        lambda m: minorization_probe(m, 2.5, 1, grid_n=8, resolution=64),
    ],
    ids=["one_step_density", "one_step_row_mass", "KernelOperator", "minorization_probe"],
)
@pytest.mark.parametrize("model", [NoiseModel(atoms=((2.5, 1.0),)), ATOMIC_WITH_ZERO_PIECE],
                         ids=["atom", "atom+zero-weight-piece"])
def test_kernel_needs_an_ac_part(call, model):
    with pytest.raises(ValueError, match="model has no absolutely continuous component"):
        call(model)


class TestOneStepDensity:
    def test_box_value(self):
        assert one_step_density(U23, 0.5, 0.6) == pytest.approx(4.0, abs=0)

    def test_outside_support(self):
        assert one_step_density(U23, 0.5, 0.9) == 0.0

    def test_trapezoid_over_support_box(self):
        # density 4 on (0.5, 0.75): the sampled box integrates to exactly 1
        ys = np.linspace(0.5, 0.75, 1001)
        vals = one_step_density(U23, 0.5, ys)
        assert np.trapezoid(vals, ys) == pytest.approx(1.0, abs=1e-8)

    def test_analytic_row_mass(self):
        for x in (0.3, 0.5, 0.7):
            assert one_step_row_mass(U23, x) == pytest.approx(1.0, abs=1e-8)

    def test_source_symmetry(self):
        ys = np.linspace(0.05, 0.95, 19)
        assert np.array_equal(
            one_step_density(U23, 0.3, ys), one_step_density(U23, 0.7, ys)
        )

    def test_requires_density_component(self):
        with pytest.raises(ValueError):
            one_step_density(NoiseModel(atoms=((2.5, 1.0),)), 0.5, 0.6)

    @pytest.mark.parametrize("x", [1.5, -0.5, 0.0, 1.0])
    @pytest.mark.parametrize("call", [one_step_density, one_step_row_mass])
    def test_x_outside_unit_interval_rejected(self, call, x):
        with pytest.raises(ValueError, match=r"x must lie in \(0, 1\)"):
            call(U23, x, 0.5)


class TestNStepDensity:
    def test_base_case_matches_pointwise_aligned(self):
        # at x = 0.5 and resolution 1024 the support edges 0.5 and 0.75 land
        # exactly on cell edges, so every cell average is the pointwise value
        row = KernelOperator(U23, 1024).row(0.5, 1)
        pointwise = one_step_density(U23, 0.5, _centers(row))
        assert np.array_equal(row.values, pointwise)

    def test_base_case_matches_pointwise_generic(self):
        # generic x: equality up to roundoff away from the two cells that
        # straddle the support edges, a genuine averaging gap inside them
        x = 0.46
        row = KernelOperator(U23, 1024).row(x, 1)
        centers = _centers(row)
        pointwise = one_step_density(U23, x, centers)
        width = row.y_edges[1] - row.y_edges[0]
        s = x * (1.0 - x)
        edge_cells = np.zeros(len(centers), dtype=bool)
        for edge in (2.0 * s, 3.0 * s):
            edge_cells |= np.abs(centers - edge) <= width
        assert np.allclose(row.values[~edge_cells], pointwise[~edge_cells], atol=1e-9)
        assert np.max(np.abs(row.values - pointwise)) > 1e-3

    def test_purely_ac_normalization(self):
        for n in (1, 2, 3):
            row = KernelOperator(U23, 4096).row(0.5, n)
            assert row.row_integral == pytest.approx(1.0, abs=1e-6)

    def test_mixed_model_expected_mass(self):
        mixed = NoiseModel(atoms=((2.5, 0.4),), uniform_pieces=((2.0, 3.0, 0.6),))
        row = KernelOperator(mixed, 2048).row(0.5, 2)
        assert row.expected_mass == pytest.approx(0.36, abs=1e-12)
        assert row.row_integral == pytest.approx(0.36, abs=1e-9)

    def test_chapman_kolmogorov_spot_check(self):
        # resolution 8192: the recursion's discretization error near the
        # derivative kinks of the two-step density is O(cell width squared)
        op = KernelOperator(U23, 8192)
        failures = []
        for x in (0.3, 0.42, 0.5, 0.66):
            row = op.row(x, 3)
            centers = _centers(row)
            for yc in np.linspace(0.45, 0.73, 8):
                j = int(np.argmin(np.abs(centers - yc)))
                direct = row.values[j]
                oracle = p3_oracle(U23, x, centers[j])
                failures.append(abs(direct - oracle))
        assert max(failures) < 1e-5

    def test_two_step_against_oracle(self):
        row = KernelOperator(U23, 4096).row(0.5, 2)
        centers = _centers(row)
        for yc in (0.55, 0.6, 0.65, 0.7):
            j = int(np.argmin(np.abs(centers - yc)))
            assert row.values[j] == pytest.approx(
                p2_oracle(U23, 0.5, centers[j]), abs=1e-6
            )

    def test_lower_density_never_increases(self):
        # h_bar <= h realized by scaling the piece weight down and parking
        # the difference on an atom, which the density recursion ignores
        full = U23
        half = NoiseModel(atoms=((2.5, 0.5),), uniform_pieces=((2.0, 3.0, 0.5),))
        for n in (1, 2):
            a = KernelOperator(full, 512).row(0.4, n).values
            b = KernelOperator(half, 512).row(0.4, n).values
            assert np.all(b <= a + 1e-9 * max(1.0, a.max()))  # roundoff slack

    def test_rows_share_results(self):
        rows = KernelOperator(U23, 512).rows([0.3, 0.5, 0.7], 2)
        single = KernelOperator(U23, 512).row(0.5, 2)
        assert np.array_equal(rows[1].values, single.values)
        assert [r.values.shape for r in rows] == [(512,)] * 3


class TestAntiderivativeBits:
    """One step against the closed-form antiderivative A_e(z): out cells no
    source mass reaches hold +0.0 bit for bit, and every other mass matches
    differences of _reference_antiderivative.  The names are those of the
    tests of the banded transfer matrix that the step replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257, 8191, 8192])
    @pytest.mark.parametrize("grid", ["full", "J"])
    def test_band_matrix_same_bits(self, name, R, grid):
        # random densities on every cell or on the cells that meet J; the
        # step's band of reached out cells, and 64 rows of the dense matrix
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        rng = np.random.default_rng(R)
        f = rng.random((3, R)) * rng.integers(1, 5, size=(3, R))
        if grid == "J":
            f[:, (op.edges[1:] <= J_EDGES[0]) | (op.edges[:-1] >= J_EDGES[-1])] = 0.0
        masses = f * op.widths
        got = kernel._pushforward(model, op.edges, masses, kernel._crossings(model, op.edges))
        unreached = _unreached(model, op.edges, masses)
        # the band leaves cells out but on coarse grids, or for "narrow" on
        # every cell, whose d_max / 4 = 0.9975 lies in the last cell to R = 400
        assert unreached.any() or R <= 7 or (name == "narrow" and grid == "full" and R <= 400)
        assert _same_bits(got[unreached], np.zeros(unreached.sum()))
        cells = np.unique(np.linspace(0, R - 1, 64).astype(int))
        A = _reference_antiderivative(
            model, np.stack([op.edges[cells], op.edges[cells + 1]])[:, :, None], op.edges
        )
        dense = np.diff(A[1] - A[0], axis=1)
        tol = STEP_TOL_LONG * _EPS * _entry_scale(model) * f.max(axis=1, keepdims=True)
        assert np.all(np.abs(got[:, cells] - f @ dense.T) <= tol)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize(
        "e, z",
        [
            pytest.param(0.0, np.linspace(0.0, 1.0, 65), id="e0-row"),
            pytest.param(0.0, 0.3, id="e0-scalar"),
            pytest.param(0.1, 0.7, id="scalar-past-half"),
            # out edges across (0, 1), sources ending on each side of 1/2
            pytest.param(
                np.linspace(0.0, 1.0, 41)[:, None], np.linspace(0.0, 1.0, 101)[None, :],
                id="grid-past-half",
            ),
            pytest.param(
                np.linspace(0.02, 0.98, 25), np.linspace(0.3, 0.9, 25), id="paired",
            ),
            pytest.param(
                np.linspace(0.0, 1.0, 33)[None, :], np.linspace(0.0, 0.5, 17)[:, None],
                id="transposed",
            ),
        ],
    )
    def test_direct_calls_same_bits(self, name, e, z):
        # one step of the density 1 on (0, z), for every z, on the uneven grid
        # whose edges are 0, 1 and every e and z: the mass of out cell
        # (e0, e1) is A_e1(z) - A_e0(z)
        model = ORACLE_MODELS[name]
        e, z = np.broadcast_arrays(np.asarray(e, dtype=float), np.asarray(z, dtype=float))
        edges = np.unique(np.concatenate([[0.0, 1.0], e.ravel(), z.ravel()]))
        zs = np.unique(z)[:, None]
        masses = np.where(edges[1:] <= zs, np.diff(edges), 0.0)
        got = kernel._pushforward(model, edges, masses, kernel._crossings(model, edges))
        unreached = _unreached(model, edges, masses)
        assert _same_bits(got[unreached], np.zeros(unreached.sum()))
        want = np.diff(_reference_antiderivative(model, edges[None, :], zs), axis=1)
        assert np.all(np.abs(got - want) <= STEP_TOL_LONG * _EPS * _entry_scale(model))


class TestFoldedBandOperator:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257])
    @pytest.mark.parametrize("grid", ["full", "J"])
    def test_matrix_matches_dense_oracle(self, name, R, grid):
        # one step of random densities, over every cell or only the cells
        # that meet J, against the dense mass matrix; the largest difference
        # seen over these cases is 0.91 eps * _entry_scale * max f
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        dense = _dense_mass_matrix(model, op.edges, op.edges)
        rng = np.random.default_rng(R)
        f = rng.random((3, R)) * rng.integers(1, 5, size=(3, R))
        if grid == "J":
            f[:, (op.edges[1:] <= J_EDGES[0]) | (op.edges[:-1] >= J_EDGES[-1])] = 0.0
        crossings = kernel._crossings(model, op.edges)
        got = kernel._pushforward(model, op.edges, f * op.widths, crossings)
        tol = STEP_TOL * _EPS * _entry_scale(model) * f.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - f @ dense.T) <= tol)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257])
    def test_rows_match_dense_recursion(self, name, R):
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        tol = 2.0 * _EPS * _entry_scale(model)
        dense = _dense_mass_matrix(model, op.edges, op.edges)
        for x in (0.3, 0.5, 0.77):
            for n in (2, 3):
                masses = np.diff(model.ac_cdf(op.edges / (x * (1.0 - x))))
                allowance = 0.0  # accumulated roundoff bound on the masses
                for _ in range(n - 1):
                    f = masses / op.widths
                    masses = dense @ f
                    allowance += tol * np.abs(f).sum()
                row = op.row(x, n)
                assert np.all(np.abs(row.values * op.widths - masses) <= allowance)

    @pytest.mark.parametrize("R", [7, 257, 8192])
    def test_zero_weight_piece_changes_nothing(self, R):
        # the same pieces of positive weight as U[2,3]: the same bits
        model = ORACLE_MODELS["zero-weight"]
        assert model.uniform_pieces == U23.uniform_pieces
        got = KernelOperator(model, R).rows([0.3, 0.5, 0.77], 3)
        want = KernelOperator(U23, R).rows([0.3, 0.5, 0.77], 3)
        assert all(_same_bits(a.values, b.values) for a, b in zip(got, want))

    def test_storage_is_a_quarter_of_dense_at_most(self):
        R = 2048
        op = KernelOperator(U23, R)
        op.row(0.4, 3)

        def array_bytes(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if isinstance(obj, dict):
                return sum(array_bytes(v) for v in obj.values())
            if isinstance(obj, (list, tuple)):
                return sum(array_bytes(v) for v in obj)
            return 0

        assert array_bytes(vars(op)) <= 0.25 * 8 * R * R

    def test_rows_rejects_empty_x_values(self):
        with pytest.raises(ValueError, match="x_values is empty"):
            KernelOperator(U23, 64).rows([], 2)


X_SETS = [(0.3,), (0.25, 0.4, 0.6, 0.75), (1e-6, 0.5, 0.999999), (0.05, 0.123456789, 0.9)]


def _mutant_step(old, new):
    """kernel._pushforward with one line of its source changed."""
    src = textwrap.dedent(inspect.getsource(kernel._pushforward))
    assert src.count(old) == 1
    namespace = dict(vars(kernel))
    exec(src.replace(old, new), namespace)
    return namespace["_pushforward"]


class TestPushforward:
    """One kernel step as the pushforward CDF, from prefix sums."""

    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param("(Lc1 - Ld1) + (Ld2 - Lc2)", "(Lc1 - Ld1)", id="drop-right-band-log"),
            pytest.param("(Fc1 - Fd1) + (Fd2 - Fc2)", "(Fc1 - Fd1)", id="drop-right-band-mass"),
            pytest.param("G += w * (F[:, -1:] - (Fd2 - Fd1))", "pass", id="drop-outer-w"),
        ],
    )
    @pytest.mark.parametrize("R", [7, 64, 257])
    def test_mutant_fails_the_dense_oracle(self, monkeypatch, old, new, R):
        # the oracle test above tells these from the step on every model
        monkeypatch.setattr(kernel, "_pushforward", _mutant_step(old, new))
        for name in sorted(ORACLE_MODELS):
            with pytest.raises(AssertionError):
                TestFoldedBandOperator().test_matrix_matches_dense_oracle(name, R, "full")

    def test_rows_peak_memory(self):
        # no operator is stored: the peak is a few arrays of 4 x 8192 floats
        op = KernelOperator(U23, 8192)
        tracemalloc.start()
        try:
            op.rows([0.25, 0.4, 0.6, 0.75], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestLazyBand:
    """Rows stepped together give the bits of each row stepped alone, the
    +0.0 of unreached out cells included, and a call keeps nothing on the
    operator.  The names are those of the tests of the lazily built band of
    blocks that the step replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257, 1000, 8191])
    def test_rows_same_bits_as_eager_band(self, name, R):
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        for xs in X_SETS:
            for n in (1, 2, 3, 4):
                want = _eager_masses(op, xs, n)
                rows = op.rows(xs, n)
                assert _same_bits([r.values for r in rows], want / op.widths), (xs, n)
                assert _same_bits([r.row_integral for r in rows], want.sum(axis=1)), (xs, n)
                assert _same_bits(op.row(xs[-1], n).values, want[-1] / op.widths), (xs, n)
        xs = sum(X_SETS, ())
        rows = op.rows(xs, 3)
        want = _eager_masses(op, xs, 3)
        assert _same_bits([r.values for r in rows], want / op.widths)
        assert _same_bits([r.row_integral for r in rows], want.sum(axis=1))

    def test_one_step_builds_nothing(self, monkeypatch):
        # p^(1) is the closed form alone; each further step is one call for all rows
        calls = []
        step = kernel._pushforward
        monkeypatch.setattr(kernel, "_pushforward", lambda *args: calls.append(1) or step(*args))
        op = KernelOperator(U23, 8192)
        op.rows([0.25, 0.4, 0.6, 0.75], 1)
        assert calls == []
        op.rows([0.25, 0.4, 0.6, 0.75], 3)
        assert len(calls) == 2

    def test_crossings_built_once_per_call(self, monkeypatch):
        # the crossing geometry serves every step of one call; p^(1) needs none
        calls = []
        build = kernel._crossings
        monkeypatch.setattr(kernel, "_crossings", lambda *args: calls.append(1) or build(*args))
        op = KernelOperator(U23, 8192)
        op.rows([0.25, 0.4, 0.6, 0.75], 1)
        assert calls == []
        for n in (2, 3, 5):
            calls.clear()
            op.rows([0.25, 0.4, 0.6, 0.75], n)
            assert len(calls) == 1, n

    def test_second_call_builds_nothing_new(self):
        op = KernelOperator(U23, 8192)
        before = dict(vars(op))
        first = op.rows([0.25, 0.4, 0.6, 0.75], 3)
        assert vars(op).keys() == before.keys()
        assert all(vars(op)[k] is v for k, v in before.items())
        again = op.rows([0.25, 0.4, 0.6, 0.75], 3)
        assert all(_same_bits(a.values, b.values) for a, b in zip(first, again))


# ORACLE_MODELS and more mixtures: runs clipped at 1 and ending near 4,
# overlapping pieces whose first cell is not the least, atoms inside and
# outside the pieces, zero-weight pieces, and a narrow cell inside a run
RUN_MODELS = {
    **ORACLE_MODELS,
    "clipped-at-1": NoiseModel(uniform_pieces=((0.5, 1.5, 0.5), (0.2, 1.0, 0.25), (1.0, 1.2, 0.25))),
    "near-4": NoiseModel(uniform_pieces=((2.0, 3.0, 0.5), (3.2, 3.999, 0.5))),
    "descending": NoiseModel(
        atoms=((1.7, 0.1), (3.8, 0.1)),
        uniform_pieces=((1.5, 2.5, 0.3), (1.5, 2.0, 0.2), (2.2, 3.5, 0.3), (0.3, 3.9, 0.0)),
    ),
    "narrow-cell": NoiseModel(
        uniform_pieces=((2.0, 3.0, 0.5), (3.0, 3.001, 1e-7), (3.001, 3.5, 0.5 - 1e-7))
    ),
}


class TestInfDensity:
    """density_runs() reports each run's floor, the infimum of h over it."""

    @pytest.mark.parametrize("name", sorted(RUN_MODELS))
    def test_matches_dense_scan(self, name):
        model = RUN_MODELS[name]
        runs = model.density_runs()
        assert runs
        for lo, hi, floor in runs:
            assert 1.0 <= lo < hi <= 4.0 and floor > 0.0
            scan = np.linspace(lo, hi, 20001)[1:-1]
            assert floor == np.min(model.density(scan))
            # h vanishes just outside a run unless it is clipped there
            assert lo == 1.0 or model.density(np.nextafter(lo, 0.0)) == 0.0
            assert model.density(np.nextafter(hi, 4.0)) == 0.0


BOX_SHAPES = {
    "64x2048": (np.linspace(0.5455, 0.6428, 65), np.linspace(0.0, 1.0, 2049)),
    "2048x64": (np.linspace(0.3, 0.7, 2049), np.linspace(0.2, 1.0, 65)),
    "7x3": (np.linspace(0.1, 0.9, 8), np.linspace(0.1, 0.9, 4)),
    # the first x cell starts at 0, where s_lo = 0 and r_hi is infinite
    "257x2048": (np.linspace(0.0, 0.5, 258), np.linspace(0.0, 1.0, 2049)),
}


class TestBoxBound:
    """Runs between crossing columns give the elementwise formula's bits."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("shape", sorted(BOX_SHAPES))
    def test_same_bits_as_elementwise(self, name, shape):
        model = ORACLE_MODELS[name]
        x_edges, y_edges = BOX_SHAPES[shape]
        got = kernel._box_bound(model, x_edges, y_edges)
        assert _same_bits(got, _reference_box_bound(model, x_edges, y_edges))

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_same_bits_on_crossing_floats(self, name):
        # y edges on the float where a ratio meets a cut and one ulp either side
        model = ORACLE_MODELS[name]
        x_edges = np.linspace(0.0, 0.9, 10)
        y_edges = np.unique(np.concatenate([_crossing_floats(model, x_edges), [0.0, 1.0]]))
        y_edges = y_edges[(0.0 <= y_edges) & (y_edges <= 1.0)]
        got = kernel._box_bound(model, x_edges, y_edges)
        assert _same_bits(got, _reference_box_bound(model, x_edges, y_edges))

    @pytest.mark.parametrize("m, expected", [(2, 4.542318764600413), (3, 5.112313547214782),
                                             (4, 5.3290633130033065)])
    def test_chained_bound_golden(self, m, expected):
        assert kernel._minorization_bound(U2228, (0.5455, 0.6428), m, 64, 2048) == expected

    @pytest.mark.parametrize("m, grid_n, R", [(2, 63, 1000), (3, 17, 333), (2, 64, 4100)])
    def test_chained_bound_same_bits_as_block_at_a_time(self, monkeypatch, m, grid_n, R):
        # a span of blocks shares one box build; the products and their order stay
        model = ORACLE_MODELS["overlapping"]
        want = kernel._minorization_bound(model, (0.55, 0.65), m, grid_n, R)
        monkeypatch.setattr(kernel, "_SPAN_ELEMENTS", 1)
        monkeypatch.setattr(kernel, "_box_bound", _reference_box_bound)
        assert kernel._minorization_bound(model, (0.55, 0.65), m, grid_n, R) == want

    def test_chained_bound_peak_memory(self):
        # no resolution x resolution array: the low rows and one span of box rows
        tracemalloc.start()
        try:
            kernel._minorization_bound(U2228, (0.5455, 0.6428), 3, 64, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestMinorizationProbe:
    @pytest.mark.parametrize(
        "model, theta0, m, expected",
        [
            pytest.param(U2228, 2.5, 1, 6.7548938380126824, id="m1"),
            pytest.param(NoiseModel.uniform(3.15, 3.25), 3.2, 2, 38.891733069107687, id="m2"),
        ],
    )
    def test_delta_golden(self, model, theta0, m, expected):
        out = minorization_probe(model, theta0, m)
        assert out.delta == expected
        if m == 1:
            low, high = _m1_closed_form(out.J, 2.2, 2.8, 2048)
            assert low <= out.delta <= high

    def test_explicit_J_fixed_point_case(self):
        out = minorization_probe(U2228, 2.5, 1, J=(0.5455, 0.6428), grid_n=64, resolution=2048)
        assert isinstance(out, MinorizationCertificate)
        assert out.delta > 0.0
        # gamma_i = q^{-1}(u_i) = 1/(1 - u_i) for the fixed-point branch
        assert out.gamma1 == pytest.approx(1.0 / (1.0 - 0.5455), abs=1e-6)
        assert out.gamma2 == pytest.approx(1.0 / (1.0 - 0.6428), abs=1e-6)
        low, high = _m1_closed_form(out.J, 2.2, 2.8, 2048)
        assert low <= out.delta <= high

    def test_default_J_contains_q0(self):
        out = minorization_probe(U2228, 2.5, 1, grid_n=32, resolution=1024)
        assert out.ok
        assert out.J[0] < 0.6 < out.J[1]
        assert out.gamma1 < 2.5 < out.gamma2

    def test_period2_certificate(self):
        model = NoiseModel.uniform(3.05, 3.35)
        out = minorization_probe(model, 3.2, 2, grid_n=48, resolution=2048)
        assert isinstance(out, MinorizationCertificate)
        assert out.delta > 0.0
        q0 = find_periodic_orbit(3.2, 2).largest_point
        assert out.J[0] < q0 < out.J[1]

    def test_atom_only_raises(self):
        with pytest.raises(ValueError):
            minorization_probe(NoiseModel(atoms=((2.5, 1.0),)), 2.5, 1)

    def test_theta0_outside_support_raises(self):
        with pytest.raises(ValueError):
            minorization_probe(U23, 3.5, 1)

    @pytest.mark.parametrize("grid_n", [1, 0, -2])
    def test_degenerate_grid_rejected(self, grid_n):
        with pytest.raises(ValueError, match="grid_n must be >= 2"):
            minorization_probe(U2228, 2.5, 1, grid_n=grid_n, resolution=64)

    @pytest.mark.parametrize("J", [(0.0, 0.6), (0.5, 1.0), (0.0, 1.0), (0.6, 0.5)])
    def test_interval_reaching_zero_or_one_rejected(self, J):
        # a J reaching the absorbing state 0 is a bad input, not a failed bound
        with pytest.raises(ValueError, match="must be nondegenerate inside"):
            minorization_probe(U2228, 2.5, 1, J=J, grid_n=8, resolution=64)

    def test_window_with_orbit_holes_still_certifies(self):
        # support straddles the period-doubling point at 3: the period-1 scan
        # has holes above it and the window must clip there
        model = NoiseModel.uniform(2.5, 3.3)
        out = minorization_probe(model, 2.9, 1, grid_n=32, resolution=1024)
        assert isinstance(out, MinorizationCertificate)
        assert out.delta > 0.0
        assert out.gamma2 <= 3.0 + 1e-6
        low, high = _m1_closed_form(out.J, 2.5, 3.3, 1024)
        assert low <= out.delta <= high

    def test_same_support_period_two_side(self):
        model = NoiseModel.uniform(2.5, 3.3)
        out = minorization_probe(model, 3.2, 2, grid_n=32, resolution=1024)
        assert isinstance(out, MinorizationCertificate)
        assert out.delta > 0.0
        assert 3.0 <= out.gamma1 < 3.2 < out.gamma2 <= 3.3

    def test_period3_window_certifies(self):
        model = NoiseModel.uniform(3.832, 3.838)
        out = minorization_probe(model, 3.835, 3, grid_n=32, resolution=1024)
        assert isinstance(out, MinorizationCertificate)
        assert out.delta > 0.0
        q0 = find_periodic_orbit(3.835, 3).largest_point
        assert out.J[0] < q0 < out.J[1]

    @pytest.mark.parametrize(
        "model, theta0, m, J",
        [
            pytest.param(U2228, 2.5, 1, (0.5455, 0.6428), id="m1"),
            # the middle cell of an odd grid straddles 1/2, where s peaks
            pytest.param(NoiseModel.uniform(1.8, 2.2), 2.0, 1, (0.47, 0.53), id="m1-half"),
            pytest.param(NoiseModel.uniform(3.15, 3.25), 3.2, 2, None, id="m2"),
        ],
    )
    def test_delta_below_point_values(self, model, theta0, m, J):
        out = minorization_probe(model, theta0, m, J=J, grid_n=63, resolution=2048)
        assert 0.0 < out.delta <= _point_floor(model, out.J, m)

    def test_centre_values_fail_the_point_check(self, monkeypatch):
        # p at cell centres instead of box infima overstates delta
        monkeypatch.setattr(kernel, "_box_bound", _centre_values)
        out = minorization_probe(U2228, 2.5, 1, J=(0.5455, 0.6428), grid_n=64, resolution=2048)
        assert out.delta > _point_floor(U2228, out.J, 1)

    def test_no_orbit_is_failure_not_error(self):
        # theta0 = 3.9 is chaotic: no attractive orbit of period 1
        model = NoiseModel.uniform(3.85, 3.95)
        out = minorization_probe(model, 3.9, 1, grid_n=16, resolution=256)
        assert isinstance(out, MinorizationFailure)
        assert not out.ok

    def test_outcomes_on_a_support_wider_than_the_fixed_point_range(self, monkeypatch):
        # U[0.5, 3.99] has density below theta = 1, where no orbit attracts
        # 1/2 but 0, and above 3, where the fixed point repels; only a theta0
        # with an attractive fixed point reaches the density window
        model = NoiseModel.uniform(0.5, 3.99)
        windows, density_window = [], kernel._density_window
        monkeypatch.setattr(kernel, "_density_window",
                            lambda *a: windows.append(density_window(*a)) or windows[-1])
        for theta0 in (0.6, 1.0, 3.99):
            out = minorization_probe(model, theta0, 1, grid_n=8, resolution=64)
            assert isinstance(out, MinorizationFailure)
            assert out.message == f"no attractive period-1 orbit found at theta0 = {theta0}"
        assert windows == []
        assert minorization_probe(model, 2.5, 1, grid_n=8, resolution=64).ok
        assert windows == [(1.0, 3.99)]  # the run of positive density, clipped to [1, 4]
        with pytest.raises(ValueError, match="density vanishes at theta0 = 4.0"):
            minorization_probe(model, 4.0, 1, grid_n=8, resolution=64)
        assert len(windows) == 1

    def test_certificate_sound_against_simulation(self):
        # m-step entry frequencies from points of J into subintervals of J
        # must respect delta * lambda(B) within Monte Carlo error
        out = minorization_probe(U2228, 2.5, 1, J=(0.5455, 0.6428), grid_n=64, resolution=2048)
        rng = substream(99)
        n_draws = 50_000
        sub_edges = np.linspace(out.J[0], out.J[1], 6)
        for x in np.linspace(out.J[0] + 1e-6, out.J[1] - 1e-6, 5):
            eps = U2228.sample(rng, size=n_draws)
            x1 = eps * x * (1.0 - x)
            for lo, hi in zip(sub_edges[:-1], sub_edges[1:]):
                freq = np.mean((x1 > lo) & (x1 < hi))
                bound = out.delta * (hi - lo)
                se = np.sqrt(max(freq * (1.0 - freq), 1e-12) / n_draws)
                assert freq >= bound - 3.0 * se


def _reference_monotone_run(qs, i0):
    """The scan that _monotone_run replaced, kept as its reference: samples
    (k, j) of the widest strictly monotone run covering i0, or None."""
    n_scan = len(qs)
    if np.isnan(qs[i0]):
        return None
    a = b = i0
    while a > 0 and not np.isnan(qs[a - 1]):
        a -= 1
    while b < n_scan - 1 and not np.isnan(qs[b + 1]):
        b += 1
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
    return a + best[0], a + best[1] + 1


class TestMonotoneRun:
    def test_same_run_as_reference_scan(self):
        # random walks with flat steps, ties either side of i0 and NaN holes
        rng = np.random.default_rng(2024)
        for _ in range(20_000):
            q = np.cumsum(rng.choice([-1.0, 0.0, 1.0], p=[0.4, 0.2, 0.4], size=rng.integers(1, 41)))
            q[rng.random(len(q)) < 0.1] = np.nan
            i0 = int(rng.integers(len(q)))
            assert kernel._monotone_run(q, i0) == _reference_monotone_run(q, i0), (q, i0)

    @pytest.mark.parametrize(
        "q, i0, run",
        [
            pytest.param([0, 1, 2, 1, 0], 2, (0, 2), id="tie-takes-first"),
            pytest.param([0, 1, 2, 1, 0, -1], 2, (2, 5), id="wider-second"),
            pytest.param([0, 1, 1, 2, 3], 2, (2, 4), id="flat-step-ends-run"),
            pytest.param([0, 1, np.nan, 2, 3], 1, None, id="hole-leaves-one-step"),
            pytest.param([0, 1, 2], 1, (0, 2), id="through-i0"),
            pytest.param([0, np.nan, 2], 1, None, id="i0-in-hole"),
            pytest.param([5.0], 0, None, id="one-sample"),
        ],
    )
    def test_cases(self, q, i0, run):
        assert kernel._monotone_run(np.array(q, dtype=float), i0) == run


class TestIrreducibilityProbe:
    def test_inside_J_found_fast(self):
        t = irreducibility_probe(U2228, 0.6, (0.5455, 0.6428), 50, 100, seed=4)
        assert t is not None and t <= 3

    def test_far_start_reaches_J(self):
        t = irreducibility_probe(U2228, 0.05, (0.5455, 0.6428), 50, 1000, seed=5)
        assert t is not None and t <= 30

    def test_extinction_regime_not_found(self):
        model = NoiseModel.uniform(0.5, 1.5)
        t = irreducibility_probe(model, 0.9, (0.5, 0.6), 200, 200, seed=6)
        assert t is None

    @pytest.mark.parametrize(
        "model, x, J, n_max, n_paths, seed",
        [
            pytest.param(U2228, 1e-6, (0.5455, 0.6428), 1000, 200, 20240, id="climb"),
            # path 4 is absorbed at step 13525, before any path enters J
            pytest.param(
                NoiseModel.uniform(0.5, 1.5), 0.5, (1e-300, 1.01e-300), 30_000, 8, 1,
                id="entry-after-absorption",
            ),
            pytest.param(NoiseModel.uniform(0.5, 1.5), 0.9, (0.5, 0.6), 200, 20, 6, id="none"),
        ],
    )
    def test_first_entry_over_own_substreams(self, model, x, J, n_max, n_paths, seed):
        # path i is the path from x on substream (seed, i) walked alone
        hits = []
        for i in range(n_paths):
            states = joined_path(model, x, n_max, substream(seed, i))[0][1:]
            inside = np.flatnonzero((states > J[0]) & (states < J[1]))
            hits += [int(inside[0]) + 1] if inside.size else []
        expected = min(hits) if hits else None
        assert irreducibility_probe(model, x, J, n_max, n_paths, seed) == expected

    @pytest.mark.parametrize(
        "J", [(-3.0, 0.6), (0.6, 0.5), (0.5, 1.5), (0.0, 0.6), (0.5, 1.0), (0.6, 0.6)]
    )
    def test_bad_interval_rejected(self, J):
        with pytest.raises(ValueError, match="must be nondegenerate inside"):
            irreducibility_probe(U2228, 0.6, J, 50, 10, seed=4)

    @pytest.mark.parametrize("n_max, n_paths, field", [(50, 0, "n_paths"), (0, 10, "n_max")])
    def test_empty_budget_rejected(self, n_max, n_paths, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            irreducibility_probe(U2228, 0.6, (0.5455, 0.6428), n_max, n_paths, seed=4)
