"""Tests for the transition-density machinery."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from randquad import kernel
from randquad.engine import simulate_trajectory
from randquad.kernel import (
    KernelOperator,
    MinorizationCertificate,
    MinorizationFailure,
    QuadratureError,
    density_grid,
    irreducibility_probe,
    minorization_probe,
    n_step_density,
    one_step_density,
    one_step_row_mass,
    orbit_density_chain,
)
from randquad.noise import NoiseModel, substream
from randquad.quadmap import find_periodic_orbit

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
# dense oracle: the full (n_out, R) mass matrix, one out edge at a time, as
# the operator stored it before folding and banding

_EPS = np.finfo(float).eps

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
    K = np.empty((len(out_edges) - 1, len(edges) - 1))
    prev = np.diff(kernel._h_mass_antiderivative(model, float(out_edges[0]), edges))
    for j in range(1, len(out_edges)):
        cur = np.diff(kernel._h_mass_antiderivative(model, float(out_edges[j]), edges))
        K[j - 1] = cur - prev
        prev = cur
    return K


def _entry_scale(model):
    """Size of the terms the antiderivative sums: a matrix entry, a
    difference of such sums, carries roundoff of a few eps times this."""
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
    """The antiderivative of kernel._h_mass_antiderivative as the plain
    formula, with logit over the whole broadcast array and both bands always
    summed; the kernel must give the same bits."""
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


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _unband(band, n_rows, half):
    """The lazy band as a dense (out cells) x (half-grid cells) array, every block built."""
    K = np.zeros((n_rows, half))
    for k, (j0, j1, lo, hi) in enumerate(band.spans):
        K[j0:j1, lo:hi] = band.block(k)
    return K


def _band_matrix(op, out_edges):
    """Every block of the folded band at once, (starts, blocks): the eager
    build that the lazy band replaced, kept as its oracle."""
    half = (op.resolution + 1) // 2
    pieces = [(c, d) for c, d, w in op.model.uniform_pieces if w > 0.0]
    c_min = min(c for c, _ in pieces)
    d_max = max(d for _, d in pieces)
    z = op.edges[: half + 1]
    s = z * (1.0 - z)
    s_lo = s[:-1]
    s_hi = np.append(s[1:-1], 0.25)
    first = np.searchsorted(s_hi, out_edges[:-1] / d_max, side="left")
    stop = np.searchsorted(s_lo, out_edges[1:] / c_min, side="left")
    first = np.maximum(first - 1, 0)
    stop = np.minimum(stop + 1, half)
    terms, logit_z = kernel._edge_terms(op.model, out_edges[:, None]), kernel._logit(z[None, :])
    starts, blocks = [], []
    for j0 in range(0, len(out_edges) - 1, kernel._BLOCK_ROWS):
        j1 = min(j0 + kernel._BLOCK_ROWS, len(out_edges) - 1)
        lo = int(first[j0:j1].min())
        hi = max(int(stop[j0:j1].max()), lo)
        rows, cols = slice(j0, j1 + 1), slice(lo, hi + 1)
        cut = [(c, w, slope, cross[:, rows]) for c, w, slope, cross in terms]
        A = kernel._antiderivative(out_edges[rows, None], cut, z[None, cols], logit_z[:, cols])
        starts.append(lo)
        blocks.append(np.diff(np.diff(A, axis=1), axis=0))
    return starts, blocks


def _eager_apply(band, folded):
    """One folded source vector through the eager band, block by block."""
    starts, blocks = band
    return np.concatenate(
        [block @ folded[start : start + block.shape[1]] for start, block in zip(starts, blocks)]
    )


def _eager_masses(op, band, xs, n):
    """Cell masses of p^(n)(x, .) for each x, one x at a time through the eager band."""
    half = (op.resolution + 1) // 2
    out = []
    for x in xs:
        masses = np.diff(np.asarray(op.model.ac_cdf(op.edges / (x * (1.0 - x))), dtype=float))
        for _ in range(n - 1):
            f = masses / op.widths
            folded = f[:half] + f[::-1][:half]
            if op.resolution % 2:
                folded[-1] = f[half - 1]
            masses = _eager_apply(band, folded)
        out.append(masses)
    return np.array(out)


def _built(op):
    """Blocks of the operator's transfer matrix built so far."""
    band = op._step_matrix
    return 0 if band is None else sum(block is not None for block in band.blocks)


# ----------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "call",
    [
        lambda m: one_step_density(m, 0.3, 0.5),
        lambda m: one_step_row_mass(m, 0.3),
        lambda m: KernelOperator(m, 64),
        lambda m: n_step_density(m, 0.3, 2, resolution=64),
        lambda m: density_grid(m, [0.3], 2, resolution=64),
        lambda m: minorization_probe(m, 2.5, 1, grid_n=8, resolution=64),
    ],
    ids=["one_step_density", "one_step_row_mass", "KernelOperator", "n_step_density",
         "density_grid", "minorization_probe"],
)
@pytest.mark.parametrize("model", [NoiseModel.point_mass(2.5), ATOMIC_WITH_ZERO_PIECE],
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
            one_step_density(NoiseModel.point_mass(2.5), 0.5, 0.6)


class TestNStepDensity:
    def test_base_case_matches_pointwise_aligned(self):
        # at x = 0.5 and resolution 1024 the support edges 0.5 and 0.75 land
        # exactly on cell edges, so every cell average is the pointwise value
        row = n_step_density(U23, 0.5, 1, resolution=1024)
        pointwise = one_step_density(U23, 0.5, row.y_centers)
        assert np.array_equal(row.values, pointwise)

    def test_base_case_matches_pointwise_generic(self):
        # generic x: equality up to roundoff away from the two cells that
        # straddle the support edges, a genuine averaging gap inside them
        x = 0.46
        row = n_step_density(U23, x, 1, resolution=1024)
        centers = row.y_centers
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
            row = n_step_density(U23, 0.5, n, resolution=4096)
            assert row.row_integral == pytest.approx(1.0, abs=1e-6)

    def test_mixed_model_expected_mass(self):
        mixed = NoiseModel(atoms=((2.5, 0.4),), uniform_pieces=((2.0, 3.0, 0.6),))
        row = n_step_density(mixed, 0.5, 2, resolution=2048)
        assert row.expected_mass == pytest.approx(0.36, abs=1e-12)
        assert row.row_integral == pytest.approx(0.36, abs=1e-9)

    def test_chapman_kolmogorov_spot_check(self):
        # resolution 8192: the recursion's discretization error near the
        # derivative kinks of the two-step density is O(cell width squared)
        op = KernelOperator(U23, 8192)
        failures = []
        for x in (0.3, 0.42, 0.5, 0.66):
            row = op.row(x, 3)
            centers = row.y_centers
            for yc in np.linspace(0.45, 0.73, 8):
                j = int(np.argmin(np.abs(centers - yc)))
                direct = row.values[j]
                oracle = p3_oracle(U23, x, centers[j])
                failures.append(abs(direct - oracle))
        assert max(failures) < 1e-5

    def test_two_step_against_oracle(self):
        row = n_step_density(U23, 0.5, 2, resolution=4096)
        centers = row.y_centers
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
            a = n_step_density(full, 0.4, n, resolution=512).values
            b = n_step_density(half, 0.4, n, resolution=512).values
            assert np.all(b <= a + 1e-9 * max(1.0, a.max()))  # roundoff slack

    def test_quadrature_guard_raises(self):
        # exercised with an impossible tolerance; the exact transfer keeps
        # real drift at roundoff level
        with pytest.raises(QuadratureError):
            n_step_density(U23, 0.5, 3, resolution=256, normalization_tol=-1.0)

    def test_density_grid_shares_results(self):
        grid = density_grid(U23, [0.3, 0.5, 0.7], 2, resolution=512)
        single = n_step_density(U23, 0.5, 2, resolution=512)
        assert np.array_equal(grid.values[1], single.values)
        assert grid.values.shape == (3, 512)


class TestAntiderivativeBits:
    """The kernel's antiderivative gives the plain formula's floats, bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257, 8191, 8192])
    @pytest.mark.parametrize("grid", ["full", "J"])
    def test_band_matrix_same_bits(self, name, R, grid):
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        out_edges = op.edges if grid == "full" else J_EDGES
        got = op._band(out_edges)
        n_out = len(out_edges) - 1
        assert len(got.spans) == len(got.blocks) == -(-n_out // kernel._BLOCK_ROWS)
        assert all(block is None for block in got.blocks)
        starts, _ = _band_matrix(op, out_edges)
        # each block k spans out cells j0 .. j1 - 1 and half-grid cells lo .. hi - 1
        for k, (j0, j1, lo, hi) in enumerate(got.spans):
            assert (j0, j1) == (k * kernel._BLOCK_ROWS, min((k + 1) * kernel._BLOCK_ROWS, n_out))
            assert lo == starts[k] and 0 <= lo <= hi <= (R + 1) // 2
            A = _reference_antiderivative(
                model, out_edges[j0 : j1 + 1, None], op.edges[None, lo : hi + 1]
            )
            assert _same_bits(got.block(k), np.diff(np.diff(A, axis=1), axis=0)), k

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize(
        "e, z",
        [
            pytest.param(0.0, np.linspace(0.0, 1.0, 65), id="e0-row"),
            pytest.param(0.0, 0.3, id="e0-scalar"),
            pytest.param(0.1, 0.7, id="scalar-past-half"),
            # every source edge of the full grid, out edges across (0, 1)
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
        model = ORACLE_MODELS[name]
        assert _same_bits(
            kernel._h_mass_antiderivative(model, e, z), _reference_antiderivative(model, e, z)
        )


class TestFoldedBandOperator:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257])
    @pytest.mark.parametrize("grid", ["full", "J"])
    def test_matrix_matches_dense_oracle(self, name, R, grid):
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        out_edges = op.edges if grid == "full" else J_EDGES
        dense = _dense_mass_matrix(model, op.edges, out_edges)
        half = (R + 1) // 2
        tol = 2.0 * _EPS * _entry_scale(model)
        # the fold: source cells i and R-1-i carry the same masses
        assert np.max(np.abs(dense - dense[:, ::-1])) <= tol
        # the band holds every entry the dense matrix has, first and last
        # rows (e = 0 and e = 1) included; outside it dense entries are zero
        banded = _unband(op._band(out_edges), len(out_edges) - 1, half)
        assert np.max(np.abs(banded - dense[:, :half])) <= tol
        # applied to random densities
        rng = np.random.default_rng(R)
        for _ in range(3):
            f = rng.random(R) * rng.integers(1, 5, size=R)
            got = op._band(out_edges).apply(op._fold(f[None] * op.widths))[0]
            assert np.max(np.abs(got - dense @ f)) <= tol * np.abs(f).sum()

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
        # same pieces of positive weight as U[2,3]: no terms of the other,
        # the same band and the same bits
        model = ORACLE_MODELS["zero-weight"]
        assert [terms[0] for terms in kernel._edge_terms(model, J_EDGES)] == [2.0]
        got = KernelOperator(model, R)._step()
        want = KernelOperator(U23, R)._step()
        assert got.spans == want.spans
        assert all(_same_bits(got.block(k), want.block(k)) for k in range(len(got.spans)))

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

    def test_density_grid_rejects_empty_x_values(self):
        with pytest.raises(ValueError, match="x_values is empty"):
            density_grid(U23, [], 2, resolution=64)


X_SETS = [(0.3,), (0.25, 0.4, 0.6, 0.75), (1e-6, 0.5, 0.999999), (0.05, 0.123456789, 0.9)]


class TestLazyBand:
    """Blocks built on first use, skipped where no source mass reaches them and
    applied to every row in turn give the bits of the eager band applied one
    row at a time, the +0.0 of skipped out cells included."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("R", [2, 3, 7, 64, 257, 1000, 8191])
    def test_rows_same_bits_as_eager_band(self, name, R):
        model = ORACLE_MODELS[name]
        op = KernelOperator(model, R)
        eager = _band_matrix(op, op.edges)
        for xs in X_SETS:
            for n in (1, 2, 3, 4):
                want = _eager_masses(op, eager, xs, n)
                rows = op.rows(xs, n)
                assert _same_bits([r.values for r in rows], want / op.widths), (xs, n)
                assert _same_bits([r.row_integral for r in rows], want.sum(axis=1)), (xs, n)
                assert _same_bits(op.row(xs[-1], n).values, want[-1] / op.widths), (xs, n)
        xs = sum(X_SETS, ())
        grid = density_grid(model, xs, 3, resolution=R)
        want = _eager_masses(op, eager, xs, 3)
        assert _same_bits(grid.values, want / op.widths)
        assert _same_bits(grid.row_integrals, want.sum(axis=1))

    @pytest.mark.parametrize("R", [64, 257, 1000])
    def test_source_in_last_column_of_a_block_is_applied(self, R):
        # a source nonzero only in the last column of block k reaches k's out cells
        op = KernelOperator(U23, R)
        band, eager = op._band(op.edges), _band_matrix(op, op.edges)
        reached = 0
        for j0, j1, lo, hi in band.spans:
            if hi > lo:
                folded = np.zeros((1, (R + 1) // 2))
                folded[0, hi - 1] = 1.0
                want = _eager_apply(eager, folded[0])
                assert _same_bits(band.apply(folded)[0], want), (lo, hi)
                reached += bool(want[j0:j1].any())
        assert reached > 0

    def test_blocks_built_where_source_mass_reaches(self):
        op = KernelOperator(U23, 8192)
        op.rows([0.25, 0.4, 0.6, 0.75], 3)
        assert (_built(op), len(op._step().spans)) == (161, 256)

    def test_one_step_builds_nothing(self):
        op = KernelOperator(U23, 8192)
        op.rows([0.25, 0.4, 0.6, 0.75], 1)
        assert _built(op) == 0

    def test_second_call_builds_nothing_new(self, monkeypatch):
        op = KernelOperator(U23, 8192)
        first = op.rows([0.25, 0.4, 0.6, 0.75], 3)
        built = _built(op)
        calls = []
        monkeypatch.setattr(kernel, "_antiderivative", lambda *args: calls.append(args))
        again = op.rows([0.25, 0.4, 0.6, 0.75], 3)
        assert calls == [] and _built(op) == built
        assert all(_same_bits(a.values, b.values) for a, b in zip(first, again))


class TestOrbitDensityChain:
    def test_fixed_point_chain(self):
        orbit = find_periodic_orbit(2.5, 1)
        chain = orbit_density_chain(U23, orbit)
        assert len(chain) == 1
        assert chain[0] == pytest.approx(1.0 / 0.24, abs=1e-9)

    def test_period2_chain(self):
        model = NoiseModel.uniform(3.0, 3.4)
        orbit = find_periodic_orbit(3.2, 2)
        chain = orbit_density_chain(model, orbit)
        assert len(chain) == 2
        h0 = 1.0 / 0.4
        cyc = orbit.cycle_order()
        expected = [h0 / (x * (1.0 - x)) for x in cyc]
        assert chain == pytest.approx(expected, rel=1e-12)
        assert all(v > 0.0 for v in chain)

    def test_atomic_model_raises(self):
        with pytest.raises(ValueError, match="outside the density support"):
            orbit_density_chain(ATOMIC_WITH_ZERO_PIECE, find_periodic_orbit(2.5, 1))

    def test_outside_support_raises(self):
        orbit = find_periodic_orbit(3.2, 2)
        with pytest.raises(ValueError):
            orbit_density_chain(U23, orbit)  # h(3.2) = 0 for Uniform[2,3]


class TestInfDensity:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_dense_scan(self, name):
        model = ORACLE_MODELS[name]
        cuts = sorted({e for c, d, w in model.uniform_pieces if w > 0.0 for e in (c, d)})
        # ends on every cut, 0.043 or more off the cuts, and past the support
        ends = set(cuts) | {c + off for c in cuts for off in (-0.117, 0.043)}
        ends |= {cuts[0] - 0.5, cuts[-1] + 0.3}
        pairs = list(itertools.combinations(sorted(ends), 2))
        lo, hi = np.array(pairs).T
        got = model.inf_density(lo, hi)
        for k, (a, b) in enumerate(pairs):
            scan = np.linspace(a, b, 20001)[1:-1]
            assert got[k] == model.inf_density(a, b) == np.min(model.density(scan))


class TestMinorizationProbe:
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
            minorization_probe(NoiseModel.point_mass(2.5), 2.5, 1)

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
            states = simulate_trajectory(model, x, n_max, substream(seed, i)).values[1:]
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
