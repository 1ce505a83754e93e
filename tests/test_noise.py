"""Tests for the noise mixture models and the hypothesis checker."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from randquad import kernel
from randquad.engine import _lane_draws
from randquad.noise import NoiseModel, check_conditions, substream


def quad_e_log(model):
    """Adaptive-quadrature oracle for E log(eps), independent of the closed form."""
    total = sum(w * math.log(a) for a, w in model.atoms)
    for c, d, w in model.uniform_pieces:
        val, _ = quad(math.log, c, d, limit=200)
        total += w * val / (d - c)
    return total


def quad_e_log4m(model):
    """Adaptive-quadrature oracle for E |log(4 - eps)|."""
    total = sum(w * abs(math.log(4.0 - a)) for a, w in model.atoms)
    for c, d, w in model.uniform_pieces:
        points = [3.0] if c < 3.0 < d else None
        val, _ = quad(lambda t: abs(math.log(4.0 - t)), c, d, points=points, limit=200)
        total += w * val / (d - c)
    return total


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NoiseModel(atoms=((2.0, 0.5),))
        with pytest.raises(ValueError):
            NoiseModel(uniform_pieces=((2.0, 3.0, 1.1),))

    def test_locations_inside_open_interval(self):
        with pytest.raises(ValueError):
            NoiseModel(atoms=((4.0, 1.0),))
        with pytest.raises(ValueError):
            NoiseModel(uniform_pieces=((0.0, 1.0, 1.0),))
        with pytest.raises(ValueError):
            NoiseModel(uniform_pieces=((3.0, 2.0, 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel()

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseModel(atoms=((2.0, math.nan),), uniform_pieces=((2.0, 3.0, 1.0),))


class TestDensity:
    def test_uniform_inside(self):
        m = NoiseModel.uniform(2.0, 3.0)
        assert m.density(2.4) == pytest.approx(1.0, abs=0)

    def test_uniform_outside(self):
        m = NoiseModel.uniform(2.0, 3.0)
        assert m.density(3.5) == 0.0

    def test_mixture_piece_density(self):
        m = NoiseModel(atoms=((2.0, 0.5),), uniform_pieces=((3.0, 3.5, 0.5),))
        assert m.density(3.2) == pytest.approx(1.0, abs=0)
        assert m.density(2.0) == 0.0  # atoms carry no density

    def test_density_integrates_to_ac_weight(self):
        m = NoiseModel(
            atoms=((1.5, 0.25),),
            uniform_pieces=((2.0, 2.5, 0.4), (2.4, 3.1, 0.35)),
        )
        grid = np.linspace(1e-4, 4 - 1e-4, 200_001)
        integral = np.trapezoid(m.density(grid), grid)
        assert integral == pytest.approx(m.ac_weight, abs=1e-4)
        assert m.ac_cdf(4.0) == pytest.approx(m.ac_weight, abs=0)


class TestMoments:
    def test_atom_at_one(self):
        assert NoiseModel(atoms=((1.0, 1.0),)).e_log() == 0.0

    def test_e_log_uniform_2_3(self):
        m = NoiseModel.uniform(2.0, 3.0)
        # frozen from the quadrature oracle / closed form 3 ln 3 - 2 ln 2 - 1
        assert m.e_log() == pytest.approx(0.9095425048844386, abs=1e-9)
        assert m.e_log() == pytest.approx(quad_e_log(m), abs=1e-9)

    def test_e_log_uniform_half_threehalf(self):
        m = NoiseModel.uniform(0.5, 1.5)
        assert m.e_log() == pytest.approx(-0.0452287475577805, abs=1e-9)
        assert m.e_log() == pytest.approx(quad_e_log(m), abs=1e-9)
        assert m.e_log() < 0.0  # extinction regime

    def test_e_log4m_atoms(self):
        assert NoiseModel(atoms=((3.0, 1.0),)).e_log4m() == 0.0
        assert NoiseModel(atoms=((4.0 - math.exp(-1.0), 1.0),)).e_log4m() == pytest.approx(
            1.0, abs=1e-12
        )

    def test_e_log4m_uniform_2_3(self):
        m = NoiseModel.uniform(2.0, 3.0)
        assert m.e_log4m() == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-9)
        assert m.e_log4m() == pytest.approx(quad_e_log4m(m), abs=1e-9)

    def test_randomized_models_match_quadrature(self):
        rng = np.random.default_rng(321)
        for _ in range(5):
            n_pieces = int(rng.integers(1, 4))
            raw = rng.uniform(0.2, 1.0, n_pieces + 1)
            weights = raw / raw.sum()
            pieces = []
            for k in range(n_pieces):
                c = rng.uniform(0.3, 3.5)
                d = rng.uniform(c + 0.05, min(c + 1.0, 3.95))
                pieces.append((c, d, weights[k]))
            model = NoiseModel(
                atoms=((rng.uniform(0.5, 3.5), weights[-1]),),
                uniform_pieces=tuple(pieces),
            )
            assert model.e_log() == pytest.approx(quad_e_log(model), abs=1e-9)
            assert model.e_log4m() == pytest.approx(quad_e_log4m(model), abs=1e-9)


class TestSampling:
    def test_atom_constant(self):
        m = NoiseModel(atoms=((2.5, 1.0),))
        draws = m.sample(substream(1), size=1000)
        assert np.all(draws == 2.5)

    def test_uniform_mean_within_three_se(self):
        m = NoiseModel.uniform(2.0, 3.0)
        n = 1_000_000
        draws = m.sample(substream(2), size=n)
        se = math.sqrt(1.0 / 12.0 / n)
        assert abs(draws.mean() - 2.5) <= 3.0 * se

    def test_mixture_atom_frequency(self):
        m = NoiseModel(atoms=((2.0, 0.5),), uniform_pieces=((3.0, 3.5, 0.5),))
        n = 100_000
        draws = m.sample(substream(3), size=n)
        freq = np.mean(draws == 2.0)
        se = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 3.0 * se

    def test_chunked_draws_match_one_shot(self):
        m = NoiseModel(atoms=((1.5, 0.3),), uniform_pieces=((2.0, 3.0, 0.7),))
        one = m.sample(substream(9), size=1000)
        rng = substream(9)
        parts = [m.sample(rng, size=k) for k in (1, 9, 90, 400, 500)]
        assert np.array_equal(one, np.concatenate(parts))

    def test_scalar_draw_matches_vector_head(self):
        m = NoiseModel.uniform(2.0, 3.0)
        assert m.sample(substream(5)) == m.sample(substream(5), size=3)[0]

    def test_ks_statistic_below_critical(self):
        # 99% critical value of sup|ecdf - cdf| for continuous F; with atoms
        # the statistic is stochastically smaller, so the bound still holds
        models = [
            NoiseModel.uniform(2.0, 3.0),
            NoiseModel(uniform_pieces=((0.8, 1.6, 0.45), (2.2, 3.4, 0.55))),
            NoiseModel(atoms=((2.5, 0.3),), uniform_pieces=((1.0, 2.0, 0.7),)),
            UNSORTED,
        ]
        n = 100_000
        critical = 1.6276 / math.sqrt(n)
        for i, m in enumerate(models):
            draws = np.sort(m.sample(substream(100 + i), size=n))
            unique = np.unique(draws)
            # F(x), atoms included, and its left limit F(x-), which drops
            # each atom's jump at its own location
            ac = np.asarray(m.ac_cdf(unique))
            cdf = ac + sum(w * (unique >= loc) for loc, w in m.atoms)
            cdf_left = ac + sum(w * (unique > loc) for loc, w in m.atoms)
            ecdf_hi = np.searchsorted(draws, unique, side="right") / n
            ecdf_lo = np.searchsorted(draws, unique, side="left") / n
            d_stat = max(
                np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf_left - ecdf_lo))
            )
            assert d_stat < critical


class _TopOfUnitInterval:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, np.nextafter(1.0, 0.0))


# an atom, two pieces and a zero-weight piece; and one piece alone
MIXED = NoiseModel(
    atoms=((1.5, 0.2),),
    uniform_pieces=((2.0, 2.5, 0.3), (2.4, 3.6, 0.5), (3.7, 3.9, 0.0)),
)
SINGLE = NoiseModel.uniform(2.0, 3.0)


def in_support(model, values):
    """Whether every value is a positive-weight atom or lies in a positive-weight piece."""
    ok = np.zeros(values.shape, dtype=bool)
    for a, w in model.atoms:
        ok |= (values == a) & (w > 0)
    for c, d, w in model.uniform_pieces:
        ok |= (values >= c) & (values <= d) & (w > 0)
    return bool(ok.all())


class TestLaneDraws:
    """A walk's lane draws give each live lane's column that lane's own `sample` stream."""

    @pytest.mark.parametrize(
        "model",
        [MIXED, SINGLE, NoiseModel(atoms=((2.5, 1.0),)),
         NoiseModel(uniform_pieces=((2.0, 3.0, 1.0), (3.2, 3.4, 0.0)))],
        ids=["mixture", "single", "atom", "single-with-zero-weight"],
    )
    def test_lane_columns_concatenate_to_each_lanes_stream(self, model):
        lanes, max_rows = 7, 40
        pick = np.random.default_rng(11)
        draws = _lane_draws(model, [substream(60, j) for j in range(lanes)])
        columns = [[] for _ in range(lanes)]
        for _ in range(40):
            m = int(pick.integers(1, max_rows + 1))
            live = np.flatnonzero(pick.random(lanes) < 0.6)
            out = np.full((m, lanes), np.nan)
            draws(out, live)
            for j in live:
                columns[j].append(out[:, j].copy())
            # lanes outside live are placed from stale uniforms, never left unset
            assert in_support(model, out)
        for j, parts in enumerate(columns):
            assert parts, j  # every lane drew in some block
            got = np.concatenate(parts)
            expect = model.sample(substream(60, j), len(got))
            assert np.array_equal(got.view(np.int64), expect.view(np.int64)), j

    @pytest.mark.parametrize(
        "model",
        [MIXED, SINGLE, NoiseModel(atoms=((2.5, 1.0),)),
         NoiseModel(uniform_pieces=((2.0, 3.0, 1.0), (3.2, 3.4, 0.0)))],
        ids=["mixture", "single", "atom", "single-with-zero-weight"],
    )
    def test_placement_matches_searchsorted_formula(self, model):
        cum, base, mass, lo, width = model._tables
        assert np.array_equal(base, np.concatenate(([0.0], cum[:-1])))
        assert np.array_equal(mass, cum - base)
        u = edge_uniforms(model, 5000, 61)
        k = np.searchsorted(cum, u, side="right")
        expect = lo[k] + width[k] * ((u - base[k]) / (cum[k] - base[k]))
        got = model.quantile(u, np.empty(len(u)))
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_single_component_skips_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searchsorted called for a one-component model")

        monkeypatch.setattr(np, "searchsorted", no_search)
        assert len(SINGLE._tables[0]) == 1
        SINGLE.sample(substream(62), 10)
        with pytest.raises(AssertionError):
            MIXED.sample(substream(62), 10)


# pieces listed out of order, two of them overlapping, and an atom inside one
UNSORTED = NoiseModel(
    atoms=((1.2, 0.15),),
    uniform_pieces=((2.6, 3.4, 0.35), (0.8, 1.6, 0.2), (1.4, 2.9, 0.3)),
)
# a piece (lo, hi) for which lo + (hi - lo) rounds up past hi
TIGHT_LO, TIGHT_HI = 0.75 + 3 * 2.0**-52, 3.5 + 2.0**-51
TIGHT = NoiseModel(
    atoms=((3.6, 0.3),), uniform_pieces=((0.5, TIGHT_LO, 0.2), (TIGHT_LO, TIGHT_HI, 0.5))
)
QUANTILE_MODELS = {
    "mixture": MIXED,
    "single": SINGLE,
    "atom": NoiseModel(atoms=((2.5, 1.0),)),
    "unsorted": UNSORTED,
    "tight": TIGHT,
    "two-atoms": NoiseModel(atoms=((3.1, 0.4), (1.7, 0.6))),
}


def segments(model):
    """(lo, hi) of the quantile segments in order: each atom, and each interval of
    positive density between consecutive piece ends and atoms."""
    ends = sorted({e for c, d, _ in model.uniform_pieces for e in (c, d)}
                  | {a for a, _ in model.atoms})
    cells = [(x, y) for x, y in zip(ends[:-1], ends[1:]) if model.density(0.5 * (x + y)) > 0]
    return sorted([(a, a) for a, _ in model.atoms] + cells)


def cdf(model, x):
    """F(x) and its left limit F(x-), atoms included."""
    ac = np.asarray(model.ac_cdf(x))
    return (ac + sum(w * (x >= a) for a, w in model.atoms),
            ac + sum(w * (x > a) for a, w in model.atoms))


def edge_uniforms(model, n, seed):
    """0, the top uniform, each cumulative mass below 1 and one ulp below each, then n draws."""
    cum = model._tables[0]
    return np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum[cum < 1.0],
                           np.nextafter(cum, 0.0), substream(seed).random(n)])


class TestQuantileDraws:
    """A draw is the law's quantile at one uniform: monotone in u, and in the law's order."""

    @pytest.mark.parametrize("name", sorted(QUANTILE_MODELS))
    def test_draw_inverts_the_cdf(self, name):
        # F(x-) <= u <= F(x) at x = Q(u), up to the roundoff of the masses
        model = QUANTILE_MODELS[name]
        u = edge_uniforms(model, 20_000, 63)
        x = model.quantile(u, np.empty(len(u)))
        upper, lower = cdf(model, x)
        assert np.all(lower <= u + 1e-12) and np.all(u <= upper + 1e-12)
        order = np.argsort(u, kind="stable")
        assert np.all(np.diff(x[order]) >= 0.0)  # monotone in u

    @pytest.mark.parametrize("name", sorted(QUANTILE_MODELS))
    def test_draws_lie_in_their_closed_segments(self, name):
        model = QUANTILE_MODELS[name]
        cum, _, _, lo, width = model._tables
        seg_lo, seg_hi = map(np.array, zip(*segments(model)))
        assert np.array_equal(lo, seg_lo)
        assert np.all(lo + width <= seg_hi)
        u = edge_uniforms(model, 20_000, 64)
        k = np.searchsorted(cum, u, side="right")
        x = model.quantile(u, np.empty(len(u)))
        assert np.all((seg_lo[k] <= x) & (x <= seg_hi[k]))
        atom = seg_lo[k] == seg_hi[k]
        assert np.array_equal(x[atom], seg_lo[k][atom])  # atoms come out exactly

    def test_tight_segment_width_is_shrunk(self):
        _, _, _, lo, width = TIGHT._tables
        k = list(lo).index(TIGHT_LO)
        assert TIGHT_LO + (TIGHT_HI - TIGHT_LO) > TIGHT_HI
        assert width[k] == np.nextafter(TIGHT_HI - TIGHT_LO, 0.0)

    # (lower, upper) in first-order stochastic dominance: F_lower >= F_upper
    ORDERED = {
        "shifted-uniform": (NoiseModel.uniform(2.0, 3.0), NoiseModel.uniform(2.5, 3.5)),
        "atom-below-uniform": (NoiseModel(atoms=((2.0, 1.0),)), NoiseModel.uniform(2.0, 3.0)),
        # overlapping pieces; the upper model moves weight to the higher piece, then by 0.05
        "overlapping": (
            NoiseModel(uniform_pieces=((1.0, 2.5, 0.5), (2.0, 3.0, 0.5))),
            NoiseModel(uniform_pieces=((1.05, 2.55, 0.3), (2.05, 3.05, 0.7))),
        ),
        # an atom inside a piece below a plain shifted piece, by at least 0.05
        "atom-in-piece": (
            NoiseModel(atoms=((2.5, 0.2),), uniform_pieces=((2.0, 3.0, 0.8),)),
            NoiseModel.uniform(2.15, 3.15),
        ),
        "unsorted": (UNSORTED, NoiseModel(atoms=((1.3, 0.15),), uniform_pieces=(
            (2.7, 3.5, 0.35), (0.9, 1.7, 0.2), (1.5, 3.0, 0.3)))),
    }

    @pytest.mark.parametrize("name", sorted(ORDERED))
    def test_common_uniforms_order_the_draws(self, name):
        lower, upper = self.ORDERED[name]
        a, b = lower.sample(substream(65), 50_000), upper.sample(substream(65), 50_000)
        assert np.all(a <= b)
        assert a.mean() < b.mean()

    @pytest.mark.parametrize("name", sorted(QUANTILE_MODELS))
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_sample_reads_one_uniform_per_draw(self, name, n):
        rng, twin = substream(66), substream(66)
        QUANTILE_MODELS[name].sample(rng, n)
        twin.random(n)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestZeroWeightNeverDrawn:
    # ten weights of 0.1 leave the cumulative edge before the trailing
    # zero-weight piece at 0.9999999999999999, below the largest uniform
    PIECES = tuple((1.0 + 0.2 * k, 1.1 + 0.2 * k, 0.1) for k in range(10)) + ((3.5, 3.9, 0.0),)

    def test_cumulative_gap_exists(self):
        assert np.cumsum([0.1] * 10)[-1] == np.nextafter(1.0, 0.0)

    def test_top_uniform_draws_last_positive_piece(self):
        m = NoiseModel(uniform_pieces=self.PIECES)
        draws = m.sample(_TopOfUnitInterval(), size=4)
        assert np.allclose(draws, 2.9, rtol=0.0, atol=1e-12)  # top of (2.8, 2.9)
        assert m.sample(_TopOfUnitInterval()) == draws[0]


def same_bits(a, b) -> bool:
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# (with zero-weight components, the same model without them): zero weights
# before, between and after the positive ones, a piece wider than all of them,
# an atom inside a piece and one outside every piece
ZERO_WEIGHT_PAIRS = {
    "mixture": (
        NoiseModel(
            atoms=((0.5, 0.0), (1.5, 0.2), (2.2, 0.0)),
            uniform_pieces=((1.2, 3.9, 0.0), (2.0, 2.5, 0.3), (0.1, 0.2, 0.0), (2.4, 3.6, 0.5)),
        ),
        NoiseModel(atoms=((1.5, 0.2),), uniform_pieces=((2.0, 2.5, 0.3), (2.4, 3.6, 0.5))),
    ),
    "piece": (
        NoiseModel(atoms=((3.7, 0.0),), uniform_pieces=((2.0, 3.0, 1.0), (1.2, 3.9, 0.0))),
        NoiseModel.uniform(2.0, 3.0),
    ),
    "atom": (
        NoiseModel(atoms=((3.7, 0.0), (2.5, 1.0)), uniform_pieces=((1.2, 3.9, 0.0),)),
        NoiseModel(atoms=((2.5, 1.0),)),
    ),
}


class TestZeroWeightDropped:
    """A zero-weight component is validated, then dropped: every output keeps its bits."""

    THETA = np.concatenate([
        np.linspace(-0.5, 4.5, 1001),
        [0.1, 0.2, 0.5, 1.2, 1.5, 2.0, 2.2, 2.4, 2.5, 3.0, 3.6, 3.7, 3.9, np.inf, -np.inf],
        substream(70).uniform(0.0, 4.0, 500),
    ])

    @pytest.mark.parametrize("name", sorted(ZERO_WEIGHT_PAIRS))
    def test_outputs_agree_bit_for_bit(self, name):
        padded, plain = ZERO_WEIGHT_PAIRS[name]
        for method in ("density", "ac_cdf"):
            assert same_bits(getattr(padded, method)(self.THETA), getattr(plain, method)(self.THETA))
            assert same_bits(getattr(padded, method)(2.25), getattr(plain, method)(2.25))
        assert same_bits(padded.density_runs(), plain.density_runs())
        # every box of a grid whose first x cell starts at 0, where r_hi is infinite
        x_edges, y_edges = np.linspace(0.0, 0.5, 41), np.linspace(0.0, 1.0, 300)
        assert same_bits(kernel._box_bound(padded, x_edges, y_edges),
                         kernel._box_bound(plain, x_edges, y_edges))
        assert same_bits(padded.support_bounds(), plain.support_bounds())
        assert same_bits(padded.e_log(), plain.e_log())
        assert same_bits(padded.e_log4m(), plain.e_log4m())
        if plain.uniform_pieces:
            assert same_bits(padded.ac_bounds(), plain.ac_bounds())
        else:
            for model in (padded, plain):
                with pytest.raises(ValueError, match="no absolutely continuous component"):
                    model.ac_bounds()

    @pytest.mark.parametrize("name", sorted(ZERO_WEIGHT_PAIRS))
    def test_sample_streams_agree_bit_for_bit(self, name):
        padded, plain = ZERO_WEIGHT_PAIRS[name]
        assert same_bits(padded.sample(substream(72), 5000), plain.sample(substream(72), 5000))
        assert padded.sample(substream(73)) == plain.sample(substream(73))
        lanes, m = 5, 300
        live = np.array([0, 2, 3])
        outs = []
        for model in (padded, plain):
            out = np.empty((m, lanes))
            _lane_draws(model, [substream(74, j) for j in range(lanes)])(out, live)
            outs.append(out)
        assert same_bits(*outs)

    @pytest.mark.parametrize("name", sorted(ZERO_WEIGHT_PAIRS))
    def test_only_positive_weights_kept(self, name):
        padded, plain = ZERO_WEIGHT_PAIRS[name]
        assert padded.atoms == plain.atoms
        assert padded.uniform_pieces == plain.uniform_pieces
        assert all(w > 0.0 for _, w in padded.atoms)
        assert all(w > 0.0 for *_, w in padded.uniform_pieces)

    def test_negative_zero_weight_is_dropped(self):
        model = NoiseModel(atoms=((2.5, -0.0),), uniform_pieces=((2.0, 3.0, 1.0), (3.5, 3.6, -0.0)))
        assert model == NoiseModel.uniform(2.0, 3.0)

    def test_wide_zero_weight_piece_leaves_ac_bounds(self):
        # the oracle model of the kernel tests: the band is that of U[2,3]
        model = NoiseModel(uniform_pieces=((1.2, 3.9, 0.0), (2.0, 3.0, 1.0)))
        assert model.ac_bounds() == (2.0, 3.0)

    @pytest.mark.parametrize(
        "atoms, pieces, message",
        [
            (((4.0, 0.0),), (), "atom location 4.0 outside"),
            (((0.0, 0.0),), (), "atom location 0.0 outside"),
            ((), ((3.0, 2.0, 0.0),), r"uniform piece \(3.0, 2.0\) invalid"),
            ((), ((2.5, 2.5, 0.0),), r"uniform piece \(2.5, 2.5\) invalid"),
            (((2.5, math.nan),), (), "atom weights must be nonnegative"),
            ((), ((2.0, 2.5, math.nan),), "piece weights must be nonnegative"),
        ],
        ids=["atom-at-4", "atom-at-0", "piece-reversed", "piece-empty", "atom-nan", "piece-nan"],
    )
    def test_bad_zero_weight_component_still_rejected(self, atoms, pieces, message):
        with pytest.raises(ValueError, match=message):
            NoiseModel(atoms=atoms, uniform_pieces=pieces + ((2.0, 3.0, 1.0),))


class TestAcBounds:
    def test_least_left_end_and_greatest_right_end(self):
        m = NoiseModel(uniform_pieces=((2.4, 3.6, 0.5), (2.0, 2.5, 0.3), (3.7, 3.8, 0.2)))
        assert m.ac_bounds() == (2.0, 3.8)

    def test_atoms_do_not_widen_the_band(self):
        m = NoiseModel(atoms=((1.5, 0.5), (3.9, 0.25)), uniform_pieces=((2.0, 3.0, 0.25),))
        assert m.ac_bounds() == (2.0, 3.0)

    def test_purely_atomic_model_raises(self):
        with pytest.raises(ValueError, match="model has no absolutely continuous component"):
            NoiseModel(atoms=((2.5, 1.0),)).ac_bounds()


class TestDensityRuns:
    def test_single_piece(self):
        assert NoiseModel.uniform(2.0, 3.0).density_runs() == [(2.0, 3.0, 1.0)]

    def test_adjacent_pieces_merge_and_gaps_split(self):
        m = NoiseModel(uniform_pieces=((1.5, 2.0, 0.25), (2.0, 2.5, 0.25), (3.0, 3.5, 0.5)))
        assert m.density_runs() == [(1.5, 2.5, 0.5), (3.0, 3.5, 1.0)]

    def test_clipped_to_one_four_and_zero_weight_ignored(self):
        m = NoiseModel(uniform_pieces=((0.5, 1.5, 1.0), (2.0, 3.0, 0.0)))
        assert m.density_runs() == [(1.0, 1.5, 1.0)]

    def test_floor_is_least_cell_not_first(self):
        # cells of density 1, 0.5 and 1 in one run: the floor is the middle one
        m = NoiseModel(uniform_pieces=((1.5, 2.5, 0.5), (1.5, 2.0, 0.25), (2.5, 2.75, 0.25)))
        assert m.density_runs() == [(1.5, 2.75, 0.5)]

    def test_atoms_have_no_runs(self):
        assert NoiseModel(atoms=((2.5, 1.0),)).density_runs() == []

    def test_widest_run_first_on_tie_is_density_interval(self):
        m = NoiseModel(uniform_pieces=((1.5, 2.0, 0.5), (3.0, 3.5, 0.5)))
        c, d, _ = check_conditions(m).density_interval
        assert (c, d) == (1.5, 2.0)


class TestSupportBounds:
    def test_uniform(self):
        assert NoiseModel.uniform(2.0, 3.0).support_bounds() == (2.0, 3.0)

    def test_mixture(self):
        m = NoiseModel(atoms=((1.5, 0.5),), uniform_pieces=((2.0, 3.0, 0.5),))
        assert m.support_bounds() == (1.5, 3.0)

    def test_atom(self):
        assert NoiseModel(atoms=((2.5, 1.0),)).support_bounds() == (2.5, 2.5)


class TestCheckConditions:
    def test_uniform_2_3_all_ok(self):
        report = check_conditions(NoiseModel.uniform(2.0, 3.0))
        assert report.e_log == pytest.approx(0.9095425048844386, abs=1e-9)
        assert math.isfinite(report.e_log4m)
        assert report.density_interval is not None
        c, d, inf_h = report.density_interval
        assert (c, d) == (2.0, 3.0)
        assert inf_h == pytest.approx(1.0, abs=0)
        assert report.all_ok

    def test_inf_h_is_exact_infimum(self):
        # a 0.001-wide cell of density 1e-4 inside the run: a point scan of
        # the run steps over it and reports the 0.5 of (2, 3)
        m = NoiseModel(
            uniform_pieces=((2.0, 3.0, 0.5), (3.0, 3.001, 1e-7), (3.001, 3.5, 0.5 - 1e-7))
        )
        c, d, inf_h = check_conditions(m).density_interval
        assert (c, d) == (2.0, 3.5)
        assert inf_h == pytest.approx(1e-4, rel=1e-9)
        assert inf_h == m.density(3.0005) == min(m.density([2.5, 3.0005, 3.25]))

    def test_pure_atom_fails_density(self):
        report = check_conditions(NoiseModel(atoms=((2.5, 1.0),)))
        assert report.density_interval is None
        assert not report.all_ok

    def test_extinction_regime_fails_moments(self):
        report = check_conditions(NoiseModel.uniform(0.5, 1.5))
        assert report.e_log < 0.0
        assert not report.moments_ok
        assert not report.all_ok

    def test_density_interval_clipped_to_unit_window(self):
        # support reaches below 1; only the part above 1 qualifies
        report = check_conditions(NoiseModel.uniform(0.5, 1.5))
        assert report.density_interval == (1.0, 1.5, pytest.approx(1.0, abs=0))

    def test_moment_verdict_flips_at_root(self):
        # oracle: root of (c+1) log(c+1) - c log c - 1 located by bisection
        f = lambda c: (c + 1.0) * math.log(c + 1.0) - c * math.log(c) - 1.0
        root = brentq(f, 0.3, 0.9, xtol=1e-12)
        assert root == pytest.approx(0.5425, abs=1e-3)
        below = check_conditions(NoiseModel.uniform(root - 0.01, root + 0.99))
        above = check_conditions(NoiseModel.uniform(root + 0.01, root + 1.01))
        assert not below.moments_ok
        assert above.moments_ok
        # and the flip is exactly the sign flip of e_log
        assert below.e_log < 0.0 < above.e_log
