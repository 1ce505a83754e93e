"""Tests for the statistical diagnostics."""

import numpy as np
import pytest

from randquad.diagnostics import (
    cyclicity_detect,
    extinction_test,
    kolmogorov_approx,
    stability_test,
    tv_distance,
)
from randquad.engine import OccupationMeasure, SimConfig, ensemble_occupation
from randquad.noise import NoiseModel, substream
from randquad.quadmap import DomainError, invariant_interval
from test_engine import joined_path

U23 = NoiseModel.uniform(2.0, 3.0)
U2228 = NoiseModel.uniform(2.2, 2.8)
EXTINCT = NoiseModel.uniform(0.5, 1.5)


def _measure(counts, total=None):
    counts = np.asarray(counts, dtype=np.int64)
    edges = np.linspace(0.0, 1.0, len(counts) + 1)
    return OccupationMeasure(
        bin_edges=edges, counts=counts, total=int(counts.sum()) if total is None else total
    )


class TestTvDistance:
    def test_identity(self):
        m = _measure([3, 5, 2])
        assert tv_distance(m, m) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(_measure([10, 0]), _measure([0, 7])) == 1.0

    def test_hand_value(self):
        # (1/2, 1/2) vs (1/4, 3/4): TV = 1/4
        assert tv_distance(_measure([2, 2]), _measure([1, 3])) == pytest.approx(0.25, abs=0)

    def test_metric_properties_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b, c = (_measure(rng.integers(0, 50, 16) + 1) for _ in range(3))
            dab, dba = tv_distance(a, b), tv_distance(b, a)
            assert dab == dba
            assert 0.0 <= dab <= 1.0
            assert tv_distance(a, c) <= dab + tv_distance(b, c) + 1e-15

    def test_zero_iff_equal_frequencies(self):
        a = _measure([2, 4])
        b = _measure([1, 2])  # same normalized frequencies
        assert tv_distance(a, b) == 0.0

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(_measure([1, 2]), _measure([1, 2, 3]))


class TestStability:
    def test_uniform_2_3_stable(self):
        cfg = SimConfig(master_seed=10, n_steps=100_000, n_replicates=2, burn_in=1000)
        report = stability_test(U23, (0.05, 0.5, 0.95), cfg)
        assert report.stable is True
        assert not report.advisory
        assert report.max_cross_tv <= 3.0 * report.noise_scale
        assert report.tv_matrix.shape == (3, 3)

    def test_atom_model_is_deterministic_and_stable(self):
        cfg = SimConfig(master_seed=11, n_steps=5000, n_replicates=1, burn_in=500)
        report = stability_test(NoiseModel(atoms=((2.5, 1.0),)), (0.2, 0.7), cfg)
        assert report.stable is True
        assert report.max_cross_tv == 0.0
        assert report.advisory  # hypotheses not verified for atomic noise

    def test_single_state_trivially_stable(self):
        cfg = SimConfig(master_seed=12, n_steps=20_000, n_replicates=1, burn_in=500)
        report = stability_test(U23, (0.4,), cfg)
        assert report.stable is True
        assert report.max_cross_tv == 0.0

    def test_verdict_invariant_under_reordering(self):
        cfg = SimConfig(master_seed=13, n_steps=50_000, n_replicates=2, burn_in=1000)
        fwd = stability_test(U23, (0.1, 0.5, 0.9), cfg)
        rev = stability_test(U23, (0.9, 0.5, 0.1), cfg)
        assert fwd.stable == rev.stable

    def test_absorption_withholds_verdict(self):
        cfg = SimConfig(master_seed=14, n_steps=30_000, n_replicates=1, burn_in=100)
        report = stability_test(EXTINCT, (0.5, 0.7), cfg)
        assert report.absorbed > 0
        assert report.stable is None

    def test_empty_measures_give_no_tv(self):
        # U[0.1, 0.2] stops every replicate long before step 1000, so no
        # ensemble keeps a state after the burn-in
        model = NoiseModel.uniform(0.1, 0.2)
        cfg = SimConfig(master_seed=1, n_steps=2000, n_replicates=1, burn_in=1000)
        report = stability_test(model, (0.5, 0.7), cfg)
        assert all(m.total == 0 for m in report.measures)
        assert report.stable is None and report.absorbed == 4
        assert np.isnan(report.noise_scale) and np.isnan(report.max_cross_tv)
        assert np.isnan(report.tv_matrix).all() and report.tv_matrix.shape == (2, 2)
        # with a short burn-in the same walk keeps states and gets its TVs
        short = stability_test(model, (0.5, 0.7), SimConfig(1, 2000, 1, burn_in=10))
        assert short.stable is None and short.absorbed == 4
        assert short.max_cross_tv >= 0.0 and short.noise_scale >= 0.0


class TestInvariantIntervalOccupation:
    def test_no_mass_escapes_invariant_interval(self):
        # bins strictly outside [a, b] must stay empty (boundary bins can
        # straddle the interval ends, so fractional estimates do not apply)
        for mu, nu in [(2.0, 3.0), (2.2, 2.8), (3.05, 3.35)]:
            a, b = invariant_interval(mu, nu)
            cfg = SimConfig(master_seed=18, n_steps=100_000, n_replicates=2, burn_in=1000)
            measure = ensemble_occupation(NoiseModel.uniform(mu, nu), 0.15, cfg)
            strictly_outside = (measure.bin_edges[1:] <= a) | (measure.bin_edges[:-1] >= b)
            assert measure.counts[strictly_outside].sum() == 0
            assert measure.underflow == measure.overflow == 0


class TestExtinction:
    CHECKPOINTS = (100, 1000, 10_000, 30_000)

    def test_subcritical_goes_extinct(self):
        report = extinction_test(EXTINCT, 0.5, self.CHECKPOINTS, 100, 1e-3, seed=20, stream_key=())
        assert report.final_fraction >= 0.9
        assert report.nondecreasing_within()

    def test_supercritical_survives(self):
        report = extinction_test(U23, 0.5, self.CHECKPOINTS, 100, 1e-3, seed=21, stream_key=())
        assert report.final_fraction == 0.0
        assert all(f == 0.0 for f in report.fractions)

    def test_boundary_case_theta_one(self):
        # X_{n+1} = X_n (1 - X_n) decays like 1/n: below 1e-3 by n = 10^4
        report = extinction_test(
            NoiseModel(atoms=((1.0, 1.0),)), 0.5, self.CHECKPOINTS, 50, 1e-3, seed=22, stream_key=()
        )
        assert report.fractions[-1] == 1.0
        assert report.nondecreasing_within()

    def test_opposite_verdicts_on_fixture_pair(self):
        ext = extinction_test(EXTINCT, 0.5, self.CHECKPOINTS, 100, 1e-3, seed=23, stream_key=())
        sur = extinction_test(U23, 0.5, self.CHECKPOINTS, 100, 1e-3, seed=23, stream_key=())
        assert ext.final_fraction >= 0.9
        assert sur.final_fraction == 0.0
        cfg = SimConfig(master_seed=24, n_steps=50_000, n_replicates=2, burn_in=1000)
        assert stability_test(U23, (0.2, 0.8), cfg).stable is True
        assert stability_test(EXTINCT, (0.2, 0.8), cfg).stable is not True

    @pytest.mark.parametrize("key", [(), (7,)])
    def test_replicate_reads_its_own_substream(self, key):
        # replicate i is the path from x0 on substream (seed, *key, i) walked
        # alone; it counts once it has stopped (absorbed) or lies below the
        # threshold.  By step 16000 some of the 12 replicates are absorbed.
        checkpoints, threshold = (50, 5000, 16_000, 20_000), 1e-3
        report = extinction_test(EXTINCT, 0.5, checkpoints, 12, threshold, 3, stream_key=key)
        paths = [
            joined_path(EXTINCT, 0.5, checkpoints[-1], substream(3, *key, i))[0]
            for i in range(12)
        ]
        assert any(len(v) <= 16_000 for v in paths)
        expected = [
            float(np.mean([len(v) <= c or v[c] < threshold for v in paths])) for c in checkpoints
        ]
        assert report.fractions == tuple(expected)

    def test_added_replicate_changes_no_other(self):
        # 101 replicates are the 100 plus one more: each count grows by 0 or 1
        checkpoints = (50, 1000, 16_000)
        a = extinction_test(EXTINCT, 0.5, checkpoints, 100, 1e-3, seed=3, stream_key=())
        b = extinction_test(EXTINCT, 0.5, checkpoints, 101, 1e-3, seed=3, stream_key=())
        for fa, fb in zip(a.fractions, b.fractions):
            assert round(fb * 101) - round(fa * 100) in (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            extinction_test(U23, 0.5, (), 10, 1e-3, seed=1, stream_key=())
        with pytest.raises(ValueError):
            extinction_test(U23, 0.5, (100, 50), 10, 1e-3, seed=1, stream_key=())
        with pytest.raises(ValueError, match="checkpoints must increase"):
            extinction_test(U23, 0.5, (100, 100), 10, 1e-3, seed=1, stream_key=())
        with pytest.raises(ValueError):
            extinction_test(U23, 0.5, (100,), 10, 1.5, seed=1, stream_key=())
        with pytest.raises(ValueError, match="n_replicates must be >= 1"):
            extinction_test(U23, 0.5, (100,), 0, 1e-3, seed=1, stream_key=())
        for x0 in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"x0 must lie in \(0, 1\)"):
                extinction_test(U23, x0, (100,), 10, 1e-3, seed=1, stream_key=())


class TestCyclicity:
    def test_noisy_period_two_window(self):
        model = NoiseModel.uniform(3.15, 3.25)
        report = cyclicity_detect(model, (0.75, 0.85), 200_000, 8, seed=30, x0=0.5, burn_in=1000)
        assert report.period == 2
        assert report.aperiodic is False
        # one residue class carries essentially all visits
        masses = np.array(report.residue_masses)
        assert masses.max() > 100 * max(masses.min(), 1e-12)

    def test_aperiodic_fixed_point_band(self):
        report = cyclicity_detect(
            U2228, (0.5455, 0.6428), 200_000, 8, seed=31, x0=0.5, burn_in=1000
        )
        assert report.period == 1
        assert report.aperiodic is True
        assert report.residue_masses[0] == pytest.approx(report.visit_frequency, abs=0)

    def test_deterministic_two_cycle(self):
        report = cyclicity_detect(
            NoiseModel(atoms=((3.2, 1.0),)), (0.79, 0.81), 50_000, 8, seed=32, x0=0.5, burn_in=1000
        )
        assert report.period == 2

    def test_deterministic_fixed_point_aperiodic(self):
        report = cyclicity_detect(
            NoiseModel(atoms=((2.5, 1.0),)), (0.55, 0.65), 50_000, 8, seed=35, x0=0.5, burn_in=1000
        )
        assert report.period == 1
        assert report.aperiodic is True

    def test_never_visited_inconclusive(self):
        report = cyclicity_detect(U23, (0.9, 0.95), 20_000, 8, seed=33, x0=0.5, burn_in=1000)
        assert report.inconclusive
        assert report.period is None
        assert report.n_visits == 0

    def test_validation(self):
        with pytest.raises(ValueError, match=r"x0 must lie in \(0, 1\)"):
            cyclicity_detect(U23, (0.5, 0.6), 1000, 4, seed=1, x0=1.5, burn_in=1000)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            cyclicity_detect(U23, (0.5, 0.6), -1, 4, seed=1, x0=0.5, burn_in=1000)
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            cyclicity_detect(U23, (0.5, 0.6), 1000, 4, seed=1, burn_in=-1, x0=0.5)
        for J in ((-3.0, 0.6), (0.6, 0.5), (0.5, 1.5), (0.0, 0.6), (0.5, 1.0)):
            with pytest.raises(ValueError, match="must be nondegenerate inside"):
                cyclicity_detect(U23, J, 1000, 4, seed=1, x0=0.5, burn_in=1000)

    def test_masses_sum_to_visit_frequency(self):
        model = NoiseModel.uniform(3.15, 3.25)
        report = cyclicity_detect(model, (0.75, 0.85), 100_000, 6, seed=34, x0=0.5, burn_in=1000)
        assert sum(report.residue_masses) == pytest.approx(report.visit_frequency, rel=1e-12)


class TestKolmogorov:
    def _config(self, bins, seed=42):
        return SimConfig(
            master_seed=seed, n_steps=200_000, n_replicates=1, burn_in=1000,
            initial_states=(0.3123,), n_bins=bins,
        )

    def test_concentrates_near_fixed_point(self):
        report = kolmogorov_approx(2.5, 0.05, self._config(200))
        # bins 110 .. 129 of 200 are (0.55, 0.65]
        assert report.noise_measure.frequencies[110:130].sum() > 0.99

    def test_small_tv_at_matching_bin_width(self):
        # bins comparable to the noise width: both measures share one bin
        report = kolmogorov_approx(2.5, 0.05, self._config(8))
        assert report.tv <= 0.05

    def test_support_widens_with_eta(self):
        def width(eta):
            rep = kolmogorov_approx(2.5, eta, self._config(200))
            freq = rep.noise_measure.frequencies
            cum = np.cumsum(freq)
            edges = rep.noise_measure.bin_edges
            return edges[np.searchsorted(cum, 0.995)] - edges[np.searchsorted(cum, 0.005)]

        widths = [width(eta) for eta in (0.02, 0.05, 0.1)]
        assert widths[0] < widths[1] < widths[2]

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            kolmogorov_approx(3.95, 0.1, self._config(100))
        with pytest.raises(DomainError):
            kolmogorov_approx(2.5, 0.0, self._config(100))
