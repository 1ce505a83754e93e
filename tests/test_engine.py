"""Tests for the Monte Carlo engine."""

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from randquad import engine
from randquad.diagnostics import (
    cyclicity_detect,
    extinction_test,
    kolmogorov_approx,
    stability_test,
)
from randquad.engine import (
    OccupationMeasure,
    SimConfig,
    Trajectory,
    _advance,
    _advance_lanes,
    _lane_draws,
    _walk,
    bin_states,
    ensemble_occupation,
    ensemble_occupations,
    merge_occupations,
    occupation_measure,
    simulate_trajectory,
)
from randquad.kernel import irreducibility_probe
from randquad.noise import NoiseModel, substream
from randquad.quadmap import invariant_interval

ATOM25 = NoiseModel.point_mass(2.5)
ATOM32 = NoiseModel.point_mass(3.2)
U23 = NoiseModel.uniform(2.0, 3.0)
EXTINCT = NoiseModel.uniform(0.5, 1.5)
ABSORBING = NoiseModel.uniform(0.5, 0.9)  # underflows after about 1900 steps

PERIOD2_LO = 0.5130445095326298
PERIOD2_HI = 0.7994554904673701


def block_end(step, rows):
    """Last step of the walk block holding step: FIRST_ROWS steps doubling up to rows."""
    end, m = 0, min(engine.FIRST_ROWS, rows)
    while end < step:
        end, m = end + m, min(2 * m, rows)
    return end


class TestSimulateTrajectory:
    def test_deterministic_fixed_point(self):
        traj = simulate_trajectory(ATOM25, 0.3, 200, seed=1)
        assert len(traj.values) == 201
        assert traj.values[0] == 0.3
        assert traj.values[-1] == pytest.approx(0.6, abs=1e-10)
        assert not traj.absorbed

    def test_deterministic_two_cycle_tail(self):
        traj = simulate_trajectory(ATOM32, 0.3, 5000, seed=1)
        tail = traj.values[-2:]
        assert sorted(tail) == pytest.approx([PERIOD2_LO, PERIOD2_HI], abs=1e-9)

    def test_same_seed_bitwise_identical(self):
        a = simulate_trajectory(U23, 0.4, 1000, seed=42)
        b = simulate_trajectory(U23, 0.4, 1000, seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.epsilons, b.epsilons)

    def test_epsilons_reproduce_states(self):
        traj = simulate_trajectory(U23, 0.4, 50, seed=5)
        x = 0.4
        for eps, nxt in zip(traj.epsilons, traj.values[1:]):
            x = eps * x * (1.0 - x)
            assert x == nxt

    def test_underflow_absorbs(self):
        # deterministic subcritical map: x_n ~ 0.5^n underflows to exactly 0
        traj = simulate_trajectory(NoiseModel.point_mass(0.5), 0.5, 2000, seed=0)
        assert traj.absorbed
        assert traj.values[-1] == 0.0
        assert len(traj.values) < 2001

    def test_states_stay_inside(self):
        traj = simulate_trajectory(U23, 0.7, 10_000, seed=9)
        assert np.all(traj.values > 0.0)
        assert np.all(traj.values < 1.0)


class TestBinStates:
    def test_right_closed_tie_break(self):
        edges = np.linspace(0.0, 1.0, 11)
        counts, under, over = bin_states(np.array([0.2]), edges)
        # 0.2 is an edge: it belongs to the bin that ends at 0.2, index 1
        assert counts[1] == 1
        assert counts.sum() == 1

    def test_boundary_guards(self):
        edges = np.linspace(0.0, 1.0, 5)
        counts, under, over = bin_states(np.array([0.0, 1.0, 0.3]), edges)
        assert under == 1 and over == 1
        assert counts.sum() == 1

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            bin_states(np.array([0.5]), np.array([0.1, 0.5, 1.0]))


def searchsorted_bins(values, edges):
    """Reference binning: searchsorted over the edges, right-closed bins."""
    values = np.asarray(values, dtype=float)
    interior = values[(values > 0.0) & (values < 1.0)]
    idx = np.searchsorted(edges, interior, side="left") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return counts, int(np.count_nonzero(values <= 0.0)), int(np.count_nonzero(values >= 1.0))


class TestUniformBinning:
    """Uniform edges are binned arithmetically, with the searchsorted result."""

    @staticmethod
    def probes(edges):
        """States on every interior edge and one ulp to either side of it."""
        inner = edges[1:-1]
        return inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)

    @pytest.mark.parametrize("bins", [1, 3, 7, 10, 49, 200, 1000, 4096])
    def test_matches_searchsorted_on_edges_and_neighbours(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        states = substream(127, bins).random(20_000)
        # each probe set alone, so opposite misplacements cannot cancel in counts
        for values in (*self.probes(edges), states, np.array([0.0, 1.0, 0.5, 0.0]),
                       np.array([0.25, np.nan, 0.75])):
            counts, under, over = bin_states(values, edges)
            ref_counts, ref_under, ref_over = searchsorted_bins(values, edges)
            assert np.array_equal(counts, ref_counts)
            assert (under, over) == (ref_under, ref_over)

    @pytest.mark.parametrize("bins", [3, 10, 200])
    @pytest.mark.parametrize("ulps", [-3, -1, 1, 3])
    def test_index_correction_both_ways(self, bins, ulps):
        # linspace edges never need the upward comparison (checked for every
        # bin count up to 20000), so move every interior edge a few ulps to
        # make floor(v * B) miss on both sides and check each state's index
        edges = np.linspace(0.0, 1.0, bins + 1)
        for _ in range(abs(ulps)):
            edges[1:-1] = np.nextafter(edges[1:-1], np.sign(ulps))
        states = np.concatenate([*self.probes(edges), substream(129).random(5000)])
        expected = np.searchsorted(edges, states, side="left") - 1
        assert np.array_equal(engine._uniform_bin_index(states, edges), expected)

    def test_each_edge_goes_to_the_bin_it_ends(self):
        edges = np.linspace(0.0, 1.0, 201)
        for i, (on, below, above) in enumerate(zip(*self.probes(edges))):
            for value, expected in ((on, i), (below, i), (above, i + 1)):
                counts, _, _ = bin_states(np.array([value]), edges)
                assert counts[expected] == 1, (i, value)

    @pytest.mark.parametrize(
        "edges, uniform",
        [
            (np.linspace(0.0, 1.0, 201), True),
            (np.array([0.0, 0.1, 0.5, 0.55, 1.0]), False),
            (np.linspace(0.0, 1.0, 11) ** 2, False),
            # one edge one ulp away from linspace is not uniform
            (np.linspace(0.0, 1.0, 11) + np.eye(11)[3] * np.spacing(0.3), False),
        ],
    )
    def test_only_nonuniform_edges_search(self, monkeypatch, edges, uniform):
        calls = []
        search = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        values = np.concatenate([substream(128).random(5000), edges, np.nextafter(edges, 0.5)])
        expected = searchsorted_bins(values, edges)
        monkeypatch.setattr(np, "searchsorted", counted)
        counts, under, over = bin_states(values, edges)
        assert len(calls) == (0 if uniform else 1)
        assert np.array_equal(counts, expected[0]) and (under, over) == expected[1:]


class TestOccupationMeasure:
    def test_constant_trajectory_single_bin(self):
        traj = Trajectory(
            values=np.full(101, 0.5), epsilons=np.full(100, 2.0), absorbed=False
        )
        m = occupation_measure(traj, np.linspace(0, 1, 101), burn_in=0)
        assert m.total == 100
        # 0.5 sits on an edge; the right-closed convention puts it in bin 49
        assert m.counts[49] == 100

    def test_two_cycle_half_mass_each(self):
        traj = simulate_trajectory(ATOM32, 0.3, 10_000, seed=1)
        m = occupation_measure(traj, np.linspace(0, 1, 201), burn_in=100)
        busy = np.nonzero(m.counts)[0]
        assert len(busy) == 2
        assert abs(m.counts[busy[0]] - m.counts[busy[1]]) <= 1

    def test_merge_additivity(self):
        edges = np.linspace(0, 1, 51)
        t1 = simulate_trajectory(U23, 0.2, 500, seed=7)
        t2 = simulate_trajectory(U23, 0.8, 500, seed=8)
        m1 = occupation_measure(t1, edges, 10)
        m2 = occupation_measure(t2, edges, 10)
        merged = merge_occupations([m1, m2])
        assert merged.total == m1.total + m2.total
        assert np.array_equal(merged.counts, m1.counts + m2.counts)

    def test_merge_rejects_mismatched_bins(self):
        t = simulate_trajectory(U23, 0.2, 100, seed=7)
        m1 = occupation_measure(t, np.linspace(0, 1, 11), 0)
        m2 = occupation_measure(t, np.linspace(0, 1, 21), 0)
        with pytest.raises(ValueError):
            merge_occupations([m1, m2])

    def test_guard_invariant(self):
        with pytest.raises(ValueError):
            OccupationMeasure(
                bin_edges=np.linspace(0, 1, 3),
                counts=np.array([1, 1]),
                total=5,
            )

    def test_mass_in_fractional_overlap(self):
        m = OccupationMeasure(
            bin_edges=np.linspace(0.0, 1.0, 5),
            counts=np.array([0, 4, 4, 0]),
            total=8,
        )
        # half of bin (0.25, 0.5] overlaps (0.375, 0.5)
        assert m.mass_in((0.375, 0.75)) == pytest.approx(0.75, abs=1e-12)

    def test_mass_in_whole_unit_interval(self):
        m = OccupationMeasure(
            bin_edges=np.linspace(0.0, 1.0, 5),
            counts=np.array([1, 4, 2, 0]),
            total=8,
            underflow=1,
        )
        assert m.mass_in((0.0, 1.0)) == pytest.approx(7 / 8, abs=1e-12)
        assert m.mass_in((0.0, 0.25)) == pytest.approx(1 / 8, abs=1e-12)
        for interval in ((-0.1, 0.5), (0.5, 1.1), (0.5, 0.5)):
            with pytest.raises(ValueError, match=r"must be nondegenerate inside \[0, 1\]"):
                m.mass_in(interval)


class TestEnsemble:
    def test_single_replicate_reduces_to_trajectory(self):
        cfg = SimConfig(master_seed=77, n_steps=5000, n_replicates=1, burn_in=100)
        ens = ensemble_occupation(U23, 0.3, cfg)
        traj = simulate_trajectory(U23, 0.3, 5000, substream(77, 0))
        direct = occupation_measure(traj, cfg.bin_edges, 100)
        assert np.array_equal(ens.counts, direct.counts)
        assert ens.total == direct.total

    def test_merge_equals_sum_of_singles(self):
        cfg = SimConfig(master_seed=13, n_steps=2000, n_replicates=4, burn_in=50)
        ens = ensemble_occupation(U23, 0.3, cfg)
        singles = []
        for i in range(4):
            traj = simulate_trajectory(U23, 0.3, 2000, substream(13, i))
            singles.append(occupation_measure(traj, cfg.bin_edges, 50))
        assert np.array_equal(ens.counts, merge_occupations(singles).counts)

    def test_fixed_point_mass_in_one_bin(self):
        # 64 bins keep 0.6 strictly inside a bin; at bin counts where 0.6 is
        # an edge the converged orbit straddles it by one ulp
        cfg = SimConfig(master_seed=3, n_steps=2000, n_replicates=3, burn_in=200, n_bins=64)
        ens = ensemble_occupation(ATOM25, 0.3, cfg)
        densest = np.argmax(ens.counts)
        edges = cfg.bin_edges
        assert edges[densest] < 0.6 <= edges[densest + 1]
        assert ens.counts[densest] == ens.total

    def test_absorbed_replicates_flagged(self):
        cfg = SimConfig(master_seed=21, n_steps=50_000, n_replicates=3, burn_in=10)
        ens = ensemble_occupation(NoiseModel.point_mass(0.5), 0.5, cfg)
        assert ens.absorbed == 3
        assert ens.underflow == 3  # the absorbing zero of each replicate


class TestEnsembleGroups:
    CFG = SimConfig(master_seed=31, n_steps=3000, n_replicates=3, burn_in=200, n_bins=60)
    STARTS = (0.05, 0.5, 0.95, 0.5, 0.5)
    KEYS = [(0,), (1,), (2,), (9, 0), (9, 1)]

    @pytest.mark.parametrize("model", [U23, ABSORBING], ids=["U23", "absorbing"])
    def test_groups_equal_separate_ensembles(self, model):
        together = ensemble_occupations(model, self.STARTS, self.CFG, self.KEYS)
        assert len(together) == 5
        for x0, key, m in zip(self.STARTS, self.KEYS, together):
            alone = ensemble_occupation(model, x0, self.CFG, key)
            assert np.array_equal(m.counts, alone.counts)
            assert (m.total, m.underflow, m.overflow, m.absorbed) == (
                alone.total, alone.underflow, alone.overflow, alone.absorbed)

    @pytest.mark.parametrize("starts, keys", [((0.3, 0.4), [(0,)]), ((), [])])
    def test_one_key_per_start(self, starts, keys):
        with pytest.raises(ValueError, match="one stream key per start"):
            ensemble_occupations(U23, starts, self.CFG, keys)


class RecordingPool:
    """Stands in for the fork pool: records the size asked for and runs the shards in-process."""

    def __init__(self, sizes, workers):
        sizes.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def fields(measures):
    return [(m.counts.tobytes(), m.total, m.underflow, m.overflow, m.absorbed) for m in measures]


class TestEnsembleWorkers:
    """Sharding the lanes across forked workers changes no field of any measure."""

    # 5 groups of 3 replicates: 2, 3 and 4 shards of 15 lanes all cut inside a group
    STARTS = (0.05, 0.5, 0.95, 0.3, 0.3)
    KEYS = [(0,), (1,), (2,), (9, 0), (9, 1)]

    @pytest.mark.parametrize("model", [U23, EXTINCT], ids=["U23", "extinct"])
    def test_workers_give_the_same_measures(self, monkeypatch, model):
        # lift the CPU cap so that 3 and 4 shards really fork on a 2-core host
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)
        cfg = SimConfig(master_seed=1, n_steps=20_000, n_replicates=3, burn_in=200, n_bins=60)
        one = ensemble_occupations(model, self.STARTS, cfg, self.KEYS)
        if model is EXTINCT:  # absorbed lanes add underflow and absorbed counts
            assert all(m.absorbed > 0 and m.underflow > 0 for m in one)
        for w in (1, 2, 3, 4):
            sharded = ensemble_occupations(model, self.STARTS, cfg, self.KEYS, w)
            assert fields(sharded) == fields(one)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "starts, workers, cpus, asked",
        [
            ((0.3, 0.4, 0.5), 4, 8, [3]),  # capped at 3 lanes
            ((0.3, 0.4, 0.5), 100_000, 2, [2]),  # capped at 2 CPUs
            ((0.3, 0.4, 0.5), 100_000, 1, []),  # one CPU: no pool at all
            ((0.3,), 4, 8, []),  # one lane: no pool at all
            ((0.3, 0.4, 0.5), 2, 8, [2]),
        ],
    )
    def test_worker_count_is_capped(self, monkeypatch, starts, workers, cpus, asked):
        sizes = []
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(engine, "_pool", lambda w: RecordingPool(sizes, w))
        cfg = SimConfig(master_seed=2, n_steps=500, burn_in=10, n_bins=20)
        keys = [(i,) for i in range(len(starts))]
        found = ensemble_occupations(U23, starts, cfg, keys, workers)
        assert sizes == asked
        assert fields(found) == fields(ensemble_occupations(U23, starts, cfg, keys))

    def test_shard_builds_only_its_own_generators(self, monkeypatch):
        # 4 groups of 5 replicates; lanes 4..7 are replicate 4 of group 0 and 0..2 of group 1
        starts, keys = (0.2, 0.4, 0.6, 0.8), [(0,), (1,), (2,), (3,)]
        cfg = SimConfig(master_seed=3, n_steps=3000, n_replicates=5, burn_in=100, n_bins=40)
        rngs = [substream(3, *keys[i // 5], i % 5) for i in range(4, 8)]
        walk = _walk([starts[i // 5] for i in range(4, 8)], cfg.n_steps, _lane_draws(U23, rngs))
        expected = engine._occupations(walk, cfg.burn_in, cfg.bin_edges, [1, 3])
        built = []
        monkeypatch.setattr(engine, "substream", lambda *key: built.append(key) or substream(*key))
        found = engine._shard_occupations(U23, starts, cfg, keys, 4, 8)
        assert built == [(3, 0, 4), (3, 1, 0), (3, 1, 1), (3, 1, 2)]
        assert fields(found) == fields(expected)

    def test_workers_below_one_rejected(self):
        cfg = SimConfig(master_seed=2, n_steps=500, burn_in=10)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ensemble_occupations(U23, (0.3,), cfg, [(0,)], 0)

    def test_usable_cpus_follow_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert engine._usable_cpus() == len(os.sched_getaffinity(0))
        assert engine._usable_cpus() >= 1

    @staticmethod
    def fail():
        raise FloatingPointError("walk failed in a worker")

    @staticmethod
    def die():  # as if the OS killed the worker for memory
        os.kill(os.getpid(), signal.SIGKILL)

    @pytest.mark.parametrize(
        "fault, error", [(fail, FloatingPointError), (die, BrokenProcessPool)], ids=["raise", "kill"]
    )
    def test_worker_fault_reaches_the_caller(self, monkeypatch, fault, error):
        parent, walk = os.getpid(), engine._walk

        def broken(*args, **kwargs):
            if os.getpid() != parent:
                fault()
            return walk(*args, **kwargs)

        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_walk", broken)
        cfg = SimConfig(master_seed=2, n_steps=500, burn_in=10)
        with pytest.raises(error):
            ensemble_occupations(U23, (0.3, 0.6), cfg, [(0,), (1,)], 2)
        assert multiprocessing.active_children() == []


class TestStartStates:
    @pytest.mark.parametrize("x0", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_every_walk_consumer_rejects_start_outside_unit_interval(self, x0):
        cfg = SimConfig(master_seed=1, n_steps=100, burn_in=10)
        calls = [
            lambda: simulate_trajectory(U23, x0, 10, seed=1),
            lambda: ensemble_occupation(U23, x0, cfg),
            lambda: irreducibility_probe(U23, x0, (0.4, 0.6), 10, 3, seed=1),
            lambda: extinction_test(U23, x0, (5,), 3, 1e-3, seed=1),
            lambda: cyclicity_detect(U23, (0.4, 0.6), 10, 4, seed=1, x0=x0, burn_in=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"x0 must lie in \(0, 1\)"):
                call()


class TestClosure:
    @pytest.mark.parametrize("mu,nu", [(2.0, 3.0), (2.2, 2.8), (3.05, 3.35)])
    def test_invariant_interval_traps_orbit(self, mu, nu):
        a, b = invariant_interval(mu, nu)
        traj = simulate_trajectory(NoiseModel.uniform(mu, nu), 0.11, 1_000_000, seed=17)
        values = traj.values
        assert np.all(values > 0.0) and np.all(values < 1.0)
        inside = (values >= a - 1e-12) & (values <= b + 1e-12)
        first = np.argmax(inside)
        assert inside[first]  # entered at least once
        assert np.all(inside[first:])


class TestAdvanceKernel:
    def test_jit_and_pure_python_paths_agree(self):
        # when numba is present the pure-python original is kept as py_func;
        # both must produce bitwise-identical states
        py = getattr(_advance, "py_func", None)
        if py is None:
            pytest.skip("numba not installed; only one code path exists")
        rng = substream(123)
        eps = U23.sample(rng, size=10_000)
        out_a = np.empty(len(eps))
        out_b = np.empty(len(eps))
        _advance(0.37, eps, out_a)
        py(0.37, eps, out_b)
        assert np.array_equal(out_a, out_b)

    def test_states_through_underflow_agree(self):
        py = getattr(_advance, "py_func", None)
        if py is None:
            pytest.skip("numba not installed; only one code path exists")
        eps = np.full(3000, 0.5)
        out_a = np.empty(len(eps))
        out_b = np.empty(len(eps))
        _advance(0.5, eps, out_a)
        py(0.5, eps, out_b)
        assert out_a[-1] == 0.0
        assert np.array_equal(out_a.view(np.int64), out_b.view(np.int64))


def numpy_advance(x, eps, out):
    """Reference recurrence: the array kernel's loop, stepping numpy scalars or rows."""
    for k in range(eps.shape[0]):
        x = eps[k] * x * (1.0 - x)
        out[k] = x


def walked(starts, n, draws):
    """Each lane's valid states, concatenated over the blocks of one walk."""
    paths = [[] for _ in starts]
    for _, _, states, valid in _walk(starts, n, draws):
        for j, path in enumerate(paths):
            path.append(states[: valid[j], j].copy())
    return [np.concatenate(p) for p in paths]


def given_draws(columns):
    """Draw filler that hands lane j the next rows of columns[:, j], counting what each lane drew."""
    drawn = np.zeros(columns.shape[1], dtype=np.int64)

    def draws(eps, live):
        for j in live:
            eps[:, j] = columns[drawn[j] : drawn[j] + len(eps), j]
            drawn[j] += len(eps)

    return draws, drawn


def stopped_reference(x0, eps):
    """One lane's numpy-scalar states up to its first below ABSORB_FLOOR (recorded as 0) or at 1."""
    states = np.empty(len(eps))
    numpy_advance(x0, eps, states)
    stops = np.flatnonzero((states < engine.ABSORB_FLOOR) | (states == 1.0))
    if len(stops):
        states = states[: stops[0] + 1]
        states[-1] = 0.0 if states[-1] < engine.ABSORB_FLOOR else states[-1]
    return states


class WalkStopCases:
    """Stop cases of `_walk`, run with the kernel that MIN_LANES = min_lanes picks.

    Whichever kernel computed the states, the walk records a state below
    ABSORB_FLOOR as exactly 0 and stops the lane at its first 0 or 1, at
    any row of a block, and the lane draws nothing after that block.
    """

    min_lanes: int

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        monkeypatch.setattr(engine, "MIN_LANES", self.min_lanes)

    def walk(self, x0, eps):
        """The one lane's valid states and the parameters it drew, walking len(eps) steps."""
        draws, drawn = given_draws(eps[:, None])
        (path,) = walked((x0,), len(eps), draws)
        return path, drawn[0]

    def test_absorption_recorded_as_zero(self):
        # underflow mid-block, in the block of steps 1009..2032
        eps = np.full(3000, 0.5)
        path, drawn = self.walk(0.5, eps)
        assert np.array_equal(path.view(np.int64), stopped_reference(0.5, eps).view(np.int64))
        assert path[-1] == 0.0 and 0.0 < path[-2] < 1e-300
        assert drawn == block_end(len(path), engine.CHUNK) < len(eps)

    def test_reaching_one_stops(self):
        # eps = 4 maps 0.5 to 1 at the first row of the first block
        path, drawn = self.walk(0.5, np.array([4.0] + [3.0] * 99))
        assert path.tolist() == [1.0] and drawn == engine.FIRST_ROWS

    def test_absorption_at_first_step(self):
        # a subnormal first state is recorded as exactly 0
        path, drawn = self.walk(3e-308, np.array([0.5] + [3.0] * 99))
        assert path.tolist() == [0.0] and drawn == engine.FIRST_ROWS

    def test_absorption_at_last_row(self, monkeypatch):
        eps = np.full(3000, 0.5)
        ref = stopped_reference(0.5, eps)
        # the first block ends at the absorbing step, so valid equals its row count
        monkeypatch.setattr(engine, "FIRST_ROWS", len(ref))
        monkeypatch.setattr(engine, "CHUNK", len(ref))
        path, drawn = self.walk(0.5, eps)
        assert np.array_equal(path.view(np.int64), ref.view(np.int64))
        assert path[-1] == 0.0 and drawn == len(ref)

    def test_reaching_one_mid_block(self):
        # 0.5 is fixed under eps = 2, then eps = 4 maps it to 1 at step 51,
        # the third row of the third block (steps 49..100)
        eps = np.array([2.0] * 50 + [4.0] + [3.0] * 49)
        path, drawn = self.walk(0.5, eps)
        assert np.all(path[:50] == 0.5) and path[50] == 1.0 and len(path) == 51
        assert np.array_equal(path, stopped_reference(0.5, eps))
        assert drawn == len(eps)

    def test_strided_column_absorbs(self):
        # the middle lane of three absorbs; the others run to the end
        eps = ABSORBING.sample(substream(127), 3 * 3000).reshape(3000, 3)
        eps[:, [0, 2]] = 2.5
        draws, _ = given_draws(eps)
        paths = walked((0.3, 0.4, 0.5), len(eps), draws)
        for j, x0 in enumerate((0.3, 0.4, 0.5)):
            assert np.array_equal(paths[j], stopped_reference(x0, eps[:, j].copy()))
        assert paths[1][-1] == 0.0 and len(paths[1]) < len(eps)
        assert len(paths[0]) == len(paths[2]) == len(eps)


class TestScalarKernel(WalkStopCases):
    """`_advance`, compiled or on Python floats, equals a numpy-scalar loop bit for bit.

    The stop cases walk every lane with this kernel.
    """

    min_lanes = 10**9

    # column lengths at the pure-Python kernel's piece boundaries
    P = engine.PIECE
    EDGES = [1, P - 1, P, P + 1, 3 * P + 5]

    def test_matches_numpy_scalars_over_many_steps(self):
        models = ((U23, 0.37), (NoiseModel.uniform(3.5, 3.99), 0.9), (ATOM32, 0.1))
        for n in self.EDGES + [1 << 17]:
            for model, x0 in models:
                eps = model.sample(substream(125), n)
                # one NaN past each end: the kernel writes exactly its n states
                out, ref = np.full(n + 2, np.nan), np.empty(n)
                _advance(x0, eps, out[1:-1])
                numpy_advance(x0, eps, ref)
                assert np.array_equal(out[1:-1], ref)
                assert np.isnan(out[0]) and np.isnan(out[-1])

    def test_empty_block(self):
        out = np.empty(0)
        _advance(0.5, np.empty(0), out)
        assert out.shape == (0,)
        eps, out = np.empty((0, 3)), np.empty((0, 3))  # a strided column of an empty block
        _advance(0.5, eps[:, 1], out[:, 1])

    def test_strided_columns(self):
        # a column of a (steps, lanes) walk buffer, as `_walk` passes it
        for n in self.EDGES + [70_000]:
            eps = U23.sample(substream(126), 3 * n).reshape(n, 3)
            out = np.full(eps.shape, np.nan)
            _advance(0.2, eps[:, 1], out[:, 1])
            ref = np.empty(n)
            numpy_advance(0.2, eps[:, 1].copy(), ref)
            assert np.array_equal(out[:, 1], ref)
            assert np.all(np.isnan(out[:, [0, 2]]))

    def test_compiled_exactly_when_numba_is_installed(self):
        import importlib.util

        numba = importlib.util.find_spec("numba") is not None
        assert hasattr(_advance, "py_func") == numba
        assert hasattr(_advance_lanes, "py_func") == numba


class TestLaneKernel(WalkStopCases):
    """`_advance_lanes` equals the row expression bit for bit; the stop cases walk rows."""

    min_lanes = 1

    def test_matches_row_expression_in_four_regimes(self):
        # five lanes each over 5,000 steps: stable, chaotic, underflowing
        # through subnormals to 0, and reaching 1 at the first step, then 0
        steps, regimes = 5000, ((U23, 0.3), (NoiseModel.uniform(3.5, 3.99), 0.6),
                                (NoiseModel.uniform(0.3, 0.9), 0.4), (U23, 0.5))
        eps = np.column_stack([model.sample(substream(41, r, j), steps)
                               for r, (model, _) in enumerate(regimes) for j in range(5)])
        eps[0, 15:] = 4.0
        x0 = np.array([x + (0.01 * j if x != 0.5 else 0.0) for _, x in regimes for j in range(5)])
        out = np.full_like(eps, np.nan)
        ref = np.full_like(eps, np.nan)
        _advance_lanes(x0.copy(), eps, out)
        numpy_advance(x0.copy(), eps, ref)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        under, one = out[:, 10:15], out[:, 15:]
        assert np.all(under[-1] == 0.0) and np.any((under > 0.0) & (under < 2.3e-308))
        assert np.all(one[0] == 1.0) and np.all(one[1:] == 0.0)
        assert np.all((out[:, :10] > 0.0) & (out[:, :10] < 1.0))

    def test_columns_match_scalar_kernel(self):
        # lanes on different models, so the columns run through different regimes
        models = [U23, NoiseModel.uniform(3.5, 3.99), ATOM32, NoiseModel.uniform(1.0, 2.0)]
        eps = np.column_stack([m.sample(substream(40, j), 5000) for j, m in enumerate(models)])
        x0 = np.array([0.11, 0.5, 0.73, 0.999])
        out = np.empty_like(eps)
        _advance_lanes(x0.copy(), eps, out)
        for j in range(len(models)):
            alone = np.empty(len(eps))
            _advance(x0[j], eps[:, j].copy(), alone)
            assert np.array_equal(out[:, j], alone), j

    def test_jit_and_pure_python_paths_agree(self):
        py = getattr(_advance_lanes, "py_func", None)
        if py is None:
            pytest.skip("numba not installed; only one code path exists")
        eps = U23.sample(substream(124), 7 * 3000).reshape(3000, 7)
        x0 = np.linspace(0.05, 0.95, 7)
        out_a = np.empty_like(eps)
        out_b = np.empty_like(eps)
        _advance_lanes(x0.copy(), eps, out_a)
        py(x0.copy(), eps, out_b)
        assert np.array_equal(out_a, out_b)


class TestLaneWalk:
    STARTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)

    def lanes(self, starts, n, keys):
        """Each lane's valid states over one walk, and the parameters each lane drew."""
        counted = [0] * len(starts)
        fill = engine._lane_draws(ABSORBING, [substream(50, k) for k in keys])

        def draws(eps, live):
            for j in live:
                counted[j] += len(eps)
            fill(eps, live)

        return walked(starts, n, draws), counted

    # MIN_LANES = 6 walks the eight lanes as numpy rows and each lane alone
    # with the scalar kernel, MIN_LANES = 10**9 walks all eight with the
    # scalar kernel; at 50 lane-steps (6 rows) per block the lanes stop in
    # different blocks
    CASES = [(engine.CHUNK, 6), (997, 6), (50, 6), (50, 10**9)]

    @pytest.mark.parametrize("chunk, min_lanes", CASES)
    def test_lanes_absorb_apart_and_match_single_walks(self, monkeypatch, chunk, min_lanes):
        # FIRST_ROWS above every block size: each block has the full rows from the start
        monkeypatch.setattr(engine, "FIRST_ROWS", 10**9)
        self.check_lanes(monkeypatch, chunk, min_lanes)

    @pytest.mark.parametrize("chunk, min_lanes", CASES)
    def test_growing_walk_lanes_absorb_apart_and_match_single_walks(
        self, monkeypatch, chunk, min_lanes
    ):
        # the default schedule: FIRST_ROWS steps, doubling up to the full rows
        self.check_lanes(monkeypatch, chunk, min_lanes)

    def check_lanes(self, monkeypatch, chunk, min_lanes):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        monkeypatch.setattr(engine, "MIN_LANES", min_lanes)
        n = 5000
        together, drawn = self.lanes(self.STARTS, n, range(len(self.STARTS)))
        lengths = [len(p) for p in together]
        assert len(set(lengths)) == len(lengths)  # every lane stops at its own step
        rows = max(1, chunk // len(self.STARTS))
        for j, (x0, path) in enumerate(zip(self.STARTS, together)):
            (alone,), _ = self.lanes((x0,), n, [j])
            assert np.array_equal(path, alone)
            assert len(path) < n and path[-1] == 0.0 and np.all(path[:-1] > 0.0)
            # a stopped lane draws nothing after the block in which it stopped
            assert drawn[j] == min(n, block_end(len(path), rows))


class TestEarlyExit:
    """A reduction that stops after a few steps draws little past its stop."""

    def counted_draws(self, monkeypatch, rows=None):
        """Parameters drawn through the walks' lane-draw entry, one entry per block."""
        drawn = []
        sample_lanes = NoiseModel.sample_lanes

        def counted(model, rngs, live, out, buf):
            drawn.append(len(live) * len(out))
            if rows is not None:
                rows.append(len(out))
            return sample_lanes(model, rngs, live, out, buf)

        monkeypatch.setattr(NoiseModel, "sample_lanes", counted)
        return drawn

    def test_irreducibility_probe_draws_near_its_entry_step(self, monkeypatch):
        drawn = self.counted_draws(monkeypatch)
        n_paths = 200
        # from far below J the map climbs for a while before any path enters
        entry = irreducibility_probe(
            NoiseModel.uniform(2.2, 2.8), 1e-6, (0.5455, 0.6428), 1000, n_paths, seed=20240
        )
        assert entry == 15
        assert 0 < sum(drawn) <= 2 * n_paths * max(entry, engine.FIRST_ROWS)

    def test_one_path_probe_draws_near_its_entry_step(self, monkeypatch):
        drawn = self.counted_draws(monkeypatch)
        step = irreducibility_probe(U23, 0.01, (0.55, 0.7), 50_000, 1, seed=5)
        assert step is not None and step < 100
        assert 0 < sum(drawn) <= 2 * max(step, engine.FIRST_ROWS)

    def test_walks_that_run_to_the_end_double_up_to_full_blocks(self, monkeypatch):
        rows = []
        drawn = self.counted_draws(monkeypatch, rows)
        extinction_test(U23, 0.5, (3000, 30_000), 8, 1e-3, seed=1)
        doubling = [engine.FIRST_ROWS << k for k in range(10)]
        full = engine.CHUNK // 8
        assert doubling[-1] == full
        assert rows == doubling + [full, 30_000 - sum(doubling) - full]
        assert sum(drawn) == 8 * 30_000


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, n_steps=100, burn_in=100)
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, n_steps=100, burn_in=10, n_replicates=0)
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, n_steps=100, burn_in=10, initial_states=(1.5,))
        with pytest.raises(ValueError, match="initial_states is empty"):
            SimConfig(master_seed=1, n_steps=100, burn_in=10, initial_states=())

    def test_bin_edges(self):
        cfg = SimConfig(master_seed=1, n_steps=100, burn_in=10, n_bins=4)
        assert np.array_equal(cfg.bin_edges, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


class TestChunkInvariance:
    """Every path consumer gives identical results at any internal chunk size.

    An odd chunk of 997 lane-steps puts block boundaries inside the burn-in,
    between visits and just before absorption; a chunk of 3, fewer lane-steps
    than most walks have lanes, walks one step per block.  The default chunk
    holds most walks in one block.
    """

    def consumers(self):
        cfg = SimConfig(master_seed=9, n_steps=4000, n_replicates=3, burn_in=1500, n_bins=50)
        small = SimConfig(master_seed=4, n_steps=3000, n_replicates=2, burn_in=1000, n_bins=40)
        traj = simulate_trajectory(U23, 0.3, 5000, seed=1)
        dead = simulate_trajectory(ABSORBING, 0.3, 5000, seed=1)
        ens = ensemble_occupation(U23, 0.4, cfg)
        ens_dead = ensemble_occupation(ABSORBING, 0.4, cfg)
        cyc = cyclicity_detect(
            NoiseModel.uniform(3.15, 3.25), (0.6, 0.9), 6000, 6, seed=2, x0=0.3, burn_in=1500
        )
        kol = kolmogorov_approx(3.9, 0.01, small)
        stab = stability_test(U23, (0.05, 0.5, 0.95), small)
        groups = ensemble_occupations(ABSORBING, (0.2, 0.6), cfg, [(0,), (1,)])
        # EXTINCT lanes absorb between steps 13525 and 18001 (seed 1; lane 3
        # at 14842), so the late checkpoints and the first entry at 14967 fall
        # after absorptions inside blocks, and a tiny threshold tells absorbed
        # lanes from live ones; 8 lanes step as rows, 4 run the scalar loop
        late = (100, 14_000, 16_000, 20_000)
        floor = (1e-300, 1.01e-300)
        return {
            "trajectory": (traj.values.tobytes(), traj.epsilons.tobytes(), traj.absorbed),
            "absorbed trajectory": (dead.values.tobytes(), dead.epsilons.tobytes(), dead.absorbed),
            "ensemble": (ens.counts.tobytes(), ens.total, ens.underflow, ens.absorbed),
            "absorbed ensemble": (ens_dead.counts.tobytes(), ens_dead.total,
                                  ens_dead.underflow, ens_dead.absorbed),
            "one-path irreducibility": irreducibility_probe(U23, 0.01, (0.7, 0.7001), 50_000, 1,
                                                            seed=5),
            "cyclicity": (cyc.period, cyc.residue_masses, cyc.concentration_by_d, cyc.n_visits),
            "kolmogorov": (kol.tv, kol.noise_measure.counts.tobytes(),
                           kol.deterministic_measure.counts.tobytes()),
            "stability": (stab.tv_matrix.tobytes(), stab.noise_scale, stab.stable,
                          [m.counts.tobytes() for m in stab.measures]),
            "absorbed ensemble groups": [(m.counts.tobytes(), m.total, m.underflow, m.absorbed)
                                         for m in groups],
            "extinction": [extinction_test(EXTINCT, 0.5, late, r, 1e-300, seed=1).fractions
                           for r in (8, 4)],
            "irreducibility": [irreducibility_probe(EXTINCT, 0.5, floor, 30_000, r, seed=1)
                               for r in (8, 4)],
        }

    def check_chunk(self, monkeypatch, chunk):
        # walks of 6 or more lanes step as numpy rows, so both kernels see
        # every block layout
        monkeypatch.setattr(engine, "MIN_LANES", 6)
        default = self.consumers()
        assert default["absorbed trajectory"][2] and default["absorbed ensemble"][3] == 3
        assert [g[3] for g in default["absorbed ensemble groups"]] == [3, 3]
        assert default["stability"][2] is True
        assert [f[2] for f in default["extinction"]] == [0.875, 0.75]
        assert default["irreducibility"] == [14967, 14967]
        assert 997 < len(default["absorbed trajectory"][0]) // 8 < 5000
        monkeypatch.setattr(engine, "CHUNK", chunk)
        chunked = self.consumers()
        for name in default:
            assert chunked[name] == default[name], name

    def test_small_odd_chunk_matches_default(self, monkeypatch):
        self.check_chunk(monkeypatch, 997)

    def test_chunk_below_lane_count_matches_default(self, monkeypatch):
        self.check_chunk(monkeypatch, 3)
