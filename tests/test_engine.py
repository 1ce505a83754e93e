"""Tests for the Monte Carlo engine."""

import multiprocessing
import os
import signal
import struct
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from functools import partial

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
    _advance,
    _advance_lanes,
    _lane_draws,
    _measure,
    _path,
    _walk,
    ensemble_occupation,
    ensemble_occupations,
)
from randquad.kernel import irreducibility_probe
from randquad.noise import NoiseModel, substream
from randquad.quadmap import invariant_interval

ATOM25 = NoiseModel(atoms=((2.5, 1.0),))
ATOM32 = NoiseModel(atoms=((3.2, 1.0),))
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


def joined_path(model, x0, n, seed):
    """X_0, ..., X_N and the draws eps_1, ..., eps_N of one path, joined from `engine._path`."""
    values, epsilons = [np.array([x0], dtype=float)], [np.empty(0)]
    for _, eps, states in _path(model, x0, n, seed):
        values.append(states.copy())
        epsilons.append(eps.copy())
    return np.concatenate(values), np.concatenate(epsilons)


class TestSimulateTrajectory:
    """One path through `engine._path`, as the simulate command walks it."""

    def test_deterministic_fixed_point(self):
        values, _ = joined_path(ATOM25, 0.3, 200, seed=1)
        assert len(values) == 201
        assert values[0] == 0.3
        assert values[-1] == pytest.approx(0.6, abs=1e-10)

    def test_deterministic_two_cycle_tail(self):
        values, _ = joined_path(ATOM32, 0.3, 5000, seed=1)
        assert sorted(values[-2:]) == pytest.approx([PERIOD2_LO, PERIOD2_HI], abs=1e-9)

    def test_same_seed_bitwise_identical(self):
        a = joined_path(U23, 0.4, 1000, seed=42)
        b = joined_path(U23, 0.4, 1000, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_epsilons_reproduce_states(self):
        values, epsilons = joined_path(U23, 0.4, 50, seed=5)
        x = 0.4
        for eps, nxt in zip(epsilons, values[1:]):
            x = eps * x * (1.0 - x)
            assert x == nxt

    def test_underflow_absorbs(self):
        # deterministic subcritical map: x_n ~ 0.5^n underflows to exactly 0
        values, _ = joined_path(NoiseModel(atoms=((0.5, 1.0),)), 0.5, 2000, seed=0)
        assert values[-1] == 0.0
        assert len(values) < 2001

    def test_states_stay_inside(self):
        values, _ = joined_path(U23, 0.7, 10_000, seed=9)
        assert np.all(values > 0.0)
        assert np.all(values < 1.0)


def one_step_table(values, bins, labels, groups):
    """`engine._occupations`' table over one block of one step whose lanes hold the
    values, so that a 0 or a 1 is its lane's stop."""
    values = np.asarray(values, dtype=float)[None, :]
    block = (0, values, values, np.ones(values.shape[1], dtype=np.int64))
    return engine._occupations(iter([block]), 0, bins, labels, groups)[0]


def slots_of(values, bins):
    """Each value's slot under `engine._occupations`: each lane in a group of its own."""
    table = one_step_table(values, bins, np.arange(len(values)), len(values))
    assert table.sum(axis=1).tolist() == [1] * len(values)
    return table.argmax(axis=1)


class TestBinStates:
    def test_right_closed_tie_break(self):
        # 0.2 is an edge: it belongs to the bin that ends at 0.2, index 1
        assert slots_of([0.2], 10).tolist() == [1]

    def test_boundary_guards(self):
        # slot bins holds a state at 0, slot bins + 1 a state at 1
        assert slots_of([0.0, 1.0, 0.3], 4).tolist() == [4, 5, 1]


def searchsorted_bins(values, edges):
    """Reference binning: searchsorted over the edges, right-closed bins."""
    values = np.asarray(values, dtype=float)
    interior = values[(values > 0.0) & (values < 1.0)]
    idx = np.searchsorted(edges, interior, side="left") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return counts, int(np.count_nonzero(values <= 0.0)), int(np.count_nonzero(values >= 1.0))


def slot_bins(values, bins):
    """`engine._occupations`' slots of the values, all lanes in one group, counted as
    searchsorted_bins counts them."""
    if not len(values):  # one bin has no interior edge to probe
        return np.zeros(bins, dtype=np.int64), 0, 0
    slots = one_step_table(values, bins, np.zeros(len(values), dtype=int), 1)[0]
    return slots[:bins], int(slots[bins]), int(slots[bins + 1])


class TestUniformBinning:
    """States are binned arithmetically on uniform edges, with the searchsorted result."""

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
        for values in (*self.probes(edges), states, np.array([0.0, 1.0, 0.5, 0.0])):
            counts, under, over = slot_bins(values, bins)
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
        bufs = [np.empty(len(states), dtype) for dtype in (np.int64, float, bool)]
        assert np.array_equal(engine._uniform_bin_index(states, edges, bufs), expected)

    def test_each_edge_goes_to_the_bin_it_ends(self):
        edges = np.linspace(0.0, 1.0, 201)
        on, below, above = self.probes(edges)
        inner = np.arange(len(on))
        assert slots_of(on, 200).tolist() == inner.tolist()
        assert slots_of(below, 200).tolist() == inner.tolist()
        assert slots_of(above, 200).tolist() == (inner + 1).tolist()


class TestOccupationMeasure:
    def test_constant_trajectory_single_bin(self):
        states = np.full((100, 1), 0.5)
        block = (0, states, states, np.array([100]))
        table, stopped = engine._occupations(iter([block]), 0, 100, [0], 1)
        m = _measure(table[0], stopped[0])
        assert m.total == 100
        # 0.5 sits on an edge; the right-closed convention puts it in bin 49
        assert m.counts[49] == 100

    def test_two_cycle_half_mass_each(self):
        walk = _walk((0.3,), 10_000, _lane_draws(ATOM32, [substream(1)]))
        table, stopped = engine._occupations(walk, 100, 200, [0], 1)
        m = _measure(table[0], stopped[0])
        busy = np.nonzero(m.counts)[0]
        assert len(busy) == 2
        assert abs(m.counts[busy[0]] - m.counts[busy[1]]) <= 1

    def test_guard_invariant(self):
        with pytest.raises(ValueError):
            OccupationMeasure(
                bin_edges=np.linspace(0, 1, 3),
                counts=np.array([1, 1]),
                total=5,
            )


class TestEnsemble:
    @staticmethod
    def alone(model, x0, n, rng, bins, burn_in):
        """The measure of one path walked alone, binned by reference_occupations."""
        blocks = recorded(_walk((x0,), n, _lane_draws(model, [rng])))
        table, stopped = reference_occupations(blocks, burn_in, bins, [0], 1)
        return _measure(table[0], stopped[0])

    def test_single_replicate_reduces_to_trajectory(self):
        cfg = SimConfig(master_seed=77, n_steps=5000, n_replicates=1, burn_in=100)
        ens = ensemble_occupation(U23, 0.3, cfg)
        direct = self.alone(U23, 0.3, 5000, substream(77, 0), cfg.n_bins, 100)
        assert np.array_equal(ens.counts, direct.counts)
        assert ens.total == direct.total

    def test_merge_equals_sum_of_singles(self):
        cfg = SimConfig(master_seed=13, n_steps=2000, n_replicates=4, burn_in=50)
        ens = ensemble_occupation(U23, 0.3, cfg)
        singles = [self.alone(U23, 0.3, 2000, substream(13, i), cfg.n_bins, 50) for i in range(4)]
        assert np.array_equal(ens.counts, sum(m.counts for m in singles))
        assert (ens.total, ens.underflow, ens.overflow, ens.absorbed) == tuple(
            sum(getattr(m, name) for m in singles)
            for name in ("total", "underflow", "overflow", "absorbed"))

    def test_fixed_point_mass_in_one_bin(self):
        # 64 bins keep 0.6 strictly inside a bin; at bin counts where 0.6 is
        # an edge the converged orbit straddles it by one ulp
        cfg = SimConfig(master_seed=3, n_steps=2000, n_replicates=3, burn_in=200, n_bins=64)
        ens = ensemble_occupation(ATOM25, 0.3, cfg)
        densest = np.argmax(ens.counts)
        edges = ens.bin_edges
        assert edges[densest] < 0.6 <= edges[densest + 1]
        assert ens.counts[densest] == ens.total

    def test_absorbed_replicates_flagged(self):
        cfg = SimConfig(master_seed=21, n_steps=50_000, n_replicates=3, burn_in=10)
        ens = ensemble_occupation(NoiseModel(atoms=((0.5, 1.0),)), 0.5, cfg)
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
            alone = ensemble_occupations(model, (x0,), self.CFG, (key,))[0]
            assert np.array_equal(m.counts, alone.counts)
            assert (m.total, m.underflow, m.overflow, m.absorbed) == (
                alone.total, alone.underflow, alone.overflow, alone.absorbed)

    @pytest.mark.parametrize("starts, keys", [((0.3, 0.4), [(0,)]), ((), [])])
    def test_one_key_per_start(self, starts, keys):
        with pytest.raises(ValueError, match="one stream key per start"):
            ensemble_occupations(U23, starts, self.CFG, keys)


def recording_forks(sizes):
    """Stands in for `engine._fork_shards`: records the shard count, runs the shards in-process."""

    def run(shard, cuts):
        sizes.append(len(cuts) - 1)
        return [shard(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]

    return run


class TwoArgumentError(Exception):
    """Pickles with one argument, so unpickling it raises TypeError."""

    def __init__(self, message, code):
        super().__init__(message)


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
            self.assert_no_child_left()

    @pytest.mark.parametrize(
        "starts, workers, cpus, asked",
        [
            ((0.3, 0.4, 0.5), 4, 8, [3]),  # capped at 3 lanes
            ((0.3, 0.4, 0.5), 100_000, 2, [2]),  # capped at 2 CPUs
            ((0.3, 0.4, 0.5), 100_000, 1, []),  # one CPU: no fork at all
            ((0.3,), 4, 8, []),  # one lane: no fork at all
            ((0.3, 0.4, 0.5), 2, 8, [2]),
        ],
    )
    def test_worker_count_is_capped(self, monkeypatch, starts, workers, cpus, asked):
        sizes = []
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(engine, "_fork_shards", recording_forks(sizes))
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
        table, stopped = engine._occupations(walk, cfg.burn_in, cfg.n_bins, [0, 1, 1, 1], 4)
        built = []
        monkeypatch.setattr(engine, "substream", lambda *key: built.append(key) or substream(*key))
        found_table, found_stopped = engine._shard_occupations(U23, starts, cfg, keys, 4, 8)
        assert built == [(3, 0, 4), (3, 1, 0), (3, 1, 1), (3, 1, 2)]
        assert found_table.tobytes() == table.tobytes()
        assert found_stopped.tolist() == stopped.tolist()
        # one row of slots per group, filled only for the groups that the lanes belong to
        assert table.shape == (4, cfg.n_bins + 2)
        assert table.sum(axis=1).tolist() == [2900, 3 * 2900, 0, 0]

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

    @staticmethod
    def unpicklable():
        raise FloatingPointError(lambda: None)  # a lambda does not pickle

    @staticmethod
    def unloadable():
        raise TwoArgumentError("walk failed in a worker", 2)

    @staticmethod
    def assert_no_child_left():
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # none running, and none unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "fault, error, message",
        [(fail, FloatingPointError, "walk failed in a worker"),
         (die, BrokenProcessPool, "died before sending"),
         (unpicklable, RuntimeError, "shard raised FloatingPointError"),
         (unloadable, TypeError, "missing 1 required positional argument")],
        ids=["raise", "kill", "unpicklable", "unloadable"],
    )
    def test_worker_fault_reaches_the_caller(self, monkeypatch, fault, error, message):
        parent, walk = os.getpid(), engine._walk

        def broken(*args, **kwargs):
            if os.getpid() != parent:
                fault()
            return walk(*args, **kwargs)

        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_walk", broken)
        cfg = SimConfig(master_seed=2, n_steps=500, burn_in=10)
        with pytest.raises(error, match=message):
            ensemble_occupations(U23, (0.3, 0.6), cfg, [(0,), (1,)], 2)
        self.assert_no_child_left()

    def test_failed_shard_does_not_wait_for_the_others(self, monkeypatch):
        # shard 0 fails at once while shards 1-3 would sleep for a minute:
        # the caller gets shard 0's error and the sleepers are killed and reaped
        parent, walk = os.getpid(), engine._walk

        def broken(starts, *args, **kwargs):
            if os.getpid() != parent:
                if starts[0] == 0.1:
                    self.fail()
                time.sleep(60)
            return walk(starts, *args, **kwargs)

        monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(engine, "_walk", broken)
        cfg = SimConfig(master_seed=2, n_steps=500, burn_in=10)
        start = time.monotonic()
        with pytest.raises(FloatingPointError):
            ensemble_occupations(U23, (0.1, 0.3, 0.6, 0.9), cfg, [(0,), (1,), (2,), (3,)], 4)
        assert time.monotonic() - start < 30
        self.assert_no_child_left()


def recorded(walk):
    """A walk's blocks, copied, so that more than one reduction can read them."""
    return [(done, eps.copy(), states.copy(), valid.copy()) for done, eps, states, valid in walk]


def reference_occupations(blocks, burn_in, bins, labels, groups):
    """`engine._occupations` lane by lane: each lane's path binned alone by searchsorted_bins."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    table = np.zeros((groups, bins + 2), dtype=np.int64)
    stopped = np.zeros(groups, dtype=np.int64)
    for j, g in enumerate(labels):
        # path[k] is the state after step k + 1
        path = np.concatenate([states[: valid[j], j] for _, _, states, valid in blocks])
        counts, under, over = searchsorted_bins(path[burn_in:], edges)
        table[g] += np.concatenate([counts, [under, over]])
        stopped[g] += len(path) > 0 and path[-1] in (0.0, 1.0)
    return table, stopped


def binned_pieces(monkeypatch):
    """A list that records each piece that `engine._occupations` bins."""
    binned, index = [], engine._uniform_bin_index
    monkeypatch.setattr(engine, "_uniform_bin_index",
                        lambda states, edges, bufs: binned.append(1) or index(states, edges, bufs))
    return binned


class TestOccupations:
    """One bincount per block over all lanes equals binning each lane alone and adding by group."""

    BINS = 7

    def hand_blocks(self):
        """Three blocks of five lanes whose states sit on every edge and one ulp to either side.

        Lanes 1 and 2 (both group 2) stop in the second block, at 0 and at
        1; lane 3 (group 1) stops at 1 on the last row of the third block,
        and lane 4 (group 0) at 0 inside it.  Rows past a stop hold states
        that must not count.
        """
        edges = np.linspace(0.0, 1.0, self.BINS + 1)
        probes = np.concatenate([edges[1:-1], np.nextafter(edges[1:-1], 0.0),
                                 np.nextafter(edges[1:-1], 1.0), substream(130).random(40)])
        blocks, done, lanes = [], 0, 5
        stops = {1: (1, 3, 0.0), 2: (1, 6, 1.0), 3: (2, 22, 1.0), 4: (2, 9, 0.0)}
        for b, m in enumerate((5, 11, 23)):
            states = np.resize(np.roll(probes, 7 * b), (m, lanes))
            states[:, 1:] = np.roll(states[:, 1:], 5, axis=0)
            valid = np.full(lanes, m)
            for j, (block, row, value) in stops.items():
                if block == b:
                    states[row, j] = value
                    valid[j] = row + 1
                elif block < b:
                    valid[j] = 0
            blocks.append((done, np.zeros((m, lanes)), states, valid))
            done += m
        return blocks

    @pytest.mark.parametrize("burn_in", [0, 4, 5, 8, 16, 38, 39])
    @pytest.mark.parametrize("labels, groups", [([0, 2, 2, 1, 0], 3), ([0] * 5, 1)])
    def test_hand_blocks_match_lane_by_lane_binning(self, burn_in, labels, groups):
        # burn-in 8 ends inside the second block, 16 at its end, 39 after every step
        blocks = self.hand_blocks()
        table, stopped = engine._occupations(iter(blocks), burn_in, self.BINS, labels, groups)
        ref_table, ref_stopped = reference_occupations(blocks, burn_in, self.BINS, labels, groups)
        assert table.tolist() == ref_table.tolist()
        assert stopped.tolist() == ref_stopped.tolist()
        if groups == 3:
            assert stopped.tolist() == [1, 1, 2]
            if burn_in == 8:  # group 0 holds a 0, group 1 a 1 and group 2 one of each
                assert table[:, self.BINS :].tolist() == [[1, 0], [0, 1], [1, 1]]

    @pytest.mark.parametrize("chunk, first_rows", [(engine.CHUNK, engine.FIRST_ROWS), (997, 5)])
    @pytest.mark.parametrize("model, n", [(U23, 3000), (ABSORBING, 3000), (EXTINCT, 20_000)],
                             ids=["U23", "absorbing", "extinct"])
    def test_walks_match_lane_by_lane_binning(self, monkeypatch, chunk, first_rows, model, n):
        # 12 lanes in 3 groups of 4, and one odd burn-in: with a chunk of 997
        # the burn-in ends inside a block of 83 rows
        monkeypatch.setattr(engine, "CHUNK", chunk)
        monkeypatch.setattr(engine, "FIRST_ROWS", first_rows)
        labels, burn_in, bins = np.repeat([0, 1, 2], 4), 1001, 60
        draws = _lane_draws(model, [substream(131, j) for j in range(12)])
        blocks = recorded(_walk(np.linspace(0.1, 0.9, 12), n, draws))
        table, stopped = engine._occupations(iter(blocks), burn_in, bins, labels, 3)
        ref_table, ref_stopped = reference_occupations(blocks, burn_in, bins, labels, 3)
        assert table.tolist() == ref_table.tolist()
        assert stopped.tolist() == ref_stopped.tolist()
        assert stopped.sum() == (0 if model is U23 else 12)

    @pytest.mark.parametrize("labels, groups", [([0, 2, 2, 1, 0], 3), ([0] * 5, 1)])
    def test_one_bin_and_one_count_per_block(self, monkeypatch, labels, groups):
        blocks = self.hand_blocks()
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        binned = binned_pieces(monkeypatch)
        engine._occupations(iter(blocks), 8, self.BINS, labels, groups)
        # the first block lies inside the burn-in; each later one is one piece
        assert len(calls) == len(binned) == 2

    @staticmethod
    def piece_walk(case):
        """The recorded blocks of a 6-lane walk of 5,000 steps: coupling, absorbing or last-row.

        In "absorbing" lanes 1 and 4 run ABSORBING and stop at 0 after about
        1,900 steps.  In "last-row" lanes 2 and 5 sit at 0.5 exactly under
        draws of 2, until a draw of 4 takes lane 2 to 1 and a draw of 0 takes
        lane 5 to 0, both at step 2,032, the last of its block, so that
        block's valid counts are all full.
        """
        lanes, n = 6, 5000
        columns = U23.sample(substream(132), n * lanes).reshape(n, lanes)
        if case == "absorbing":
            columns[:, [1, 4]] = ABSORBING.sample(substream(133), 2 * n).reshape(n, 2)
        if case == "last-row":
            columns[:, [2, 5]] = 2.0
            columns[block_end(2032, engine.CHUNK // lanes) - 1, [2, 5]] = (4.0, 0.0)
        starts = (0.3, 0.7, 0.5, 0.4, 0.2, 0.6)
        return recorded(_walk(starts, n, given_draws(columns)[0]))

    @pytest.mark.parametrize("piece_rows", [1, 7, None], ids=["1-row", "7-rows", "default"])
    @pytest.mark.parametrize("case", ["coupling", "absorbing", "last-row"])
    def test_pieces_of_any_size_match_lane_by_lane_binning(self, monkeypatch, case, piece_rows):
        # burn-in 100 ends inside the block of steps 49-112, and the blocks
        # before a stop go through the pieces
        labels, burn_in, bins = [0, 1, 1, 2, 0, 2], 100, 60
        blocks = self.piece_walk(case)
        if piece_rows:
            monkeypatch.setattr(engine, "BIN_PIECE", piece_rows * len(labels))
        binned = binned_pieces(monkeypatch)
        table, stopped = engine._occupations(iter(blocks), burn_in, bins, labels, 3)
        ref_table, ref_stopped = reference_occupations(blocks, burn_in, bins, labels, 3)
        assert table.tobytes() == ref_table.tobytes()
        assert stopped.tolist() == ref_stopped.tolist()
        guards = {"coupling": [[0, 0]] * 3, "absorbing": [[1, 0], [1, 0], [0, 0]],
                  "last-row": [[0, 0], [0, 1], [1, 0]]}
        assert table[:, bins:].tolist() == guards[case]
        # every piece after the burn-in goes through _uniform_bin_index, guarded or not
        rows = max(1, engine.BIN_PIECE // len(labels))
        assert len(binned) == sum(-(-max(0, len(states) - max(0, burn_in - done)) // rows)
                                  for done, _, states, _ in blocks)

    def test_binning_a_full_block_allocates_little(self):
        # one full block of a 10-lane shard, CHUNK // 10 = 6,553 rows of
        # states in (0, 1): whole-block temporaries took 1,609 KiB
        states = substream(134).random((engine.CHUNK // 10, 10))
        valid = np.full(10, len(states))
        tracemalloc.start()
        try:
            engine._occupations(iter([(0, states, states, valid)]), 0, 200, [0] * 5 + [1] * 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10


class TestStartStates:
    @pytest.mark.parametrize("x0", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_every_walk_consumer_rejects_start_outside_unit_interval(self, x0):
        cfg = SimConfig(master_seed=1, n_steps=100, burn_in=10)
        calls = [
            lambda: list(_path(U23, x0, 10, seed=1)),
            lambda: ensemble_occupation(U23, x0, cfg),
            lambda: irreducibility_probe(U23, x0, (0.4, 0.6), 10, 3, seed=1),
            lambda: extinction_test(U23, x0, (5,), 3, 1e-3, seed=1, stream_key=()),
            lambda: cyclicity_detect(U23, (0.4, 0.6), 10, 4, seed=1, x0=x0, burn_in=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"x0 must lie in \(0, 1\)"):
                call()


class TestClosure:
    @pytest.mark.parametrize("mu,nu", [(2.0, 3.0), (2.2, 2.8), (3.05, 3.35)])
    def test_invariant_interval_traps_orbit(self, mu, nu):
        a, b = invariant_interval(mu, nu)
        values, _ = joined_path(NoiseModel.uniform(mu, nu), 0.11, 1_000_000, seed=17)
        assert np.all(values > 0.0) and np.all(values < 1.0)
        inside = (values >= a - 1e-12) & (values <= b + 1e-12)
        first = np.argmax(inside)
        assert inside[first]  # entered at least once
        assert np.all(inside[first:])


def numpy_advance(x, eps, out):
    """Reference recurrence: a plain loop of eps * x * (1 - x), stepping numpy scalars or rows."""
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

    def test_linear_step_hands_over_after_first_excursion(self):
        # from 2^-55 the states 2^-54 (still linear) and 2^-53 (the first
        # excursion) are exact; the third step needs the full map
        eps = np.array([2.0, 2.0, 3.0] + [2.5] * 97)
        path, _ = self.walk(2.0**-55, eps)
        assert path[:2].tolist() == [2.0**-54, 2.0**-53]
        assert path[2] == 3.0 * 2.0**-53 * (1.0 - 2.0**-53) != 3.0 * 2.0**-53
        assert np.array_equal(path, stopped_reference(2.0**-55, eps))


class TestScalarKernel(WalkStopCases):
    """`_advance`, on Python floats, equals a numpy-scalar loop bit for bit.

    The stop cases walk every lane with this kernel.
    """

    min_lanes = 10**9

    # column lengths at the kernel's piece boundaries
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


class CountingGenerator:
    """A generator that logs the size of every block of uniforms drawn into an out array."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def random(self, *, out):
        self.log.append(out.size)
        return self.rng.random(out=out)


class TestStreamLayout:
    """A walk reads one uniform per live lane and step, one generator call per lane and block."""

    @pytest.mark.parametrize("lanes", [1, 8, 40])
    @pytest.mark.parametrize("model", [ABSORBING, NoiseModel(
        atoms=((0.7, 0.3),), uniform_pieces=((0.5, 0.9, 0.7),))], ids=["single", "mixture"])
    def test_walk_draws_one_uniform_per_live_lane_step(self, monkeypatch, model, lanes):
        # blocks of at most 4 rows: the lanes stop in different blocks
        monkeypatch.setattr(engine, "CHUNK", 4 * lanes)
        log, blocks = [], []
        fill = _lane_draws(model, [CountingGenerator(substream(52, j), log) for j in range(lanes)])

        def draws(eps, live):
            before = len(log)
            fill(eps, live)
            blocks.append((len(live), len(eps), log[before:]))

        walked(np.linspace(0.1, 0.9, lanes), 5000, draws)
        for live, rows, calls in blocks:
            assert calls == [rows] * live
        # some block draws for only some of the lanes
        assert lanes == 1 or any(0 < live < lanes for live, _, _ in blocks)
        assert sum(live * rows for live, rows, _ in blocks) == sum(log)


def frozen_advance(x, eps, out):
    """`engine._advance` before the linear step, the scalar kernel of `frozen_walk`."""
    x, eps = float(x), memoryview(eps)
    for lo in range(0, len(eps), engine.PIECE):
        states = [x := e * x * (1.0 - x) for e in eps[lo : lo + engine.PIECE]]
        out[lo : lo + len(states)] = np.frombuffer(struct.pack(f"{len(states)}d", *states))


def frozen_advance_lanes(x, eps, out):
    """`engine._advance_lanes` before the linear step, the row kernel of `frozen_walk`."""
    t = np.empty_like(x)
    for e, o in zip(eps, out):
        np.subtract(1.0, x, t)
        np.multiply(e, x, o)
        np.multiply(o, t, o)
        x = o


def frozen_walk(starts, n, draws):
    """`engine._walk` before the linear step: every row by a full-map kernel, every block scanned.

    It reads CHUNK, FIRST_ROWS and MIN_LANES from the engine at each call,
    so it walks the same block schedule and kernel choice as `_walk`.
    """
    x = np.array(starts, dtype=float)
    lanes = len(x)
    rows = min(max(1, engine.CHUNK // lanes), n)
    eps, out = np.zeros((rows, lanes)), np.zeros((rows, lanes))
    valid = np.zeros(lanes, dtype=np.int64)
    live = np.arange(lanes)
    done, m = 0, min(engine.FIRST_ROWS, rows)
    while done < n and len(live):
        m = min(m, n - done)
        e, o = eps[:m], out[:m]
        draws(e, live)
        if lanes < engine.MIN_LANES:
            for j in live:
                frozen_advance(x[j], e[:, j], o[:, j])
        else:
            frozen_advance_lanes(x, e, o)
        low = o < engine.ABSORB_FLOOR
        o[low] = 0.0
        hit = (low | (o == 1.0))[:, live]
        stopped = hit.any(axis=0)
        valid[:] = 0
        valid[live] = np.where(stopped, hit.argmax(axis=0) + 1, m)
        x = o[m - 1].copy()
        yield done, e, o, valid
        live = live[~stopped]
        done += m
        m = min(2 * m, rows)


def walk_record(walk):
    """Each block's step count, valid counts, and every lane's valid draws and states, as bytes."""
    return [
        (done, valid.tolist(), [(eps[:v, j].tobytes(), states[:v, j].tobytes())
                                for j, v in enumerate(valid)])
        for done, eps, states, valid in walk
    ]


def counted_draws(monkeypatch, rows=None):
    """Uniforms drawn by the walks' lane generators, one entry per generator call.

    Walk generators come from engine.substream, so each is wrapped there;
    with rows, each block's row count is kept from its one quantile call.
    """
    drawn = []
    make, quantile = engine.substream, NoiseModel.quantile

    def mapped(model, u, out):
        rows.append(len(out))
        return quantile(model, u, out)

    monkeypatch.setattr(engine, "substream", lambda *key: CountingGenerator(make(*key), drawn))
    if rows is not None:
        monkeypatch.setattr(NoiseModel, "quantile", mapped)
    return drawn


@pytest.fixture
def linear_calls(monkeypatch):
    """(rows, rows settled, whether a row overflowed) of every `_advance_linear` call."""
    calls = []
    advance_linear = engine._advance_linear

    def recorded(x, eps, out):
        settled = advance_linear(x, eps, out)
        calls.append((len(out), settled, bool(np.isinf(out).any())))
        return settled

    monkeypatch.setattr(engine, "_advance_linear", recorded)
    return calls


# lane j starts at 2^-58 times 2 to CROSSING_OFFSETS[j % 7] and steps runs
# of 8 draws of eps = 2 and 8 of eps = 0.5, so every lane crosses 2^-54 both
# ways every 16 steps, and the first block leaves the linear regime part of
# the way down, whatever the block schedule
CROSSING_OFFSETS = (2, -2, 1, -1, 3, -3, 0)
CROSSING_RUNS = np.repeat([2.0, 0.5], 8)


def crossing_columns(n, lanes):
    """n rows of CROSSING_RUNS, repeated, for each of the lanes."""
    return np.tile(CROSSING_RUNS[:, None], (n // len(CROSSING_RUNS) + 1, lanes))[:n]


def crossings(record, lanes):
    """Counts of in-block steps at which some lane's state goes above LINEAR_MAX, and below it."""
    up = down = 0
    for _, valid, cols in record:
        for j in range(lanes):
            states = np.frombuffer(cols[j][1])
            above = states > engine.LINEAR_MAX
            up += int(np.count_nonzero(above[1:] & ~above[:-1]))
            down += int(np.count_nonzero(~above[1:] & above[:-1]))
    return up, down


class TestLinearStep:
    """Below 2^-54 the walk steps a block as one product, bit for bit the full-map walk."""

    def test_threshold_is_where_one_minus_x_stops_rounding_to_one(self):
        assert engine.LINEAR_MAX == 2.0**-54
        assert 1.0 - 2.0**-54 == 1.0
        assert 1.0 - np.nextafter(2.0**-54, 1.0) != 1.0
        assert 1.0 - np.nextafter(2.0**-54, 1.0) == 1.0 - 2.0**-53

    def walks(self, model, starts, n, seed):
        """The records of `_walk` and of `frozen_walk` over the same draws: the
        model's lane substreams, or given columns when model is an array."""
        def draws():
            if isinstance(model, np.ndarray):
                return given_draws(model)[0]
            return _lane_draws(model, [substream(seed, j) for j in range(len(starts))])

        return walk_record(_walk(starts, n, draws())), walk_record(frozen_walk(starts, n, draws()))

    # 1 and 5 lanes run the scalar kernel, 200 lanes the rows; the odd
    # schedule starts at 5 rows and caps blocks at 37 rows for 200 lanes
    @pytest.mark.parametrize("lanes", [1, 5, 200])
    @pytest.mark.parametrize("chunk, first_rows", [(engine.CHUNK, engine.FIRST_ROWS), (7413, 5)])
    @pytest.mark.parametrize(
        "model, start, n",
        [(EXTINCT, 0.5, 20_000), (ABSORBING, 0.5, 3000), (None, None, 3000)],
        ids=["extinct", "absorbing", "crossing"],
    )
    def test_matches_frozen_walk(
        self, monkeypatch, linear_calls, lanes, chunk, first_rows, model, start, n
    ):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        monkeypatch.setattr(engine, "FIRST_ROWS", first_rows)
        if start is None:
            starts = tuple(2.0**-58 * 2.0 ** CROSSING_OFFSETS[j % 7] for j in range(lanes))
            model = crossing_columns(n, lanes)
        else:
            starts = (start,) * lanes
        new, old = self.walks(model, starts, n, seed=78)
        assert new == old
        assert sum(settled for _, settled, _ in linear_calls) > 0
        if start is None:
            up, down = crossings(new, lanes)
            assert up > 0 and down > 0
            # some block left the linear regime part of the way down
            assert any(0 < settled < rows for rows, settled, _ in linear_calls)

    @pytest.mark.parametrize("lanes", [1, 200])
    def test_overflow_inside_the_product(self, monkeypatch, linear_calls, lanes):
        # from 1e-300 near theta = 4 a lane leaves the regime after about 470
        # steps and its running product overflows after about 1,000, all
        # inside the first block of 4,096 rows
        monkeypatch.setattr(engine, "FIRST_ROWS", 4096)
        monkeypatch.setattr(engine, "CHUNK", 4096 * lanes)
        model = NoiseModel.uniform(3.9, 3.99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, old = self.walks(model, (1e-300,) * lanes, 6000, seed=62)
        assert new == old
        rows, settled, overflowed = linear_calls[0]
        assert rows == 4096 and 400 < settled < 600 and overflowed

    def test_dying_walk_runs_mostly_linear(self, monkeypatch, linear_calls):
        # criterion 6's shape: at least 90% of the dying walk's rows are one
        # product, and the surviving model never enters the linear regime
        rows = []
        counted_draws(monkeypatch, rows)
        checkpoints = (100, 1000, 10_000, 100_000)
        extinction_test(EXTINCT, 0.5, checkpoints, 200, 1e-3, seed=6, stream_key=())
        settled = sum(k for _, k, _ in linear_calls)
        assert settled >= 0.9 * sum(rows)
        linear_calls.clear()
        extinction_test(U23, 0.5, checkpoints[:3], 200, 1e-3, seed=6, stream_key=())
        assert linear_calls == []

    @pytest.mark.parametrize("min_lanes", [1, 10**9])
    def test_stopped_lane_carries_zero(self, monkeypatch, linear_calls, min_lanes):
        # lane 0 sits at the fixed point 0.5 of eps = 2 and reaches 1 at the
        # last row of the first block; lane 1 stays at 1e-30 under eps = 1, so
        # every later block starts in the linear regime
        monkeypatch.setattr(engine, "MIN_LANES", min_lanes)
        rows = engine.FIRST_ROWS
        columns = np.ones((200, 2))
        columns[:, 0] = 2.0
        columns[rows - 1, 0] = 4.0
        draws, _ = given_draws(columns)
        record = walk_record(_walk((0.5, 1e-30), 200, draws))
        assert record[0][1] == [rows, rows]
        assert np.frombuffer(record[0][2][0][1])[-1] == 1.0
        assert [settled for _, settled, _ in linear_calls] == [len(r[2][1][1]) // 8
                                                                for r in record[1:]]


@pytest.fixture
def segment_calls(monkeypatch):
    """(rows, lanes, segments re-run over all lanes) of every `_advance_segments` call."""
    calls = []
    advance_segments = engine._advance_segments

    def recorded(x, eps, out, bufs):
        repaired = advance_segments(x, eps, out, bufs)
        calls.append((len(eps), len(x), int(repaired.sum())))
        return repaired

    monkeypatch.setattr(engine, "_advance_segments", recorded)
    return calls


def short_segments(monkeypatch):
    """Speculate on short blocks: segments of 32 rows, checked over all 32, at any lane-step count."""
    monkeypatch.setattr(engine, "SEG", 32)
    monkeypatch.setattr(engine, "WIN", 32)
    monkeypatch.setattr(engine, "SPEC_STEPS", 1)


# the fixed-theta0 filler of `kolmogorov_approx` at 3.9
def theta39(eps, live):
    eps.fill(3.9)


CHAOTIC = NoiseModel.uniform(3.89, 3.91)
SEGMENT_CASES = {
    # paths that couple
    "U[2,3]": U23,
    "U[2.2,2.8]": NoiseModel.uniform(2.2, 2.8),
    "atom 2.5": ATOM25,
    # paths that couple within a phase class of a 2-cycle
    "U[3.15,3.25]": NoiseModel.uniform(3.15, 3.25),
    "atom 3.2": ATOM32,
    # chaotic paths, which never couple
    "U[3.89,3.91]": CHAOTIC,
    "theta0 3.9": theta39,
    # dying paths, which end in the linear step
    "U[0.5,1.5]": EXTINCT,
    # U[2,3], and from half way on ABSORBING in the even lanes
    "absorbing": None,
}


def segment_draws(case, lanes, n, seed):
    """A fresh draw filler for one walk of the named case of SEGMENT_CASES.

    In the absorbing case the even lanes switch to ABSORBING half way and
    stop about 1,900 steps later, while the odd lanes keep every block out
    of the linear step, so the even lanes fall through the subnormals and
    stop inside segments.
    """
    model = SEGMENT_CASES[case]
    if model is None:
        columns = U23.sample(substream(seed), n * lanes).reshape(n, lanes)
        tail = columns[n // 2 :, ::2]
        tail[:] = ABSORBING.sample(substream(seed, 1), tail.size).reshape(tail.shape)
        return given_draws(columns)[0]
    if not isinstance(model, NoiseModel):
        return model
    return _lane_draws(model, [substream(seed, j) for j in range(lanes)])


class TestSegments:
    """Long blocks run as speculative segments, bit for bit the sequential walk."""

    def walks(self, case, starts, n, seed=83):
        """The records of `_walk` and of `frozen_walk` over the same draws."""
        lanes = len(starts)
        new = walk_record(_walk(starts, n, segment_draws(case, lanes, n, seed)))
        return new, walk_record(frozen_walk(starts, n, segment_draws(case, lanes, n, seed)))

    # 1 and 10 lanes re-run segments with the scalar kernel, 40 lanes step
    # the leftover rows as numpy rows; each n reaches blocks that speculate
    # at the default constants (1 lane from 16,384 rows, 10 lanes from 2,048,
    # 40 lanes from 512)
    @pytest.mark.parametrize("lanes, n", [(1, 40_000), (10, 12_000), (40, 5000)])
    @pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
    @pytest.mark.parametrize("case", list(SEGMENT_CASES))
    def test_matches_frozen_walk(self, monkeypatch, segment_calls, case, lanes, n, short):
        if short:
            # an odd schedule, and segments in nearly every block
            short_segments(monkeypatch)
            monkeypatch.setattr(engine, "CHUNK", 7413)
            monkeypatch.setattr(engine, "FIRST_ROWS", 5)
            n = 3000
        starts = tuple(np.linspace(0.1, 0.9, lanes))
        new, old = self.walks(case, starts, n)
        assert new == old
        assert segment_calls or case == "U[0.5,1.5]"

    def test_coupled_segment_after_one_that_never_coupled_is_rerun(
        self, monkeypatch, segment_calls
    ):
        # one block of four 64-row segments: U[2,3], chaotic, U[2,3] and
        # U[2,3].  Segment 1 couples neither in pass 2 nor when re-run, so
        # segment 2's pass 2 starts from a wrong state and still couples with
        # pass 1; only a re-run from the true end of segment 1 gives segment
        # 2's first rows.  (Under one fixed eps the float map has several
        # fixed points next to the true one, so paths need not couple.)
        for name, value in (("SEG", 64), ("WIN", 64), ("SPEC_STEPS", 1),
                            ("FIRST_ROWS", 256), ("CHUNK", 256)):
            monkeypatch.setattr(engine, name, value)
        column = U23.sample(substream(84), 256)
        column[64:128] = NoiseModel.uniform(3.95, 3.99).sample(substream(85), 64)
        new = walk_record(_walk((0.3,), 256, given_draws(column[:, None])[0]))
        old = walk_record(frozen_walk((0.3,), 256, given_draws(column[:, None])[0]))
        assert new == old
        assert segment_calls == [(256, 1, 2)]

    def test_no_segment_past_a_stop_is_rerun(self, monkeypatch):
        # the 1-lane absorbing case: the lane switches to ABSORBING at step
        # 20,000 and stops about 1,900 steps later, inside the block of 16,384
        # rows (64 segments) that starts at step 16,369; `_walk` reads no row
        # past the stop, so every re-run segment starts at or before it, and
        # the few re-runs of the dying stretch keep the walk speculating
        segments, repaired, counts = [], [], []
        advance_segments, repair = engine._advance_segments, engine._repair

        def address(a):
            return a.__array_interface__["data"][0]

        def recorded_segments(x, eps, out, bufs):
            segments.append(out)
            repaired = advance_segments(x, eps, out, bufs)
            counts.append(int(repaired.sum()))
            return repaired

        def recorded_repair(x, eps, out):
            # rows of the segment block before the re-run segment
            repaired.append((address(out) - address(segments[-1])) // 8)
            return repair(x, eps, out)

        monkeypatch.setattr(engine, "_advance_segments", recorded_segments)
        monkeypatch.setattr(engine, "_repair", recorded_repair)
        n = 40_000
        new, first_steps = [], []
        for done, eps, states, valid in _walk((0.5,), n, segment_draws("absorbing", 1, n, 83)):
            new.append((done, valid.tolist(), [(eps[: valid[0], 0].tobytes(),
                                                states[: valid[0], 0].tobytes())]))
            # the segment block starts k rows into the walk block
            k = (address(segments[-1]) - address(states)) // 8 if segments else 0
            first_steps += [done + k + row + 1 for row in repaired]
            repaired.clear()
        stop = new[-1][0] + new[-1][1][0]
        assert new == walk_record(frozen_walk((0.5,), n, segment_draws("absorbing", 1, n, 83)))
        assert 20_000 < stop < n
        assert [len(out) for out in segments] == [16_384]
        assert len(first_steps) == counts[0] and max(first_steps) <= stop
        assert 0 < 8 * counts[0] <= 16_384 // engine.SEG

    def test_coupling_walk_runs_through_the_lane_kernel(self, monkeypatch):
        # the shape of one `ensemble` shard: 10 lanes x 10^5 steps of U[2,3]
        scalar, rows = [0], [0]
        advance, advance_lanes = engine._advance, engine._advance_lanes

        def counted(x, eps, out):
            scalar[0] += len(eps)
            advance(x, eps, out)

        def counted_lanes(x, eps, out):
            rows[0] += eps.size
            advance_lanes(x, eps, out)

        monkeypatch.setattr(engine, "_advance", counted)
        monkeypatch.setattr(engine, "_advance_lanes", counted_lanes)
        lanes, n = 10, 100_000
        draws = _lane_draws(U23, [substream(87, j) for j in range(lanes)])
        for _ in _walk((0.5,) * lanes, n, draws):
            pass
        assert rows[0] >= 0.9 * lanes * n
        assert scalar[0] <= 0.1 * lanes * n

    def test_lanes_that_stop_in_a_block_leave_the_walk_speculating(self, segment_calls):
        # the 10-lane absorbing case: the even lanes' dying stretch makes one
        # block re-run more than 1/8 of its segments, and they stop in it;
        # the odd lanes still couple, so every later block still speculates
        lanes, n = 10, 60_000
        starts = tuple(np.linspace(0.1, 0.9, lanes))
        new = walk_record(_walk(starts, n, segment_draws("absorbing", lanes, n, 83)))
        assert new == walk_record(frozen_walk(starts, n, segment_draws("absorbing", lanes, n, 83)))
        heavy = [i for i, (rows, _, repaired) in enumerate(segment_calls)
                 if 8 * repaired > rows // engine.SEG * lanes]
        assert len(heavy) == 1 and heavy[0] < len(segment_calls) - 1
        # the even lanes stop in the heavy block
        stops = [i for i, (_, valid, _) in enumerate(new) if 0 < valid[0] < valid[1]]
        assert stops == [len(new) - len(segment_calls) + heavy[0]]

    def test_wide_walk_never_speculates(self, monkeypatch, segment_calls):
        # 200 lanes: full blocks of 327 rows hold two segments and 51,200
        # lane-steps, which speculate only once the lane bound is lifted
        lanes, n = 200, 2000
        for bound in (engine.SPEC_LANES, lanes):
            monkeypatch.setattr(engine, "SPEC_LANES", bound)
            draws = _lane_draws(U23, [substream(89, j) for j in range(lanes)])
            for _ in _walk(np.linspace(0.1, 0.9, lanes), n, draws):
                pass
            assert (len(segment_calls) > 0) == (bound == lanes)

    def test_narrow_coupling_walk_speculates_in_every_long_block(self, segment_calls):
        # the shape of one `ensemble` shard: 10 lanes x 10^5 steps of U[2,3]
        lanes, n = 10, 100_000
        draws = _lane_draws(U23, [substream(90, j) for j in range(lanes)])
        rows = [len(states) for _, _, states, _ in _walk((0.5,) * lanes, n, draws)]
        segmented = [m // engine.SEG * engine.SEG for m in rows]
        first = next(i for i, m in enumerate(segmented) if m * lanes >= engine.SPEC_STEPS)
        assert rows[first] == 2048  # blocks of 16 to 1,024 rows hold too few lane-steps
        long = [m for m in segmented[first:] if m * lanes >= engine.SPEC_STEPS]
        assert long == segmented[first:-1]  # all but the last block, of 82 rows
        assert [(m, lanes) for m in long] == [call[:2] for call in segment_calls]

    def test_chaotic_walk_stops_after_the_first_block_that_speculates(self, segment_calls):
        lanes, n = 10, 100_000
        draws = _lane_draws(CHAOTIC, [substream(88, j) for j in range(lanes)])
        for _ in _walk((0.5,) * lanes, n, draws):
            pass
        ((rows, width, repaired),) = segment_calls
        assert rows == 2048 and width == lanes
        assert 8 * repaired > rows // engine.SEG * lanes


class TestEarlyExit:
    """A reduction that stops after a few steps draws little past its stop."""

    def test_irreducibility_probe_draws_near_its_entry_step(self, monkeypatch):
        drawn = counted_draws(monkeypatch)
        n_paths = 200
        # from far below J the map climbs for a while before any path enters
        entry = irreducibility_probe(
            NoiseModel.uniform(2.2, 2.8), 1e-6, (0.5455, 0.6428), 1000, n_paths, seed=20240
        )
        assert entry == 15
        assert 0 < sum(drawn) <= 2 * n_paths * max(entry, engine.FIRST_ROWS)

    def test_one_path_probe_draws_near_its_entry_step(self, monkeypatch):
        drawn = counted_draws(monkeypatch)
        step = irreducibility_probe(U23, 0.01, (0.55, 0.7), 50_000, 1, seed=5)
        assert step is not None and step < 100
        assert 0 < sum(drawn) <= 2 * max(step, engine.FIRST_ROWS)

    def test_walks_that_run_to_the_end_double_up_to_full_blocks(self, monkeypatch):
        rows = []
        drawn = counted_draws(monkeypatch, rows)
        extinction_test(U23, 0.5, (3000, 30_000), 8, 1e-3, seed=1, stream_key=())
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
        edges = ensemble_occupation(U23, 0.3, cfg).bin_edges
        assert np.array_equal(edges, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


class TestChunkInvariance:
    """Every path consumer gives identical results at any internal chunk size.

    An odd chunk of 997 lane-steps puts block boundaries inside the burn-in,
    between visits and just before absorption; a chunk of 3, fewer lane-steps
    than most walks have lanes, walks one step per block.  The default chunk
    holds most walks in one block.  With short segments every consumer's
    walk speculates at the default chunk, and at a chunk of 3 none can, so
    the segment path meets the plain kernels on every consumer.
    """

    def consumers(self):
        """Each consumer's name and a call that returns its results as bytes and numbers."""
        cfg = SimConfig(master_seed=9, n_steps=4000, n_replicates=3, burn_in=1500, n_bins=50)
        small = SimConfig(master_seed=4, n_steps=3000, n_replicates=2, burn_in=1000, n_bins=40)

        def trajectory(model):
            values, epsilons = joined_path(model, 0.3, 5000, seed=1)
            return values.tobytes(), epsilons.tobytes(), values[-1] in (0.0, 1.0)

        def ensemble(model):
            ens = ensemble_occupation(model, 0.4, cfg)
            return ens.counts.tobytes(), ens.total, ens.underflow, ens.absorbed

        def cyclicity():
            cyc = cyclicity_detect(
                NoiseModel.uniform(3.15, 3.25), (0.6, 0.9), 6000, 6, seed=2, x0=0.3, burn_in=1500
            )
            return cyc.period, cyc.residue_masses, cyc.concentration_by_d, cyc.n_visits

        def kolmogorov():
            kol = kolmogorov_approx(3.9, 0.01, small)
            return (kol.tv, kol.noise_measure.counts.tobytes(),
                    kol.deterministic_measure.counts.tobytes())

        def stability():
            stab = stability_test(U23, (0.05, 0.5, 0.95), small)
            return (stab.tv_matrix.tobytes(), stab.noise_scale, stab.stable,
                    [m.counts.tobytes() for m in stab.measures])

        def groups():
            measures = ensemble_occupations(ABSORBING, (0.2, 0.6), cfg, [(0,), (1,)])
            return [(m.counts.tobytes(), m.total, m.underflow, m.absorbed) for m in measures]

        # EXTINCT lanes absorb between steps 14390 (lane 0) and 18717 (seed 1),
        # and the first entries into the floor come at 14581 (lane 6) and, of
        # lanes 0-3, at 14719 (lane 3), so the late checkpoints and the first
        # entries fall after absorptions inside blocks, and a tiny threshold
        # tells absorbed lanes from live ones; 8 lanes step as rows, 4 run
        # the scalar loop
        late = (100, 14_000, 16_000, 20_000)
        floor = (1e-300, 1.01e-300)
        return {
            "trajectory": partial(trajectory, U23),
            "absorbed trajectory": partial(trajectory, ABSORBING),
            "ensemble": partial(ensemble, U23),
            "absorbed ensemble": partial(ensemble, ABSORBING),
            "one-path irreducibility": partial(irreducibility_probe, U23, 0.01, (0.7, 0.7001),
                                               50_000, 1, seed=5),
            "cyclicity": cyclicity,
            "kolmogorov": kolmogorov,
            "stability": stability,
            "absorbed ensemble groups": groups,
            "extinction": lambda: [
                extinction_test(EXTINCT, 0.5, late, r, 1e-300, seed=1, stream_key=()).fractions
                for r in (8, 4)
            ],
            "irreducibility": lambda: [
                irreducibility_probe(EXTINCT, 0.5, floor, 30_000, r, seed=1) for r in (8, 4)
            ],
        }

    def results(self, segment_calls):
        """Every consumer's results, and the names of those whose walks took the segment path."""
        found, crossed = {}, set()
        for name, call in self.consumers().items():
            before = len(segment_calls)
            found[name] = call()
            if len(segment_calls) > before:
                crossed.add(name)
        return found, crossed

    def check_chunk(self, monkeypatch, segment_calls, chunk, short):
        # walks of 6 or more lanes step as numpy rows, so both kernels see
        # every block layout
        monkeypatch.setattr(engine, "MIN_LANES", 6)
        if short:
            short_segments(monkeypatch)
        default, crossed = self.results(segment_calls)
        assert default["absorbed trajectory"][2] and default["absorbed ensemble"][3] == 3
        assert [g[3] for g in default["absorbed ensemble groups"]] == [3, 3]
        assert default["stability"][2] is True
        assert [f[2] for f in default["extinction"]] == [0.875, 0.75]
        assert default["irreducibility"] == [14581, 14719]
        assert 997 < len(default["absorbed trajectory"][0]) // 8 < 5000
        if short:
            # every consumer's walk speculates at the default chunk
            assert crossed == set(default)
        monkeypatch.setattr(engine, "CHUNK", chunk)
        chunked, _ = self.results(segment_calls)
        for name in default:
            assert chunked[name] == default[name], name

    def test_small_odd_chunk_matches_default(self, monkeypatch, segment_calls):
        self.check_chunk(monkeypatch, segment_calls, 997, short=False)

    def test_chunk_below_lane_count_matches_default(self, monkeypatch, segment_calls):
        self.check_chunk(monkeypatch, segment_calls, 3, short=False)

    def test_short_segments_small_odd_chunk_matches_default(self, monkeypatch, segment_calls):
        self.check_chunk(monkeypatch, segment_calls, 997, short=True)

    def test_short_segments_chunk_below_lane_count_matches_default(
        self, monkeypatch, segment_calls
    ):
        self.check_chunk(monkeypatch, segment_calls, 3, short=True)
