"""Tests for the deterministic quadratic-map core."""

import time

import numpy as np
import pytest

from randquad import quadmap
from randquad.quadmap import DomainError


def period2_points(theta):
    """Closed-form period-2 orbit: roots of theta^2 x^2 - theta(theta+1) x + (theta+1)."""
    root = np.sqrt((theta + 1.0) * (theta - 3.0))
    lo = (theta + 1.0 - root) / (2.0 * theta)
    hi = (theta + 1.0 + root) / (2.0 * theta)
    return lo, hi


def period2_multiplier(theta):
    return 4.0 + 2.0 * theta - theta * theta


class TestFixedPoint:
    def test_satisfies_map(self):
        xstar = quadmap.find_periodic_orbit(2.5, 1).points[0]
        assert 2.5 * xstar * (1.0 - xstar) == pytest.approx(xstar, abs=1e-15)


class TestFindPeriodicOrbit:
    def test_fixed_point_orbit(self):
        orbit = quadmap.find_periodic_orbit(2.5, 1)
        assert orbit is not None
        assert orbit.points[0] == pytest.approx(0.6, abs=1e-12)
        assert orbit.multiplier == pytest.approx(-0.5, abs=1e-10)
        assert orbit.attractive

    @pytest.mark.parametrize("theta", [1.5, 2.0, 2.5, 2.9])
    def test_agrees_with_fixed_point(self, theta):
        orbit = quadmap.find_periodic_orbit(theta, 1)
        assert orbit is not None
        assert orbit.points[0] == pytest.approx(1.0 - 1.0 / theta, abs=1e-12)

    @pytest.mark.parametrize("theta", [3.1, 3.2, 3.4])
    def test_period2_closed_form(self, theta):
        lo, hi = period2_points(theta)
        orbit = quadmap.find_periodic_orbit(theta, 2)
        assert orbit is not None
        assert orbit.points[0] == pytest.approx(lo, abs=1e-10)
        assert orbit.points[1] == pytest.approx(hi, abs=1e-10)
        assert orbit.multiplier == pytest.approx(period2_multiplier(theta), abs=1e-8)

    def test_period3_window(self):
        orbit = quadmap.find_periodic_orbit(3.83, 3)
        assert orbit is not None
        assert orbit.period == 3
        assert abs(orbit.multiplier) < 1.0
        # the three points really form a 3-cycle
        x = orbit.points[0]
        seen = {round(x, 9)}
        for _ in range(3):
            x = 3.83 * x * (1.0 - x)
            seen.add(round(x, 9))
        assert len(seen) == 3

    def test_minimal_period_rejection(self):
        # at theta = 2.5 the only attractor has period 1, so m = 2 must fail
        assert quadmap.find_periodic_orbit(2.5, 2) is None

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.99, 0.999, 1.0])
    def test_no_orbit_at_or_below_theta_one(self, monkeypatch, theta, m):
        # F_theta(x) < x on (0, 1): a warmed-up state near 0 is no orbit
        assert quadmap.find_periodic_orbit(theta, m) is None
        for steps in (0, 1, 10):
            monkeypatch.setattr(quadmap, "WARMUP_STEPS", steps)
            assert quadmap.find_periodic_orbit(theta, m) is None

    def test_fixed_point_just_above_theta_one(self):
        orbit = quadmap.find_periodic_orbit(1.0001, 1)
        assert orbit is not None and orbit.attractive
        assert orbit.points[0] == pytest.approx(1.0 - 1.0 / 1.0001, rel=1e-6)

    def test_no_attractive_orbit_in_chaos(self):
        # theta = 4 is chaotic: nothing attractive to find
        assert quadmap.find_periodic_orbit(4.0, 1) is None

    def test_q_is_largest(self):
        orbit = quadmap.find_periodic_orbit(3.2, 2)
        assert orbit.largest_point == max(orbit.points)
        assert 0.0 < orbit.largest_point < 1.0


def frozen_newton_refine(theta, x, m):
    """Newton on F^m(x) - x returning the root alone: the reference for quadmap._newton_refine."""
    for _ in range(quadmap.NEWTON_MAX_ITER):
        fx, dfx = quadmap._orbit_multiplier(theta, x, m)
        g = fx - x
        dg = dfx - 1.0
        if abs(g) < quadmap.NEWTON_TOL:
            return x
        if dg == 0.0:
            return None
        step = g / dg
        x_new = x - step
        if not (0.0 < x_new < 1.0):
            return None
        x = x_new
    fx, _ = quadmap._orbit_multiplier(theta, x, m)
    return x if abs(fx - x) < quadmap.NEWTON_TOL else None


def frozen_orbit_from_candidate(theta, x, m):
    """The reference for quadmap._orbit_from_candidate: multiplier recomputed at the root, np.round."""
    root = frozen_newton_refine(theta, x, m)
    if root is None or not quadmap._minimal_period_ok(theta, root, m):
        return None
    _, multiplier = quadmap._orbit_multiplier(theta, root, m)
    if not abs(multiplier) < 1.0:
        return None
    points = [root]
    y = root
    for _ in range(m - 1):
        y = theta * y * (1.0 - y)
        points.append(y)
    if len(set(np.round(points, 9))) != m:
        return None
    if any(not (0.0 < p < 1.0) for p in points):
        return None
    return quadmap.PeriodicOrbit(
        theta=theta, period=m, points=tuple(sorted(points)), multiplier=multiplier
    )


def frozen_distinct_orbit_from_candidate(theta, x, m):
    """quadmap._orbit_from_candidate with the test that its m points are
    distinct when rounded to 9 decimals, which it no longer makes."""
    refined = quadmap._newton_refine(theta, x, m)
    if refined is None:
        return None
    root, multiplier = refined
    if not abs(multiplier) < 1.0 or not quadmap._minimal_period_ok(theta, root, m):
        return None
    points = [root]
    y = root
    for _ in range(m - 1):
        y = theta * y * (1.0 - y)
        points.append(y)
    if len({round(p * 1e9) / 1e9 for p in points}) != m:
        return None
    if any(not (0.0 < p < 1.0) for p in points):
        return None
    return quadmap.PeriodicOrbit(
        theta=theta, period=m, points=tuple(sorted(points)), multiplier=multiplier
    )


def plain_warm_up(theta, seed, warmup):
    """seed after warmup plain steps, every state range-tested; None once it leaves (0, 1)."""
    x = float(seed)
    for _ in range(warmup):
        x = theta * x * (1.0 - x)
        if not (0.0 < x < 1.0):
            return None
    return x


def reference_from_states(theta, m, states):
    """The first candidate among the warmed-up states that passes, trying every one."""
    for x in states:
        if x is not None:
            orbit = frozen_orbit_from_candidate(theta, x, m)
            if orbit is not None:
                return orbit
    return None


# the 16 seeds of the multi-start search that the critical-point search replaced
_REFERENCE_SEEDS = np.linspace(0.05, 0.95, 16).tolist()


def reference_find_periodic_orbit(theta, m, seeds=_REFERENCE_SEEDS, warmup=quadmap.WARMUP_STEPS):
    """The frozen multi-start search: a plain warm-up, trying seed after seed until one passes."""
    theta = float(theta)
    if theta <= 1.0:  # no periodic point in (0, 1)
        return None
    return reference_from_states(theta, m, (plain_warm_up(theta, s, warmup) for s in seeds))


def reference_states(thetas, warmup=quadmap.WARMUP_STEPS):
    """plain_warm_up of every reference seed, one row per theta, stepped as numpy arrays."""
    th = np.asarray(thetas, dtype=float)[:, None]
    x = np.tile(_REFERENCE_SEEDS, (len(th), 1))
    left = np.zeros(x.shape, dtype=bool)
    for _ in range(warmup):
        x = th * x * (1.0 - x)
        left |= ~((0.0 < x) & (x < 1.0))
    return [
        [None if out else v for v, out in zip(row, outs)]
        for row, outs in zip(x.tolist(), left.tolist())
    ]


def assert_same_orbit(got, want):
    """got finds what the reference want finds, hit or miss, and the same cycle.

    Away from neutral stability the points agree within 1e-13 times the
    condition number 1 / (1 - |Lambda|) of the root of F^m(x) - x; the
    multipliers then agree within that times sum_i |dLambda/dx_i|, where
    dLambda/dx_i = -2 theta prod_{j != i} theta (1 - 2 x_j).
    """
    assert (got is None) == (want is None)
    if want is None or not abs(want.multiplier) < 1.0 - 1e-6:
        return
    assert got.period == want.period
    tol = 1e-13 / (1.0 - abs(want.multiplier))
    assert max(abs(p - q) for p, q in zip(got.points, want.points)) <= tol
    theta, points = want.theta, want.points
    slope = sum(
        2.0 * theta * np.prod([theta * abs(1.0 - 2.0 * x) for j, x in enumerate(points) if j != i])
        for i in range(want.period)
    )
    assert abs(got.multiplier - want.multiplier) <= slope * tol + 1e-15


# the period-2 window is (3, 1 + sqrt(6)); 2.95 and 3.5 are holes either side;
# the attractive 5- and 8-cycles repeat only at the 240-step lag
_SWEEPS = {
    1: [0.5, 1.0, 1.5, 2.0, 2.5, 2.9, 2.99, 3.02, 3.3, 3.7, 3.9, 4.0],
    2: [2.95, 3.05, 3.2, 3.4, 3.44, 3.5, 3.56, 3.7, 3.9, 4.0],
    3: [3.2, 3.7, 3.83, 3.84, 3.85, 3.9, 4.0],
    4: [3.2, 3.45, 3.5, 3.55, 3.6, 3.9, 4.0],
    5: [3.739],
    8: [3.55],
}


class TestWarmUpMatchesFullWarmUp:
    """The early-stopping warm-up of 1/2 finds what the full one and the
    frozen multi-start search find, None included."""

    @pytest.mark.parametrize(
        "m, theta", [(m, theta) for m, thetas in _SWEEPS.items() for theta in thetas]
    )
    def test_default_search(self, m, theta):
        assert_same_orbit(
            quadmap.find_periodic_orbit(theta, m), reference_find_periodic_orbit(theta, m)
        )

    # at theta = 4 the orbit of 1/2 is 1 after one step and 0 after that
    @pytest.mark.parametrize("warmup", [0, 1, 239, 240, 1001])
    @pytest.mark.parametrize("m, theta", [(1, 2.5), (2, 3.2), (2, 3.5), (3, 3.83), (1, 4.0)])
    def test_short_warmups(self, monkeypatch, m, theta, warmup):
        monkeypatch.setattr(quadmap, "WARMUP_STEPS", warmup)
        assert quadmap.find_periodic_orbit(theta, m) == reference_find_periodic_orbit(
            theta, m, seeds=[0.5], warmup=warmup
        )

    def test_sweeps_cover_hits_and_misses(self):
        for m, theta in [(1, 2.5), (2, 3.2), (3, 3.83), (4, 3.5), (5, 3.739), (8, 3.55)]:
            assert quadmap.find_periodic_orbit(theta, m) is not None
        for m, theta in [(2, 2.95), (2, 3.5), (1, 4.0), (3, 3.9)]:
            assert quadmap.find_periodic_orbit(theta, m) is None

    # fast convergence repeats at the 24-step lag, slow convergence only at
    # the 240-step lag (2.99 after 3,360 steps, 3.448 after 7,440), chaos never
    @pytest.mark.parametrize("theta", [2.5, 3.2, 2.99, 3.448, 3.9, 4.0])
    def test_warm_up_equals_plain_loop(self, theta):
        for n in (0, 1, 23, 24, 25, 239, 240, 241, 479, 10_007):
            for x0 in (0.05, 0.3, 0.5):
                x = x0
                for _ in range(n):
                    x = theta * x * (1.0 - x)
                assert quadmap._warm_up(theta, x0, n).hex() == x.hex(), (n, x0)

    @pytest.mark.parametrize("theta, m", [(2.5, 1), (3.2, 2), (3.5, 4)])
    def test_hits_stop_early(self, monkeypatch, theta, m):
        # a billion plain steps would take minutes; a closed float orbit ends
        # the warm-up in a few hundred
        orbit = quadmap.find_periodic_orbit(theta, m)
        assert orbit is not None
        monkeypatch.setattr(quadmap, "WARMUP_STEPS", 10**9)
        start = time.perf_counter()
        assert quadmap.find_periodic_orbit(theta, m) == orbit
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [0, -1, 2.5, 2.0, "2", None, True])
    def test_bad_period_rejected(self, m):
        with pytest.raises(ValueError, match=rf"period must be an integer >= 1, got {m!r}"):
            quadmap.find_periodic_orbit(3.2, m)

    def test_integer_periods_accepted(self):
        assert quadmap.find_periodic_orbit(3.2, np.int64(2)) == quadmap.find_periodic_orbit(3.2, 2)


def _certify_holes(lo, hi, samples=25):
    """The period-2 samples of an `orbit` sweep from lo to hi that fall outside (3, 1 + sqrt(6))."""
    thetas = np.linspace(lo, hi, samples)
    return [float(t) for t in thetas if not 3.0 < t < 1.0 + np.sqrt(6.0)]


# a grid over (1, 4] and the holes of the `certify` orbit sweep at seeds 20240
# (2.9386 .. 3.5386) and 7 (2.8783 .. 3.5381)
_EXIT_THETAS = (
    np.linspace(1.0, 4.0, 41)[1:].tolist()
    + _certify_holes(2.9386, 3.5386)
    + _certify_holes(2.8783, 3.5381)
)
# 1,000 parameters over (1, 4] for the comparison with the frozen search
_GRID_THETAS = np.linspace(1.0, 4.0, 1001)[1:].tolist()


class TestClosedOrbitEndsSearch:
    """The warm-up of 1/2 alone, ended where its float orbit closes, finds
    and misses what the frozen 16-seed search does."""

    def test_certify_holes_listed(self):
        assert len(_certify_holes(2.9386, 3.5386)) == 7
        assert len(_certify_holes(2.8783, 3.5381)) == 9

    @pytest.mark.parametrize("theta", _EXIT_THETAS)
    def test_equals_frozen_reference(self, theta):
        states = [plain_warm_up(theta, s, quadmap.WARMUP_STEPS) for s in _REFERENCE_SEEDS]
        for m in (1, 2, 4, 8):
            want = reference_from_states(theta, m, states)
            assert_same_orbit(quadmap.find_periodic_orbit(theta, m), want)

    def test_reference_states_are_plain_warm_ups(self):
        thetas = [1.003, 2.999, 3.448, 3.9, 4.0]
        assert reference_states(thetas) == [
            [plain_warm_up(theta, s, quadmap.WARMUP_STEPS) for s in _REFERENCE_SEEDS]
            for theta in thetas
        ]

    def test_grid_equals_frozen_reference(self):
        hits = misses = 0
        for theta, states in zip(_GRID_THETAS, reference_states(_GRID_THETAS)):
            for m in (1, 2, 3, 4, 8):
                want = reference_from_states(theta, m, states)
                assert_same_orbit(quadmap.find_periodic_orbit(theta, m), want)
                hits += want is not None
                misses += want is None
        assert hits > 500 and misses > 3000

    @pytest.mark.parametrize("theta, m", [(2.95, 2), (3.5, 2), (3.9, 2), (2.5, 1)])
    def test_one_warm_up(self, monkeypatch, theta, m):
        # one warm-up of 1/2, whether the orbit closes on the fixed point
        # (2.95, 2.5) or on the 4-cycle (3.5) or never closes (3.9)
        calls = []
        warm_up = quadmap._warm_up

        def counted(*args):
            calls.append(args)
            return warm_up(*args)

        monkeypatch.setattr(quadmap, "_warm_up", counted)
        orbit = quadmap.find_periodic_orbit(theta, m)
        assert calls == [(theta, 0.5, quadmap.WARMUP_STEPS)]
        assert (orbit is None) == (m == 2)

    def test_candidate_equals_frozen_distinct_points_check(self):
        # the distinct-points test rejected no candidate that the minimal
        # period test passes: the warmed-up critical point and two random
        # states, for periods 1-8, at 1,500 parameters over (1, 4]
        rng = np.random.default_rng(24)
        hits = 0
        for theta in np.linspace(1.0, 4.0, 1501)[1:].tolist():
            states = [quadmap._warm_up(theta, 0.5, quadmap.WARMUP_STEPS), *rng.random(2).tolist()]
            for m in range(1, 9):
                for x in states:
                    got = quadmap._orbit_from_candidate(theta, x, m)
                    assert got == frozen_distinct_orbit_from_candidate(theta, x, m)
                    hits += got is not None
        assert hits > 3000


class TestTransversality:
    def test_fixed_point_value(self):
        orbit = quadmap.find_periodic_orbit(2.5, 1)
        assert quadmap.check_transversality(orbit) == pytest.approx(-1.5, abs=1e-10)

    def test_period2_value(self):
        orbit = quadmap.find_periodic_orbit(3.2, 2)
        assert quadmap.check_transversality(orbit) == pytest.approx(-0.84, abs=1e-8)

    def test_always_negative_for_attractive(self):
        for theta, m in [(1.5, 1), (2.9, 1), (3.3, 2), (3.83, 3), (3.55, 4)]:
            orbit = quadmap.find_periodic_orbit(theta, m)
            if orbit is not None:
                assert quadmap.check_transversality(orbit) < 0.0

    def test_rejects_nonattractive(self):
        bogus = quadmap.PeriodicOrbit(theta=3.6, period=1, points=(0.722222,), multiplier=-1.6)
        with pytest.raises(ValueError):
            quadmap.check_transversality(bogus)


class TestQOfTheta:
    def test_fixed_point_window_closed_form(self):
        table = quadmap.q_of_theta((2.2, 2.8), 1, 25)
        assert not table.holes
        expected = 1.0 - 1.0 / table.thetas
        assert np.allclose(table.q, expected, atol=1e-10)
        assert table.monotone

    def test_derivative_matches(self):
        # centered-difference truncation error is h^2/theta^4, so the 1e-6
        # agreement with 1/theta^2 needs spacing h ~ 2.5e-3
        table = quadmap.q_of_theta((2.2, 2.8), 1, 241)
        interior = slice(1, -1)
        assert np.allclose(
            table.dq[interior], 1.0 / table.thetas[interior] ** 2, atol=1e-6
        )

    def test_period2_window_monotone(self):
        table = quadmap.q_of_theta((3.1, 3.4), 2, 16)
        assert not table.holes
        lo_hi = [period2_points(th)[1] for th in table.thetas]
        assert np.allclose(table.q, lo_hi, atol=1e-9)
        assert table.monotone

    def test_holes_reported(self):
        # theta = 3.6+ has no attractive low-period orbit: samples become holes
        table = quadmap.q_of_theta((3.55, 3.65), 1, 5)
        assert table.holes

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 2.0), (-1.0, 2.0), (2.2, 5.0), (2.2, np.inf), (np.nan, 3.0), (3.0, 3.0), (3.0, 2.0)],
    )
    def test_range_checked_before_sampling(self, monkeypatch, lo, hi):
        calls = []
        monkeypatch.setattr(quadmap, "find_periodic_orbit", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=r"theta_range \(.*\) must satisfy 0 < lo < hi <= 4"):
            quadmap.q_of_theta((lo, hi), 1, 5)
        assert calls == []

    @pytest.mark.parametrize("n_samples", [2, 0, 5.0, 5.5, "5", True])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError, match=rf"n_samples must be an integer >= 3, got {n_samples!r}"):
            quadmap.q_of_theta((2.2, 2.8), 1, n_samples)

    @pytest.mark.parametrize("m", [2.0, "1", False])
    def test_bad_period_rejected(self, m):
        with pytest.raises(ValueError, match=rf"period must be an integer >= 1, got {m!r}"):
            quadmap.q_of_theta((2.2, 2.8), m, 5)

    def test_range_may_end_at_four(self):
        table = quadmap.q_of_theta((3.9, 4.0), 1, 3)
        assert table.thetas[-1] == 4.0 and len(table.holes) == 3

    def test_orbits_kept_per_sample(self):
        table = quadmap.q_of_theta((2.9, 3.1), 1, 9)  # period-1 orbits end at 3
        assert len(table.orbits) == len(table.thetas)
        for theta, q, orbit in zip(table.thetas, table.q, table.orbits):
            if orbit is None:
                assert np.isnan(q) and float(theta) in table.holes
            else:
                assert orbit.theta == theta and orbit.largest_point == q
        assert any(o is None for o in table.orbits) and any(table.orbits)


def frozen_monotone(table):
    """QTable.monotone as it was: strict monotonicity of q and one sign of dq."""
    q = table.q[~np.isnan(table.q)]
    if len(q) < 2:
        return False
    diffs = np.diff(q)
    dq = table.dq[~np.isnan(table.dq)]
    return bool(
        (np.all(diffs > 0.0) or np.all(diffs < 0.0))
        and (np.all(dq > 0.0) or np.all(dq < 0.0))
    )


def frozen_dq(thetas, q):
    """q_of_theta's dq as the loop it was: centered differences, one-sided
    next to a hole or at an end, NaN at a hole."""
    n = len(q)
    dq = np.full(n, np.nan)
    h = thetas[1] - thetas[0]
    for i in range(n):
        if np.isnan(q[i]):
            continue
        left = q[i - 1] if i > 0 else np.nan
        right = q[i + 1] if i < n - 1 else np.nan
        if not np.isnan(left) and not np.isnan(right):
            dq[i] = (right - left) / (2.0 * h)
        elif not np.isnan(right):
            dq[i] = (right - q[i]) / h
        elif not np.isnan(left):
            dq[i] = (q[i] - left) / h
    return dq


def random_tables(monkeypatch, seed, count):
    """count q_of_theta tables built from made-up orbits: q runs up, down or
    anywhere, with ties, tiny steps and NaN holes."""
    rng = np.random.default_rng(seed)
    samples = {}

    class Orbit:
        def __init__(self, q):
            self.largest_point = q

    def fake_search(theta, m):
        q = samples.pop(theta)
        return None if np.isnan(q) else Orbit(q)

    monkeypatch.setattr(quadmap, "find_periodic_orbit", fake_search)
    for _ in range(count):
        n = int(rng.integers(3, 12))
        lo = float(rng.uniform(0.5, 3.5))
        hi = lo + float(rng.choice([1e-12, 1e-3, 0.4]))
        steps = rng.choice([1e-300, 1e-16, 1e-3]) * rng.uniform(0.0, 1.0, n)
        steps[rng.random(n) < 0.05] = 0.0
        q = 0.5 + rng.choice([1.0, -1.0]) * np.cumsum(steps)
        if rng.random() < 0.3:
            q = rng.permutation(q)
        q[rng.random(n) < rng.choice([0.0, 0.3, 0.8])] = np.nan
        samples.update(zip(np.linspace(lo, hi, n).tolist(), q.tolist()))
        table = quadmap.q_of_theta((lo, hi), 1, n)
        assert not samples
        yield table


def test_monotone_equals_frozen_on_random_tables(monkeypatch):
    kinds = {True: 0, False: 0}
    for table in random_tables(monkeypatch, 30, 5000):
        assert table.monotone == frozen_monotone(table), (table.q, table.dq)
        kinds[table.monotone] += 1
    assert min(kinds.values()) > 500


def test_dq_equals_frozen_loop_on_random_tables(monkeypatch):
    holes = 0
    for table in random_tables(monkeypatch, 31, 5000):
        want = frozen_dq(table.thetas, table.q)
        assert np.array_equal(table.dq.view(np.int64), want.view(np.int64)), (table.q, table.dq)
        holes += np.isnan(table.q[1:-1]).any() and not np.isnan(table.q).all()
    assert holes > 1000


class TestInvariantInterval:
    def test_formula(self):
        a, b = quadmap.invariant_interval(2.0, 3.0)
        assert a == pytest.approx(0.375, abs=0)
        assert b == pytest.approx(0.75, abs=0)

    def test_degenerate(self):
        a, b = quadmap.invariant_interval(2.0, 2.0)
        assert a == b == pytest.approx(0.5, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            quadmap.invariant_interval(1.0, 2.0)
        with pytest.raises(DomainError):
            quadmap.invariant_interval(3.0, 2.0)
        with pytest.raises(DomainError):
            quadmap.invariant_interval(2.0, 4.0)

    @pytest.mark.parametrize("mu,nu", [(2.0, 3.0), (1.5, 2.5), (3.05, 3.35)])
    def test_containment_grid_oracle(self, mu, nu):
        # oracle: exhaustive grid over theta in [mu, nu], x in [a, b], plus
        # the vertex where F_theta attains its maximum
        a, b = quadmap.invariant_interval(mu, nu)
        thetas = np.linspace(mu, nu, 100)
        xs = np.linspace(a, b, 100)
        if a <= 0.5 <= b:
            xs = np.append(xs, 0.5)
        for theta in thetas:
            images = theta * xs * (1.0 - xs)
            assert images.min() >= a - 1e-12
            assert images.max() <= b + 1e-12


def _reference_interval_image(theta_lo, theta_hi, lo, hi):
    """The k-step image of J as kernel._minorization_bound wrote it before
    quadmap.interval_image: kernel._s_bounds, then [c_min * s_lo,
    min(d_max * s_hi, 1)]; interval_image must give the same bits."""
    slack = quadmap._BOUND_SLACK
    s_a, s_b = lo * (1.0 - lo), hi * (1.0 - hi)
    peak = np.where((lo <= 0.5) & (0.5 <= hi), 0.25, np.maximum(s_a, s_b))
    s_lo, s_hi = np.minimum(s_a, s_b) * (1.0 - slack), peak * (1.0 + slack)
    return theta_lo * s_lo, np.minimum(theta_hi * s_hi, 1.0)


def _random_boxes(rng, n):
    """n boxes [theta_lo, theta_hi] x [lo, hi] with 0 < theta_lo <= theta_hi <= 4
    and 0 < lo <= hi < 1; about half of them hold 1/2."""
    theta_lo, theta_hi = np.sort(rng.uniform(0.0, 4.0, (2, n)), axis=0)
    lo, hi = np.sort(rng.uniform(0.0, 1.0, (2, n)), axis=0)
    return theta_lo, theta_hi, lo, hi


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestIntervalImage:
    def test_same_bits_as_kernel_formula(self):
        rng = np.random.default_rng(19)
        n = 10_000
        theta_lo, theta_hi, lo, hi = _random_boxes(rng, n)
        centre = rng.uniform(0.0, 0.5, n)
        boxes = {
            "random": (theta_lo, theta_hi, lo, hi),
            "straddle": (theta_lo, theta_hi, 0.5 - centre, 0.5 + centre),
            "degenerate": (theta_lo, theta_lo, lo, lo),
            "vertex": (theta_lo, theta_hi, np.full(n, 0.5), np.full(n, 0.5)),
            "theta=1": (1.0, 1.0, lo, hi),
            # the kernel's chained images pass scalar ends
            "scalar": (2.0, 3.0, 0.55, 0.7),
            "scalar-straddle": (2.0, 3.0, 0.3, 0.6),
            "scalar-vertex": (3.9, 3.99, 0.5, 0.5),
        }
        for name, box in boxes.items():
            got, want = quadmap.interval_image(*box), _reference_interval_image(*box)
            for g, w in zip(got, want):
                assert np.array_equal(_bits(g), _bits(w)), name

    def test_contains_map_values(self):
        rng = np.random.default_rng(2005)
        n = 10_000
        theta_lo, theta_hi, lo, hi = _random_boxes(rng, n)
        theta = rng.uniform(theta_lo, theta_hi)
        x = rng.uniform(lo, hi)
        image_lo, image_hi = quadmap.interval_image(theta_lo, theta_hi, lo, hi)
        values = theta * x * (1.0 - x)
        assert np.all((image_lo <= values) & (values <= image_hi))
        assert np.all(image_hi <= 1.0)

    def test_fold_top_at_straddled_half(self):
        rng = np.random.default_rng(7)
        n = 1000
        theta_lo, theta_hi = np.sort(rng.uniform(1.0, 3.99, (2, n)), axis=0)
        lo, hi = rng.uniform(0.0, 0.5, n), rng.uniform(0.5, 1.0, n)
        _, top = quadmap.interval_image(theta_lo, theta_hi, lo, hi)
        expected = theta_hi * (0.25 * (1.0 + quadmap._BOUND_SLACK))
        assert np.array_equal(_bits(top), _bits(expected))
        # at theta = 4 the rounded peak passes 1 and is clipped there
        assert quadmap.interval_image(4.0, 4.0, 0.4, 0.6)[1] == 1.0


class TestLyapunov:
    def test_attractive_fixed_point(self):
        lam = quadmap.lyapunov_deterministic(2.5, 0.3, 5000, burn_in=500)
        assert lam == pytest.approx(np.log(0.5), abs=1e-3)

    def test_period2(self):
        lam = quadmap.lyapunov_deterministic(3.2, 0.3, 20_000, burn_in=1000)
        assert lam == pytest.approx(0.5 * np.log(0.16), abs=1e-3)

    def test_chaotic_full_map(self):
        # long-run average oracle: the exact exponent at theta = 4 is log 2
        # the float orbit escapes (0, 1) at step 7,890,666, so the average is
        # truncated to its first 7,889,666 terms, with a warning
        with pytest.warns(RuntimeWarning, match="escaped"):
            lam = quadmap.lyapunov_deterministic(4.0, 0.3123, 10_000_000, burn_in=1000)
        assert lam == pytest.approx(np.log(2.0), abs=1e-2)

    def test_needs_terms(self):
        with pytest.raises(ValueError):
            quadmap.lyapunov_deterministic(2.5, 0.3, 100, burn_in=100)


def test_dq_equals_frozen_loop_on_orbit_tables():
    # real searches: whole windows, windows with holes, and chaotic ranges
    for lo, hi in [(2.2, 2.8), (2.9, 3.1), (3.1, 3.4), (3.4, 3.6), (3.55, 3.65), (3.82, 3.86)]:
        for m in (1, 2, 3, 4):
            for n in (3, 7, 25):
                table = quadmap.q_of_theta((lo, hi), m, n)
                want = frozen_dq(table.thetas, table.q)
                assert np.array_equal(table.dq.view(np.int64), want.view(np.int64)), (lo, hi, m, n)
