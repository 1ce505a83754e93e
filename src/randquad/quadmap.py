"""Deterministic quadratic-map core.

Everything here concerns the one-parameter family F_theta(x) = theta*x*(1-x)
on the open interval (0, 1): the search for attractive periodic orbits
with their multipliers, the largest-orbit-point function q(theta), the
common invariant interval for a parameter band, the outward-rounded image of
an interval under a parameter band, and Lyapunov exponents.
All functions are pure; no randomness enters this module.

The periodic-orbit search follows the critical point 1/2 alone.  F_theta
has negative Schwarzian derivative and one critical point, so it has at
most one attracting cycle, and that cycle attracts 1/2 (D. Singer, SIAM J.
Appl. Math. 35 (1978) 260-267).  The search warms 1/2 up over many steps
and Newton-refines the end state.  The map is a fixed IEEE function of the
state, so once the float orbit repeats exactly it repeats forever: the
warm-up checks for that at two lags (see _warm_up) and on a repeat jumps to
the state the full warm-up would end in, bit for bit.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

__all__ = [
    "DomainError",
    "PeriodicOrbit",
    "QTable",
    "find_periodic_orbit",
    "check_transversality",
    "q_of_theta",
    "invariant_interval",
    "interval_image",
    "lyapunov_deterministic",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
MIN_PERIOD_TOL = 1e-9
WARMUP_STEPS = 10_000
# warm-up steps between checks for an exactly repeating float orbit: the
# state _SHORT_LAG steps back over the first _SHORT_BLOCKS blocks, which
# catches a fast-converging orbit whose period divides 24 (1-4, 6, 8, 12),
# then the state _CYCLE_BLOCK steps back, whose divisors cover the periods
# 1-6 and 8; an orbit that never repeats pays _SHORT_BLOCKS extra comparisons
_SHORT_LAG = 24
_SHORT_BLOCKS = 10
_CYCLE_BLOCK = 240
# relative roundoff allowance per operation (~4500 unit roundoffs) by which
# interval images widen; kernel's box bounds and chained sums use it too, and
# 1e-9 would zero the automatic m = 1 J, whose y / s stops the window's pad
# (1e-9 of the support width) short of the support's end
_BOUND_SLACK = 1e-12


class DomainError(ValueError):
    """Argument outside the admissible domain of the map family."""


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 < theta <= 4.0):
        raise DomainError(f"map parameter {theta!r} outside (0, 4]")
    return theta


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_state(x: float) -> float:
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"state {x!r} outside the state space (0, 1)")
    return x


@dataclass(frozen=True)
class PeriodicOrbit:
    """An attractive cycle of F_theta.

    points are sorted ascending; the cycle order is recoverable by applying
    the map.  multiplier is the derivative of F_theta^m along the cycle,
    Lambda = prod theta*(1 - 2*x_i); the orbit is attractive iff |Lambda| < 1.
    """

    theta: float
    period: int
    points: tuple[float, ...]
    multiplier: float

    def __post_init__(self):
        if self.period < 1 or len(self.points) != self.period:
            raise ValueError("period must match the number of orbit points")
        if any(not (0.0 < p < 1.0) for p in self.points):
            raise ValueError("orbit points must lie in (0, 1)")
        if list(self.points) != sorted(self.points):
            raise ValueError("orbit points must be sorted ascending")

    @property
    def attractive(self) -> bool:
        return abs(self.multiplier) < 1.0

    @property
    def largest_point(self) -> float:
        """q(theta), the largest point of the cycle."""
        return self.points[-1]


def _orbit_multiplier(theta: float, x: float, m: int) -> tuple[float, float]:
    """Return (F_theta^m(x), d/dx F_theta^m(x)) by the chain rule."""
    deriv = 1.0
    for _ in range(m):
        deriv *= theta * (1.0 - 2.0 * x)
        x = theta * x * (1.0 - x)
    return x, deriv


def _newton_refine(theta: float, x: float, m: int) -> tuple[float, float] | None:
    """Newton iteration on F_theta^m(x) - x; (root, multiplier at the root) or None."""
    for _ in range(NEWTON_MAX_ITER):
        fx, dfx = _orbit_multiplier(theta, x, m)
        g = fx - x
        dg = dfx - 1.0
        if abs(g) < NEWTON_TOL:
            return x, dfx
        if dg == 0.0:
            return None
        step = g / dg
        x_new = x - step
        if not (0.0 < x_new < 1.0):
            return None
        x = x_new
    fx, dfx = _orbit_multiplier(theta, x, m)
    return (x, dfx) if abs(fx - x) < NEWTON_TOL else None


def _minimal_period_ok(theta: float, x: float, m: int) -> bool:
    # reject candidates whose minimal period properly divides m
    for d in range(1, m):
        if m % d == 0:
            fd, _ = _orbit_multiplier(theta, x, d)
            if abs(fd - x) < MIN_PERIOD_TOL:
                return False
    return True


def _warm_up(theta: float, x: float, steps: int) -> float:
    """F_theta applied steps times to x, stopping early once the float orbit repeats.

    The steps run in _SHORT_BLOCKS blocks of _SHORT_LAG, then in blocks of
    _CYCLE_BLOCK, while a whole block is left.  A block of L steps that ends
    on the state it started from makes the float orbit exactly periodic with
    a period dividing L, so only the steps left modulo L are taken after it.
    """
    prev = x
    left = steps
    for lag in chain(repeat(_SHORT_LAG, _SHORT_BLOCKS), repeat(_CYCLE_BLOCK)):
        if left < lag:
            break
        for _ in range(lag):
            x = theta * x * (1.0 - x)
        left -= lag
        if x == prev:
            left %= lag
            break
        prev = x
    for _ in range(left):
        x = theta * x * (1.0 - x)
    return x


def _orbit_from_candidate(theta: float, x: float, m: int) -> PeriodicOrbit | None:
    """Newton-polish a warmed-up state into an attractive orbit of minimal period m.

    None when Newton fails or the polished cycle is rejected.
    """
    refined = _newton_refine(theta, x, m)
    if refined is None:
        return None
    root, multiplier = refined
    if not abs(multiplier) < 1.0 or not _minimal_period_ok(theta, root, m):
        return None
    points = [root]
    y = root
    for _ in range(m - 1):
        y = theta * y * (1.0 - y)
        points.append(y)
    if any(not (0.0 < p < 1.0) for p in points):
        return None
    return PeriodicOrbit(
        theta=theta,
        period=m,
        points=tuple(sorted(points)),
        multiplier=multiplier,
    )


def find_periodic_orbit(theta: float, m: int) -> PeriodicOrbit | None:
    """Locate an attractive period-m orbit of F_theta, or return None.

    The critical point 1/2 is warmed up for WARMUP_STEPS steps (read at call
    time), stopping early once its float orbit repeats exactly (see
    _warm_up), in the state the full warm-up reaches.  Newton refinement on
    x -> F_theta^m(x) - x polishes that state to 1e-12.  A candidate whose
    minimal period properly divides m, or whose multiplier is not strictly
    inside the unit interval, is rejected.  By Singer's theorem the one
    attracting cycle of F_theta, when there is one, attracts 1/2, so
    another start could only reach the same cycle.  None therefore
    means "1/2 reached no attractive orbit of minimal period m within the
    warm-up", not a proof of absence: a cycle whose multiplier is within
    rounding of 1 may not be reached in time.  At theta = 4 the orbit of
    1/2 lands on the repelling fixed point 0, which the multiplier check
    rejects.  A period m that is not an integer >= 1 raises ValueError.

    For theta <= 1 the search returns None at once: F_theta(x) < x on
    (0, 1), so every orbit decreases and none is periodic.  (A warmed-up
    state near 0 would otherwise pass Newton's absolute tolerance.)
    """
    theta = _check_theta(theta)
    _check_count("period", m, 1)
    if theta <= 1.0:
        return None
    return _orbit_from_candidate(theta, _warm_up(theta, 0.5, WARMUP_STEPS), m)


def check_transversality(orbit: PeriodicOrbit) -> float:
    """Derivative of F_theta^m(x) - x at the largest orbit point.

    Equals Lambda - 1 and must be strictly negative for an attractive orbit;
    this is the inverse-function-theorem hypothesis behind the local
    diffeomorphism theta -> q(theta).
    """
    if not orbit.attractive:
        raise ValueError("transversality check requires an attractive orbit")
    _, deriv = _orbit_multiplier(orbit.theta, orbit.largest_point, orbit.period)
    return deriv - 1.0


@dataclass
class QTable:
    """Sampled q(theta) over one hyperbolic window, with derivative estimates.

    dq holds centered finite differences (one-sided at the ends and next to a
    hole); entries are NaN at holes, i.e. samples where no attractive
    period-m orbit was found.
    orbits[i] is the orbit found at thetas[i], None at a hole.
    """

    m: int
    thetas: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    holes: list[float]
    orbits: list[PeriodicOrbit | None]

    @property
    def monotone(self) -> bool:
        """Strict monotonicity of q on non-hole samples.

        Every dq that q_of_theta builds is a difference of q samples in
        ascending theta over a positive spacing, so it takes their one sign.
        """
        diffs = np.diff(self.q[~np.isnan(self.q)])
        return len(diffs) > 0 and bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))


def q_of_theta(theta_range, m: int, n_samples: int) -> QTable:
    """Tabulate q(theta) = largest point of the attractive m-cycle.

    Parameters
    ----------
    theta_range : (lo, hi) pair inside one hyperbolic window, 0 < lo < hi <= 4
    m : cycle period, an integer >= 1
    n_samples : number of evenly spaced samples, an integer >= 3 (for derivatives)
    """
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if not (0.0 < lo < hi <= 4.0):
        raise DomainError(f"theta_range ({lo!r}, {hi!r}) must satisfy 0 < lo < hi <= 4")
    _check_count("n_samples", n_samples, 3)  # centered differences need 3
    thetas = np.linspace(lo, hi, n_samples)
    orbits = [find_periodic_orbit(th, m) for th in thetas]
    q = np.array([np.nan if o is None else o.largest_point for o in orbits])
    holes = [float(th) for th, o in zip(thetas, orbits) if o is None]
    # centered differences, one-sided next to a hole or at an end, NaN at a hole
    h = thetas[1] - thetas[0]
    left, right = np.r_[np.nan, q[:-1]], np.r_[q[1:], np.nan]
    one_sided = np.where(np.isnan(right), (q - left) / h, (right - q) / h)
    dq = np.where(np.isnan(left + right), one_sided, (right - left) / (2.0 * h))
    dq[np.isnan(q)] = np.nan
    return QTable(m=m, thetas=thetas, q=q, dq=dq, holes=holes, orbits=orbits)


def invariant_interval(mu: float, nu: float) -> tuple[float, float]:
    """The pair (a, b) = (min(1 - 1/mu, F_mu(nu/4)), nu/4) for support [mu, nu].

    F_theta([a, b]) lies in [a, b] for all theta in [mu, nu]; the interval
    degenerates to the point 1/2 when mu = nu = 2.  Requires 1 < mu <= nu < 4.
    """
    mu, nu = float(mu), float(nu)
    if not (1.0 < mu <= nu < 4.0):
        raise DomainError("invariant interval needs 1 < mu <= nu < 4")
    b = nu / 4.0
    a = min(1.0 - 1.0 / mu, mu * b * (1.0 - b))
    if not (0.0 < a <= b < 1.0):
        raise ValueError("invariant interval requires 0 < a <= b < 1")
    return a, b


def interval_image(theta_lo, theta_hi, lo, hi):
    """Outward-rounded hull (lo', hi') of theta*x*(1-x) over theta in
    [theta_lo, theta_hi] and x in [lo, hi], elementwise over arrays.

    s = x(1-x) spans min(s(lo), s(hi)) to max(s(lo), s(hi)), or to 0.25 when
    [lo, hi] holds 1/2; both ends widen by _BOUND_SLACK and hi' stops at 1.
    """
    s_a, s_b = lo * (1.0 - lo), hi * (1.0 - hi)
    peak = np.where((lo <= 0.5) & (0.5 <= hi), 0.25, np.maximum(s_a, s_b))
    s_lo = np.minimum(s_a, s_b) * (1.0 - _BOUND_SLACK)
    s_hi = peak * (1.0 + _BOUND_SLACK)
    return theta_lo * s_lo, np.minimum(theta_hi * s_hi, 1.0)


def lyapunov_deterministic(
    theta: float, x0: float, n: int, burn_in: int = 0
) -> float:
    """Time-averaged log-derivative (1/(n - burn_in)) sum log|theta*(1 - 2*x_k)|.

    Terms where the orbit sits exactly on the vertex (zero derivative) are
    skipped and the average renormalized; if the orbit escapes (0, 1), which
    only theta = 4 permits, the sum stops early.  Both events trigger a
    RuntimeWarning since they indicate a nongeneric start.
    """
    theta = _check_theta(theta)
    x = _check_state(x0)
    if not n > burn_in:
        raise ValueError("need n > burn_in")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    total = 0.0
    count = 0
    skipped = 0
    for k in range(n):
        if k >= burn_in:
            deriv = abs(theta * (1.0 - 2.0 * x))
            if deriv == 0.0:
                skipped += 1
            else:
                total += math.log(deriv)
                count += 1
        x = theta * x * (1.0 - x)
        if not (0.0 < x < 1.0):
            warnings.warn(
                f"orbit escaped (0, 1) at step {k + 1}; Lyapunov average "
                f"truncated to {count} terms",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    if skipped:
        warnings.warn(
            f"skipped {skipped} vertex terms with zero derivative",
            RuntimeWarning,
            stacklevel=2,
        )
    if count == 0:
        raise ValueError("no usable terms in the Lyapunov average")
    return total / count
