"""Command-line surface.

Every subcommand is a pure function of (config file, --set overrides): the
same inputs produce byte-identical output files, whatever the thread count.
Numeric output carries 17 significant digits so values round-trip exactly.
trajectory.csv and density.csv are formatted by a vectorised %.17g with the
bytes of % itself: Dekker's error-free product gives v * 10**(16 - k) exactly
as hi + lo, hi is an even integer, and hi + rint(lo) rounds half to even;
values outside [1e-4, 1e16) other than +0.0 go through % (see _format_17g).
`--threads N` (or `sim.threads`) sets the number of forked worker processes
that `stability` walks its lanes in, capped at the lanes and at the usable
CPUs; the other subcommands ignore it.

Exit codes: 0 success, 1 error (bad config, bad arguments, numeric
failure), 2 negative verdict (hypotheses not satisfied, no certificate,
instability, inconclusive period) so sweeps can script against outcomes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, kernel, quadmap
from .config import ConfigError, ExperimentConfig, load_config
from .engine import occupation_measure, simulate_trajectory
from .noise import check_conditions, substream

__all__ = ["main", "entry"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return "none"
    return str(value)


def _write_report(outdir: Path, items) -> None:
    lines = [f"{key} = {_fmt(value)}\n" for key, value in items]
    (outdir / "report.txt").write_text("".join(lines), encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# trajectory.csv rows per write; density.csv writes about 3 * CSV_ROWS cells at a time
CSV_ROWS = 4096
# a %.17g field: "0.000" (k < 0), digit 0, two NULs, then 16 pairs (point slot, digit)
FIELD = 40


def _words(texts, width=8) -> np.ndarray:
    """NUL-padded byte strings as uint64 words; only & and | touch them, so byte order is moot."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint64)


_POW10 = np.array([float(10**j) for j in range(23)])  # exact up to 10**22
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)  # Veltkamp's split
_POW10_LO = _POW10 - _POW10_HI
_DIGITS = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T  # row r: the digits of r
_PAIRS = np.stack([0 * _DIGITS, _DIGITS + ord("0")], -1).reshape(-1, 8).view(np.uint64)[:, 0]
_IS_ZERO = _DIGITS == 0
_TRAILING_ZEROS = _IS_ZERO[:, 3] * (
    1 + _IS_ZERO[:, 2] * (1 + _IS_ZERO[:, 1] * (1 + _IS_ZERO[:, 0].astype(np.int8)))
)
_HEAD = _words(  # entry (k + 4) * 10 + d: "0." and the zeros k < 0 needs, then digit d
    (b"0." + b"0" * (-1 - k) if k < 0 else b"").ljust(5, b"\0") + b"%d" % d
    for k in range(-4, 16)
    for d in range(10)
)
_POINT = _words(  # row k + 4: a point in the slot after digit k
    (b"\0" * 2 * k + b"." if k >= 0 else b"" for k in range(-4, 16)), 32
).reshape(20, 4)
_KEEP = _words((b"\xff" * 2 * last for last in range(17)), 32).reshape(17, 4)  # digits 1..last
_ZERO = np.frombuffer(b"0".ljust(FIELD, b"\0"), np.uint8)


def _format_17g(values: np.ndarray, out: np.ndarray) -> None:
    """Write b"%.17g" % v, NUL-padded, into out[i, :FIELD] for every v = values.flat[i].

    out is a uint8 matrix with one row per value, at least FIELD wide, each row contiguous.
    For finite v in [1e-4, 1e16), %.17g prints the 17 digits of N = round(v * 10**(16 - k)),
    k = floor(log10 v), in fixed point, rounded correctly and half to even (Gay's dtoa).
    10**j is exact for j <= 22, so Dekker's product gives v * 10**(16 - k) exactly as
    hi + lo, and k is corrected by one until 1e16 <= hi + lo < 1e17. Then hi >= 2**53 is
    an even integer and |lo| <= 8, so N = hi + rint(lo) is rounded half to even; N = 10**17
    is 10**16 with k + 1. Trailing zeros after the point, and a point with no digit after
    it, are masked to NUL. +0.0 is "0"; every other value (-0.0, negatives, subnormals,
    the rest below 1e-4, 1e16 and up, inf, nan) is formatted by %.
    """
    v = np.asarray(values, dtype=float).ravel()
    fast = (v >= 1e-4) & (v < 1e16)
    x = np.where(fast, v, 1.0)
    xh = 134217729.0 * x - (134217729.0 * x - x)
    xl = x - xh
    k = np.floor(np.log10(x)).astype(np.int64)
    while True:  # until 1e16 <= hi + lo < 1e17; log10 may miss by one near a power of 10
        hi, ph, pl = x * _POW10[16 - k], _POW10_HI[16 - k], _POW10_LO[16 - k]
        lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl  # Dekker: x * 10**(16 - k) - hi
        shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.int64)
        shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        if not shift.any():
            break
        k += shift
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    g = np.empty((len(v), 4), np.int64)
    d0 = n  # N = d0 and four groups of four digits
    for i in (3, 2, 1, 0):
        q = d0 // 10**4
        g[:, i] = d0 - q * 10**4
        d0 = q
    tz = np.take(_TRAILING_ZEROS, g)
    z = g == 0
    tz = tz[:, 3] + z[:, 3] * (tz[:, 2] + z[:, 2] * (tz[:, 1] + z[:, 1] * tz[:, 0]))
    last = np.maximum(16 - tz, k)  # the last digit written
    out[:, :8].view(np.uint64)[:, 0] = np.take(_HEAD, (k + 4) * 10 + d0)
    # the point sits in the slot before digit k + 1, so it is kept only if that digit is
    pairs = np.take(_PAIRS, g)
    pairs |= np.take(_POINT, k + 4, axis=0)
    pairs &= np.take(_KEEP, last, axis=0)
    out[:, 8:FIELD].view(np.uint64)[:] = pairs
    zero = (v == 0.0) & ~np.signbit(v)
    out[zero, :FIELD] = _ZERO
    slow = ~(fast | zero)
    text = b"".join((b"%.17g" % s).ljust(FIELD, b"\0") for s in v[slow].tolist())
    out[slow, :FIELD] = np.frombuffer(text, np.uint8).reshape(-1, FIELD)


def _csv_rows(cells: np.ndarray) -> bytes:
    """The rows of a float matrix as %.17g cells joined by ',', each row ending in '\\n'."""
    rows, cols = cells.shape
    m = np.empty((rows * cols, FIELD + 1), np.uint8)
    _format_17g(cells, m)
    m[:, FIELD] = ord(",")
    m[cols - 1 :: cols, FIELD] = ord("\n")
    return m.tobytes().translate(None, b"\0")


def _trajectory_csv(path: Path, traj) -> None:
    """Write step, x, epsilon rows; the same bytes as _write_csv, CSV_ROWS rows per write.

    The steps go through _format_17g as floats: an integer below 1e16 prints as %d.
    """
    n = len(traj.epsilons)
    with open(path, "wb") as fh:
        fh.write(b"step,x,epsilon\n0,%.17g,\n" % traj.values[0])
        for lo in range(0, n, CSV_ROWS):
            hi = min(lo + CSV_ROWS, n)
            steps = np.arange(lo + 1, hi + 1, dtype=float)
            rows = np.column_stack([steps, traj.values[lo + 1 : hi + 1], traj.epsilons[lo:hi]])
            fh.write(_csv_rows(rows))


def _density_csv(path: Path, grid) -> None:
    """Write one row of cell densities per source state; the same bytes as _write_csv."""
    centers = 0.5 * (grid.y_edges[:-1] + grid.y_edges[1:])
    rows = np.column_stack([grid.x_values, grid.values])
    step = max(1, 3 * CSV_ROWS // rows.shape[1])
    with open(path, "wb") as fh:
        fh.write(b"x," + _csv_rows(centers[None, :]))
        for lo in range(0, len(rows), step):
            fh.write(_csv_rows(rows[lo : lo + step]))


def _occupation_csv(path: Path, measure) -> None:
    edges = measure.bin_edges
    freq = measure.frequencies
    _write_csv(
        path,
        ["bin_left", "bin_right", "count", "frequency"],
        zip(edges[:-1], edges[1:], measure.counts, freq),
    )


# --------------------------------------------------------------------- #
# subcommands


def _cmd_check(cfg: ExperimentConfig, outdir: Path) -> int:
    report = check_conditions(cfg.noise_model())
    c, d, inf_h = report.density_interval or (None, None, None)
    _write_report(
        outdir,
        [
            ("e_log", report.e_log),
            ("e_log4m", report.e_log4m),
            ("support_mu", report.support_bounds[0]),
            ("support_nu", report.support_bounds[1]),
            ("density_interval_lo", c),
            ("density_interval_hi", d),
            ("density_interval_inf_h", inf_h),
            ("moments_ok", report.moments_ok),
            ("density_ok", report.density_ok),
            ("all_ok", report.all_ok),
        ],
    )
    return 0 if report.all_ok else 2


def _cmd_simulate(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    sim = cfg.sim_config()
    x0 = cfg.get("simulate", "x0", sim.initial_states[0])
    n = cfg.get("simulate", "n", sim.n_steps)
    traj = simulate_trajectory(model, x0, n, substream(sim.master_seed))
    measure = occupation_measure(traj, sim.bin_edges, min(sim.burn_in, len(traj.values) - 1))
    if cfg.get("simulate", "write_trajectory", True):
        _trajectory_csv(outdir / "trajectory.csv", traj)
    _occupation_csv(outdir / "occupation.csv", measure)
    _write_report(
        outdir,
        [
            ("x0", x0),
            ("steps", len(traj.values) - 1),
            ("absorbed", traj.absorbed),
            ("final_x", traj.values[-1]),
            ("binned_total", measure.total),
            ("underflow", measure.underflow),
            ("overflow", measure.overflow),
        ],
    )
    return 0


def _cmd_orbit(cfg: ExperimentConfig, outdir: Path) -> int:
    lo = cfg.require("orbit", "theta_min")
    hi = cfg.require("orbit", "theta_max")
    m = cfg.get("orbit", "period", 1)
    samples = cfg.get("orbit", "samples", 25)
    table = quadmap.q_of_theta((lo, hi), m, samples)
    rows = []
    for i, (theta, orbit) in enumerate(zip(table.thetas, table.orbits)):
        if orbit is None:
            rows.append([theta, "", "", ""] + [""] * m)
        else:
            rows.append(
                [theta, table.q[i], table.dq[i], orbit.multiplier] + list(orbit.points)
            )
    header = ["theta", "q", "q_prime", "multiplier"] + [f"point_{k+1}" for k in range(m)]
    _write_csv(outdir / "orbits.csv", header, rows)
    _write_report(
        outdir,
        [
            ("period", m),
            ("samples", samples),
            ("holes", len(table.holes)),
            ("monotone", table.monotone),
        ],
    )
    return 0 if table.monotone and not table.holes else 2


def _cmd_kernel(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    x_points = cfg.require("kernel", "x_points")
    if len(set(x_points)) < len(x_points):  # each source state names one report key
        raise ConfigError("kernel.x_points repeats a source state: list each one once")
    n = cfg.get("kernel", "steps", 1)
    resolution = cfg.get("kernel", "resolution", 512)
    grid = kernel.density_grid(model, x_points, n, resolution=resolution)
    _density_csv(outdir / "density.csv", grid)
    drift = float(np.max(np.abs(grid.row_integrals - grid.expected_mass)))
    items = [("n", n), ("resolution", resolution), ("expected_mass", grid.expected_mass)]
    items += [
        (f"row_integral_x_{_fmt(x)}", ri) for x, ri in zip(grid.x_values, grid.row_integrals)
    ]
    items.append(("max_drift", drift))
    _write_report(outdir, items)
    return 0 if drift <= 1e-6 else 2


def _cmd_minorize(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    theta0 = cfg.require("minorize", "theta0")
    m = cfg.get("minorize", "period", 1)
    j_lo = cfg.get("minorize", "j_lo")
    j_hi = cfg.get("minorize", "j_hi")
    if (j_lo is None) != (j_hi is None):
        given, missing = ("j_hi", "j_lo") if j_lo is None else ("j_lo", "j_hi")
        raise ConfigError(
            f"minorize.{given} is set but minorize.{missing} is missing: "
            "set both ends of J, or neither for the automatic J"
        )
    J = None if j_lo is None else (j_lo, j_hi)
    outcome = kernel.minorization_probe(
        model,
        theta0,
        m,
        J=J,
        grid_n=cfg.get("minorize", "grid", 64),
        resolution=cfg.get("minorize", "resolution", 2048),
    )
    if outcome.ok:
        _write_report(outdir, [("certified", True)] + list(outcome.to_record().items()))
        return 0
    _write_report(
        outdir,
        [
            ("certified", False),
            ("message", outcome.message),
            ("bound", outcome.bound),
        ],
    )
    return 2


def _cmd_stability(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    sim = cfg.sim_config()
    threads = cfg.get("sim", "threads", 1)
    report = diagnostics.stability_test(model, sim.initial_states, sim, workers=threads)
    k = len(report.initial_states)
    _write_csv(
        outdir / "tv_matrix.csv",
        ["x0"] + [_fmt(x) for x in report.initial_states],
        ([report.initial_states[i]] + list(report.tv_matrix[i]) for i in range(k)),
    )
    _write_report(
        outdir,
        [
            ("max_cross_tv", report.max_cross_tv),
            ("noise_scale", report.noise_scale),
            ("stable", report.stable),
            ("advisory", report.advisory),
            ("absorbed", report.absorbed),
        ],
    )
    return 0 if report.stable else 2


def _cmd_extinction(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    sim = cfg.sim_config()
    report = diagnostics.extinction_test(
        model,
        cfg.get("extinction", "x0", sim.initial_states[0]),
        cfg.require("extinction", "checkpoints"),
        cfg.get("extinction", "replicates", sim.n_replicates),
        cfg.get("extinction", "threshold", 1e-3),
        sim.master_seed,
        stream_key=(7,),
    )
    _write_csv(
        outdir / "checkpoints.csv",
        ["checkpoint", "fraction_below"],
        zip(report.checkpoints, report.fractions),
    )
    _write_report(
        outdir,
        [
            ("threshold", report.threshold),
            ("replicates", report.n_replicates),
            ("final_fraction", report.final_fraction),
            ("nondecreasing", report.nondecreasing_within()),
        ],
    )
    return 0


def _cmd_cyclicity(cfg: ExperimentConfig, outdir: Path) -> int:
    model = cfg.noise_model()
    sim = cfg.sim_config()
    report = diagnostics.cyclicity_detect(
        model,
        (cfg.require("cyclicity", "j_lo"), cfg.require("cyclicity", "j_hi")),
        cfg.get("cyclicity", "steps", sim.n_steps),
        cfg.get("cyclicity", "d_max", 8),
        substream(sim.master_seed, 11),
        x0=cfg.get("cyclicity", "x0", sim.initial_states[0]),
        burn_in=sim.burn_in,
    )
    _write_csv(
        outdir / "residues.csv",
        ["residue", "mass"],
        enumerate(report.residue_masses),
    )
    items = [
        ("period", report.period),
        ("aperiodic", report.aperiodic),
        ("visit_frequency", report.visit_frequency),
        ("n_visits", report.n_visits),
    ]
    items += [(f"concentration_d{d}", r) for d, r in sorted(report.concentration_by_d.items())]
    _write_report(outdir, items)
    return 2 if report.inconclusive else 0


def _cmd_kolmogorov(cfg: ExperimentConfig, outdir: Path) -> int:
    sim = cfg.sim_config()
    report = diagnostics.kolmogorov_approx(
        cfg.require("kolmogorov", "theta0"),
        cfg.require("kolmogorov", "eta"),
        sim,
    )
    _occupation_csv(outdir / "occupation_noise.csv", report.noise_measure)
    _occupation_csv(outdir / "occupation_deterministic.csv", report.deterministic_measure)
    _write_report(
        outdir,
        [
            ("theta0", report.theta0),
            ("eta", report.eta),
            ("tv", report.tv),
        ],
    )
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "orbit": _cmd_orbit,
    "kernel": _cmd_kernel,
    "minorize": _cmd_minorize,
    "stability": _cmd_stability,
    "extinction": _cmd_extinction,
    "cyclicity": _cmd_cyclicity,
    "kolmogorov": _cmd_kolmogorov,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randquad",
        description="Simulation and verification toolkit for randomly perturbed quadratic maps",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable; takes precedence over the file)",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes that stability forks to walk its lanes, capped at "
        "the lanes and the usable CPUs; other subcommands ignore it, and no "
        "output byte depends on it (default: sim.threads or 1)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} must be SECTION.KEY=VALUE")
            dotted, raw = item.split("=", 1)
            cfg.override(dotted.strip(), raw)
        if args.threads is not None:
            cfg.override("sim.threads", str(args.threads))
        threads = cfg.get("sim", "threads", 1)
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.subcommand](cfg, outdir)
    except ConfigError as exc:
        print(f"randquad: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric failures carry module diagnostics
        print(f"randquad: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
