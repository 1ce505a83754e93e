"""Command-line surface.

Every subcommand is a pure function of (config file, --set overrides): the
same inputs produce byte-identical output files, whatever the thread count.
Numeric output carries 17 significant digits so values round-trip exactly.
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


# trajectory.csv rows formatted per write: bounds the chunk's string and lists
CSV_ROWS = 4096


def _trajectory_csv(path: Path, traj) -> None:
    """Write step, x, epsilon rows; the same bytes as _write_csv, one % format per chunk."""
    n = len(traj.epsilons)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"step,x,epsilon\n0,{traj.values[0]:.17g},\n")
        for lo in range(0, n, CSV_ROWS):
            hi = min(lo + CSV_ROWS, n)
            flat = [None] * (3 * (hi - lo))
            flat[0::3] = range(lo + 1, hi + 1)
            flat[1::3] = traj.values[lo + 1 : hi + 1].tolist()
            flat[2::3] = traj.epsilons[lo:hi].tolist()
            fh.write(("%d,%.17g,%.17g\n" * (hi - lo)) % tuple(flat))


def _density_csv(path: Path, grid) -> None:
    """Write one row of cell densities per source state; the same bytes as _write_csv,
    one % format per row."""
    centers = 0.5 * (grid.y_edges[:-1] + grid.y_edges[1:])
    cells = ",%.17g" * len(centers) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(("x" + cells) % tuple(centers.tolist()))
        row = "%.17g" + cells
        fh.writelines(
            row % (x, *vals) for x, vals in zip(grid.x_values.tolist(), grid.values.tolist())
        )


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
    if not x_points:
        raise ConfigError("kernel.x_points is empty: list at least one source state")
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
