#!/usr/bin/env python3
"""End-to-end benchmark for randquad.

Drives ``randquad.cli.main`` in-process, the way a user runs the tool, over
one of four workloads (see README.md for why each exists), and checks every
operation's exit code and verdict.  The program is imported from ``src/``
next to this directory; the run fails without printing a result when it is
missing.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of untraced passes, their times relative to
a fixed reference computation run beside them; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (spans.py).
The line before it holds the run's details: environment, per-op sha256 of
the ``--out`` files, per-op problems and, when traced, self-time shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
WORKLOADS = ("ensemble", "chain", "lockstep", "certify")
MIN_PASSES = 5
# reference runs per cycle take about this share of a pass's wall time
REF_SHARE = 0.4
DEFAULT_SEED = 20240

# attractive 2-cycles of F_theta exist exactly for 3 < theta < 1 + sqrt(6);
# orbit samples keep this margin from both edges, where the search is
# sensitive to the multiplier sitting at +-1
PERIOD2_WINDOW = (3.0, 1.0 + math.sqrt(6.0))
EDGE_MARGIN = 0.006


@dataclass
class Op:
    """One operation of a workload.

    A CLI op runs ``randquad <argv> --config <cfg> --out <dir>`` and is
    judged on its exit code and ``report.txt``; a library op calls ``call``
    and is judged on its return value.  ``gates`` are (label, test) pairs,
    each test taking (exit code or return value, report); ``steps`` gives
    the chain-state updates (lanes x steps) the op performs.
    """

    name: str
    gates: list
    steps: Callable[[object], int]
    argv: list | None = None
    config: str | None = None
    call: Callable[[], object] | None = None


def _ini(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
        for name, body in sections.items()
    )


def _num(report, key):
    return float(report[key])


EXIT_0 = ("exit 0", lambda code, r: code == 0)


def _sim(seed, steps, **extra):
    return {"seed": seed, "steps": steps, "burn_in": 1000, **extra}


def _ensemble(seed, rng, nproc):
    steps, reps, starts = 100_000, 4, (0.05, 0.5, 0.95)
    cfg = {
        "noise": {"pieces": "2.0:3.0:1.0"},
        "sim": _sim(seed, steps, replicates=reps, bins=200,
                    initial_states=" ".join(map(str, starts))),
    }
    # one ensemble per start plus the same-start pair that calibrates the verdict
    lanes = (len(starts) + 2) * reps
    return [
        Op(
            "stability",
            [EXIT_0,
             ("stable = true", lambda c, r: r["stable"] == "true"),
             ("absorbed = 0", lambda c, r: r["absorbed"] == "0")],
            lambda _: lanes * steps,
            argv=["stability", "--threads", str(min(2, nproc))],
            config=_ini(cfg),
        )
    ]


def _chain(seed, rng, nproc):
    n_sim, n_cyc, n_kol = 150_000, 100_000, 2_000_000
    x0 = round(rng.uniform(0.05, 0.95), 4)
    ops = [
        Op(
            "simulate",
            [EXIT_0, (f"steps = {n_sim}", lambda c, r: r["steps"] == str(n_sim))],
            lambda _: n_sim,
            argv=["simulate", "--threads", "1"],
            config=_ini({
                "noise": {"pieces": "2.0:3.0:1.0"},
                "sim": _sim(seed, n_sim),
                "simulate": {"n": n_sim, "x0": x0, "write_trajectory": "true"},
            }),
        )
    ]
    for pieces, (j_lo, j_hi), period in (
        ("3.15:3.25:1.0", (0.75, 0.85), 2),
        ("2.2:2.8:1.0", (0.5455, 0.6428), 1),
    ):
        ops.append(Op(
            f"cyclicity-p{period}",
            [EXIT_0, (f"period = {period}", lambda c, r, p=period: r["period"] == str(p))],
            lambda _: 1000 + n_cyc,
            argv=["cyclicity", "--threads", "1"],
            config=_ini({
                "noise": {"pieces": pieces},
                "sim": _sim(seed, n_cyc),
                "cyclicity": {"j_lo": j_lo, "j_hi": j_hi, "d_max": 8, "steps": n_cyc},
            }),
        ))
    ops.append(Op(
        "kolmogorov",
        [EXIT_0, ("tv <= 0.1", lambda c, r: _num(r, "tv") <= 0.1)],
        # the noisy chain plus the deterministic orbit matched in length
        lambda _: 2 * n_kol,
        argv=["kolmogorov", "--threads", "1"],
        config=_ini({
            "sim": _sim(seed, n_kol, replicates=1, bins=200, initial_states=0.3123),
            "kolmogorov": {"theta0": 3.9, "eta": 0.01},
        }),
    ))
    return ops


def _lockstep(seed, rng, nproc):
    from randquad import kernel, noise

    reps, checkpoints = 200, (10, 100, 1000, 10_000, 30_000)
    n_max, n_paths, J = 1000, 200, (0.5455, 0.6428)

    def extinction(name, pieces, gates):
        return Op(
            name,
            [EXIT_0] + gates,
            lambda _: reps * checkpoints[-1],
            argv=["extinction", "--threads", "1"],
            config=_ini({
                "noise": {"pieces": pieces},
                "sim": _sim(seed, 2000, initial_states=0.5),
                "extinction": {
                    "threshold": 0.001,
                    "checkpoints": " ".join(map(str, checkpoints)),
                    "replicates": reps,
                },
            }),
        )

    return [
        extinction("extinction-dying", "0.5:1.5:1.0", [
            ("final_fraction >= 0.9", lambda c, r: _num(r, "final_fraction") >= 0.9),
            ("nondecreasing", lambda c, r: r["nondecreasing"] == "true"),
        ]),
        extinction("extinction-surviving", "2.0:3.0:1.0", [
            ("final_fraction = 0", lambda c, r: _num(r, "final_fraction") == 0.0),
        ]),
        Op(
            "irreducibility",
            [(f"enters J within {n_max} steps",
              lambda v, r: isinstance(v, int) and 1 <= v <= n_max)],
            lambda v: n_paths * v if isinstance(v, int) else 0,
            # started far below J, where the map needs several steps to climb
            call=lambda: kernel.irreducibility_probe(
                noise.NoiseModel.uniform(2.2, 2.8), 1e-6, J, n_max, n_paths, seed
            ),
        ),
    ]


def _orbit_sweep(rng, samples):
    """Theta range across both edges of the period-2 window, seeded."""
    import numpy as np

    lo_edge, hi_edge = PERIOD2_WINDOW
    while True:
        lo = round(rng.uniform(2.85, 2.95), 4)
        hi = round(rng.uniform(3.50, 3.56), 4)
        thetas = np.linspace(lo, hi, samples)
        if np.min(np.abs(thetas - lo_edge)) > EDGE_MARGIN and np.min(
            np.abs(thetas - hi_edge)
        ) > EDGE_MARGIN:
            inside = int(np.count_nonzero((thetas > lo_edge) & (thetas < hi_edge)))
            return lo, hi, samples - inside


def _certify(seed, rng, nproc):
    x_points = sorted(round(rng.uniform(0.25, 0.75), 4) for _ in range(4))
    samples = 25
    lo, hi, holes = _orbit_sweep(rng, samples)

    def minorize(name, pieces, theta0, period):
        return Op(
            name,
            [EXIT_0,
             ("certified = true", lambda c, r: r["certified"] == "true"),
             ("delta > 0", lambda c, r: _num(r, "delta") > 0.0)],
            lambda _: 0,
            argv=["minorize", "--threads", "1"],
            config=_ini({
                "noise": {"pieces": pieces},
                "minorize": {"theta0": theta0, "period": period},
            }),
        )

    return [
        Op(
            "kernel",
            [EXIT_0, ("max_drift <= 1e-6", lambda c, r: _num(r, "max_drift") <= 1e-6)],
            lambda _: 0,
            argv=["kernel", "--threads", "1"],
            config=_ini({
                "noise": {"pieces": "2.0:3.0:1.0"},
                "kernel": {
                    "x_points": " ".join(map(str, x_points)),
                    "steps": 3,
                    "resolution": 8192,
                },
            }),
        ),
        minorize("minorize-m1", "2.2:2.8:1.0", 2.5, 1),
        minorize("minorize-m2", "3.15:3.25:1.0", 3.2, 2),
        Op(
            "orbit",
            [("exit 2", lambda c, r: c == 2),
             (f"holes = {holes}", lambda c, r: r["holes"] == str(holes))],
            lambda _: 0,
            argv=["orbit", "--threads", "1"],
            config=_ini({
                "orbit": {"theta_min": lo, "theta_max": hi, "period": 2, "samples": samples},
            }),
        ),
    ]


BUILDERS = {"ensemble": _ensemble, "chain": _chain, "lockstep": _lockstep, "certify": _certify}


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations, with their config files written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](seed, rng, os.cpu_count() or 1)
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.config is not None:
            (workdir / f"{op.name}.cfg").write_text(op.config, encoding="utf-8")
    return ops


def _import_randquad():
    if not (SRC / "randquad" / "__init__.py").is_file():
        sys.exit(f"bench: no randquad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import randquad

    if Path(randquad.__file__).resolve().parent != SRC / "randquad":
        sys.exit(f"bench: imported randquad from {randquad.__file__}, not {SRC}")
    return randquad


# --------------------------------------------------------------------- #
# passes


def _report(outdir: Path) -> dict:
    path = outdir / "report.txt"
    if not path.is_file():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def _digest(outdir: Path) -> tuple[str, int]:
    """sha256 over the sorted names and contents of the --out files, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in outdir.iterdir() if p.is_file()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def run_pass(ops, workdir: Path) -> dict:
    """Run every op once; wall and CPU cover the ops only, checks come after."""
    from randquad import cli

    outcomes = []
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            if op.call is not None:
                outcomes.append(op.call())
            else:
                outdir = workdir / op.name
                outcomes.append(cli.main(
                    op.argv + ["--config", str(workdir / f"{op.name}.cfg"), "--out", str(outdir)]
                ))
        except (Exception, SystemExit) as exc:
            outcomes.append(exc)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0

    problems, digests, steps, written = {}, {}, 0, 0
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, BaseException):
            problems[op.name] = f"raised {type(outcome).__name__}: {outcome}"
            continue
        steps += op.steps(outcome)
        report = {}
        if op.call is None:
            report = _report(workdir / op.name)
            digests[op.name], size = _digest(workdir / op.name)
            written += size
        for label, test in op.gates:
            try:
                ok = test(outcome, report)
            except (KeyError, ValueError):
                ok = False
            if not ok:
                problems[op.name] = f"failed gate '{label}' (outcome {outcome!r})"
                break
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems, "digests": digests,
            "steps": steps, "bytes_written": written}


def _probe_cmd(flag: str, workload: str, seed: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), flag,
            "--workload", workload, "--seed", str(seed)]


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only imports, generates and parses configs."""
    t0 = time.perf_counter()
    subprocess.run(_probe_cmd("--setup-probe", workload, seed), check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    _import_randquad()
    from randquad import engine
    from randquad.config import load_config

    workdir = WORK / f"probe-{workload}-{seed}-{os.getpid()}"
    try:
        for op in build_ops(workload, seed, workdir):
            if op.config is not None:
                load_config(workdir / f"{op.name}.cfg")
        if hasattr(engine._advance, "py_func"):  # numba: pay the JIT compile here
            import numpy as np

            engine._advance(0.5, np.full(4, 2.5), np.empty(4))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_rss(workload: str, seed: int) -> dict:
    """One checked pass in a fresh process that runs nothing else: its ru_maxrss."""
    proc = subprocess.run(_probe_cmd("--rss-probe", workload, seed), check=True, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rss_probe(workload: str, seed: int) -> None:
    _import_randquad()
    workdir = WORK / f"rss-{workload}-{seed}-{os.getpid()}"
    try:
        p = run_pass(build_ops(workload, seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "digests": p["digests"], "problems": p["problems"]}))


def reference_work() -> tuple[float, float]:
    """Wall and CPU time of a fixed computation that uses no randquad code.

    It mixes what the workloads spend their time on: a scalar float
    recurrence indexed out of a numpy array, many small random draws, and
    numpy calls on vectors the size of a transfer-matrix row.  Run next to
    each pass, it measures how fast the host is at that moment: on a shared
    host the same work can take much longer from one minute to the next,
    and a pass slows down with it (README.md).
    """
    import numpy as np

    w0, c0 = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(7)
    eps = rng.uniform(2.0, 3.0, 800_000)
    out = np.empty_like(eps)
    x = 0.3
    for k in range(eps.shape[0]):
        x = eps[k] * x * (1.0 - x)
        out[k] = x
    np.histogram(out, bins=200, range=(0.0, 1.0))
    for _ in range(5000):
        rng.uniform(0.5, 1.5, 200)
    z = np.linspace(1e-6, 1.0 - 1e-6, 8193)
    rows = np.empty((256, 8192))
    for j in range(2560):
        c = np.clip(z, 1e-4 * j, 0.5 + 1e-4 * j)
        rows[j % 256] = np.diff(np.log(c / (1.0 - c)))
    rows.sum()
    return time.perf_counter() - w0, time.process_time() - c0


def reference(reps: int, runs=()) -> dict:
    """Mean wall and CPU time of reference_work over reps more runs and the given ones."""
    runs = list(runs) + [reference_work() for _ in range(reps)]
    return {"wall_s": statistics.fmean(w for w, _ in runs),
            "cpu_s": statistics.fmean(c for _, c in runs)}


def _relative(passes, refs, key: str) -> float:
    """Mean pass time over the mean time of one reference run, both over the whole run.

    Totals over the same stretch of time cancel the host's speed better than
    a median of per-pass ratios, each of which also carries the noise of the
    short reference runs next to its pass.
    """
    return statistics.fmean(p[key] for p in passes) / statistics.fmean(r[key] for r in refs)


def environment(seed: int) -> dict:
    import numpy as np

    from randquad import engine

    numba = hasattr(engine._advance, "py_func")
    return {
        "backend": "numba" if numba else "pure-python",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


# --------------------------------------------------------------------- #
# one workload


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    _import_randquad()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops = build_ops(workload, seed, workdir)
        rss = None if traced else measure_rss(workload, seed)
        # the first pass lets caches fill and lazy set-up finish; it is
        # checked like every other pass but not timed
        warmup = run_pass(ops, workdir)
        plain, tracers, traced_passes, setup, refs = [], [], [], [], []
        started = time.perf_counter()
        deadline = started + seconds
        if not traced:
            first = reference_work()
            reps = max(1, round(REF_SHARE * warmup["wall_s"] / first[0]))
            refs.append(reference(reps - 1, [first]))
        # a cycle is one pass, then (untraced) reference runs and a set-up
        # probe, so that all three sample the host over the whole run; no
        # cycle starts that would end past the deadline
        while len(plain) < MIN_PASSES or (
            time.perf_counter() + (time.perf_counter() - started) / len(plain) < deadline
        ):
            plain.append(run_pass(ops, workdir))
            if traced:
                from spans import Tracer

                with Tracer() as tracer:
                    traced_passes.append(run_pass(ops, workdir))
                tracers.append(tracer)
            else:
                refs.append(reference(reps))
                setup.append(setup_once(workload, seed))
        passes = [warmup] + plain + traced_passes
        if rss is not None:
            passes.append({"problems": rss["problems"], "digests": rss["digests"]})
        failed = 0
        problems = {}
        first_digests = warmup["digests"]
        for p in passes:
            for name, digest in p["digests"].items():
                if first_digests.get(name) != digest:
                    p["problems"].setdefault(name, "--out differs from the first pass")
            failed += len(p["problems"])
            for name, why in p["problems"].items():
                problems.setdefault(name, why)
        wall = statistics.median(p["wall_s"] for p in plain)
        info = {
            "workload": workload,
            "environment": environment(seed),
            "passes": len(plain),
            "traced_passes": len(traced_passes),
            "warmup_wall_s": warmup["wall_s"],
            "pass_wall_s": [p["wall_s"] for p in plain],
            "pass_cpu_s": [p["cpu_s"] for p in plain],
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "steps_per_pass": plain[0]["steps"],
            "digests": first_digests,
            "problems": problems,
        }
        if traced:
            from spans import layer_metrics, self_shares

            metrics = layer_metrics(tracers)
            metrics["wall_s"] = (wall, "s")
            metrics["cpu_s"] = (info["cpu_s"], "s")
            metrics["trace.overhead_s"] = (
                statistics.median(p["wall_s"] for p in traced_passes) - wall, "s")
            metrics["steps_per_s"] = (plain[0]["steps"] / wall, "steps/s")
            metrics["cli.bytes_written"] = (plain[0]["bytes_written"], "bytes")
            info["self_share"] = self_shares(tracers)
            tracers[-1].dump(WORK / f"spans-{workload}-{seed}.jsonl")
        else:
            info["reference_runs_per_cycle"] = reps
            info["reference_wall_s"] = [r["wall_s"] for r in refs]
            info["setup_s"] = setup
            metrics = {
                "wall_rel": (_relative(plain, refs, "wall_s"), "ratio"),
                "cpu_rel": (_relative(plain, refs, "cpu_s"), "ratio"),
                "peak_rss_mib": (rss["peak_rss_mib"], "MiB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        attempted = len(ops) * len(passes)
        return {
            "info": info,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process of its own, printed as one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:9s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        print(f"{workload:9s} {'ops failed / attempted':40s} "
              f"{result['failed']:>9d} / {result['attempted']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.rss_probe:
        rss_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
