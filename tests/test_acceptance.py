"""Acceptance suite: every exit criterion at its stated scale and tolerance.

One test per criterion; each records a PASS/FAIL line that the conftest
hook prints in the terminal summary.  Scales follow the criteria, so this
module dominates the suite's runtime (a few minutes in total).
"""

import math
import multiprocessing
import time

import numpy as np
from scipy.integrate import quad

from randquad import engine, quadmap
from randquad.cli import main as cli_main
from randquad.diagnostics import (
    extinction_test,
    cyclicity_detect,
    kolmogorov_approx,
    stability_test,
)
from randquad.engine import SimConfig
from randquad.kernel import (
    KernelOperator,
    MinorizationCertificate,
    minorization_probe,
    one_step_row_mass,
)
from randquad.noise import NoiseModel, substream

from test_kernel import p3_oracle

U23 = NoiseModel.uniform(2.0, 3.0)
U2228 = NoiseModel.uniform(2.2, 2.8)
EXTINCT = NoiseModel.uniform(0.5, 1.5)


def test_criterion_1_closed_form_orbits(acceptance):
    start = time.perf_counter()
    worst_point = worst_mult = 0.0
    for theta in (1.5, 2.0, 2.5, 2.9):
        orbit = quadmap.find_periodic_orbit(theta, 1)
        worst_point = max(worst_point, abs(orbit.points[0] - (1.0 - 1.0 / theta)))
        worst_mult = max(worst_mult, abs(orbit.multiplier - (2.0 - theta)))
    for theta in (3.1, 3.2, 3.4):
        root = math.sqrt((theta + 1.0) * (theta - 3.0))
        expected = sorted(
            [(theta + 1.0 - root) / (2.0 * theta), (theta + 1.0 + root) / (2.0 * theta)]
        )
        orbit = quadmap.find_periodic_orbit(theta, 2)
        worst_point = max(
            worst_point, max(abs(a - b) for a, b in zip(orbit.points, expected))
        )
        worst_mult = max(
            worst_mult, abs(orbit.multiplier - (4.0 + 2.0 * theta - theta * theta))
        )
    elapsed = time.perf_counter() - start
    ok = worst_point <= 1e-10 and worst_mult <= 1e-8 and elapsed < 1.0
    acceptance(
        1,
        ok,
        f"orbit agreement {worst_point:.2e} (tol 1e-10), multipliers "
        f"{worst_mult:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)",
    )
    assert ok


def test_criterion_2_moment_oracles(acceptance):
    start = time.perf_counter()
    log_quad = lambda c, d: quad(math.log, c, d, limit=200)[0] / (d - c)
    abs4_quad = lambda c, d: quad(
        lambda t: abs(math.log(4.0 - t)), c, d, points=[3.0] if c < 3.0 < d else None
    )[0] / (d - c)
    errs = [
        abs(U23.e_log() - log_quad(2.0, 3.0)),
        abs(U23.e_log() - 0.9095425048844386),
        abs(U23.e_log4m() - abs4_quad(2.0, 3.0)),
        abs(U23.e_log4m() - (2.0 * math.log(2.0) - 1.0)),
        abs(EXTINCT.e_log() - log_quad(0.5, 1.5)),
        abs(EXTINCT.e_log() - (-0.0452287475577805)),
    ]
    elapsed = time.perf_counter() - start
    ok = max(errs) <= 1e-9 and elapsed < 1.0
    acceptance(2, ok, f"max moment error {max(errs):.2e} (tol 1e-9), {elapsed:.2f}s (< 1 s)")
    assert ok


def test_criterion_3_kernel_normalization(acceptance):
    start = time.perf_counter()
    one_step_err = max(abs(one_step_row_mass(U23, x) - 1.0) for x in (0.3, 0.5, 0.7))
    multi_err = 0.0
    for x in (0.3, 0.5, 0.7):
        for n in (2, 3):
            row = KernelOperator(U23, 4096).row(x, n)
            multi_err = max(multi_err, abs(row.row_integral - 1.0))
    op = KernelOperator(U23, 8192)
    ck_err = 0.0
    for x in (0.3, 0.42, 0.5, 0.66):
        row = op.row(x, 3)
        centers = 0.5 * (row.y_edges[:-1] + row.y_edges[1:])
        for yc in np.linspace(0.45, 0.73, 8):
            j = int(np.argmin(np.abs(centers - yc)))
            ck_err = max(ck_err, abs(row.values[j] - p3_oracle(U23, x, centers[j])))
    elapsed = time.perf_counter() - start
    ok = one_step_err <= 1e-8 and multi_err <= 1e-6 and ck_err <= 1e-5 and elapsed < 60.0
    acceptance(
        3,
        ok,
        f"one-step {one_step_err:.1e} (1e-8), multi-step {multi_err:.1e} (1e-6), "
        f"Chapman-Kolmogorov {ck_err:.1e} (1e-5), {elapsed:.1f}s (< 1 min)",
    )
    assert ok


def test_criterion_4_minorization_certificate(acceptance):
    start = time.perf_counter()
    cert = minorization_probe(
        U2228, 2.5, 1, J=(0.5455, 0.6428), grid_n=64, resolution=2048
    )
    assert isinstance(cert, MinorizationCertificate)
    n_draws = 100_000
    rng = substream(4)
    sub_edges = np.linspace(cert.J[0], cert.J[1], 11)
    shortfall = -math.inf
    sound = cert.delta > 0.0
    for x in np.linspace(cert.J[0] + 1e-9, cert.J[1] - 1e-9, 20):
        eps = U2228.sample(rng, size=n_draws)
        x1 = eps * x * (1.0 - x)
        for lo, hi in zip(sub_edges[:-1], sub_edges[1:]):
            freq = float(np.mean((x1 > lo) & (x1 < hi)))
            bound = cert.delta * (hi - lo)
            se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n_draws)
            shortfall = max(shortfall, bound - 3.0 * se - freq)
            sound &= freq >= bound - 3.0 * se
    elapsed = time.perf_counter() - start
    ok = sound and elapsed < 120.0
    acceptance(
        4,
        ok,
        f"delta = {cert.delta:.4f} > 0, worst frequency shortfall "
        f"{shortfall:.2e} (<= 0 required), {elapsed:.1f}s (< 2 min)",
    )
    assert ok


def test_criterion_5_stability_in_distribution(acceptance):
    start = time.perf_counter()
    cfg = SimConfig(
        master_seed=20240,
        n_steps=1_000_000,
        n_replicates=8,
        burn_in=1000,
        initial_states=(0.05, 0.5, 0.95),
        n_bins=200,
    )
    report = stability_test(U23, cfg)
    outside_mass = 0
    for measure in report.measures:
        strictly_outside = (measure.bin_edges[1:] <= 0.375) | (
            measure.bin_edges[:-1] >= 0.75
        )
        outside_mass += int(measure.counts[strictly_outside].sum())
        outside_mass += measure.underflow + measure.overflow
    elapsed = time.perf_counter() - start
    ok = report.stable is True and outside_mass == 0 and elapsed < 300.0
    acceptance(
        5,
        ok,
        f"max cross TV {report.max_cross_tv:.5f} <= 3 x noise {report.noise_scale:.5f}, "
        f"mass outside [0.375, 0.75]: {outside_mass}, {elapsed:.1f}s (< 5 min)",
    )
    assert ok


def test_criterion_6_extinction(acceptance):
    start = time.perf_counter()
    checkpoints = (100, 1000, 10_000, 100_000)
    dying = extinction_test(EXTINCT, 0.5, checkpoints, 200, 1e-3, seed=6, stream_key=())
    surviving = extinction_test(U23, 0.5, checkpoints, 200, 1e-3, seed=6, stream_key=())
    elapsed = time.perf_counter() - start
    ok = (
        dying.final_fraction >= 0.9
        and dying.nondecreasing_within()
        and surviving.final_fraction == 0.0
        and elapsed < 300.0
    )
    acceptance(
        6,
        ok,
        f"extinction fraction {dying.final_fraction:.3f} (>= 0.9), nondecreasing: "
        f"{dying.nondecreasing_within()}, survivor fraction "
        f"{surviving.final_fraction:.1f} (= 0), {elapsed:.1f}s (< 5 min)",
    )
    assert ok


def test_criterion_7_cyclicity(acceptance):
    start = time.perf_counter()
    cyclic = cyclicity_detect(
        NoiseModel.uniform(3.15, 3.25), (0.75, 0.85), 1_000_000, 8, seed=7, x0=0.5, burn_in=1000
    )
    aperiodic = cyclicity_detect(
        U2228, (0.5455, 0.6428), 1_000_000, 8, seed=7, x0=0.5, burn_in=1000
    )
    elapsed = time.perf_counter() - start
    ok = cyclic.period == 2 and aperiodic.period == 1 and elapsed < 120.0
    acceptance(
        7,
        ok,
        f"period-2 window -> {cyclic.period}, fixed-point window -> "
        f"{aperiodic.period} (aperiodic), {elapsed:.1f}s (< 2 min)",
    )
    assert ok


def test_criterion_8_kolmogorov_program(acceptance):
    start = time.perf_counter()
    cfg = SimConfig(
        master_seed=20240,
        n_steps=10_000_000,
        n_replicates=1,
        burn_in=1000,
        initial_states=(0.3123,),
        n_bins=200,
    )
    report = kolmogorov_approx(3.9, 0.01, cfg)
    elapsed = time.perf_counter() - start
    ok = report.tv <= 0.1 and elapsed < 600.0
    acceptance(
        8,
        ok,
        f"TV(noisy invariant, deterministic histogram) = {report.tv:.4f} "
        f"(<= 0.1), {elapsed:.1f}s (< 10 min)",
    )
    assert ok


CLI_CONFIG = """\
[noise]
pieces = 2.2:2.8:1.0

[sim]
seed = 919
steps = 50000
replicates = 4
burn_in = 500
bins = 100
initial_states = 0.1 0.5 0.9

[simulate]
n = 2000

[orbit]
theta_min = 2.3
theta_max = 2.7
period = 1
samples = 9

[kernel]
x_points = 0.3 0.5 0.7
steps = 2
resolution = 512

[minorize]
theta0 = 2.5
period = 1
j_lo = 0.5455
j_hi = 0.6428
grid = 32
resolution = 512

[extinction]
threshold = 0.001
checkpoints = 100 1000 10000
replicates = 50

[cyclicity]
j_lo = 0.5455
j_hi = 0.6428
d_max = 6
steps = 50000

[kolmogorov]
theta0 = 2.5
eta = 0.05
"""

ALL_SUBCOMMANDS = (
    "check",
    "simulate",
    "orbit",
    "kernel",
    "minorize",
    "stability",
    "extinction",
    "cyclicity",
    "kolmogorov",
)


def test_criterion_9_cli_reproducibility(acceptance, tmp_path, monkeypatch):
    start = time.perf_counter()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CLI_CONFIG, encoding="utf-8")

    def outputs(dirname):
        d = tmp_path / dirname
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    identical = True
    details = []
    for sub in ALL_SUBCOMMANDS:
        codes = set()
        for run in ("a", "b"):
            codes.add(
                cli_main(
                    [sub, "--config", str(cfg_path), "--out", str(tmp_path / f"{sub}_{run}")]
                )
            )
        same = outputs(f"{sub}_a") == outputs(f"{sub}_b") and len(codes) == 1
        identical &= same
        if not same:
            details.append(sub)
    # thread count must not change ensemble outputs: 12 lanes (3 starts of 4,
    # halves of 2) in 2 shards of 6/6 cut start 1 between its halves, and 3
    # shards of 4/4/4 fall between starts; the CPU cap is lifted so that 3
    # workers really fork on a 2-core host
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    for threads in ("1", "2", "3"):
        code = cli_main(
            [
                "stability", "--config", str(cfg_path),
                "--out", str(tmp_path / f"stability_t{threads}"), "--threads", threads,
            ]
        )
        assert code in (0, 2)
        assert multiprocessing.active_children() == []
    for threads in ("2", "3"):
        if outputs("stability_t1") != outputs(f"stability_t{threads}"):
            identical = False
            details.append(f"stability threads 1 vs {threads}")
    elapsed = time.perf_counter() - start
    ok = identical
    acceptance(
        9,
        ok,
        "all 9 subcommands byte-identical across reruns and thread counts"
        + (f"; mismatches: {details}" if details else "")
        + f", {elapsed:.1f}s",
    )
    assert ok
