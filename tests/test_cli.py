"""Tests for the command-line interface and config handling."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from randquad import cli, engine, kernel
from randquad.cli import main
from randquad.config import _SCHEMA, ConfigError, parse_config_text
from randquad.engine import SimConfig
from randquad.noise import NoiseModel, substream
from test_engine import joined_path, recording_forks

BASE_CONFIG = """\
[noise]
pieces = 2.0:3.0:1.0

[sim]
seed = 20240
steps = 20000
replicates = 2
burn_in = 500
bins = 100
initial_states = 0.05 0.5 0.95
"""

EXTINCT_NOISE = """\
[noise]
pieces = 0.5:1.5:1.0

[sim]
seed = 1
steps = 5000
burn_in = 100
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(tmp_path, *args, out="out"):
    return main(list(args) + ["--out", str(tmp_path / out)])


class TestConfigParsing:
    def test_round_trip_model(self):
        cfg = parse_config_text(BASE_CONFIG)
        model = cfg.noise_model()
        assert model.uniform_pieces == ((2.0, 3.0, 1.0),)
        sim = cfg.sim_config()
        assert sim.master_seed == 20240
        assert sim.initial_states == (0.05, 0.5, 0.95)

    def test_mixture_block(self):
        cfg = parse_config_text("[noise]\natoms = 2.5:0.5\npieces = 3.0:3.5:0.5\n")
        model = cfg.noise_model()
        assert model.atoms == ((2.5, 0.5),)
        assert model.uniform_pieces == ((3.0, 3.5, 0.5),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[sim]\nseed = 1\nbogus = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nope]\nx = 1\n")

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("[sim]\nseed = notanumber\n")

    def test_override_precedence(self):
        cfg = parse_config_text(BASE_CONFIG)
        cfg.override("sim.steps", "12345")
        assert cfg.sim_config().n_steps == 12345

    def test_sim_defaults_are_sim_configs(self):
        cfg = parse_config_text("[sim]\nseed = 3\nsteps = 5000\n")
        assert cfg.sim_config() == SimConfig(master_seed=3, n_steps=5000)

    @pytest.mark.parametrize("key", ["seed", "steps"])
    def test_sim_required_key_missing(self, key):
        text = "[sim]\nseed = 3\nsteps = 5000\n".replace(f"{key} = ", "# ")
        with pytest.raises(ConfigError, match=f"missing required key sim.{key}"):
            parse_config_text(text).sim_config()

    def test_bad_override_rejected(self):
        cfg = parse_config_text(BASE_CONFIG)
        with pytest.raises(ConfigError):
            cfg.override("sim.bogus", "1")
        with pytest.raises(ConfigError):
            cfg.override("noseparator", "1")


# every key of the schema that holds a list of numbers
LIST_KEYS = [
    (section, key)
    for section, keys in _SCHEMA.items()
    for key, kind in keys.items()
    if kind in ("floats", "ints")
]

# a config that every subcommand accepts, each x0 set so that no default is
# taken from sim.initial_states
FULL_SECTIONS = {
    "noise": {"pieces": "2.2:2.8:1.0"},
    "sim": {"seed": "1", "steps": "2000", "burn_in": "100", "initial_states": "0.3 0.6"},
    "simulate": {"x0": "0.3"},
    "orbit": {"theta_min": "2.2", "theta_max": "2.8"},
    "kernel": {"x_points": "0.3", "resolution": "64"},
    "minorize": {"theta0": "2.5", "grid": "8", "resolution": "64"},
    "extinction": {"x0": "0.3", "checkpoints": "10 100"},
    "cyclicity": {"j_lo": "0.5", "j_hi": "0.7", "x0": "0.3"},
    "kolmogorov": {"theta0": "2.5", "eta": "0.05"},
}


class TestSubcommands:
    def test_check_ok_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "check", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "e_log = 0.909542504884438" in report
        assert "all_ok = true" in report

    def test_check_extinction_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, EXTINCT_NOISE)
        assert run_cli(tmp_path, "check", "--config", str(cfg)) == 2
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "moments_ok = false" in report

    def test_missing_config_is_error(self, tmp_path):
        assert run_cli(tmp_path, "check", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_malformed_config_is_error(self, tmp_path):
        cfg = write_config(tmp_path, "[sim]\nseed = x\n")
        assert run_cli(tmp_path, "check", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "item, message",
        [
            ("pieces = 2.0:3.0", "malformed noise.pieces item '2.0:3.0': expected c:d:weight"),
            ("atoms = 2.5:x", "malformed noise.atoms item '2.5:x': expected location:weight"),
        ],
        ids=["piece", "atom"],
    )
    def test_malformed_noise_item_is_error(self, tmp_path, capsys, item, message):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("pieces = 2.0:3.0:1.0", item))
        assert run_cli(tmp_path, "check", "--config", str(cfg)) == 1
        assert message in capsys.readouterr().err

    def test_simulate_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[simulate]\nn = 500\nx0 = 0.3\n")
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 0
        traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,x,epsilon"
        assert len(traj) == 502  # header + x0 row + 500 steps
        assert (tmp_path / "out" / "occupation.csv").exists()

    def test_orbit_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE_CONFIG + "\n[orbit]\ntheta_min = 2.2\ntheta_max = 2.8\nperiod = 1\nsamples = 7\n",
        )
        assert run_cli(tmp_path, "orbit", "--config", str(cfg)) == 0
        lines = (tmp_path / "out" / "orbits.csv").read_text().splitlines()
        assert lines[0] == "theta,q,q_prime,multiplier,point_1"
        assert len(lines) == 8

    def test_orbit_holes_at_or_below_theta_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE_CONFIG + "\n[orbit]\ntheta_min = 0.9\ntheta_max = 1.5\nperiod = 1\nsamples = 7\n",
        )
        assert run_cli(tmp_path, "orbit", "--config", str(cfg)) == 2
        lines = (tmp_path / "out" / "orbits.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) <= 1.0 for r in rows] == [True, True] + [False] * 5
        assert [r[1:] == [""] * 4 for r in rows] == [True, True] + [False] * 5
        assert "holes = 2\n" in (tmp_path / "out" / "report.txt").read_text()

    def test_kernel_normalization(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE_CONFIG + "\n[kernel]\nx_points = 0.3 0.5\nsteps = 2\nresolution = 512\n",
        )
        assert run_cli(tmp_path, "kernel", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "max_drift" in report

    def test_minorize_certificate(self, tmp_path):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "2.2:2.8:1.0")
        text += "\n[minorize]\ntheta0 = 2.5\nperiod = 1\nj_lo = 0.5455\nj_hi = 0.6428\ngrid = 32\nresolution = 512\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "minorize", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "certified = true" in report
        assert "delta = " in report

    @pytest.mark.parametrize("scale", [(1.0 + 1e-5, 1.0 + 1e-5), (1.0, np.nan)],
                             ids=["gain", "nan-in-second-row"])
    def test_kernel_drift_exit_two(self, tmp_path, monkeypatch, scale):
        # a step that gains 1e-5 of mass fails the 1e-6 normalization bound;
        # a NaN drift fails it too, though the first row's drift is fine
        step = kernel._pushforward
        monkeypatch.setattr(kernel, "_pushforward",
                            lambda *args: step(*args) * np.array(scale)[:, None])
        cfg = write_config(
            tmp_path,
            BASE_CONFIG + "\n[kernel]\nx_points = 0.3 0.5\nsteps = 2\nresolution = 512\n",
        )
        assert run_cli(tmp_path, "kernel", "--config", str(cfg)) == 2
        report = (tmp_path / "out" / "report.txt").read_text()
        drift = float(report.split("max_drift = ")[1].split()[0])
        assert drift > 1e-6 or np.isnan(drift)

    def test_minorize_default_grid_and_resolution(self, tmp_path):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "2.2:2.8:1.0")
        cfg = write_config(tmp_path, text + "\n[minorize]\ntheta0 = 2.5\nperiod = 1\n")
        assert run_cli(tmp_path, "minorize", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "\ngrid_n = 64\n" in report
        assert "\nresolution = 2048\n" in report

    def test_minorize_degenerate_grid_is_error(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "2.2:2.8:1.0")
        text += "\n[minorize]\ntheta0 = 2.5\nperiod = 1\nresolution = 128\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "minorize", "--config", str(cfg), "--set", "minorize.grid=1") == 1
        err = capsys.readouterr().err
        assert "grid_n must be >= 2" in err
        assert "IndexError" not in err

    @pytest.mark.parametrize(
        "pieces, minorize, message",
        [
            pytest.param(
                "2.2:2.8:1.0", "theta0 = 2.5\nperiod = 1\nj_lo = -0.1\nj_hi = 0.6",
                "must be nondegenerate inside (0, 1)", id="J-below-0",
            ),
            pytest.param(
                "2.2:2.8:1.0", "theta0 = 2.5\nperiod = 1\nj_lo = 0.6\nj_hi = 1.2",
                "must be nondegenerate inside (0, 1)", id="J-above-1",
            ),
            pytest.param(
                "2.2:2.8:1.0", "theta0 = 2.5\nperiod = 1\nj_lo = 0\nj_hi = 0.6",
                "must be nondegenerate inside (0, 1)", id="J-at-0",
            ),
            pytest.param(
                "2.2:2.8:1.0", "theta0 = 2.5\nperiod = 1\nj_lo = 0.5\nj_hi = 1",
                "must be nondegenerate inside (0, 1)", id="J-at-1",
            ),
            pytest.param(
                "3.15:3.25:1.0", "theta0 = 3.2\nperiod = 2\nresolution = 1",
                "resolution must be >= 2", id="resolution-1",
            ),
        ],
    )
    def test_minorize_bad_argument_is_error(self, tmp_path, capsys, pieces, minorize, message):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", pieces) + f"\n[minorize]\n{minorize}\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "minorize", "--config", str(cfg)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize(
        "given, missing", [("j_lo = 0.58", "j_hi"), ("j_hi = 0.58", "j_lo")]
    )
    def test_minorize_one_sided_j_is_config_error(self, tmp_path, capsys, given, missing):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "2.2:2.8:1.0")
        text += f"\n[minorize]\ntheta0 = 2.5\nperiod = 1\n{given}\ngrid = 8\nresolution = 128\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "minorize", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and f"minorize.{missing} is missing" in err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_threads_below_one_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "stability", "--config", str(cfg), "--threads", "0") == 1
        assert "config error: threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, threads",
        [
            pytest.param("check", "", ["--threads", "0"], id="check-threads-0"),
            pytest.param(
                "orbit",
                "\n[orbit]\ntheta_min = 2.2\ntheta_max = 2.8\n",
                ["--threads", "-5"],
                id="orbit-threads-minus-5",
            ),
            pytest.param("check", "", ["--set", "sim.threads=0"], id="check-sim-threads-0"),
        ],
    )
    def test_threads_below_one_rejected_by_every_subcommand(
        self, tmp_path, capsys, command, extra, threads
    ):
        cfg = write_config(tmp_path, BASE_CONFIG + extra)
        assert run_cli(tmp_path, command, "--config", str(cfg), *threads) == 1
        assert "config error: threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kernel_empty_x_points_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[kernel]\nx_points =\nresolution = 64\n")
        assert run_cli(tmp_path, "kernel", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "config error: kernel.x_points is empty" in err
        assert "IndexError" not in err

    def test_kernel_repeated_x_point_named_before_any_build(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel, "_pushforward", lambda *args: calls.append(args))
        text = BASE_CONFIG + "\n[kernel]\nx_points = 0.3 0.5 0.30\nsteps = 2\nresolution = 64\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "kernel", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            "randquad: config error: kernel.x_points repeats a source state: list each one once\n"
        )
        assert calls == []
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_stability_repeated_initial_state_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        override = "sim.initial_states=0.5 0.5 0.3"
        assert run_cli(tmp_path, "stability", "--config", str(cfg), "--set", override) == 1
        assert capsys.readouterr().err == (
            "randquad: config error: sim.initial_states repeats a source state: "
            "list each one once\n"
        )
        assert not (tmp_path / "out" / "tv_matrix.csv").exists()

    @pytest.mark.parametrize("section, key", LIST_KEYS, ids=[f"{s}.{k}" for s, k in LIST_KEYS])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_empty_list_key_is_one_config_error(self, tmp_path, capsys, command, section, key):
        sections = {name: dict(keys) for name, keys in FULL_SECTIONS.items()}
        sections.setdefault(section, {})[key] = ""
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        )
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, command, "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"randquad: config error: {section}.{key} is empty: list at least one value\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", LIST_KEYS, ids=[f"{s}.{k}" for s, k in LIST_KEYS])
    def test_empty_list_override_is_one_config_error(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "check", "--config", str(cfg), "--set", f"{section}.{key}=") == 1
        assert capsys.readouterr().err == (
            f"randquad: config error: {section}.{key} is empty: list at least one value\n"
        )

    def test_kernel_bad_x_point_named_before_any_build(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel, "_pushforward", lambda *args: calls.append(args))
        text = BASE_CONFIG + "\n[kernel]\nx_points = 0.3 1.2\nsteps = 3\nresolution = 8192\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "kernel", "--config", str(cfg)) == 1
        assert "x_values[1] = 1.2 must lie in (0, 1)" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("simulate", "\n[simulate]\nn = 100\n"),
            ("stability", ""),
            ("extinction", "\n[extinction]\ncheckpoints = 100 1000\nreplicates = 5\n"),
            ("cyclicity", "\n[cyclicity]\nj_lo = 0.55\nj_hi = 0.7\nsteps = 1000\n"),
            ("kolmogorov", "\n[kolmogorov]\ntheta0 = 2.5\neta = 0.05\n"),
        ],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, BASE_CONFIG + extra)
        assert run_cli(tmp_path, command, "--config", str(cfg), "--set", "sim.seed=-1") == 1
        err = capsys.readouterr().err
        assert err == "randquad: config error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("theta_max", ["5", "inf"])
    def test_orbit_range_outside_domain_is_one_message(self, tmp_path, theta_max):
        text = BASE_CONFIG + f"\n[orbit]\ntheta_min = 2.2\ntheta_max = {theta_max}\n"
        cfg = write_config(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "randquad.cli", "orbit", "--config", str(cfg),
             "--out", str(tmp_path / "sub")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        hi = float(theta_max)
        assert proc.stderr == (
            f"randquad: DomainError: theta_range (2.2, {hi!r}) must satisfy 0 < lo < hi <= 4\n"
        )
        assert not (tmp_path / "sub" / "orbits.csv").exists()

    def test_minorize_failure_exit_two(self, tmp_path):
        # chaotic parameter: no attractive orbit, no certificate
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "3.85:3.95:1.0")
        text += "\n[minorize]\ntheta0 = 3.9\nperiod = 1\ngrid = 8\nresolution = 128\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "minorize", "--config", str(cfg)) == 2

    def test_stability_and_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "stability", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "stable = true" in report
        assert (tmp_path / "out" / "tv_matrix.csv").exists()

    def test_stability_all_absorbed_exit_two(self, tmp_path):
        # every replicate stops before the burn-in ends: no TV, no verdict
        text = ("[noise]\npieces = 0.1:0.2:1.0\n\n[sim]\nseed = 1\nsteps = 2000\nburn_in = 1000\n"
                "replicates = 2\n")
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "stability", "--config", str(cfg)) == 2
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert report[:3] == ["max_cross_tv = nan", "noise_scale = nan", "stable = none"]
        assert report[-1] == "absorbed = 2"

    def test_stability_one_replicate_exit_one(self, tmp_path, capsys):
        # the noise floor compares two halves of each start's replicates
        cfg = write_config(tmp_path, BASE_CONFIG)
        code = run_cli(tmp_path, "stability", "--config", str(cfg), "--set", "sim.replicates=1")
        assert code == 1
        assert "stability needs sim.replicates >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_extinction_outputs(self, tmp_path):
        text = EXTINCT_NOISE + "\n[extinction]\nthreshold = 0.001\ncheckpoints = 100 1000 5000\nreplicates = 50\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "extinction", "--config", str(cfg)) == 0
        lines = (tmp_path / "out" / "checkpoints.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,fraction_below"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "override, message",
        [
            ("extinction.replicates=0", "n_replicates must be >= 1"),
            ("extinction.x0=1.5", "x0 must lie in (0, 1)"),
            ("extinction.checkpoints=100 100", "checkpoints must increase"),
        ],
    )
    def test_extinction_bad_input_is_error(self, tmp_path, capsys, override, message):
        text = EXTINCT_NOISE + "\n[extinction]\ncheckpoints = 100 1000\nreplicates = 50\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "extinction", "--config", str(cfg), "--set", override) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "ZeroDivisionError" not in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("simulate.x0=1.5", "x0 must lie in (0, 1)"),
            ("simulate.x0=0", "x0 must lie in (0, 1)"),
            ("simulate.n=-1", "n must be nonnegative"),
        ],
    )
    def test_simulate_bad_input_is_error(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[simulate]\nn = 100\n")
        assert run_cli(tmp_path, "simulate", "--config", str(cfg), "--set", override) == 1
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_simulate_memory_does_not_grow_with_n(self, tmp_path):
        # 10^6 steps: one path joined into arrays took tens of MiB
        text = BASE_CONFIG + "\n[simulate]\nn = 1000000\nwrite_trajectory = false\n"
        cfg = write_config(tmp_path, text)
        tracemalloc.start()
        try:
            assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "steps = 1000000\n" in (tmp_path / "out" / "report.txt").read_text()
        assert peak < 8 << 20

    def test_cyclicity_start_outside_unit_interval_is_error(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "3.15:3.25:1.0")
        text += "\n[cyclicity]\nj_lo = 0.75\nj_hi = 0.85\nsteps = 1000\nx0 = 1.5\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "cyclicity", "--config", str(cfg)) == 1
        assert "x0 must lie in (0, 1)" in capsys.readouterr().err

    def test_cyclicity_interval_outside_unit_interval_is_error(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "3.15:3.25:1.0")
        text += "\n[cyclicity]\nj_lo = 0.75\nj_hi = 0.85\nsteps = 1000\n"
        cfg = write_config(tmp_path, text)
        override = ["--set", "cyclicity.j_lo=-3"]
        assert run_cli(tmp_path, "cyclicity", "--config", str(cfg), *override) == 1
        assert "must be nondegenerate inside (0, 1)" in capsys.readouterr().err

    def test_cyclicity(self, tmp_path):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", "3.15:3.25:1.0")
        text += "\n[cyclicity]\nj_lo = 0.75\nj_hi = 0.85\nd_max = 6\nsteps = 100000\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "cyclicity", "--config", str(cfg)) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "period = 2" in report

    def test_kolmogorov(self, tmp_path):
        text = BASE_CONFIG + "\n[kolmogorov]\ntheta0 = 2.5\neta = 0.05\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "kolmogorov", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "occupation_noise.csv").exists()
        assert (tmp_path / "out" / "occupation_deterministic.csv").exists()


class TestTrajectoryCsv:
    """The streaming trajectory writer gives the bytes of the generic row writer."""

    @staticmethod
    def generic_bytes(path, values, epsilons):
        rows = [(0, values[0], "")]
        rows += [(k + 1, values[k + 1], epsilons[k]) for k in range(len(epsilons))]
        cli._write_csv(path, ["step", "x", "epsilon"], rows)
        return path.read_bytes()

    @staticmethod
    def direct_bytes(path, blocks, x0):
        """The writer's bytes over the blocks, and the [steps, last state] it keeps."""
        end = [0, x0]
        with open(path, "wb") as fh:
            for _ in cli._trajectory_csv(blocks, x0, fh, end):
                pass
        return path.read_bytes(), end

    @pytest.mark.parametrize(
        "model, x0, n, absorbed",
        [
            (NoiseModel.uniform(2.0, 3.0), 0.3, 0, False),
            (NoiseModel.uniform(2.0, 3.0), 0.123456789, 300, False),
            # dies out at step 15585 of 40000: a truncated path ending in 0
            (NoiseModel.uniform(0.5, 1.5), 0.5, 40_000, True),
            # one full chunk, a chunk and one row, several chunks and a part
            (NoiseModel.uniform(2.0, 3.0), 0.3, cli.CSV_ROWS, False),
            (NoiseModel.uniform(2.0, 3.0), 0.3, cli.CSV_ROWS + 1, False),
            (NoiseModel.uniform(3.5, 3.99), 0.7, 3 * cli.CSV_ROWS + 17, False),
        ],
    )
    def test_same_bytes_as_generic_writer(self, tmp_path, model, x0, n, absorbed):
        values, epsilons = joined_path(model, x0, n, substream(3))
        assert (values[-1] == 0.0) == absorbed and (len(values) < n + 1) == absorbed

        def walk():
            return engine._walk((x0,), n, engine._lane_draws(model, [substream(3)]))

        direct, end = self.direct_bytes(tmp_path / "direct.csv", walk(), x0)
        assert direct == self.generic_bytes(tmp_path / "generic.csv", values, epsilons)
        assert direct.count(b"\n") == len(values) + 1
        assert end == [len(values) - 1, values[-1]]
        # without a file it writes nothing and keeps the same end
        unwritten = [0, x0]
        assert len(list(cli._trajectory_csv(walk(), x0, None, unwritten))) == len(list(walk()))
        assert unwritten == end

    def test_same_bytes_for_extreme_values(self, tmp_path):
        # 1e-4 and the double below it sit on either side of the formatter's fast path;
        # the second block's last row lies past the lane's valid ones and is not written
        below = np.nextafter(1e-4, 0.0)
        values = np.array([0.3, 1e-4, below, -0.0, 0.5, 0.25, 1.0])
        epsilons = np.array([1e-4, below, 4.0, 2.5, -0.0, 1e16])
        blocks = [
            (0, epsilons[:2, None], values[1:3, None], np.array([2])),
            (2, np.append(epsilons[2:], 3.0)[:, None], np.append(values[3:], 0.7)[:, None],
             np.array([4])),
        ]
        direct, end = self.direct_bytes(tmp_path / "direct.csv", blocks, 0.3)
        assert direct == self.generic_bytes(tmp_path / "generic.csv", values, epsilons)
        assert direct.endswith(b"\n6,1,10000000000000000\n")
        assert end == [6, 1.0]


class TestDensityCsv:
    def test_same_bytes_as_generic_writer(self, tmp_path):
        rows = kernel.KernelOperator(NoiseModel.uniform(2.0, 3.0), 64).rows([0.3, 0.123456789], 2)
        cli._density_csv(tmp_path / "direct.csv", rows)
        centers = 0.5 * (rows[0].y_edges[:-1] + rows[0].y_edges[1:])
        generic = [[r.x] + list(r.values) for r in rows]
        cli._write_csv(tmp_path / "generic.csv", ["x"] + [cli._fmt(c) for c in centers], generic)
        direct = (tmp_path / "direct.csv").read_bytes()
        assert direct == (tmp_path / "generic.csv").read_bytes()
        assert direct.count(b"\n") == 3

    @staticmethod
    def assert_same_bytes(tmp_path, x_values, values):
        edges = np.linspace(0.0, 1.0, values.shape[1] + 1)
        rows = [
            kernel.DensityRow(x=x, y_edges=edges, values=vals, row_integral=0.0,
                              expected_mass=1.0)
            for x, vals in zip(x_values, values)
        ]
        cli._density_csv(tmp_path / "direct.csv", rows)
        centers = 0.5 * (edges[:-1] + edges[1:])
        generic = [[x] + list(vals) for x, vals in zip(x_values, values)]
        cli._write_csv(tmp_path / "generic.csv", ["x"] + [cli._fmt(c) for c in centers], generic)
        assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()

    def test_same_bytes_for_extreme_values(self, tmp_path):
        values = np.array([
            [0.0, -0.0, 5e-324, 1e300],
            [0.1, 1 / 3, np.inf, np.nan],
            [0.0, 0.0, 0.0, 0.0],
            [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0), 1e16],
            [-0.5, -1e-4, -3.0, -np.inf],
        ])
        self.assert_same_bytes(tmp_path, np.array([1e-17, 0.5, 0.25, 1e-4, -0.0]), values)

    def test_same_bytes_across_chunks(self, tmp_path):
        # 3 * CSV_ROWS cells per write hold 64 rows of 1 + 191 cells: chunks of 64, 64, 2;
        # the columns cycle through magnitudes 1e-6 ... 1e16, on and off the fast path
        values = substream(5).random((130, 191)) * 10.0 ** (np.arange(191) % 23 - 6)
        self.assert_same_bytes(tmp_path, substream(6).random(130), values)


class TestFormat17g:
    """The vectorised %.17g gives the bytes of % itself."""

    @staticmethod
    def assert_matches_percent(values):
        values = np.asarray(values, dtype=float)
        got = cli._csv_rows(values[:, None])
        want = (b"%.17g\n" * len(values)) % tuple(values.tolist())
        if got != want:
            pairs = zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
            bad = [(v, g, w) for v, g, w in pairs if g != w]
            pytest.fail(f"{len(bad)} values differ, e.g. {bad[:3]}")

    def test_million_doubles_in_each_regime(self):
        rng = substream(15)
        self.assert_matches_percent(np.concatenate([
            rng.uniform(1e-4, 1.0, 300_000),  # states of the map
            rng.uniform(2.0, 3.0, 300_000),  # noise draws
            10.0 ** rng.uniform(-4.0, 16.0, 300_000),  # every exponent of the fast path
            10.0 ** rng.uniform(-320.0, 308.0, 50_000),  # the rest, through %
            -(10.0 ** rng.uniform(-4.0, 16.0, 50_000)),
        ]))

    def test_boundaries_ties_and_fallbacks(self):
        powers = 10.0 ** np.arange(-4, 17)
        self.assert_matches_percent(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            # half-way cases of the 17th digit, rounded to even: ...562 and ...688
            [12345678901234.5625, 12345678901234.6875],
            [1.0, 4.0, 0.1, 100.0, 120.5, 2.0**53, 9007199254740993.0],
            [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, -0.5, 1e16, 1e300],
            [np.inf, -np.inf, np.nan],
        ]))

    def test_integers_print_as_with_d(self):
        steps = np.concatenate([np.arange(0, 20_001), 10 ** np.arange(16) - 1, 10 ** np.arange(16)])
        got = cli._csv_rows(steps.astype(float)[:, None])
        assert got == b"".join(b"%d\n" % s for s in steps.tolist())


class TestReproducibility:
    def _all_outputs(self, directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("check", ""),
            ("simulate", "\n[simulate]\nn = 2000\n"),
            ("stability", ""),
            ("kolmogorov", "\n[kolmogorov]\ntheta0 = 2.5\neta = 0.05\n"),
        ],
    )
    def test_run_twice_byte_identical(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, BASE_CONFIG + extra)
        assert run_cli(tmp_path, command, "--config", str(cfg), out="a") in (0, 2)
        assert run_cli(tmp_path, command, "--config", str(cfg), out="b") in (0, 2)
        assert self._all_outputs(tmp_path / "a") == self._all_outputs(tmp_path / "b")

    @pytest.mark.parametrize(
        "command, pieces, extra",
        [
            ("check", "2.0:3.0:1.0", ""),
            ("kernel", "2.0:3.0:1.0", "\n[kernel]\nx_points = 0.3 0.5\nsteps = 2\nresolution = 256\n"),
            ("minorize", "2.2:2.8:1.0",
             "\n[minorize]\ntheta0 = 2.5\nperiod = 1\ngrid = 16\nresolution = 256\n"),
            ("stability", "2.0:3.0:1.0", ""),
        ],
        ids=["check", "kernel", "minorize", "stability"],
    )
    def test_zero_weight_components_change_no_byte(self, tmp_path, command, pieces, extra):
        plain = BASE_CONFIG.replace("2.0:3.0:1.0", pieces) + extra
        padded = plain.replace(pieces, f"{pieces} 1.2:3.9:0.0\natoms = 3.7:0.0")
        for name, text in (("plain", plain), ("padded", padded)):
            cfg = write_config(tmp_path, text, name=f"{name}.cfg")
            assert run_cli(tmp_path, command, "--config", str(cfg), out=name) == 0
        assert self._all_outputs(tmp_path / "plain") == self._all_outputs(tmp_path / "padded")

    @pytest.mark.parametrize(
        "pieces, x0, n",
        [
            ("2.0:3.0:1.0", 0.3, 20_000),
            ("0.5:1.5:1.0", 0.5, 40_000),  # absorbed at step 17362
            ("3.5:3.99:1.0", 0.7, 20_000),
            ("2.0:3.0:1.0", 0.3, 0),
        ],
        ids=["surviving", "absorbing", "chaotic", "no-steps"],
    )
    def test_simulate_bytes_do_not_depend_on_chunking(self, tmp_path, monkeypatch, pieces, x0, n):
        text = BASE_CONFIG.replace("2.0:3.0:1.0", pieces) + f"\n[simulate]\nn = {n}\nx0 = {x0}\n"
        cfg = write_config(tmp_path, text)
        assert run_cli(tmp_path, "simulate", "--config", str(cfg), out="default") == 0
        monkeypatch.setattr(engine, "CHUNK", 997)
        monkeypatch.setattr(engine, "FIRST_ROWS", 5)
        assert run_cli(tmp_path, "simulate", "--config", str(cfg), out="chunked") == 0
        default = self._all_outputs(tmp_path / "default")
        assert sorted(default) == ["occupation.csv", "report.txt", "trajectory.csv"]
        assert (b"absorbed = true" in default["report.txt"]) == (pieces == "0.5:1.5:1.0")
        assert self._all_outputs(tmp_path / "chunked") == default

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # 9 lanes (3 starts x 3 replicates, halves of 1 and 2): 2 shards of 5/4
        # and 4 of 3/2/2/2 cut the second half of start 1 between lanes 4 and 5;
        # the CPU cap is lifted so that 4 workers really fork on a 2-core host
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)
        cfg = write_config(tmp_path, BASE_CONFIG.replace("replicates = 2", "replicates = 3"))
        for threads in ("1", "2", "4"):
            code = run_cli(tmp_path, "stability", "--config", str(cfg), "--threads", threads,
                           out=f"t{threads}")
            assert code == 0
            assert multiprocessing.active_children() == []
        assert self._all_outputs(tmp_path / "t1") == self._all_outputs(tmp_path / "t2")
        assert self._all_outputs(tmp_path / "t1") == self._all_outputs(tmp_path / "t4")

    @pytest.mark.parametrize(
        "config, threads, lanes",
        [
            (BASE_CONFIG, ["--threads", "100000"], 6),
            (BASE_CONFIG + "threads = 100000\n", [], 6),
            (BASE_CONFIG.replace("0.05 0.5 0.95", "0.5"), ["--threads", "4"], 2),
        ],
        ids=["flag-100000", "sim-threads-100000", "flag-4-two-lanes"],
    )
    def test_thread_count_is_capped(self, tmp_path, monkeypatch, config, threads, lanes):
        sizes = []
        monkeypatch.setattr(engine, "_fork_shards", recording_forks(sizes))
        cfg = write_config(tmp_path, config)
        assert run_cli(tmp_path, "stability", "--config", str(cfg), *threads) == 0
        workers = min(lanes, engine._usable_cpus())
        assert sizes == ([workers] if workers > 1 else [])

    def test_worker_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        parent, walk = os.getpid(), engine._walk

        def broken(*args, **kwargs):
            if os.getpid() != parent:
                raise FloatingPointError("walk failed in a worker")
            return walk(*args, **kwargs)

        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_walk", broken)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert run_cli(tmp_path, "stability", "--config", str(cfg), "--threads", "2") == 1
        assert "FloatingPointError: walk failed in a worker" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_set_override_applies(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert (
            run_cli(
                tmp_path, "simulate", "--config", str(cfg),
                "--set", "simulate.n=100", "--set", "simulate.write_trajectory=true",
            )
            == 0
        )
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 102

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "randquad.cli", "check", "--config", str(cfg),
             "--out", str(tmp_path / "sub")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "sub" / "report.txt").exists()
