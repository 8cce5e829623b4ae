import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import svd_of
from ucamimo import Misalignment, build_channel, nulling_rates, search_beta_opt
from ucamimo.cli import build_parser, main, parse_angle, parse_bit_grid, parse_float_list
from ucamimo.design import water_fill
from ucamimo.geometry import ArrayConfig
from ucamimo.sim import DEFAULT_BIT_GRID, TrialConfig, rows_to_csv, run_codebook_bit_sweep
from ucamimo.spectrum import singular_values


def run_cli(args):
    return main(args)


def parse_kv(output):
    values = {}
    for line in output.strip().split("\n"):
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


class TestParsers:
    def test_angle_plain_and_degrees(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("deg:45") == pytest.approx(math.pi / 4)

    def test_float_list(self):
        assert parse_float_list("100,200.5, 300") == (100.0, 200.5, 300.0)

    def test_bit_grid(self):
        assert parse_bit_grid("5:3,1:2") == ((5, 3), (1, 2))
        # an empty grid parses; run_codebook_bit_sweep is the one place that rejects it
        assert parse_bit_grid(" , ") == ()


@pytest.mark.parametrize(
    "args",
    [
        ["design", "--snr-db", "nan"],
        ["simulate", "--seed", "1", "--trials", "1", "--snr-db", "nan"],
        ["spectrum", "--ns", "4", "--num", "2", "--theta-o", "nan"],
        ["spectrum", "--ns", "4", "--num", "2", "--axis", "theta_o", "--beta", "nan"],
        ["spectrum", "--ns", "4", "--num", "2", "--start", "nan"],
        ["spectrum", "--ns", "4", "--num", "2", "--stop", "inf"],
        ["spectrum", "--ns", "4", "--num", "2", "--axis", "theta_o", "--stop", "deg:-inf"],
        ["capacity-sweep", "--ns", "4", "--theta-o", "nan"],
        ["simulate", "--seed", "1", "--trials", "1", "--dist-list", "100,nan"],
    ],
)
def test_non_finite_input_exits_2(args, capsys):
    # rejected at the command line, with a message naming the option
    option = args[-2]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be finite" in captured.err


class TestDesignCommand:
    def test_production_design_point(self, capsys):
        assert run_cli(["design", "--ns", "8", "--snr-db", "15", "--lambda", "0.004", "--dist", "100"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert abs(float(values["beta_opt"]) - 3.09) <= 0.05
        assert abs(float(values["radius_equal_m"]) - 0.44) <= 0.01
        assert abs(float(values["capacity_bps_hz"]) - 38.79) <= 0.15

    def test_rotation_flag_in_degrees(self, capsys):
        assert run_cli(["design", "--ns", "8", "--theta-o", "deg:22.5"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert float(values["theta_o"]) == pytest.approx(math.pi / 8)
        # optimum at the rotation bound, frozen from the library search
        assert float(values["beta_opt"]) == pytest.approx(
            search_beta_opt(8, math.pi / 8, 15.0).beta_opt, abs=1e-6
        )

    def test_optimum_at_range_edge_noted_on_stderr(self, capsys):
        # at 64 antennas and 15 dB capacity still rises at beta = 14
        args = ["design", "--ns", "64", "--snr-db", "15"]
        assert run_cli(args) == 0
        captured = capsys.readouterr()
        assert float(parse_kv(captured.out)["beta_opt"]) > 14.0 - 0.01
        assert "within --resolution of --beta-max" in captured.err
        assert run_cli(args + ["--beta-max", "40"]) == 0
        captured = capsys.readouterr()
        assert float(parse_kv(captured.out)["beta_opt"]) == pytest.approx(29.64, abs=0.01)
        assert captured.err == ""

    def test_far_below_0_db_keeps_the_first_cell_optimum(self, capsys):
        # at -150 dB the capacity is near 1e-13, where 1 + SNR would round the curve to noise
        # (beta 0.02, capacity 9.22586833e-14); a 50-digit sum over the first-cell optimum's
        # powers gives 9.23324825e-14
        assert run_cli(["design", "--snr-db", "-150"]) == 0
        values = parse_kv(capsys.readouterr().out)
        assert values["beta_opt"] == "4.10406721e-05"
        assert values["capacity_bps_hz"] == "9.23324825e-14"

    def test_odd_antenna_count_exits_2(self, capsys):
        assert run_cli(["design", "--ns", "5"]) == 2
        assert "even" in capsys.readouterr().err

    def test_curve_out_removed(self, tmp_path, capsys):
        # `capacity-sweep --step <resolution>` writes the same curve
        out = tmp_path / "curve.csv"
        assert run_cli(["design", "--ns", "4", "--curve-out", str(out)]) == 2
        assert "unrecognized arguments: --curve-out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        # an empty grid, and a one-point grid beyond --beta-max
        (["--beta-max", "0.005"], "resolution 0.01 exceeds beta_max 0.005"),
        (["--resolution", "20"], "resolution 20 exceeds beta_max 14"),
    ])
    def test_grid_beyond_beta_max_exits_2(self, capsys, args, message):
        assert run_cli(["design", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_overflowing_snr_exits_2(self, capsys):
        assert run_cli(["design", "--snr-db", "4000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snr_db 4000 dB is outside the range" in captured.err

    @pytest.mark.parametrize("length", ["1e200", "1e-200", "1e-160"])
    def test_radius_out_of_float_range_exits_2(self, capsys, length):
        # an infinite or zero radius was printed, with exit 0; at 1e-160 the radii product
        # 2.5e-321 is subnormal, and the radius printed was wrong from its 5th digit
        assert run_cli(["design", "--ns", "4", "--lambda", length, "--dist", length]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the range of a positive finite float" in captured.err


class TestSpectrumCommand:
    def test_half_mode_null_on_rotation_axis(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--ns", "8", "--axis", "theta_o", "--beta", "3.1",
                        "--num", "21", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[:3] == ["beta", "theta_o", "sigma_1"]
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        at_bounds = [r for r in rows if abs(abs(r[1]) - math.pi / 8) < 1e-8]
        assert len(at_bounds) == 2
        for r in at_bounds:
            assert r[2 + 4] <= 1e-10  # fifth singular value

    def test_beta_axis_starts_degenerate(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--ns", "4", "--axis", "beta", "--start", "0",
                        "--stop", "6", "--num", "601", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        first = list(map(float, lines[1].split(",")))
        assert first[2:] == pytest.approx([4.0, 0.0, 0.0, 0.0], abs=1e-10)

    def test_column_pairing(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--ns", "8", "--axis", "beta", "--theta-o", "0.2",
                        "--num", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        for line in lines:
            sig = list(map(float, line.split(",")))[2:]
            for k in range(1, 8):  # sigma_{k+1} pairs with sigma_{N+1-k}
                assert sig[k] == pytest.approx(sig[8 - k], abs=1e-7)

    def test_negative_beta_grid_exits_2(self, capsys):
        assert run_cli(["spectrum", "--ns", "4", "--start", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta must be nonnegative" in captured.err

    def test_empty_grid_rejected(self, capsys):
        assert run_cli(["spectrum", "--ns", "8", "--num", "0"]) == 2
        capsys.readouterr()


class TestCapacitySweepCommand:
    def test_curve_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(["capacity-sweep", "--ns", "4", "--beta-max", "3", "--step", "0.01",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,capacity_bps_hz"
        assert len(lines) == 301

    def test_curve_peaks_at_optimum(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["capacity-sweep", "--ns", "4", "--snr-db", "15", "--beta-max", "7",
                        "--step", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        rows = [tuple(map(float, line.split(","))) for line in lines]
        best = max(rows, key=lambda r: r[1])
        assert best[0] == pytest.approx(math.pi / 2, abs=0.01)

    @pytest.mark.parametrize("args, message", [
        (["--step", "20"], "error: --step 20 exceeds --beta-max 14; the beta grid is empty\n"),
        (["--beta-max", "0.005"], "error: --step 0.01 exceeds --beta-max 0.005; the beta grid is empty\n"),
        (["--beta-max", "-1"], "error: --step 0.01 exceeds --beta-max -1; the beta grid is empty\n"),
        (["--step", "0"], "error: --step must be positive, got 0\n"),
        (["--step", "-0.5"], "error: --step must be positive, got -0.5\n"),
    ])
    def test_step_beyond_beta_max_exits_2(self, tmp_path, capsys, args, message):
        # the message names the flags the user typed; design.capacity_curve names its
        # parameters (resolution, beta_max), which capacity-sweep does not have
        out = tmp_path / "c.csv"
        assert run_cli(["capacity-sweep", "--ns", "4", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists()

    def test_overflowing_snr_exits_2(self, capsys):
        assert run_cli(["capacity-sweep", "--ns", "4", "--snr-db", "4000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snr_db 4000 dB" in captured.err


class TestSimulateCommand:
    BASE = ["simulate", "--seed", "11", "--trials", "3", "--ns-list", "4",
            "--dist-list", "100,300", "--lambda", "0.004"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.BASE + ["--out", str(out1)]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(self.BASE + ["--out", str(out2)]) == 0
        assert capsys.readouterr().err == ""
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.BASE + ["--out", str(out1)]) == 0
        assert run_cli(["simulate", "--seed", "12"] + self.BASE[3:] + ["--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_aligned_single_trial_matches_library(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run_cli(["simulate", "--seed", "5", "--trials", "1", "--range-all", "0",
                        "--theta-cs-range", "0", "--ns-list", "4", "--dist-list", "100",
                        "--lambda", "0.004", "--out", str(out)]) == 0
        rates = {}
        for line in out.read_text().strip().split("\n")[1:]:
            fields = line.split(",")
            if fields[4] == "0":
                rates[fields[3]] = float(fields[5])
        radius = search_beta_opt(4, 0.0, 15.0, wavelength=0.004, distance=100.0).radius_equal
        arr = ArrayConfig(n_antennas=4, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=100.0)
        sig = singular_values(4, arr.beta, 0.0)
        powers = water_fill(sig, 10**1.5)
        # CSV carries 9 significant digits, so compare at that resolution
        cap = float(np.sum(np.log2(1.0 + powers * sig**2)))
        assert rates["capacity"] == pytest.approx(cap, abs=5e-6)
        assert rates["optimal-precoder"] == pytest.approx(cap, abs=5e-6)
        assert rates["identity"] == pytest.approx(cap, abs=5e-6)
        h = build_channel(arr, Misalignment())
        _, zf_sic = nulling_rates(*svd_of(h.entries[None]), 10**1.5)
        assert rates["zf-sic"] == pytest.approx(zf_sic[0], abs=5e-6)

    def test_missing_seed_is_usage_error(self):
        assert run_cli(["simulate", "--trials", "2"]) == 2

    @pytest.mark.parametrize("command", [["simulate", "--ns-list", "4"], ["codebook", "--ns", "4"]])
    @pytest.mark.parametrize("seed, alias", [(2**64, 0), (-1, 2**64 - 1)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, command, seed, alias):
        # each seed wrote the CSV of the in-range seed it shares 64 bits with
        out = tmp_path / "a.csv"
        args = [*command, "--trials", "1", "--out", str(out)]
        assert run_cli([*args, f"--seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert "seed must lie in [0, 2**64)" in captured.err
        assert not out.exists()
        assert run_cli([*args, f"--seed={alias}"]) == 0

    @pytest.mark.parametrize("command", [["simulate", "--ns-list", "4"], ["codebook", "--ns", "4"]])
    def test_overflowing_snr_is_usage_error(self, capsys, command):
        assert run_cli([*command, "--seed", "1", "--trials", "1", "--snr-db", "4000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snr_db 4000 dB is outside the range" in captured.err

    def test_exact_geometry_at_minus_20_db_scores_every_zf_row(self, tmp_path, capsys):
        # at -20 dB the design picks beta near 4e-5, and some exact channels pass the rank rule
        # while their Gram matrix is singular in float.  Its inverse raised "Singular matrix" on
        # the whole run, which exited 3; the ZF from the cell's SVD forms no Gram matrix.  Rows of
        # cond >= 1.36e11 still differ between BLAS kernels, and whether they should score 0 is
        # the rank rule's open question (ROADMAP items 6 and 22), so no rate is pinned here
        out = tmp_path / "low_snr.csv"
        assert run_cli(["simulate", "--seed", "3", "--trials", "50", "--lambda", "0.004", "--snr-db", "-20",
                        "--range-all", "deg:15", "--exact-geometry", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rates = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            _, n, dist, scheme, trial, rate, *_ = line.split(",")
            rates[n, dist, trial, scheme] = float(rate)
        zf = {key[:3]: rate for key, rate in rates.items() if key[3] == "zf" and key[2] != "-1"}
        assert len(zf) == 4 * 5 * 50
        for key, rate in zf.items():
            assert math.isfinite(rate) and rate <= rates[(*key, "zf-sic")] + 1e-9, key

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_out_of_range_azimuth_is_usage_error_for_every_seed(self, seed, capsys):
        assert run_cli(["simulate", "--seed", seed, "--trials", "3", "--ns-list", "4",
                        "--dist-list", "100", "--theta-cs-range", "3.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theta_cs_range" in captured.err


class TestCodebookCommand:
    def test_deterministic_and_schema(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["codebook", "--seed", "4", "--trials", "2", "--ns", "4", "--dist", "300",
                "--lambda", "0.004", "--bit-grid", "2:1,1:2"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,n_antennas,distance_m,scheme")
        assert {line.split(",")[3] for line in lines[1:]} == {"codebook-sine", "codebook-linear"}

    @pytest.mark.parametrize("grid", [",", " , "])
    def test_empty_bit_grid_exits_2(self, tmp_path, capsys, grid):
        out = tmp_path / "a.csv"
        assert run_cli(["codebook", "--seed", "1", "--trials", "1", "--ns", "4",
                        "--bit-grid", grid, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bit_grid must not be empty" in captured.err
        assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--ns-list", "4"], ["codebook", "--ns", "4"]])
class TestJobsRemoved:
    """`--jobs` is no longer an option: as a flag or a config key it is a usage error."""

    def test_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "a.csv"
        assert run_cli([*command, "--seed", "1", "--trials", "1", "--jobs", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err
        assert not out.exists()

    def test_config_key_exits_2(self, tmp_path, capsys, command):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 1\ntrials = 1\njobs = 2\n")
        out = tmp_path / "a.csv"
        assert run_cli([*command, "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run.conf:3" in err and "--jobs" in err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--ns", "0", "--axis", "theta_o"],  # pi/N is computed before any library call
    ["spectrum", "--ns", "3"],
    ["capacity-sweep", "--ns", "-2"],
    ["simulate", "--seed", "1", "--trials", "1", "--ns-list", "4,7"],
    ["codebook", "--seed", "1", "--trials", "1", "--ns", "1"],
])
def test_odd_or_small_antenna_count_exits_2(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an even integer >= 2, got" in captured.err


@pytest.mark.parametrize("args, option", [
    (["design", "--ns", "5"], "--ns"),
    (["spectrum", "--ns=0"], "--ns"),
    (["simulate", "--seed", "1", "--ns-list", "4,7"], "--ns-list"),
    (["codebook", "--seed", "1", "--ns", "-2"], "--ns"),
])
def test_antenna_count_is_checked_while_parsing(args, option, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(args)
    assert f"argument {option}: antenna count must be an even integer >= 2" in capsys.readouterr().err


C_75GHZ = 299792458.0 / 75e9  # the campaigns' default wavelength [m]
CAMPAIGN = {
    "--config": (None, False),
    "--seed": (None, True),
    "--trials": (100, False),
    "--snr-db": (15.0, False),
    "--lambda": (C_75GHZ, False),
    "--design-dist": (100.0, False),
    "--range-all": (math.radians(10.0), False),
    "--theta-cs-range": (math.pi, False),
    "--out": (None, False),
}
SURFACE = {
    "design": {
        "--config": (None, False),
        "--ns": (8, False),
        "--snr-db": (15.0, False),
        "--lambda": (0.004, False),
        "--dist": (100.0, False),
        "--theta-o": (0.0, False),
        "--beta-max": (14.0, False),
        "--resolution": (0.01, False),
    },
    "spectrum": {
        "--config": (None, False),
        "--ns": (8, False),
        "--axis": ("beta", False),
        "--beta": (3.1, False),
        "--theta-o": (0.0, False),
        "--start": (None, False),
        "--stop": (None, False),
        "--num": (601, False),
        "--out": (None, False),
    },
    "capacity-sweep": {
        "--config": (None, False),
        "--ns": (8, False),
        "--snr-db": (15.0, False),
        "--theta-o": (0.0, False),
        "--beta-max": (14.0, False),
        "--step": (0.01, False),
        "--out": (None, False),
    },
    "simulate": {
        **CAMPAIGN,
        "--ns-list": ((4, 8, 12, 16), False),
        "--dist-list": ((100.0, 200.0, 300.0, 400.0, 500.0), False),
        "--l1": (5, False),
        "--l2": (3, False),
        "--exact-geometry": (False, False),
    },
    "codebook": {
        **CAMPAIGN,
        "--ns": (16, False),
        "--dist": (300.0, False),
        "--bit-grid": (((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 3),
                        (3, 1), (3, 2), (3, 4), (3, 5)), False),
    },
}


def test_cli_surface_is_pinned():
    # every option string of every subcommand, with its default and whether it is required;
    # only the order in --help is free to move
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(SURFACE)
    for name, command in commands.items():
        surface = {}
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                assert option not in surface, f"{name} {option} declared twice"
                surface[option] = (action.default, action.required)
        assert surface == SURFACE[name], name


# one value per non-switch option, each unlike its default; a new option fails
# test_file_and_joined_flag_parse_alike until it has one here
CONFIG_SAMPLES = {
    "--seed": "7", "--trials": "3", "--snr-db": "-2.5", "--lambda": "0.01", "--design-dist": "150",
    "--range-all": "deg:5", "--theta-cs-range": "-1e-3", "--out": "rates.csv", "--ns": "4", "--dist": "250",
    "--theta-o": "-1e-3", "--beta-max": "9", "--resolution": "0.05", "--axis": "theta_o", "--beta": "2",
    "--start": "0.5", "--stop": "-0.5", "--num": "7", "--step": "0.5", "--ns-list": "4,6",
    "--dist-list": "50,60", "--l1": "2", "--l2": "1", "--bit-grid": "1:2,2:1",
}


class TestConfigFile:
    @pytest.mark.parametrize("flag", [["--conf", "{}"], ["--conf={}"], ["--config={}"]])
    def test_abbreviated_or_joined_flag_reads_the_file(self, tmp_path, capsys, flag):
        # argparse accepts a unique prefix of --config, so the file it names must be read
        conf = tmp_path / "run.conf"
        conf.write_text("ns = 4\n")
        assert run_cli(["design", *(part.format(conf) for part in flag)]) == 0
        assert parse_kv(capsys.readouterr().out)["n_antennas"] == "4"

    def test_bare_trailing_flag_is_usage_error(self, capsys):
        assert run_cli(["design", "--config"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --config: expected one argument" in captured.err

    def test_file_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("ns = 4\nsnr-db = 15\nlambda = 0.004\ndist = 100\n")
        assert run_cli(["design", "--config", str(conf)]) == 0
        assert parse_kv(capsys.readouterr().out)["n_antennas"] == "4"
        assert run_cli(["design", "--config", str(conf), "--ns", "8"]) == 0
        assert parse_kv(capsys.readouterr().out)["n_antennas"] == "8"

    def test_underscore_keys_accepted(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("snr_db = 10  # comment\n\n")
        assert run_cli(["design", "--ns", "4", "--config", str(conf)]) == 0
        assert parse_kv(capsys.readouterr().out)["snr_db"] == "10"

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nonsense-key = 3\n")
        assert run_cli(["design", "--config", str(conf)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_nested_config_key_is_usage_error(self, tmp_path, capsys, key):
        (tmp_path / "other.conf").write_text("ns = 4\n")
        conf = tmp_path / "nested.conf"
        conf.write_text(f"snr-db = 10\n{key} = {tmp_path / 'other.conf'}\n")
        assert run_cli(["design", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested.conf:2" in captured.err

    def test_malformed_line_reports_path(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("just a line\n")
        assert run_cli(["design", "--config", str(conf)]) == 2
        assert "run.conf:1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        # unique prefixes of --ns, --lambda and --theta-o, which argparse accepts as flags
        ("design", "n = 4"), ("design", "lam = 0.01"), ("design", "theta = deg:1"),
        ("design", "trials = 5"),  # another subcommand's option
    ])
    def test_key_must_name_an_option_of_the_command(self, tmp_path, capsys, command, key):
        conf = tmp_path / "run.conf"
        conf.write_text(f"snr-db = 10\n{key}\n")
        assert run_cli([command, "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"run.conf:2: {command} has no option --{key.split()[0]}" in captured.err

    @pytest.mark.parametrize("argv, line, message", [
        (["design"], "ns = false", "argument --ns: invalid antenna_count value: 'false'"),
        (["design"], "ns = true", "argument --ns: invalid antenna_count value: 'true'"),
        (["simulate", "--seed", "1"], "exact-geometry = yes", "run.conf:1: switch --exact-geometry"),
        (["spectrum"], "axis = foo", "argument --axis: invalid choice: 'foo'"),
    ])
    def test_value_gets_the_options_checks(self, tmp_path, capsys, argv, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert run_cli([*argv, "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_negative_value_is_a_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("theta-o = -1e-3\n")
        assert run_cli(["design", "--config", str(conf)]) == 0
        assert parse_kv(capsys.readouterr().out)["theta_o"] == "-0.001"

    @pytest.mark.parametrize("argv", [["--config", "{}"], ["--config", "{}", "design"]])
    def test_no_file_is_read_without_a_subcommand(self, tmp_path, capsys, argv):
        conf = tmp_path / "run.conf"
        conf.write_text("ns = 4\n")
        missing = tmp_path / "missing.conf"
        for path in (conf, missing):
            assert run_cli([part.format(path) for part in argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"invalid choice: '{path}'" in captured.err

    def test_file_with_required_seed_writes_the_golden(self, tmp_path):
        # the README's example: a file can supply every option, the required --seed included
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 2024\nlambda = 0.004\ntrials = 3\nns_list = 4,16\ndist-list = 100,500\n")
        out = tmp_path / "a.csv"
        assert run_cli(["simulate", "--config", str(conf), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "simulate_seed2024.csv").read_bytes()

    @pytest.mark.parametrize("name", SURFACE)
    def test_file_and_joined_flag_parse_alike(self, tmp_path, monkeypatch, name):
        # driven by the parser's own option table: for every option, a one-line file
        # and the joined flag must give the same namespace
        import ucamimo.cli as cli_module

        seen = []
        monkeypatch.setattr(cli_module, f"cmd_{name.replace('-', '_')}", lambda args: seen.append(args) or 0)

        def parse(argv):
            assert run_cli(argv) == 0
            args = vars(seen.pop())
            del args["config"]
            return args

        conf = tmp_path / "run.conf"
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = [a for a in commands[name]._actions if a.option_strings and a.dest not in ("help", "config")]
        for action in options:
            option = action.option_strings[0]
            if action.nargs == 0:  # a switch
                cases = [("true", [option]), ("false", [])]
            else:
                assert option in CONFIG_SAMPLES, f"{name} {option} has no sample value"
                cases = [(CONFIG_SAMPLES[option], [f"{option}={CONFIG_SAMPLES[option]}"])]
            # the other required options, as flags in both runs
            base = [f"{a.option_strings[0]}={CONFIG_SAMPLES[a.option_strings[0]]}"
                    for a in options if a.required and a is not action]
            for value, flags in cases:
                conf.write_text(f"{option[2:]} = {value}\n")
                from_flag = parse([name, *flags, *base])
                assert parse([name, "--config", str(conf), *base]) == from_flag, (option, value)
                if flags and not action.required:
                    assert from_flag != parse([name, *base]), f"the {option} sample is its default"


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        import ucamimo.cli as cli_module

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(cli_module.design, "search_beta_opt", boom)
        assert run_cli(["design", "--ns", "4"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    # Each request needs one array of at least 1 PiB, past the 128 TiB a
    # 64-bit process can map, so NumPy refuses it before any page is touched.
    @pytest.mark.parametrize("argv", [
        ["codebook", "--seed", "1", "--trials", "1", "--bit-grid", "50:3"],
        ["simulate", "--seed", "1", "--trials", "1", "--l1", "50", "--ns-list", "4", "--dist-list", "100"],
        ["design", "--resolution", "1e-13"],
        ["spectrum", "--num", "1000000000000000"],
    ])
    def test_oversized_request_is_usage_error(self, capsys, argv):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["codebook", "--ns", "4", "--bit-grid", "1024:1"],
        ["simulate", "--ns-list", "4", "--dist-list", "100", "--l1", "1024"],
    ])
    def test_bit_count_beyond_the_bound_exits_2(self, tmp_path, capsys, argv):
        # both exited 1 with an OverflowError traceback from building the 2**1024-cell grid
        out = tmp_path / "a.csv"
        assert run_cli([*argv, "--seed", "1", "--trials", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bit counts must be nonnegative integers of at most 52, got 1024\n"
        assert not out.exists()

    @pytest.mark.parametrize("distance", ["1e200", "1e-300"])
    def test_exact_distance_beyond_float_range_exits_2(self, capsys, distance):
        # D**2 overflows or underflows: the distance is rejected, by name, before any arithmetic,
        # so NumPy warns of nothing (the suite turns warnings into errors)
        assert run_cli(["simulate", "--seed", "1", "--trials", "1", "--ns-list", "4",
                        "--dist-list", distance, "--exact-geometry"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the exact distances at distance {float(distance):g} m ")
        assert err.endswith(" finite\n") and err.count("\n") == 1

    @pytest.mark.parametrize("wavelength", ["1e-300", "1e-20"])
    def test_exact_phases_lost_to_rounding_exit_2(self, tmp_path, capsys, wavelength):
        # both exited 0: at 1e-300 every exact distance rounded to D and the channel was rank 1;
        # at 1e-20 one unit in D's last place is 8.9e6 rad of phase, and the run printed
        # capacity 18.17 and cond 4.02 where 4 mm gives 20.08 and 1.12
        out = tmp_path / "a.csv"
        assert run_cli(["simulate", "--seed", "1", "--trials", "1", "--ns-list", "4", "--dist-list", "100",
                        "--lambda", wavelength, "--exact-geometry", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: the exact distances at distance 100 m cannot resolve the phases at wavelength {wavelength} m: "
            "one unit in the last place of D is ")
        assert captured.err.endswith(" rad of phase, above 1e-06 rad, so rounding would set the channel\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", [[], ["--exact-geometry"]])
    def test_phase_beyond_float_range_exits_2(self, capsys, model):
        # 2*pi*D/lambda overflowed: NumPy warned as it built the phasors, and the channel was
        # then rejected for its non-unit entries; the suite turns warnings into errors
        assert run_cli(["simulate", "--seed", "1", "--trials", "1", "--ns-list", "4",
                        "--dist-list", "100", "--lambda", "1e-307", *model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the phases at wavelength 1e-307 m and distance 100 m ")
        assert captured.err.count("\n") == 1


class TestCampaignDefaults:
    """The campaign commands hand the runners TrialConfig's defaults, but for codebook's --ns and --dist."""

    @pytest.fixture
    def received(self, monkeypatch):
        import ucamimo.cli as cli_module

        calls = []
        monkeypatch.setattr(cli_module.sim, "run_rate_sweep", lambda cfg: calls.append(cfg) or [])
        monkeypatch.setattr(cli_module.sim, "run_codebook_bit_sweep",
                            lambda cfg, bit_grid: calls.append((cfg, bit_grid)) or [])
        return calls

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_simulate(self, received, capsys, seed):
        assert run_cli(["simulate", "--seed", str(seed)]) == 0
        assert received == [TrialConfig(seed=seed)]

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_codebook(self, received, capsys, seed):
        assert run_cli(["codebook", "--seed", str(seed)]) == 0
        assert received == [(TrialConfig(seed=seed, n_antennas_list=(16,), distances=(300.0,)), DEFAULT_BIT_GRID)]

    def test_config_file(self, tmp_path, received, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 5\ntrials = 3\ndesign_dist = 150\nrange-all = deg:5\n"
                        "l2 = 1\nexact-geometry = true\n")
        assert run_cli(["simulate", "--config", str(conf), "--ns-list", "4,6"]) == 0
        expected = TrialConfig(seed=5, n_trials=3, design_distance=150.0, angle_range_small=math.radians(5.0),
                               n_antennas_list=(4, 6), codebook_bits=(5, 1), exact_geometry=True)
        assert received == [expected]


DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
SIMULATE_GOLDEN_ARGS = ["simulate", "--seed", "2024", "--lambda", "0.004", "--trials", "3",
                        "--ns-list", "4,16", "--dist-list", "100,500"]
CODEBOOK_GOLDEN_ARGS = ["codebook", "--seed", "2024", "--trials", "2", "--bit-grid", "1:3,3:5"]
DESIGN_GOLDEN_NS = [4, 8, 16, 64]
DESIGN_GOLDEN_THETAS = [("0", "theta0"), ("deg:1.5", "theta1p5deg")]
CAPACITY_SWEEP_GOLDENS = [
    # at theta_o = 0 many grid points hold exactly tied gains
    ("capacity_sweep_n4_theta0.csv", ["--ns", "4"]),
    ("capacity_sweep_n64_theta1p5deg.csv", ["--ns", "64", "--theta-o", "deg:1.5"]),
]
SPECTRUM_GOLDENS = [
    ("spectrum_n8_beta.csv", ["--ns", "8", "--num", "41"]),
    # the range stays clear of the nulls at theta_o = +-pi/8, whose near-zero digits follow the FFT's rounding
    ("spectrum_n8_theta_deg20.csv", ["--ns", "8", "--axis", "theta_o", "--start", "deg:-20",
                                     "--stop", "deg:20", "--num", "41"]),
]
# Every golden a CLI command writes, with that command, but the exact-geometry ones: their
# bytes still move with the BLAS kernel (ROADMAP items 6 and 12).  The spectrum takes an FFT, not BLAS.
KERNEL_FREE_GOLDENS = {
    "simulate_seed2024.csv": SIMULATE_GOLDEN_ARGS,
    "codebook_seed2024.csv": CODEBOOK_GOLDEN_ARGS,
    **{f"design_n{ns}_{suffix}.txt": ["design", "--ns", str(ns), "--theta-o", theta]
       for ns in DESIGN_GOLDEN_NS for theta, suffix in DESIGN_GOLDEN_THETAS},
    **{name: ["capacity-sweep", *args] for name, args in CAPACITY_SWEEP_GOLDENS},
    **{name: ["spectrum", *args] for name, args in SPECTRUM_GOLDENS},
}
# Runs each (path, argv) pair of its JSON argument through cli.main, with stdout going to the path.
KERNEL_CHILD = """
import contextlib, json, sys
from ucamimo.cli import main
for path, argv in json.loads(sys.argv[1]):
    with open(path, "w", encoding="utf-8", newline="\\n") as fh, contextlib.redirect_stdout(fh):
        if main(argv) != 0:
            sys.exit(f"{argv} failed")
"""

# Scores each allocation that its JSON argument names: every stream powered ("all", and "filled",
# water-filled at 30 dB over gains from 1 to 0.3), n/2 + 1 streams ("half") or one ("one").  Each
# is scored over the whole codebook in one block, in blocks of 1, 7 and 33 (channel, entry) pairs,
# one channel at a time, and as a shuffled half of the pairs; the child prints the cases whose
# rates are not equal bit for bit to the one-block stacked call.  One codebook_best_rates call
# then scores five codebooks of 1 to 256 entries, the 256-entry one twice, at the default block
# and in blocks of 33 pairs (37 to 132 entries of the bound), so that entry blocks straddle
# codebooks; the child prints each row that is not its own codebook's row maximum.
SCORER_BLOCK_CHILD = """
import json, math, sys
import numpy as np
from ucamimo import APPROXIMATE, EXACT_DISTANCE, ArrayConfig, Misalignment, build_channels, build_codebook
from ucamimo import codebook_best_rates, codebook_rates_many, sim, transceiver, water_fill
rng = np.random.default_rng(75)
cb = build_codebook(5, 3)
books = [build_codebook(1, 0), cb, build_codebook(3, 2, quantization="linear"), build_codebook(0, 0), cb]
default_block = transceiver._SCORE_BLOCK
moved = []
for n, radius in ((4, 0.3162), (8, 0.4451), (12, 0.5396), (16, 0.6176)):
    cfg = ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=300.0)
    ranges = ((-math.pi / n, math.pi / n), (-math.pi, math.pi), (0.0, 0.17), (-0.17, 0.17), (-0.17, 0.17))
    mis = Misalignment(*(rng.uniform(lo, hi, 3) for lo, hi in ranges))
    for active in json.loads(sys.argv[1]):
        if active == "filled":
            powers = water_fill(np.geomspace(1.0, 0.3, n), 1e3)
            assert (powers > 0).all()
        else:
            r = {"all": n, "half": n // 2 + 1, "one": 1}[active]
            powers = np.zeros(n)
            powers[:r] = 10**1.5 * np.geomspace(1.0, 0.1, r) / np.geomspace(1.0, 0.1, r).sum()
        r = np.count_nonzero(powers)
        pair_block = lambda count: -(-count * (n + r) ** 2 // 2)  # _SCORE_BLOCK of `count` pairs per block
        for model in (APPROXIMATE, EXACT_DISTANCE):
            case = f"N={n} {active} {model}"
            h = build_channels(cfg, mis, model)
            pairs = len(h) * cb.size
            transceiver._SCORE_BLOCK = pair_block(pairs + 1)
            whole = codebook_rates_many(cfg, h, cb, powers)
            for k in range(len(h)):
                if not np.array_equal(codebook_rates_many(cfg, h[k:k + 1], cb, powers)[0], whole[k]):
                    moved.append(f"{case} channel {k} alone")
            for count in (1, 7, 33):
                transceiver._SCORE_BLOCK = pair_block(count)
                if not np.array_equal(codebook_rates_many(cfg, h, cb, powers), whole):
                    moved.append(f"{case} blocks of {count}")
            transceiver._SCORE_BLOCK = default_block
            trials, entries = np.divmod(rng.permutation(pairs)[: pairs // 2], cb.size)
            hh, _ = transceiver._scorer_inputs(cfg, h, powers)
            t = transceiver._codebook_phasors(cfg, cb)
            q = transceiver._stream_columns(n, powers)
            if not np.array_equal(transceiver._pair_rates(hh, t, q, trials, entries), whole[trials, entries]):
                moved.append(f"{case} shuffled pairs")
            maxima = [codebook_rates_many(cfg, h, book, powers).max(axis=-1) for book in books]
            _, sigma, vh = np.linalg.svd(h)
            svd = (sigma, np.swapaxes(vh, 1, 2).conj()) if model == EXACT_DISTANCE else sim._closed_form(cfg, cfg.beta, mis)
            for count in (2 * default_block // (n + r) ** 2, 33):
                transceiver._SCORE_BLOCK = pair_block(count)
                best = codebook_best_rates(cfg, h, *svd, books, powers)
                moved += [f"{case} best entry of codebook {k} in blocks of {count}"
                          for k, maximum in enumerate(maxima) if not np.array_equal(best[k], maximum)]
            transceiver._SCORE_BLOCK = default_block
print(json.dumps(moved))
"""


def openblas_picks_its_kernel() -> bool:
    """NumPy's BLAS is an OpenBLAS that picks its kernel at run time, so OPENBLAS_CORETYPE applies."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 prints its configuration only
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def scorer_cases_that_move(core: str, allocations: list[str]) -> list[str]:
    """SCORER_BLOCK_CHILD's moved cases for the allocations, run under the OpenBLAS kernel `core` on one thread."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", SCORER_BLOCK_CHILD, json.dumps(allocations)], env=env,
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


class TestGoldenBytes:
    """Campaign CSVs and design outputs must stay byte-identical to the committed copies in tests/data."""

    @pytest.mark.parametrize("name, args", [
        ("simulate_seed2024.csv", SIMULATE_GOLDEN_ARGS),
        ("codebook_seed2024.csv", CODEBOOK_GOLDEN_ARGS),
        ("simulate_exact_seed2024.csv", ["simulate", "--seed", "2024", "--lambda", "0.004", "--trials", "3",
                                         "--ns-list", "8,16", "--dist-list", "100,500",
                                         "--range-all", "deg:15", "--exact-geometry"]),
    ])
    def test_csv_bytes_unchanged(self, tmp_path, name, args):
        out = tmp_path / name
        assert run_cli([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.skipif(not openblas_picks_its_kernel(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_separable_csv_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path, core):
        # OPENBLAS_CORETYPE forces another kernel for the child process only, which writes
        # every kernel-free golden.  The simulate golden's zf rows of ill-conditioned channels
        # moved with the kernel while they came from a Gram inverse; from the closed-form
        # spectrum they print the same digits under each kernel
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        jobs = [(str(tmp_path / name), argv) for name, argv in KERNEL_FREE_GOLDENS.items()]
        subprocess.run([sys.executable, "-c", KERNEL_CHILD, json.dumps(jobs)], env=env, check=True)
        for name in KERNEL_FREE_GOLDENS:
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    @pytest.mark.skipif(not openblas_picks_its_kernel(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_full_rank_codebook_rates_do_not_depend_on_the_blas_kernel_partition(self, core):
        # with every stream powered each entry takes its own N-row products and one LAPACK
        # Cholesky, whatever block it shares, so the block and the stack cannot move a rate
        # under any kernel.  An earlier Gram form with one zgemm per block moved 12 of the 48
        # cases of "all" under Haswell.  The eigenbasis bound, a dgemm, prunes the water-filled
        # allocation's entries, and the best entry's rate must still be the row maximum
        assert scorer_cases_that_move(core, ["all", "filled"]) == []

    @pytest.mark.skipif(not openblas_picks_its_kernel(), reason="needs an OpenBLAS built with DYNAMIC_ARCH")
    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_partial_rank_codebook_rates_do_not_depend_on_the_blas_kernel_partition(self, core):
        # with r < N streams powered each entry takes its own r-row products, whatever block
        # it shares, so neither the block nor the stack moves a rate, and the best entry's
        # rate, scored apart from most of its codebook, is the row maximum bit for bit
        assert scorer_cases_that_move(core, ["half", "one"]) == []

    @pytest.mark.parametrize("ns", DESIGN_GOLDEN_NS)
    @pytest.mark.parametrize("theta, suffix", DESIGN_GOLDEN_THETAS)
    def test_design_bytes_unchanged(self, capsys, ns, theta, suffix):
        assert run_cli(["design", "--ns", str(ns), "--theta-o", theta]) == 0
        assert capsys.readouterr().out.encode() == (DATA / f"design_n{ns}_{suffix}.txt").read_bytes()

    @pytest.mark.parametrize("name, args", CAPACITY_SWEEP_GOLDENS)
    def test_capacity_sweep_bytes_unchanged(self, tmp_path, name, args):
        out = tmp_path / name
        assert run_cli(["capacity-sweep", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("name, args", SPECTRUM_GOLDENS)
    def test_spectrum_bytes_unchanged(self, tmp_path, name, args):
        out = tmp_path / name
        assert run_cli(["spectrum", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_exact_geometry_bit_sweep_bytes_unchanged(self):
        # `codebook` has no --exact-geometry flag, so this campaign runs through the library;
        # at 15 degrees some seed-3 rotations are clamped onto pi/16, which exercises the clamp
        cfg = TrialConfig(seed=3, n_trials=8, angle_range_small=math.radians(15.0), n_antennas_list=(16,),
                          distances=(500.0,), wavelength=0.004, exact_geometry=True)
        csv = rows_to_csv(run_codebook_bit_sweep(cfg, ((1, 3), (3, 5))))
        assert csv.encode() == (DATA / "codebook_exact_seed3.csv").read_bytes()
