import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from ucamimo import Misalignment, build_channel, search_beta_opt, zf_sic_rate
from ucamimo.cli import main, parse_angle, parse_bit_grid, parse_float_list
from ucamimo.design import water_fill
from ucamimo.geometry import ArrayConfig
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
        with pytest.raises(ValueError):
            parse_bit_grid(" , ")


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

    def test_odd_antenna_count_exits_2(self, capsys):
        assert run_cli(["design", "--ns", "5"]) == 2
        assert "even" in capsys.readouterr().err

    def test_curve_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(["design", "--ns", "4", "--beta-max", "3", "--curve-out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,capacity_bps_hz"
        assert len(lines) == 301


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

    def test_empty_grid_rejected(self, capsys):
        assert run_cli(["spectrum", "--ns", "8", "--num", "0"]) == 2
        capsys.readouterr()


class TestCapacitySweepCommand:
    def test_curve_peaks_at_optimum(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["capacity-sweep", "--ns", "4", "--snr-db", "15", "--beta-max", "7",
                        "--step", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        rows = [tuple(map(float, line.split(","))) for line in lines]
        best = max(rows, key=lambda r: r[1])
        assert best[0] == pytest.approx(math.pi / 2, abs=0.01)


class TestSimulateCommand:
    BASE = ["simulate", "--seed", "11", "--trials", "3", "--ns-list", "4",
            "--dist-list", "100,300", "--lambda", "0.004"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.BASE + ["--out", str(out1)]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(self.BASE + ["--jobs", "3", "--out", str(out2)]) == 0
        assert capsys.readouterr().err == "note: --jobs is deprecated and ignored; campaigns run without a worker pool\n"
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
        alloc = water_fill(sig, 10**1.5, 1.0)
        # CSV carries 9 significant digits, so compare at that resolution
        cap = float(np.sum(np.log2(1.0 + alloc.powers * sig**2)))
        assert rates["capacity"] == pytest.approx(cap, abs=5e-6)
        assert rates["optimal-precoder"] == pytest.approx(cap, abs=5e-6)
        assert rates["identity"] == pytest.approx(cap, abs=5e-6)
        h = build_channel(arr, Misalignment())
        assert rates["zf-sic"] == pytest.approx(zf_sic_rate(h, 10**1.5, 1.0).rate, abs=5e-6)

    def test_missing_seed_is_usage_error(self):
        assert run_cli(["simulate", "--trials", "2"]) == 2

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
        assert run_cli(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,n_antennas,distance_m,scheme")
        assert {line.split(",")[3] for line in lines[1:]} == {"codebook-sine", "codebook-linear"}


class TestConfigFile:
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

    def test_malformed_line_reports_path(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("just a line\n")
        assert run_cli(["design", "--config", str(conf)]) == 2
        assert "run.conf:1" in capsys.readouterr().err


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        import ucamimo.cli as cli_module

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(cli_module.design, "search_beta_opt", boom)
        assert run_cli(["design", "--ns", "4"]) == 3
        assert "numerical failure" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


class TestGoldenBytes:
    """Campaign CSVs must stay byte-identical to the committed copies in tests/data."""

    @pytest.mark.parametrize("name, args", [
        ("simulate_seed2024.csv", ["simulate", "--seed", "2024", "--lambda", "0.004", "--trials", "3",
                                   "--ns-list", "4,16", "--dist-list", "100,500"]),
        ("codebook_seed2024.csv", ["codebook", "--seed", "2024", "--trials", "2", "--bit-grid", "1:3,3:5"]),
    ])
    def test_csv_bytes_unchanged(self, tmp_path, name, args):
        out = tmp_path / name
        assert run_cli([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()
