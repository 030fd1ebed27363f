"""Tests for argument parsing and the CSV/JSON emitters."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spheredec import cli
from spheredec.cli import emit_results, main, parse_args, render_csv
from spheredec.sim import SimConfig, SweepRecord

from conftest import subprocess_env

EXPECTED_HEADER = ("snr_db,detector,n,mod,ber,ser,mean_flops,mean_preproc_flops,"
                   "mean_nodes,trials,bit_errors,seed")


def parse_csv(text):
    """Oracle parser for the emitted CSV, used for round-trip checks."""
    lines = text.strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(SweepRecord(
            snr_db=float(f[0]), detector=f[1], n=int(f[2]), mod=int(f[3]),
            ber=float(f[4]), ser=float(f[5]), mean_flops=float(f[6]),
            mean_preproc_flops=float(f[7]), mean_nodes=float(f[8]),
            trials=int(f[9]), bit_errors=int(f[10]), seed=int(f[11]),
        ))
    return records


def sample_records():
    return [
        SweepRecord(snr_db=0.0, detector="sd-conv", n=2, mod=16,
                    ber=1.0 / 3.0, ser=0.25, mean_flops=1234.5,
                    mean_preproc_flops=242.0, mean_nodes=88.25,
                    trials=100, bit_errors=267, seed=42),
        SweepRecord(snr_db=2.0, detector="sd-new", n=2, mod=16,
                    ber=0.125, ser=0.0625, mean_flops=321.0,
                    mean_preproc_flops=242.0, mean_nodes=12.0,
                    trials=100, bit_errors=100, seed=42),
    ]


# CLI arguments whose only check is SimConfig's, and the config they make.
_LIBRARY_RULES = {("--detector", "zf"): {"detectors": ("zf",)},
                  ("--radius-dim", "3n"): {"radius_dimension": "3n"},
                  ("--trials", "9300000000000000000"):
                      {"trials_per_point": 9300000000000000000},
                  ("--trials", str(10**20)): {"trials_per_point": 10**20},
                  ("--n", "4", "--mod", "64qam"): {"n_antennas": 4, "mod_order": 64},
                  ("--snr", "0:1e-10:0"): {"snr_start_db": 0.0, "snr_step_db": 1e-10,
                                           "snr_stop_db": 0.0}}


class TestParseArgs:
    def test_defaults(self):
        args = parse_args([])
        cfg = args.config
        assert cfg.n_antennas == 2
        assert cfg.mod_order == 16
        assert cfg.detectors == ("ml", "sd-conv", "sd-new")
        assert cfg.snr_points() == tuple(float(s) for s in range(0, 21, 2))
        assert cfg.trials_per_point == 20000
        assert cfg.seed == 42
        assert cfg.radius_dimension == "2n"
        assert args.out_path == "-"
        assert args.format == "csv"

    def test_n_and_mod(self):
        cfg = parse_args(["--n", "4", "--mod", "64qam",
                          "--detector", "sd-conv", "--detector", "sd-new"]).config
        assert cfg.n_antennas == 4
        assert cfg.mod_order == 64

    def test_repeatable_detector(self):
        cfg = parse_args(["--detector", "sd-conv", "--detector", "sd-new"]).config
        assert cfg.detectors == ("sd-conv", "sd-new")

    def test_ml_guard_rejects_64qam_6x6(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--detector", "ml", "--n", "6", "--mod", "64qam"])
        assert exc.value.code == 2

    def test_ml_guard_accepts_16qam_4x4_rejects_6x6(self):
        cfg = parse_args(["--detector", "ml", "--n", "4", "--mod", "16qam"]).config
        assert cfg.detectors == ("ml",)
        assert cfg.n_antennas == 4
        with pytest.raises(SystemExit) as exc:
            parse_args(["--detector", "ml", "--n", "6", "--mod", "16qam"])
        assert exc.value.code == 2

    def test_unknown_detector_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["--detector", "zf"])

    def test_snr_parsing(self):
        cfg = parse_args(["--snr", "5:5:15"]).config
        assert cfg.snr_points() == (5.0, 10.0, 15.0)
        # argparse reads a bare -4:2:0 as a flag, so a negative start rides on '='
        cfg = parse_args(["--snr=-4:2:0"]).config
        assert cfg.snr_start_db == -4.0
        assert cfg.snr_points() == (-4.0, -2.0, 0.0)

    def test_bad_snr_rejected(self):
        for bad in ("5:15", "5:0:15", "15:2:5", "a:b:c"):
            with pytest.raises(SystemExit):
                parse_args(["--snr", bad])

    @pytest.mark.parametrize("args, env", [
        (["--snr", "0:1:inf"], {}),
        (["--snr", "nan:1:2"], {}),
        (["--seed", "-1"], {}),
        ([], {"LATTICE_SD_THREADS": "abc"}),
        ([], {"LATTICE_SD_THREADS": "0"}),
        (["--detector", "sd-conv", "--detector", "sd-conv"], {}),
        (["--detector", "ml", "--n", "6", "--mod", "64qam"], {}),
        (["--snr", "5:0:15"], {}),
        (["--snr", "15:2:5"], {}),
        (["--trials", "0"], {}),
        (["--snr", "4000:1:4000"], {}),
        (["--snr=-4000:1:-4000"], {}),
        (["--out", "/nonexistent-dir/x.csv"], {}),
        (["--detector", "zf"], {}),
        (["--radius-dim", "3n"], {}),
        ([], {"LATTICE_SD_THREADS": "2.5"}),
        (["--trials", "9300000000000000000"], {}),
        (["--trials", str(10**20)], {}),
        (["--n", "4", "--mod", "64qam"], {}),
        (["--snr", "0:1e-10:0"], {}),
    ])
    def test_bad_input_fails_fast(self, args, env):
        # a child interpreter under -O, so a hang cannot stall the suite and
        # no check may rest on an assert
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "spheredec", "--trials", "1", *args],
            env=subprocess_env(**env), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[-1].startswith("spheredec: error: ")
        # the usage block, then that one line
        assert [line for line in lines if not line.startswith(("usage: ", " "))] == lines[-1:]
        # the CLI restates no library rule, so the user sees the library's text
        config = _LIBRARY_RULES.get(tuple(args))
        if config is not None:
            with pytest.raises(ValueError) as exc:
                SimConfig(**config)
            assert lines[-1] == f"spheredec: error: {exc.value}"


class TestEmitResults:
    def test_csv_two_lines_per_single_record(self, tmp_path):
        out = tmp_path / "one.csv"
        emit_results(sample_records()[:1], "csv", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == EXPECTED_HEADER

    def test_ten_significant_digits(self):
        text = render_csv(sample_records())
        assert "0.3333333333" in text

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_results(sample_records(), "csv", str(out))
        text = out.read_text()
        parsed = parse_csv(text)
        assert render_csv(parsed) == text
        assert [r.detector for r in parsed] == ["sd-conv", "sd-new"]
        assert parsed[0].bit_errors == 267

    def test_json_mirrors_fields(self, tmp_path):
        out = tmp_path / "r.json"
        emit_results(sample_records(), "json", str(out))
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["detector"] == "sd-conv"
        assert rows[0]["trials"] == 100
        assert np.isclose(rows[1]["ber"], 0.125)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_results([], "csv", "-")


class TestMain:
    ARGS = ["--detector", "sd-conv", "--detector", "sd-new",
            "--snr", "0:10:10", "--trials", "5", "--seed", "3"]

    def test_end_to_end(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        parsed = parse_csv(out.read_text())
        assert len(parsed) == 4  # 2 SNR points x 2 detectors
        assert all(r.trials == 5 for r in parsed)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(self.ARGS + ["--format", "json", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 4

    def test_unwritable_path_nonzero_exit(self, monkeypatch):
        # the path is probed before the sweep, which therefore never starts
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--out", "/nonexistent-dir/x.csv"])
        assert exc.value.code == 2

    def test_nothing_written_before_the_sweep_succeeds(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        with pytest.raises(RuntimeError, match="no sweep"):
            main(self.ARGS + ["--out", str(out)])
        assert not out.exists()
        out.write_text("kept\n")
        with pytest.raises(RuntimeError, match="no sweep"):
            main(self.ARGS + ["--out", str(out)])
        assert out.read_text() == "kept\n"

    def test_stdout(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(EXPECTED_HEADER)

    def test_verbose_reports_on_stderr_only(self, capsys):
        assert main(self.ARGS) == 0
        quiet = capsys.readouterr()
        assert main(self.ARGS + ["-v"]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        assert quiet.err == ""
        assert verbose.err.splitlines() == [
            "sweep: 2x2 16-QAM, 2 SNR points x 5 trials, detectors sd-conv, sd-new",
            "wrote 4 records to -",
        ]

    def test_failed_write_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        # the path passes the probe, then the write itself fails
        out = tmp_path / "x.csv"

        def disk_full(records, fmt, out_path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "emit_results", disk_full)
        assert main(self.ARGS + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"spheredec: cannot write {str(out)!r}: [Errno 28] No space left on device"]
        assert not out.exists()

    def test_threads_leave_the_output_unchanged(self):
        # a child interpreter, so the environment variable is read as the
        # user sets it; 5 trials at 2 workers split into two pool blocks
        def run(**env):
            proc = subprocess.run([sys.executable, "-m", "spheredec", *self.ARGS],
                                  env=subprocess_env(**env), capture_output=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        assert run(LATTICE_SD_THREADS="2") == run()

    def test_golden_regression(self, tmp_path):
        # determinism pin: schema plus exact values for a tiny fixed run
        out = tmp_path / "golden.csv"
        main(["--detector", "sd-new", "--snr", "10:10:10", "--trials", "3",
              "--seed", "12345", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "10" and fields[1] == "sd-new"
        assert fields[2] == "2" and fields[3] == "16"
        assert fields[9] == "3" and fields[11] == "12345"
        # frozen from the first run of this configuration; any change in
        # RNG streams, detection, or counting breaks this line
        assert out.read_text() == GOLDEN_TINY_SWEEP


def _no_sweep(cfg, workers):
    raise RuntimeError("no sweep in this test")


GOLDEN_TINY_SWEEP = (
    "snr_db,detector,n,mod,ber,ser,mean_flops,mean_preproc_flops,"
    "mean_nodes,trials,bit_errors,seed\n"
    "10,sd-new,2,16,0.08333333333,0.3333333333,240.6666667,162,"
    "30.66666667,3,2,12345\n"
)
