import json
import math

import numpy as np
import pytest

from qillum.cli import main


def run_cli(args):
    return main(args)


def read(path):
    with open(path) as handle:
        return handle.read()


class TestHeraldStats:
    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "stats.csv"
        assert run_cli(["herald-stats", "--grid", "", "--out", str(out)]) == 0
        text = read(out)
        assert text.startswith("nbar,pr_1_0,")
        assert text.count("\n") == 1

    def test_unit_efficiency_boost_column(self, tmp_path):
        out = tmp_path / "stats.csv"
        code = run_cli(
            ["herald-stats", "--grid", "0.5,1.0,2.0", "--eta", "1.0", "--out", str(out)]
        )
        assert code == 0
        lines = read(out).strip().split("\n")
        header = lines[0].split(",")
        i_mean = header.index("mean_1_1")
        for line, nbar in zip(lines[1:], (0.5, 1.0, 2.0)):
            fields = [float(v) for v in line.split(",")]
            assert fields[i_mean] - nbar == pytest.approx(1.0, abs=1e-9)

    def test_crossing_sign_change_present(self, tmp_path):
        # the Pr_{4,4} and Pr_{2,1} curves cross inside (4, 6) at eta = 0.95
        out = tmp_path / "stats.csv"
        run_cli(["herald-stats", "--grid", "lin:4:6:81", "--eta", "0.95", "--out", str(out)])
        lines = read(out).strip().split("\n")
        header = lines[0].split(",")
        i44, i21 = header.index("pr_4_4"), header.index("pr_2_1")
        gaps = []
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            gaps.append(fields[i44] - fields[i21])
        assert min(gaps) < 0.0 < max(gaps)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["herald-stats", "--grid", "lin:0.1:5:40", "--out", str(a)])
        run_cli(["herald-stats", "--grid", "lin:0.1:5:40", "--out", str(b)])
        assert read(a) == read(b)

    def test_csv_format_contract(self, tmp_path):
        out = tmp_path / "stats.csv"
        run_cli(["herald-stats", "--grid", "0.123456789123456", "--out", str(out)])
        text = read(out)
        assert text.endswith("\n")
        value = text.strip().split("\n")[1].split(",")[0]
        assert value == "0.123456789123"  # 12 significant digits


class TestClickProb:
    def test_lossy_parameter_set(self, tmp_path):
        out = tmp_path / "click.csv"
        code = run_cli(
            [
                "click-prob", "--grid", "0.5,1.0", "--kappa", "0.1",
                "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = read(out).strip().split("\n")
        header = lines[0].split(",")
        row = [float(v) for v in lines[1].split(",")]
        # the H0 column is the false-alarm closed form
        assert row[header.index("pr_h0")] == pytest.approx(9.0 / 10.0, abs=1e-12)
        # heralded k >= 1 signals beat the background at low nbar
        assert row[header.index("pr_herald_1_1")] > row[header.index("pr_h0")]

    def test_degenerate_reflectivity_rejected(self, tmp_path):
        code = run_cli(
            ["click-prob", "--grid", "1.0", "--kappa", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_coherent_column_closed_form(self, tmp_path):
        out = tmp_path / "click.csv"
        run_cli(
            [
                "click-prob", "--grid", "1.0", "--kappa", "0.3", "--nbar-b", "0",
                "--eta-s", "1.0", "--out", str(out),
            ]
        )
        lines = read(out).strip().split("\n")
        header = lines[0].split(",")
        row = [float(v) for v in lines[1].split(",")]
        assert row[header.index("pr_coherent")] == pytest.approx(
            1 - math.exp(-0.3), abs=1e-12
        )


class TestMatch:
    def test_matched_values(self, tmp_path):
        out = tmp_path / "match.csv"
        assert run_cli(["match", "--grid", "0,1", "--eta-e", "0.9", "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        first = [float(v) for v in lines[1].split(",")]
        second = [float(v) for v in lines[2].split(",")]
        assert first[1] == 0.0
        assert second[1] == pytest.approx(1.6218, abs=5e-4)
        assert abs(second[4]) < 1e-12  # identity residual column


class TestWigner:
    def test_vacuum_peak(self, tmp_path):
        out = tmp_path / "wigner.csv"
        code = run_cli(
            ["wigner", "--state", "thermal", "--nbar", "0", "--q-min", "0",
             "--q-max", "0", "--q-points", "1", "--out", str(out)]
        )
        assert code == 0
        value = float(read(out).strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(1 / math.pi, abs=1e-12)

    def test_heralded_negativity_in_slice(self, tmp_path):
        out = tmp_path / "wigner.csv"
        run_cli(
            ["wigner", "--state", "herald", "--nbar", "1", "--eta", "0.9",
             "--detectors", "2", "--clicks", "2", "--out", str(out)]
        )
        rows = [line.split(",") for line in read(out).strip().split("\n")[1:]]
        values = np.array([float(r[1]) for r in rows])
        assert values.min() < -1e-3


class TestTrajectories:
    def make_config(self, tmp_path, **overrides):
        document = {
            "nbar": 1.0, "eta": 0.9, "eta_s": 0.9, "receiver_detectors": 1,
            "kappa": 0.1, "nbar_b": 3.0, "shots": 64, "trials": 12,
            "seed": 11, "target_present": True, "thresholds": [0.6],
            "signals": [
                {"kind": "quantum_heralded", "herald_detectors": 1},
                {"kind": "coherent"},
            ],
        }
        document.update(overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(document))
        return path

    def test_runs_and_writes_sidecar(self, tmp_path):
        config = self.make_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert run_cli(["trajectories", "--config", str(config), "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == "shot_index,mean_posterior_quantum_n1,mean_posterior_coherent"
        assert len(lines) == 65
        meta = json.loads(read(str(out) + ".meta.json"))
        assert meta["seed"] == 11
        assert "mean_curve_crossings" in meta["signals"]["quantum_n1"]

    def test_reproducible_output(self, tmp_path):
        config = self.make_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["trajectories", "--config", str(config), "--out", str(a)])
        run_cli(["trajectories", "--config", str(config), "--out", str(b)])
        assert read(a) == read(b)

    def test_threads_do_not_change_output(self, tmp_path, monkeypatch):
        config = self.make_config(tmp_path, trials=70)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["trajectories", "--config", str(config), "--out", str(a), "--threads", "1"])
        monkeypatch.setenv("QILLUM_THREADS", "3")
        run_cli(["trajectories", "--config", str(config), "--out", str(b)])
        assert read(a) == read(b)

    def test_single_row(self, tmp_path):
        config = self.make_config(tmp_path, shots=1, trials=1, signals=["coherent"])
        out = tmp_path / "traj.csv"
        assert run_cli(["trajectories", "--config", str(config), "--out", str(out)]) == 0
        assert len(read(out).strip().split("\n")) == 2

    def test_unknown_key_rejected(self, tmp_path):
        config = self.make_config(tmp_path)
        document = json.loads(config.read_text())
        document["bogus_knob"] = 1
        config.write_text(json.dumps(document))
        assert run_cli(["trajectories", "--config", str(config)]) == 1

    def test_invalid_range_rejected(self, tmp_path):
        config = self.make_config(tmp_path, kappa=0.0)
        assert run_cli(["trajectories", "--config", str(config)]) == 1

    def test_missing_config(self):
        assert run_cli(["trajectories"]) == 1


class TestVerifyCommand:
    def test_quick_sweep_passes(self, capsys):
        assert run_cli(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_perturbation_detected(self):
        assert run_cli(["verify", "--quick", "--selftest-perturb", "1e-6"]) == 3

    def test_truncation_insufficient_reported(self, capsys):
        assert run_cli(["verify", "--quick", "--n-max", "10"]) == 3
        err = capsys.readouterr().err
        assert "truncation" in err


class TestExitCodes:
    def test_io_error(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        assert run_cli(["herald-stats", "--grid", "1.0", "--out", str(missing_dir)]) == 2

    def test_bad_grid_is_config_error(self):
        assert run_cli(["herald-stats", "--grid", "lin:1:2"]) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["wigner", "--state", "thermal", "--nbar", "inf"],
            ["wigner", "--state", "herald", "--nbar", "inf"],
            ["click-prob", "--grid", "1", "--nbar-b", "inf"],
        ],
    )
    def test_infinite_mean_is_config_error(self, args, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli(args + ["--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QILLUM_THREADS", "zero")
        config = TestTrajectories().make_config(tmp_path)
        assert run_cli(["trajectories", "--config", str(config)]) == 1
