import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qillum
from qillum import verify
from qillum.cli import _build_parser, main


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

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_row_blocks_do_not_change_bytes(self, tmp_path, monkeypatch, capsys, to_stdout):
        # 7 rows in blocks of 3: two full blocks and a short one
        def write(name):
            out = tmp_path / name
            argv = ["herald-stats", "--grid", "lin:0.1:5:7"] + ([] if to_stdout else ["--out", str(out)])
            assert run_cli(argv) == 0
            return capsys.readouterr().out if to_stdout else read(out)

        whole = write("whole.csv")
        monkeypatch.setattr("qillum.cli.CSV_BLOCK_ROWS", 3)
        assert write("blocks.csv") == whole
        assert whole.count("\n") == 8

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

    def test_threads_do_not_change_output(self, tmp_path):
        config = self.make_config(tmp_path, trials=70)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["trajectories", "--config", str(config), "--out", str(a), "--threads", "1"])
        run_cli(["trajectories", "--config", str(config), "--out", str(b), "--threads", "3"])
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

    def test_worst_cases_on_stderr(self, capsys):
        assert run_cli(["verify", "--quick"]) == 0
        captured = capsys.readouterr()
        report = verify.run_verification(quick=True)
        assert captured.out == "".join(line + "\n" for line in report.lines())
        worst = [line for line in captured.err.splitlines() if line.startswith("worst ")]
        assert worst == [check.worst_line() for check in report.checks]
        assert [line.split(":")[0] for line in worst] == [
            f"worst {check.name}" for check in report.checks
        ]
        assert (
            "worst thermal click probabilities: nbar=1.0, eta=0.5, detectors=3, clicks=1"
            in worst
        )

    @pytest.mark.parametrize("offset, shown", [("1e-6", "1.000e-06"), ("nan", "nan")])
    def test_worst_case_names_perturbed_case(self, capsys, offset, shown):
        # the self-test offset lands on the first thermal click case; a NaN
        # error must fail the family, not be skipped by the comparison
        assert run_cli(["verify", "--quick", "--selftest-perturb", offset]) == 3
        captured = capsys.readouterr()
        assert f"FAIL  thermal click probabilities: max |error| = {shown} " in captured.out
        assert (
            "worst thermal click probabilities: nbar=0.1, eta=0.5, detectors=1, clicks=0"
            in captured.err
        )

    def test_one_tolerance_scales_the_chained_families(self, capsys):
        assert run_cli(["verify", "--quick", "--tolerance", "1e-6"]) == 0
        tolerances = [line.split("(tolerance ")[1].split(",")[0]
                      for line in capsys.readouterr().out.splitlines()]
        assert tolerances == ["1.0e-06"] * 4 + ["1.0e-05"] * 2 + ["1.0e-06"]
        assert run_cli(["verify", "--quick", "--tolerance", "1e-20"]) == 3

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

    @pytest.mark.parametrize("grid", ["inf", "nan", "1000"])
    def test_bad_match_grid_is_config_error(self, grid, tmp_path, capsys):
        # inf and nan fail the grid check; 1000 overflows the matched mean
        out = tmp_path / "out.csv"
        assert run_cli(["match", "--grid", grid, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def _trajectories_row(**overrides):
    def argv(tmp_path):
        config = TestTrajectories().make_config(tmp_path, **overrides)
        return ["trajectories", "--config", str(config)]

    return argv


def _herald_stats_row(outcomes):
    def argv(tmp_path):
        config = tmp_path / "stats.json"
        config.write_text(json.dumps({"outcomes": outcomes}))
        return ["herald-stats", "--grid", "1", "--config", str(config)]

    return argv


def _click_prob_row(signals):
    def argv(tmp_path):
        config = tmp_path / "click.json"
        config.write_text(json.dumps({"signals": signals}))
        return ["click-prob", "--grid", "1", "--config", str(config)]

    return argv


class TestBoundaryDefects:
    """Inputs the CLI once accepted, truncated or crashed on.

    Each is a config error that names the offending flag or key, raised
    before any output is written.
    """

    ROWS = {
        "target_present_string": (_trajectories_row(target_present="false"), "target_present"),
        "shots_float": (_trajectories_row(shots=4.7), "shots"),
        "trials_float": (_trajectories_row(trials=2.9), "trials"),
        "herald_detectors_float": (
            _trajectories_row(signals=[{"kind": "quantum_heralded", "herald_detectors": 2.5}]),
            "signals",
        ),
        "seed_float": (_trajectories_row(seed=1.9), "seed"),
        "seed_bool": (_trajectories_row(seed=True), "seed"),
        "seed_negative_flag": (lambda tmp_path: _trajectories_row()(tmp_path) + ["--seed", "-1"],
                               "--seed: "),
        "seed_beyond_64_bits": (_trajectories_row(seed=2**64), "seed: "),
        "threads_zero": (lambda tmp_path: _trajectories_row()(tmp_path) + ["--threads", "0"],
                         "--threads: "),
        "receiver_detectors_65": (_trajectories_row(receiver_detectors=65), "receiver_detectors: "),
        "label_comma": (_trajectories_row(signals=[{"kind": "coherent", "label": "a,b"}]),
                        "signals: "),
        "label_quote": (_trajectories_row(signals=[{"kind": "coherent", "label": 'a"b'}]),
                        "signals: "),
        "label_newline": (_trajectories_row(signals=[{"kind": "coherent", "label": "a\nb"}]),
                          "signals: "),
        "click_prob_label_cr": (_click_prob_row([{"kind": "coherent", "label": "a\rb"}]),
                                "signals: "),
        "threshold_above_one": (_trajectories_row(thresholds=[1.5]), "thresholds"),
        "thresholds_string": (_trajectories_row(thresholds="0.8"), "thresholds"),
        # crossings are keyed by threshold; a repeat once multiplied them
        "thresholds_repeated": (_trajectories_row(thresholds=[0.9, 0.9]), "thresholds: "),
        "outcomes_number": (_herald_stats_row(5), "outcomes"),
        "outcomes_short_pair": (_herald_stats_row([[1]]), "outcomes"),
        # herald outcomes past the 64-term alternating-sum cap
        "outcomes_past_term_cap": (_herald_stats_row([[70, 66]]), "outcomes: "),
        "click_prob_signal_past_term_cap": (_click_prob_row(["70,66"]), "signals: "),
        "wigner_herald_past_term_cap": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "1",
                              "--detectors", "70", "--clicks", "66"],
            "--nbar, --detectors, --clicks: ",
        ),
        "tolerance_nan": (lambda tmp_path: ["verify", "--quick", "--tolerance", "nan"],
                          "--tolerance"),
        "n_max_negative": (lambda tmp_path: ["verify", "--quick", "--n-max", "-3"], "--n-max"),
        # in range, but the coherent receiver's click sums lose completeness
        "coherent_receiver_12": (_trajectories_row(receiver_detectors=12), "signals[1]: "),
        # in range, but the (6, 6) herald's likelihood row is cancellation noise
        "herald_6_low_nbar": (
            _trajectories_row(nbar=0.01, signals=[{"kind": "quantum_heralded", "herald_detectors": 6}]),
            "signals[0]: l1 row ",
        ),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_config_error_before_any_output(self, row, tmp_path, capsys):
        argv, name = self.ROWS[row]
        argv = argv(tmp_path)
        out = tmp_path / "out.csv"
        if argv[0] != "verify":
            argv += ["--out", str(out)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert name in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"eta": 1.5, "signals": ["coherent", {"kind": "quantum_heralded"}]},
            {"nbar": 1000.0, "signals": ["coherent", {"kind": "quantum_heralded_matched"}]},
            {"receiver_detectors": 12},
        ],
    )
    def test_every_signal_checked_before_the_first_ensemble(
        self, overrides, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr("qillum.mc.average_trajectories", lambda *a, **k: calls.append(a))
        config = TestTrajectories().make_config(tmp_path, **overrides)
        assert run_cli(["trajectories", "--config", str(config)]) == 1
        assert calls == []

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        # only parse-time failures are config errors; a fault in the
        # computation must surface with its traceback
        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr("qillum.cli.herald_state", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run_cli(["herald-stats", "--grid", "1"])


class TestRuntimeImports:
    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: no command may import it, at
        # start-up or lazily inside a run
        config = TestTrajectories().make_config(tmp_path, shots=50, trials=2)
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            from qillum.cli import main
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(["herald-stats", "--grid", "0.1,1,2", "--out", {str(tmp_path / "h.csv")!r}]) == 0
                assert main(["verify", "--quick"]) == 0
                assert main(["trajectories", "--config", {str(config)!r},
                             "--out", {str(tmp_path / "t.csv")!r}]) == 0
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


class TestParser:
    FLAGS = {
        "herald-stats": {"--config", "--out", "--grid", "--eta"},
        "click-prob": {"--config", "--out", "--grid", "--kappa", "--nbar-b", "--eta", "--eta-s"},
        "match": {"--config", "--out", "--grid", "--eta-e"},
        "wigner": {"--out", "--state", "--nbar", "--eta", "--detectors", "--clicks",
                   "--q-min", "--q-max", "--q-points"},
        "trajectories": {"--config", "--out", "--seed", "--threads"},
        "verify": {"--tolerance", "--n-max", "--quick", "--selftest-perturb"},
    }

    def test_flag_sets(self):
        parser = _build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, sub in subcommands.choices.items()
        }
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 32

    @pytest.mark.parametrize(
        "argv",
        [
            ["herald-stats", "--seed", "1"],
            ["match", "--threads", "2"],
            ["wigner", "--config", "run.json"],
            ["verify", "--out", "report.txt"],
            ["wigner", "--state", "squeezed"],
            ["herald-stats", "--eta", "high"],
            ["no-such-command"],
            [],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")
