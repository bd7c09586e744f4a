import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qillum
from qillum import cli, mc, verify
from qillum.cli import _build_parser, check_thresholds, main
from qillum.matching import matched_mean


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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

    def test_csv_memory_is_one_block_of_rows(self, tmp_path):
        # a 30000-row table's text once peaked at 1.64 MB, formatted 4096 rows at a time
        columns = [np.linspace(0.1, 1.0, 30000) * (i + 1) for i in range(6)]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            cli._write_csv(tmp_path / "wide.csv", list("abcdef"), columns)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert read(tmp_path / "wide.csv").count("\n") == 30001
        assert peak < 500_000

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


class TestHeraldColumnCache:
    """click-prob builds each herald column once per process (``cli._herald_column``)."""

    FIGURE = ["--grid", "lin:0.02:20:500", "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9"]

    def table(self, tmp_path, kappa):
        out = tmp_path / f"k{kappa}.csv"
        assert run_cli(["click-prob", *self.FIGURE, "--kappa", kappa, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_reused_columns_give_the_tracked_bytes(self, tmp_path):
        tracked = (SCRIPTS.parent / "out" / "click_prob_k08.csv").read_bytes()
        cli._herald_column.cache_clear()
        assert self.table(tmp_path, "0.8") == tracked
        assert cli._herald_column.cache_info().hits == 0
        cli._herald_column.cache_clear()
        self.table(tmp_path, "0.1")
        assert self.table(tmp_path, "0.8") == tracked
        info = cli._herald_column.cache_info()
        assert (info.misses, info.hits, info.currsize) == (5, 5, 5)

    def test_negative_zero_is_its_own_key(self, tmp_path):
        config = tmp_path / "click.json"
        config.write_text(json.dumps({"signals": ["1,0"]}))
        cli._herald_column.cache_clear()
        for grid in ([0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]):
            argv = ["click-prob", "--grid=" + ",".join(map(str, grid)), "--config", str(config),
                    "--out", str(tmp_path / "x.csv")]
            assert run_cli(argv) == 0
        info = cli._herald_column.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_a_failing_column_is_not_kept(self, tmp_path, capsys):
        cli._herald_column.cache_clear()
        out = tmp_path / "x.csv"
        errors = []
        for _ in range(2):
            assert run_cli(["click-prob", "--grid=-0,0,1", "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: herald normalization vanished for nbar=-0.0, eta=0.9, N=2, k=1\n")
        assert not out.exists()
        # the 1,0 column is kept and read again; the failing 2,1 column is built twice
        info = cli._herald_column.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 1, 1)


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
        config = self.make_config(tmp_path, eta_e=0.8, signals=[
            {"kind": "quantum_heralded", "herald_detectors": 1},
            {"kind": "coherent"},
            {"kind": "quantum_heralded_matched", "herald_detectors": 1},
        ])
        out = tmp_path / "traj.csv"
        assert run_cli(["trajectories", "--config", str(config), "--out", str(out)]) == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == ("shot_index,mean_posterior_quantum_n1,mean_posterior_coherent,"
                            "mean_posterior_matched_n1")
        assert len(lines) == 65
        meta = json.loads(read(str(out) + ".meta.json"))
        assert meta["seed"] == 11
        assert meta["generator"] == mc.GENERATOR
        assert meta["stream_derivation"] == mc.STREAM_DERIVATION
        assert "mean_curve_crossings" in meta["signals"]["quantum_n1"]
        assert meta["signals"]["quantum_n1"]["probe_nbar"] == 1.0
        assert meta["signals"]["matched_n1"]["probe_nbar"] == matched_mean(1.0, 0.8)

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

    @pytest.mark.parametrize("name", ["trajectories_run.json", "matched_trajectories_run.json"])
    def test_checked_in_run_configs_build(self, name, monkeypatch):
        # a matched signal runs as a heralded probe at the click-matched mean
        class Captured(Exception):
            pass

        def capture(configs, **kwargs):
            captured.extend(configs)
            raise Captured

        captured = []
        monkeypatch.setattr("qillum.mc.average_trajectories", capture)
        with pytest.raises(Captured):
            run_cli(["trajectories", "--config", str(SCRIPTS / name)])
        signals = json.loads((SCRIPTS / name).read_text())["signals"]
        assert len(captured) == len(signals)
        for signal, config in zip(signals, captured):
            if signal["kind"] == "quantum_heralded_matched":
                assert config.signal_kind is mc.SignalKind.QUANTUM_HERALDED
                assert config.nbar == matched_mean(1.0, 0.9)
            else:
                assert config.signal_kind.value == signal["kind"]
                assert config.nbar == 1.0
            assert config.herald_detectors == signal.get("herald_detectors", 1)


class TestThresholds:
    def test_repeated_threshold_rejected(self):
        # crossings are keyed by threshold, so a repeat would report one twice
        with pytest.raises(ValueError, match=r"thresholds must be distinct, got \[0.9, 0.8, 0.9\]"):
            check_thresholds((0.9, 0.8, 0.9))

    @pytest.mark.parametrize(
        "thresholds", [(1.5,), (0.0,), (-1.0,), (math.nan, math.nan), (0.5, 1.0)]
    )
    def test_threshold_outside_unit_interval_rejected(self, thresholds):
        # 1.5 was never reported crossed, 0.0 and -1.0 crossed at shot 1, and two
        # nans passed the distinct rule as two keys
        with pytest.raises(ValueError, match=r"^thresholds must lie in \(0, 1\), got "):
            check_thresholds(thresholds)


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
        assert run_cli(["verify", "--quick"]) == 0
        tolerances = [line.split("(tolerance ")[1].split(",")[0]
                      for line in capsys.readouterr().out.splitlines()]
        assert tolerances == ["1.0e-09"] * 4 + ["1.0e-08"] * 2 + ["1.0e-09"]

    def test_truncation_insufficient_reported(self, capsys, monkeypatch):
        # a truncation too short for the means swept leaves a trace deficit
        monkeypatch.setattr("qillum.oracle.choose_truncation", lambda mean: 10)
        assert run_cli(["verify", "--quick"]) == 3
        err = capsys.readouterr().err
        assert "truncation" in err


class TestExitCodes:
    def test_io_error(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        assert run_cli(["herald-stats", "--grid", "1.0", "--out", str(missing_dir)]) == 2

    def test_bad_grid_is_config_error(self):
        assert run_cli(["herald-stats", "--grid", "lin:1:2"]) == 1

    def test_herald_probability_out_of_range_is_an_error(self, tmp_path, capsys):
        # the (15, 8) herald at nbar 0.0156 was once written as probability 0
        config = tmp_path / "stats.json"
        config.write_text(json.dumps({"outcomes": [[15, 8]]}))
        out = tmp_path / "out.csv"
        argv = ["herald-stats", "--grid", "0.01,0.0156", "--eta", "0.9",
                "--config", str(config), "--out", str(out)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: probability -1.0185911520184703e-10 is outside [0, 1]")
        assert not out.exists()

    def test_negative_herald_mean_is_an_error(self, tmp_path, capsys):
        # the (16, 8) herald at nbar 0.001 was once written with mean -0.000324
        config = tmp_path / "stats.json"
        config.write_text(json.dumps({"outcomes": [[16, 8]]}))
        out = tmp_path / "out.csv"
        argv = ["herald-stats", "--grid", "0.001", "--config", str(config), "--out", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            "error: herald mean -0.000324249267578125 is negative for nbar=0.001, eta=0.95, "
            "N=16, k=8\n")
        assert not out.exists()

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

    # Sizes whose arrays cannot be allocated (7.11 PiB of float64) once
    # crashed with numpy's MemoryError traceback.
    UNALLOCATABLE = {
        "herald_stats_grid_count": (
            lambda tmp_path: ["herald-stats", "--grid", "lin:0:1:1000000000000000"],
            "config error: --grid: ",
        ),
        "wigner_q_points": (
            lambda tmp_path: ["wigner", "--q-points", "1000000000000000"], "error: ",
        ),
        # _trajectories_row is defined below this class
        "trajectories_shots": (
            lambda tmp_path: _trajectories_row(shots=10**15)(tmp_path), "error: ",
        ),
    }

    @pytest.mark.parametrize("row", sorted(UNALLOCATABLE))
    def test_unallocatable_size_is_a_one_line_error(self, row, tmp_path, capsys):
        argv, prefix = self.UNALLOCATABLE[row]
        out = tmp_path / "out.csv"
        assert run_cli(argv(tmp_path) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "1000000000000000" in err
        assert err.count("\n") == 1
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


def _herald_stats_grid(grid):
    def argv(tmp_path):
        config = tmp_path / "stats.json"
        config.write_text(json.dumps({"nbar_grid": grid}))
        return ["herald-stats", "--config", str(config)]

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
        "seed_negative": (_trajectories_row(seed=-1), "seed: "),
        "seed_beyond_64_bits": (_trajectories_row(seed=2**64), "seed: "),
        # float() and math.isfinite raised a bare OverflowError
        "nbar_int_past_the_largest_double": (_trajectories_row(nbar=10**400), "nbar: "),
        "nbar_grid_int_past_the_largest_double": (_herald_stats_grid([10**400]), "nbar_grid: "),
        "threads_zero": (lambda tmp_path: _trajectories_row()(tmp_path) + ["--threads", "0"],
                         "--threads: "),
        "receiver_detectors_65": (_trajectories_row(receiver_detectors=65), "receiver_detectors: "),
        "signal_kind_unknown": (_trajectories_row(signals=[{"kind": "bogus"}]),
                                "signals: must be a signal kind, one of quantum_heralded, "),
        "label_comma": (_trajectories_row(signals=[{"kind": "coherent", "label": "a,b"}]),
                        "signals: "),
        "label_quote": (_trajectories_row(signals=[{"kind": "coherent", "label": 'a"b'}]),
                        "signals: "),
        "label_newline": (_trajectories_row(signals=[{"kind": "coherent", "label": "a\nb"}]),
                          "signals: "),
        "click_prob_label_cr": (_click_prob_row([{"kind": "coherent", "label": "a\rb"}]),
                                "signals: "),
        # a coherent probe heralds nothing; the key was once read and ignored,
        # or refused with the herald outcome cap's message
        "coherent_herald_detectors": (
            _trajectories_row(signals=[{"kind": "coherent", "herald_detectors": 3}]),
            "signals: a coherent signal heralds nothing: it takes no herald_detectors",
        ),
        "coherent_herald_detectors_99": (
            _trajectories_row(signals=[{"kind": "coherent", "herald_detectors": 99}]),
            "signals: a coherent signal heralds nothing: it takes no herald_detectors",
        ),
        "click_prob_coherent_herald_detectors": (
            _click_prob_row([{"kind": "coherent", "herald_detectors": 3}]),
            "signals: a coherent signal heralds nothing: it takes no herald_detectors",
        ),
        "threshold_above_one": (_trajectories_row(thresholds=[1.5]), "thresholds"),
        "thresholds_string": (_trajectories_row(thresholds="0.8"), "thresholds"),
        # crossings are keyed by threshold; a repeat once multiplied them
        "thresholds_repeated": (_trajectories_row(thresholds=[0.9, 0.9]), "thresholds: "),
        "outcomes_number": (_herald_stats_row(5), "outcomes"),
        "outcomes_short_pair": (_herald_stats_row([[1]]), "outcomes"),
        # a repeat once wrote two pr_1_1 and two mean_1_1 columns
        "outcomes_repeated": (_herald_stats_row([[1, 1], [1, 1]]), "outcomes: must be distinct"),
        # an empty list once wrote a table of the nbar column alone
        "outcomes_empty": (_herald_stats_row([]), "outcomes: must be one or more [N, k] pairs"),
        # herald outcomes past the 64-term alternating-sum cap
        "outcomes_past_term_cap": (_herald_stats_row([[70, 66]]), "outcomes: "),
        "click_prob_signal_past_term_cap": (_click_prob_row(["70,66"]), "signals: "),
        # the herald scales read N as a double: a bare OverflowError once
        "outcomes_detectors_past_the_largest_double": (
            _herald_stats_row([[10**400, 1]]),
            "outcomes: detector count must not exceed the largest double",
        ),
        "click_prob_signal_detectors_past_the_largest_double": (
            _click_prob_row([f"{10**400},1"]),
            "signals: detector count must not exceed the largest double",
        ),
        # N is below the largest double and C(N, k) above it: a bare OverflowError once
        "outcomes_outcome_count_past_the_largest_double": (
            _herald_stats_row([[10**100, 4]]),
            "outcomes: C(N, k) must not exceed the largest double",
        ),
        "click_prob_signal_outcome_count_past_the_largest_double": (
            _click_prob_row([f"{10**100},4"]),
            "signals: C(N, k) must not exceed the largest double",
        ),
        # grid mean and background in range, but the (1, 1) herald's image mean
        # kappa * m + n_B overflows: a traceback once
        "click_prob_image_mean_overflows": (
            lambda tmp_path: ["click-prob", "--grid", "1.7e308", "--nbar-b", "1.7e308"],
            "--grid, --kappa, --nbar-b: thermal mean must be finite and nonnegative, got inf",
        ),
        "wigner_herald_detectors_past_the_largest_double": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "1",
                              "--detectors", str(10**400), "--clicks", "1"],
            "--nbar, --eta, --detectors, --clicks: detector count must not exceed",
        ),
        "wigner_herald_past_term_cap": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "1",
                              "--detectors", "70", "--clicks", "66"],
            "--nbar, --eta, --detectors, --clicks: ",
        ),
        # in range, but the herald outcome has probability zero
        "wigner_herald_vacuum": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "0",
                              "--detectors", "2", "--clicks", "2"],
            "--nbar, --eta, --detectors, --clicks: herald normalization vanished",
        ),
        "wigner_herald_blind_idler": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "1", "--eta", "0",
                              "--detectors", "2", "--clicks", "1"],
            "--nbar, --eta, --detectors, --clicks: herald normalization vanished",
        ),
        # in range, but the herald probability cancels to -1.1e-9
        "wigner_herald_probability_out_of_range": (
            lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "0.1", "--eta", "0.9",
                              "--detectors", "20", "--clicks", "10"],
            "--nbar, --eta, --detectors, --clicks: probability -1.1188383552962478e-09 is outside",
        ),
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

    # numpy overflowed on these: RuntimeWarnings and a traceback once, or a
    # W(q) of the wrong sign or 0 with exit 0.  Each runs as a process, so
    # stderr holds all that a user would see.
    PROCESS_ROWS = {
        "wigner_q_span_overflows": (
            ["wigner", "--q-min=-1e308", "--q-max", "1e308", "--q-points", "3"],
            "--q-min, --q-max: span q_max - q_min must be finite, got inf",
        ),
        "grid_stop_inf": (["herald-stats", "--grid", "lin:0:inf:3"],
                          "--grid: stop must be finite, >= 0, got inf"),
        "grid_span_overflows": (["herald-stats", "--grid", "lin:1e308:-1e308:3"],
                                "--grid: stop must be finite, >= 0, got -1e+308"),
        # float()'s own message once: could not convert string to float
        "grid_start_not_a_number": (["herald-stats", "--grid", "lin:a:1:3"],
                                    "--grid: start must be finite, >= 0, got 'a'"),
        "grid_stop_not_a_number": (["herald-stats", "--grid", "lin:0:b:3"],
                                   "--grid: stop must be finite, >= 0, got 'b'"),
        "grid_item_not_a_number": (["herald-stats", "--grid", "0.5,x"],
                                   "--grid: must be finite, >= 0, got 'x'"),
        # numpy's and int()'s own messages once
        "grid_count_negative": (["herald-stats", "--grid", "lin:0:1:-3"],
                                "--grid: count must be an integer >= 0, got -3"),
        "grid_count_not_an_integer": (["herald-stats", "--grid", "lin:0:1:1.5"],
                                      "--grid: count must be an integer >= 0, got '1.5'"),
        "wigner_herald_width_overflows": (
            ["wigner", "--state", "herald", "--nbar", "1e308", "--q-points", "3"],
            "--nbar: Wigner norm pi * (2m + 1) is not finite at thermal mean m = 1e+308",
        ),
        "wigner_thermal_width_overflows": (
            ["wigner", "--state", "thermal", "--nbar", "1e308", "--q-points", "3"],
            "--nbar: Wigner norm pi * (2m + 1) is not finite at thermal mean m = 1e+308",
        ),
        # 2m + 1 is finite here, pi * (2m + 1) is not
        "wigner_thermal_norm_overflows": (
            ["wigner", "--state", "thermal", "--nbar", "8e307", "--q-points", "3"],
            "--nbar: Wigner norm pi * (2m + 1) is not finite at thermal mean m = 8e+307",
        ),
    }

    @staticmethod
    def run_process(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).parent.parent))
        return subprocess.run([sys.executable, "-m", "qillum", *argv], env=env,
                              capture_output=True, text=True)

    @pytest.mark.parametrize("row", sorted(PROCESS_ROWS))
    def test_one_config_error_line_without_warnings(self, row, tmp_path):
        argv, message = self.PROCESS_ROWS[row]
        out = tmp_path / "out.csv"
        done = self.run_process(argv + ["--out", str(out)])
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"config error: {message}\n")
        assert not out.exists()

    def test_grid_to_the_largest_double_warns_nothing(self, tmp_path):
        # (count - 1) * step rounds past the largest double in numpy, which warned
        out = tmp_path / "out.csv"
        done = self.run_process(["herald-stats", "--grid", "lin:0.5:1.7976931348623157e308:7",
                                 "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        assert read(out).splitlines()[-1].startswith("1.79769313486e+308,")

    # a herald weight near 1e16 times a mean near 1.7e308 overflowed, and fsum
    # raised "-inf + inf in fsum": a traceback, or that text as a config error
    OVERFLOW = ("herald mean overflows: a weight times its mean is not finite "
                "for nbar=1.7e+308, eta=5e-324, N=")
    OVERFLOW_ROWS = {
        "herald_stats": (lambda tmp_path: ["herald-stats", "--grid", "1.7e308", "--eta", "5e-324"],
                         f"error: {OVERFLOW}1, k=1"),
        "click_prob": (lambda tmp_path: ["click-prob", "--grid", "1.7e308", "--eta", "5e-324"],
                       f"error: {OVERFLOW}2, k=1"),
        "wigner": (lambda tmp_path: ["wigner", "--state", "herald", "--nbar", "1.7e308",
                                     "--eta", "5e-324", "--detectors", "1", "--clicks", "1"],
                   f"config error: --nbar, --eta, --detectors, --clicks: {OVERFLOW}1, k=1"),
        "trajectories": (_trajectories_row(nbar=1.7e308, eta=5e-324),
                         f"config error: signals[0]: {OVERFLOW}1, k=1"),
    }

    @pytest.mark.parametrize("row", sorted(OVERFLOW_ROWS))
    def test_overflowing_herald_mean_is_one_error_line(self, row, tmp_path, capsys):
        argv, message = self.OVERFLOW_ROWS[row]
        out = tmp_path / "out.csv"
        assert run_cli(argv(tmp_path) + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["0", "5e-324", "0.9", "1"])
    @pytest.mark.parametrize("mean", ["0", "5e-324", "1e-300", "1", "1e300", "1.7e308"])
    @pytest.mark.parametrize("command", [
        ["herald-stats", "--grid", "{mean}", "--eta", "{eta}"],
        ["click-prob", "--grid", "{mean}", "--nbar-b", "{mean}", "--eta", "{eta}"],
        ["wigner", "--state", "herald", "--nbar", "{mean}", "--eta", "{eta}",
         "--detectors", "1", "--clicks", "1"],
    ], ids=["herald-stats", "click-prob", "wigner"])
    def test_closed_forms_at_the_boundary_values(self, command, mean, eta, capsys):
        # every run is an output or one error line in the package's own words
        argv = [arg.format(mean=mean, eta=eta) for arg in command]
        code = run_cli(argv)
        err = capsys.readouterr().err
        if code == 0:
            return
        assert code == 1
        assert err.startswith(("config error: ", "error: ")) and err.count("\n") == 1
        assert "fsum" not in err and "could not convert" not in err

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

        monkeypatch.setattr("qillum.cli.herald_states", broken)
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

    def test_one_thread_runs_on_the_calling_thread(self, tmp_path):
        # concurrent.futures loads only for a pool, which only --threads 2 or more starts
        config = TestTrajectories().make_config(tmp_path, shots=300, trials=130)
        script = textwrap.dedent("""
            import sys, threading
            started = []
            start = threading.Thread.start
            threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
            from qillum.cli import main
            loaded = "concurrent.futures" in sys.modules
            code = main(sys.argv[1:])
            print(loaded, code, "concurrent.futures" in sys.modules, len(started))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).parent.parent))
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads-{threads}.csv"
            argv = ["trajectories", "--config", str(config), "--out", str(out),
                    "--threads", str(threads)]
            done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, text=True, check=True)
            outputs[threads] = done.stdout.split(), out.read_bytes()
        assert outputs[1][0] == ["False", "0", "False", "0"]
        loaded, code, pooled, started = outputs[2][0]
        assert (loaded, code, pooled) == ("False", "0", "True") and int(started) >= 1
        assert outputs[1][1] == outputs[2][1]

    def test_package_runs_as_a_module(self):
        # python -m qillum runs __main__.py, the one entry point no in-process call reaches
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-m", "qillum", "match", "--grid", "0,1"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "nbar_alpha,matched_nbar,coherent_click,matched_thermal_click,residual"
        assert len(lines) == 3


class TestFigureScript:
    def test_bad_thread_count_runs_no_command(self, monkeypatch, capsys):
        # --threads 0 once rewrote all seven tables before the trajectories run failed
        path = SCRIPTS / "make_figure_data.py"
        spec = importlib.util.spec_from_file_location(path.stem, path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calls = []
        monkeypatch.setattr(script, "cli", lambda *args: calls.append(args))
        monkeypatch.setattr(sys, "argv", [path.name, "--threads", "0"])
        with pytest.raises(SystemExit) as exited:
            script.main()
        assert exited.value.code != 0
        assert calls == []
        assert "--threads: must be at least 1, got 0" in capsys.readouterr().err


class TestParser:
    FLAGS = {
        "herald-stats": {"--config", "--out", "--grid", "--eta"},
        "click-prob": {"--config", "--out", "--grid", "--kappa", "--nbar-b", "--eta", "--eta-s"},
        "match": {"--config", "--out", "--grid", "--eta-e"},
        "wigner": {"--out", "--state", "--nbar", "--eta", "--detectors", "--clicks",
                   "--q-min", "--q-max", "--q-points"},
        "trajectories": {"--config", "--out", "--threads"},
        "verify": {"--quick", "--selftest-perturb"},
    }

    def test_flag_sets(self):
        parser = _build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, sub in subcommands.choices.items()
        }
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 29

    def test_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["herald-stats", "--seed", "1"],
            ["match", "--threads", "2"],
            ["wigner", "--config", "run.json"],
            ["verify", "--out", "report.txt"],
            ["verify", "--tolerance", "1e-6"],
            ["verify", "--n-max", "10"],
            ["trajectories", "--seed", "1"],
            ["wigner", "--state", "squeezed"],
            ["herald-stats", "--eta", "high"],
            ["no-such-command"],
            [],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")
