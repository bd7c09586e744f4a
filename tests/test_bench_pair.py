"""scripts/bench_pair.py writes a verdict only from runs that did the same work."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def sample(failed=0, wall_s=1.0):
    return {"seconds": 10, "seed": 7, "correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {"wall_s": wall_s, "setup_s": 0.1, "peak_rss_mb": 30.0,
                        "work_per_s": 100.0}}


def test_trusted_runs_pass():
    assert bench_pair.untrusted({"base": [sample(), sample()], "change": [sample(), sample()]}) == []


def test_incorrect_and_extra_failures_are_named():
    problems = bench_pair.untrusted({"base": [sample(), sample(failed=1)],
                                     "change": [sample(failed=2), sample()]})
    assert problems == [
        "base run 2: not correct, 1 of 5 operations failed",
        "change run 1: not correct, 2 of 5 operations failed",
        "change run 1: 2 operations failed, the base at most 1",
    ]


def test_no_verdict_from_an_incorrect_run(tmp_path, monkeypatch):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    runs = iter([sample(), sample(), sample(failed=1), sample()])
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "git", lambda *args: b"0" * 40)
    monkeypatch.setattr(bench_pair, "export", lambda rev, directory: None)
    monkeypatch.setattr(bench_pair, "snapshot", lambda directory: None)
    monkeypatch.setattr(bench_pair, "bench", lambda checkout, workload: next(runs))
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--workload", "figure-tables",
                                      "--pairs", "2"])
    with pytest.raises(SystemExit) as refused:
        bench_pair.main()
    # the second pair runs the working tree first
    assert "change run 2: not correct" in str(refused.value.code)
    assert not (tmp_path / "BENCH_figure-tables.json").exists()


def test_unknown_workload_is_a_usage_error_before_any_export(monkeypatch, capsys):
    exported = []
    monkeypatch.setattr(bench_pair, "export", lambda rev, directory: exported.append(rev))
    monkeypatch.setattr(bench_pair, "snapshot", lambda directory: exported.append(directory))
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--workload", "verify-swep"])
    with pytest.raises(SystemExit) as refused:
        bench_pair.main()
    assert refused.value.code == 2
    assert "invalid choice: 'verify-swep'" in capsys.readouterr().err
    assert exported == []
