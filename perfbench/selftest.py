#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes on two cores.
Checks that:

* two traced runs of each workload give identical per-layer counts, that each
  workload calls the layers it is meant to stress, and that the per-layer
  self times add up to the traced wall time;
* every output check passes on real outputs and fails on a copy with any one
  of several bytes changed, at the default seed and at another one;
* the figure commands are the ones ``scripts/make_figure_data.py`` runs, and
  the recorded figure digests are those of the tracked ``out/*.csv``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Exits 1 and names each failed check, or exits 0.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = run.ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def deterministic(metrics: dict) -> dict:
    """Every per-layer value that is a count rather than a timing."""
    timings = {"mc.thread_speedup", "trace.overhead_frac"}
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s" and name not in timings}


LAYER_EXPECTATIONS = {
    "trajectories": {
        "mc.run_trajectory.calls": wl.ENSEMBLES * wl.TRAJECTORY_TRIALS,
        "mc.average_trajectories.calls": wl.ENSEMBLES,
        "mc.shot_updates": wl.ENSEMBLES * wl.TRAJECTORY_TRIALS * wl.TRAJECTORY_SHOTS,
        "oracle.oracle_click_prob.calls": 0,
    },
    "figure-tables": {"mc.run_trajectory.calls": 0, "verify.run_verification.calls": 0},
    "verify-sweep": {"verify.cases": wl.VERIFY_CASES, "mc.run_trajectory.calls": 0},
}
LAYERS_CALLED = {
    "trajectories": ("mc.build_tables.calls", "mc.trial_stream.calls", "mc.first_crossing.calls",
                     "mc.uniform_draws", "mc.bytes_per_shot_computed", "mc.thread_speedup"),
    "figure-tables": ("states.SignedThermalMixture.calls", "povm.click_probability.calls",
                      "matching.matched_mean.calls", "states.wigner_slice.calls",
                      "channel.apply_channel.calls", "cli.csv_bytes"),
    "verify-sweep": ("povm.povm_fock_diagonal.calls", "oracle.oracle_beamsplitter.calls",
                     "oracle.oracle_wigner.calls", "oracle.displaced_thermal_diag.calls",
                     "oracle.coeff_miss_ratio"),
}


def test_traced_counts_repeat():
    for name in wl.WORKLOADS:
        results = [bench("--workload", name, "--seconds", "1", "--trace", "1") for _ in range(2)]
        for code, result, stderr in results:
            expect(code == 0 and result is not None and result["correct"],
                   f"{name}: traced run succeeds {stderr[-300:]}")
        if not all(r[1] for r in results):
            continue
        first, second = (deterministic(r[1]["metrics"]) for r in results)
        expect(first == second, f"{name}: per-layer counts repeat between traced runs")
        for metric, value in LAYER_EXPECTATIONS[name].items():
            expect(first[metric] == value, f"{name}: {metric} == {value} (got {first[metric]})")
        metrics = {k: v["value"] for k, v in results[0][1]["metrics"].items()}
        for metric in LAYERS_CALLED[name]:
            expect(metrics[metric] > 0, f"{name}: {metric} is reported and positive")
        share = metrics["trace.self_sum_s"] / metrics["trace.wall_s"]
        expect(0.97 <= share <= 1.0 + 1e-9,
               f"{name}: per-layer self times add up to the traced wall time ({share:.4f})")


def corrupted(path: Path):
    """Yield after each of several one-byte changes to ``path``, then restore it."""
    original = path.read_bytes()
    for position in (0, len(original) // 3, len(original) // 2, len(original) - 2):
        data = bytearray(original)
        data[position] ^= 0x01
        path.write_bytes(bytes(data))
        yield position
    path.write_bytes(original)


def test_checks_catch_one_byte_changes(scratch: Path):
    cases = [(name, wl.DEFAULT_SEED) for name in wl.WORKLOADS] + [("trajectories", 8)]
    for name, seed in cases:
        run_dir = scratch / f"{name}-{seed}"
        run_dir.mkdir()
        workload = wl.WORKLOADS[name](seed, run_dir)
        pass_dir = run_dir / "pass"
        pass_dir.mkdir()
        spec = {"trace": False, "invocations": workload.invocations(pass_dir, 1),
                "controls": workload.controls(pass_dir), "result": str(pass_dir / "result.json")}
        result, error = run.spawn(spec, run_dir / "spec.json")
        expect(result is not None, f"{name} seed {seed}: pass runs {error[-300:]}")
        if result is None:
            continue

        def verdicts():
            return workload.check(pass_dir, result["codes"], result["control_codes"], 1)

        expect(all(op.ok for op in verdicts()), f"{name} seed {seed}: real outputs pass")
        outputs = sorted(p for p in pass_dir.iterdir() if p.suffix in (".csv", ".json", ".txt")
                         and p.name not in ("result.json", "control.txt"))
        for path in outputs:
            for position in corrupted(path):
                expect(not all(op.ok for op in verdicts()),
                       f"{name} seed {seed}: {path.name} with byte {position} changed fails")
        expect(all(op.ok for op in verdicts()), f"{name} seed {seed}: restored outputs pass")


def test_figure_commands_match_script(scratch: Path):
    spec = importlib.util.spec_from_file_location(
        "make_figure_data", run.ROOT / "scripts" / "make_figure_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = {}

    def record(*args):
        args = list(args)
        out = args.index("--out")
        recorded[Path(args[out + 1]).name] = args[:out] + args[out + 2:]

    script.cli = record
    script.OUT = scratch / "figures"
    argv, sys.argv = sys.argv, ["make_figure_data.py", "--skip-trajectories"]
    try:
        script.main()
    finally:
        sys.argv = argv
    expect(recorded == wl.FIGURE_COMMANDS, "figure commands are those of make_figure_data.py")
    for name, digest in wl.EXPECTED["figure_tables"].items():
        tracked = (run.ROOT / "out" / name).read_bytes()
        expect(wl.sha256(tracked) == digest, f"recorded digest of out/{name}")
    rows = sum((run.ROOT / "out" / n).read_bytes().count(b"\n") - 1 for n in wl.FIGURE_COMMANDS)
    expect(rows == wl.FIGURE_ROWS, f"figure tables hold {wl.FIGURE_ROWS} rows ({rows})")


def test_bare_directory_fails(scratch: Path):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(command + ["--workload", "verify-sweep", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    scratch = run.WORK / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        test_figure_commands_match_script(scratch)
        test_bare_directory_fails(scratch)
        test_checks_catch_one_byte_changes(scratch)
        test_traced_counts_repeat()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
