#!/usr/bin/env python3
"""qillum benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads (see ``workloads.py``):

* ``trajectories``: the acceptance fixture's nine MC ensembles at 64 trials;
* ``figure-tables``: the seven closed-form commands of
  ``scripts/make_figure_data.py``, checked byte for byte against ``out/``;
* ``verify-sweep``: the full ``qillum verify`` sweep with cold oracle caches.

Every pass runs in its own fresh interpreter (``child.py``) at one thread,
through ``qillum.cli.main``, and passes repeat until ``--seconds`` is spent
(at least ``MIN_PASSES``).  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are medians over the passes; ``setup_s`` also takes
``SETUP_SAMPLES`` extra set-up-only processes.  With ``--trace 1`` each round
runs an untraced pass, a pass with per-layer wrappers (``tracer.py``) and, on
``trajectories``, a 128-trial pass at one thread and one at ``$(nproc)``
threads whose CSVs must be byte-identical; the per-layer metrics are medians
over rounds, and counts must repeat exactly between rounds.

Stdout ends with a detail line (environment, samples, failures) and then the
result line: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files
go under ``.perfbench_work/`` in the checkout; each run removes its own.
Exit code 2 means nothing could be measured (for example, no ``src/qillum``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
MAX_PASSES = 40
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot run here at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QILLUM_THREADS", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(spec: dict, spec_path: Path):
    """Run one child process; return (result dict or None, error text)."""
    spec_path.write_text(json.dumps(spec))
    env = child_env()
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"pass exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"pass process exited {proc.returncode}: {proc.stderr[-800:]}"
    result = json.loads(Path(spec["result"]).read_text())
    qillum_file = Path(result["qillum_file"]).resolve()
    if ROOT / "src" not in qillum_file.parents:
        return None, f"imported qillum from {qillum_file}, not from this checkout"
    return result, ""


def setup_sample(run_dir: Path, index: int) -> float:
    spec = {"trace": False, "invocations": [], "controls": [],
            "result": str(run_dir / f"setup-{index}.json")}
    result, error = spawn(spec, run_dir / f"setup-{index}.spec.json")
    if result is None:
        raise BenchmarkError(f"set-up process failed: {error}")
    return result["setup_s"]


def run_pass(workload, run_dir: Path, index: int, threads: int = 1, trace: bool = False):
    """One pass in a fresh process; returns (result or None, ops, csv bytes)."""
    pass_dir = run_dir / f"pass-{index}"
    pass_dir.mkdir()
    invocations = workload.invocations(pass_dir, threads)
    controls = workload.controls(pass_dir)
    spec = {"trace": trace, "invocations": invocations, "controls": controls,
            "result": str(pass_dir / "result.json")}
    result, error = spawn(spec, pass_dir / "spec.json")
    if result is None:
        ops = [Op(f"invocation-{i}", False, error)
               for i in range(len(invocations) + len(controls))]
        csv_bytes = 0
    else:
        ops = workload.check(pass_dir, result["codes"], result["control_codes"], threads)
        csv_bytes = sum(p.stat().st_size for p in pass_dir.glob("*.csv"))
    shutil.rmtree(pass_dir)
    return result, ops, csv_bytes


def enough(durations: list, deadline: float, minimum: int = MIN_PASSES) -> bool:
    """Stop once the minimum is met and another pass would overrun the budget."""
    if len(durations) >= MAX_PASSES:
        return True
    return (len(durations) >= minimum
            and time.monotonic() + statistics.median(durations) > deadline)


def timed_run(workload, run_dir: Path, seconds: float):
    deadline = time.monotonic() + seconds
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    samples["setup_s"] = [setup_sample(run_dir, i) for i in range(SETUP_SAMPLES)]
    ops, durations = [], []
    while True:
        started = time.monotonic()
        result, pass_ops, _ = run_pass(workload, run_dir, len(durations))
        durations.append(time.monotonic() - started)
        ops += pass_ops
        if result is not None:
            for key in samples:
                samples[key].append(result[key])
        if enough(durations, deadline):
            break
    if not samples["wall_s"]:
        raise BenchmarkError("no pass completed: " + "; ".join(op.detail for op in ops))
    wall_s = statistics.median(samples["wall_s"])
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "work_per_s": workload.work_per_pass / wall_s,
    }
    detail = {"passes": len(durations), "samples": samples,
              f"{workload.work_unit}_per_pass": workload.work_per_pass,
              f"{workload.work_unit}_per_s": metrics["work_per_s"]}
    return metrics, ops, detail


def traced_run(workload, run_dir: Path, seconds: float):
    deadline = time.monotonic() + seconds
    nproc = len(os.sched_getaffinity(0))
    threaded = workload.threaded_variant()
    rounds, ops, durations = [], [], []
    while True:
        started = time.monotonic()
        index = len(durations) * 4
        plain, plain_ops, _ = run_pass(workload, run_dir, index)
        traced, traced_ops, csv_bytes = run_pass(workload, run_dir, index + 1, trace=True)
        ops += plain_ops + traced_ops
        walls = {"plain": plain and plain["wall_s"], "traced": traced and traced["wall_s"]}
        if threaded is not None:
            for offset, (key, threads) in enumerate((("one_thread", 1), ("all_threads", nproc))):
                result, pass_ops, _ = run_pass(threaded, run_dir, index + 2 + offset, threads)
                ops += pass_ops
                walls[key] = result and result["wall_s"]
        durations.append(time.monotonic() - started)
        if all(walls.values()):
            rounds.append(dict(walls, layers=dict(traced["layers"], **{"cli.csv_bytes": csv_bytes})))
        if enough(durations, deadline, minimum=1):
            break
    if not rounds:
        raise BenchmarkError("no traced round completed: " + "; ".join(op.detail for op in ops))

    timing = {name for name in rounds[0]["layers"] if name.endswith("_s")}
    counts = [{k: v for k, v in r["layers"].items() if k not in timing} for r in rounds]
    repeat = Op("trace-counts")
    if any(c != counts[0] for c in counts[1:]):
        repeat.fail("per-layer counts differ between traced rounds")
    ops.append(repeat)

    metrics = dict(counts[0])
    for name in timing:
        metrics[name] = statistics.median(r["layers"][name] for r in rounds)
    plain_s = statistics.median(r["plain"] for r in rounds)
    traced_s = statistics.median(r["traced"] for r in rounds)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = plain_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["mc.thread_speedup"] = 0.0
    if threaded is not None:
        metrics["mc.thread_speedup"] = (statistics.median(r["one_thread"] for r in rounds)
                                        / statistics.median(r["all_threads"] for r in rounds))
    detail = {"rounds": len(rounds), "nproc": nproc,
              "samples": {k: [r[k] for r in rounds] for k in rounds[0] if k != "layers"}}
    return metrics, ops, detail


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def environment(seed: int) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "seed": seed,
    }


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    if not (ROOT / "src" / "qillum" / "cli.py").is_file():
        print(f"benchmark error: no qillum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))

    started = time.monotonic()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        measure = traced_run if args.trace else timed_run
        values, ops, detail = measure(workload, run_dir, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    failed = [op for op in ops if not op.ok]
    detail.update({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "elapsed_s": time.monotonic() - started, "environment": environment(args.seed),
        "failed_frac": len(failed) / len(ops), "attempted": len(ops),
        "failures": [f"{op.name}: {op.detail}" for op in failed],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
