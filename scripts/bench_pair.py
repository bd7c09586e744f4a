#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pair.py --workload NAME [--pairs K] [--base REV]

``NAME`` is one of the ``workloads`` that ``BENCHMARK.json`` declares.

Exports the committed files of ``--base`` (default ``HEAD``, the parent of
uncommitted work) into a temporary directory with ``git archive``, so no
worktree is left registered in the repository, and copies the working
tree's tracked and unignored files into another, so both sides run from
fresh directories of the same layout.  Then runs
``perfbench/run.py --workload NAME --trace 0`` K times on each side, in
pairs, alternating which side runs first.  Each side runs its own
``perfbench/`` with its default run length and seed, so every run checks
the recorded output digests.

Writes ``BENCH_<NAME>.json`` at the root of the working tree: the seconds
and seed that ``run.py`` reports, every sample,
each side's median and quartiles of every end-to-end metric that
``BENCHMARK.json`` declares, how many pairs the working tree won (ties
count for neither side) and a verdict per metric:

- ``gain``: the working tree won at least nine tenths of the pairs and its
  median is better than the base's by more than the base's interquartile
  range;
- ``regression``: its median is worse than the base's by more than the
  metric's ``bound``, a fraction of the base median;
- ``unresolved``: neither, and the base's interquartile range is wider than
  the bound, unless every run of the working tree reads better than every
  run of the base;
- ``within bound``: otherwise.

A verdict needs runs that did the same work.  If any run is not ``correct``,
or a run of the working tree fails more operations than every base run, the
script names those runs, writes nothing and exits non-zero.

Set ``TMPDIR`` to choose where the copy goes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, directory: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        archive.extractall(directory, filter="data")


def snapshot(directory: Path) -> None:
    """Copy the working tree's tracked and unignored files, as they are on disk."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():
            target = directory / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def bench(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run: its result line, or the failure it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench/run.py failed in {checkout}:\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {
        "seconds": detail["seconds"],
        "seed": detail["environment"]["seed"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(base: list, change: list, sign: int, bound: float, change_wins: int) -> str:
    """The module docstring's rule for one metric; ``sign`` is +1 when higher is better."""
    q = quartiles(base)
    spread, median = q["q3"] - q["q1"], q["median"]
    gap = sign * (statistics.median(change) - median)
    if change_wins >= 0.9 * len(base) and gap > spread:
        return "gain"
    if -gap > bound * abs(median):
        return "regression"
    if spread > bound * abs(median) and min(sign * c for c in change) <= max(sign * b for b in base):
        return "unresolved"
    return "within bound"


def untrusted(samples: dict) -> list:
    """Each run that a verdict cannot rest on, with the reason."""
    problems = [f"{side} run {i}: not correct, {s['failed']} of {s['attempted']} operations failed"
                for side, runs in samples.items() for i, s in enumerate(runs, 1) if not s["correct"]]
    most = max(s["failed"] for s in samples["base"])
    problems += [f"change run {i}: {s['failed']} operations failed, the base at most {most}"
                 for i, s in enumerate(samples["change"], 1) if s["failed"] > most]
    return problems


def summarize(samples: dict, end_to_end: list) -> dict:
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [s["metrics"][name] for s in samples["base"]]
        change = [s["metrics"][name] for s in samples["change"]]
        change_wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": quartiles(base),
            "change": quartiles(change),
            "change_wins": change_wins,
            "base_wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "verdict": verdict(base, change, sign, metric["bound"], change_wins),
        }
    return summary


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in declared["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two samples)")

    base_sha = git("rev-parse", args.base).decode().strip()
    samples = {"base": [], "change": []}
    order = []
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(base_sha, sides["base"])
        snapshot(sides["change"])
        for pair in range(args.pairs):
            first = ("base", "change") if pair % 2 == 0 else ("change", "base")
            order.append(list(first))
            for side in first:
                sample = bench(sides[side], args.workload)
                samples[side].append(sample)
                wall = sample["metrics"]["wall_s"]
                print(f"pair {pair + 1}/{args.pairs} {side}: wall_s {wall:.3f}", file=sys.stderr)

    settings = {(s["seconds"], s["seed"]) for side in samples.values() for s in side}
    if len(settings) != 1:
        raise SystemExit(f"the two sides ran perfbench with different settings: {settings}")
    (seconds, seed), = settings
    problems = untrusted(samples)
    if problems:
        raise SystemExit("no verdict, these runs cannot be trusted:\n" + "\n".join(problems))
    record = {
        "workload": args.workload,
        "base": base_sha,
        "change": "working tree",
        "command": ["perfbench/run.py", "--workload", args.workload, "--trace", "0"],
        "seconds": seconds,
        "seed": seed,
        "pairs": args.pairs,
        "order": order,
        "machine": {"cpus": os.cpu_count(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "summary": summarize(samples, declared["end_to_end"]),
        "samples": samples,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
