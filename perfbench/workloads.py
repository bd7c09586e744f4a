"""The three benchmark workloads: their CLI invocations and output checks.

A pass is one list of ``qillum`` CLI invocations run in one fresh process.
Every invocation is one operation; it fails on a non-zero exit code or on a
failed output check.  Checks read only the bytes a pass wrote, so the
self-test can hand them corrupted copies.

Reference digests live in ``expected.json`` next to this file:

* ``figure_tables``: sha256 of the tracked ``out/*.csv`` files, which the
  closed-form commands must reproduce byte for byte;
* ``verify_report``: sha256 of the ``qillum verify`` report;
* ``trajectories``: sha256 of each CSV and ``.meta.json`` sidecar at the
  default seed, per trial count.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

DEFAULT_SEED = 7

# The acceptance fixture's ensembles (tests/test_acceptance.py) at far fewer
# trials.  Timed passes are kept short so a run holds many of them; the
# thread-count comparison needs two 64-trial chunks per ensemble, or a
# --threads 2 pass has no parallel work and no chunk order to get wrong.
TRAJECTORY_TRIALS = 64
THREAD_TRIALS = 128
TRAJECTORY_SHOTS = 30_000
TRAJECTORY_BASE = {
    "nbar": 1.0, "eta": 0.9, "eta_s": 0.9, "receiver_detectors": 1,
    "kappa": 0.1, "nbar_b": 3.0, "shots": TRAJECTORY_SHOTS, "thresholds": [0.8, 0.9],
}
HERALDED = [{"kind": "quantum_heralded", "herald_detectors": n} for n in (1, 2, 4)]
TRAJECTORY_DOCS = {
    "present": dict(TRAJECTORY_BASE, target_present=True, signals=HERALDED + [
        {"kind": "coherent"},
        {"kind": "quantum_heralded_matched", "herald_detectors": 1},
    ]),
    "absent": dict(TRAJECTORY_BASE, target_present=False,
                   signals=HERALDED + [{"kind": "coherent"}]),
}
ENSEMBLES = sum(len(doc["signals"]) for doc in TRAJECTORY_DOCS.values())

# The closed-form commands of scripts/make_figure_data.py, with its arguments.
FIGURE_COMMANDS = {
    "herald_stats.csv": ["herald-stats", "--grid", "lin:0.02:10:500", "--eta", "0.95"],
    "click_prob_k01.csv": ["click-prob", "--grid", "lin:0.02:20:500", "--kappa", "0.1",
                           "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9"],
    "click_prob_k08.csv": ["click-prob", "--grid", "lin:0.02:20:500", "--kappa", "0.8",
                           "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9"],
    "matching.csv": ["match", "--grid", "lin:0:5:251", "--eta-e", "0.9"],
    "wigner_thermal.csv": ["wigner", "--state", "thermal", "--nbar", "1"],
    "wigner_herald_n2_k2.csv": ["wigner", "--state", "herald", "--nbar", "1", "--eta", "0.9",
                                "--detectors", "2", "--clicks", "2"],
    "wigner_herald_n10_k2.csv": ["wigner", "--state", "herald", "--nbar", "1", "--eta", "0.9",
                                 "--detectors", "10", "--clicks", "2"],
}

# Data rows of the seven tables; their digests pin the count.
FIGURE_ROWS = 2234

VERIFY_CHECKS = 7
VERIFY_CASES = 4073
_VERIFY_LINE = re.compile(r"^PASS  .*\(tolerance \S+, (\d+) cases\)$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One operation (CLI invocation) and the verdict on it."""

    name: str
    ok: bool = True
    detail: str = ""

    def fail(self, detail: str) -> None:
        self.ok = False
        self.detail = "; ".join(d for d in (self.detail, detail) if d)


class Workload:
    name = ""
    work_unit = ""
    work_per_pass = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def threaded_variant(self):
        """A variant to run at one and at all threads, or None."""
        return None

    def invocations(self, pass_dir: Path, threads: int) -> list:
        """Timed invocations: dicts with ``argv`` and optionally ``stdout``."""
        raise NotImplementedError

    def controls(self, pass_dir: Path) -> list:
        """Untimed control invocations, run after the timed region of a pass."""
        return []

    def check(self, pass_dir: Path, codes: list, control_codes: list, threads: int) -> list:
        """Verdicts on the pass's invocations then its controls, as ``Op``s."""
        raise NotImplementedError


def _exit_ops(names, codes, expected):
    ops = []
    for name, code, want in zip(names, codes, expected):
        op = Op(name)
        if code != want:
            op.fail(f"exit code {code}, expected {want}")
        ops.append(op)
    return ops


class Trajectories(Workload):
    name = "trajectories"
    work_unit = "shot_updates"

    def __init__(self, seed, workdir, trials=TRAJECTORY_TRIALS):
        super().__init__(seed, workdir)
        self.trials = trials
        self.work_per_pass = ENSEMBLES * trials * TRAJECTORY_SHOTS
        self.configs = {}
        for label, doc in TRAJECTORY_DOCS.items():
            path = workdir / f"{label}-{trials}.json"
            path.write_text(json.dumps(dict(doc, seed=seed, trials=trials), indent=2))
            self.configs[label] = path
        self.reference = {}

    def threaded_variant(self):
        return Trajectories(self.seed, self.workdir, THREAD_TRIALS)

    def invocations(self, pass_dir, threads):
        return [
            {"argv": ["trajectories", "--config", str(path), "--threads", str(threads),
                      "--out", str(pass_dir / f"{label}.csv")]}
            for label, path in self.configs.items()
        ]

    def check(self, pass_dir, codes, control_codes, threads):
        ops = _exit_ops(list(TRAJECTORY_DOCS), codes, [0] * len(TRAJECTORY_DOCS))
        last_rows = {}
        for op in ops:
            if not op.ok:
                continue
            csv_path = pass_dir / f"{op.name}.csv"
            meta_path = pass_dir / f"{op.name}.csv.meta.json"
            try:
                csv_bytes = csv_path.read_bytes()
                meta_bytes = meta_path.read_bytes()
            except OSError as exc:
                op.fail(f"missing output: {exc}")
                continue
            labels = [_signal_label(s) for s in TRAJECTORY_DOCS[op.name]["signals"]]
            problem, last = check_trajectory_csv(csv_bytes, labels)
            if problem:
                op.fail(problem)
            else:
                last_rows[op.name] = last
            try:
                meta = json.loads(meta_bytes)
            except ValueError as exc:
                op.fail(f"sidecar is not JSON: {exc}")
                continue
            if meta.get("threads") != threads or meta.get("seed") != self.seed:
                op.fail(f"sidecar records threads {meta.get('threads')}, seed {meta.get('seed')}")
            if self.seed == DEFAULT_SEED:
                # The sidecar records the thread count, so only one-thread
                # sidecars have a recorded digest; CSVs must match at any count.
                expected = EXPECTED["trajectories"][str(self.trials)]
                digests = [(csv_path, csv_bytes)] + [(meta_path, meta_bytes)] * (threads == 1)
                for path, data in digests:
                    if sha256(data) != expected[path.name]:
                        op.fail(f"{path.name} differs from the recorded seed-{DEFAULT_SEED} digest")
        if len(last_rows) == len(ops):
            present, absent = last_rows["present"], last_rows["absent"]
            for label, value in absent.items():
                if not present[label] > value:
                    ops[1].fail(f"{label}: final target-absent mean {value} is not below "
                                f"the target-present mean {present[label]}")
        for op in ops:
            # Every pass of a run uses one seed, so its bytes must repeat: CSVs at
            # any thread count, sidecars (which record the count) per count.
            for name, key in ((f"{op.name}.csv", None), (f"{op.name}.csv.meta.json", threads)):
                data = _read(pass_dir / name)
                if op.ok and self.reference.setdefault((name, key), sha256(data)) != sha256(data):
                    op.fail(f"{name} differs from the first pass of this run")
        return ops


def _signal_label(signal: dict) -> str:
    kind = signal["kind"]
    if kind == "coherent":
        return "coherent"
    prefix = "quantum" if kind == "quantum_heralded" else "matched"
    return f"{prefix}_n{signal['herald_detectors']}"


def check_trajectory_csv(data: bytes, labels: list):
    """Return (problem or "", last-row values by label) for one trajectories CSV."""
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return "CSV is not ASCII", {}
    header = ["shot_index"] + [f"mean_posterior_{label}" for label in labels]
    if lines[0] != ",".join(header):
        return f"unexpected header {lines[0]!r}", {}
    if lines[-1] != "" or len(lines) != TRAJECTORY_SHOTS + 2:
        return f"expected {TRAJECTORY_SHOTS} newline-terminated rows", {}
    values = []
    for index, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if len(fields) != len(header) or fields[0] != str(index):
            return f"malformed row {index}", {}
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError:
            return f"non-numeric value in row {index}", {}
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"value outside [0, 1] in row {index}", {}
    return "", dict(zip(labels, values))


class FigureTables(Workload):
    name = "figure-tables"
    work_unit = "rows"
    work_per_pass = FIGURE_ROWS

    def invocations(self, pass_dir, threads):
        return [{"argv": argv + ["--out", str(pass_dir / name)]}
                for name, argv in FIGURE_COMMANDS.items()]

    def check(self, pass_dir, codes, control_codes, threads):
        ops = _exit_ops(list(FIGURE_COMMANDS), codes, [0] * len(FIGURE_COMMANDS))
        for op in ops:
            if op.ok and sha256(_read(pass_dir / op.name)) != EXPECTED["figure_tables"][op.name]:
                op.fail(f"{op.name} differs from the tracked out/{op.name}")
        return ops


class VerifySweep(Workload):
    name = "verify-sweep"
    work_unit = "cases"
    work_per_pass = VERIFY_CASES

    def invocations(self, pass_dir, threads):
        return [{"argv": ["verify"], "stdout": str(pass_dir / "verify.txt")}]

    def controls(self, pass_dir):
        return [{"argv": ["verify", "--quick", "--selftest-perturb", "1e-6"],
                 "stdout": str(pass_dir / "control.txt")}]

    def check(self, pass_dir, codes, control_codes, threads):
        ops = _exit_ops(["verify"], codes, [0])
        ops += _exit_ops(["verify-control"], control_codes, [3])
        if ops[0].ok:
            problem = check_verify_report(_read(pass_dir / "verify.txt"))
            if problem:
                ops[0].fail(problem)
        return ops


def check_verify_report(data: bytes) -> str:
    lines = data.decode("utf-8", "replace").splitlines()
    matches = [_VERIFY_LINE.match(line) for line in lines]
    if len(lines) != VERIFY_CHECKS or not all(matches):
        return f"expected {VERIFY_CHECKS} PASS lines, got {lines!r}"
    cases = sum(int(m.group(1)) for m in matches)
    if cases != VERIFY_CASES:
        return f"expected {VERIFY_CASES} cases, got {cases}"
    if sha256(data) != EXPECTED["verify_report"]:
        return "verify report differs from the recorded one"
    return ""


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


WORKLOADS = {cls.name: cls for cls in (Trajectories, FigureTables, VerifySweep)}
