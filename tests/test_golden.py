"""Golden-bytes tests: data outputs must not drift by a single byte.

The closed-form figure tables are regenerated with the exact invocations of
``scripts/make_figure_data.py`` and compared with the tracked ``out/*.csv``.
A small ``qillum trajectories`` run is pinned by the sha256 of its CSV and
sidecar, so any change to the Monte-Carlo draws, arithmetic or CSV formatting
shows up here.  The stdout of ``qillum verify`` and ``qillum verify --quick``
is pinned the same way, and so is their stderr, whose worst-case lines depend
on the first-max rule; the full report's digest is also the benchmark's
``verify_report``.  The benchmark's tracer looks up its targets by name, so
every name it lists must stay importable, and its figure commands and digests
must stay those of ``scripts/make_figure_data.py`` and the tracked ``out/*.csv``.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qillum import cli
from qillum.mc import SignalKind, TrajectoryConfig
from qillum.verify import run_verification

ROOT = Path(__file__).resolve().parent.parent

# Seed 7, 8 trials of 2000 shots, one thread: the acceptance fixture's
# target-present and target-absent signal sets.
TRAJECTORY_BASE = {
    "nbar": 1.0, "eta": 0.9, "eta_s": 0.9, "receiver_detectors": 1,
    "kappa": 0.1, "nbar_b": 3.0, "shots": 2000, "trials": 8, "seed": 7,
    "thresholds": [0.8, 0.9],
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
TRAJECTORY_DIGESTS = {
    "present.csv": "877588f700d98e42a941543b3e14612061da78231e8cb7b3dc1bd7ec8ea1065c",
    "present.csv.meta.json": "a01cf4f8bc4fc91c76771237c68d791274e643d8cc98ba5b3c2e6d0fa5e923e6",
    "absent.csv": "9702188658831fe904e22a81a094ac5319444d784f335d6045357a1ac202da7f",
    "absent.csv.meta.json": "d3ceb468283fe2a5c55443dd168bef38a66304048f5fc54c0ec671d82b3ba6f3",
}

VERIFY_DIGESTS = {
    "full": "d31a9e7fb3fd1cf90b012350120e84d1acf016fe09bece6e3f6351dac38b25a5",
    "quick": "efaa60d6ee0e17867d5ba5949df36c346466b810ee0f270b0edac6ae275c7b42",
}
VERIFY_STDERR_DIGESTS = {
    "full": "be783551cf2843241fb81e6463c7bac723e916e9cd3de1762cc5315ef604d833",
    "quick": "89aafcfd7ad4680405c8f21ad1e10614adb619190c0635dc6402bd666bda8332",
}


def _load(path: Path):
    """Import a script that is not part of a package, by its path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure_tables_match_tracked_out(tmp_path, monkeypatch):
    script = _load(ROOT / "scripts" / "make_figure_data.py")

    def run(*args):
        assert cli.main(list(args)) == 0

    monkeypatch.setattr(script, "cli", run)
    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--skip-trajectories"])
    script.main()

    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in (ROOT / "out").glob("*.csv"))
    assert len(written) == 7
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


@pytest.mark.parametrize("label", sorted(TRAJECTORY_DOCS))
def test_trajectories_digests(tmp_path, label):
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(TRAJECTORY_DOCS[label]))
    out = tmp_path / f"{label}.csv"
    assert cli.main(["trajectories", "--config", str(config), "--out", str(out)]) == 0
    for name in (f"{label}.csv", f"{label}.csv.meta.json"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == TRAJECTORY_DIGESTS[name], name


@pytest.mark.parametrize("sweep", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(capsys, sweep):
    assert cli.main(["verify"] + (["--quick"] if sweep == "quick" else [])) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_DIGESTS[sweep]
    assert hashlib.sha256(captured.err.encode()).hexdigest() == VERIFY_STDERR_DIGESTS[sweep]


def test_full_verify_digest_is_the_benchmark_digest():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert VERIFY_DIGESTS["full"] == expected["verify_report"]


def test_benchmark_tracer_targets_resolve():
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"qillum.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qillum.{layer}.{name}"


def test_benchmark_trace_hooks_read_the_api():
    # --trace 1 counts shots from each run_trajectory config and cases from
    # the verify report.  Tracer.install() is not called: it patches module
    # namespaces with no undo.
    tracer = _load(ROOT / "perfbench" / "tracer.py").Tracer()
    for kind in (SignalKind.QUANTUM_HERALDED, SignalKind.COHERENT):
        config = TrajectoryConfig(
            nbar=1.0, herald_efficiency=0.9, herald_detectors=2, receiver_efficiency=0.9,
            receiver_detectors=2, reflectivity=0.1, background_mean=3.0, shots=10,
            trials=1, seed=7, signal_kind=kind, target_present=True,
        )
        tracer._count_trajectory((config,), {}, None)
    tracer._count_cases((), {}, run_verification(quick=True))
    assert all(count > 0 for count in tracer.counts.values()), tracer.counts


def test_benchmark_figure_contract(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    script = _load(ROOT / "scripts" / "make_figure_data.py")
    issued = {}

    def record(*args):
        args = list(args)
        out = args.index("--out")
        issued[Path(args[out + 1]).name] = args[:out] + args[out + 2:]

    monkeypatch.setattr(script, "cli", record)
    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--skip-trajectories"])
    script.main()
    assert issued == workloads.FIGURE_COMMANDS

    digests = workloads.EXPECTED["figure_tables"]
    assert sorted(digests) == sorted(path.name for path in (ROOT / "out").glob("*.csv"))
    for name, digest in digests.items():
        assert hashlib.sha256((ROOT / "out" / name).read_bytes()).hexdigest() == digest, name
