"""Golden-bytes tests: data outputs must not drift by a single byte.

The closed-form figure tables are regenerated with the exact invocations of
``scripts/make_figure_data.py`` and compared with the tracked ``out/*.csv``.
The benchmark's two ``qillum trajectories`` documents are run at its seed and
checked against its own digests in ``perfbench/expected.json``, so any change
to the Monte-Carlo draws, arithmetic, chunk-order reduction or CSV formatting
shows up here.  The stdout of ``qillum verify`` and ``qillum verify --quick``
is pinned the same way, and so is their stderr, whose worst-case lines depend
on the first-max rule; the full report's digest is the benchmark's
``verify_report``.  The benchmark's figure commands and digests must stay
those of ``scripts/make_figure_data.py`` and the tracked ``out/*.csv``.
All but the full report are pinned with numpy's SIMD dispatch lowered too.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qillum import cli

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    """Import a script that is not part of a package, by its path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # a dataclass looks its module up in sys.modules while the module executes
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


workloads = _load(ROOT / "perfbench" / "workloads.py")

VERIFY_DIGESTS = {
    "full": workloads.EXPECTED["verify_report"],
    "quick": "efaa60d6ee0e17867d5ba5949df36c346466b810ee0f270b0edac6ae275c7b42",
}
VERIFY_STDERR_DIGESTS = {
    "full": "be783551cf2843241fb81e6463c7bac723e916e9cd3de1762cc5315ef604d833",
    "quick": "89aafcfd7ad4680405c8f21ad1e10614adb619190c0635dc6402bd666bda8332",
}


def test_figure_tables_match_tracked_out(tmp_path, monkeypatch):
    script = _load(ROOT / "scripts" / "make_figure_data.py")

    def run(*args):
        assert cli.main(list(args)) == 0

    monkeypatch.setattr(script, "cli", run)
    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--skip-trajectories"])
    # k01 builds the click-prob herald columns and k08 reads them: both are checked
    cli._herald_column.cache_clear()
    script.main()

    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in (ROOT / "out").glob("*.csv"))
    assert len(written) == 7
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


@pytest.mark.parametrize("label", sorted(workloads.TRAJECTORY_DOCS))
def test_trajectories_digests(tmp_path, label):
    # One thread at 64 trials pins the CSV and the sidecar, which records the
    # thread count; two threads at 128 trials, two chunks per ensemble, pin
    # the CSV of the chunk-order reduction.
    config, out = tmp_path / f"{label}.json", tmp_path / f"{label}.csv"
    for trials, threads in ((workloads.TRAJECTORY_TRIALS, 1), (workloads.THREAD_TRIALS, 2)):
        document = dict(workloads.TRAJECTORY_DOCS[label], seed=workloads.DEFAULT_SEED,
                        trials=trials)
        config.write_text(json.dumps(document))
        argv = ["trajectories", "--config", str(config), "--threads", str(threads)]
        assert cli.main(argv + ["--out", str(out)]) == 0
        expected = workloads.EXPECTED["trajectories"][str(trials)]
        for name in [out.name] + [f"{out.name}.meta.json"] * (threads == 1):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected[name], (trials, name)


@pytest.mark.parametrize("sweep", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(capsys, sweep):
    assert cli.main(["verify"] + (["--quick"] if sweep == "quick" else [])) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_DIGESTS[sweep]
    assert hashlib.sha256(captured.err.encode()).hexdigest() == VERIFY_STDERR_DIGESTS[sweep]


def test_benchmark_figure_contract(tmp_path, monkeypatch):
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


# Runs the figure commands, the one-thread trajectory documents and ``verify
# --quick`` of the JSON plan on stdin, and prints the digest of each output
# with the SIMD groups that numpy still dispatches.
LOWERED_CHILD = textwrap.dedent("""
    import contextlib, hashlib, io, json, sys
    from pathlib import Path
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    from qillum import cli

    plan, tmp = json.load(sys.stdin), Path(sys.argv[1])
    digests = {"dispatched": [group for group in __cpu_dispatch__ if __cpu_features__.get(group)]}
    for name, argv in plan["figures"].items():
        assert cli.main(argv + ["--out", str(tmp / name)]) == 0, name
        digests[name] = hashlib.sha256((tmp / name).read_bytes()).hexdigest()
    for label, document in plan["trajectories"].items():
        config, out = tmp / f"{label}.json", tmp / f"{label}.csv"
        config.write_text(json.dumps(document))
        argv = ["trajectories", "--config", str(config), "--threads", "1", "--out", str(out)]
        assert cli.main(argv) == 0, label
        for path in (out, tmp / f"{out.name}.meta.json"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(["verify", "--quick"]) == 0
    digests["verify --quick stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    digests["verify --quick stderr"] = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
    print(json.dumps(digests))
""")


def _host_groups(level: str) -> list:
    """numpy's dispatched SIMD groups that this CPU runs: the AVX512 ones, or every one."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    groups = [group for group in __cpu_dispatch__ if __cpu_features__.get(group)]
    if level == "avx512":
        groups = [group for group in groups if group.startswith("AVX512") or group == "X86_V4"]
    return groups


@pytest.mark.parametrize("level", ["avx512", "every"])
def test_pinned_bytes_at_lowered_dispatch(level, tmp_path):
    # numpy's AVX512 exp and log differ from libm in the last bit of some
    # doubles, so these bytes must come from basic IEEE operations or libm.
    # The full verify report joins once the oracle's exp takes that path too
    # (ROADMAP item 19); on an AVX512 host it differs today.
    disabled = _host_groups(level)
    if not disabled:
        pytest.skip(f"numpy dispatches no {level} SIMD group above its baseline on this CPU")
    trials = workloads.TRAJECTORY_TRIALS
    plan = {"figures": workloads.FIGURE_COMMANDS, "trajectories": {
        label: dict(document, seed=workloads.DEFAULT_SEED, trials=trials)
        for label, document in workloads.TRAJECTORY_DOCS.items()}}
    expected = {"dispatched": [group for group in _host_groups("every") if group not in disabled],
                **workloads.EXPECTED["figure_tables"], **workloads.EXPECTED["trajectories"][str(trials)],
                "verify --quick stdout": VERIFY_DIGESTS["quick"],
                "verify --quick stderr": VERIFY_STDERR_DIGESTS["quick"]}
    # groups this process already runs without stay disabled in the child
    already = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(already + disabled),
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", LOWERED_CHILD, str(tmp_path)], env=env,
                          input=json.dumps(plan), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected, disabled
