"""perfbench/tracer.py finds its spans by name; the names must stay where it looks.

The tracer wraps each ``TARGETS`` name with ``getattr`` on its ``qillum``
module, so a renamed or deleted function stops the traced run.  Its
``oracle.coeff_miss_ratio`` counts calls to ``povm_fock_diagonal`` made
through ``qillum.oracle`` per ``oracle_click_prob`` call, so the verify sweep
must reach both there.  Its ``mc`` counts read the config that
``run_trajectory`` takes first, of either signal kind, its ``verify.cases``
reads the checks of the report ``run_verification`` returns, and its
self-test wants ``mc.first_crossing`` called on a ``trajectories`` run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from qillum import cli, mc, oracle, verify

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", tracer.SPAN_NAMES)
def test_every_target_resolves_in_its_module(span):
    layer, _, name = span.partition(".")
    assert callable(getattr(importlib.import_module(f"qillum.{layer}"), name))


def test_verify_reaches_the_coefficient_spans_through_oracle():
    calls = {"oracle_click_prob": 0, "povm_fock_diagonal": 0}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_tables", {})
        for name in calls:
            mp.setattr(oracle, name, counted(name))
        assert verify.run_verification(quick=True).passed
    assert all(calls.values()), calls


def test_trajectory_counts_read_the_config_run_trajectory_takes_first():
    # Tracer.install() is not called: it patches module namespaces with no undo.
    assert next(iter(inspect.signature(mc.run_trajectory).parameters)) == "config"
    for kind, draws in (("quantum_heralded", 2), ("coherent", 1)):
        config = mc.TrajectoryConfig(
            nbar=1.0, herald_efficiency=0.9, herald_detectors=2, receiver_efficiency=0.9,
            receiver_detectors=3, reflectivity=0.1, background_mean=3.0, shots=40, trials=1,
            seed=5, signal_kind=kind, target_present=True,
        )
        curve = mc.run_trajectory(config, 0)
        for args, kwargs in (((config, 0), {}), ((), {"config": config, "trial_index": 0})):
            counter = tracer.Tracer()
            counter._count_trajectory(args, kwargs, curve)
            assert counter.counts["mc.shot_updates"] == 40
            assert counter.counts["mc.uniform_draws"] == 40 * draws
            assert counter.counts["mc.bytes_computed"] == 40 * tracer._bytes_per_shot(
                draws == 2, True, 4)
    # and its verify count reads the report's checks
    counter = tracer.Tracer()
    counter._count_cases((), {}, verify.run_verification(quick=True))
    assert counter.counts["verify.cases"] > 0


def test_trajectories_calls_first_crossing_through_mc(tmp_path, monkeypatch):
    calls = []
    original = mc.first_crossing

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mc, "first_crossing", counted)
    document = {"nbar": 1.0, "shots": 20, "trials": 2, "thresholds": [0.6, 0.7],
                "signals": ["coherent"]}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "run.csv"
    assert cli.main(["trajectories", "--config", str(config), "--out", str(out)]) == 0
    assert len(calls) == 2
