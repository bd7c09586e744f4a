"""perfbench/tracer.py finds its spans by name; the names must stay where it looks.

The tracer wraps each ``TARGETS`` name with ``getattr`` on its ``qillum``
module, so a renamed or deleted function stops the traced run.  Its
``oracle.coeff_miss_ratio`` counts calls to ``povm_fock_diagonal`` made
through ``qillum.oracle`` per ``oracle_click_prob`` call, so the verify sweep
must reach both there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qillum import oracle, verify

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
