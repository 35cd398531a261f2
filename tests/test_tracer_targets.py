"""Every function the benchmark tracer wraps still exists.

``mesabench/tracer.py`` resolves its ``TARGETS`` by module and name with
``getattr`` when a traced run installs it; a renamed or deleted function
would only fail there. This checks the same resolution.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "mesabench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_mesabench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations there
    spec.loader.exec_module(mod)
    return mod


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.module}:{t.name}" for t in TARGETS]
)
def test_target_resolves(target):
    obj = importlib.import_module(target.module)
    for part in target.name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
