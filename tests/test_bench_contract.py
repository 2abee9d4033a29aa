"""The bench tracer (`bench/tracer.py`) wraps program attributes by name, so a
deletion or rename of one breaks the traced bench run. Each must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_patches():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.PATCHES]


# The patched attributes, plus what `Recorder.install` replaces or reads directly.
TARGETS = sorted(set(_tracer_patches()) | {
    ("clover_forge.generate", "ThreadPoolExecutor"),
    ("clover_forge.generate", "BudgetLedger"),
    ("clover_forge.generate", "complete"),
    ("clover_forge.backends", "BackendError"),
})


@pytest.mark.parametrize("module, attr", TARGETS)
def test_tracer_target_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
