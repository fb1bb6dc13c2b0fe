"""perfbench's tracer wraps program functions by name, and a name it cannot
find is skipped and its per-layer metrics reported absent. Every name it
wraps must resolve against this package, so a change that removes or renames
one fails here instead of silently dropping a metric."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                               ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = [target[:2] for target in tracing.TARGETS] + [tracing.NODE_TARGET]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    assert Path(importlib.import_module(module).__file__).parent == ROOT / "src" / "paragen"
    owner, leaf = tracing._resolve(module, attr)
    assert owner is not None and hasattr(owner, leaf), f"{module}.{attr}"
