"""The benchmark's tracer finds every entry point it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "mmsbench" / "tracing.py"


def test_every_traced_entry_point_resolves():
    # the tracer looks each name up with getattr, so a rename breaks only traced runs
    spec = importlib.util.spec_from_file_location("mmsbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    missing = [
        f"mmslab.{module}.{name}"
        for module, name, _ in tracing.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"mmslab.{module}"), name, None))
    ]
    assert missing == []
