"""The benchmark's tracer finds every entry point it wraps and sees every
oracle query."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mmslab
from mmslab.valuations import ValuationOracle

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


def test_no_oracle_class_overrides_value_mask():
    # the tracer counts queries by patching `ValuationOracle.value_mask` on the
    # base class, so an override would answer queries the count never sees
    for info in pkgutil.iter_modules(mmslab.__path__):
        importlib.import_module(f"mmslab.{info.name}")
    classes, todo = [], [ValuationOracle]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    ours = [c for c in classes[1:] if c.__module__.startswith("mmslab.")]
    assert len(ours) >= 10
    assert [c.__qualname__ for c in ours if "value_mask" in vars(c)] == []
