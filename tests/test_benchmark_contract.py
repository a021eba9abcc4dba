"""The benchmark's traced run must still find every function it wraps.

``perfbench/test_harness.py`` is not part of the default test run, so a
refactor that renames or deletes a traced function would only show up
when the benchmark is traced.  This check loads the tracer by path and
resolves every target the way ``Recorder.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    missing = []
    for name, modname, path in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(owner.__dict__.get(attr)):
            missing.append((name, modname, path))
    assert missing == []
