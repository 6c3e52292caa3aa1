"""The benchmark's tracer wraps names that exist, and puts them back."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_bindings_resolve_and_restore():
    tracer = load_tracer()
    before = {}
    for module, attr, _ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
        before[module.__name__, attr] = getattr(module, attr)
    t = tracer.Tracer()
    t.install()
    try:
        for module, attr, _ in tracer.WRAPPED:
            assert getattr(module, attr) is not before[module.__name__, attr]
    finally:
        t.uninstall()
    for module, attr, _ in tracer.WRAPPED:
        assert getattr(module, attr) is before[module.__name__, attr]
