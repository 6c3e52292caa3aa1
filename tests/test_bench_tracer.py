"""The benchmark's tracer wraps names that exist, and puts them back."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import chanlin.cli

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


def test_traced_checks_record_layer_counts(fixtures):
    """A traced in-process check, as `bench/run.py --trace 1` runs it, records
    the counts that the per-layer metrics read from the spans."""
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    codes = []
    try:
        for name, algo in [
            ("sync_triangle_positive.vchk", "frontier-rf"),
            ("two_thread_cap1_negative_rf.vchk", "acyclic"),
        ]:
            with t.root(name):
                try:
                    chanlin.cli.main(
                        ["check", str(fixtures / name), "--algo", algo], standalone_mode=False
                    )
                except SystemExit as exc:
                    codes.append(exc.code)
    finally:
        t.uninstall()
    assert codes == [0, 1]
    info = {}
    for s in t.spans:
        info.setdefault(s.name, {}).update(s.info)
    assert info["frontier.search"]["states"] > 0
    assert info["saturation.saturate"]["cyclic"] == 0
    assert info["fastpath.encode_2sat"]["vars"] > 0
    assert info["fastpath.encode_2sat"]["clauses"] > 0
