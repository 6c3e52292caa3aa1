"""Spans recorded from outside the program.

:class:`Tracer` replaces public functions under the name each importing module
binds (``chanlin.frontier.saturate``, ``chanlin.cli.solve_acyclic``, ...) with
wrappers that record one span per call: name, start, end, parent span, check
id, plus counts read from the returned value.  Spans stay in memory until
:meth:`Tracer.dump`.  Hot helpers such as ``saturation.ready`` are left alone.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import chanlin.cli
import chanlin.core
import chanlin.fastpath
import chanlin.frontier
import chanlin.saturation
from chanlin.core import AlgorithmRefused

# (module, attribute, span name): every binding the `check` path calls through.
WRAPPED = [
    (chanlin.cli, "parse_instance", "core.parse"),
    (chanlin.core, "make_instance", "core.validate"),
    (chanlin.cli, "make_instance", "core.validate"),
    (chanlin.cli, "serialize_instance", "core.serialize"),
    (chanlin.cli, "check_well_formed", "core.wellformed"),
    (chanlin.fastpath, "classify_channels", "core.classify"),
    (chanlin.saturation, "classify_channels", "core.classify"),
    (chanlin.cli, "solve_sync", "fastpath.sync"),
    (chanlin.cli, "solve_acyclic", "fastpath.acyclic"),
    (chanlin.fastpath, "encode_2sat", "fastpath.encode_2sat"),
    (chanlin.fastpath, "solve_2sat", "fastpath.solve_2sat"),
    (chanlin.cli, "solve_vch", "frontier.search"),
    (chanlin.cli, "solve_vchrf", "frontier.search"),
    (chanlin.cli, "solve_vchrf_saturated", "frontier.search"),
    (chanlin.frontier, "saturate", "saturation.saturate"),
]


def _counts(name: str, result) -> dict:
    """Counts read from a wrapped function's return value."""
    if name == "frontier.search":
        return {"states": result.explored}
    if name == "saturation.saturate":
        return {"cyclic": int(result.cyclic)}
    if name == "fastpath.encode_2sat":
        return {"vars": result.nvars, "clauses": len(result.clauses)}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "check", "child_s", "info")

    def __init__(self, name, start, parent, check):
        self.name, self.start, self.end = name, start, start
        self.parent, self.check = parent, check
        self.child_s = 0.0
        self.info: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (which never overlap)."""
        return self.dur - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.check: str | None = None

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.check)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur

    @contextlib.contextmanager
    def root(self, check: str):
        """One CLI call: the root of the spans it causes."""
        self.check = check
        span = self._open("cli.check")
        try:
            yield span
        finally:
            self._close(span)
            self.check = None

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except AlgorithmRefused:
                span.info["refused"] = 1
                raise
            finally:
                self._close(span)
            span.info.update(_counts(name, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "check": s.check,
                    **s.info,
                }
                fh.write(json.dumps(rec) + "\n")
