"""Frontier-graph decision procedures for VCh and VCh-rf.

A frontier node summarizes a po-downward-closed set of executed events by
per-thread counters, the pending (sent, not yet received) contents of every
asynchronous channel as FIFO queues of send event ids, and at most one
pending synchronous send.  The instance is consistent iff a sink node (all
events executed, no pending synchronous send) is reachable from the empty
source node.  The graph is never materialized: depth-first search expands
nodes on the fly, deduplicating by a canonical byte key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    CONSISTENT,
    INCONSISTENT,
    INF,
    RCV,
    SND,
    AbstractExecution,
    Event,
    Verdict,
    rf_defect,
)
from .saturation import SaturatedOrder, ready, saturate


@dataclass(frozen=True)
class FrontierNode:
    """Public view of a search state: ⟨counts, queues, pending sync send⟩."""

    counts: tuple[int, ...]  # per thread, aligned with sorted thread tokens
    queues: tuple[tuple[str, tuple[int, ...]], ...]  # (channel, send ids), sorted
    pending_sync: int | None


def node_key(node: FrontierNode) -> bytes:
    """Canonical byte key: injective over states of one instance."""
    return repr((node.counts, node.queues, node.pending_sync)).encode("ascii")


def solve_vch(x: AbstractExecution, cap: Mapping[str, float]) -> Verdict:
    """Decide VCh (value-based) consistency by frontier reachability."""
    for e in x.events:
        if e.value is None:
            raise ValueError(f"event {e.id} lacks a value (required for VCh)")
    return _search(x, cap, rf=None, order=None)


def solve_vchrf(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...],
) -> Verdict:
    """Decide VCh-rf consistency by frontier reachability."""
    bad = rf_defect(x, cap, rf)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    return _search(x, cap, rf=rf, order=None)


def solve_vch_saturated(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...] | None = None,
) -> Verdict:
    """Saturated VCh entry point.

    Saturation is defined over a reads-from relation; without one there is
    nothing to saturate, so this delegates to the plain solver (or to the
    saturated rf solver when rf is supplied).
    """
    if rf is not None:
        return solve_vchrf_saturated(x, cap, rf)
    return solve_vch(x, cap)


def solve_vchrf_saturated(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...],
) -> Verdict:
    """VCh-rf with saturation: early cycle rejection, then pruned search."""
    bad = rf_defect(x, cap, rf)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    order = saturate(x, cap, rf)
    if order.cyclic:
        return Verdict(INCONSISTENT, explored=0, reason="saturation cycle")
    return _search(x, cap, rf=rf, order=order)


def _search(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...] | None,
    order: SaturatedOrder | None,
) -> Verdict:
    threads = x.threads
    t = len(threads)
    seqs = [[x.by_id[i] for i in x.po[th]] for th in threads]
    lens = [len(s) for s in seqs]
    rf_of = {r: s for s, r in rf} if rf is not None else None
    by_id = x.by_id

    async_chs = tuple(sorted({e.channel for e in x.events if cap[e.channel] > 0}))
    ch_index = {ch: i for i, ch in enumerate(async_chs)}

    # State: (counts tuple, queues tuple-of-tuples aligned with async_chs,
    # pending sync send id or None).
    source = (tuple([0] * t), tuple(() for _ in async_chs), None)
    source_key = repr(source).encode("ascii")
    visited = {source_key}
    parents: dict[bytes, tuple[bytes, int] | None] = {source_key: None}
    stack = [(source, source_key)]

    def matches(snd: Event, rcv: Event) -> bool:
        if rf_of is not None:
            return rf_of.get(rcv.id) == snd.id
        return snd.value == rcv.value

    while stack:
        (counts, queues, pending), key = stack.pop()
        if pending is None and all(counts[i] == lens[i] for i in range(t)):
            trace: list[int] = []
            cur = parents[key]
            while cur is not None:
                pkey, eid = cur
                trace.append(eid)
                cur = parents[pkey]
            trace.reverse()
            return Verdict(CONSISTENT, witness=tuple(trace), explored=len(visited))

        children: list[tuple[tuple, bytes, int]] = []
        for ti in range(t):
            if counts[ti] >= lens[ti]:
                continue
            e = seqs[ti][counts[ti]]
            if order is not None and not ready(e.id, counts, order):
                continue
            c = cap[e.channel]
            if pending is not None:
                pe = by_id[pending]
                if (
                    e.op != RCV
                    or e.channel != pe.channel
                    or e.thread == pe.thread
                    or not matches(pe, e)
                ):
                    continue
                nxt = (_bump(counts, ti), queues, None)
            elif c == 0:
                if e.op != SND:
                    continue
                nxt = (_bump(counts, ti), queues, e.id)
            elif e.op == SND:
                qi = ch_index[e.channel]
                q = queues[qi]
                if c != INF and len(q) >= c:
                    continue
                nxt = (_bump(counts, ti), _replace(queues, qi, q + (e.id,)), None)
            else:
                qi = ch_index[e.channel]
                q = queues[qi]
                if not q or not matches(by_id[q[0]], e):
                    continue
                nxt = (_bump(counts, ti), _replace(queues, qi, q[1:]), None)
            nkey = repr(nxt).encode("ascii")
            if nkey not in visited:
                visited.add(nkey)
                parents[nkey] = (key, e.id)
                children.append((nxt, nkey, e.id))
        # Push in reverse so the lowest thread token is expanded first.
        for child in reversed(children):
            stack.append((child[0], child[1]))

    return Verdict(INCONSISTENT, explored=len(visited))


def _bump(counts: tuple[int, ...], ti: int) -> tuple[int, ...]:
    return counts[:ti] + (counts[ti] + 1,) + counts[ti + 1 :]


def _replace(
    queues: tuple[tuple[int, ...], ...], qi: int, q: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    return queues[:qi] + (q,) + queues[qi + 1 :]
