"""Exhaustive backtracking oracle for small instances.

Enumerates program-order-respecting interleavings with incremental
well-formedness (and reads-from) checking.  Deliberately independent of the
frontier solver: plain recursion, no state deduplication, so it can serve as
ground truth in equivalence suites.
"""

from __future__ import annotations

from itertools import pairwise
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
)

DEFAULT_BOUND = 12


class BoundExceeded(Exception):
    """The instance is larger than the configured oracle bound."""


def brute_force(
    x: AbstractExecution,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...] | None = None,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    """Decide consistency by exhaustive search.

    With ``rf`` given, receives fire only against their mapped send, and a
    receive named in two pairs is inconsistent; without it, all events must
    carry values and receives match the front value.
    Threads are tried in ascending token order, so the returned witness is the
    lexicographically first by thread token.
    """
    if x.n > bound:
        raise BoundExceeded(f"instance has {x.n} events, oracle bound is {bound}")
    seqs = [x.events[a:b] for a, b in pairwise(x.start)]
    if rf is None:
        for e in x.events:
            if e.value is None:
                raise ValueError(f"event {e.id} lacks a value (required without rf)")
    rf_of = {r: s for s, r in rf} if rf is not None else None
    if rf_of is not None and len(rf_of) < len(rf):
        # A receive named in two pairs: a trace gives each receive one source.
        return Verdict(INCONSISTENT, explored=0)

    counts = [0] * len(seqs)
    queues: dict[str, list[Event]] = {e.channel: [] for e in x.events}
    n = x.n
    witness: list[int] = []
    explored = 0

    def matches(snd: Event, rcv: Event) -> bool:
        if rf_of is not None:
            return rf_of.get(rcv.id) == snd.id
        return snd.value == rcv.value

    def step(done: int, pending: Event | None) -> bool:
        nonlocal explored
        explored += 1
        if done == n:
            return pending is None
        for ti, seq in enumerate(seqs):
            if counts[ti] >= len(seq):
                continue
            e = seq[counts[ti]]
            c = cap[e.channel]
            if pending is not None:
                if (
                    e.op != RCV
                    or e.channel != pending.channel
                    or e.thread == pending.thread
                    or not matches(pending, e)
                ):
                    continue
                counts[ti] += 1
                witness.append(e.id)
                if step(done + 1, None):
                    return True
                witness.pop()
                counts[ti] -= 1
            elif c == 0:
                if e.op != SND:
                    continue
                counts[ti] += 1
                witness.append(e.id)
                if step(done + 1, e):
                    return True
                witness.pop()
                counts[ti] -= 1
            elif e.op == SND:
                q = queues[e.channel]
                if c != INF and len(q) >= c:
                    continue
                q.append(e)
                counts[ti] += 1
                witness.append(e.id)
                if step(done + 1, None):
                    return True
                witness.pop()
                counts[ti] -= 1
                q.pop()
            else:
                q = queues[e.channel]
                if not q or not matches(q[0], e):
                    continue
                front = q.pop(0)
                counts[ti] += 1
                witness.append(e.id)
                if step(done + 1, None):
                    return True
                witness.pop()
                counts[ti] -= 1
                q.insert(0, front)
        return False

    if step(0, None):
        return Verdict(CONSISTENT, witness=tuple(witness), explored=explored)
    return Verdict(INCONSISTENT, explored=explored)
