"""Exhaustive backtracking oracle for small instances.

Enumerates program-order-respecting interleavings with incremental
well-formedness (and reads-from) checking.  Deliberately independent of the
frontier solver: a depth-first search over moves with an explicit stack and
no state deduplication, so it can serve as ground truth in equivalence suites
and takes histories of any length without deep recursion.
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
    Event,
    Instance,
    Verdict,
)

DEFAULT_BOUND = 12


class BoundExceeded(Exception):
    """The instance is larger than the configured oracle bound."""


def brute_force(
    x: Instance,
    cap: Mapping[str, float],
    rf: tuple[tuple[int, int], ...] | None = None,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    """Decide consistency by exhaustive search.

    Only the events and program order of ``x``, an :class:`Instance`, are read;
    ``cap`` and ``rf`` are given apart, so the oracle can also judge an rf that
    building an instance rejects.  With ``rf`` given, receives fire only
    against their mapped send, and a receive named in two pairs is
    inconsistent; without it, all events must carry values and receives match
    the front value.
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

    def matches(snd: Event, rcv: Event) -> bool:
        if rf_of is not None:
            return rf_of.get(rcv.id) == snd.id
        return snd.value == rcv.value

    # Depth-first over moves.  Each frame records one move: the pending
    # synchronous send before it, its thread, and the queue it appended to
    # (front None) or dequeued ``front`` from (None when synchronous).
    frames: list[tuple[Event | None, int, list[Event] | None, Event | None]] = []
    pending: Event | None = None
    ti = 0  # the next thread to try in the current state
    explored = 1
    while True:
        if len(witness) == n and pending is None:
            return Verdict(CONSISTENT, witness=tuple(witness), explored=explored)
        for ti in range(ti, len(seqs)):
            seq = seqs[ti]
            if counts[ti] >= len(seq):
                continue
            e = seq[counts[ti]]
            c = cap[e.channel]
            q, front, nxt = None, None, None
            if pending is not None:
                if (
                    e.op != RCV
                    or e.channel != pending.channel
                    or e.thread == pending.thread
                    or not matches(pending, e)
                ):
                    continue
            elif c == 0:
                if e.op != SND:
                    continue
                nxt = e
            elif e.op == SND:
                q = queues[e.channel]
                if c != INF and len(q) >= c:
                    continue
                q.append(e)
            else:
                q = queues[e.channel]
                if not q or not matches(q[0], e):
                    continue
                front = q.pop(0)
            frames.append((pending, ti, q, front))
            counts[ti] += 1
            witness.append(e.id)
            pending, ti = nxt, 0
            explored += 1
            break
        else:  # no move left here: undo the move that led to this state
            if not frames:
                return Verdict(INCONSISTENT, explored=explored)
            pending, ti, q, front = frames.pop()
            counts[ti] -= 1
            witness.pop()
            if front is not None:
                q.insert(0, front)
            elif q is not None:
                q.pop()
            ti += 1
