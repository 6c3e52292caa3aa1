"""Frontier-graph decision procedures for VCh and VCh-rf.

A frontier state summarizes a po-downward-closed set of executed events as a
plain tuple ``(counts, queues, pending)``: per-thread counters, the pending
(sent, not yet received) contents of every asynchronous channel as FIFO
queues of the sends' dense indices, and the thread whose last executed event
is a pending synchronous send, or None; given ``counts``, that thread names
the send.  The instance is consistent iff a sink state (all events executed,
no pending synchronous send) is reachable from the empty source state.

Depth-first search expands states on the fly.  It keeps one ``seen`` set, a
stack of ``(state, event)`` pairs and one ``path`` list, which is the witness.
Children are marked seen when pushed, and pushed in reverse thread order.
Every state popped between X's parent and X is a sibling pushed after X, or a
descendant of one, so its depth is at least X's depth d = ``sum(counts)``
(each move executes one event).  So setting ``path[d - 1]`` to X's event when
X is popped keeps ``path[:d]`` the chain of events from the source to X.

Safe receives (rf mode only).  In a state with no pending synchronous send,
if some thread's next event is an enabled, saturation-ready receive on an
asynchronous channel, only that receive is expanded: the first such one in
thread order.  This is a persistent-set reduction (Godefroid, *Partial-Order
Methods for the Verification of Concurrent Systems*, 1996), and it is sound:

1. rf is injective (:attr:`~chanlin.core.Instance.mate` checks it before
   any search), so the channel's front, the receive's own rf source, can be
   taken by no other receive.  No path from the state fires another receive
   on that channel before this one.
2. Sends only append to a channel, and the receive only frees capacity, so
   every other event of such a path stays enabled with the receive moved
   first, and the path ends with the same queues.  The receive never sits
   between a synchronous send and its receive, so no rendezvous is split.
3. Saturated readiness is monotone in ``counts``, so the moved events stay
   ready.
4. Every step raises the sum of ``counts``, so the state graph is acyclic and
   needs no cycle proviso.

So any path to a sink can be reordered to start with that receive.  Value
mode (:func:`solve_vch`) keeps full expansion: there a receive may match
several sends.

Ready asynchronous receives.  With saturation, sends and synchronous receives
are tested against their ``pred_counts`` rows, but an enabled receive r on an
asynchronous channel is not: it is always ready.  It is taken only when no
rendezvous is pending, and every move before it was ready, so the executed
set is downward closed in the saturated order.  By induction over the
derivation of x ≺ r, every such x is executed:

* po and rf predecessors of r are executed (rf(r) is at the channel front);
* rule 1 gives r' ≺ r from s' ≺ s = rf(r); s' was executed before s, so it
  entered the FIFO channel first and r' dequeued it before s reached the front;
* a rule 3 edge into r starts at the receive of r's po predecessor, a
  synchronous send; with no rendezvous pending, both are executed;
* rules 2 and 4 and rule 1 backward order events only before sends, and a
  step x ≺ y ≺ r passes through an executed y, and the executed set is closed.
"""

from __future__ import annotations

from itertools import pairwise
from operator import ge

from .core import CONSISTENT, INCONSISTENT, SND, Instance, Verdict, rf_defect
from .saturation import SaturatedOrder, saturate


def solve_vch(inst: Instance) -> Verdict:
    """Decide VCh (value-based) consistency by frontier reachability; the
    instance's rf, if any, is ignored."""
    for e in inst.events:
        if e.value is None:
            raise ValueError(f"event {e.id} lacks a value (required for VCh)")
    return _search(inst, by_rf=False, order=None)


def solve_vchrf(inst: Instance) -> Verdict:
    """Decide VCh-rf consistency by frontier reachability."""
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    return _search(inst, by_rf=True, order=None)


def solve_vchrf_saturated(inst: Instance) -> Verdict:
    """VCh-rf with saturation: early cycle rejection, then pruned search."""
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    order = saturate(inst)
    if order.cyclic:
        return Verdict(INCONSISTENT, explored=0, reason="saturation cycle")
    return _search(inst, by_rf=True, order=order)


def _search(inst: Instance, by_rf: bool, order: SaturatedOrder | None) -> Verdict:
    cap, events = inst.cap_map, inst.events
    t = len(inst.threads)
    async_chs = sorted({e.channel for e in events if cap[e.channel] > 0})
    ch_index = {ch: i for i, ch in enumerate(async_chs)}

    # Queues hold the dense index of each send.  A receive matches a front (or
    # pending) send iff both carry one tag: the send's index and the receive's
    # rf partner under rf, their values otherwise.
    if by_rf:
        mate = inst.mate
        tag = [i if e.op == SND else mate[i] for i, e in enumerate(events)]
    else:
        tag = [e.value for e in events]

    # Per thread position: (dense index, is send, channel, queue slot or -1
    # when synchronous, capacity, tag, saturated predecessor counts or None
    # when the step needs no readiness test).
    steps = [
        [
            (
                i,
                e.op == SND,
                e.channel,
                ch_index.get(e.channel, -1),
                cap[e.channel],
                tag[i],
                order.pred_counts[i]
                if order is not None and (e.op == SND or cap[e.channel] == 0)
                else None,
            )
            for i, e in enumerate(events[a:b], a)
        ]
        for a, b in pairwise(inst.start)
    ]
    lens = tuple(len(s) for s in steps)

    source = ((0,) * t, ((),) * len(async_chs), None)
    seen = {source}
    stack: list[tuple[tuple, int]] = [(source, 0)]
    path = [0] * sum(lens)
    while stack:
        (counts, queues, pending), event = stack.pop()
        d = sum(counts)
        if d:
            path[d - 1] = event
        if pending is None and counts == lens:
            witness = tuple(events[i].id for i in path)
            return Verdict(CONSISTENT, witness=witness, explored=len(seen))
        if pending is not None:
            _, _, pch, _, _, ptag, _ = steps[pending][counts[pending] - 1]

        children: list[tuple[tuple, int]] = []
        for ti in range(t):
            k = counts[ti]
            if k == lens[ti]:
                continue
            i, snd, ch, qi, c, w, need = steps[ti][k]
            if pending is not None:
                if snd or ch != pch or ti == pending or w != ptag:
                    continue
                nq, np = queues, None
            elif qi < 0:
                if not snd:
                    continue
                nq, np = queues, ti
            elif snd:
                q = queues[qi]
                if len(q) >= c:
                    continue
                nq, np = queues[:qi] + (q + (i,),) + queues[qi + 1 :], None
            else:
                q = queues[qi]
                if not q or tag[q[0]] != w:
                    continue
                nq, np = queues[:qi] + (q[1:],) + queues[qi + 1 :], None
            if need is not None and not all(map(ge, counts, need)):
                continue
            child = (counts[:ti] + (k + 1,) + counts[ti + 1 :], nq, np)
            if by_rf and pending is None and not snd:
                children = [(child, i)]
                break
            children.append((child, i))
        # Push in reverse so the lowest thread token is expanded first.
        for pair in reversed(children):
            if pair[0] not in seen:
                seen.add(pair[0])
                stack.append(pair)

    return Verdict(INCONSISTENT, explored=len(seen))
