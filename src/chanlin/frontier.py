"""Frontier-graph decision procedures for VCh and VCh-rf.

A frontier state summarizes a po-downward-closed set of executed events as a
plain tuple ``(counts, queues)``: per-thread counters and the messages sent
but not yet received on every asynchronous channel, as FIFO queues of the
sends' dense indices.  A move executes one event, or a rendezvous: a
synchronous send together with the next event of another thread when that is
a receive on the same channel with the same tag (its rf partner, or its value
in value mode).  A synchronous receive never moves alone.  The instance is
consistent iff the sink state (all events executed, ``counts == lens``) is
reachable from the empty source state.

Depth-first search expands states on the fly.  It keeps one ``seen`` set, a
stack of ``(state, moved)`` pairs, where ``moved`` holds the dense indices of
the one or two events of the move into the state, and one ``path`` list,
which is the witness.  Children are marked seen when pushed, and pushed in
reverse thread order.  A state's depth d = ``sum(counts)`` is its parent's
depth plus ``len(moved)``, and popping it writes ``moved`` at
``path[d - len(moved):d]``, so at or past its parent's depth.  Every state
popped between X's parent and X is a sibling pushed after X, or a descendant
of one, so it writes nothing before the depth of X's parent.  So
``path[:d]`` is the chain of events from the source to X when X is popped.

Safe receives (rf mode only).  If some thread's next event is an enabled
receive on an asynchronous channel, only that receive is expanded: the first
such one in thread order.  This is a persistent-set reduction (Godefroid,
*Partial-Order Methods for the Verification of Concurrent Systems*, 1996), and
it is sound:

1. rf is injective (:attr:`~chanlin.core.Instance.mate` checks it before
   any search), so the channel's front, the receive's own rf source, can be
   taken by no other receive.  No path from the state fires another receive
   on that channel before this one.
2. Sends only append to a channel, and the receive only frees capacity, so
   every other move of such a path stays enabled with the receive moved
   first, and the path ends with the same queues.
3. Saturated readiness is monotone in ``counts``, so the moved events stay
   ready.
4. Every move raises the sum of ``counts``, so the state graph is acyclic and
   needs no cycle proviso.

So any path to a sink can be reordered to start with that receive.  Value
mode (:func:`solve_vch`) keeps full expansion: there a receive may match
several sends.

Readiness.  With saturation, only sends are tested against their
``pred_counts`` rows.  A synchronous receive r needs no row: by rule 3 every
a ≺ r other than its send s also has a ≺ s (see
:func:`~chanlin.saturation.saturate`), and the rendezvous executes s with r.
An enabled receive r on an asynchronous channel is always ready.  Every move
before it was ready, so the executed set is downward closed in the saturated
order.  By induction over the derivation of x ≺ r, every such x is executed:

* po and rf predecessors of r are executed (rf(r) is at the channel front);
* rule 1 gives r' ≺ r from s' ≺ s = rf(r); s' was executed before s, so it
  entered the FIFO channel first and r' dequeued it before s reached the front;
* a rule 3 edge into r starts at the receive of r's po predecessor, a
  synchronous send, which moved together with its receive;
* rules 2 and 4 and rule 1 backward order events only before sends, and a
  step x ≺ y ≺ r passes through an executed y, and the executed set is closed.
"""

from __future__ import annotations

import sys
from itertools import pairwise
from operator import ge

from .core import CONSISTENT, INCONSISTENT, SND, AlgorithmRefused, Instance, Verdict, rf_defect
from .saturation import SaturatedOrder, saturate


def solve_vch(inst: Instance) -> Verdict:
    """Decide VCh (value-based) consistency by frontier reachability; the
    instance's rf, if any, is ignored."""
    for e in inst.events:
        if e.value is None:
            raise ValueError(f"event {e.id} lacks a value (required for VCh)")
    return _search(inst, by_rf=False, order=None)


def solve_vchrf(inst: Instance, max_states: int | None = None) -> Verdict:
    """Decide VCh-rf consistency by frontier reachability; ``max_states`` as
    in :func:`_search`."""
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    return _search(inst, by_rf=True, order=None, max_states=max_states)


def solve_vchrf_saturated(inst: Instance, max_states: int | None = None) -> Verdict:
    """VCh-rf with saturation: early cycle rejection, then pruned search;
    ``max_states`` as in :func:`_search`."""
    bad = rf_defect(inst)
    if bad is not None:
        return Verdict(INCONSISTENT, reason=bad)
    order = saturate(inst)
    if order.cyclic:
        return Verdict(INCONSISTENT, explored=0, reason="saturation cycle")
    return _search(inst, by_rf=True, order=order, max_states=max_states)


def _search(
    inst: Instance, by_rf: bool, order: SaturatedOrder | None, max_states: int | None = None
) -> Verdict:
    """Search from the source state for the sink.  With a ``max_states``
    budget, the first pop of a non-sink state after more than that many
    states were seen raises :class:`~chanlin.core.AlgorithmRefused`, so a
    verdict is never read from an unfinished search; a search that exhausts
    its space within the budget is still a sound inconsistent verdict."""
    budget = sys.maxsize if max_states is None else max_states
    cap, events = inst.cap_map, inst.events
    t = len(inst.threads)
    async_chs = sorted({e.channel for e in events if cap[e.channel] > 0})
    ch_index = {ch: i for i, ch in enumerate(async_chs)}

    # Queues hold the dense index of each send.  A receive matches a send iff
    # both carry one tag: the send's index and the receive's rf partner under
    # rf, their values otherwise.
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
                order.pred_counts[i] if order is not None and e.op == SND else None,
            )
            for i, e in enumerate(events[a:b], a)
        ]
        for a, b in pairwise(inst.start)
    ]
    lens = tuple(len(s) for s in steps)

    source = ((0,) * t, ((),) * len(async_chs))
    seen = {source}
    stack: list[tuple[tuple, tuple[int, ...]]] = [(source, ())]
    path = [0] * sum(lens)
    while stack:
        (counts, queues), moved = stack.pop()
        d = sum(counts)
        path[d - len(moved) : d] = moved
        if counts == lens:
            witness = tuple(events[i].id for i in path)
            return Verdict(CONSISTENT, witness=witness, explored=len(seen))
        if len(seen) > budget:
            raise AlgorithmRefused(f"search passed its budget of {max_states} states")

        children: list[tuple[tuple, tuple[int, ...]]] = []
        for ti in range(t):
            k = counts[ti]
            if k == lens[ti]:
                continue
            i, snd, ch, qi, c, w, need = steps[ti][k]
            if need is not None and not all(map(ge, counts, need)):
                continue
            if qi < 0:
                if not snd:
                    continue  # a synchronous receive moves with its send
                # A rendezvous: the send moves together with the next event of
                # another thread when that is a receive on its channel with its
                # tag (the thread's own next event is the send itself).
                for tj, kj in enumerate(counts):
                    if kj < lens[tj]:
                        j, jsnd, jch, _, _, jw, _ = steps[tj][kj]
                        if not jsnd and jch == ch and jw == w:
                            nc = list(counts)
                            nc[ti] += 1
                            nc[tj] += 1
                            children.append(((tuple(nc), queues), (i, j)))
                continue
            q = queues[qi]
            if snd:
                if len(q) >= c:
                    continue
                nq = queues[:qi] + (q + (i,),) + queues[qi + 1 :]
            else:
                if not q or tag[q[0]] != w:
                    continue
                nq = queues[:qi] + (q[1:],) + queues[qi + 1 :]
            child = ((counts[:ti] + (k + 1,) + counts[ti + 1 :], nq), (i,))
            if by_rf and not snd:
                children = [child]
                break
            children.append(child)
        # Push in reverse so the lowest thread token is expanded first.
        for pair in reversed(children):
            if pair[0] not in seen:
                seen.add(pair[0])
                stack.append(pair)

    return Verdict(INCONSISTENT, explored=len(seen))
