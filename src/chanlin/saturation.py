"""Saturated-order construction for instances with a reads-from relation.

The saturated order is the least transitive relation containing program order
and reads-from that is closed under four channel rules:

1. matched sends on a channel are ordered iff their receives are;
2. matched sends precede unmatched sends on the same channel;
3. on a synchronous channel a matched pair behaves as one event: anything
   ordered against the receive is equally ordered against the send and vice
   versa (a rendezvous);
4. on a capacity-1 channel, a matched send preceding another send forces its
   receive to precede that send too.

Rules 1 and 4 fire on the earliest partner per thread only: popping an event
derives an ordering only towards the first matched send (rule 1), the first
send on a capacity-1 channel (rule 4) or the first matched receive (rule 1
backward) that it precedes in each thread.  Nothing is lost.  If s2 ≺po s2'
are matched sends of the channel in one thread, popping s2 derives
r2 ≺ r2', so by induction on po distance r1 ≺ r2 reaches every later partner
in that thread; rule 4's later sends follow s2 in po, and rule 1 backward runs
the same chain over receives.  The least fixpoint is unchanged.

Rules 2 and 3 give static edges.  Rule 2 links only the t² pairs per channel
of :func:`~chanlin.core.pending_edges`; po orders every other matched send
before every unmatched one through them, so the fixpoint is unchanged.  Rule 3
moves each po or rule 2 edge u → v to start at u's receive when u is a
synchronous send and to end at v's send when v is a synchronous receive; with
those pairs' rf edges the moved edge implies u → v.  A pair's own s → r stays.
Derived edges need no moving (see :func:`saturate`).

A cycle in the saturated order certifies inconsistency; otherwise every
concretization must respect the order, which licenses aggressive pruning of
the frontier search.

Representation: events are numbered by their position in the instance's
``events``, which are in dense order (thread token, then po position), and
for every event ``e`` and thread ``τ`` we keep the minimal program-order
position in ``τ`` of any known successor of ``e``.  Because the order is
transitive and contains po, successor sets are upward closed along each
thread, so the minimum is exact and ordering queries are O(1).

The worklist pops in reverse topological order of the static edges, so
successor knowledge flows back along a causal chain in one sweep: a token ring
saturates in linear time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import pairwise

from .core import RCV, SND, Instance, classify_channels, pending_edges


@dataclass
class SaturatedOrder:
    """Result of :func:`saturate`, over the instance's dense index and the
    thread numbering of its ``threads``.

    ``cyclic`` signals that some event is ordered before itself.
    ``succ[i][ti]`` is the least po position in thread ``ti`` of a successor
    of the event with dense index ``i``, or a position past the thread's end.
    When acyclic, ``pred_counts[i]`` gives, for that event, the per-thread
    number of events that must precede it.
    """

    cyclic: bool
    succ: list[list[int]] = field(repr=False, default_factory=list)
    pred_counts: list[tuple[int, ...]] = field(repr=False, default_factory=list)


def saturate(inst: Instance) -> SaturatedOrder:
    """Compute the least fixpoint of the four saturation rules.

    Worklist algorithm over direct-edge adjacency: popping an event flows its
    ordering knowledge backward into its direct predecessors, and rule 1 and 4
    triggers add a direct edge to the earliest partner per thread unless the
    ordering is already known.  Aborts as soon as a cycle appears.

    Rule 3 is applied to the static edges only; the fixpoint R of the other
    rules is then closed under it.  For a synchronous pair (s, r), induction
    on the derivation of a ≺ b in R shows (i) a = s, b ≠ r ⇒ r ≺ b and
    (ii) b = r, a ≠ s ⇒ a ≺ s; the other two directions follow from s ≺ r.
    No static edge but s → r itself leaves s or enters r, and a transitive
    step a ≺ b ≺ c inherits (i) from a ≺ b and (ii) from b ≺ c.
    A derived rule 1 edge r1 → r2 into a synchronous receive comes from
    s1 ≺ s2 between synchronous sends, which by (i) gives r1 ≺ s2; a rule 1
    backward edge s1 → s2 out of a synchronous send comes from r1 ≺ r2, which
    by (ii) gives r1 ≺ s2; a rule 4 edge runs from a receive to a send.

    The worklist is seeded in Kahn order over the static edges, so the LIFO
    pops sinks first; if Kahn cannot order every event, the saturated order
    is cyclic.  The order cannot change the result: the rules are monotone
    (they only lower ``succ`` entries) and an event is pushed again whenever
    an entry it reads is lowered, a chaotic iteration that reaches the same
    least fixpoint under any fair order.  Cost: the m static edges are
    O(n + t²·channels) (po, rf and rule 2 pairs, each moved at most once by
    rule 3); the first sweep pulls each event's direct successors' rows after
    they were computed, O(t·(n + m) + t²·n·log n); an event pops again only
    when a derived edge lowers a row it read, so the worst case stays
    O(t·n³), while a token ring (nothing derived) pops each event once.
    """
    cap, mate = inst.cap_map, inst.mate
    t = len(inst.threads)
    n = inst.n
    events, thr_of, pos_of, start = inst.events, inst.thr_of, inst.pos_of, inst.start

    eff_cap = classify_channels(inst)
    ch_of = [e.channel for e in events]
    succ: list[list[int]] = [[n + 1] * t for _ in range(n)]  # n + 1: past any po position
    # rf edges first: every matched receive's list starts with its send.
    preds: list[list[int]] = [[m] if m >= 0 and e.op == RCV else [] for e, m in zip(events, mate)]

    def link(u: int, v: int) -> None:
        """Add the static edge u → v, moved by rule 3 to start at u's receive
        and to end at v's send when those are synchronous pairs' other ends."""
        if mate[u] != v:  # a one-thread rendezvous s → r is no cycle
            if mate[u] >= 0 and events[u].op == SND and cap[ch_of[u]] == 0:
                u = mate[u]
            if mate[v] >= 0 and events[v].op == RCV and cap[ch_of[v]] == 0:
                v = mate[v]
        preds[v].append(u)

    # Program order: immediate successor edges seed both succ and preds.
    for a in range(n - 1):
        if thr_of[a] == thr_of[a + 1]:
            succ[a][thr_of[a]] = pos_of[a] + 1
            link(a, a + 1)

    # Rule 2: matched sends precede unmatched sends, one edge per thread pair.
    for m, u in pending_edges(inst):
        link(m, u)

    # Partner tables: per channel and thread, the sorted po positions of the
    # matched sends, of the matched receives and, on capacity-1 channels, of
    # all sends.  The event at position p of thread ti has index start[ti] + p.
    def positions(idxs) -> dict[str, list[list[int]]]:
        tab: dict[str, list[list[int]]] = {}
        for i in idxs:  # dense order, so each list comes out sorted
            tab.setdefault(ch_of[i], [[] for _ in range(t)])[thr_of[i]].append(pos_of[i])
        return tab

    snds = [i for i, e in enumerate(events) if e.op == SND]
    snd_tab = positions(i for i in snds if mate[i] >= 0)
    rcv_tab = positions(i for i, e in enumerate(events) if e.op == RCV and mate[i] >= 0)
    cap1_tab = positions(i for i in snds if eff_cap[ch_of[i]] == 1)

    # Kahn order over the static edges, sinks first; an event left out lies
    # on a cycle of static edges.
    outdeg = [0] * n
    for ps in preds:
        for p in ps:
            outdeg[p] += 1
    work = [a for a in range(n) if not outdeg[a]]
    for a in work:  # the loop also visits the events appended below
        for p in preds[a]:
            outdeg[p] -= 1
            if not outdeg[p]:
                work.append(p)
    cyclic = len(work) < n
    work.reverse()  # the LIFO pops sinks first
    in_list = [True] * n

    def flow(p: int, a: int) -> bool:
        """Record p ≺ a and pull a's successor knowledge into p; requeue p if
        that lowered its row.  Returns whether p now precedes itself."""
        nonlocal cyclic
        changed = False
        sp, sa = succ[p], succ[a]
        for ti in range(t):
            v = sa[ti]
            if v < sp[ti]:
                sp[ti] = v
                changed = True
        ta, pa = thr_of[a], pos_of[a]
        if pa < sp[ta]:
            sp[ta] = pa
            changed = True
        if sp[thr_of[p]] <= pos_of[p]:
            cyclic = True
        elif changed and not in_list[p]:
            in_list[p] = True
            work.append(p)
        return cyclic

    def derive(u: int, v: int) -> None:
        """Record a derived u ≺ v as a direct edge, unless already known."""
        if not cyclic and succ[u][thr_of[v]] > pos_of[v]:
            preds[v].append(u)
            flow(u, v)

    def partners(a: int, tab: list[list[int]]):
        """Per thread, the earliest event of ``tab`` that ``a`` precedes."""
        sa = succ[a]
        for ti, ps in enumerate(tab):
            k = bisect_left(ps, sa[ti])
            if k < len(ps):
                yield start[ti] + ps[k]

    while work and not cyclic:
        a = work.pop()
        in_list[a] = False
        ch = ch_of[a]
        # Rules 1 and 4, on the earliest partner per thread only.
        m = mate[a]
        if m >= 0 and events[a].op == SND:  # a = s1 and m = r1
            for s2 in partners(a, snd_tab[ch]):
                derive(m, mate[s2])
            for s2 in partners(a, cap1_tab.get(ch, ())):
                derive(m, s2)
        elif m >= 0:  # a = r1 and m = s1
            for r2 in partners(a, rcv_tab[ch]):
                derive(m, mate[r2])
        if cyclic:
            break
        # Transitive backward propagation to direct predecessors.
        for p in preds[a]:
            if flow(p, a):
                break

    order = SaturatedOrder(cyclic, succ)
    if not cyclic:
        order.pred_counts = _pred_counts(inst, succ)
    return order


def _pred_counts(inst: Instance, succ: list[list[int]]) -> list[tuple[int, ...]]:
    """For each event, the per-thread count of saturated predecessors.

    Along a thread, minimal-successor indices are monotone, so for a target
    thread the set of source-thread events preceding position ``q`` is a
    prefix; a two-pointer sweep per thread pair computes all thresholds.
    """
    t = len(inst.threads)
    seqs = [range(a, b) for a, b in pairwise(inst.start)]
    counts: list[list[int]] = [[0] * t for _ in range(inst.n)]
    for target_ti in range(t):
        tgt = seqs[target_ti]
        for src_ti in range(t):
            src = seqs[src_ti]
            j = 0
            for qpos, ei in enumerate(tgt):
                while j < len(src) and succ[src[j]][target_ti] <= qpos:
                    j += 1
                counts[ei][src_ti] = j
    return [tuple(row) for row in counts]
