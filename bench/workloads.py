"""Seeded workloads for the check benchmark.

A workload is a list of :class:`Case` objects.  Each case holds its instance
as plain data (events, capacities, reads-from), the `.vchk` text chanlin will
read, and the exit code a correct checker must return.  Every expected answer
comes from the construction or from brute force in this file, never from
chanlin's solvers:

* 3SAT formulas: :func:`satisfiable` enumerates all assignments.
* Rings, pipelines and ``random_positive`` instances: consistent, because
  each is abstracted from a well-formed trace, which is kept in
  ``Case.trace`` and replayed by the benchmark before any check runs.
* FIFO-swap twins: inconsistent by the argument in :func:`fifo_swap`.

Generation goes through chanlin's own constructors (``from_3sat_t3_m5``,
``random_positive``, ``make_instance``, ``serialize_instance``), because the
time to build and write a corpus is the ``setup_s`` metric.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from chanlin.core import INF, Event, make_instance, serialize_instance
from chanlin.generators import CnfFormula, from_3sat_t3_m5, random_positive

CONSISTENT, INCONSISTENT = 0, 1


@dataclass
class Case:
    """One instance file of a workload and its known answer."""

    name: str
    events: list[tuple[int, str, str, str]]  # (id, thread, op, channel); po per thread
    cap: dict[str, float]
    rf: list[tuple[int, int]]
    expect: int  # CONSISTENT or INCONSISTENT
    text: str = ""
    trace: list[int] | None = field(default=None, repr=False)  # construction trace

    @property
    def n(self) -> int:
        return len(self.events)


def _case(name, events, cap, rf, expect, trace=None) -> Case:
    """Build a case and serialize it through chanlin's own instance layer."""
    inst = make_instance(
        "abstract", [Event(i, th, op, ch) for i, th, op, ch in events], cap, rf
    )
    return Case(name, events, cap, rf, expect, serialize_instance(inst), trace)


def _from_instance(name, inst, expect, trace=None) -> Case:
    """Case from a chanlin ``Instance``; values are dropped, rf decides matching."""
    events = [(e.id, e.thread, e.op, e.channel) for e in inst.events]
    return _case(name, events, inst.cap_map, list(inst.rf), expect, trace)


def fifo_swap(events, rf, rng: random.Random):
    """Swap the rf partners of two messages s1 ≺po s2 on one channel whose sends
    share a thread and whose receives share a thread, across two threads when
    the instance has such a channel.

    The result is inconsistent for every capacity.  Both sends are in one
    thread, so s1 enters the channel before s2, and a FIFO channel (a rendezvous
    is one of capacity 0) delivers s1 first; both receives are in one thread,
    so the po-earlier receive r1 takes s1, and rf(s1) = r2 cannot be realized.
    """
    info = {i: (th, ch) for i, th, _, ch in events}
    pos, seen = {}, {}
    for i, th, _, _ in events:
        pos[i] = seen[th] = seen.get(th, -1) + 1
    by_key: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
    for s, r in sorted(rf, key=lambda p: pos[p[0]]):
        by_key.setdefault((info[s][1], info[s][0], info[r][0]), []).append((s, r))
    keys = sorted(k for k, pairs in by_key.items() if len(pairs) >= 2)
    if any(k[1] != k[2] for k in keys):
        keys = [k for k in keys if k[1] != k[2]]
    if not keys:
        return None
    pairs = by_key[rng.choice(keys)]
    k = rng.randrange(len(pairs) - 1)
    (s1, r1), (s2, r2) = pairs[k], pairs[k + 1]
    swapped = [p for p in rf if p not in ((s1, r1), (s2, r2))] + [(s1, r2), (s2, r1)]
    return sorted(swapped)


# ---------------------------------------------------------------------------
# sat3-search
# ---------------------------------------------------------------------------

_PATTERNS = [
    tuple(v if bit else -v for v, bit in zip((1, 2, 3), bits))
    for bits in itertools.product([0, 1], repeat=3)
]


def satisfiable(clauses) -> bool:
    """Brute force over all assignments of the formula's variables."""
    nv = max(abs(lit) for cl in clauses for lit in cl)
    for bits in itertools.product([False, True], repeat=nv):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses):
            return True
    return False


def sat3_search(seed: int) -> list[Case]:
    """All 92 distinct-variable 3CNF formulas over {x1,x2,x3} with one to three
    clauses, their clause order permuted by the seed, plus the 8-clause (all
    sign patterns) unsatisfiable formula.

    The unsatisfiable formula keeps one clause order: its search exhausts
    135-164 k states depending on the order, and above about 157 k the search's
    tables grow a step, which would make the workload's peak RSS follow the
    seed by a sixth.
    """
    rng = random.Random(seed)
    formulas = [
        tuple(rng.sample(combo, len(combo)))
        for size in (1, 2, 3)
        for combo in itertools.combinations(_PATTERNS, size)
    ]
    formulas.append(tuple(_PATTERNS))
    cases = []
    for i, clauses in enumerate(formulas):
        inst = from_3sat_t3_m5(CnfFormula(3, clauses))
        expect = CONSISTENT if satisfiable(clauses) else INCONSISTENT
        cases.append(_from_instance(f"f{i:03d}-{len(clauses)}cl", inst, expect))
    return cases


# ---------------------------------------------------------------------------
# ring-saturate
# ---------------------------------------------------------------------------

RING_SIZES = tuple(range(200, 505, 16))
# Saturation cost depends up to threefold on where each capacity sits in the
# ring.  Ring i takes rotation i mod 4 of order i // 4, so each block of four
# rings is a Latin square over the menu and the layouts do not depend on the
# seed; neither then do the timings.
RING_ORDERS = [(0.0, *rest) for rest in itertools.permutations((1.0, 2.0, INF))]


def token_ring(rounds: int, caps: list[float]):
    """Thread i sends on channel i to thread i+1, one token going round.

    Returns (events, cap, rf, trace): the trace lists the events in the order
    the token visits them, each send immediately followed by its receive, which
    is well formed under every capacity.
    """
    t = len(caps)
    events, rf = [], []
    for _ in range(rounds):
        for i in range(t):
            s = len(events) + 1
            events.append((s, f"t{i}", "snd", f"c{i}"))
            events.append((s + 1, f"t{(i + 1) % t}", "rcv", f"c{i}"))
            rf.append((s, s + 1))
    cap = {f"c{i}": c for i, c in enumerate(caps)}
    return events, cap, rf, [e[0] for e in events]


def ring_saturate(seed: int) -> list[Case]:
    """Four-thread token rings of 200-504 events over the capacity menu
    {0, 1, 2, inf}.  The seed picks one ring in each block of four to get a
    FIFO-swap twin, and the two messages the twin swaps."""
    rng = random.Random(seed)
    cases = []
    for i, size in enumerate(RING_SIZES):
        if i % 4 == 0:
            twin_at = i + rng.randrange(4)
        order = RING_ORDERS[(i // 4) % len(RING_ORDERS)]
        caps = list(order[i % 4 :] + order[: i % 4])
        events, cap, rf, trace = token_ring(size // 8, caps)
        cases.append(_case(f"ring{size}", events, cap, rf, CONSISTENT, trace))
        if i == twin_at:
            twin = fifo_swap(events, rf, rng)
            cases.append(_case(f"ring{size}-twin", events, cap, twin, INCONSISTENT))
    return cases


# ---------------------------------------------------------------------------
# pipeline-100k
# ---------------------------------------------------------------------------

PIPELINE_PAIRS = 50_000


def pipeline_100k(seed: int) -> list[Case]:
    """Three 100 000-event all-synchronous two-thread instances, one channel
    per handshake: the forward pipeline (t1 sends, t2 receives), a zigzag in
    which the direction alternates per handshake, and the forward pipeline's
    twin, whose t2 takes one late receive first.

    The twin is inconsistent: with k the moved pair, snd_0 ≺po snd_k, a
    rendezvous puts rcv_k right after snd_k, rcv_k ≺po rcv_0, and rcv_0 right
    after snd_0, which closes a cycle.  The seed picks k among the last 1 000
    pairs.
    """
    rng = random.Random(seed)
    cap = {f"s{i}": 0.0 for i in range(PIPELINE_PAIRS)}
    fwd, zig, rf = [], [], []
    for i, ch in enumerate(cap):
        s, r = 2 * i + 1, 2 * i + 2
        fwd += [(s, "t1", "snd", ch), (r, "t2", "rcv", ch)]
        a, b = ("t1", "t2") if i % 2 == 0 else ("t2", "t1")
        zig += [(s, a, "snd", ch), (r, b, "rcv", ch)]
        rf.append((s, r))
    trace = [e[0] for e in fwd]
    k = PIPELINE_PAIRS - 1 - rng.randrange(1000)
    moved = fwd[2 * k + 1]
    twin = [moved] + [e for e in fwd if e is not moved]
    return [
        _case("pipe-forward", fwd, cap, rf, CONSISTENT, trace),
        _case("pipe-zigzag", zig, cap, rf, CONSISTENT, trace),
        _case("pipe-twin", twin, cap, rf, INCONSISTENT),
    ]


# ---------------------------------------------------------------------------
# twothread-2sat
# ---------------------------------------------------------------------------

TWOTHREAD_SIZES = tuple(range(60, 253, 8))


def twothread_2sat(seed: int) -> list[Case]:
    """``random_positive(n, 2, 3, {0, 1, inf})`` for n = 60, 68, ..., 252; every
    fourth instance also gets a FIFO-swap twin across the two threads.

    Instances are redrawn until their three channels have one capacity each
    from the menu.  That keeps ``auto`` off the all-synchronous path, and
    keeps the 2SAT cost, which depends on the capacity mix, from following
    the seed.
    """
    rng = random.Random(seed)
    cases = []
    inst_seed = seed * 10_000
    for i, n in enumerate(TWOTHREAD_SIZES):
        while True:
            inst_seed += 1
            try:
                inst, trace = random_positive(n, 2, 3, [0.0, 1.0, INF], inst_seed)
            except ValueError:  # the random walk got stuck; draw again
                continue
            if sorted(inst.cap_map.values()) == [0.0, 1.0, INF]:
                break
        base = _from_instance(f"rp{n}", inst, CONSISTENT, trace=[e.id for e in trace])
        cases.append(base)
        if i % 4 == 0:
            twin = fifo_swap(base.events, base.rf, rng)
            if twin is not None:
                cases.append(_case(f"rp{n}-twin", base.events, base.cap, twin, INCONSISTENT))
    return cases


WORKLOADS = {
    "sat3-search": sat3_search,
    "ring-saturate": ring_saturate,
    "pipeline-100k": pipeline_100k,
    "twothread-2sat": twothread_2sat,
}
