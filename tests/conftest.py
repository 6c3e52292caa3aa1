"""Shared helpers: fixture paths, random instance builders, witness checks."""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import pairwise
from pathlib import Path

import pytest

from chanlin import (
    INF,
    Event,
    Instance,
    Ok,
    Verdict,
    check_well_formed,
    derive_abstract,
    make_instance,
    saturate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "instances"

CAP_MENU = (0.0, 1.0, 2.0, INF)


def rand_instance(
    rng: random.Random,
    with_rf: bool,
    n_max: int = 8,
    t_max: int = 3,
    caps: tuple[float, ...] = CAP_MENU,
) -> Instance:
    """An arbitrary (not necessarily consistent) small instance.

    Valued events when ``with_rf`` is false; valueless events plus a random
    injective reads-from otherwise.
    """
    t = rng.randint(1, t_max)
    m = rng.randint(1, 3)
    n = rng.randint(0, n_max)
    cap = {f"ch{i}": rng.choice(caps) for i in range(1, m + 1)}
    events = []
    for i in range(1, n + 1):
        events.append(
            Event(
                id=i,
                thread=f"t{rng.randint(1, t)}",
                op=rng.choice(["snd", "rcv"]),
                channel=f"ch{rng.randint(1, m)}",
                value=None if with_rf else str(rng.randint(1, 3)),
            )
        )
    rf = None
    if with_rf:
        snds: dict[str, list[int]] = defaultdict(list)
        rcvs: dict[str, list[int]] = defaultdict(list)
        for e in events:
            (snds if e.op == "snd" else rcvs)[e.channel].append(e.id)
        pairs = []
        for ch, ss in snds.items():
            ss = ss[:]
            rr = rcvs.get(ch, [])[:]
            rng.shuffle(ss)
            rng.shuffle(rr)
            for s, r in zip(ss, rr):
                if rng.random() < 0.9:
                    pairs.append((s, r))
        rf = tuple(sorted(pairs))
    return make_instance("abstract", events, cap, rf)


def token_ring(rounds: int, caps: tuple[float, ...], swap: int | None = None) -> Instance:
    """Thread i sends on channel i to thread i+1, one token going round.

    Consistent under every capacity.  With ``swap = j`` the first two messages
    on channel j trade receives (a FIFO swap: both sends share a thread and
    both receives share a thread), which is inconsistent for every capacity.
    """
    t = len(caps)
    events, rf = [], []
    for _ in range(rounds):
        for i in range(t):
            s = len(events) + 1
            events.append(Event(s, f"t{i}", "snd", f"c{i}"))
            events.append(Event(s + 1, f"t{(i + 1) % t}", "rcv", f"c{i}"))
            rf.append((s, s + 1))
    if swap is not None:
        (s1, r1), (s2, r2) = rf[swap], rf[t + swap]
        rf[swap], rf[t + swap] = (s1, r2), (s2, r1)
    cap = {f"c{i}": c for i, c in enumerate(caps)}
    return make_instance("abstract", events, cap, rf)


def reverse(inst: Instance) -> Instance:
    """The time reversal of a fully matched instance: each thread's program
    order reversed, every send made a receive and every receive a send, and
    each rf pair (s, r) turned into (r, s).  A witness read backward is a
    witness of the reverse (at each cut the pending messages are the same,
    and a FIFO channel's two ends reverse together), so the reverse is
    consistent iff the instance is.  With a pending send the reverse would
    need a channel that starts non-empty, so such instances are out of scope.
    """
    flip = {"snd": "rcv", "rcv": "snd"}
    events = [Event(e.id, e.thread, flip[e.op], e.channel) for e in reversed(inst.events)]
    return make_instance("abstract", events, inst.cap_map, [(r, s) for s, r in inst.rf])


def fully_matched(inst: Instance) -> bool:
    """Whether every event has an rf partner, so that ``reverse`` applies."""
    return all(m >= 0 for m in inst.mate)


def assert_reverses_to_converse(inst: Instance) -> bool:
    """The saturated order of ``reverse(inst)`` is exactly the converse of
    ``inst``'s; returns whether it is cyclic.

    The saturation rules map onto their mirrors: rule 1 forward and backward
    swap, rule 4's mirror is rule 1 backward then rule 4, rule 3 is symmetric
    and rule 2 has no pending send to act on.  Compared through the per-thread
    counts: the successors of an event in a thread are a po suffix, and in the
    reverse they must be exactly the prefix of that thread that precedes it.
    """
    rev = reverse(inst)
    order, rorder = saturate(inst), saturate(rev)
    assert order.cyclic == rorder.cyclic
    if not order.cyclic:
        rthread = [rev.threads.index(th) for th in inst.threads]
        for e, row in zip(inst.events, order.succ):
            preds = rorder.pred_counts[rev.index[e.id]]
            for ti, (a, b) in enumerate(pairwise(inst.start)):
                assert preds[rthread[ti]] == b - a - min(row[ti], b - a), (e.id, ti)
    return order.cyclic


def rendezvous_count(inst: Instance) -> int:
    """The number of rf pairs on synchronous channels: each is one search move."""
    cap = inst.cap_map
    return sum(cap[inst.events[inst.index[s]].channel] == 0 for s, _ in inst.rf)


def po(x) -> dict[str, tuple[int, ...]]:
    """Each thread's event ids in program order: its slice of the dense events."""
    return {
        th: tuple(e.id for e in x.events[a:b])
        for th, a, b in zip(x.threads, x.start, x.start[1:])
    }


def assert_valid_witness(inst: Instance, verdict: Verdict) -> None:
    """The witness must be a po-respecting well-formed trace matching rf."""
    assert verdict.consistent and verdict.witness is not None
    assert sorted(verdict.witness) == sorted(e.id for e in inst.events)
    trace = [inst.events[inst.index[i]] for i in verdict.witness]
    seen: dict[str, list[int]] = defaultdict(list)
    for e in trace:
        seen[e.thread].append(e.id)
    for th, seq in po(inst).items():
        assert tuple(seen[th]) == seq, f"program order broken in thread {th}"
    assert isinstance(check_well_formed(trace, inst.cap_map, inst.rf), Ok)
    if inst.rf is not None:
        assert derive_abstract(trace, inst.cap_map).rf == inst.rf


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES
