"""Independent witness replay.

Reads instance and witness files with its own minimal parser and replays a
witness against the instance it claims to linearize.  It shares no code with
chanlin: it calls neither ``check_well_formed`` nor ``derive_abstract``, so a
defect there cannot hide a bad witness.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Spec:
    """An instance as the benchmark reads it."""

    attrs: dict[int, tuple[str, str, str]] = field(default_factory=dict)  # (thread, op, channel)
    po: dict[str, list[int]] = field(default_factory=dict)  # event ids per thread, in order
    cap: dict[str, float] = field(default_factory=dict)
    rf: list[tuple[int, int]] = field(default_factory=list)  # sorted

    def add(self, i: int, th: str, op: str, ch: str) -> None:
        self.attrs[i] = (th, op, ch)
        self.po.setdefault(th, []).append(i)

    @classmethod
    def of(cls, events, cap, rf) -> Spec:
        """From (id, thread, op, channel) tuples listed in program order per thread."""
        spec = cls(cap=dict(cap), rf=sorted(rf))
        for e in events:
            spec.add(*e)
        return spec


def _tokens(path):
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            tok = raw.split("#", 1)[0].split()
            if tok:
                yield tok


def read_instance(path) -> Spec:
    """The channels, events and rf of a `.vchk` instance; per thread, line
    order is program order."""
    spec = Spec()
    for tok in _tokens(path):
        if tok[0] == "channel":
            spec.cap[tok[1]] = float(tok[3])  # a count or "inf"
        elif tok[0] == "event":
            spec.add(int(tok[1]), *map(sys.intern, tok[2:5]))
        elif tok[0] == "rf":
            spec.rf.append((int(tok[1]), int(tok[2])))
    spec.rf.sort()
    return spec


def read_witness(path) -> list[tuple[int, str, str, str]]:
    """The ``event`` lines of a `.vchk` file, in file order."""
    return [
        (int(tok[1]), *map(sys.intern, tok[2:5])) for tok in _tokens(path) if tok[0] == "event"
    ]


def replay(spec: Spec, witness: list[tuple[int, str, str, str]]) -> str | None:
    """Return why ``witness`` is not a linearization of ``spec``, or None.

    Checks that the witness holds exactly the instance's events, follows
    program order, gives every receive exactly its rf send from the channel's
    front, keeps every bounded channel within capacity, and places every
    synchronous send immediately before its receive in another thread.
    """
    if len(witness) != len(spec.attrs):
        return f"witness has {len(witness)} events, instance has {len(spec.attrs)}"
    snd_of = {r: s for s, r in spec.rf}
    rcv_of = {s: r for s, r in spec.rf}
    at = {th: 0 for th in spec.po}
    queues: dict[str, deque[int]] = {}  # bounded channels only, made on first send
    for k, (i, th, op, ch) in enumerate(witness):
        if spec.attrs.get(i) != (th, op, ch):
            return f"position {k + 1}: event {i} is not the instance's"
        seq = spec.po[th]
        if at[th] >= len(seq) or seq[at[th]] != i:
            return f"position {k + 1}: event {i} breaks program order of {th}"
        at[th] += 1
        c = spec.cap[ch]
        if op == "snd":
            if c == 0:
                nxt = witness[k + 1] if k + 1 < len(witness) else None
                if nxt is None or nxt[0] != rcv_of.get(i) or nxt[1] == th:
                    return f"position {k + 1}: sync send {i} not followed by its receive"
            else:
                q = queues.setdefault(ch, deque())
                if len(q) >= c:
                    return f"position {k + 1}: send {i} overflows {ch} (cap {c})"
                q.append(i)
        else:
            s = snd_of.get(i)
            if s is None:
                return f"position {k + 1}: receive {i} has no rf send"
            if c == 0:
                if k == 0 or witness[k - 1][0] != s:
                    return f"position {k + 1}: sync receive {i} not right after send {s}"
            else:
                q = queues.get(ch)
                if not q or q[0] != s:
                    return f"position {k + 1}: receive {i} does not read its rf send {s} at the front"
                q.popleft()
    return None
