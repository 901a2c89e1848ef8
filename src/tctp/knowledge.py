"""Knowledge states shared by the exact searches of ``litctp`` and ``staticctp``.

In both games the Blocker settles every undecided edge in a vertex's scope
(its incident edges, or its out-arcs) when the walker first stands there,
for good. A knowledge state is three ints ``(rmask, bmask, spent)``: bit i
of ``rmask`` says the i-th graph edge is settled, bit i of ``bmask`` that no
copy of it is left, and ``spent`` counts blocked copies -- apart from the
masks, because a policy's view may block part of a copy group.

``run`` drives a search written as generators, here and in the arena's
verifier: a step yields the generator of each sub-position it needs and is
sent back its result, so deep games use an explicit stack instead of Python
recursion. A game's settled edges are one ``Ledger`` that the arena adds to
and undoes; policies see O(1) snapshots of it, and ``Knowledge.state`` folds
only what a snapshot adds to one it folded before.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from .errors import Meter

EMPTY = (0, 0, 0)


def run(step):
    """Result of the generator ``step``, driving the sub-steps it yields."""
    stack = [step]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


class Ledger:
    """Distinct keys with a value each, in the order added; ``truncate(n)``
    undoes the adds after the first n. Each entry is a fresh (key, value)
    pair, so identity tells that an entry, and all before it, are still there."""

    __slots__ = ("entries", "index")

    def __init__(self):
        self.entries: list = []
        self.index: dict = {}  # key -> its position in entries

    def add(self, key, value=None) -> None:
        self.index[key] = len(self.entries)
        self.entries.append((key, value))

    def truncate(self, n: int) -> None:
        for key, _ in self.entries[n:]:
            del self.index[key]
        del self.entries[n:]

    def snapshot(self) -> "Snapshot":
        return Snapshot(self, len(self.entries))


class Snapshot(Mapping):
    """Read-only mapping over a ledger's first n entries. Later adds leave it
    unchanged; it is void once the ledger is truncated below n."""

    __slots__ = ("ledger", "n", "last")

    def __init__(self, ledger: Ledger, n: int):
        self.ledger, self.n, self.last = ledger, n, ledger.entries[n - 1] if n else None

    def __getitem__(self, key):
        i = self.ledger.index.get(key, self.n)
        if i < self.n:
            return self.ledger.entries[i][1]
        raise KeyError(key)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (key for key, _ in self.ledger.entries[:self.n])

    def extends(self, other: "Snapshot") -> bool:
        """Whether this snapshot still begins with the entries of ``other``."""
        return other.ledger is self.ledger and other.n <= self.n and (
            not other.n or self.ledger.entries[other.n - 1] is other.last)


class Knowledge:
    """Edge bits, reveal scopes and state meter of one game. ``edges`` are
    its (key, copies) pairs, edge i on bit i; ``scopes`` lists each vertex's
    edge numbers in the game's local order, or is empty and ``scoped`` sets them."""

    GAP = 64  # ledger entries between the folded states kept below the last

    def __init__(self, edges, scopes: Mapping, k: int, state_limit: int):
        # (bit, copies, key) of edge i
        self.entries = entries = [(1 << i, c, key) for i, (key, c) in enumerate(edges)]
        self.bit = {key: bit for bit, _, key in entries}
        self.copies = dict(edges)
        self.scoped({v: [entries[i] for i in es] for v, es in scopes.items()})
        self.k = k
        self.meter = Meter("knowledge states", state_limit)
        self._spends: dict = {}
        # (snapshot, its state): the last one folded, and one per GAP entries below
        self._folded: list = []

    def scoped(self, local: Mapping) -> None:
        """Set each vertex's scope: ``local[v]``, its entries in local order."""
        self.local = local
        self.scope = {v: sum(map(itemgetter(0), loc)) for v, loc in local.items()}

    def state(self, decided: Mapping) -> tuple:
        """The state of a ``{edge key: blocked copies}`` mapping. A snapshot
        is folded on from the last snapshot folded here that it extends; any
        other mapping is folded whole."""
        snap = isinstance(decided, Snapshot)
        folded = self._folded if snap else []
        while folded and not decided.extends(folded[-1][0]):
            folded.pop()
        done, (r, b, spent) = folded[-1] if folded else (None, EMPTY)
        start = done.n if folded else 0
        pairs = decided.ledger.entries[start:decided.n] if snap else decided.items()
        bits, copies = self.bit, self.copies
        for key, c in pairs:
            bit = bits[key]
            r |= bit
            if c >= copies[key]:
                b |= bit
            spent += c
        if snap:
            if folded and done.n // self.GAP == decided.n // self.GAP:
                folded.pop()
            folded.append((decided, (r, b, spent)))
        return r, b, spent

    def settled(self, v, state) -> bool:
        """Nothing left to settle at v, so the Blocker has no move there."""
        scope = self.scope[v]
        return state[0] & scope == scope

    def blockable(self, keys, settled: int, remaining: int) -> bool:
        """Whether ``choices`` lists more than one reveal: some of a scope's
        undecided ``keys`` is off the ``settled`` mask and fits ``remaining``."""
        return any(self.copies[key] <= remaining and not settled & self.bit[key] for key in keys)

    def choices(self, v, state) -> list:
        """The Blocker's reveals at v as child states, cheapest spend first,
        then by mask over the blockable edges in local order. Each group is
        blocked whole or not at all: a partial block leaves it passable and
        only wastes budget, so it is dominated by blocking none of it.
        """
        r, b, spent = state
        key = (v, r & self.scope[v], spent)
        spends = self._spends.get(key)
        if spends is None:
            remaining = self.k - spent
            blockable = [(bit, c) for bit, c, _ in self.local[v]
                         if c <= remaining and not r & bit]
            if not blockable:  # the one reveal blocks nothing: not worth a memo entry
                return [(r | self.scope[v], b, spent)]
            # (total, mask over blockable, edge bits) of every reveal that
            # fits the budget: each edge extends only the subsets it fits
            ranked = [(0, 0, 0)]
            for i, (bit, c) in enumerate(blockable):
                ranked += [(total + c, mask | 1 << i, bits | bit)
                           for total, mask, bits in ranked if total + c <= remaining]
            ranked.sort()
            spends = self._spends[key] = [(bits, total) for total, _, bits in ranked]
        r |= self.scope[v]
        return [(r, b | bits, spent + total) for bits, total in spends]

    def statuses(self, v, before, after) -> dict:
        """Blocked copies of each edge at v settled from ``before`` to
        ``after``, in local order."""
        new = after[0] & ~before[0]
        return {key: c if after[1] & bit else 0
                for bit, c, key in self.local[v] if new & bit}
