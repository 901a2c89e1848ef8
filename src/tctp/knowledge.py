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
recursion.
"""
from __future__ import annotations

from typing import Mapping

from .errors import SizeLimitError

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


class Knowledge:
    """Edge bits, reveal scopes and state counter of one game; ``scopes``
    lists each vertex's scope in the game's local order."""

    def __init__(self, edges, scopes: Mapping, k: int, state_limit: int):
        self.bit = {e.key: 1 << i for i, e in enumerate(edges)}
        self.copies = {e.key: e.copies for e in edges}
        self.local = {v: tuple((self.bit[e.key], e.copies, e.key) for e in es)
                      for v, es in scopes.items()}
        self.scope = {v: sum(bit for bit, _, _ in loc) for v, loc in self.local.items()}
        self.k = k
        self.state_limit = state_limit
        self.states = 0
        self._spends: dict = {}
        self._last = ([], [], EMPTY)

    def count(self) -> None:
        """Book one more knowledge state; past the limit, raise."""
        self.states += 1
        if self.states > self.state_limit:
            raise SizeLimitError(
                f"knowledge-state count exceeded {self.state_limit}", self.state_limit)

    def state(self, decided: Mapping) -> tuple:
        """The state of a ``{edge key: blocked copies}`` mapping. Policies
        see one growing mapping after another, so the last one's state is
        extended by the new tail when its keys and counts (compared as two
        lists, with no per-entry tuple) are a prefix of this one's."""
        keys, counts = list(decided), list(decided.values())
        seen_keys, seen_counts, (r, b, spent) = self._last
        n = len(seen_keys)
        if keys[:n] != seen_keys or counts[:n] != seen_counts:
            n, (r, b, spent) = 0, EMPTY
        for key, c in zip(keys[n:], counts[n:]):
            bit = self.bit[key]
            r |= bit
            if c >= self.copies[key]:
                b |= bit
            spent += c
        self._last = keys, counts, (r, b, spent)
        return r, b, spent

    def settled(self, v, state) -> bool:
        """Nothing left to settle at v, so the Blocker has no move there."""
        scope = self.scope[v]
        return state[0] & scope == scope

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
                         if not r & bit and c <= remaining]
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
