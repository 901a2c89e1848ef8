"""Blocked-arc game on weighted DAGs.

Traveller walks from s toward t; Blocker may block up to k arc copies in
total, and each blocked copy becomes visible only when Traveller arrives at
its tail. ``compute_pi`` computes, for every vertex v and every
remaining blocker budget i, the worst-case cost Traveller can guarantee from
v; ``brute_dag_game`` recomputes the same quantity by exhaustive game-tree
search and exists purely as a cross-check.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .core import StaticGraph
from .errors import TABLE_STEPS, CyclicGraphError, SizeLimitError

UNREACHABLE = math.inf


def topological_order(g: StaticGraph) -> list:
    """Kahn's algorithm; raises CyclicGraphError if g has a directed cycle."""
    if not g.directed:
        raise ValueError("topological order needs a directed graph")
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.v] += 1
    ready = deque(v for v in g.vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for e in g.outgoing(v):
            indeg[e.v] -= 1
            if indeg[e.v] == 0:
                ready.append(e.v)
    if len(order) != len(g.vertices):
        raise CyclicGraphError("graph contains a directed cycle")
    return order


@dataclass(frozen=True)
class PiTable:
    """table.value(v, i): guaranteed cost from v, budget i left (the ``u`` sweep's: arrival
    time); short rows repeat their end."""

    values: Mapping[object, tuple]
    budget: int

    def value(self, v, i: int):
        if not 0 <= i <= self.budget:
            raise ValueError(f"budget index {i} outside 0..{self.budget}")
        return self.values[v][min(i, len(self.values[v]) - 1)]


def table_width(copies: Iterable[int], k: int) -> int:
    """min(k, C) + 1 budget columns, C the summed copies that k can block whole: with C
    left Blocker blocks them all, so no row changes past C."""
    return min(k, sum([c for c in copies if c <= k])) + 1


class TableSteps:
    """One budget table's step count: a step per cell before its first row, and
    ``row_steps`` per ``pi_row`` row before that row is built (``compute_pi`` charges
    them all with its cells). SizeLimitError past TABLE_STEPS."""

    def __init__(self, cells: int):
        self.steps = 0
        self.charge(cells)

    def charge(self, n: int) -> None:
        self.steps += n
        if self.steps > TABLE_STEPS:
            raise SizeLimitError(f"budget table exceeded {TABLE_STEPS} steps", TABLE_STEPS)


def row_steps(copies: list, width: int) -> int:
    """``pi_row``'s steps for a row of arcs with these copies: reach x listed candidates
    with two or more arcs, reach the columns the copies fill and listed the copies, each
    copy count at most the width; none for one arc."""
    if len(copies) < 2:
        return 0
    return min(sum(copies), width) * sum([c if c < width else width for c in copies])


def pi_row(arcs: list, width: int, steps: Optional[TableSteps]) -> tuple:
    """One vertex's row of the budget table, from its out-arcs.

    arcs holds (head row, weight, copies) per out-arc, and width is the
    table's columns (``table_width``). Entry i is the guarantee with budget
    i left: the max over m <= i of the (m+1)-smallest candidate at budget
    i - m, candidates counted once per copy. Blocker never removes more than width - 1
    copies, so only the width smallest candidates matter, and each arc is
    listed at most width times. With n candidates in all, Blocker removes
    every one once i >= n, so those entries are unreachable; below n every
    (m+1)-smallest exists. Head rows never fall as the budget grows (a
    precondition), so a single arc's max is at m = 0: its row is the head
    row plus the weight. No out-arc gives an unreachable row. More arcs take
    a sorted candidate list per column, charged to the table's ``steps``
    (``row_steps``) unless that is None, the row charged already.
    ``utctp._sweep`` calls this only where two or more departures undercut
    its wait, and reads other rows off it.
    """
    n = listed = 0
    for _, _, copies in arcs:
        n += copies
        listed += copies if copies < width else width
    reach = n if n < width else width
    if len(arcs) == 1:
        head, weight, _ = arcs[0]
        row = [head[i] + weight for i in range(reach)]
    else:
        if steps is not None:
            steps.charge(reach * listed)
        row = []
        for r in range(reach):
            # the sorted candidates at budget r; the (m+1)-smallest joins
            # the max of entry r + m
            cands = []
            for head, weight, copies in arcs:
                if copies == 1:
                    cands.append(head[r] + weight)
                else:
                    cands += [head[r] + weight] * (copies if copies < width else width)
            cands.sort()
            if not r:
                row = cands[:reach]
                continue
            for m in range(reach - r):
                if cands[m] > row[r + m]:
                    row[r + m] = cands[m]
    if reach < width:
        row += [UNREACHABLE] * (width - reach)
    return tuple(row)


def compute_pi(g: StaticGraph, target, budget: int) -> PiTable:
    """Worst-case guaranteed cost per (vertex, remaining blocker budget).

    With budget i at v, Blocker may remove m <= i of v's out-arc copies on
    arrival and Traveller takes the best survivor: v's row is ``pi_row`` of
    its out-arcs' (head row, weight, copies), ``table_width`` columns wide.
    Every row's ``row_steps`` is known from the copies and the width, so the
    table charges them all with its cells before it builds a row.
    """
    if target not in g.index:
        raise ValueError(f"unknown target vertex {target!r}")
    order = topological_order(g)
    width = table_width([e.copies for e in g.edges], budget)
    rows = [(v, g.outgoing(v)) for v in reversed(order) if v != target]
    TableSteps(len(order) * width  # raises here, before any row, past TABLE_STEPS
               + sum([row_steps([e.copies for e in out], width) for _, out in rows]))
    values: dict = {target: (0,) * width}
    for v, out in rows:
        values[v] = pi_row([(values[e.v], e.weight, e.copies) for e in out], width, None)
    return PiTable(values, budget)


def decide_dag(g: StaticGraph, s, t, budget: int, deadline) -> bool:
    """True iff Traveller can guarantee reaching t from s with cost <= deadline."""
    if s not in g.index:
        raise ValueError(f"unknown source vertex {s!r}")
    table = compute_pi(g, t, budget)
    return table.value(s, budget) <= deadline


def traveller_move(arcs: Iterable[tuple], table: PiTable, remaining: int,
                   decided: Mapping) -> Optional[tuple]:
    """The surviving arc minimizing cost-from-head plus weight.

    arcs holds a (head, weight, copies, key) tuple per out-arc of Traveller's
    vertex, where key is the edge whose status the arc follows, None for an
    arc nothing blocks; decided maps edge key -> copies revealed blocked, and
    remaining is the budget Blocker has left. Ties go to the first arc in
    (head, weight) order. None when no surviving arc keeps a finite guarantee.
    """
    best, best_arc = UNREACHABLE, None
    for arc in sorted(arcs, key=lambda a: a[:2]):
        head, weight, copies, key = arc
        if key is not None and copies - decided.get(key, 0) < 1:
            continue
        cand = table.value(head, remaining) + weight
        if cand < best:
            best, best_arc = cand, arc
    return best_arc


def blocker_move(arcs: Iterable[tuple], table: PiTable, remaining: int) -> dict:
    """Copies to block among one vertex's out-arcs, given as in ``traveller_move``.

    Maximizes the survivor Traveller is forced to. Returns {key: copies
    blocked}; empty when blocking does not help. Ties between block sizes go
    to the smaller (cheaper) one, ties between copies to the first arc in
    (head, weight) order. An arc of key None may be counted; nothing blocks it.
    """
    if not 0 <= remaining <= table.budget:
        raise ValueError(f"remaining budget {remaining} outside 0..{table.budget}")
    arcs = sorted(arcs, key=lambda a: a[:2])
    top = table_width([c for _, _, c, _ in arcs], remaining) - 1  # a larger block buys nothing
    best_val, best = None, Counter()
    for m in range(top + 1):
        # blocking m copies, cheapest (value, arc index) first, leaves the (m+1)-th
        val, left, blocked = UNREACHABLE, m, Counter()
        for cand, idx in sorted((table.value(head, remaining - m) + weight, idx)
                                for idx, (head, weight, _, _) in enumerate(arcs)):
            _, _, copies, key = arcs[idx]
            blocked[key] += min(left, copies)
            if left < copies:
                val = cand
                break
            left -= copies
        if best_val is None or val > best_val:
            best_val, best = val, blocked
    return dict(+best)  # no zero counts


_STATES_PER_VERTEX = 20


def brute_dag_game(g: StaticGraph, s, t, budget: int, unlimited: bool = False):
    """Exact game value by exhaustive search over reveal histories.

    The information state is the blocked count of every arc revealed so far,
    each fixed at the arc's tail on first arrival; Blocker enumerates every
    legal count vector, budget permitting. Intended for small cross-check
    instances; the per-vertex information-state guard trips otherwise unless
    unlimited.
    """
    for x in (s, t):
        if x not in g.index:
            raise ValueError(f"unknown vertex {x!r}")
    topological_order(g)  # validates acyclicity
    out_arcs = {v: sorted(g.outgoing(v), key=lambda a: a.key) for v in g.vertices}
    memo: dict = {}
    states_per_vertex: dict = {}

    def reveal_vectors(arcs, rem, decided):
        """All ways to fix blocked counts for the given undecided arcs."""
        if not arcs:
            yield decided
            return
        e, rest = arcs[0], arcs[1:]
        for c in range(min(e.copies, rem) + 1):
            yield from reveal_vectors(rest, rem - c, decided + ((e.key, c),))

    def value(v, decided: tuple):
        if v == t:
            return 0
        key = (v, decided)
        if key in memo:
            return memo[key]
        if not unlimited:
            n = states_per_vertex.get(v, 0) + 1
            if n > _STATES_PER_VERTEX:
                raise SizeLimitError(
                    f"more than {_STATES_PER_VERTEX} information states at {v!r}",
                    _STATES_PER_VERTEX,
                )
            states_per_vertex[v] = n
        dmap = dict(decided)
        spent = sum(dmap.values())
        undecided = tuple(e for e in out_arcs[v] if e.key not in dmap)
        worst = None
        for new_decided in reveal_vectors(undecided, budget - spent, decided):
            ndmap = dict(new_decided)
            ordered = tuple(sorted(new_decided))
            best = UNREACHABLE
            for e in out_arcs[v]:
                if e.copies - ndmap.get(e.key, 0) < 1:
                    continue
                sub = e.weight + value(e.v, ordered)
                if sub < best:
                    best = sub
            if worst is None or best > worst:
                worst = best
            if worst == UNREACHABLE:
                break
        return memo.setdefault(key, worst if worst is not None else UNREACHABLE)

    return value(s, ())
