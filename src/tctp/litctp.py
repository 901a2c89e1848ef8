"""Locally-informed temporal game: statuses of every edge incident to a
vertex surface on first arrival there, future departures included.

``solve_k1`` decides the single-block case in polynomial time: one
latest-departure label pass, then for each sole witness (a single-copy edge
that alone supports a vertex's label) a rescan of the edges of that
vertex's dominator subtree, then a Dijkstra-like pass over
latest-safe-departure values. A deep dominator chain still makes the
rescans O(|V| |E|). ``exact_li`` decides any budget by memoized minimax
over knowledge states and yields playable strategies for both sides.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from typing import Dict, Mapping, Optional

from .core import Instance, TemporalGraph, window
from .errors import STATE_LIMIT
from .knowledge import EMPTY, Knowledge, run

NEVER = -math.inf


def latest_departure_labels(
    g: TemporalGraph, t, deadline=math.inf, skip_one: Optional[tuple] = None
) -> dict:
    """Latest time one can leave each vertex and still reach t by the deadline.

    Plain reachability, no adversary. skip_one names an edge key with one
    copy removed; removal only matters when that key has a single copy.
    A single pass over edges in decreasing tau order suffices: consecutive
    walk edges have strictly increasing tau (d >= 1), so the label a step
    relies on is final before the step's own edge is processed.
    """
    if t not in g.index:
        raise ValueError(f"unknown target vertex {t!r}")
    labels = {v: NEVER for v in g.vertices}
    labels[t] = deadline
    for e in g.latest_first:
        if e.copies == 1 and skip_one == e.key:
            continue
        if e.tau + e.d <= labels[e.v] and e.tau > labels[e.u]:
            labels[e.u] = e.tau
        if e.tau + e.d <= labels[e.u] and e.tau > labels[e.v]:
            labels[e.v] = e.tau
    return labels


def _sole_witness_labels(g: TemporalGraph, t, base: Mapping) -> dict:
    """x0's label in G - e, for each vertex x0 whose base label only a
    single-copy edge e supports (its sole witness).

    Removing a copy of any other edge leaves every label unchanged: each
    label is still attained by a surviving edge whose far endpoint keeps its
    (later) label, by induction on decreasing label. In G - e, labels above
    e.tau stay, and so does every label with a witness path to t that avoids
    x0; witness labels rise strictly along a path, so the witness DAG (x to
    y for each witness edge) has a dominator tree toward t, built in one pass
    in decreasing label order, and only x0's subtree can change. Each rerun
    scans that subtree's usable departures latest first and stops when x0 is
    labelled, since a label is final when first set. A deep dominator chain
    still costs O(|V| |E|).
    """
    witnesses: dict = {}
    for e in g.edges:
        if e.tau == base[e.u] and e.tau + e.d <= base[e.v]:
            witnesses.setdefault(e.u, []).append(e)
        elif e.tau == base[e.v] and e.tau + e.d <= base[e.u]:
            witnesses.setdefault(e.v, []).append(e)
    sole = [x for x, ws in witnesses.items() if len(ws) == 1 and ws[0].copies == 1]
    if not sole:
        return {}

    # a dominator's label is above its subtree's, so the lower of two
    # fingers is never the other's dominator and may step up
    idom, children = {}, {t: []}
    for x in sorted(witnesses, key=base.__getitem__, reverse=True):
        a, *ys = [e.other(x) for e in witnesses[x]]
        for b in ys:
            while a != b:
                if base[a] < base[b]:
                    a = idom[a]
                else:
                    b = idom[b]
        idom[x], children[x] = a, []
        children[a].append(x)

    # departures by which x could still reach y in time, latest first
    usable: dict = {x: [] for x in witnesses}
    for e in g.latest_first:
        u, v, tau, arrival = e.u, e.v, e.tau, e.tau + e.d
        if tau <= base[u] and arrival <= base[v] and u in usable:
            usable[u].append((tau, arrival, u, v))
        if tau <= base[v] and arrival <= base[u] and v in usable:
            usable[v].append((tau, arrival, v, u))
    relabelled = {}
    for x0 in sole:
        labels = {x0: NEVER}
        scan = usable[x0][1:]  # the first is the witness itself
        stack = children[x0][:] if scan else []  # else x0 has no other way out
        while stack:
            v = stack.pop()
            labels[v] = NEVER
            scan += usable[v]
            stack += children[v]
        scan.sort(key=itemgetter(0), reverse=True)
        for tau, arrival, x, y in scan:
            if tau > labels[x] and arrival <= (labels[y] if y in labels else base[y]):
                labels[x] = tau
                if x == x0:
                    break
        relabelled[x0] = labels[x0]
    return relabelled


@dataclass
class K1Result:
    """Output of the single-block solver.

    pi1[v] is the latest time Traveller may stand at v and still win against
    one blocked copy; deadline is the window end the labels were taken to.
    """

    wins: bool
    pi1: Mapping[object, float]
    deadline: float
    instance: Instance

    def __bool__(self) -> bool:
        return self.wins


def solve_k1(inst: Instance, T=None) -> K1Result:
    """Decide the locally-informed game for budget one.

    pi1 combines two guarantees: lam1(v), the worst case over which single
    incident edge turns out blocked (each answered by plain latest-departure
    routing on the graph missing that copy), and nu(v), the best departure
    over edges into already-settled vertices u arriving by pi1(u). Vertices
    settle in order of decreasing pi1 = min(lam1, nu). Traveller wins iff
    standing at s at time 0 is safe, i.e. pi1(s) >= 0.

    Cost: one label pass; then, per sole witness, a rescan of the edges of
    its dominator subtree (``_sole_witness_labels``); then the settling
    heap. Random graphs give shallow subtrees, but a deep dominator chain
    still makes the rescans O(|V| |E|).
    """
    g = inst.graph
    if not isinstance(g, TemporalGraph):
        raise ValueError("locally-informed solver needs a temporal instance")
    if inst.k != 1:
        raise ValueError(f"single-block solver got k={inst.k}")
    _, T = window(inst, 0, T)

    base = latest_departure_labels(g, inst.t, T)
    lam1 = {v: base[v] for v in g.vertices if v != inst.t}
    lam1.update(_sole_witness_labels(g, inst.t, base))

    pi1: Dict[object, float] = {inst.t: T}
    nu: Dict[object, float] = dict.fromkeys(lam1, NEVER)
    for e in g.incident(inst.t):
        other = e.other(inst.t)
        if e.tau + e.d <= T and e.tau > nu[other]:
            nu[other] = e.tau
    # max-heap on (value, then smallest name); values only rise, so a
    # vertex's current entry pops before its stale ones. A vertex at NEVER
    # stays off it: the ones left when it empties settle last, by name, as
    # they would pop, and settling them changes nothing
    heap = [(-val, v) for v in nu if (val := min(lam1[v], nu[v])) > NEVER]
    heapq.heapify(heap)
    while heap:
        neg, best_v = heapq.heappop(heap)
        if best_v in pi1:
            continue
        best_val = -neg
        pi1[best_v] = best_val
        for e in g.incident(best_v):
            other = e.v if e.u == best_v else e.u
            if other not in pi1 and e.tau + e.d <= best_val and e.tau > nu[other]:
                nu[other] = e.tau
                if lam1[other] > NEVER:
                    heapq.heappush(heap, (-min(lam1[other], e.tau), other))
    pi1.update((v, NEVER) for v in sorted(nu.keys() - pi1.keys()))
    return K1Result(pi1[inst.s] >= 0, pi1, T, inst)


def k1_traveller_policy(result: K1Result):
    """Arena policy following the single-block certificate.

    While no block has been seen, move along any edge arriving in time for
    the head's pi1; once the blocked copy is known, switch to plain
    latest-departure routing on the remaining graph.
    """
    inst = result.instance
    g = inst.graph
    labels_after = cache(lambda key: latest_departure_labels(
        g, inst.t, result.deadline, skip_one=key))

    def policy(view):
        pos, clock = view.position, view.clock
        blocked = [k for k, c in view.decided.items() if c > 0]
        target_of = labels_after(blocked[0]) if blocked else result.pi1
        for e in sorted(g.incident(pos), key=lambda e: (e.tau + e.d, e.key)):
            if (e.copies - view.decided.get(e.key, 0) >= 1 and e.tau >= clock
                    and e.tau + e.d <= target_of[e.other(pos)]):
                return ("move", e.key)
        return ("resign",)

    return policy


class LiGame:
    """Memoized minimax search over locally-informed knowledge states.

    A position is (vertex, clock, state), where the ``knowledge`` state has
    every edge incident to a visited vertex settled -- edges settled open
    are knowledge too. On arrival at an unvisited vertex, Blocker settles
    the rest of its incident edges, choosing among ``reveal_choices``.
    Clocks are snapped to the next feasible departure so positions between
    events collapse.

    An edge that departs before the clock, or arrives after t2, is dead: no
    walk from here can use it. Edge bits are numbered in (tau, key) order,
    so the edges departing before time x are the low bisect_left(taus, x)
    bits. A reveal, in the search and in the Blocker policy alike, treats
    the dead edges as settled, so Blocker never spends budget on one, and
    the memo keys a position on its bits from the first feasible departure
    up, so positions that differ only in dead edges share one entry.
    Dropping the dead reveals keeps the Blocker policy's moves: a losing
    reveal that blocks a dead edge has a cheaper twin without it that comes
    first and loses too. A memo value is the Traveller policy's move: the
    key of the first departure, in (tau, key) order, that wins against
    every reveal, else False.
    Both policies read the memo and search only positions it lacks.
    """

    def __init__(self, inst: Instance, t1=0, t2=None, state_limit: int = STATE_LIMIT):
        g = inst.graph
        if not isinstance(g, TemporalGraph):
            raise ValueError("locally-informed solver needs a temporal instance")
        self.inst = inst
        self.t1, self.t2 = window(inst, t1, t2)
        self.memo: dict = {}
        edges = sorted(g.edges, key=lambda e: (e.tau, e.key))  # edge i is bit i
        self.taus = taus = [e.tau for e in edges]
        self.know = know = Knowledge([(e.key, e.copies) for e in edges], {}, inst.k, state_limit)
        # departures arriving inside the window, in (tau, key) order:
        # (tau, arrival, bit, head, key, edges departing before tau, and before arrival)
        self.departures = departures = {v: [] for v in g.vertices}
        local: dict = {v: [] for v in g.vertices}
        self.late, t2 = 0, self.t2  # late: the edges arriving after t2
        for e, entry in zip(edges, know.entries):
            bit, _, key = entry
            u, v, tau, arrival = e.u, e.v, e.tau, e.tau + e.d
            local[u].append(entry)
            local[v].append(entry)
            if arrival > t2:
                self.late |= bit
                continue
            dead, dead_on_arrival = bisect_left(taus, tau), bisect_left(taus, arrival)
            departures[u].append((tau, arrival, bit, v, key, dead, dead_on_arrival))
            departures[v].append((tau, arrival, bit, u, key, dead, dead_on_arrival))
        know.scoped(local)

    def traveller_wins(self, pos, clock, decided: Mapping) -> bool:
        """Post-reveal: every key incident to pos is present in decided."""
        return bool(run(self._wins(pos, clock, self.know.state(decided))))

    def _recall(self, pos, clock, state) -> tuple:
        """(departures feasible at clock, memo key, result or None if unsearched) at pos."""
        if pos == self.inst.t:
            return (), None, True
        r, b, spent = state
        options = [x for x in self.departures[pos] if x[0] >= clock and not b & x[2]]
        if not options:
            return options, None, False
        n = options[0][5]  # edges departing before the first feasible departure
        at = (pos, options[0][0], r >> n, b >> n, spent)
        return options, at, self.memo.get(at)

    def _wins(self, pos, clock, state):
        options, at, hit = self._recall(pos, clock, state)
        if hit is not None:
            return hit
        self.know.meter.charge()
        win = False
        for _tau, arrival, _bit, head, key, _n, past in options:
            if (yield self._reveal_wins(head, arrival, past, state)):
                win = key
                break
        self.memo[at] = win
        return win

    def _live(self, past: int, state):
        """``state`` with the dead edges settled: the ``past`` edges that
        depart before the walker's arrival and those arriving after t2."""
        r, b, spent = state
        return r | (1 << past) - 1 | self.late, b, spent

    def _reveal_wins(self, v, arrive, past: int, state):
        """Blocker to settle v's undecided live incident edges, on arrival
        when ``past`` edges depart earlier."""
        for choice in self.reveal_choices(v, self._live(past, state)):
            if not (yield self._wins(v, arrive, choice)):
                return False
        return True

    def reveal_choices(self, v, state) -> list:
        """All undominated reveals at v, nothing-blocked first, then by cost."""
        return self.know.choices(v, state)

    @cached_property
    def wins(self) -> bool:
        """The answer from s at t1, searched at first read."""
        return run(self._reveal_wins(self.inst.s, self.t1, bisect_left(self.taus, self.t1), EMPTY))

    def __bool__(self) -> bool:
        return self.wins

    @property
    def states(self) -> int:
        return self.know.meter.used

    def traveller_policy(self):
        """The memo's move, searched on a miss, else resign; late edges settled as searched."""
        def policy(view):
            r, blocked, spent = self.know.state(view.decided)
            state = (r | self.know.scope[view.position] | self.late, blocked, spent)
            move = self._recall(view.position, view.clock, state)[2]
            if move is None:
                move = run(self._wins(view.position, view.clock, state))
            return ("move", move) if move else ("resign",)

        return policy

    def blocker_policy(self):
        """Play the first losing reveal of the live edges, as the search
        offers them, else block nothing, unlisted where that is the one reveal."""
        def policy(view):
            clock, past = view.clock, bisect_left(self.taus, view.clock)
            if not self.know.blockable(view.undecided, self._live(past, EMPTY)[0], view.remaining):
                return {}
            state = self._live(past, self.know.state(view.decided))
            for choice in self.reveal_choices(view.position, state):
                if not run(self._wins(view.position, clock, choice)):
                    statuses = self.know.statuses(view.position, state, choice)
                    return {k: c for k, c in statuses.items() if c > 0}
            return {}

        return policy


def exact_li(inst: Instance, t1=0, t2=None, state_limit: int = STATE_LIMIT) -> LiGame:
    """Exact decision of the locally-informed game for any budget.

    Traveller departs no sooner than t1 and must reach t by t2 (t2 defaults
    to the instance deadline, else unbounded). Returns the searched game,
    whose ``wins`` holds the answer and whose policies play it out for
    both sides.
    """
    game = LiGame(inst, t1, t2, state_limit)
    game.wins  # searched here, so ``states`` counts the search
    return game
