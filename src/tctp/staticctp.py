"""Exact solver for the blocking game on weighted graphs.

Statuses are settled the first time the walker stands at an endpoint: the
blocker then fixes, for every still-undecided edge there, how many copies are
blocked (total over the whole game at most k), and those statuses never change
afterwards.  The walker remembers everything that was revealed, including
edges revealed as open, and pays edge weights while moving.  The value of the
game is the least total cost the walker can guarantee before reaching t, or
UNREACHABLE when the blocker can cut every route.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Optional

from .core import Instance, StaticGraph
from .dagctp import UNREACHABLE, PiTable, TableSteps, pi_row, table_width
from .errors import STATE_LIMIT, SizeLimitError
from .knowledge import EMPTY, Knowledge, run


class StaticGame:
    """Minimax engine over knowledge states (position, settled statuses).

    discovery="incident" settles every edge at a vertex on the walker's first
    arrival there; discovery="out" settles only departing arcs, the game of
    the layered-graph table, on any directed graph.  Accumulated cost is not
    part of the state: costs are additive, so the cost-to-go from a knowledge
    state is a single number.

    One search, ``_win`` (is the cost-to-go within a slack?), with one table,
    ``_bands``, answers decisions and, by probes over the slack, values
    (MTD(f)'s null-window probes over a table of bounds); the play helpers
    read portal and reveal values from ``value``.

    In both modes ``bounds`` brackets every cost-to-go from tables kept
    once per blocked set B, however many states share it: the distance to
    t over G - B below, and the budget table of a Traveller who only moves
    down the order of that distance above. A probe outside the bracket is
    answered without a search.
    """

    def __init__(self, inst: Instance, discovery: str = "incident",
                 state_limit: int = STATE_LIMIT):
        if not isinstance(inst.graph, StaticGraph):
            raise TypeError("weighted-graph solver got a non-static instance")
        if discovery not in ("incident", "out"):
            raise ValueError(f"unknown discovery mode {discovery!r}")
        self.inst = inst
        self.g = g = inst.graph
        scope = g.incident if discovery == "incident" else g.outgoing
        number = {e: i for i, e in enumerate(g.edges)}
        self.know = Knowledge([(e.key, e.copies) for e in g.edges],
                              {v: [number[e] for e in scope(v)] for v in g.vertices},
                              inst.k, state_limit)
        bit = self.know.bit
        # usable ways out of each vertex: (bit, head, weight, key)
        self.moves = {
            v: [(bit[e.key], e.v if g.directed else e.other(v), e.weight, e.key)
                for e in g.outgoing(v)]
            for v in g.vertices
        }
        # usable ways into each vertex: (tail, weight, bit)
        self.into: dict = {v: [] for v in g.vertices}
        for v, moves in self.moves.items():
            for b, w, weight, _ in moves:
                self.into[w].append((v, weight, b))
        # down-table columns; None once a table passes TABLE_STEPS: no upper bounds
        self.width = table_width(self.know.copies.values(), inst.k)
        # blocked mask -> [distance to t over the rest, down table (``width``
        # columns for every mask) or None until ``bounds`` first needs it]
        self._tables: dict = {}
        # threshold bands: (pos, state) -> [largest losing slack, smallest
        # winning slack or None]; sound because winning is monotone in slack
        self._bands: dict = {}

    @property
    def states(self) -> int:
        return self.know.states

    def reveal_choices(self, v, state) -> list:
        """Blocker reveals at v as child states, cheapest spend first."""
        return self.know.choices(v, state)

    # -- values ------------------------------------------------------------

    def entry_value(self):
        return self.value(self.inst.s, EMPTY)

    def value(self, pos, state):
        """Cost-to-go at pos, UNREACHABLE when the blocker can cut every
        route. A probe of ``_win`` at slack inf tells which; a finite value
        is then the least slack ``_win`` accepts. Slack ``floor[pos] - 1``
        always loses; the search steps up from there, doubling the step
        until a probe wins, and bisects the last step, keeping the bands
        between probes, so every probe stays near the value. Weights are
        non-negative ints, so the search is exact."""
        if not run(self._win(pos, state, math.inf)):
            return UNREACHABLE
        lo, step = self.floor(state[1])[pos] - 1, 1
        while not run(self._win(pos, state, lo + step)):
            lo, step = lo + step, 2 * step
        hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if run(self._win(pos, state, mid)):
                hi = mid
            else:
                lo = mid
        return hi

    def _sweep(self, pos, state):
        """Dijkstra from the settled pos over settled vertices; unsettled ones
        are portals where the blocker moves again. Returns the route ends,
        each (cost via it, vertex index, vertex), and the predecessor map.
        Past ``best``, the cheapest end found so far, the sweep stops, and a
        popped vertex whose distance plus its ``floor`` exceeds it is neither
        expanded nor valued. Both tests are strict, so the cheapest ends,
        their ``(cost, index)`` order and ``prev`` chains are as in a full
        sweep."""
        t, idx, settled = self.inst.t, self.g.index, self.know.settled
        blocked = state[1]
        floor = self.floor(blocked)
        dist = {pos: 0}
        prev: dict = {}
        heap = [(0, idx[pos], pos)]
        ends = []
        best = UNREACHABLE
        while heap:
            d, i, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if d > best:
                break
            if v == t:
                # onward candidates all cost at least d from here on
                ends.append((d, i, v))
                break
            if d + floor.get(v, UNREACHABLE) > best:
                continue
            if not settled(v, state):
                ends.append((d + self.value(v, state), i, v))
                best = min(best, ends[-1][0])
                continue
            for bit, w, weight, key in self.moves[v]:
                if blocked & bit:
                    continue
                nd = d + weight
                if nd < dist.get(w, UNREACHABLE):
                    dist[w] = nd
                    prev[w] = (v, key)
                    heapq.heappush(heap, (nd, idx[w], w))
        return ends, prev

    # -- bounds ------------------------------------------------------------

    def _distances(self, blocked: int) -> dict:
        """Distance to t of each vertex that reaches it over the edges not in
        ``blocked``."""
        idx, into, t = self.g.index, self.into, self.inst.t
        dist = {t: 0}
        heap = [(0, idx[t], t)]
        while heap:
            d, _, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, weight, bit in into[v]:
                if blocked & bit:
                    continue
                nd = d + weight
                if nd < dist.get(u, UNREACHABLE):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, idx[u], u))
        return dist

    def _table(self, blocked: int) -> list:
        entry = self._tables.get(blocked)
        if entry is None:
            entry = self._tables[blocked] = [self._distances(blocked), None]
        return entry

    def floor(self, blocked: int) -> dict:
        """Lower bounds on the cost-to-go of every state whose blocked mask
        is ``blocked``, a vertex missing where it is UNREACHABLE: the
        distance to t over the rest of the graph. They prune the threshold
        search and the play sweeps and start the value search."""
        return self._table(blocked)[0]

    def bounds(self, pos, state) -> tuple:
        """(lower, upper) on the cost-to-go at pos.

        Let B be the edges blocked in ``state``. The lower bound is the
        distance to t over G - B. Order the vertices that reach t by (that
        distance, index); a Traveller who only moves down the order plays
        the DAG game on the arcs that go down it (``pi_row``'s budget
        table), and the upper bound is its row at pos, read at the budget
        left. Its Blocker is no weaker than the one here: blocked edges are
        gone, edges settled open can no longer be cut, and a down arc is
        settled when the walker first stands at its upper end, as in the
        table, or earlier. Both bounds are UNREACHABLE when G - B cuts pos
        from t, and the upper one once a table has passed TABLE_STEPS.
        """
        blocked, spent = state[1], state[2]
        entry = self._table(blocked)
        dist, rows = entry
        if pos not in dist:
            return UNREACHABLE, UNREACHABLE
        if rows is None and self.width:
            # in order, each vertex reads the rows of its arcs' heads so far
            idx, width, copies = self.g.index, self.width, self.know.copies
            rows = {}
            try:
                steps = TableSteps(len(dist) * width)
                for v in sorted(dist, key=lambda v: (dist[v], idx[v])):
                    rows[v] = (0,) * width if v == self.inst.t else pi_row(
                        [(rows[w], weight, copies[key])
                         for bit, w, weight, key in self.moves[v]
                         if w in rows and not blocked & bit], width, steps)
                rows = entry[1] = PiTable(rows, self.inst.k)
            except SizeLimitError:  # past TABLE_STEPS: no mask gets a table
                self.width = None
        return dist[pos], rows.value(pos, self.inst.k - spent) if self.width else UNREACHABLE

    # -- threshold search --------------------------------------------------

    def decide(self, slack) -> bool:
        return run(self._win(self.inst.s, EMPTY, slack))

    def _win(self, pos, state, slack):
        """True iff the cost-to-go at pos is at most slack."""
        if pos == self.inst.t:
            return slack >= 0
        floor = self.floor(state[1])
        if pos not in floor or floor[pos] > slack:
            return False
        key = (pos, state)
        band = self._bands.get(key)
        if band is None:
            upper = self.bounds(pos, state)[1]
            if upper == UNREACHABLE:
                upper = None
            elif slack >= upper:
                return True
            self.know.count()
            band = self._bands[key] = [-math.inf, upper]
        if slack <= band[0]:
            return False
        if band[1] is not None and slack >= band[1]:
            return True
        if not self.know.settled(pos, state):
            result = True
            for choice in self.reveal_choices(pos, state):
                if not (yield self._win(pos, choice, slack)):
                    result = False
                    break
        else:
            result = yield from self._reaches(pos, state, slack)
        # no position recurs below itself, so the band is as read above
        if result:
            band[1] = slack
        else:
            band[0] = slack
        return result

    def _reaches(self, pos, state, slack):
        """From the settled pos: t within slack over settled vertices, or a
        portal whose reveal the walker wins with the slack left there."""
        t, idx, settled = self.inst.t, self.g.index, self.know.settled
        blocked = state[1]
        floor = self.floor(blocked)
        # while no settled vertex has an open way into t, the sweep cannot
        # reach t, so each portal is searched as soon as it is popped: the
        # same portals in the same order as after a full sweep
        eager = not any(settled(u, state) and not blocked & bit
                        for u, _, bit in self.into[t])
        dist = {pos: 0}
        heap = [(0, idx[pos], pos)]
        portals = []
        while heap:
            d, _, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v == t:
                return True
            if not settled(v, state):
                if not eager:
                    portals.append((d, v))
                elif (yield self._win(v, state, slack - d)):
                    return True
                continue
            for bit, w, weight, _key in self.moves[v]:
                if blocked & bit:
                    continue
                nd = d + weight
                # exact pruning: the floor never overestimates the cost
                # still to pay
                if nd + floor.get(w, UNREACHABLE) > slack:
                    continue
                if nd < dist.get(w, UNREACHABLE):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, idx[w], w))
        for d, v in portals:
            if (yield self._win(v, state, slack - d)):
                return True
        return False

    # -- play helpers ------------------------------------------------------

    def plan_move(self, pos, decided: Mapping) -> Optional[tuple]:
        """Key of the first edge on a cheapest guaranteed route, else None."""
        state = self.know.state(decided)
        if pos == self.inst.t or not self.know.settled(pos, state):
            return None
        ends, prev = self._sweep(pos, state)
        live = [end for end in ends if end[0] != UNREACHABLE]
        if not live:
            return None
        _, _, at = min(live)
        step = None
        while at != pos:
            at, step = prev[at]
        return step

    def best_reveal(self, pos, decided: Mapping) -> dict:
        """Canonical worst reveal at pos: first maximizer in choice order."""
        state = self.know.state(decided)
        if self.know.settled(pos, state):
            return {}
        best, best_val = None, None
        for choice in self.reveal_choices(pos, state):
            val = self.value(pos, choice)
            if best is None or val > best_val:
                best, best_val = choice, val
        return self.know.statuses(pos, state, best)

    def traveller_policy(self):
        """Follow a cheapest guaranteed route, replanned every step."""

        def policy(view):
            key = self.plan_move(view.position, view.decided)
            return ("resign",) if key is None else ("move", key)

        return policy

    def blocker_policy(self):
        """Play the canonical worst reveal."""
        return lambda view: self.best_reveal(view.position, view.decided)


def exact_static_value(inst: Instance, discovery: str = "incident",
                       state_limit: int = STATE_LIMIT):
    """Least cost the walker can guarantee from s to t, UNREACHABLE if none."""
    return StaticGame(inst, discovery, state_limit).entry_value()


def decide_static(inst: Instance, T=None, discovery: str = "incident",
                  state_limit: int = STATE_LIMIT) -> bool:
    """True iff the guaranteed cost is at most T (default: inst.deadline).

    One probe of the threshold search, pruned by ``StaticGame.bounds``;
    exact_static_value finds the value by probes of this same search.
    """
    if T is None:
        T = inst.deadline
    if T is None:
        raise ValueError("no cost bound: pass T or set a deadline")
    return StaticGame(inst, discovery, state_limit).decide(T)
