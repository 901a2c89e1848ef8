"""Uninformed temporal game: blocked copies surface only at departure time.

Blocker reveals the status of a time edge exactly when Traveller stands at
one of its endpoints at its departure time. This is the blocked-arc game
of ``dagctp`` on the time expansion, whose (vertex, time) nodes form a DAG.
Deciding a window is a budget table over those nodes, filled by one sweep
over ``expansion.layout``'s node list in decreasing time: every arc leads
strictly later, so no graph and no topological order is built, and no node
stands for the target. The table holds guaranteed arrival times (a node's
cost plus its time), so each arc's weight cancels against its head's time
and a wait shares its next node's row (``_sweep``). The playout policies
(``arena.expansion_policies``) read a node's departures off the graph and
its wait off the table, and play it with the moves of ``dag`` play. The
window optimizers (earliest arrival, latest departure, fastest path) read
the one table of the unbounded window, and ``brute_u_game`` replays the
game definition on tiny instances as an independent oracle.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Union

from .core import Instance, TemporalGraph, lifespan, window
from .dagctp import UNREACHABLE, PiTable, TableSteps, pi_row, table_width
from .errors import SizeLimitError
from .expansion import layout


@dataclass
class UDecision:
    wins: bool
    t1: int
    t2: Union[int, float]
    guaranteed_arrival: Union[int, float]
    table: PiTable  # guaranteed arrivals by expansion (vertex, time) node, latest first

    def __bool__(self) -> bool:
        return self.wins


def decide_u(
    inst: Instance, t1: int = 0, t2: Union[int, float, None] = None
) -> UDecision:
    """Can Traveller guarantee reaching t, departing no sooner than t1 and
    arriving by t2, against up to k blocked copies revealed at departure time?
    """
    g = inst.graph
    if not isinstance(g, TemporalGraph):
        raise ValueError("uninformed solver needs a temporal instance")
    t1, t2 = window(inst, t1, t2)
    table = _sweep(g, inst.s, inst.t, inst.k, t1, t2)
    arrival = table.value((inst.s, t1), inst.k)
    return UDecision(arrival != UNREACHABLE, t1, t2, arrival, table)


def _sweep(g: TemporalGraph, s: str, t: str, k: int, t1: int, t2) -> PiTable:
    """The budget table of the [t1, t2] time expansion in arrival times (a
    node's cost plus its time), a row per ``layout`` node, latest first. A
    node of t has the row of its own time. Any other (v, tau) node's
    candidates are the wait to v's next node (width copies) and its
    ``layout`` departures (their copies); every departure node has a wait,
    since the edge's arrival gives both endpoints a later node. A wait's gap
    and a departure's d cancel against its head's time, so each candidate
    row is its head's row as stored. With w the next row, ``pi_row``'s entry
    i, the max over m <= i of the (m+1)-smallest candidate at budget i - m,
    reads only order statistics that the wait's width copies hold to at most
    w. So a departure whose head row is nowhere below w changes no entry and
    is dropped; with none left the node shares the row w. With one left, of
    head row h and c copies, the (m+1)-smallest at budget r is
    min(h[r], w[r]) for m < c and w[r] for m >= c; no row falls as the budget
    grows, so the max sits at m = 0 or m = c: entry i is
    max(min(h[i], w[i]), w[i - c]), the second only when i >= c (c < width).
    Two or more go to ``pi_row`` with the wait, every weight 0: order
    statistics do not move when all candidates shift by tau. The departures
    are the expansion's only blockable arcs, so the width is
    ``compute_pi``'s on ``build_expansion`` with the same arguments, and
    row for row the tables agree, less tau and the expansion's target.
    """
    nodes, departs = layout(g, s, t1, t2)
    width = table_width([c for arcs in departs.values() for _, _, c in arcs], k)
    steps = TableSteps(len(nodes) * width)
    unreachable = (UNREACHABLE,) * width
    values: dict = {}
    later: dict = {}  # v -> the row of v's next node in time
    for node in nodes:
        v, tau = node
        wait = later.get(v)
        if v == t:
            row = (tau,) * width
        elif wait is None:
            row = unreachable
        else:
            under = []
            for head, _, copies in departs.get(node, ()):
                h = values[head]
                for x, y in zip(h, wait):
                    if x < y:
                        under.append((h, 0, copies))
                        break
            if not under:
                row = wait
            elif len(under) == 1:
                h, _, c = under[0]
                # entry i is max(min(h[i], w[i]), w[i - c]), the second only for i >= c
                low = [x if x < y else y for x, y in zip(h, wait)]
                row = tuple(low[:c] + [x if x > y else y for x, y in zip(low[c:], wait)])
            else:
                under.append((wait, 0, width))
                row = pi_row(under, width, steps)
        values[node] = row
        later[v] = row
    return PiTable(values, k)


def _source_arrivals(inst: Instance) -> list:
    """(L, guaranteed arrival from (s, L)) per s node of the (0, inf) expansion.

    Sorted by L. The (t1, t2) game is this game entered at the first s node
    at or after t1: the nodes after it carry the same edges, and nodes that
    only split wait chains change no cost. It wins iff that node's guaranteed
    arrival is at most t2, so one table answers every window.
    """
    dec = decide_u(inst, 0, math.inf)
    return sorted((node[1], dec.table.value(node, inst.k))
                  for node in dec.table.values if node[0] == inst.s)


def earliest_arrival(inst: Instance) -> Optional[int]:
    """Least t2 with a (0, t2) win; None when no window works."""
    dec = decide_u(inst, 0, math.inf)
    return dec.guaranteed_arrival if dec.wins else None


def latest_departure(inst: Instance) -> Union[int, float, None]:
    """Greatest t1 with a (t1, infinity) win; +inf when s = t, else None if none.

    The latest s node with a finite guarantee is the departure time of an
    edge at s: its wait arc leads only to nodes without a finite guarantee,
    so its own guarantee comes from an edge leaving there.
    """
    if inst.s == inst.t:
        return math.inf
    finite = [time for time, arrive in _source_arrivals(inst) if arrive != UNREACHABLE]
    return finite[-1] if finite else None


def shortest_duration(inst: Instance) -> Optional[tuple]:
    """Window (t1, t2) of least width that wins; ties prefer the earlier t1.

    For each departure time t1 the narrowest winning window ends at the
    guaranteed arrival of the first s node at or after t1.
    """
    if inst.s == inst.t:
        return (0, 0)
    labels = _source_arrivals(inst)
    times = [time for time, _ in labels]
    best = None
    for t1 in sorted({e.tau for e in inst.graph.edges}):
        i = bisect.bisect_left(times, t1)
        if i == len(times):
            break
        arrive = labels[i][1]
        if arrive != UNREACHABLE and (best is None or arrive - t1 < best[1] - best[0]):
            best = (t1, arrive)
    return best


def brute_u_game(
    inst: Instance,
    t1: int = 0,
    t2: Union[int, float, None] = None,
    override: bool = False,
) -> bool:
    """Direct game-tree evaluation of the uninformed game (oracle).

    Blocker enumerates every legal count vector over the edges departing from
    Traveller's position at each event time. Guarded to tiny instances
    (<= 6 vertices, lifespan <= 6, k <= 2) unless override is set.
    """
    g = inst.graph
    if not isinstance(g, TemporalGraph):
        raise ValueError("uninformed solver needs a temporal instance")
    t1, t2 = window(inst, t1, t2)
    if not override and (
        len(g.vertices) > 6 or lifespan(g) > 6 or inst.k > 2
    ):
        raise SizeLimitError(
            "instance too large for the brute-force oracle (override to force)"
        )

    live = [e for e in g.edges if t1 <= e.tau and e.tau + e.d <= t2]
    incident: dict = {v: [] for v in g.vertices}
    for e in live:
        incident[e.u].append(e)
        incident[e.v].append(e)

    def next_event(v, time):
        times = [e.tau for e in incident[v] if e.tau >= time]
        return min(times) if times else None

    memo: dict = {}

    def vectors(edges, cap):
        if not edges:
            yield ()
            return
        e, rest = edges[0], edges[1:]
        for c in range(min(e.copies, cap) + 1):
            for tail in vectors(rest, cap - c):
                yield (c,) + tail

    def win(v, arrive, rem) -> bool:
        if v == inst.t:
            return True
        tau = next_event(v, arrive)
        if tau is None:
            return False
        key = (v, tau, rem)
        if key in memo:
            return memo[key]
        departing = sorted(
            (e for e in incident[v] if e.tau == tau), key=lambda e: e.key
        )
        result = True
        for vec in vectors(departing, rem):
            spent = sum(vec)
            ok = win(v, tau + 1, rem - spent)  # wait out this instant
            if not ok:
                for e, blocked in zip(departing, vec):
                    if blocked < e.copies and win(e.other(v), tau + e.d, rem - spent):
                        ok = True
                        break
            if not ok:
                result = False
                break
        memo[key] = result
        return result

    return win(inst.s, t1, inst.k)
