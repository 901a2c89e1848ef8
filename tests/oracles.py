"""Straightforward reference versions of the fast polynomial paths.

Each one recomputes, the slow and obvious way, an answer that the library
reads off a shared table or a pruned pass:

* the window optimizers as scans over event times, one ``decide_u`` per
  candidate window;
* the single-block solver with one label pass per single-copy edge and a
  full rescan of the unsettled vertices at every settling step;
* block-group path-freeness by a descendant search from every member head.
"""
import math

from tctp.core import Instance
from tctp.dagctp import BlockGroups
from tctp.litctp import NEVER, Pi1Table, latest_departure_labels
from tctp.utctp import decide_u


def scan_earliest_arrival(inst: Instance):
    if inst.s == inst.t:
        return 0
    for t2 in sorted({e.arrival for e in inst.graph.edges}):
        if decide_u(inst, 0, t2).wins:
            return t2
    return None


def scan_latest_departure(inst: Instance):
    if inst.s == inst.t:
        return math.inf
    for t1 in sorted({e.tau for e in inst.graph.edges}, reverse=True):
        if decide_u(inst, t1, math.inf).wins:
            return t1
    return None


def scan_shortest_duration(inst: Instance):
    if inst.s == inst.t:
        return (0, 0)
    departures = sorted({e.tau for e in inst.graph.edges})
    arrivals = sorted({e.arrival for e in inst.graph.edges})
    best = None
    for t1 in departures:
        for t2 in arrivals:
            if t2 < t1:
                continue
            if best is not None and t2 - t1 >= best[0]:
                break
            if decide_u(inst, t1, t2).wins:
                best = (t2 - t1, t1, t2)
                break
    return (best[1], best[2]) if best else None


def per_edge_k1_table(inst: Instance, T=None) -> Pi1Table:
    """The single-block table with a label rerun for every single-copy edge."""
    g = inst.graph
    if T is None:
        T = inst.deadline if inst.deadline is not None else math.inf
    base = latest_departure_labels(g, inst.t, T)
    cache = {
        e.key: latest_departure_labels(g, inst.t, T, skip_one=e.key)
        for e in g.edges
        if e.copies == 1
    }
    mu, lam1 = {}, {}
    for v in g.vertices:
        if v == inst.t:
            continue
        vals = []
        for e in g.incident(v):
            m = cache[e.key][v] if e.copies == 1 else base[v]
            mu[(v, e.key)] = m
            vals.append(m)
        lam1[v] = min(vals) if vals else math.inf

    pi1 = {inst.t: T}
    nu = {v: NEVER for v in g.vertices if v != inst.t}
    for e in g.incident(inst.t):
        other = e.other(inst.t)
        if e.tau + e.d <= T and e.tau > nu[other]:
            nu[other] = e.tau
    order = [inst.t]
    unsettled = set(nu)
    while unsettled:
        best_v, best_val = None, None
        for v in sorted(unsettled):
            val = min(lam1[v], nu[v])
            if best_v is None or val > best_val:
                best_v, best_val = v, val
        unsettled.discard(best_v)
        pi1[best_v] = best_val
        order.append(best_v)
        for e in g.incident(best_v):
            other = e.other(best_v)
            if other in unsettled and e.tau + e.d <= best_val and e.tau > nu[other]:
                nu[other] = e.tau
    return Pi1Table(pi1, nu, mu, lam1, T, tuple(order))


def groups_share_a_path(g, groups: BlockGroups) -> bool:
    """True iff some directed path holds two arcs of one block group."""
    members = {}
    for e in g.edges:
        members.setdefault(groups.arc_to_group[e.key], []).append(e)

    def reaches(x, y) -> bool:
        seen, stack = {x}, [x]
        while stack:
            z = stack.pop()
            if z == y:
                return True
            for e in g.outgoing(z):
                if e.v not in seen:
                    seen.add(e.v)
                    stack.append(e.v)
        return False

    return any(
        a is not b and reaches(a.v, b.u)
        for arcs in members.values()
        for a in arcs
        for b in arcs
    )
