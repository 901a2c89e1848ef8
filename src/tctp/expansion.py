"""Time expansion of a temporal instance into a layered DAG.

Every surviving time edge (one whose departure lies in the window and whose
arrival beats the horizon) contributes a departure and an arrival node for
each orientation, and one weighted arc per orientation. Waiting at a vertex
becomes a chain of unblockable wait arcs between that vertex's consecutive
time labels, and every (t, tau) node gets unblockable zero-weight arcs into a
single synthetic target, so reaching t at any admissible time is one
reachability question on the DAG.

Blocking a copy of a time edge removes it in both directions, but the two
arcs born from the edge leave from two nodes at its departure time, and no
play stands on both (every arc leads strictly later), so each arc can be
blocked alone. ``layout`` defines the nodes and departure arcs once, for
``build_expansion`` and the ``u`` table, whose rows the ``u`` playout reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Union

from .core import StaticGraph, TemporalGraph, _graph

Node = tuple  # (vertex name, time); the synthetic target is ("@target", 0)

TARGET: Node = ("@target", 0)


@dataclass
class ExpandedDag:
    graph: StaticGraph
    source: Node
    target: Node
    k: int
    t2: Union[int, float]

    def non_target_nodes(self) -> tuple:
        return tuple(v for v in self.graph.vertices if v != self.target)


def layout(g: TemporalGraph, s: str, t1: int, t2) -> tuple:
    """(nodes, departs) of the [t1, t2] expansion, less its target.

    Only time edges with t1 <= tau and tau + d <= t2 take part. nodes lists
    every (vertex, time) node, (s, t1) included, latest first (no arc joins
    two nodes of one time). departs maps a departure node to a (head node,
    d, copies) entry per edge leaving it, in g.edges order.
    """
    departs: dict = {}
    nodes = {(s, t1)}
    for e in g.edges:
        tau, arrival = e.tau, e.arrival
        if tau < t1 or arrival > t2:
            continue
        head_v, head_u = (e.v, arrival), (e.u, arrival)
        departs.setdefault((e.u, tau), []).append((head_v, e.d, e.copies))
        departs.setdefault((e.v, tau), []).append((head_u, e.d, e.copies))
        nodes.add(head_v)
        nodes.add(head_u)
    nodes.update(departs)
    return sorted(nodes, key=itemgetter(1), reverse=True), departs


def build_expansion(
    g: TemporalGraph,
    s: str,
    t: str,
    k: int,
    t1: int = 0,
    t2: Union[int, float, None] = None,
) -> ExpandedDag:
    """Expand g restricted to the window [t1, t2].

    The nodes and departure arcs are ``layout``'s; a (s, t1) node always
    exists, so the degenerate s = t case still reaches the target through
    its sink arcs.
    """
    for x in (s, t):
        if x not in g.index:
            raise ValueError(f"unknown vertex {x!r}")
    if t2 is None:
        t2 = math.inf
    if t1 < 0 or t1 > t2:
        raise ValueError(f"bad window [{t1}, {t2}]")
    nodes, departs = layout(g, s, t1, t2)

    copies_of: dict = {}  # arc key -> copies; no two arcs share a key
    later: dict = {}  # vertex -> time of its next node
    for node in nodes:
        v, tau = node
        for head, d, copies in departs.get(node, ()):
            copies_of[(node, head, d)] = copies
        nxt = later.get(v)
        if nxt is not None:
            copies_of[(node, (v, nxt), nxt - tau)] = k + 1
        if v == t:
            copies_of[(node, TARGET, 0)] = k + 1
        later[v] = tau

    # every endpoint is a node and every key is unique and valid by
    # construction, so the arcs skip the checks of their constructor
    return ExpandedDag(_graph("dag", [*nodes, TARGET], copies_of), (s, t1), TARGET, k, t2)
