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
blocked alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .core import StaticGraph, TemporalGraph, _graph

Node = tuple  # (vertex name, time); the synthetic target is ("@target", 0)
WAIT = "wait"
SINK = "sink"

TARGET: Node = ("@target", 0)


@dataclass
class ExpandedDag:
    graph: StaticGraph
    source: Node
    target: Node
    k: int
    t2: Union[int, float]
    origins: dict

    def non_target_nodes(self) -> tuple:
        return tuple(v for v in self.graph.vertices if v != self.target)


def build_expansion(
    g: TemporalGraph,
    s: str,
    t: str,
    k: int,
    t1: int = 0,
    t2: Union[int, float, None] = None,
) -> ExpandedDag:
    """Expand g restricted to the window [t1, t2].

    Only time edges with t1 <= tau and tau + d <= t2 take part; a (s, t1)
    node always exists, so the degenerate s = t case still reaches the
    target through its sink arcs.
    """
    for x in (s, t):
        if x not in g.index:
            raise ValueError(f"unknown vertex {x!r}")
    if t2 is None:
        t2 = math.inf
    if t1 < 0 or t1 > t2:
        raise ValueError(f"bad window [{t1}, {t2}]")
    surviving = [e for e in g.edges if t1 <= e.tau and e.tau + e.d <= t2]

    nodes = {(s, t1)}
    for e in surviving:
        nodes.update(
            {(e.u, e.tau), (e.v, e.tau), (e.u, e.arrival), (e.v, e.arrival)}
        )

    copies_of: dict = {}  # arc key -> copies; no two arcs share a key
    origins: dict = {}

    def add(u: Node, v: Node, weight: int, copies: int, origin) -> None:
        key = (u, v, weight)
        copies_of[key] = copies
        origins[key] = origin

    for e in surviving:
        add((e.u, e.tau), (e.v, e.arrival), e.d, e.copies, e)
        add((e.v, e.tau), (e.u, e.arrival), e.d, e.copies, e)

    times_of: dict[str, list[int]] = {}
    for name, tau in nodes:
        times_of.setdefault(name, []).append(tau)
    for name, times in sorted(times_of.items()):
        times.sort()
        for a, b in zip(times, times[1:]):
            add((name, a), (name, b), b - a, k + 1, WAIT)

    for tau in sorted(times_of.get(t, [])):
        add((t, tau), TARGET, 0, k + 1, SINK)
    nodes.add(TARGET)

    # every endpoint is a node and every key is unique and valid by
    # construction, so the arcs skip the checks of their constructor
    return ExpandedDag(
        graph=_graph("dag", nodes, copies_of),
        source=(s, t1),
        target=TARGET,
        k=k,
        t2=t2,
        origins=origins,
    )

