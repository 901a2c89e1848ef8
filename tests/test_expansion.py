"""Time expansion: node and arc inventory, windows, values, and the
correspondence between source-to-target paths and temporal walks."""
import math
import random

import pytest

from generators import enumerate_walks, rand_temporal
from oracles import SINK, WAIT, rebuilt_expansion
from tctp.core import TemporalGraph, TimeEdge
from tctp.dagctp import compute_pi
from tctp.expansion import TARGET, build_expansion
from tctp.samples import separating_instance

# (graph, s, t, k, t1, t2) of the figure's expansion
_FIG = (separating_instance(2).graph, "s", "t", 2, 0, 3)


def _fig():
    return build_expansion(*_FIG)


def _pairs(xd):
    return {(arc.u, arc.v): arc for arc in xd.graph.edges}


def test_window_node_inventory():
    xd = _fig()
    # (v2,t) arrives at 4 and falls out of the window, everything else stays
    assert len(xd.non_target_nodes()) == 13
    times = {}
    for name, tau in xd.non_target_nodes():
        times.setdefault(name, set()).add(tau)
    assert times == {
        "s": {0, 1},
        "v0": {0, 1, 2, 3},
        "v1": {1, 2, 3},
        "v2": {2, 3},
        "t": {2, 3},
    }
    assert xd.source == ("s", 0) and xd.target == TARGET


def test_arc_inventory():
    xd, origins = _fig(), rebuilt_expansion(*_FIG)[1]
    kinds = {WAIT: 0, SINK: 0, "edge": 0}
    for arc in xd.graph.edges:
        origin = origins[arc.key]
        kinds["edge" if isinstance(origin, TimeEdge) else origin] += 1
    assert kinds == {"edge": 8, WAIT: 8, SINK: 2}
    arc = _pairs(xd)[(("v0", 2), ("v2", 3))]
    assert arc.weight == 1 and arc.copies == 1


def test_node_count_is_linear_in_surviving_edges():
    rng = random.Random(91)
    for _ in range(40):
        inst = rand_temporal(rng)
        xd = build_expansion(inst.graph, inst.s, inst.t, inst.k)
        assert len(xd.non_target_nodes()) <= 4 * len(inst.graph.edges) + 2


def test_wait_and_sink_arcs_cannot_be_blocked():
    xd, origins = _fig(), rebuilt_expansion(*_FIG)[1]
    for arc in xd.graph.edges:
        origin = origins[arc.key]
        if origin is WAIT:
            assert arc.copies == xd.k + 1
            assert arc.weight == arc.v[1] - arc.u[1]
        elif origin is SINK:
            assert arc.copies == xd.k + 1
            assert arc.weight == 0 and arc.v == TARGET


def test_window_excludes_late_arrivals():
    inst = separating_instance(2)
    tight = build_expansion(inst.graph, "s", "t", 2, 0, 3)
    assert (("t", 3), TARGET) in _pairs(tight)
    assert (("v2", 3), ("t", 4)) not in _pairs(tight)
    wide = build_expansion(inst.graph, "s", "t", 2, 0, None)
    assert (("v2", 3), ("t", 4)) in _pairs(wide)
    assert wide.t2 == math.inf


def test_values_on_the_expansion():
    xd = _fig()
    table = compute_pi(xd.graph, xd.target, 2)
    assert table.value(xd.source, 0) == 3
    assert table.value(xd.source, 2) == math.inf


def _projected_paths(xd, origins):
    """The temporal walk of each source-to-target path, as (edge, depart)
    steps: edge arcs become steps, wait and sink arcs add none. origins
    names each arc's time edge, WAIT or SINK."""
    out = set()

    def go(node, steps):
        if node == xd.target:
            out.add(tuple(steps))
            return
        for arc in xd.graph.outgoing(node):
            origin = origins[arc.key]
            step = [(origin, origin.tau)] if isinstance(origin, TimeEdge) else []
            go(arc.v, steps + step)

    go(xd.source, [])
    return out


def test_expansion_paths_project_onto_exactly_the_feasible_walks():
    # the projections of all source-to-target paths must equal the set of
    # walks of the original graph that start at s, end at t, and respect the
    # window; waiting chains make the map many-to-one, hence set equality
    rng = random.Random(2024)
    for _ in range(25):
        inst = rand_temporal(rng, max_n=4, max_keys=6, max_tau=4)
        g, s, t = inst.graph, inst.s, inst.t
        for t1, t2 in ((0, math.inf), (1, 4), (0, 3)):
            xd = build_expansion(g, s, t, inst.k, t1, t2)
            origins = rebuilt_expansion(g, s, t, inst.k, t1, t2)[1]
            direct = {steps for verts, steps in enumerate_walks(g, s, t1)
                      if verts[-1] == t and (not steps or steps[-1][0].arrival <= t2)}
            assert _projected_paths(xd, origins) == direct


def test_source_equal_target_still_reaches():
    g = TemporalGraph.build(["a", "b"], [TimeEdge("a", "b", 1, 1)])
    xd = build_expansion(g, "a", "a", 1)
    assert (("a", 0), TARGET) in _pairs(xd)
    table = compute_pi(xd.graph, xd.target, 1)
    assert table.value(xd.source, 1) == 0


def test_bad_window_raises():
    g = separating_instance(1).graph
    with pytest.raises(ValueError, match="bad window"):
        build_expansion(g, "s", "t", 1, 3, 2)
    with pytest.raises(ValueError, match="bad window"):
        build_expansion(g, "s", "t", 1, -1, 2)
    with pytest.raises(ValueError, match="unknown vertex"):
        build_expansion(g, "nope", "t", 1)
