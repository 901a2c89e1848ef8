"""Window decisions and optimizers for the uninformed model."""
import math
import random

import pytest

from generators import rand_temporal
from oracles import WAIT, rebuilt_expansion
from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge
from tctp import arena, dagctp, expansion, utctp
from tctp.errors import SizeLimitError
from tctp.samples import separating_instance
from tctp.utctp import (
    brute_u_game,
    decide_u,
    earliest_arrival,
    latest_departure,
    shortest_duration,
)


def _chain(k, tau0=0):
    g = TemporalGraph.build(
        ["s", "a", "t"],
        [
            TimeEdge("s", "a", tau0, 1, copies=k + 1),
            TimeEdge("a", "t", tau0 + 1, 1, copies=k + 1),
        ],
    )
    return Instance(g, "s", "t", k)


def test_forced_chain_beats_any_budget():
    for k in range(3):
        inst = _chain(k)
        d = decide_u(inst)
        assert d and d.wins
        assert d.guaranteed_arrival == 2
        assert earliest_arrival(inst) == 2
        assert latest_departure(inst) == 0
        assert shortest_duration(inst) == (0, 2)


def test_standing_at_the_fork_needs_information():
    inst = separating_instance(2)
    d = decide_u(inst)
    assert not d
    assert d.guaranteed_arrival == math.inf
    assert earliest_arrival(inst) is None
    assert latest_departure(inst) is None
    assert shortest_duration(inst) is None


def test_latest_departure_takes_the_late_duplicate():
    edges = [
        TimeEdge("s", "a", 0, 1, copies=2),
        TimeEdge("a", "t", 1, 1, copies=2),
        TimeEdge("s", "a", 5, 1, copies=2),
        TimeEdge("a", "t", 6, 1, copies=2),
    ]
    inst = Instance(TemporalGraph.build(["s", "a", "t"], edges), "s", "t", 1)
    assert latest_departure(inst) == 5
    assert earliest_arrival(inst) == 2


def test_duration_tie_prefers_earlier_start():
    g = TemporalGraph.build(
        ["a", "b"], [TimeEdge("a", "b", 0, 1), TimeEdge("a", "b", 2, 1)]
    )
    inst = Instance(g, "a", "b", 0)
    assert shortest_duration(inst) == (0, 1)


def test_source_equals_target():
    g = TemporalGraph.build(["a", "b"], [TimeEdge("a", "b", 0, 1)])
    inst = Instance(g, "a", "a", 1)
    assert decide_u(inst, 0, 0).wins
    assert earliest_arrival(inst) == 0
    assert latest_departure(inst) == math.inf
    assert shortest_duration(inst) == (0, 0)


def test_window_edges_must_fit_entirely():
    inst = _chain(0)
    assert not decide_u(inst, 1, None).wins
    assert not decide_u(inst, 0, 1).wins
    assert decide_u(inst, 0, 2).wins


def test_deadline_is_the_default_horizon():
    g = _chain(0).graph
    assert not decide_u(Instance(g, "s", "t", 0, deadline=1)).wins
    assert decide_u(Instance(g, "s", "t", 0, deadline=2)).wins


def test_rejects_static_instances():
    sg = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 1)])
    inst = Instance(sg, "a", "b", 0)
    with pytest.raises(ValueError, match="temporal"):
        decide_u(inst)
    with pytest.raises(ValueError, match="temporal"):
        brute_u_game(inst)


def test_bad_window_raises():
    with pytest.raises(ValueError, match="bad window"):
        decide_u(_chain(0), 3, 1)
    with pytest.raises(ValueError, match="bad window"):
        brute_u_game(_chain(0), 3, 1)


def test_each_optimizer_builds_one_table(monkeypatch):
    calls = []
    real = utctp.decide_u
    monkeypatch.setattr(utctp, "decide_u",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    rng = random.Random(23)
    for _ in range(20):
        inst = rand_temporal(rng, max_n=8, max_keys=30, max_tau=12)
        for optimizer in (earliest_arrival, latest_departure, shortest_duration):
            calls.clear()
            optimizer(inst)
            assert len(calls) == 1, optimizer.__name__


def test_decide_u_builds_no_expansion_and_no_dag_table(monkeypatch):
    # neither the decision, the optimizers nor a u playout and its
    # verification materialize the expansion or run the DAG table, and the
    # u pair lays the expansion out once, in its own sweep
    calls = []

    def recorded(name, real):
        return lambda *a, **kw: calls.append(name) or real(*a, **kw)

    for mod in (expansion, dagctp, utctp, arena):
        for name in ("build_expansion", "compute_pi", "layout"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recorded(name, getattr(mod, name)))
    rng = random.Random(24)
    for _ in range(20):
        inst = rand_temporal(rng, max_n=8, max_keys=30, max_tau=12, max_k=3)
        calls.clear()
        decide_u(inst, 1, 9)
        for optimizer in (earliest_arrival, latest_departure, shortest_duration):
            optimizer(inst)
        assert set(calls) == {"layout"}
        calls.clear()
        tp, bp = arena.builtin_policies(inst, "u")
        arena.play(inst, tp, bp, "u")
        arena.verify_traveller_strategy(inst, tp, "u")
        assert calls == ["layout"]


def test_pi_row_runs_only_where_two_departures_undercut_the_wait(monkeypatch):
    # every other row is read off the wait; the nodes with two or more
    # departure arcs below their wait arc are counted on the expansion
    calls = []
    monkeypatch.setattr(utctp, "pi_row",
                        lambda arcs, width, steps: calls.append((arcs, width))
                        or dagctp.pi_row(arcs, width, steps))
    rng = random.Random(25)
    total = 0
    for _ in range(40):
        inst = rand_temporal(rng, max_n=6, max_keys=20, max_tau=8, max_k=3)
        calls.clear()
        decide_u(inst)
        xd = expansion.build_expansion(inst.graph, inst.s, inst.t, inst.k)
        origins = rebuilt_expansion(inst.graph, inst.s, inst.t, inst.k)[1]
        table = dagctp.compute_pi(xd.graph, xd.target, inst.k)

        def row(v):
            return [table.value(v, i) for i in range(inst.k + 1)]

        want = 0
        for node in xd.non_target_nodes():
            out = xd.graph.outgoing(node)
            waits = [e for e in out if origins[e.key] == WAIT]
            if node[0] == inst.t or not waits:  # a vertex's last node has no departure
                continue
            wait = [x + waits[0].weight for x in row(waits[0].v)]
            under = [e for e in out if e not in waits
                     and any(x + e.weight < y for x, y in zip(row(e.v), wait))]
            want += len(under) >= 2
        assert len(calls) == want
        width = dagctp.table_width([e.copies for e in xd.graph.edges], inst.k)
        for arcs, called in calls:
            wait_row, gap, copies = arcs[-1]
            wait = [x + gap for x in wait_row]
            assert copies == called == width and len(arcs) >= 3
            assert all(any(x + d < y for x, y in zip(head, wait)) for head, d, _ in arcs[:-1])
        total += want
    assert total > 0


def test_agrees_with_exhaustive_game():
    rng = random.Random(99)
    for _ in range(60):
        inst = rand_temporal(rng)
        assert decide_u(inst).wins == brute_u_game(inst)


def test_windowed_agreement_with_exhaustive_game():
    rng = random.Random(100)
    for _ in range(40):
        inst = rand_temporal(rng)
        for t1, t2 in ((1, 4), (0, 3), (2, math.inf)):
            assert decide_u(inst, t1, t2).wins == brute_u_game(inst, t1, t2)


def test_oracle_guards_large_instances():
    names = [f"x{i}" for i in range(7)]
    edges = [TimeEdge(names[i], names[i + 1], i, 1) for i in range(6)]
    big = Instance(TemporalGraph.build(names, edges), names[0], names[-1], 0)
    with pytest.raises(SizeLimitError):
        brute_u_game(big)
    assert brute_u_game(big, override=True)

    late = Instance(
        TemporalGraph.build(["a", "b"], [TimeEdge("a", "b", 7, 1)]), "a", "b", 0
    )
    with pytest.raises(SizeLimitError):
        brute_u_game(late)
    assert brute_u_game(late, override=True)

    deep = _chain(3)
    with pytest.raises(SizeLimitError):
        brute_u_game(deep)
    assert brute_u_game(deep, override=True)
