"""Worst-case route tables on DAGs, cross-checked by exhaustive play."""
import random

import pytest

from generators import rand_dag
from tctp import dagctp
from tctp.core import StaticEdge, StaticGraph
from tctp.dagctp import (
    UNREACHABLE,
    blocker_move,
    brute_dag_game,
    compute_pi,
    decide_dag,
    pi_row,
    topological_order,
    traveller_move,
)
from tctp.errors import CyclicGraphError, SizeLimitError


def _triple():
    """Three parallel s->t arcs, weights 1, 2, 5."""
    return StaticGraph.build(
        ["s", "t"],
        [StaticEdge("s", "t", w) for w in (1, 2, 5)],
        directed=True,
    )


def _arcs(g, v) -> list:
    """v's out-arcs as the move functions take them."""
    return [(e.v, e.weight, e.copies, e.key) for e in g.outgoing(v)]


def test_parallel_arcs_climb_the_order():
    g = _triple()
    table = compute_pi(g, "t", 3)
    assert [table.value("s", i) for i in range(4)] == [1, 2, 5, UNREACHABLE]
    assert decide_dag(g, "s", "t", 2, 5)
    assert not decide_dag(g, "s", "t", 2, 4)
    assert brute_dag_game(g, "s", "t", 2) == 5


def test_guarantees_are_monotone_in_budget():
    rng = random.Random(17)
    for _ in range(50):
        inst = rand_dag(rng)
        table = compute_pi(inst.graph, inst.t, inst.k)
        for v in inst.graph.vertices:
            row = [table.value(v, i) for i in range(inst.k + 1)]
            assert row == sorted(row)
            assert table.value(inst.t, 0) == 0


def test_forced_arc_survives_any_budget():
    for k in range(4):
        g = StaticGraph.build(
            ["s", "t"], [StaticEdge("s", "t", 3, copies=k + 1)], directed=True
        )
        assert compute_pi(g, "t", k).value("s", k) == 3


def test_table_matches_exhaustive_game():
    rng = random.Random(5005)
    for _ in range(60):
        inst = rand_dag(rng)
        table = compute_pi(inst.graph, inst.t, inst.k)
        for i in range(inst.k + 1):
            got = brute_dag_game(inst.graph, inst.s, inst.t, i, unlimited=True)
            assert table.value(inst.s, i) == got


def test_traveller_move_picks_cheapest_survivor():
    g = _triple()
    table = compute_pi(g, "t", 2)
    out = _arcs(g, "s")
    assert traveller_move(out, table, 2, {})[1] == 1
    assert traveller_move(out, table, 1, {("s", "t", 1): 1})[1] == 2
    assert traveller_move(out, table, 0, {("s", "t", 1): 1})[1] == 2


def test_traveller_move_errors():
    g = StaticGraph.build(["s", "t"], [StaticEdge("s", "t", 1)], directed=True)
    table = compute_pi(g, "t", 1)
    # every arc blocked: no move
    assert traveller_move(_arcs(g, "s"), table, 0, {("s", "t", 1): 1}) is None
    for remaining in (-1, 2):
        with pytest.raises(ValueError, match="budget index"):
            traveller_move(_arcs(g, "s"), table, remaining, {})


def test_traveller_move_has_no_move_into_a_dead_end():
    # s->a survives, but nothing leads on from a; s->t is blocked
    g = StaticGraph.build(["s", "a", "t"],
                          [StaticEdge("s", "a", 1), StaticEdge("s", "t", 3)],
                          directed=True)
    table = compute_pi(g, "t", 1)
    assert table.value("a", 0) == UNREACHABLE
    assert traveller_move(_arcs(g, "s"), table, 0, {("s", "t", 3): 1}) is None
    assert traveller_move(_arcs(g, "s"), table, 1, {})[3] == ("s", "t", 3)


def test_blocker_move_spends_where_it_hurts():
    g = _triple()
    table = compute_pi(g, "t", 2)
    out = _arcs(g, "s")
    assert blocker_move(out, table, 2) == {("s", "t", 1): 1, ("s", "t", 2): 1}
    assert blocker_move(out, table, 1) == {("s", "t", 1): 1}
    assert blocker_move(out, table, 0) == {}
    with pytest.raises(ValueError, match="remaining budget"):
        blocker_move(out, table, 3)


def test_optimal_playout_realizes_the_table_value():
    # both built-in policies together must land exactly on the guarantee
    rng = random.Random(606)
    finite = 0
    for _ in range(80):
        inst = rand_dag(rng)
        g, k = inst.graph, inst.k
        table = compute_pi(g, inst.t, k)
        want = table.value(inst.s, k)
        if want == UNREACHABLE:
            continue
        finite += 1
        pos, spent, cost = inst.s, 0, 0
        while pos != inst.t:
            newly = blocker_move(_arcs(g, pos), table, k - spent)
            spent += sum(newly.values())
            pos, weight, _, _ = traveller_move(_arcs(g, pos), table, k - spent, newly)
            cost += weight
        assert cost == want
    assert finite > 25


def test_a_shortcut_triangle_matches_exhaustive():
    # Blocker spends its one block on s -> t or, on arrival at a, on a -> t
    arcs = [StaticEdge("s", "a", 1), StaticEdge("s", "t", 1), StaticEdge("a", "t", 1)]
    g = StaticGraph.build(["s", "a", "t"], arcs, directed=True)
    assert compute_pi(g, "t", 1).value("s", 1) == brute_dag_game(g, "s", "t", 1) == 2


def test_topological_order():
    rng = random.Random(3)
    for _ in range(20):
        g = rand_dag(rng).graph
        pos = {v: i for i, v in enumerate(topological_order(g))}
        assert all(pos[e.u] < pos[e.v] for e in g.edges)
    cyc = StaticGraph.build(
        ["a", "b"], [StaticEdge("a", "b", 1), StaticEdge("b", "a", 1)], directed=True
    )
    with pytest.raises(CyclicGraphError):
        topological_order(cyc)
    with pytest.raises(ValueError, match="directed"):
        topological_order(StaticGraph.build(["a"], []))


def test_table_rejects_out_of_range_budget():
    g = _triple()
    table = compute_pi(g, "t", 1)
    with pytest.raises(ValueError, match="budget index"):
        table.value("s", 2)
    with pytest.raises(ValueError, match="budget index"):
        table.value("s", -1)
    with pytest.raises(ValueError, match="unknown target"):
        compute_pi(g, "zzz", 1)
    with pytest.raises(ValueError, match="unknown source"):
        decide_dag(g, "zzz", "t", 1, 9)
    with pytest.raises(ValueError, match="unknown vertex 'zzz'"):
        brute_dag_game(g, "s", "zzz", 1)


def test_exhaustive_search_guard():
    arcs = [StaticEdge("s", "a", w) for w in range(1, 7)]
    arcs.append(StaticEdge("a", "t", 1, copies=4))
    g = StaticGraph.build(["s", "a", "t"], arcs, directed=True)
    with pytest.raises(SizeLimitError):
        brute_dag_game(g, "s", "t", 3)
    assert brute_dag_game(g, "s", "t", 3, unlimited=True) == 5
    assert compute_pi(g, "t", 3).value("s", 3) == 5


def test_a_table_past_its_steps_builds_no_row(monkeypatch):
    """At k = 7,105 the width is 7,106. n3's row (2,004 x 2,004 steps) and
    n2's (1,050 x 1,050) fit, but n0's (4,001 x 4,001) takes the table past
    TABLE_STEPS: every row is charged with the cells, before the first is built."""
    arcs = [StaticEdge(u, v, w, copies=c) for u, v, w, c in (
        ("n0", "n2", 8, 4000), ("n0", "n3", 7, 1), ("n1", "n2", 8, 50),
        ("n2", "n3", 1, 50), ("n2", "n3", 8, 1000), ("n3", "n4", 0, 3),
        ("n3", "n4", 5, 1000), ("n3", "n4", 9, 1001))]
    g = StaticGraph.build([f"n{i}" for i in range(5)], arcs, directed=True)
    built = []
    monkeypatch.setattr(dagctp, "pi_row", lambda *args: built.append(args) or pi_row(*args))
    with pytest.raises(SizeLimitError, match="^budget table exceeded 10000000 steps$"):
        compute_pi(g, "n4", 7105)
    assert built == []
