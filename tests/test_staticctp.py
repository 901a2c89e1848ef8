"""Weighted-graph blocking game, checked against definition-style recursions."""
import heapq
import math
import random

import pytest

from generators import rand_dag
from oracles import unbounded_static_game
from tctp import staticctp
from tctp.arena import TRAVELLER_WIN, builtin_policies, play
from tctp.core import Instance, StaticEdge, StaticGraph
from tctp.dagctp import UNREACHABLE, compute_pi
from tctp.errors import SizeLimitError
from tctp.gadgets import CnfFormula, gen_static_np
from tctp.knowledge import EMPTY
from tctp.samples import separating_instance
from tctp.staticctp import (
    StaticGame,
    decide_static,
    exact_static_value,
)

INF = math.inf


def _count_vectors(caps, limit):
    if not caps:
        yield ()
        return
    first, rest = caps[0], caps[1:]
    for c in range(min(first, limit) + 1):
        for tail in _count_vectors(rest, limit - c):
            yield (c,) + tail


def _naive_value(inst):
    """Definition restated: statuses fixed at first visit, full memory,
    revisiting a knowledge state forfeits (waiting in place buys nothing)."""
    g, k, t = inst.graph, inst.k, inst.t

    def val(pos, decided, stack):
        if pos == t:
            return 0
        undecided = sorted(
            (e for e in g.incident(pos) if e.key not in decided),
            key=lambda e: e.key,
        )
        if undecided:
            remaining = k - sum(decided.values())
            worst = None
            for vec in _count_vectors(tuple(e.copies for e in undecided), remaining):
                nd = dict(decided)
                for e, c in zip(undecided, vec):
                    nd[e.key] = c
                sub = val(pos, nd, stack)
                if worst is None or sub > worst:
                    worst = sub
            return worst
        state = (pos, tuple(sorted(decided.items())))
        if state in stack:
            return INF
        best = INF
        for e in g.incident(pos):
            if e.copies - decided[e.key] >= 1:
                sub = val(e.other(pos), decided, stack | {state})
                best = min(best, e.weight + sub)
        return best

    return val(inst.s, {}, frozenset())


def _forgetful_value(inst):
    """Variant where open reveals are forgotten: only blocked copies are
    remembered, so the adversary may settle an open edge again later."""
    g, k, t = inst.graph, inst.k, inst.t

    def val(pos, blocked, stack):
        if pos == t:
            return 0
        inc = sorted(g.incident(pos), key=lambda e: e.key)
        remaining = k - sum(blocked.values())
        worst = None
        caps = tuple(e.copies - blocked.get(e.key, 0) for e in inc)
        for vec in _count_vectors(caps, remaining):
            nb = dict(blocked)
            for e, c in zip(inc, vec):
                if c:
                    nb[e.key] = nb.get(e.key, 0) + c
            state = (pos, tuple(sorted(nb.items())))
            best = INF
            if state not in stack:
                for e in inc:
                    if e.copies - nb.get(e.key, 0) >= 1:
                        sub = val(e.other(pos), nb, stack | {state})
                        best = min(best, e.weight + sub)
            if worst is None or best > worst:
                worst = best
        return worst

    return val(inst.s, {}, frozenset())


def _small_instances(rng, count):
    for _ in range(count):
        n = rng.randint(3, 4)
        names = [f"u{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(2, 5)):
            u, v = rng.sample(names, 2)
            edges.append(StaticEdge(u, v, rng.randint(0, 3), copies=rng.randint(1, 2)))
        g = StaticGraph.build(names, edges)
        yield Instance(g, "u0", names[-1], rng.randint(1, 2))


def _witness():
    edges = [
        StaticEdge("u0", "u1", 1, copies=2),
        StaticEdge("u0", "u2", 0),
        StaticEdge("u1", "u3", 1, copies=2),
        StaticEdge("u2", "u3", 3),
    ]
    g = StaticGraph.build(["u0", "u1", "u2", "u3"], edges)
    return Instance(g, "u0", "u3", 2)


def test_value_matches_definition_recursion():
    rng = random.Random(3131)
    for inst in _small_instances(rng, 60):
        assert exact_static_value(inst) == _naive_value(inst)


def test_remembering_open_reveals_matters():
    inst = _witness()
    assert _naive_value(inst) == 3
    assert exact_static_value(inst) == 3
    assert _forgetful_value(inst) == 5


def test_forgetting_never_helps_the_walker():
    rng = random.Random(2028)
    for inst in _small_instances(rng, 40):
        assert _forgetful_value(inst) >= _naive_value(inst)


def test_decide_thresholds():
    inst = _witness()
    assert decide_static(inst, T=3)
    assert not decide_static(inst, T=2)
    with_deadline = Instance(inst.graph, "u0", "u3", 2, deadline=3)
    assert decide_static(with_deadline)
    with pytest.raises(ValueError, match="no cost bound"):
        decide_static(inst)


def test_decide_agrees_with_value_around_the_threshold():
    rng = random.Random(5151)
    for inst in _small_instances(rng, 40):
        value = exact_static_value(inst)
        for T in (0, 1, 3, 7):
            assert decide_static(inst, T=T) == (value <= T)
        if value != UNREACHABLE:
            assert decide_static(inst, T=value)
            assert not decide_static(inst, T=value - 1)


def _dijkstra_to(g, t):
    dist = {t: 0}
    heap = [(0, t)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e in g.edges:
            if g.directed:
                pairs = [(e.v, e.u)]
            else:
                pairs = [(e.v, e.u), (e.u, e.v)]
            for head, tail in pairs:
                if head == v and d + e.weight < dist.get(tail, INF):
                    dist[tail] = d + e.weight
                    heapq.heappush(heap, (dist[tail], tail))
    return dist


def test_everything_open_bound_is_plain_shortest_path():
    rng = random.Random(66)
    for inst in _small_instances(rng, 30):
        game = StaticGame(inst)
        assert game.floor(0) == _dijkstra_to(inst.graph, inst.t)


def test_reveal_choices_spend_cheapest_first():
    inst = _witness()
    game = StaticGame(inst)
    states = game.reveal_choices("u0", EMPTY)
    choices = [game.know.statuses("u0", EMPTY, st) for st in states]
    spends = [sum(c.values()) for c in choices]
    assert spends == [st[2] for st in states] == [0, 1, 2]
    assert choices[0] == {("u0", "u1", 1): 0, ("u0", "u2", 0): 0}
    assert choices[1][("u0", "u2", 0)] == 1
    assert choices[2][("u0", "u1", 1)] == 2
    for choice in choices:
        for e in inst.graph.incident("u0"):
            assert choice[e.key] in (0, e.copies)


def test_out_discovery_reproduces_the_layered_table():
    triple = StaticGraph.build(
        ["s", "t"], [StaticEdge("s", "t", w) for w in (1, 2, 5)], directed=True
    )
    assert unbounded_static_game(Instance(triple, "s", "t", 2), "out").entry_value() == 5
    rng = random.Random(909)
    for _ in range(40):
        inst = rand_dag(rng, max_n=6, max_arcs=10)
        got = unbounded_static_game(inst, "out").entry_value()
        assert got == compute_pi(inst.graph, inst.t, inst.k).value(inst.s, inst.k)


def test_out_discovery_reads_no_budget_table(monkeypatch):
    """The unbounded out-mode reference cross-checks ``compute_pi``, so it
    must not read a row of that table itself: with the row kernel removed it
    still solves and plays every DAG."""
    def no_row(arcs, width, steps):
        raise AssertionError("the out-mode reference read a budget-table row")
    monkeypatch.setattr(staticctp, "pi_row", no_row)
    assert not hasattr(staticctp, "compute_pi")
    rng = random.Random(4242)
    for _ in range(40):
        inst = rand_dag(rng, max_n=6, max_arcs=10)
        game = unbounded_static_game(inst, "out")
        assert game.entry_value() == compute_pi(inst.graph, inst.t, inst.k).value(
            inst.s, inst.k)
        play(inst, game.traveller_policy(), game.blocker_policy(), "dag")


def test_canonical_play_realizes_the_value():
    rng = random.Random(1212)
    checked = 0
    for inst in list(_small_instances(rng, 40)) + [_witness()]:
        game = StaticGame(inst)
        value = game.entry_value()
        if value == UNREACHABLE:
            continue
        checked += 1
        weight_of = {e.key: e.weight for e in inst.graph.edges}
        pos, decided, cost, steps = inst.s, {}, 0, 0
        while pos != inst.t:
            decided.update(game.best_reveal(pos, decided))
            key = game.plan_move(pos, decided)
            assert key is not None
            cost += weight_of[key]
            u, v, _w = key
            pos = v if pos == u else u
            steps += 1
            assert steps <= 60, "canonical play must not cycle"
        assert cost == value
    assert checked > 15


def test_two_clause_gadget_is_valued_within_a_small_state_limit():
    """Probes of the threshold search, sharing its bands, value the two-clause
    sat4 gadget in a few thousand knowledge states, and the builtin pair
    realizes that value."""
    inst, _ = gen_static_np(CnfFormula.build(1, [(-1, -1, -1), (-1, -1, -1)]))
    assert StaticGame(inst, state_limit=50_000).entry_value() == 195
    tr = play(inst, *builtin_policies(inst, "static"), "static")
    assert (tr.outcome, tr.final_time) == (TRAVELLER_WIN, 195)


def test_policy_wrappers_delegate():
    inst = _witness()
    game = StaticGame(inst)

    class View:
        position = "u0"
        decided = {}
        clock = 0

    reveal = game.blocker_policy()(View())
    assert set(reveal.values()) <= {0, 1, 2}
    decided = dict(reveal)
    View.decided = decided
    verb, key = game.traveller_policy()(View())
    assert verb == "move"
    assert key in {e.key for e in inst.graph.incident("u0")}


def test_state_limit_guard():
    with pytest.raises(SizeLimitError):
        exact_static_value(_witness(), state_limit=1)


def test_input_checks():
    with pytest.raises(TypeError, match="non-static"):
        StaticGame(separating_instance(1))
    with pytest.raises(ValueError, match="discovery"):
        StaticGame(_witness(), discovery="sideways")


def test_source_equals_target():
    g = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 4)])
    inst = Instance(g, "a", "a", 1)
    assert exact_static_value(inst) == 0
    assert decide_static(inst, T=0)
