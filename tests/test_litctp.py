"""Locally-informed game: labels, the single-block solver, exact search."""
import math
import random
from types import SimpleNamespace

import pytest

from generators import enumerate_walks, rand_temporal
from oracles import FullStateLiGame
from tctp.arena import TRAVELLER_WIN, play
from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge
from tctp import litctp
from tctp.errors import SizeLimitError
from tctp.litctp import (
    NEVER,
    LiGame,
    exact_li,
    k1_traveller_policy,
    latest_departure_labels,
    solve_k1,
)
from tctp.samples import separating_instance
from tctp.utctp import decide_u


def _chain(copies):
    return TemporalGraph.build(
        ["s", "a", "t"],
        [
            TimeEdge("s", "a", 0, 1, copies=copies),
            TimeEdge("a", "t", 1, 1, copies=copies),
        ],
    )


# ---------------------------------------------------------------------------
# latest-departure labels


def test_labels_on_a_chain():
    g = _chain(2)
    labels = latest_departure_labels(g, "t")
    assert labels == {"s": 0, "a": 1, "t": math.inf}
    tight = latest_departure_labels(g, "t", deadline=1)
    assert tight == {"s": NEVER, "a": NEVER, "t": 1}
    assert latest_departure_labels(g, "t", deadline=2)["a"] == 1


def _labels_oracle(g, t, deadline, skip=None):
    """Brute restatement: best first departure over all feasible walks."""
    out = {}
    for v in g.vertices:
        if v == t:
            out[v] = deadline
            continue
        best = NEVER
        for verts, steps in enumerate_walks(g, v, 0):
            if verts[-1] != t or not steps:
                continue
            if skip is not None and any(e.key == skip for e, _ in steps):
                continue
            arrival = steps[-1][1] + steps[-1][0].d
            if arrival <= deadline and steps[0][1] > best:
                best = steps[0][1]
        out[v] = best
    return out


def test_labels_match_walk_enumeration():
    rng = random.Random(2112)
    for _ in range(25):
        inst = rand_temporal(rng, max_n=5, max_keys=7, max_tau=4)
        g = inst.graph
        for deadline in (math.inf, 4, 2):
            got = latest_departure_labels(g, inst.t, deadline)
            assert got == _labels_oracle(g, inst.t, deadline)
        single = [e.key for e in g.edges if e.copies == 1]
        for key in single[:2]:
            got = latest_departure_labels(g, inst.t, skip_one=key)
            assert got == _labels_oracle(g, inst.t, math.inf, skip=key)


def test_skip_one_ignores_multicopy_edges():
    g = _chain(2)
    key = ("a", "s", 0, 1)
    assert latest_departure_labels(g, "t", skip_one=key)["s"] == 0
    thin = _chain(1)
    assert latest_departure_labels(thin, "t", skip_one=key)["s"] == NEVER


def test_labels_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        latest_departure_labels(_chain(1), "zzz")


# ---------------------------------------------------------------------------
# single-block certificate


def test_mu_on_chain_and_bridge():
    robust = _chain(2)
    e = {e.key: e for e in robust.edges}[("a", "s", 0, 1)]
    assert latest_departure_labels(robust, "t", math.inf, skip_one=e.key)["s"] == 0
    brittle = _chain(1)
    assert latest_departure_labels(
        brittle, "t", math.inf, skip_one=("a", "s", 0, 1))["s"] == NEVER


def test_solve_k1_chain_and_bridge():
    win = solve_k1(Instance(_chain(2), "s", "t", 1))
    assert win and win.wins
    assert win.pi1 == {"s": 0, "a": 1, "t": math.inf}
    lose = solve_k1(Instance(_chain(1), "s", "t", 1))
    assert not lose.wins
    assert lose.pi1["s"] == NEVER


def test_solve_k1_rejects_other_budgets():
    with pytest.raises(ValueError, match="k=2"):
        solve_k1(Instance(_chain(3), "s", "t", 2))
    sg = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 1)])
    with pytest.raises(ValueError, match="temporal"):
        solve_k1(Instance(sg, "a", "b", 1))


def test_solve_k1_on_the_separating_instance():
    inst = separating_instance(1)
    assert solve_k1(inst).wins
    assert exact_li(inst).wins
    assert not decide_u(inst).wins


def test_solve_k1_matches_exact_search():
    rng = random.Random(4242)
    for _ in range(120):
        inst = rand_temporal(rng, k=1)
        assert solve_k1(inst).wins == exact_li(inst).wins


def test_solve_k1_label_passes_stay_within_vertex_count(monkeypatch):
    # one base pass plus at most one rerun per vertex, however many
    # single-copy edges there are
    passes = []
    real = litctp.latest_departure_labels
    monkeypatch.setattr(litctp, "latest_departure_labels",
                        lambda *a, **kw: passes.append(a) or real(*a, **kw))
    rng = random.Random(17)
    single = 0
    for _ in range(20):
        inst = rand_temporal(rng, max_n=8, max_keys=40, max_tau=10, k=1)
        passes.clear()
        solve_k1(inst)
        assert len(passes) <= len(inst.graph.vertices) + 1
        single = max(single, sum(e.copies == 1 for e in inst.graph.edges))
    assert single > 9  # the per-edge loop would have needed more passes


def test_k1_policy_reads_the_table():
    result = solve_k1(Instance(_chain(2), "s", "t", 1))
    policy = k1_traveller_policy(result)
    fresh = SimpleNamespace(position="s", clock=0, decided={})
    assert policy(fresh) == ("move", ("a", "s", 0, 1))
    seen = SimpleNamespace(position="s", clock=0, decided={("a", "s", 0, 1): 1})
    assert policy(seen) == ("move", ("a", "s", 0, 1))
    stuck = SimpleNamespace(position="s", clock=3, decided={})
    assert policy(stuck) == ("resign",)


# ---------------------------------------------------------------------------
# exact search


def test_separating_instance_splits_the_models():
    inst = separating_instance(2)
    res = exact_li(inst)
    assert res.wins and bool(res)
    assert res.states > 0
    assert not decide_u(inst).wins


def test_fork_wins_whichever_way_the_reveal_goes():
    res = exact_li(separating_instance(2))
    decided = {("s", "v0", 0, 1): 0, ("v0", "v1", 1, 1): 0, ("v0", "v2", 2, 1): 0}
    assert res.traveller_wins("v0", 1, dict(decided))
    blocked = dict(decided)
    blocked[("v0", "v2", 2, 1)] = 1
    assert res.traveller_wins("v0", 1, blocked)


def _naive_li(inst, t1=0, t2=None):
    """Minimax restated without prunings: every count vector is on the table."""
    g, k = inst.graph, inst.k
    if t2 is None:
        t2 = inst.deadline if inst.deadline is not None else math.inf
    incident = {v: sorted(g.incident(v), key=lambda e: e.key) for v in g.vertices}
    memo = {}

    def vectors(edges, cap):
        if not edges:
            yield ()
            return
        e, rest = edges[0], edges[1:]
        for c in range(min(e.copies, cap) + 1):
            for tail in vectors(rest, cap - c):
                yield (c,) + tail

    def win(v, clock, decided):
        if v == inst.t:
            return True
        state = (v, clock, decided)
        if state in memo:
            return memo[state]
        dmap = dict(decided)
        undecided = [e for e in incident[v] if e.key not in dmap]
        result = True
        for vec in vectors(undecided, k - sum(dmap.values())):
            nd = dict(dmap)
            for e, c in zip(undecided, vec):
                nd[e.key] = c
            frozen = tuple(sorted(nd.items()))
            ok = False
            for e in incident[v]:
                if e.tau < clock or e.tau + e.d > t2:
                    continue
                if e.copies - nd[e.key] >= 1 and win(e.other(v), e.tau + e.d, frozen):
                    ok = True
                    break
            if not ok:
                result = False
                break
        memo[state] = result
        return result

    return win(inst.s, t1, ())


def test_exact_search_matches_naive_minimax():
    rng = random.Random(777)
    for _ in range(30):
        inst = rand_temporal(rng, max_n=5, max_keys=6)
        assert exact_li(inst).wins == _naive_li(inst)


def test_windowed_search_matches_naive_minimax():
    rng = random.Random(778)
    for _ in range(20):
        inst = rand_temporal(rng, max_n=5, max_keys=6)
        for t1, t2 in ((1, math.inf), (0, 3)):
            assert exact_li(inst, t1, t2).wins == _naive_li(inst, t1, t2)


def test_a_game_built_directly_searches_on_first_read():
    rng = random.Random(779)
    cases = [separating_instance(1), separating_instance(2)]
    cases += [rand_temporal(rng, max_n=5, max_keys=6) for _ in range(20)]
    for inst in cases:
        game, searched = LiGame(inst), exact_li(inst)
        assert game.states == 0
        assert game.wins == searched.wins == bool(game)
        assert game.states == searched.states


def test_routes_that_differ_only_in_dead_edges_share_a_memo_entry():
    """s reaches c over a or over b, and c's only way on is a dead end. The
    routes settle different edges -- only a's reveal settles a-e -- but at
    c every edge of a and b has departed, so the second route finds the
    first one's memo entry; the full-state reference searches c twice."""
    g = TemporalGraph.build("sabcdet", [
        TimeEdge("s", "a", 0, 1), TimeEdge("s", "b", 0, 1), TimeEdge("a", "e", 0, 1),
        TimeEdge("a", "c", 1, 1), TimeEdge("b", "c", 1, 1), TimeEdge("c", "d", 5, 1)])
    inst = Instance(g, "s", "t", 0)
    game, ref = exact_li(inst), FullStateLiGame(inst)
    assert not game.wins and not ref.wins
    assert [key[0] for key in game.memo].count("c") == 1
    assert [key[0] for key in ref.memo].count("c") == 2
    assert game.states == ref.states - 1


def test_the_builtin_pair_reads_a_long_chain_off_the_memo():
    """On a 3,000-hop chain with k+1 copies per hop nothing can be blocked:
    the search lists each lone reveal without caching its spends, the
    builtin Traveller makes one memo read per move, each a hit that starts
    no search, and the builtin Blocker, offered one reveal at each vertex,
    makes none."""
    names = [f"c{i:04d}" for i in range(3001)]
    edges = [TimeEdge(names[i], names[i + 1], i, 1, copies=4) for i in range(3000)]
    inst = Instance(TemporalGraph.build(names, edges), names[0], names[-1], 3)
    game = exact_li(inst)
    assert game.wins and game.states == 3000
    assert game.know._spends == {}
    calls = {"traveller": 0, "blocker": 0, "searches": 0}
    side = []
    recalled, searched = game._recall, game._wins

    def spy(*args):
        calls[side[-1]] += 1
        return recalled(*args)

    def search_spy(*args):
        calls["searches"] += 1
        return searched(*args)

    def consulted(name, policy):
        def policy_as(view):
            side.append(name)
            return policy(view)
        return policy_as
    game._recall, game._wins = spy, search_spy
    tr = play(inst, consulted("traveller", game.traveller_policy()),
              consulted("blocker", game.blocker_policy()), "li")
    assert tr.outcome == TRAVELLER_WIN and len(tr.moves()) == 3000
    assert calls == {"traveller": 3000, "blocker": 0, "searches": 0}
    assert game.states == 3000 and game.know._spends == {}
    assert game.traveller_wins(names[0], 0, {edges[0].key: 0}) is True


def test_state_limit_guard():
    with pytest.raises(SizeLimitError):
        exact_li(separating_instance(2), state_limit=1)


def test_exact_search_input_checks():
    sg = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 1)])
    with pytest.raises(ValueError, match="temporal"):
        exact_li(Instance(sg, "a", "b", 0))
    with pytest.raises(ValueError, match="bad window"):
        exact_li(separating_instance(1), 3, 1)


def test_exact_search_rejects_a_negative_window_start():
    """exact_li checks the window as play and verify do."""
    with pytest.raises(ValueError, match=r"bad window \[-3, inf\]"):
        exact_li(separating_instance(2), -3)
