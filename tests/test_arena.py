"""Referee playouts, transcript round trips, and exhaustive policy checks."""
import json
import math
import random
from collections.abc import Mapping
from types import SimpleNamespace

import pytest

import arena_golden
from generators import rand_dag, rand_static, rand_temporal
from tctp.arena import (
    BLOCKER_WIN,
    TRAVELLER_WIN,
    BlockerView,
    LiView,
    Transcript,
    View,
    builtin_policies,
    play,
    scripted_blocker,
    table_policies,
    transcript_traveller_policy,
    verify_traveller_strategy,
)
from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge
from tctp.dagctp import compute_pi
from tctp.errors import SizeLimitError
from tctp.litctp import exact_li
from tctp.samples import separating_instance
from tctp.staticctp import exact_static_value
from tctp.utctp import decide_u


def _no_block(view):
    return {}


def _single_edge_instance():
    g = TemporalGraph.build(["s", "t"], [TimeEdge("s", "t", 3, 1)])
    return Instance(g, "s", "t", 0)


def test_locally_informed_playout_of_the_separating_instance():
    inst = separating_instance(2)
    tr = play(inst, *builtin_policies(inst, "li"), "li")
    assert tr.outcome == TRAVELLER_WIN and bool(tr)
    assert tr.final_time == 4
    assert tr.budget_spent == 0
    assert [m["key"] for m in tr.moves()] == [
        ("s", "v0", 0, 1), ("v0", "v2", 2, 1), ("t", "v2", 3, 1)]
    first = tr.events[0]
    assert first["type"] == "REVEAL" and first["at"] == "s" and first["clock"] == 0


def test_per_instant_playout_resigns_at_the_source():
    # the same instance is a loss when statuses only show up edge by edge
    inst = separating_instance(2)
    tr = play(inst, *builtin_policies(inst, "u"), "u")
    assert tr.outcome == BLOCKER_WIN and not bool(tr)
    assert tr.final_time == 0
    assert [e["type"] for e in tr.events] == ["REVEAL", "RESIGN"]
    assert tr.events[-1]["by"] == "traveller"


def test_scripted_blocker_branches():
    """The informed walker answers whichever cut the script plays."""
    inst = separating_instance(2)
    tpol = exact_li(inst).traveller_policy()

    cut = play(inst, tpol, scripted_blocker([{}, {("v0", "v2", 2, 1): 1}]), "li")
    assert bool(cut) and cut.final_time == 3
    assert [m["key"] for m in cut.moves()] == [
        ("s", "v0", 0, 1), ("v0", "v1", 1, 1), ("t", "v1", 2, 1)]

    open_ = play(inst, tpol, scripted_blocker([]), "li")
    assert bool(open_) and open_.final_time == 4
    assert open_.moves()[1]["key"] == ("v0", "v2", 2, 1)

    # one blocked copy of a three-copy bundle changes nothing
    dent = play(inst, tpol, scripted_blocker([{}, {("v0", "v1", 1, 1): 1}]), "li")
    assert bool(dent) and dent.final_time == 3 and dent.budget_spent == 1


def test_transcript_json_round_trip():
    inst = separating_instance(2)
    tpol = exact_li(inst).traveller_policy()
    tr = play(inst, tpol, scripted_blocker([{}, {("v0", "v2", 2, 1): 1}]), "li")
    assert tr.budget_spent == 1

    text = tr.to_json_lines()
    back = Transcript.from_json_lines(text)
    assert back == tr
    assert back.to_json_lines() == text
    # keys and statuses come back as tuples, not lists
    reveal = next(e for e in back.events if e["type"] == "REVEAL")
    assert all(isinstance(key, tuple) for key, _ in reveal["statuses"])

    with pytest.raises(ValueError, match="header and a footer"):
        Transcript.from_json_lines("{}\n")


def test_replay_policies_reproduce_the_transcript():
    inst = separating_instance(2)
    tpol = exact_li(inst).traveller_policy()
    tr = play(inst, tpol, scripted_blocker([{}, {("v0", "v2", 2, 1): 1}]), "li")

    again = play(inst, transcript_traveller_policy(tr), _recorded_blocker(tr), "li")
    assert again.to_json_lines() == tr.to_json_lines()

    off = SimpleNamespace(position="nowhere", clock=99, decided={})
    assert transcript_traveller_policy(tr)(off) == ("resign",)

    # the same knowledge settled in another order is still on the script
    replay = transcript_traveller_policy(tr)
    for view, action in _consults(inst, tr):
        turned = SimpleNamespace(position=view.position, clock=view.clock,
                                 decided=dict(reversed(list(view.decided.items()))))
        assert replay(turned) == action
    # a sibling reveal settles the same keys with another count: off the line
    other = play(inst, transcript_traveller_policy(tr), scripted_blocker([{}, {}]), "li")
    assert other.events[-1] == {"type": "RESIGN", "by": "traveller"}


def test_builtin_playouts_replay_byte_for_byte():
    # the builtin pairs wait and resign as well as move, so the replay
    # meets every Traveller event a transcript holds
    rng = random.Random(77)
    kinds = set()
    for _ in range(60):
        inst = rand_temporal(rng, max_n=5, max_keys=8, max_tau=6, max_d=3)
        for model in ("u", "li"):
            for t2 in (4, None):
                tr = play(inst, *builtin_policies(inst, model, 0, t2), model, 0, t2)
                kinds.update(e["type"] for e in tr.events)
                again = play(inst, transcript_traveller_policy(tr),
                             _recorded_blocker(tr), model, 0, t2)
                assert again.to_json_lines() == tr.to_json_lines()
    assert {"MOVE", "WAIT", "RESIGN"} <= kinds


def _recorded_blocker(tr):
    """Blocker replaying the transcript's REVEAL statuses in order."""
    return scripted_blocker(dict(e["statuses"]) for e in tr.events
                            if e["type"] == "REVEAL")


def _consults(inst, tr) -> list:
    """(view, action) at each Traveller consult of a replay of ``tr``."""
    replay, seen = transcript_traveller_policy(tr), []

    def traveller(view):
        seen.append((view, replay(view)))
        return seen[-1][1]

    play(inst, traveller, _recorded_blocker(tr), tr.model)
    return seen


def test_wait_is_clamped_to_the_next_reveal():
    inst = _single_edge_instance()

    def waiter(view):
        for e in view.inst.graph.incident(view.position):
            if e.tau == view.clock and e.copies - view.decided.get(e.key, 0) >= 1:
                return ("move", e.key)
        return ("wait", 10)

    tr = play(inst, waiter, _no_block, "u")
    assert bool(tr) and tr.final_time == 4
    assert tr.events[0] == {"type": "WAIT", "at": "s", "until": 3}

    # first arrival already decided everything, so nothing interrupts the wait
    idle = play(inst, lambda v: ("wait", 10) if v.clock < 10 else ("resign",),
                _no_block, "li")
    assert not bool(idle) and idle.final_time == 10
    assert idle.events[-1] == {"type": "WAIT", "at": "s", "until": 10}


def test_window_and_instance_deadline_bound_the_win():
    g = TemporalGraph.build(["s", "t"], [TimeEdge("s", "t", 0, 5)])
    mover = lambda v: ("move", ("s", "t", 0, 5))

    late = play(Instance(g, "s", "t", 0), mover, _no_block, "li", t2=3)
    assert late.outcome == BLOCKER_WIN and late.final_time == 5 and late.t2 == 3

    inherited = play(Instance(g, "s", "t", 0, deadline=3), mover, _no_block, "li")
    assert inherited.outcome == BLOCKER_WIN and inherited.t2 == 3

    wide = play(Instance(g, "s", "t", 0), mover, _no_block, "li", t2=5)
    assert bool(wide) and wide.final_time == 5


def test_static_game_ends_on_a_repeated_state():
    g = StaticGraph.build(["u0", "u1", "u2"], [StaticEdge("u0", "u1", 1)])
    inst = Instance(g, "u0", "u2", 0)
    tr = play(inst, lambda v: ("move", ("u0", "u1", 1)), _no_block, "static")
    # circling is a plain loss, not a foul
    assert tr.outcome == BLOCKER_WIN and tr.final_time == 2
    assert [e["type"] for e in tr.events] == ["REVEAL", "MOVE", "MOVE"]


def test_traveller_fouls_forfeit():
    inst = separating_instance(2)
    bad = [
        (lambda v: "go", "nonempty tuple"),
        (lambda v: ("hop", 1), "unrecognized action"),
        (lambda v: ("move", ("s", "v0", 0, 1), 9), "unrecognized action"),
        (lambda v: ("move", ("x", "y", 0, 1)), "no edge"),
        (lambda v: ("wait", 0), "never passes"),
        (lambda v: ("wait", "soon"), "never passes"),
    ]
    for tp, fragment in bad:
        tr = play(inst, tp, _no_block, "li")
        foul = tr.events[-1]
        assert tr.outcome == BLOCKER_WIN
        assert foul["type"] == "FOUL" and foul["by"] == "traveller"
        assert fragment in foul["reason"]

    wrong_instant = play(_single_edge_instance(),
                         lambda v: ("move", ("s", "t", 3, 1)), _no_block, "u")
    assert "does not depart at instant 0" in wrong_instant.events[-1]["reason"]

    def into_the_cut(view):
        if view.position == "v0":
            return ("move", ("v0", "v2", 2, 1))
        return ("move", ("s", "v0", 0, 1))

    dead = play(inst, into_the_cut,
                lambda v: {("v0", "v2", 2, 1): 1} if v.position == "v0" else {},
                "li")
    assert "no surviving copy" in dead.events[-1]["reason"]


def test_blocker_fouls_forfeit():
    inst = separating_instance(2)
    mover = lambda v: ("move", ("s", "v0", 0, 1))
    bad = [
        (lambda v: [("s", "v0", 0, 1)], "must be a mapping"),
        (lambda v: {("v0", "v1", 1, 1): 1}, "not up for reveal"),
        (lambda v: {("s", "v0", 0, 1): True}, "bad copy count"),
        (lambda v: {("s", "v0", 0, 1): -1}, "bad copy count"),
        (lambda v: {("s", "v0", 0, 1): 9}, "but only 3 exist"),
        (lambda v: {("s", "v0", 0, 1): 3}, "only 2 budget left"),
    ]
    for bp, fragment in bad:
        tr = play(inst, mover, bp, "li")
        foul = tr.events[-1]
        assert tr.outcome == TRAVELLER_WIN
        assert foul["type"] == "FOUL" and foul["by"] == "blocker"
        assert fragment in foul["reason"]


def test_play_validates_model_and_window():
    sep = separating_instance(2)
    stat = Instance(StaticGraph.build(["u0", "u1"], [StaticEdge("u0", "u1", 1)]),
                    "u0", "u1", 0)
    mover = lambda v: ("resign",)
    with pytest.raises(ValueError, match="unknown model"):
        play(sep, mover, _no_block, "omniscient")
    with pytest.raises(ValueError, match="needs a temporal instance"):
        play(stat, mover, _no_block, "li")
    with pytest.raises(ValueError, match="needs a weighted-graph instance"):
        play(sep, mover, _no_block, "static")
    with pytest.raises(ValueError, match="needs a directed graph"):
        play(stat, mover, _no_block, "dag")
    with pytest.raises(ValueError, match="t1 must be 0"):
        play(stat, mover, _no_block, "static", t1=1)
    with pytest.raises(ValueError, match="bad window"):
        play(sep, mover, _no_block, "li", t1=5, t2=2)
    tr = play(stat, lambda v: ("wait", 5), _no_block, "static")
    assert "waiting is not a move" in tr.events[-1]["reason"]


def test_play_and_verify_reject_the_same_inputs():
    sep = separating_instance(2)
    stat = Instance(StaticGraph.build(["u0", "u1"], [StaticEdge("u0", "u1", 1)]),
                    "u0", "u1", 0)
    # a traveller that wins wherever the game is allowed to start
    mover = lambda v: ("move", ("u0", "u1", 1))
    bad = [
        (sep, "omniscient", {}, "unknown model"),
        (stat, "li", {}, "needs a temporal instance"),
        (sep, "static", {}, "needs a weighted-graph instance"),
        (stat, "dag", {}, "needs a directed graph"),
        (stat, "static", {"t1": 1}, "t1 must be 0"),
        (stat, "static", {"t1": 1, "t2": 5}, "t1 must be 0"),
        (sep, "u", {"t1": 5, "t2": 2}, "bad window"),
        (sep, "li", {"t1": -1}, "bad window"),
    ]
    for inst, model, window, fragment in bad:
        with pytest.raises(ValueError, match=fragment):
            play(inst, mover, _no_block, model, **window)
        with pytest.raises(ValueError, match=fragment):
            verify_traveller_strategy(inst, mover, model, t1=window.get("t1", 0),
                                      deadline=window.get("t2"))


def _one_game_per_model() -> tuple:
    sep = separating_instance(2)
    edges = [StaticEdge("s", "a", 1), StaticEdge("a", "t", 1),
             StaticEdge("s", "t", 3)]
    static = Instance(StaticGraph.build(["s", "a", "t"], edges), "s", "t", 1)
    dag = Instance(StaticGraph.build(["s", "a", "t"], edges, directed=True), "s", "t", 1)
    return ("li", sep), ("u", sep), ("static", static), ("dag", dag)


def _last_blocked(view):
    return {view.undecided[-1]: 1} if view.remaining else {}


def test_each_side_sees_its_own_view_type():
    """Only li's Traveller view carries ``visited``; Blocker sees its budget."""
    for model, inst in _one_game_per_model():
        tp, _ = builtin_policies(inst, model)
        travellers, blockers = [], []

        def traveller(view):
            travellers.append(view)
            return tp(view)

        def blocker(view):
            blockers.append(view)
            return _last_blocked(view)

        play(inst, traveller, blocker, model)
        verify_traveller_strategy(inst, traveller, model)
        assert {type(v) for v in travellers} == {LiView if model == "li" else View}
        assert {hasattr(v, "visited") for v in travellers} == {model == "li"}
        assert {type(v) for v in blockers} == {BlockerView}
        assert {v.remaining - (inst.k - v.spent) for v in blockers} == {0}
        assert max(v.spent for v in blockers) > 0, model


def test_stored_views_keep_what_was_known_when_consulted():
    """``decided`` and ``visited`` are snapshots: a view kept after its
    consult still holds what was settled and visited at that consult."""
    for model, inst in _one_game_per_model():
        tp, _ = builtin_policies(inst, model)
        kept = []

        def keeping(policy):
            def consult(view):
                kept.append((view, dict(view.decided),
                             frozenset(getattr(view, "visited", ()))))
                return policy(view)
            return consult

        play(inst, keeping(tp), keeping(_last_blocked), model)
        assert len({len(copy) for _, copy, _ in kept}) > 1, model
        for view, decided, visited in kept:
            assert view.decided == decided and dict(view.decided) == decided, model
            if isinstance(view, LiView):
                assert view.visited == visited and frozenset(view.visited) == visited


def test_an_unhashable_move_key_is_a_foul():
    _, static = _one_game_per_model()[2]
    for inst, model, key in ((separating_instance(2), "li", ["s", "v0", 0, 1]),
                             (static, "static", ["s", "a", 1])):
        tr = play(inst, lambda v: ("move", key), _no_block, model)
        assert tr.outcome == BLOCKER_WIN
        assert tr.events[-1]["type"] == "FOUL" and "no edge" in tr.events[-1]["reason"]
        assert not verify_traveller_strategy(inst, lambda v: ("move", key), model)


class _ListKeyed(Mapping):
    """A reveal whose one key is a list: a Mapping need not hash its keys."""

    def __init__(self, key):
        self.key = key

    def __getitem__(self, key):
        return 1

    def __iter__(self):
        return iter([self.key])

    def __len__(self):
        return 1


def test_an_unhashable_reveal_key_is_a_foul():
    _, static = _one_game_per_model()[2]
    for inst, model, key in ((separating_instance(2), "li", ["s", "v0", 0, 1]),
                             (static, "static", ["s", "a", 1])):
        tr = play(inst, builtin_policies(inst, model)[0], lambda v: _ListKeyed(key), model)
        assert tr.outcome == TRAVELLER_WIN
        foul = tr.events[-1]
        assert foul["type"] == "FOUL" and foul["by"] == "blocker"
        assert foul["reason"] == f"status for {key!r} which is not up for reveal"


def test_golden_corpus_replays_byte_identical():
    """Every recorded transcript and verifier result comes back byte for byte."""
    cases = json.loads(arena_golden.GOLDEN.read_text())
    assert {c["model"] for c in cases} == {"li", "u", "static", "dag"}
    for i, case in enumerate(cases):
        got = arena_golden.replay(case)
        assert got["play"] == case["play"], f"case {i} ({case['model']}): play"
        for name, want in case["verify"].items():
            assert got["verify"][name] == want, f"case {i} ({case['model']}): {name}"


def test_verify_certifies_and_refutes_the_parallel_arcs():
    g = StaticGraph.build(["s", "t"],
                          [StaticEdge("s", "t", w) for w in (1, 2, 5)],
                          directed=True)
    inst = Instance(g, "s", "t", 2)
    tpol, _ = table_policies(inst, compute_pi(g, "t", 2))

    assert verify_traveller_strategy(inst, tpol, "dag", deadline=5).ok

    res = verify_traveller_strategy(inst, tpol, "dag", deadline=4)
    assert not res.ok and not res
    ce = res.counterexample
    assert ce.outcome == BLOCKER_WIN and ce.budget_spent == 2
    blocked = dict(next(e for e in ce.events if e["type"] == "REVEAL")["statuses"])
    assert blocked == {("s", "t", 1): 1, ("s", "t", 2): 1, ("s", "t", 5): 0}
    assert ce.moves()[-1]["arrive"] == 5


def test_verify_explored_budget():
    inst = separating_instance(2)
    tpol = exact_li(inst).traveller_policy()
    with pytest.raises(SizeLimitError) as info:
        verify_traveller_strategy(inst, tpol, "li", limit=1)
    exc = info.value
    assert (exc.phase, exc.reached, exc.limit) == ("verifier reveal states", 2, 1)
    assert str(exc) == "verifier reveal states exceeded 1 (reached 2)"
    res = verify_traveller_strategy(inst, tpol, "li", limit=math.inf)
    assert res.ok and res.counterexample is None and res.explored == 13
    assert verify_traveller_strategy(inst, tpol, "li").ok


def test_builtin_policies_agree_with_the_temporal_solvers():
    rng = random.Random(13)
    for _ in range(40):
        inst = rand_temporal(rng, max_n=5, max_keys=8)
        assert bool(play(inst, *builtin_policies(inst, "li"), "li")) \
            == exact_li(inst).wins
    rng = random.Random(14)
    for _ in range(40):
        inst = rand_temporal(rng, max_n=5, max_keys=7)
        assert bool(play(inst, *builtin_policies(inst, "u"), "u")) \
            == decide_u(inst).wins


def test_builtin_policies_agree_with_the_static_solvers():
    rng = random.Random(15)
    for _ in range(40):
        inst = rand_dag(rng, max_n=6, max_arcs=9)
        val = compute_pi(inst.graph, inst.t, inst.k).value(inst.s, inst.k)
        tr = play(inst, *builtin_policies(inst, "dag"), "dag")
        if math.isinf(val):
            assert not bool(tr)
        else:
            assert bool(tr) and tr.final_time == val
    rng = random.Random(16)
    for _ in range(40):
        inst = rand_static(rng, max_n=5)
        val = exact_static_value(inst)
        tr = play(inst, *builtin_policies(inst, "static"), "static")
        if math.isinf(val):
            assert not bool(tr)
        else:
            assert bool(tr) and tr.final_time == val
