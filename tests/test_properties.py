"""Property tests: the fast paths against their reference versions.

Each fast path answers from one shared table or a pruned pass; the oracles in
``oracles.py`` recompute the same answers naively on generated instances.
The cross-model laws need no oracle, so they run on larger games.
"""
import dataclasses
import json
import math
import random
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arena_golden import greedy_static, greedy_temporal, wanderer
from generators import rand_dag, rand_temporal, witness_chains
from oracles import (
    FullStateLiGame,
    SINK,
    WAIT,
    chained,
    expansion_pi_table,
    expansion_read_policies,
    full_width_pi_row,
    indented_instance_json,
    mask_choices,
    nsmallest_pi_values,
    outgoing_read_policies,
    per_edge_k1_table,
    rebuilt_expansion,
    reference_parse_instance,
    replayed_li_policies,
    scan_earliest_arrival,
    scan_latest_departure,
    scan_shortest_duration,
    stacked_refute,
    summed_edges,
    unbounded_static_game,
)
from tctp import arena, dagctp, utctp
from tctp.arena import (
    TRAVELLER_WIN,
    Transcript,
    builtin_policies,
    play,
    scripted_blocker,
    solve_weighted,
    verify_traveller_strategy,
)
from tctp.core import (
    Instance,
    StaticEdge,
    StaticGraph,
    TemporalGraph,
    TimeEdge,
    parse_instance,
    serialize_instance,
    window,
)
from tctp.dagctp import UNREACHABLE, TableSteps, brute_dag_game, compute_pi, pi_row, table_width
from tctp.errors import SizeLimitError
from tctp.expansion import TARGET, build_expansion, layout
from tctp.gadgets import CnfFormula, QbfFormula, gen_li_np, gen_li_pspace, gen_static_np
from tctp.knowledge import EMPTY, Knowledge, Ledger
from tctp.litctp import LiGame, exact_li, solve_k1
from tctp.staticctp import StaticGame
from tctp.utctp import decide_u, earliest_arrival, latest_departure, shortest_duration

# derandomized so that every run of the suite checks the same examples
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def temporal_instances(draw, k=None):
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 6),
                  st.integers(1, 2), st.integers(1, 3)).filter(lambda r: r[0] != r[1]),
        max_size=12,
    ))
    edges = [TimeEdge(names[a], names[b], tau, d, copies)
             for a, b, tau, d, copies in records]
    s, t = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    budget = draw(st.integers(0, 2)) if k is None else k
    deadline = draw(st.none() | st.integers(0, 9))
    return Instance(TemporalGraph.build(names, edges), s, t, budget, deadline)


@SETTINGS
@given(temporal_instances())
def test_one_table_optimizers_match_window_scans(inst):
    assert earliest_arrival(inst) == scan_earliest_arrival(inst)
    assert latest_departure(inst) == scan_latest_departure(inst)
    assert shortest_duration(inst) == scan_shortest_duration(inst)


@SETTINGS
@given(temporal_instances(k=1))
def test_sole_witness_k1_matches_per_edge_reruns(inst):
    res = solve_k1(inst)
    want = per_edge_k1_table(inst)
    assert res.wins == (want[inst.s] >= 0)
    # same values, settled in the same order
    assert list(res.pi1.items()) == list(want.items())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_k1_matches_per_edge_reruns_at_hundreds_of_edges(seed, chains, timed):
    """Random draws of 100-600 edges, and deep dominator chains, with and
    without a deadline: the sole-witness rescans give the per-edge reruns'
    table, settled in the same order."""
    rng = random.Random(seed)
    if chains:
        n = rng.randint(100, 300)
        inst = witness_chains(rng, n, rng.randint(0, n // 2))
    else:
        n = rng.randint(25, 150)
        inst = rand_temporal(rng, n, 600, n, k=1, min_n=25, min_keys=100)
    if timed:
        inst = dataclasses.replace(inst, deadline=rng.randint(0, 3 * n))
    assert list(solve_k1(inst).pi1.items()) == list(per_edge_k1_table(inst).items())


@SETTINGS
@given(temporal_instances())
def test_temporal_transcripts_are_walks(inst):
    """The moves the referee lets through under both temporal models form a
    walk from s, for the builtin, greedy and (fouling) wanderer Travellers;
    a win ends that walk at t by the window's end."""
    g = inst.graph
    by_key = {e.key: e for e in g.edges}
    for model in ("li", "u"):
        traveller, blocker = builtin_policies(inst, model)
        for policy in (traveller, greedy_temporal, wanderer):
            tr = play(inst, policy, blocker, model)
            steps = [(by_key[ev["key"]], ev["depart"]) for ev in tr.moves()]
            assert chained(g, inst.s, steps), (model, policy)
            if tr.outcome == TRAVELLER_WIN:
                end = inst.s
                for e, _ in steps:
                    end = e.other(end)
                assert end == inst.t, (model, policy)
                assert not steps or steps[-1][0].arrival <= (
                    math.inf if tr.t2 is None else tr.t2), (model, policy)


@st.composite
def li_windows(draw):
    """(instance, t1, t2): a temporal game from v0 with up to k+1 copies per
    edge, in a window that opens after 0 and may close before some edges
    arrive."""
    k = draw(st.integers(0, 3))
    n = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(n)]
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 7),
                  st.integers(1, 2), st.integers(1, k + 1)).filter(lambda r: r[0] != r[1]),
        min_size=5, max_size=16,
    ))
    edges = [TimeEdge(names[a], names[b], tau, d, copies)
             for a, b, tau, d, copies in records]
    t = draw(st.sampled_from(names[1:]))
    t1 = draw(st.integers(1, 3))
    inst = Instance(TemporalGraph.build(names, edges), names[0], t, k)
    return inst, t1, draw(st.integers(t1, 9))


def _paired(mine, ref, seen: list):
    """Policy ``mine``, noting its answer and ``ref``'s at every view."""
    def policy(view):
        out = mine(view)
        seen.append((out, ref(view)))
        return out
    return policy


# Blocker can spend its one block on s-y, which is dead once the walker
# stands at p, or on p-t at p's reveal: two states at p with the same spend
# and the same live bits apart from p-t, the first edge of p's first
# departure time. A memo key that dropped p-t's bit as well would read the
# lost line for the won one.
_SAME_SPEND = Instance(TemporalGraph.build("pstyz", [
    TimeEdge("s", "p", 0, 1), TimeEdge("s", "y", 1, 1), TimeEdge("p", "t", 3, 1),
    TimeEdge("p", "z", 3, 1), TimeEdge("y", "t", 5, 1, 2)]), "s", "t", 1)


@SETTINGS
@given(li_windows())
@example((_SAME_SPEND, 0, 9))
def test_dead_edge_search_matches_the_full_state_reference(case):
    """Same answer, fewer states, and both policies answer as the reference
    does wherever the builtin Traveller meets every Blocker line and the
    builtin Blocker meets the builtin, greedy and wandering Travellers. The
    builtin Blocker lists reveals only where the live state has two or more,
    and the reveals it weighs block no dead edge."""
    inst, t1, t2 = case
    got, want = LiGame(inst, t1, t2), FullStateLiGame(inst, t1, t2)
    assert got.wins == want.wins
    assert got.states <= want.states
    offered: list = []
    searched = got.reveal_choices

    def spy(v, state):
        offered.append((state, searched(v, state)))
        return offered[-1][1]
    got.reveal_choices = spy
    blocker = got.blocker_policy()

    def weighed(view):
        # the policy's own list is the first one asked for
        del offered[:]
        out = blocker(view)
        # it lists reveals exactly when the live state has more than one
        live = got._live(bisect_left(got.taus, view.clock), got.know.state(view.decided))
        assert bool(offered) == (len(got.know.choices(view.position, live)) > 1)
        if not offered:
            assert out == {}
            return out
        before, choices = offered[0]
        dead = sum(bit for bit, _, (_, _, tau, d) in got.know.entries
                   if tau < view.clock or tau + d > t2)
        assert not any((b & ~before[1]) & dead for _, b, _ in choices)
        return out
    seen: list = []
    tp = _paired(got.traveller_policy(), want.traveller_policy(), seen)
    bp = _paired(weighed, want.blocker_policy(), seen)
    assert verify_traveller_strategy(inst, tp, "li", deadline=t2, t1=t1).ok == got.wins
    mine = play(inst, tp, bp, "li", t1, t2)
    ref = play(inst, want.traveller_policy(), want.blocker_policy(), "li", t1, t2)
    assert _bytes(mine) == _bytes(ref)
    for traveller in (greedy_temporal, wanderer):
        play(inst, traveller, bp, "li", t1, t2)
    assert [a for a, _ in seen] == [b for _, b in seen]


@SETTINGS
@given(li_windows())
@example((_SAME_SPEND, 0, 9))
def test_memo_read_policies_match_the_replaying_reference(case):
    """The builtin Traveller reads its move from the memo and the builtin
    Blocker plays a lone reveal unsearched; the reference pair replays the
    search on a game of its own. The builtin line books no state and adds no
    memo entry. The Travellers answer alike at every position the verifier
    reaches, partial blocks included, and both pairs play the same bytes
    against the builtin, greedy and wandering Travellers."""
    inst, t1, t2 = case
    game = exact_li(inst, t1, t2)
    ref_tp, ref_bp = replayed_li_policies(exact_li(inst, t1, t2))
    searched = game.states, len(game.memo)
    builtin = play(inst, game.traveller_policy(), game.blocker_policy(), "li", t1, t2)
    assert (game.states, len(game.memo)) == searched
    assert _bytes(builtin) == _bytes(play(inst, ref_tp, ref_bp, "li", t1, t2))
    seen: list = []
    tp = _paired(game.traveller_policy(), ref_tp, seen)
    assert verify_traveller_strategy(inst, tp, "li", deadline=t2, t1=t1).ok == game.wins
    bp = _paired(game.blocker_policy(), ref_bp, seen)
    for traveller in (tp, greedy_temporal, wanderer):
        assert _bytes(play(inst, traveller, bp, "li", t1, t2)) == _bytes(
            play(inst, traveller, ref_bp, "li", t1, t2))
    assert [a for a, _ in seen] == [b for _, b in seen]


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_cross_model_laws_hold_past_the_oracle_sizes(seed):
    """On games of up to 30 vertices and 150 keys, no oracle needed: a ``u``
    win is an ``li`` win, neither model turns a loss into a win as k grows,
    and ``solve_k1`` agrees with ``exact_li`` at k = 1."""
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    base = rand_temporal(rng, n, 5 * n, n, k=0)
    u_won = li_won = True
    for k in range(4):
        inst = dataclasses.replace(base, k=k)
        u_wins, li_wins = decide_u(inst).wins, exact_li(inst).wins
        assert li_wins or not u_wins, k
        assert (u_won or not u_wins) and (li_won or not li_wins), k
        if k == 1:
            assert solve_k1(inst).wins == li_wins
        u_won, li_won = u_wins, li_wins


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_u_window_laws_hold_past_the_oracle_sizes(seed):
    """On games of 30-150 time edges, no oracle needed: a ``u`` win never
    turns into a loss as t2 grows or t1 falls; ``earliest_arrival`` e wins
    [0, e] and loses [0, e - 1]; ``latest_departure`` L wins [L, inf) and
    loses [L + 1, inf); ``shortest_duration``'s window wins, no narrower
    window wins, and none as narrow starts earlier."""
    rng = random.Random(seed)
    inst = rand_temporal(rng, max_n=20, max_keys=150, max_tau=20, max_k=3, max_d=3,
                         min_n=6, min_keys=30)

    def wins(t1, t2=math.inf):
        return decide_u(inst, t1, t2).wins

    end = max(e.tau for e in inst.graph.edges)
    starts = sorted(rng.sample(range(end + 1), 4))
    ends = sorted(rng.sample(range(end + 4), 4)) + [math.inf]
    grid = {(t1, t2): wins(t1, t2) for t1 in starts for t2 in ends if t1 <= t2}
    for (t1, t2), won in grid.items():
        assert not won or all(grid[a, b] for a, b in grid if a <= t1 and b >= t2), (t1, t2)
    unbounded = wins(0)
    e = earliest_arrival(inst)
    assert (e is not None) == unbounded
    if e is not None:
        assert wins(0, e) and (e == 0 or not wins(0, e - 1))
    latest = latest_departure(inst)
    assert (latest is not None) == unbounded
    if latest is not None and latest != math.inf:
        assert wins(latest) and not wins(latest + 1)
    best = shortest_duration(inst)
    assert (best is not None) == unbounded
    if best is not None:
        t1, t2 = best
        assert wins(t1, t2)
        for start in range(end + 1):
            assert t2 == t1 or not wins(start, start + t2 - t1 - 1), start
            assert start >= t1 or not wins(start, start + t2 - t1), start


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_dag_laws_hold_past_the_oracle_sizes(seed):
    """On DAGs of 10-15 vertices and 30-50 arcs, past ``brute_dag_game``'s
    reach, the budget table equals the unbounded search over out-arcs at
    k = 0..2, and the value never falls as k grows."""
    base = rand_dag(random.Random(seed), max_n=15, max_arcs=50, max_k=0,
                    min_n=10, min_arcs=30)
    values = [unbounded_static_game(dataclasses.replace(base, k=k), "out").entry_value()
              for k in range(3)]
    assert values == list(compute_pi(base.graph, base.t, 2).values[base.s])
    assert values == sorted(values)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_static_values_never_fall_as_k_grows(seed, directed):
    """On games of 10-15 vertices, undirected (n to 2n edges, incident mode)
    or directed with cycles (2n to 3n arcs, out mode), a larger budget never
    lowers the value the walker can guarantee."""
    rng = random.Random(seed)
    n = rng.randint(10, 15)
    names = [f"u{i}" for i in range(n)]
    edges = [StaticEdge(*rng.sample(names, 2), rng.randint(0, 5), copies=rng.randint(1, 2))
             for _ in range(rng.randint(n, 2 * n) + (n if directed else 0))]
    g = StaticGraph.build(names, edges, directed=directed)
    values = [StaticGame(Instance(g, names[0], names[-1], k),
                         "out" if directed else "incident").entry_value() for k in range(4)]
    assert values == sorted(values)


@st.composite
def small_dags(draw):
    """A random DAG on at most 8 vertices and 14 arcs with 1 or 2 copies each."""
    n = draw(st.integers(3, 8))
    names = [f"n{i}" for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
            lambda p: p[0] < p[1]),
        min_size=2, max_size=14, unique=True,
    ))
    arcs = [StaticEdge(names[i], names[j], draw(st.integers(1, 5)),
                       copies=draw(st.integers(1, 2))) for i, j in pairs]
    g = StaticGraph.build(names, arcs, directed=True)
    return g, names[-1], draw(st.integers(0, 3))


@SETTINGS
@given(small_dags())
def test_budget_table_matches_exhaustive_play(case):
    g, target, k = case
    want = compute_pi(g, target, k).value("n0", k)
    assert brute_dag_game(g, "n0", target, k, unlimited=True) == want


@st.composite
def weighted_dags(draw):
    """A random DAG with zero weights, copies past any budget and dead ends,
    at a budget up to three past the summed copies of its arcs."""
    n = draw(st.integers(2, 8))
    names = [f"n{i}" for i in range(n)]
    arcs = [StaticEdge(names[i], names[j], w, copies=c)
            for i, j, w, c in draw(st.lists(
                st.tuples(st.integers(0, n - 2), st.integers(1, n - 1),
                          st.integers(0, 4), st.integers(1, 12)).filter(
                    lambda a: a[0] < a[1]),
                max_size=20))]
    g = StaticGraph.build(names, arcs, directed=True)
    k = draw(st.integers(0, 8) | st.integers(0, sum(a.copies for a in arcs) + 3))
    return g, draw(st.sampled_from(names)), k


@SETTINGS
@given(weighted_dags())
@example((StaticGraph.build(["n0", "n1"], [StaticEdge("n0", "n1", 1, copies=3)],
                            directed=True), "n1", 3))
def test_sorted_budget_table_matches_nsmallest(case):
    """The table is table_width columns wide, and read at every budget up to
    k it is the full-width, k + 1 column table; an arc of k copies counts
    toward the width."""
    g, target, k = case
    table = compute_pi(g, target, k)
    width = table_width([e.copies for e in g.edges], k)
    assert all(len(row) == width for row in table.values.values())
    full = nsmallest_pi_values(g, target, k)
    assert {v: tuple(table.value(v, i) for i in range(k + 1)) for v in table.values} == full


@st.composite
def row_arcs(draw):
    """(arcs, width) for ``pi_row``: non-decreasing head rows, some ending
    unreachable, and copies up to two past the width."""
    width = draw(st.integers(1, 6))
    arcs = []
    for _ in range(draw(st.integers(0, 4))):
        steps = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        head = [sum(steps[:i + 1]) for i in range(width)]
        cut = draw(st.integers(0, width))
        head[cut:] = [UNREACHABLE] * (width - cut)
        arcs.append((tuple(head), draw(st.integers(0, 5)),
                     draw(st.integers(1, width + 2))))
    return arcs, width


@SETTINGS
@given(row_arcs())
@example(([], 3))
@example(([((0,), 2, 1), ((1,), 0, 1)], 1))
@example(([((0, 1, 1, 4), 2, 1)], 4))
@example(([((0, 1, 2), 1, 3), ((0, 0, 5), 0, 4)], 3))
@example(([((0, 1, 2), 1, 3), ((1, 2, 4), 0, 2)], 3))
@example(([((0, 1, 2), 1, 3), ((0, 5, 5), 0, 1)], 3))
@example(([((0, 2, 4), 0, 3), ((0, 1, 3), 0, 3)], 3))
@example(([((0, 1, UNREACHABLE), 1, 3), ((2, 3, 4), 0, 1)], 3))
@example(([((0, 1, 1), 2, 5), ((2, 3, 9), 0, 1)], 3))
@example(([((0, 0, 0), 0, 2), ((5, 5, 5), 0, 1)], 3))
def test_budget_cut_row_matches_the_full_width_row(case):
    """No out-arc, width 1, a single arc, and copies at or past the width.
    Then wide arcs (width copies or more) beside others: one that others
    only tie or exceed, a narrow arc below it at budget 0 only, two of
    which only the second is never undercut, one that ends unreachable
    beside a finite narrow arc, one with copies past the width, and an arc
    one copy short of wide that nothing undercuts."""
    arcs, width = case
    assert pi_row(arcs, width, TableSteps(0)) == full_width_pi_row(arcs, width)


@SETTINGS
@given(row_arcs())
def test_pi_row_caps_copies_at_the_width(case):
    """Callers pass raw copy counts: a count at or past the width reads as
    the width, however large, and is never expanded."""
    arcs, width = case
    huge = [(head, weight, 2**63 if copies >= width else copies)
            for head, weight, copies in arcs]
    assert pi_row(huge, width, TableSteps(0)) == pi_row(arcs, width, TableSteps(0))


@SETTINGS
@given(temporal_instances(), st.integers(0, 4), st.none() | st.integers(0, 9))
def test_one_pass_expansion_matches_static_graph_build(inst, t1, t2):
    if t2 is not None and t2 < t1:
        t1, t2 = t2, t1
    xd = build_expansion(inst.graph, inst.s, inst.t, inst.k, t1, t2)
    graph, _ = rebuilt_expansion(
        inst.graph, inst.s, inst.t, inst.k, t1, math.inf if t2 is None else t2)
    assert xd.graph.vertices == graph.vertices
    assert xd.graph.edges == graph.edges  # edge equality covers copies
    assert xd.graph.directed


@st.composite
def u_windows(draw):
    """(instance, t1, t2): k up to 4 and copies up to k+2, so the cap binds."""
    k = draw(st.integers(0, 4))
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 6),
                  st.integers(1, 3), st.integers(1, k + 2)).filter(
            lambda r: r[0] != r[1]),
        max_size=14,
    ))
    edges = [TimeEdge(names[a], names[b], tau, d, copies)
             for a, b, tau, d, copies in records]
    s, t = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    t1 = draw(st.integers(0, 4))
    deadline = draw(st.none() | st.integers(t1, 10))
    t2 = draw(st.none() | st.integers(t1, 10))
    return Instance(TemporalGraph.build(names, edges), s, t, k, deadline), t1, t2


@SETTINGS
@given(u_windows())
def test_layout_is_the_rebuilt_expansion_less_waits_and_sinks(case):
    """layout's nodes are the rebuilt expansion's, less its target, latest
    first; a node's departures are its out-arcs other than the wait and the
    sink."""
    inst, t1, t2 = case
    t1, t2 = window(inst, t1, t2)
    nodes, departs = layout(inst.graph, inst.s, t1, t2)
    graph, origins = rebuilt_expansion(inst.graph, inst.s, inst.t, inst.k, t1, t2)
    assert sorted(nodes) == [v for v in graph.vertices if v != TARGET]
    assert all(a[1] >= b[1] for a, b in zip(nodes, nodes[1:]))
    assert set(departs) <= set(nodes)
    for node in nodes:
        entries = departs.get(node, [])
        arcs = [a for a in graph.outgoing(node) if origins[a.key] not in (WAIT, SINK)]
        assert sorted(entries) == sorted((a.v, a.weight, a.copies) for a in arcs)


# k=2: nodes whose departures never undercut the wait, one that does with
# fewer copies than the width and one with the full width, and two that do
_WAIT_RULE = Instance(TemporalGraph.build("abst", [
    TimeEdge("s", "a", 0, 1), TimeEdge("s", "b", 0, 2, 2), TimeEdge("s", "t", 3, 4, 3),
    TimeEdge("a", "t", 1, 1), TimeEdge("a", "t", 2, 1), TimeEdge("b", "t", 2, 3, 2),
    TimeEdge("a", "b", 1, 1)]), "s", "t", 2)


def _tied_wait(k: int) -> Instance:
    """At (s, 0) the edge to t ties the wait and the edge to x leads to an
    unreachable row; (s, 1) is undercut by its full-width edge to t."""
    return Instance(TemporalGraph.build("stx", [
        TimeEdge("s", "t", 0, 2, k + 1), TimeEdge("s", "t", 1, 1, k + 1),
        TimeEdge("s", "x", 0, 1, k + 1)]), "s", "t", k)


@SETTINGS
@given(u_windows())
@example((_WAIT_RULE, 0, None))
@example((_tied_wait(0), 0, None))
@example((_tied_wait(1), 0, None))
@example((_WAIT_RULE, 1, None))
def test_sweep_table_matches_compute_pi_on_the_expansion(case):
    """Each branch of the sweep's wait rule: no departure below the wait,
    one below it with fewer or with width copies, a tie, an unreachable head
    row, two below it, k = 0, and a window opening after time 0."""
    inst, t1, t2 = case
    dec = decide_u(inst, t1, t2)
    # the whole table: every (v, tau) row, an arrival time per entry, is the
    # expansion's cost row plus tau; and the budget
    want = expansion_pi_table(inst, t1, dec.t2)
    assert dec.table.values == {node: tuple(x + node[1] for x in row)
                                for node, row in want.values.items()}
    assert dec.table.budget == want.budget
    # no row falls as the budget grows: the wait rule's closed form needs it
    assert all(list(row) == sorted(row) for row in dec.table.values.values())
    # rows run latest first: the u playout reads each vertex's node times so
    times = [tau for _, tau in dec.table.values]
    assert all(a >= b for a, b in zip(times, times[1:]))


@st.composite
def u_windows_past_the_copies(draw):
    """(instance, t1, t2) with up to six time edges and k up to three past
    2C, C their summed copies: each is two blockable arcs of the expansion."""
    inst, t1, t2 = draw(u_windows())
    edges = inst.graph.edges[:6]
    k = draw(st.integers(0, 2 * sum(e.copies for e in edges) + 3))
    return dataclasses.replace(inst, graph=TemporalGraph.build(inst.graph.vertices, edges),
                               k=k), t1, t2


@SETTINGS
@given(u_windows_past_the_copies())
def test_capped_sweep_reads_as_the_full_width_expansion_table(case):
    """The sweep's rows are table_width over the layout's departures wide,
    and read at every budget up to k they are the k + 1 column table of the
    rebuilt expansion, each entry plus the node's time."""
    inst, t1, t2 = case
    dec = decide_u(inst, t1, t2)
    departs = layout(inst.graph, inst.s, dec.t1, dec.t2)[1]
    width = table_width([c for arcs in departs.values() for _, _, c in arcs], inst.k)
    assert all(len(row) == width for row in dec.table.values.values())
    graph, _ = rebuilt_expansion(inst.graph, inst.s, inst.t, inst.k, dec.t1, dec.t2)
    full = nsmallest_pi_values(graph, TARGET, inst.k)
    for node in dec.table.values:
        assert (tuple(dec.table.value(node, i) for i in range(inst.k + 1))
                == tuple(x + node[1] for x in full[node]))


@st.composite
def crowded_u_windows(draw):
    """(instance, 0, None) on 2-3 vertices with 6-14 edges that depart at
    times 0-2, so that two or more departures often undercut a node's wait."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    names = [f"v{i}" for i in range(n)]
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2),
                  st.integers(1, 2), st.integers(1, k + 2)).filter(lambda r: r[0] != r[1]),
        min_size=6, max_size=14,
    ))
    edges = [TimeEdge(names[a], names[b], tau, d, copies)
             for a, b, tau, d, copies in records]
    return Instance(TemporalGraph.build(names, edges), names[0], names[-1], k), 0, None


# three hops of two parallel 3-copy arcs at a budget past their copies: three
# rows of 36 steps each, every one far below the table's 184
_PARALLEL_HOPS = (StaticGraph.build(["s", "a", "b", "t"], [
    StaticEdge(u, v, w, copies=3) for u, v in (("s", "a"), ("a", "b"), ("b", "t"))
    for w in (1, 2)], directed=True), "t", 100)


@SETTINGS
@given(weighted_dags() | u_windows() | crowded_u_windows())
@example(_PARALLEL_HOPS)
def test_a_table_answers_within_its_direct_step_count(case):
    """Each table counts D steps: a cell per row and column, then reach x
    listed candidates per ``pi_row`` row of two or more arcs, reach the
    columns its copies can fill and listed their copies, each at most the
    width. With TABLE_STEPS at D the DAG table and the ``u`` sweep answer
    as without a limit; at D - 1 they raise, however many rows share D."""
    if isinstance(case[0], StaticGraph):
        g, target, k = case
        width = table_width([e.copies for e in g.edges], k)
        cells = len(g.vertices) * width
        rows = [[e.copies for e in g.outgoing(v)] for v in g.vertices if v != target]

        def build():
            return compute_pi(g, target, k)
        want = build()
    else:
        inst, t1, t2 = case
        t1, t2 = window(inst, t1, t2)
        nodes, departs = layout(inst.graph, inst.s, t1, t2)
        width = table_width([c for arcs in departs.values() for _, _, c in arcs], inst.k)
        cells = len(nodes) * width

        def build():
            return decide_u(inst, t1, t2)
        rows = []
        with mock.patch.object(utctp, "pi_row", lambda arcs, w, steps: rows.append(
                [c for _, _, c in arcs]) or pi_row(arcs, w, steps)):
            want = build()
    d = cells + sum(min(sum(row), width) * sum(min(c, width) for c in row)
                    for row in rows if len(row) >= 2)
    with mock.patch.object(dagctp, "TABLE_STEPS", d):
        assert build() == want
    with mock.patch.object(dagctp, "TABLE_STEPS", d - 1):
        with pytest.raises(SizeLimitError, match=f"^budget table exceeded {d - 1} steps$"):
            build()


def test_table_moves_break_ties_by_head_then_weight():
    """A tie goes to the arc whose (head, weight) sorts first: at (s, 0) of
    the tied wait the wait's head (s, 1) comes before the edge's (t, 2), and
    on a DAG where s -> a -> t ties s -> t, s -> a does."""
    nothing = scripted_blocker([])
    inst = _tied_wait(1)
    tr = play(inst, builtin_policies(inst, "u")[0], nothing, "u")
    assert tr.events[1] == {"type": "WAIT", "at": "s", "until": 1}
    dag = Instance(StaticGraph.build("ast", [
        StaticEdge("s", "a", 1), StaticEdge("a", "t", 1), StaticEdge("s", "t", 2)],
        directed=True), "s", "t", 0)
    assert compute_pi(dag.graph, "t", 0).value("s", 0) == 2
    tr = play(dag, builtin_policies(dag, "dag")[0], nothing, "dag")
    assert tr.moves()[0]["key"] == ("s", "a", 1)


def _bytes(transcript):
    """A transcript's lines, each checked to be ``json.dumps(row,
    sort_keys=True)`` byte for byte: so every playout these properties
    compare, under all four models, checks the writer too."""
    if transcript is None:
        return None
    lines = transcript.to_json_lines()
    assert lines == _dumped(transcript)
    return lines


def _dumped(tr: Transcript) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in tr.rows())


@SETTINGS
@given(u_windows())
def test_u_policies_match_the_expansion_reading_reference(case):
    inst, t1, t2 = case
    got = builtin_policies(inst, "u", t1, t2)
    want = expansion_read_policies(inst, t1, t2)
    assert _bytes(play(inst, *got, "u", t1, t2)) == _bytes(play(inst, *want, "u", t1, t2))
    mine, ref = (verify_traveller_strategy(inst, tp, "u", deadline=t2, t1=t1)
                 for tp, _ in (got, want))
    assert mine.explored == ref.explored
    assert _bytes(mine.counterexample) == _bytes(ref.counterexample)


@st.composite
def dag_games(draw):
    """A random DAG with dead ends, zero and equal weights, names out of
    topological order and 1-3 copies per arc, and a deadline. k is 0-2, one
    below the number of arcs, that number, or past the summed copies (where
    ``solve_weighted``'s table stops)."""
    n = draw(st.integers(2, 7))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    arcs = [StaticEdge(names[i], names[j], w, copies=c)
            for i, j, w, c in draw(st.lists(
                st.tuples(st.integers(0, n - 2), st.integers(1, n - 1),
                          st.sampled_from((0, 1, 1, 2, 3, 4)), st.integers(1, 3)).filter(
                    lambda a: a[0] < a[1]),
                max_size=12))]
    g = StaticGraph.build(names, arcs, directed=True)
    arcs, copies = len(g.edges), sum(e.copies for e in g.edges)
    k = draw(st.integers(0, 2) | st.sampled_from((max(arcs - 1, 0), arcs, copies + 2)))
    inst = Instance(g, names[0], draw(st.sampled_from(names)), k)
    return inst, draw(st.none() | st.integers(0, 12))


@SETTINGS
@given(dag_games())
def test_dag_policies_match_the_outgoing_reading_reference(case):
    """The builtin ``dag`` pair, on ``solve_weighted``'s table, plays and
    verifies as the full-width table read off the graph and as the unbounded
    search over out-arcs, whose value ``solve_weighted`` returns."""
    inst, deadline = case
    got = builtin_policies(inst, "dag")
    game = unbounded_static_game(inst, "out")
    assert solve_weighted(inst)[0] == game.entry_value()
    for want in (outgoing_read_policies(inst),
                 (game.traveller_policy(), game.blocker_policy())):
        assert (_bytes(play(inst, *got, "dag", t2=deadline))
                == _bytes(play(inst, *want, "dag", t2=deadline)))
        mine, ref = (verify_traveller_strategy(inst, tp, "dag", deadline=deadline)
                     for tp, _ in (got, want))
        assert (mine.ok, mine.explored) == (ref.ok, ref.explored)
        assert _bytes(mine.counterexample) == _bytes(ref.counterexample)


@st.composite
def edge_records(draw):
    """(model, vertex names, records) with repeated and reversed records."""
    model = draw(st.sampled_from(("temporal", "static", "dag")))
    names = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1])
    if model == "temporal":
        one = st.builds(lambda p, tau, d, c: TimeEdge(*p, tau, d, c), pairs,
                        st.integers(0, 3), st.integers(1, 2), st.integers(1, 3))
    else:
        one = st.builds(lambda p, w, c: StaticEdge(*p, w, c), pairs,
                        st.integers(0, 2), st.integers(1, 3))
    distinct = draw(st.lists(one, min_size=1, max_size=6))
    records = draw(st.lists(st.sampled_from(distinct), max_size=12))
    return model, names, records


@SETTINGS
@given(edge_records())
def test_parse_merges_records_into_equal_graphs(case):
    model, names, records = case
    if model == "temporal":
        lines = [f"edge {e.u} {e.v} {e.tau} {e.d} {e.copies}" for e in records]
        want = summed_edges(records)
    else:
        lines = [f"edge {e.u} {e.v} {e.weight} {e.copies}" for e in records]
        want = summed_edges(records, directed=model == "dag")
    text = "\n".join([f"model {model}", "vertices " + " ".join(names),
                      f"s {names[0]}", f"t {names[-1]}", "k 1", *lines]) + "\n"
    inst = parse_instance(text)
    assert inst.graph.edges == want


@st.composite
def instances(draw, alphabet="ab@_-.09"):
    """A temporal, static or dag instance: odd vertex names, merged records,
    isolated vertices, with or without a deadline."""
    model, names, records = draw(edge_records())
    odd = draw(st.lists(st.text(alphabet, min_size=1, max_size=3),
                        min_size=len(names), max_size=len(names), unique=True))
    rename = dict(zip(names, odd))
    records = [dataclasses.replace(e, u=rename[e.u], v=rename[e.v]) for e in records]
    if model == "temporal":
        graph = TemporalGraph.build(odd, records)
    else:
        graph = StaticGraph.build(odd, records, directed=model == "dag")
    s, t = draw(st.sampled_from(odd)), draw(st.sampled_from(odd))
    return Instance(graph, s, t, draw(st.integers(0, 3)),
                    draw(st.none() | st.integers(0, 20)))


@SETTINGS
@given(instances())
def test_parse_inverts_serialize(inst):
    for fmt in ("text", "json"):
        assert parse_instance(serialize_instance(inst, fmt)) == inst


# characters JSON escapes: quotes, backslashes, controls, non-ASCII, astral
_ESCAPED = 'a@ "\\\n\t\x00\x7fé☃\u2028😀'


@SETTINGS
@given(instances(_ESCAPED))
@example(Instance(TemporalGraph.build(["é"], []), "é", "é", 0))
def test_instance_json_is_the_indented_dump(inst):
    """The JSON writer's layout is ``json.dumps(..., indent=2)`` of the schema
    dict, byte for byte: every model, with or without a deadline, edgeless
    graphs, escaped names, and time expansions' ``name@time`` and
    ``@target`` vertices."""
    made = [inst]
    if inst.model == "temporal":
        xd = build_expansion(inst.graph, inst.s, inst.t, inst.k)
        made += [Instance(xd.graph, xd.source, xd.target, inst.k, inst.deadline)]
    for one in made:
        assert serialize_instance(one, "json") == indented_instance_json(one)


@st.composite
def transcripts(draw):
    """Transcripts with every event type, tuple keys, escaped names and
    reasons, and numbers that are large, fractional or infinite."""
    name = st.text(_ESCAPED, min_size=1, max_size=3) | st.text(max_size=3)
    number = st.integers(-1, 10**20) | st.floats(allow_nan=False)
    key = st.tuples(name, name, number, number) | st.tuples(name, name, number)
    by = st.sampled_from(("traveller", "blocker"))
    event = st.one_of(
        st.fixed_dictionaries({"type": st.just("REVEAL"), "at": name, "clock": number,
                               "statuses": st.lists(st.tuples(key, number)).map(tuple)}),
        st.fixed_dictionaries({"type": st.just("MOVE"), "key": key, "depart": number,
                               "arrive": number}),
        st.fixed_dictionaries({"type": st.just("WAIT"), "at": name, "until": number}),
        st.fixed_dictionaries({"type": st.just("RESIGN"), "by": by}),
        st.fixed_dictionaries({"type": st.just("FOUL"), "by": by, "reason": st.text()}))
    return Transcript(
        draw(st.sampled_from(arena.MODELS)), draw(name), draw(name), draw(st.integers(0, 3)),
        tuple(draw(st.lists(event, max_size=6))),
        draw(st.sampled_from((TRAVELLER_WIN, arena.BLOCKER_WIN))), draw(number),
        draw(st.integers(0, 3)), draw(st.integers(0, 9)), draw(st.none() | number))


@SETTINGS
@given(transcripts())
def test_transcript_lines_are_json_dumps_rows(tr):
    """Each transcript line is ``json.dumps(row, sort_keys=True)``, byte for
    byte, through json's C encoder and without it."""
    assert tr.to_json_lines() == _dumped(tr)
    with mock.patch.object(arena, "_rows", None):
        assert tr.to_json_lines() == _dumped(tr)


def _keyed(e) -> bool:
    """Whether e's stored key is the tuple of its key fields, its endpoints
    in canonical order, and its repr shows its fields and no key."""
    if isinstance(e, TimeEdge):
        key = (e.u, e.v, e.tau, e.d)
        shown = f"TimeEdge(u={e.u!r}, v={e.v!r}, tau={e.tau!r}, d={e.d!r}, copies={e.copies!r})"
        canonical = e.u < e.v
    else:
        key = (e.u, e.v, e.weight)
        shown = f"StaticEdge(u={e.u!r}, v={e.v!r}, weight={e.weight!r}, copies={e.copies!r})"
        canonical = True
    return canonical and e.key == key and repr(e) == shown and hash(e) == hash(
        type(e)(*key, e.copies))


@SETTINGS
@given(instances(), st.integers(0, 3))
def test_stored_edge_keys_follow_their_fields(inst, shift):
    """The key an edge stores is its fields' tuple however the edge was made:
    by the constructor, by a graph build, by either parse, by
    ``dataclasses.replace`` (reversed endpoints included) or by the time
    expansion."""
    g = inst.graph
    made = list(g.edges)
    for fmt in ("text", "json"):
        made += parse_instance(serialize_instance(inst, fmt)).graph.edges
    if isinstance(g, TemporalGraph):
        made += [dataclasses.replace(e, u=e.v, v=e.u, tau=e.tau + shift) for e in g.edges]
        made += [TimeEdge(e.v, e.u, e.tau, e.d, e.copies) for e in g.edges]
        made += build_expansion(g, inst.s, inst.t, inst.k).graph.edges
    else:
        made += [dataclasses.replace(e, u=e.v, v=e.u, weight=e.weight + shift) for e in g.edges]
    assert all(_keyed(e) for e in made)


def test_gadget_edges_store_their_keys():
    f = CnfFormula.build(2, [(1, 2, 2), (1, -2, -2)])
    made = [*gen_li_pspace(QbfFormula(f)).graph.edges, *gen_static_np(f)[0].graph.edges,
            *gen_li_np(f)[0].graph.edges]
    assert made and all(_keyed(e) for e in made)


@st.composite
def loose_texts(draw):
    """One instance as a file a person might write, in either encoding:
    reversed and parallel records, copies left out, k and deadline possibly
    negative, and a few record fields set to a wrong value or type, dropped
    or added. Text files split the vertex list over several lines, shuffle
    their lines and add comments, tabs, blank lines and CRLF endings. Some
    texts then have a few characters deleted, replaced or inserted."""
    model, names, records = draw(edge_records())
    s, t = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    k, deadline = draw(st.integers(-1, 3)), draw(st.none() | st.integers(-1, 20))
    fields = ("tau", "d") if model == "temporal" else ("weight",)
    rows = []
    for e in records:
        u, v = (e.v, e.u) if draw(st.booleans()) and model != "dag" else (e.u, e.v)
        row = {"u": u, "v": v, **{f: getattr(e, f) for f in fields}}
        if e.copies > 1 or draw(st.booleans()):
            row["copies"] = e.copies
        rows.append(row)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        field = draw(st.sampled_from([*row, "extra"]))
        value = draw(st.sampled_from(
            (-1, 0, 2, "x", "zz", None, True, 1.5, row.get("u"), "drop")))
        if value == "drop":
            row.pop(field, None)
        else:
            row[field] = value
    if draw(st.booleans()):
        data = {"model": model, "vertices": names, "s": s, "t": t, "k": k, "edges": rows}
        if deadline is not None:
            data["deadline"] = deadline
        text = json.dumps(data, indent=draw(st.sampled_from((None, 0, 2))))
    else:
        cut = sorted(draw(st.lists(st.integers(0, len(names)), max_size=2)))
        parts = [names[a:b] for a, b in zip([0, *cut], [*cut, len(names)])]
        lines = [f"model {model}", f"s {s}", f"t {t}", f"k {k}"]
        lines += ["vertices " + " ".join(part) for part in parts]
        lines += ["edge " + " ".join(map(str, row.values())) for row in rows]
        if deadline is not None:
            lines.append(f"deadline {deadline}")
        lines = draw(st.permutations(lines))
        lines = [line.replace(" ", draw(st.sampled_from((" ", "\t", "  \t"))))
                 + draw(st.sampled_from(("", " ", "  # note", "#")))
                 for line in lines]
        for _ in range(draw(st.integers(0, 2))):
            blank = draw(st.sampled_from(("", "# c", "\t")))
            lines.insert(draw(st.integers(0, len(lines))), blank)
        text = draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"
    for _ in range(draw(st.sampled_from((0, 0, 1, 3)))):
        at = draw(st.integers(0, len(text)))
        new = draw(st.text("019-av #{}:,\"\n", max_size=2))
        text = text[:at] + new + text[at + draw(st.integers(0, 2)):]
    return text


def _reading(parse, text):
    try:
        inst = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return inst, serialize_instance(inst), serialize_instance(inst, "json")


@SETTINGS
@given(loose_texts())
@example("model temporal\nvertices a b\ns a\nt b\nk 1\nedge a b 0 1 2\nedge b a 0 1 0\n")
@example('{"model": "static", "vertices": ["a", "b"], "s": "a", "t": "b", "k": 1, "edges": '
         '[{"u": "a", "v": "b", "weight": 1}, {"u": "b", "v": "a", "weight": 1, "copies": 0}]}')
def test_parse_matches_the_reference_reader(text):
    assert _reading(parse_instance, text) == _reading(reference_parse_instance, text)


@st.composite
def blocking_games(draw):
    """A static or directed instance with zero weights, copies past the
    budget, dead ends and vertices that cannot reach t, s and t anywhere,
    with or without a deadline; a directed one may have cycles."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 6))
    names = [f"u{i}" for i in range(n)]
    records = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 5),
                  st.integers(1, 4)).filter(
            lambda r: r[0] != r[1]),
        max_size=12,
    ))
    edges = [StaticEdge(names[a], names[b], w, copies=c) for a, b, w, c in records]
    g = StaticGraph.build(names, edges, directed=directed)
    s, t = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    return Instance(g, s, t, draw(st.integers(0, 3)), draw(st.none() | st.integers(0, 12)))


def _decided(know, state) -> dict:
    """A mapping whose knowledge state is ``state``: every group blocked whole."""
    r, b, _ = state
    return {key: know.copies[key] if b & bit else 0
            for key, bit in know.bit.items() if r & bit}


# the walker tries one branch, finds its bridge blocked and walks back:
# value 30, past the sum of the weights, 20, and three times h, 10
_DETOUR = Instance(StaticGraph.build("sabt", [
    StaticEdge("s", "a", 10), StaticEdge("a", "t", 0),
    StaticEdge("s", "b", 10), StaticEdge("b", "t", 0)]), "s", "t", 1)


@SETTINGS
@given(blocking_games())
@example(_DETOUR)
def test_bounded_static_sweeps_match_the_unbounded_reference(inst):
    for discovery in ("incident", "out"):
        got, want = StaticGame(inst, discovery), unbounded_static_game(inst, discovery)
        assert got.entry_value() == want.entry_value()
        assert got.best_reveal(inst.s, {}) == want.best_reveal(inst.s, {})
        # the value, move and reveal at every position the reference valued
        for (pos, state), value in list(want._values.items()):
            assert got.value(pos, state) == value
            decided = _decided(want.know, state)
            assert got.know.state(decided) == state
            assert got.plan_move(pos, decided) == want.plan_move(pos, decided)
            assert got.best_reveal(pos, decided) == want.best_reveal(pos, decided)
    # the playout of solve-static and the verifier: each model's own discovery mode
    discovery, model = ("out", "dag") if inst.graph.directed else ("incident", "static")
    plays, verdicts = [], []
    for game in (StaticGame(inst, discovery), unbounded_static_game(inst, discovery)):
        tr = play(inst, game.traveller_policy(), game.blocker_policy(), model)
        plays.append(_bytes(tr))
        res = verify_traveller_strategy(inst, game.traveller_policy(), model)
        verdicts.append((res.ok, res.explored, _bytes(res.counterexample)))
    assert plays[0] == plays[1]
    assert verdicts[0] == verdicts[1]


def _reaches_t(inst, pos, blocked) -> bool:
    """Whether pos reaches t over the edges no copy of which is blocked."""
    g, seen, todo = inst.graph, {pos}, [pos]
    while todo:
        v = todo.pop()
        for e in g.edges:
            if e.key in blocked:
                continue
            for tail, head in ((e.u, e.v),) if g.directed else ((e.u, e.v), (e.v, e.u)):
                if tail == v and head not in seen:
                    seen.add(head)
                    todo.append(head)
    return inst.t in seen


@SETTINGS
@given(blocking_games())
@example(_DETOUR)
def test_blocked_set_bounds_bracket_every_reference_value(inst):
    """At every state the reference values, in either discovery mode, the
    bounds of its blocked set hold the value, and the lower one is
    unreachable exactly when the blocked edges cut pos from t."""
    for discovery in ("incident", "out"):
        want = unbounded_static_game(inst, discovery)
        want.entry_value()
        game = StaticGame(inst, discovery)
        for (pos, state), value in list(want._values.items()):
            lower, upper = game.bounds(pos, state)
            assert lower <= value <= upper
            blocked = {key for key, bit in want.know.bit.items() if state[1] & bit}
            assert (lower == UNREACHABLE) == (not _reaches_t(inst, pos, blocked))


@SETTINGS
@given(blocking_games().flatmap(lambda inst: st.integers(
    0, sum(e.copies for e in inst.graph.edges[:5]) + 3).map(lambda k: dataclasses.replace(
        inst, graph=StaticGraph.build(inst.graph.vertices, inst.graph.edges[:5],
                                      directed=inst.graph.directed), k=k))))
def test_capped_bounds_match_the_full_width_bounds(inst):
    """Past the summed copies the down tables stop at table_width columns,
    and every state's bounds are those of k + 1 column tables."""
    want = unbounded_static_game(inst, "incident")
    want.entry_value()
    game = StaticGame(inst, "incident")
    assert game.width == table_width([e.copies for e in inst.graph.edges], inst.k)
    full = StaticGame(inst, "incident")
    full.width = inst.k + 1
    for pos, state in want._values:
        assert game.bounds(pos, state) == full.bounds(pos, state)


@st.composite
def reveal_scopes(draw):
    """(knowledge, state): vertex v's scope is up to 10 of the game's edges in
    any order, some settled or blocked already, part of the budget spent."""
    m = draw(st.integers(1, 12))
    edges = [StaticEdge("a", f"b{i}", 1, copies=c)
             for i, c in enumerate(draw(st.lists(st.integers(1, 4), min_size=m,
                                                 max_size=m)))]
    scope = draw(st.lists(st.sampled_from(range(m)), unique=True, max_size=10))
    k = draw(st.integers(0, 6))
    know = Knowledge([(e.key, e.copies) for e in edges], {"v": scope}, k, 1)
    settled = draw(st.integers(0, (1 << m) - 1))
    blocked = draw(st.integers(0, (1 << m) - 1)) & settled
    return know, (settled, blocked, draw(st.integers(0, k)))


@SETTINGS
@given(reveal_scopes())
def test_budget_bounded_reveals_match_the_mask_filter(case):
    know, state = case
    want = mask_choices(know, "v", state)
    assert know.choices("v", state) == want
    assert know.choices("v", state) == want  # and again from the cache


def test_a_degree_20_hub_has_one_reveal_per_spoke_and_none():
    spokes = [f"x{i}" for i in range(20)]
    static = StaticGraph.build(
        ["s", "t", *spokes],
        [StaticEdge(a, b, 1) for x in spokes for a, b in (("s", x), (x, "t"))])
    assert len(StaticGame(Instance(static, "s", "t", 1)).reveal_choices("s", EMPTY)) == 21
    temporal = TemporalGraph.build(
        ["s", "t", *spokes],
        [TimeEdge(a, b, tau, 1) for x in spokes for a, b, tau in (("s", x, 0), (x, "t", 1))])
    assert len(LiGame(Instance(temporal, "s", "t", 1)).reveal_choices("s", EMPTY)) == 21


@st.composite
def mapping_sequences(draw):
    """(edges, steps, gap): each step lists (edge key, blocked copies) pairs
    that grow, cut or reorder the pairs before them, or change one count,
    and says how to pass them: as a dict, as a snapshot of the ledger, or
    as a snapshot of a new ledger. ``gap`` spaces the state checkpoints."""
    m = draw(st.integers(1, 8))
    edges = [StaticEdge("a", f"b{i}", 1, copies=c)
             for i, c in enumerate(draw(st.lists(st.integers(1, 3), min_size=m,
                                                 max_size=m)))]
    copies = {e.key: e.copies for e in edges}
    items, out = [], []
    for op in draw(st.lists(st.sampled_from(("grow", "sibling", "cut", "reorder")),
                            max_size=12)):
        if op == "grow":
            used = {key for key, _ in items}
            unused = [e.key for e in edges if e.key not in used]
            if unused:
                for key in draw(st.lists(st.sampled_from(unused), unique=True,
                                         min_size=1, max_size=3)):
                    items.append((key, draw(st.integers(0, copies[key]))))
        elif op == "sibling" and items:
            i = draw(st.integers(0, len(items) - 1))
            key, c = items[i]
            items[i] = key, (c + draw(st.integers(1, copies[key]))) % (copies[key] + 1)
        elif op == "cut":
            items = items[:draw(st.integers(0, len(items)))]
        elif op == "reorder":
            items = list(draw(st.permutations(items)))
        out.append((items, draw(st.sampled_from(("dict", "snapshot", "new ledger")))))
    return edges, out, draw(st.integers(1, 3))


@SETTINGS
@given(mapping_sequences())
def test_knowledge_state_reuse_matches_a_fresh_fold(case):
    """A snapshot is taken of the ledger after it is cut back to the longest
    prefix it shares with the step and the rest is added, so a changed count
    re-adds the same keys with other counts in place of the ones folded."""
    edges, steps, gap = case
    know = Knowledge([(e.key, e.copies) for e in edges], {}, 3, 1)
    know.GAP = gap
    ledger = Ledger()
    for items, how in steps:
        decided = want = dict(items)
        if how != "dict":
            if how == "new ledger":
                ledger = Ledger()
            keep = 0
            for old, new in zip(ledger.entries, items):
                if old != new:
                    break
                keep += 1
            ledger.truncate(keep)
            for key, c in items[keep:]:
                ledger.add(key, c)
            decided = ledger.snapshot()
        assert decided == want
        r = b = spent = 0
        for e in edges:
            if e.key in want:
                r |= know.bit[e.key]
                if want[e.key] >= e.copies:
                    b |= know.bit[e.key]
                spent += want[e.key]
        assert know.state(decided) == (r, b, spent)


@st.composite
def arena_games(draw):
    """(model, instance, t1, t2): a game from n0 to the last vertex along a
    path of one- or two-copy edges plus random extra edges; a window for li
    and u, a deadline or none for static and dag."""
    model = draw(st.sampled_from(arena.MODELS))
    n = draw(st.integers(3, 5))
    names = [f"n{i}" for i in range(n)]
    path = [(i, i + 1, i, draw(st.integers(1, 2))) for i in range(n - 1)]
    extra = draw(st.lists(st.tuples(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] < p[1]), st.integers(0, 4), st.integers(1, 3)),
        max_size=7))
    records = path + [(a, b, x, c) for (a, b), x, c in extra]
    k = draw(st.integers(0, 2))
    if model in ("li", "u"):
        edges = [TimeEdge(names[a], names[b], tau, 1, c) for a, b, tau, c in records]
        graph = TemporalGraph.build(names, edges)
        t1 = draw(st.integers(0, 1))
        t2 = draw(st.none() | st.integers(t1, 8))
    else:
        edges = [StaticEdge(names[a], names[b], w, c) for a, b, w, c in records]
        graph = StaticGraph.build(names, edges, directed=model == "dag" or draw(
            st.booleans()))
        t1, t2 = 0, draw(st.none() | st.integers(0, 10))
    return model, Instance(graph, names[0], names[-1], k), t1, t2


def _refuted(refute, rules, policy, limit):
    """(script and explored, or the SizeLimitError message; policy consults)."""
    asked = []

    def counted(view):
        asked.append(None)
        return policy(view)

    try:
        got = refute(rules, counted, limit)
    except SizeLimitError as exc:
        got = str(exc)
    return got, len(asked)


@SETTINGS
@given(arena_games(), st.integers(0, 10**6))
def test_generator_verifier_matches_the_stacked_reference(case, cut):
    """Same script, count and guard trip as the explicit-stack reference, for
    the builtin, greedy and wanderer Travellers."""
    model, inst, t1, t2 = case
    rules = arena._rules(inst, model, t1, t2)
    greedy = greedy_temporal if model in ("li", "u") else greedy_static
    for policy in (builtin_policies(inst, model, t1, t2)[0], greedy, wanderer):
        want = _refuted(stacked_refute, rules, policy, math.inf)
        assert _refuted(arena._refute, rules, policy, math.inf) == want
        explored = want[0][1]
        if explored:
            # the guard trips at the same reveal state, after the same consults
            limit = cut % explored
            tripped = _refuted(stacked_refute, rules, policy, limit)
            assert tripped[0] in (f"verification explored more than {limit} reveal states",
                                  f"verification tried more than {limit} count vectors "
                                  "at one reveal")
            assert _refuted(arena._refute, rules, policy, limit) == tripped
