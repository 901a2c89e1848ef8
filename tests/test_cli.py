"""End-to-end runs of the command line through ``dispatch``."""
import contextlib
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import layered_dag, magnitudes, rand_temporal
from tctp import arena, cli
from tctp.arena import BLOCKER_WIN, TRAVELLER_WIN, Transcript
from tctp.cli import dispatch
from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge, \
    parse_instance, serialize_instance
from tctp.errors import TABLE_CELLS, TABLE_STEPS
from tctp.litctp import exact_li
from tctp.samples import separating_instance
from tctp.utctp import decide_u


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write(tmp_path, name, inst):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.fixture()
def sep_file(tmp_path):
    return _write(tmp_path, "sep.ctp", separating_instance(2))


@pytest.fixture()
def triple_file(tmp_path):
    g = StaticGraph.build(["s", "t"],
                          [StaticEdge("s", "t", w) for w in (1, 2, 5)],
                          directed=True)
    return _write(tmp_path, "triple.ctp", Instance(g, "s", "t", 2))


def test_solve_u_reports_the_blocker_win(sep_file):
    code, out, _ = _run(["solve-u", sep_file])
    assert code == 3
    assert out == "Blocker wins window [0, inf]\n"

    code, out, _ = _run(["solve-u", sep_file, "--format", "json"])
    assert code == 3
    assert json.loads(out) == {"objective": "decide", "wins": False,
                               "window": [0, None], "guaranteed_arrival": None}

    # global flags are accepted on either side of the subcommand
    _, before, _ = _run(["--format", "json", "solve-u", sep_file])
    assert before == out

    code, out, _ = _run(["solve-u", sep_file, "--quiet"])
    assert code == 3 and out == ""


def test_solve_li_exact_appends_a_transcript(sep_file):
    code, out, _ = _run(["solve-li", "--exact", sep_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Traveller wins"
    tr = Transcript.from_json_lines("\n".join(lines[1:]))
    assert tr.outcome == TRAVELLER_WIN and tr.final_time == 4

    again = _run(["solve-li", "--exact", sep_file])
    assert again == (code, out, "")


@st.composite
def li_games(draw):
    """(instance, deadline flag value): a temporal game with up to k+1
    copies per edge, an optional deadline in the file and another, or none,
    on the command line."""
    k = draw(st.integers(0, 2))
    names = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=10))
    edges = [TimeEdge(u, v, draw(st.integers(0, 6)), draw(st.integers(1, 2)),
                      draw(st.integers(1, k + 1))) for u, v in pairs]
    inst = Instance(TemporalGraph.build(names, edges), names[0], draw(st.sampled_from(names)),
                    k, draw(st.none() | st.integers(0, 8)))
    return inst, draw(st.none() | st.integers(0, 8))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(li_games())
def test_solve_li_exact_prints_the_transcript_play_prints(tmp_path_factory, case):
    """Everything ``solve-li --exact [--deadline N]`` prints after its answer
    line is what ``play --model li [--t2 N]`` prints, and under --format json
    its "transcript" is play's object."""
    inst, deadline = case
    path = _write(tmp_path_factory.mktemp("li"), "game.ctp", inst)
    solve, replay = ["solve-li", "--exact", path], ["play", path, "--model", "li"]
    if deadline is not None:
        solve, replay = solve + ["--deadline", str(deadline)], replay + ["--t2", str(deadline)]
    code, out, err = _run(solve)
    played = _run(replay)
    assert err == "" and played[0] == code and played[2] == ""
    answer, transcript = out.split("\n", 1)
    assert answer == ("Traveller wins" if code == 0 else "Blocker wins")
    assert transcript == played[1]
    solved_json = json.loads(_run(solve + ["--format", "json"])[1])
    assert solved_json["transcript"] == json.loads(_run(replay + ["--format", "json"])[1])


def test_solve_li_k1_prints_the_safety_table(tmp_path):
    path = _write(tmp_path, "sep1.ctp", separating_instance(1))
    code, out, _ = _run(["solve-li", path])
    assert code == 0
    assert out.splitlines()[:3] == ["Traveller wins", "vertex\tlatest_safe", "s\t0"]
    assert "t\tinf" in out.splitlines()

    code, out, _ = _run(["solve-li", path, "--format", "json"])
    obj = json.loads(out)
    assert obj["wins"] is True
    assert obj["pi1"] == {"s": 0, "t": "inf", "v0": 1, "v1": 1, "v2": 3}


def test_solve_li_k1_prints_never_for_a_hopeless_source(tmp_path):
    # one single-copy edge: Blocker blocks it, so no vertex but t is safe
    g = TemporalGraph.build(["s", "a", "t"], [TimeEdge("s", "t", 0, 1)])
    path = _write(tmp_path, "bridge.ctp", Instance(g, "s", "t", 1))
    code, out, _ = _run(["solve-li", path])
    assert code == 3
    assert out == "Blocker wins\nvertex\tlatest_safe\na\tnever\ns\tnever\nt\tinf\n"

    code, out, _ = _run(["solve-li", path, "--format", "json"])
    assert code == 3
    assert json.loads(out) == {"k": 1, "deadline": None, "wins": False,
                               "pi1": {"a": "never", "s": "never", "t": "inf"}}


def test_dag_solve_value_and_table(tmp_path, triple_file):
    code, out, _ = _run(["dag-solve", triple_file])
    assert (code, out) == (0, "pi_2(s) = 5\n")

    code, out, _ = _run(["dag-solve", "--table", triple_file])
    assert out.splitlines() == [
        "pi_2(s) = 5", "vertex\tpi_0\tpi_1\tpi_2", "s\t1\t2\t5", "t\t0\t0\t0"]

    code, out, _ = _run(["dag-solve", "--table", triple_file, "--format", "json"])
    obj = json.loads(out)
    assert obj == {"source": "s", "k": 2, "value": 5,
                   "table": {"s": [1, 2, 5], "t": [0, 0, 0]}}

    cut = StaticGraph.build(["s", "t"], [], directed=True)
    path = _write(tmp_path, "cut.ctp", Instance(cut, "s", "t", 1))
    code, out, _ = _run(["dag-solve", path])
    assert code == 3 and out == "pi_1(s) = UNREACHABLE\n"


def test_expand_pipes_into_dag_solve(tmp_path, sep_file):
    code, out, _ = _run(["expand", sep_file])
    assert code == 0
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert comments[0] == "# time expansion, window [0, inf]"
    assert any(l.startswith("# nodes: s@0 s@1") for l in comments)

    body = "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"
    inst = parse_instance(body)
    assert inst.model == "dag" and inst.s == "s@0" and inst.t == "@target"
    assert len(inst.graph.vertices) == 16

    path = tmp_path / "xp.ctp"
    path.write_text(body)
    code, out, _ = _run(["dag-solve", str(path)])
    # losing per-instant game: every budget-2 line is cut somewhere
    assert code == 3 and out == "pi_2(s@0) = UNREACHABLE\n"

    code, out, _ = _run(["expand", sep_file, "--format", "json"])
    assert parse_instance(out).graph.vertices == inst.graph.vertices


def test_solve_u_objectives_on_a_forced_chain(tmp_path, sep_file):
    g = TemporalGraph.build(["s", "a", "t"],
                            [TimeEdge("s", "a", 0, 1, copies=3),
                             TimeEdge("a", "t", 1, 1, copies=3)])
    path = _write(tmp_path, "chain.ctp", Instance(g, "s", "t", 2))

    code, out, _ = _run(["solve-u", path])
    assert (code, out) == (0, "Traveller wins window [0, inf]: guaranteed arrival 2\n")
    code, out, _ = _run(["solve-u", path, "--objective", "earliest"])
    assert (code, out) == (0, "earliest arrival 2\n")
    code, out, _ = _run(["solve-u", path, "--objective", "latest"])
    assert (code, out) == (0, "latest departure 0\n")
    code, out, _ = _run(["solve-u", path, "--objective", "duration"])
    assert (code, out) == (0, "shortest window [0, 2] (duration 2)\n")
    code, out, _ = _run(["solve-u", path, "--objective", "duration",
                         "--format", "json"])
    assert json.loads(out) == {"objective": "duration", "window": [0, 2], "value": 2}

    code, out, _ = _run(["solve-u", sep_file, "--objective", "earliest"])
    assert (code, out) == (3, "UNREACHABLE\n")


def test_window_flags_outside_their_objective_exit_two(sep_file):
    """--t1/--t2 only bound the decided window; the optimizers scan every one."""
    for objective in ("earliest", "latest", "duration"):
        for flags in (["--t2", "0"], ["--t1", "1"], ["--t1", "0", "--t2", "9"]):
            code, out, err = _run(["solve-u", sep_file, "--objective", objective] + flags)
            assert (code, out) == (2, ""), (objective, flags)
            assert err == (f"tctp: --t1/--t2 apply to --objective decide, "
                           f"not {objective}\n")
        # the default --t1 0 is no flag at all
        assert _run(["solve-u", sep_file, "--objective", objective, "--t1", "0"]) \
            == _run(["solve-u", sep_file, "--objective", objective])


def test_negative_deadline_exits_two_on_both_li_paths(tmp_path):
    path = _write(tmp_path, "sep1.ctp", separating_instance(1))
    for extra in ([], ["--exact"]):
        code, out, err = _run(["solve-li", path, "--deadline", "-1"] + extra)
        assert (code, out, err) == (2, "", "tctp: bad window [0, -1]\n"), extra


def test_negative_deadline_exits_two_on_the_static_paths(tmp_path, triple_file):
    g = StaticGraph.build(["s", "t"], [StaticEdge("s", "t", 1)])
    static = _write(tmp_path, "st.ctp", Instance(g, "s", "t", 0))
    for argv in (["solve-static", static, "--deadline", "-1"],
                 ["solve-static", triple_file, "--deadline", "-1"],
                 ["play", static, "--model", "static", "--t2", "-1"],
                 ["play", triple_file, "--model", "dag", "--t2", "-1"],
                 ["verify", static, "--model", "static", "--deadline", "-1"],
                 ["verify", triple_file, "--model", "dag", "--deadline", "-1"]):
        assert _run(argv) == (2, "", "tctp: deadline must be >= 0\n"), argv


def test_limit_bounds_the_builtin_searches(tmp_path):
    cnf = tmp_path / "true.cnf"
    cnf.write_text("p cnf 2 2\n1 2 2 0\n1 -2 -2 0\n")
    files = {}
    for kind, model in (("qbf", "li"), ("sat4", "static")):
        files[model] = str(tmp_path / f"{kind}.ctp")
        assert _run(["gen", kind, str(cnf), "-o", files[model]])[0] == 0
    for model, path in files.items():
        for cmd in ("play", "verify"):
            code, out, err = _run([cmd, path, "--model", model, "--limit", "5"])
            assert (code, out, err) == (
                4, "", "tctp: state limit: knowledge states exceeded 5 (reached 6)\n"), (cmd, model)
        assert _run(["play", path, "--model", model])[0] == 0


def test_solve_static_value_and_deadline(tmp_path):
    g = StaticGraph.build(["u0", "u1", "u2"],
                          [StaticEdge("u0", "u1", 1, copies=2),
                           StaticEdge("u1", "u2", 3, copies=2)])
    path = _write(tmp_path, "st.ctp", Instance(g, "u0", "u2", 1))

    code, out, _ = _run(["solve-static", path])
    assert code == 0
    assert out.splitlines()[0] == "value 4"
    tr = Transcript.from_json_lines("\n".join(out.splitlines()[1:]))
    assert tr.outcome == TRAVELLER_WIN and tr.final_time == 4

    code, out, _ = _run(["solve-static", path, "--format", "json"])
    obj = json.loads(out)
    assert obj["value"] == 4 and obj["wins"] is True
    assert obj["transcript"]["footer"]["outcome"] == TRAVELLER_WIN

    # the playout runs to --deadline, on the search and on the budget table
    arcs = _write(tmp_path, "arcs.ctp", Instance(
        StaticGraph.build(g.vertices, g.edges, directed=True), "u0", "u2", 1))
    for path in (path, arcs):
        code, out, _ = _run(["solve-static", path, "--deadline", "3"])
        head, played = out.split("\n", 1)
        assert (code, head) == (3, "value 4")
        tr = Transcript.from_json_lines(played)
        assert (tr.t2, tr.outcome, tr.final_time) == (3, BLOCKER_WIN, 4)


_CYCLIC = ("model dag\nvertices s a b t\ns s\nt t\nk 1\nedge s a 1\nedge a b 1\n"
           "edge b a 1\nedge b t 1\nedge a t 3\nedge s t 9\n")


def test_solve_static_and_the_dag_pair_pick_the_solver_from_the_input(tmp_path):
    """A directed acyclic graph gets the budget table, which no --limit
    bounds, at any k; a cyclic one, or a table past TABLE_STEPS, gets the
    search. ``solve-static`` prints the playout of the builtin
    ``dag`` pair either way."""
    for inst, want in ((layered_dag(28, 4, 1), (0, "value 56")),
                       (layered_dag(12, 6, 2), (3, "value UNREACHABLE"))):
        path = _write(tmp_path, "layered.ctp", inst)
        code, out, err = _run(["solve-static", path, "--limit", "1"])
        head, _, played = out.partition("\n")
        assert (code, head, err) == (*want, "")
        if played:
            assert _run(["play", path, "--model", "dag", "--limit", "1"]) == (0, played, "")
    # at k = its arc count and past sys.maxsize, too big for the search: the
    # table stops at the copies k can block whole, and only a bypass of 10^21
    # copies survives
    inst = layered_dag(28, 4, 0)
    bypass = StaticGraph.build(inst.graph.vertices, (*inst.graph.edges, StaticEdge(
        inst.s, inst.t, 999, copies=10**21)), directed=True)
    for k in (len(inst.graph.edges), 10**20):
        path = _write(tmp_path, "bypass.ctp", Instance(bypass, inst.s, inst.t, k))
        code, out, err = _run(["solve-static", path, "--limit", "1"])
        head, played = out.split("\n", 1)
        assert (code, head, err) == (0, "value 999", ""), k
        assert _run(["play", path, "--model", "dag", "--limit", "1"]) == (0, played, "")
        tr = Transcript.from_json_lines(played)
        assert (tr.outcome, tr.final_time) == (TRAVELLER_WIN, 999)
    cyclic = tmp_path / "cyclic.ctp"
    cyclic.write_text(_CYCLIC)
    code, out, err = _run(["solve-static", str(cyclic)])
    head, played = out.split("\n", 1)
    assert (code, head, err) == (0, "value 9", "")
    assert _run(["play", str(cyclic), "--model", "dag"]) == (0, played, "")
    (tmp_path / "cyclic.tr").write_text(played)
    assert _run(["play", str(cyclic), "--model", "dag", "--traveller", "transcript",
                 "--transcript", str(tmp_path / "cyclic.tr")]) == (0, played, "")
    code, out, err = _run(["verify", str(cyclic), "--model", "dag"])
    assert code == 0 and out.startswith("verified: ") and err == ""
    # a budget past sys.maxsize: the Blocker cuts every route
    huge = tmp_path / "huge.ctp"
    huge.write_text(_CYCLIC.replace("k 1", "k 99999999999999999999")
                    .replace("edge b a 1\n", ""))
    assert _run(["solve-static", str(huge)]) == (3, "value UNREACHABLE\n", "")
    for cmd in ("play", "verify"):
        assert _run([cmd, str(huge), "--model", "dag"])[::2] == (3, ""), cmd
    # a copy count past it is never blocked whole, so it adds no column
    wide = tmp_path / "wide.ctp"
    wide.write_text("model dag\nvertices s t\ns s\nt t\nk 99999999999999999999\n"
                    "edge s t 1 100000000000000000000\n")
    code, out, err = _run(["solve-static", str(wide), "--limit", "1"])
    head, played = out.split("\n", 1)
    assert (code, head, err) == (0, "value 1", "")
    assert _run(["play", str(wide), "--model", "dag"]) == (0, played, "")
    # two arcs of 4,000 copies at k 4,000 would take a table of 4,001
    # columns and 4,001 x 8,000 steps at s: the search answers, and --limit bounds it
    fat = tmp_path / "fat.ctp"
    fat.write_text("model dag\nvertices s t\ns s\nt t\nk 4000\n"
                   "edge s t 1 4000\nedge s t 2 4000\n")
    code, out, err = _run(["solve-static", str(fat)])
    head, played = out.split("\n", 1)
    assert (code, head, err) == (0, "value 2", "")
    assert _run(["play", str(fat), "--model", "dag"]) == (0, played, "")
    assert _run(["solve-static", str(fat), "--limit", "1"])[0] == 4


def _answer(out: str) -> str:
    """out with the budget left out: a transcript header's k and the pi_k of
    dag-solve."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            row = json.loads(line)
            row.pop("k", None)
            line = json.dumps(row, sort_keys=True)
        elif line.startswith("pi_"):
            line = line.split("(", 1)[1]
        lines.append(line)
    return "\n".join(lines)


def test_budgets_past_sys_maxsize_answer_as_at_the_summed_copies(tmp_path):
    """Past C, the summed copies of the edges k can block whole, no budget
    adds a Blocker move: each table stops at C, and every command answers at
    2^31, 2^63 - 1 and 10^20 as at C. A bypass of 10^21 copies stays open. The
    verifier also tries each partial block of it, so past --limit 1000 count
    vectors at one reveal, or knowledge states of the builtin search, it exits 4."""
    files = {
        "temporal": ("model temporal\nvertices a b c\ns a\nt c\nk {}\nedge a b 0 1\n"
                     "edge b c 1 1 2\nedge a c 0 5 1000000000000000000000\n", 6),
        "static": ("model static\nvertices s a t\ns s\nt t\nk {}\nedge s a 1\n"
                   "edge a t 1 2\nedge s t 5 1000000000000000000000\n", 3),
        "dag": ("model dag\nvertices s a t\ns s\nt t\nk {}\nedge s a 1\nedge a t 1 2\n"
                "edge s t 5 1000000000000000000000\n", 3),
    }
    commands = {"temporal": [["solve-u"], ["play", "--model", "u"], ["verify", "--model", "u"]],
                "static": [["solve-static"], ["play", "--model", "static"],
                           ["verify", "--model", "static"]],
                "dag": [["dag-solve"], ["solve-static"], ["play", "--model", "static"],
                        ["verify", "--model", "static"], ["play", "--model", "dag"],
                        ["verify", "--model", "dag"]]}
    for kind, (text, copies) in files.items():
        for args in commands[kind]:
            answers = []
            for k in (copies, 2**31, 2**63 - 1, 10**20):
                path = tmp_path / f"{kind}.ctp"
                path.write_text(text.format(k))
                code, out, err = _run(args[:1] + [str(path)] + args[1:] + ["--limit", "1000"])
                if code == 4 and args[0] == "verify" and k > copies:
                    assert err.startswith("tctp: state limit: "), args
                    continue
                assert err == "", (args, k)
                answers.append((code, _answer(out)))
            assert answers[0][0] == 0 and len(set(answers)) == 1, (args, answers)


def test_dag_solve_table_prints_at_most_the_cell_limit(tmp_path):
    """--table prints k + 1 columns a vertex whatever the width the table
    stops at; past TABLE_CELLS cells it is a usage error in either format."""
    path = tmp_path / "arc.ctp"
    path.write_text("model dag\nvertices s t\ns s\nt t\nk 4\nedge s t 1 2\n")
    assert _run(["dag-solve", str(path), "--table"]) == (
        3, "pi_4(s) = UNREACHABLE\nvertex\tpi_0\tpi_1\tpi_2\tpi_3\tpi_4\n"
           "s\t1\t1\tinf\tinf\tinf\nt\t0\t0\t0\t0\t0\n", "")
    for k in (TABLE_CELLS // 2, 10**20):
        path.write_text(f"model dag\nvertices s t\ns s\nt t\nk {k}\nedge s t 1 2\n")
        for fmt in ("text", "json"):
            assert _run(["dag-solve", str(path), "--table", "--format", fmt]) == (
                2, "", f"tctp: --table prints k + 1 columns a vertex, at most "
                       f"{TABLE_CELLS} cells\n")
        assert _run(["dag-solve", str(path)]) == (3, f"pi_{k}(s) = UNREACHABLE\n", "")


def test_a_table_past_its_limits_exits_four_or_goes_to_the_search(tmp_path):
    """At k = 10^20 the Blocker can block every arc below, so each table is
    as wide as their summed copies: past TABLE_STEPS, whether its cells or
    a row's candidates pass them, the table commands exit 4 at once, and
    the directed and undirected games answer by the search as at k = C: an
    undirected graph's search prunes by no down table then. The message
    gives the steps reached: the cells of the four expansion nodes, or a
    DAG table's cells and rows, all charged before its first row."""
    def why(reached):
        return (f"tctp: state limit: budget table steps exceeded {TABLE_STEPS} "
                f"(reached {reached})\n")
    path = tmp_path / "fat.ctp"
    path.write_text("model temporal\nvertices a b\ns a\nt b\nk 100000000000000000000\n"
                    "edge a b 0 1 2147483648\n")
    for argv in (["solve-u", str(path)], ["play", str(path), "--model", "u"]):
        assert _run(argv) == (4, "", why(4 * (2 * 2147483648 + 1))), argv
    dags = [("model dag\nvertices s t x1 x2 x3 x4 x5 x6 x7 x8 x9\ns s\nt t\nk {}\n"
             "edge s t 1 99999999\n", 99999999),
            ("model dag\nvertices s t\ns s\nt t\nk {}\nedge s t 1 10000\n"
             "edge s t 2 10000\n", 20000)]
    for (text, _), reached in zip(dags, (11 * 10**8, 2 * 20001 + 20000 * 20000)):
        path.write_text(text.format(10**20))
        assert _run(["dag-solve", str(path)]) == (4, "", why(reached))
    undirected = [("model static\nvertices s a t\ns s\nt t\nk {}\nedge s a 1 2147483648\n"
                   "edge a t 1\nedge s t 5\n", 2147483650),
                  ("model static\nvertices s a t\ns s\nt t\nk {}\nedge s a 1 10000\n"
                   "edge a t 1\nedge s t 5 10000\n", 20001)]
    for text, copies in (*dags, *undirected):
        for args in (["solve-static"], ["play", "--model", "static"]):
            answers = set()
            for k in (copies, 10**20):
                path.write_text(text.format(k))
                code, out, err = _run(args[:1] + [str(path)] + args[1:])
                assert err == "", (args, k)
                answers.add((code, _answer(out)))
            assert len(answers) == 1, (text, args, answers)


def test_the_verifier_bounds_the_count_vectors_of_one_reveal(tmp_path):
    """One arc of 10^20 copies at k = 10^20 - 1: the table answers at once,
    and the verifier stops after --limit count vectors at its one reveal."""
    path = tmp_path / "arc.ctp"
    path.write_text("model dag\nvertices s t\ns s\nt t\nk 99999999999999999999\n"
                    "edge s t 1 100000000000000000000\n")
    assert _run(["dag-solve", str(path)]) == (0, "pi_99999999999999999999(s) = 1\n", "")
    for argv in (["verify", str(path), "--model", "dag"],
                 ["play", str(path), "--model", "dag", "--blocker", "exhaustive"]):
        assert _run(argv + ["--limit", "10"]) == (
            4, "", "tctp: state limit: verifier count vectors at one reveal exceeded 10 "
                   "(reached 11)\n"), argv
    path.write_text("model dag\nvertices s t\ns s\nt t\nk 3\nedge s t 1 4\n")
    code, out, err = _run(["verify", str(path), "--model", "dag", "--limit", "4"])
    assert (code, out, err) == (0, "verified: wins every blocker line (1 reveal states)\n", "")
    assert _run(["verify", str(path), "--model", "dag", "--limit", "3"])[0] == 4


def test_solve_u_memory_follows_the_copies_not_k(tmp_path):
    """A 2-edge file at k = 10^6 builds a table of min(k, C) + 1 = 5 columns."""
    path = tmp_path / "two.ctp"
    path.write_text("model temporal\nvertices a b c\ns a\nt c\nk 1000000\n"
                    "edge a b 0 1\nedge b c 1 1\n")
    tracemalloc.start()
    try:
        code, out, err = _run(["solve-u", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "Blocker wins window [0, inf]\n", "")
    assert peak < 2 ** 20


def test_gen_round_trips_through_solve_li(tmp_path):
    sat = tmp_path / "true.cnf"
    sat.write_text("p cnf 2 2\n1 2 2 0\n1 -2 -2 0\n")
    unsat = tmp_path / "false.cnf"
    unsat.write_text("p cnf 2 2\n1 1 1 0\n-1 2 2 0\n")

    out_path = tmp_path / "qbf_true.ctp"
    code, _, _ = _run(["gen", "qbf", str(sat), "-o", str(out_path)])
    assert code == 0
    inst = parse_instance(out_path.read_text())
    assert inst.model == "temporal" and inst.k == 5

    assert _run(["solve-li", str(out_path)])[0] == 0

    code, out, _ = _run(["gen", "qbf", str(unsat)])
    assert code == 0
    lose = tmp_path / "qbf_false.ctp"
    lose.write_text(out)
    assert _run(["solve-li", str(lose)])[0] == 3


def test_play_writes_a_replayable_transcript(tmp_path, sep_file):
    code, out, _ = _run(["play", sep_file, "--model", "li"])
    assert code == 0
    tr = Transcript.from_json_lines(out)
    assert tr.outcome == TRAVELLER_WIN and tr.final_time == 4

    saved = tmp_path / "tr.jsonl"
    saved.write_text(out)
    code, replayed, _ = _run(["play", sep_file, "--model", "li",
                              "--traveller", "transcript",
                              "--transcript", str(saved)])
    assert code == 0 and replayed == out

    code, out, _ = _run(["play", sep_file, "--model", "u"])
    assert code == 3
    assert json.loads(out.splitlines()[-1])["outcome"] == "BLOCKER_WIN"

    code, _, err = _run(["play", sep_file, "--model", "li",
                         "--traveller", "transcript"])
    assert code == 2 and "--transcript FILE" in err

    garbage = tmp_path / "garbage.tr"
    garbage.write_text("not json\n")
    for cmd in ("play", "verify"):
        code, out, err = _run([cmd, sep_file, "--model", "li", "--transcript", str(garbage)])
        assert (code, out) == (2, "")
        assert "--transcript FILE needs --traveller transcript" in err


def test_verify_certifies_the_informed_walker(sep_file):
    code, out, _ = _run(["verify", sep_file, "--model", "li"])
    assert (code, out) == (0, "verified: wins every blocker line (13 reveal states)\n")

    code, out, _ = _run(["verify", sep_file, "--model", "u"])
    assert code == 3 and out.splitlines()[0] == "refuted:"

    code, out, _ = _run(["verify", sep_file, "--model", "li", "--format", "json"])
    obj = json.loads(out)
    assert obj["ok"] is True and obj["explored"] == 13
    assert obj["counterexample"] is None


def test_verify_checks_the_builtin_traveller_solved_for_its_deadline(tmp_path):
    """Under --deadline N the builtin li and u Travellers verify exactly when
    their solver wins the window [0, N]; a route that only wins by the
    instance's own deadline is not the one checked."""
    late_or_direct = TemporalGraph.build("sat", [
        TimeEdge("s", "a", 0, 1), TimeEdge("a", "t", 10, 1), TimeEdge("s", "t", 2, 1)])
    rng = random.Random(4151)
    cases = [Instance(late_or_direct, "s", "t", 0)]
    cases += [rand_temporal(rng, max_n=5, max_keys=8, max_tau=6, max_d=3)
              for _ in range(15)]
    for i, inst in enumerate(cases):
        path = _write(tmp_path, f"g{i}.ctp", inst)
        for deadline in (1, 3, 6):
            for model, solve in (("li", exact_li), ("u", decide_u)):
                code, _, _ = _run(["verify", path, "--model", model,
                                   "--deadline", str(deadline)])
                want = 0 if solve(inst, 0, deadline).wins else 3
                assert code == want, (i, model, deadline)


def test_builtin_u_traveller_waits_past_an_edge_that_arrives_too_late(tmp_path):
    """s -> x departs at 2 but arrives after t2 = 6, so the table has no node
    (s, 2); its reveal wakes the Traveller's wait there, and the Traveller
    waits on to s -> t at 5 instead of resigning."""
    g = TemporalGraph.build("stx", [TimeEdge("s", "t", 5, 1), TimeEdge("s", "x", 2, 10)])
    path = _write(tmp_path, "late.ctp", Instance(g, "s", "t", 0))
    assert _run(["solve-u", path, "--t2", "6"])[:2] == (
        0, "Traveller wins window [0, 6]: guaranteed arrival 6\n")
    code, out, _ = _run(["play", path, "--model", "u", "--t2", "6"])
    tr = Transcript.from_json_lines(out)
    assert code == 0 and tr.outcome == TRAVELLER_WIN and tr.final_time == 6
    assert [e["until"] for e in tr.events if e["type"] == "WAIT"] == [2, 5]
    code, out, _ = _run(["verify", path, "--model", "u", "--deadline", "6"])
    assert code == 0 and out.startswith("verified:")


def test_exit_codes_flag_errors(tmp_path, sep_file):
    code, _, err = _run(["solve-u", str(tmp_path / "nope.ctp")])
    assert code == 2 and "tctp:" in err

    bad = tmp_path / "bad.ctp"
    bad.write_text("model temporal\nvertices a b\n???\n")
    code, _, err = _run(["solve-u", str(bad)])
    assert code == 2 and "unknown keyword" in err

    assert _run(["frobnicate", sep_file])[0] == 2
    assert _run(["--help"])[0] == 0

    code, _, err = _run(["solve-li", "--exact", sep_file, "--limit", "1"])
    assert code == 4 and "state limit" in err


def test_wrong_model_and_field_types_exit_two(tmp_path, sep_file):
    code, out, err = _run(["dag-solve", sep_file])
    assert (code, out, err) == (2, "", "tctp: dag-solve needs a dag instance\n")

    string_tau = tmp_path / "tau.json"
    string_tau.write_text(
        '{"model": "temporal", "vertices": ["a", "b"], "s": "a", "t": "b", "k": 0, '
        '"edges": [{"u": "a", "v": "b", "tau": "0", "d": 1}]}\n')
    code, out, err = _run(["solve-u", str(string_tau)])
    assert (code, out) == (2, "") and err == "tctp: tau must be an integer, got '0'\n"


def test_static_models_reject_a_temporal_instance(sep_file):
    for argv, what in ((["solve-static"], "solve-static"),
                       (["play", "--model", "static"], "model 'static'"),
                       (["play", "--model", "dag"], "model 'dag'"),
                       (["verify", "--model", "static"], "model 'static'"),
                       (["verify", "--model", "dag"], "model 'dag'")):
        code, out, err = _run(argv[:1] + [sep_file] + argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == f"tctp: {what} needs a weighted-graph instance\n"


@st.composite
def model_instances(draw, number=st.integers):
    """A small valid instance of a random model, in a random format, with no
    extra flags. ``number(low, high)`` draws each number field (k, copies,
    weight, tau, d, deadline), low its least valid value and high a small top."""
    model = draw(st.sampled_from(("temporal", "static", "dag")))
    names = [f"v{i}" for i in range(draw(st.integers(2, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names))
                          .filter(lambda p: p[0] != p[1]), max_size=6))
    if model == "temporal":
        edges = [TimeEdge(u, v, draw(number(0, 4)), draw(number(1, 2)),
                          draw(number(1, 2))) for u, v in pairs]
        graph = TemporalGraph.build(names, edges)
    else:
        edges = [StaticEdge(*sorted((u, v)), draw(number(0, 3)),
                            draw(number(1, 2))) for u, v in pairs]
        graph = StaticGraph.build(names, edges, directed=model == "dag")
    inst = Instance(graph, draw(st.sampled_from(names)), draw(st.sampled_from(names)),
                    draw(number(0, 2)), draw(st.none() | number(0, 6)))
    return inst, draw(st.sampled_from(("text", "json"))), []


def _magnitude_instances():
    """model_instances with every number field of any magnitude, run under
    --limit 2000 as the fuzzed inputs are."""
    return model_instances(lambda low, high: magnitudes(low)).map(
        lambda case: (*case[:2], ["--limit", "2000"]))


# one arc of 10^20 copies at k = 10^20 - 1: it is never blocked whole, so the
# table has one column, but one reveal has 10^20 count vectors
_HUGE_ARC = (Instance(StaticGraph.build(["s", "t"], [StaticEdge("s", "t", 1, 10**20)],
                                        directed=True), "s", "t", 10**20 - 1), "text",
             ["--limit", "2000"])


CONTRACT_ARGS = [["expand"], ["dag-solve"], ["dag-solve", "--table"], ["solve-u"],
                 ["solve-li"], ["solve-static"], ["gen", "sat4"],
                 ["play", "--model", "dag", "--blocker", "exhaustive"]] + [
    [cmd, "--model", model] for cmd in ("play", "verify")
    for model in ("li", "u", "static", "dag")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model_instances() | _magnitude_instances())
@example(_HUGE_ARC)
def test_every_command_keeps_the_exit_contract(tmp_path_factory, case):
    """Any valid instance, any command and model: a contract exit code and no
    traceback, whether or not the model fits the instance, and whatever the
    magnitude of its numbers."""
    inst, fmt, flags = case
    path = tmp_path_factory.mktemp("contract") / f"inst.{fmt}"
    path.write_text(serialize_instance(inst, fmt))
    for args in CONTRACT_ARGS:
        at = 2 if args[0] == "gen" else 1
        code, _, err = _run(args[:at] + [str(path)] + args[at:] + flags)
        assert code in (0, 2, 3, 4), args
        assert "Traceback" not in err, args


def test_a_negative_limit_exits_two_on_every_command(sep_file):
    for args in CONTRACT_ARGS:
        at = 2 if args[0] == "gen" else 1
        for argv in (args[:at] + [sep_file] + args[at:] + ["--limit", "-1"],
                     ["--limit", "-1"] + args[:at] + [sep_file] + args[at:]):
            code, out, err = _run(argv)
            assert (code, out) == (2, ""), argv
            assert err.endswith("error: argument --limit: must be >= 0, got -1\n"), argv
            assert "Traceback" not in err, argv
    assert _run(["solve-li", "--exact", sep_file, "--limit", "0"])[0] == 4


def test_malformed_transcripts_exit_two(tmp_path, sep_file):
    """A transcript row that is not an object, or lacks a field the replay
    reads, is an input error and not a traceback."""
    head = '{"k": 2, "model": "li", "s": "s", "t": "t", "t1": 0, "t2": null}'
    foot = '{"budget_spent": 0, "final_time": 4, "outcome": "TRAVELLER_WIN"}'
    for i, (text, why) in enumerate((("{}\n{}\n", "row lacks 'model'"),
                                     ("[1]\n[2]\n", "rows must be JSON objects"),
                                     (f'{head}\n{{"type": "MOVE"}}\n{foot}\n',
                                      "row lacks 'key'"))):
        path = tmp_path / f"bad{i}.jsonl"
        path.write_text(text)
        for cmd in ("play", "verify"):
            code, out, err = _run([cmd, sep_file, "--model", "li", "--traveller",
                                   "transcript", "--transcript", str(path)])
            assert (code, out, err) == (2, "", f"tctp: transcript {why}\n"), (cmd, text)


# the bytes the mutations insert: instance, DIMACS and JSON punctuation first
_FUZZ_BYTES = st.sampled_from(b' \n"#-.0123456789:,[]{}acekpqstv') | st.integers(0, 255)


@st.composite
def _mutated(draw, base: bytes) -> bytes:
    """base with a few bytes inserted, deleted or replaced."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            data.insert(at, draw(_FUZZ_BYTES))
        elif at < len(data):
            if op == "delete":
                del data[at]
            else:
                data[at] = draw(_FUZZ_BYTES)
    return bytes(data)


def _fuzzed(base: bytes):
    return st.binary(max_size=120) | _mutated(base)


_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)


@st.composite
def _transcript_bytes(draw, base: str) -> bytes:
    """A transcript of base's rows with its bytes mutated, or with one field
    of one row dropped or set to an arbitrary JSON value, or arbitrary bytes."""
    how = draw(st.sampled_from(("bytes", "field", "arbitrary")))
    if how == "bytes":
        return draw(_mutated(base.encode()))
    if how == "arbitrary":
        return draw(st.binary(max_size=120))
    rows = [json.loads(line) for line in base.splitlines()]
    row = draw(st.sampled_from(rows))
    name = draw(st.sampled_from(sorted(row)))
    if draw(st.booleans()):
        del row[name]
    else:
        row[name] = draw(_JSON)
    return "".join(json.dumps(r) + "\n" for r in rows).encode()


_CNF = b"p cnf 2 2\n1 2 2 0\n1 -2 -2 0\n"
_SEP = separating_instance(2)
_TRIPLE = Instance(StaticGraph.build(["s", "t"], [StaticEdge("s", "t", w) for w in (1, 2)]),
                   "s", "t", 1)
_REPLAYS = [(inst, model, arena.play(inst, *arena.builtin_policies(inst, model), model)
             .to_json_lines()) for inst, model in ((_SEP, "li"), (_TRIPLE, "static"))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model_instances().flatmap(lambda case: st.tuples(
           st.just(case[1]), _fuzzed(serialize_instance(*case[:2]).encode()))),
       _fuzzed(_CNF), st.sampled_from(range(len(_REPLAYS))).flatmap(
           lambda i: st.tuples(st.just(i), _transcript_bytes(_REPLAYS[i][2]))))
def test_fuzzed_inputs_keep_the_exit_contract(tmp_path_factory, instance, cnf, replay):
    """Mutated or arbitrary instance, DIMACS and transcript bytes: every
    command returns a contract exit code, raises nothing and prints no
    traceback."""
    root = tmp_path_factory.mktemp("fuzz")
    fmt, data = instance
    path = root / f"inst.{fmt}"
    path.write_bytes(data)
    runs = [args[:1] + [str(path)] + args[1:] for args in CONTRACT_ARGS
            if args[0] != "gen"]
    (root / "formula.cnf").write_bytes(cnf)
    runs += [["gen", kind, str(root / "formula.cnf")] for kind in ("qbf", "sat4", "sat2")]
    i, text = replay
    inst, model = _REPLAYS[i][:2]
    (root / "replayed.ctp").write_text(serialize_instance(inst))
    (root / "tr.jsonl").write_bytes(text)
    runs += [[cmd, str(root / "replayed.ctp"), "--model", model, "--traveller",
              "transcript", "--transcript", str(root / "tr.jsonl")]
             for cmd in ("play", "verify")]
    for argv in runs:
        code, out, err = _run(argv + ["--limit", "2000"])
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in out + err, argv


def test_bad_json_values_are_shown_short(tmp_path):
    """A deeply nested or long bad value is cut short in the diagnostic."""
    for i, bad in enumerate(["[" * 500 + "]" * 500, '{"x": "' + "x" * 5000 + '"}',
                             "[" + ", ".join(["1"] * 2000) + "]"]):
        path = tmp_path / f"bad{i}.json"
        path.write_text('{"model": "temporal", "vertices": [' + bad + '], "s": "a", '
                        '"t": "b", "k": 0, "edges": []}\n')
        code, out, err = _run(["solve-u", str(path)])
        assert (code, out) == (2, "") and err.startswith("tctp: vertex name must be")
        assert len(err.encode()) < 200, err


def test_malformed_headers_and_deep_json_exit_two(tmp_path):
    twice = tmp_path / "twice.ctp"
    twice.write_text("model temporal\nvertices a b\ns a\nt b\nk 1\nk 2\n"
                     "edge a b 0 1\n")
    code, out, err = _run(["solve-li", "--exact", str(twice)])
    assert (code, out, err) == (2, "", "tctp: line 6: repeated k line\n")

    deep = tmp_path / "deep.json"
    deep.write_text('{"a": ' + "[" * 100_000)
    code, out, err = _run(["solve-u", str(deep)])
    assert (code, out, err) == (2, "", "tctp: JSON nested too deeply\n")


def test_verify_stops_a_deep_chain_at_the_limit_in_little_memory(tmp_path):
    """The verifier undoes each reveal on one state instead of copying what
    was decided per branch, so 5,000 reveal states down a 3,000-edge chain
    stay far below the depth squared."""
    names = [f"c{i:04d}" for i in range(3001)]
    chain = TemporalGraph.build(names, [TimeEdge(u, v, i, 1, copies=4) for i, (u, v)
                                        in enumerate(zip(names, names[1:]))])
    path = _write(tmp_path, "chain.ctp", Instance(chain, names[0], names[-1], 3))
    tracemalloc.start()
    try:
        code, out, err = _run(["verify", path, "--model", "u", "--limit", "5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (
        4, "", "tctp: state limit: verifier reveal states exceeded 5000 (reached 5001)\n")
    assert peak < 64 * 2 ** 20


def test_play_and_verify_handle_a_deep_chain(tmp_path):
    names = [f"v{i}" for i in range(1201)]
    chain = list(zip(names, names[1:]))
    timed = TemporalGraph.build(names, [TimeEdge(u, v, i, 1)
                                        for i, (u, v) in enumerate(chain)])
    arcs = StaticGraph.build(names, [StaticEdge(u, v, 1) for u, v in chain],
                             directed=True)
    u_file = _write(tmp_path, "chain_u.ctp", Instance(timed, "v0", "v1200", 0))
    dag_file = _write(tmp_path, "chain_dag.ctp", Instance(arcs, "v0", "v1200", 0))
    for path, model in ((u_file, "u"), (dag_file, "dag")):
        code, out, err = _run(["verify", path, "--model", model])
        assert (code, out, err) == (
            0, "verified: wins every blocker line (1200 reveal states)\n", "")
    code, out, err = _run(["play", u_file, "--model", "u", "--blocker", "exhaustive"])
    assert code == 0 and err == ""
    tr = Transcript.from_json_lines(out)
    assert tr.outcome == TRAVELLER_WIN and len(tr.moves()) == 1200

    # the exact knowledge-state searches run as deep as the games go; the
    # verifier also enumerates partial blocks, so it checks the k=0 chain
    long = [f"c{i}" for i in range(3001)]
    li_chain = TemporalGraph.build(long, [TimeEdge(u, v, i, 1, copies=4) for i, (u, v)
                                          in enumerate(zip(long, long[1:]))])
    li_file = _write(tmp_path, "chain_li.ctp", Instance(li_chain, "c0", "c3000", 3))
    hops = [StaticEdge(u, v, 1) for u, v in chain]
    static_file = _write(tmp_path, "path.ctp",
                         Instance(StaticGraph.build(names, hops), "v0", "v1200", 1))
    dag_file = _write(tmp_path, "path_dag.ctp", Instance(
        StaticGraph.build(names, hops, directed=True), "v0", "v1200", 1))
    for argv in (["solve-li", "--exact", li_file], ["play", li_file, "--model", "li"],
                 ["verify", u_file, "--model", "li"], ["solve-static", static_file],
                 ["play", static_file, "--model", "static"],
                 ["verify", static_file, "--model", "static"],
                 ["solve-static", dag_file]):
        code, out, err = _run(argv)
        assert code in (0, 3) and "Traceback" not in err, argv
    # the replay matches each view on the recorded line by what it adds
    played = _run(["play", li_file, "--model", "li"])[1]
    (tmp_path / "chain_li.tr").write_text(played)
    assert _run(["play", li_file, "--model", "li", "--traveller", "transcript",
                 "--transcript", str(tmp_path / "chain_li.tr")]) == (0, played, "")

    # a finite value down the undirected path: the value search must not
    # re-sweep the settled prefix at every state
    open_file = _write(tmp_path, "open_path.ctp",
                       Instance(StaticGraph.build(names, hops), "v0", "v1200", 0))
    code, out, err = _run(["solve-static", open_file])
    head, played = out.split("\n", 1)
    assert (code, head, err) == (0, "value 1200", "")
    assert _run(["play", open_file, "--model", "static"]) == (0, played, "")
    tr = Transcript.from_json_lines(played)
    assert (tr.outcome, len(tr.moves())) == (TRAVELLER_WIN, 1200)


def test_global_flags_do_not_carry_into_the_next_dispatch(sep_file):
    plain = _run(["solve-li", "--exact", sep_file])
    flagged = _run(["--quiet", "solve-li", "--exact", sep_file,
                    "--format", "json", "--limit", "1"])
    assert flagged[:2] == (4, "")
    assert _run(["solve-li", "--exact", sep_file]) == plain


def test_play_solves_once_and_transcripts_parse_back_only_for_json(
        monkeypatch, sep_file, triple_file):
    calls = {"exact_li": 0, "transcript": 0, "text": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arena, "exact_li", counted("exact_li", arena.exact_li))
    monkeypatch.setattr(cli, "_transcript_obj",
                        counted("transcript", cli._transcript_obj))
    monkeypatch.setattr(Transcript, "to_json_lines",
                        counted("text", Transcript.to_json_lines))
    for blocker in ("builtin", "exhaustive"):
        calls["exact_li"] = 0
        code, _, _ = _run(["play", sep_file, "--model", "li", "--blocker", blocker])
        assert code == 0 and calls["exact_li"] == 1, blocker

    # each transcript is rendered once, in the format that prints it
    for argv, code in ((["solve-li", "--exact", sep_file], 0),
                       (["solve-static", triple_file], 0),
                       (["play", sep_file, "--model", "li"], 0),
                       (["verify", sep_file, "--model", "u"], 3)):
        for flags, renders in (([], 1), (["--format", "json"], 0), (["--quiet"], 0)):
            calls["text"] = 0
            assert _run(argv + flags)[0] == code and calls["text"] == renders, flags
        if code == 0:
            calls["transcript"] = 0
            assert _run(argv)[0] == 0 and calls["transcript"] == 0, argv
            assert _run(argv + ["--format", "json"])[0] == 0 and calls["transcript"] == 1
            assert _run(argv + ["--format", "json", "--quiet"])[0] == 0
            assert calls["transcript"] == 1, argv


def test_identical_invocations_identical_bytes(sep_file, triple_file):
    for argv in (["expand", sep_file], ["dag-solve", "--table", triple_file],
                 ["play", sep_file, "--model", "li"]):
        assert _run(argv) == _run(argv)
