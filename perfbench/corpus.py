"""Seeded corpora and the operations of the three workloads.

Every operation is an ``Op``: a stable name, a class label, a callable that
runs it through the public ``tctp`` API and returns a small JSON-able digest
of the answer, and a check that judges that digest after the timed passes.
Operations call the library through module attributes (``lib.utctp.decide_u``
and so on) so that the traced run can patch the names callers look up.

The gadget corpora are enumerated and take no seed. Instances marked
``fixed`` are built from pinned constants, never from ``--seed``, so their
answers can be compared against values pinned from the seed commit; the
rest come from the corpus seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import tctp as lib
import tctp.cli  # noqa: F401  (the package does not load it; used as lib.cli)
from tctp import gadgets
from tctp.core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge

FIXED_SEED = 20240716  # instance seed of the pinned large instances
RANDOM_LI = 40  # random exact_li instances in search
# poly's seeded classes: the median falls in the middle of the tiny u class,
# and the 90th percentile inside the medium class
POLY_MEDIUM = 60
POLY_TINY_U = 400
EXIT_CODES = (0, 2, 3, 4)


class OpFailed(Exception):
    """An operation broke the contract: it raised, tracebacked or hit a limit."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]] = None
    fixed: bool = False  # pinned regardless of the corpus seed


def num(x):
    """Digest form of a number that may be infinite."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# instance generators (the benchmark's own; nothing is imported from tests/)


def rand_temporal(rng, n, m, tmax, k, dmax=2, cmax=3) -> Instance:
    names = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(m):
        u, v = rng.sample(names, 2)
        edges.append(TimeEdge(u, v, rng.randint(0, tmax), rng.randint(1, dmax),
                              copies=rng.randint(1, cmax)))
    return Instance(TemporalGraph.build(names, edges), names[0], names[-1], k)


def tiny_temporal(rng, k=None) -> Instance:
    """Inside the guards of ``brute_u_game``: <= 6 vertices, lifespan <= 5, k <= 2."""
    n = rng.randint(2, 6)
    budget = rng.randint(0, 2) if k is None else k
    return rand_temporal(rng, n, rng.randint(1, 12), 5, budget, cmax=3)


def tiny_dag(rng) -> Instance:
    n = rng.randint(2, 8)
    names = [f"n{i}" for i in range(n)]
    arcs = []
    for _ in range(rng.randint(1, 14)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        arcs.append(StaticEdge(names[i], names[j], rng.randint(1, 9),
                               copies=rng.randint(1, 3)))
    g = StaticGraph.build(names, arcs, directed=True)
    return Instance(g, names[0], names[-1], rng.randint(0, 3))


def tiny_static(rng) -> Instance:
    n = rng.randint(3, 6)
    names = [f"u{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.sample(names, 2)
        edges.append(StaticEdge(u, v, rng.randint(0, 5), copies=rng.randint(1, 3)))
    g = StaticGraph.build(names, edges)
    return Instance(g, names[0], names[-1], rng.randint(0, 2))


def layered_dag(layers: int, width: int, k: int, seed: int = 7) -> Instance:
    """Dense layer-to-layer DAG, the budget-scaling instance of ROADMAP item 1."""
    rng = random.Random(seed)
    names = [[f"L{a}_{b}" for b in range(width)] for a in range(layers)]
    arcs = []
    for a in range(layers - 1):
        for u in names[a]:
            for v in names[a + 1]:
                arcs.append(StaticEdge(u, v, rng.randint(1, 9),
                                       copies=rng.randint(1, 2)))
    flat = [x for layer in names for x in layer]
    g = StaticGraph.build(flat, arcs, directed=True)
    return Instance(g, names[0][0], names[-1][0], k)


def chain(n: int = 3000, k: int = 3) -> Instance:
    """Path c0000 - ... - c<n> with one unblockable time edge per hop."""
    names = [f"c{i:04d}" for i in range(n + 1)]
    edges = [TimeEdge(names[i], names[i + 1], i, 1, copies=k + 1) for i in range(n)]
    return Instance(TemporalGraph.build(names, edges), names[0], names[-1], k)


def with_k(inst: Instance, k: int) -> Instance:
    return Instance(inst.graph, inst.s, inst.t, k, inst.deadline)


# ---------------------------------------------------------------------------
# gadget corpora, enumerated exactly as the acceptance criteria 5-7 do


def qbf_corpus():
    """Two hand-checked formulas plus a sample seeded with 5, 22 in all, n=2."""
    lits = (1, -1, 2, -2)
    clauses = sorted(set(tuple(sorted(c))
                         for c in itertools.combinations_with_replacement(lits, 3)))
    corpus = [gadgets.CnfFormula.build(2, [(1, 2, 2), (1, -2, -2)]),
              gadgets.CnfFormula.build(2, [(1, 1, 1), (-1, 2, 2)])]
    seen = {tuple(sorted(f.clauses)) for f in corpus}
    rng = random.Random(5)
    singles = [gadgets.CnfFormula.build(2, [c]) for c in clauses]
    rng.shuffle(singles)
    for f in singles[:8]:
        key = tuple(sorted(f.clauses))
        if key not in seen:
            seen.add(key)
            corpus.append(f)
    pairs = list(itertools.combinations_with_replacement(clauses, 2))
    rng.shuffle(pairs)
    for pair in pairs:
        if len(corpus) >= 22:
            break
        f = gadgets.CnfFormula.build(2, list(pair))
        key = tuple(sorted(f.clauses))
        if key not in seen:
            seen.add(key)
            corpus.append(f)
    return corpus


def cnf_classes():
    """All 3-clause formulas with n <= 2, m <= 2 up to renaming and flipping."""

    def canon(n, clauses):
        best = None
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                def relabel(lit):
                    v = abs(lit)
                    return perm[v - 1] * (1 if lit > 0 else -1) * signs[v - 1]
                mapped = tuple(sorted(tuple(sorted(relabel(x) for x in c))
                                      for c in clauses))
                if best is None or mapped < best:
                    best = mapped
        return best

    corpus, seen = [], set()
    for n in (1, 2):
        lits = [i for v in range(1, n + 1) for i in (v, -v)]
        cl = sorted(set(tuple(sorted(c))
                        for c in itertools.combinations_with_replacement(lits, 3)))
        for m in (1, 2):
            for combo in itertools.combinations_with_replacement(cl, m):
                key = (n, canon(n, combo))
                if key not in seen:
                    seen.add(key)
                    corpus.append(gadgets.CnfFormula.build(n, list(combo)))
    return corpus


def dimacs(f) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in f.clauses)
    return f"p cnf {f.n} {f.m}\n" + body


# ---------------------------------------------------------------------------
# shared checks


def parse(text: str) -> Instance:
    return lib.core.parse_instance(text)


def identity_decide(inst: Instance, t1=0, t2=None):
    """decide_u's answer recomputed on the expansion with identity groups.

    The table does not depend on block groups (dagctp.compute_pi), so this
    path skips the group check the solver runs and is the cross-check for
    instances too large for ``brute_u_game``.
    """
    if t2 is None:
        t2 = inst.deadline if inst.deadline is not None else math.inf
    xd = lib.expansion.build_expansion(inst.graph, inst.s, inst.t, inst.k, t1, t2)
    cost = lib.dagctp.compute_pi(xd.graph, xd.target, inst.k).value(xd.source, inst.k)
    return cost != math.inf, (t1 + cost if cost != math.inf else math.inf)


def expect(want):
    """Check against want(), computed only in the check phase."""
    def check(got):
        w = want()
        return None if got == w else f"expected {w!r}"
    return check


def identity_check(inst):
    def want():
        wins, arrive = identity_decide(inst)
        return [wins, num(arrive)]
    return expect(want)


# ---------------------------------------------------------------------------
# poly: the polynomial paths at scale


def _u_op(name, kind, text, check=None, fixed=False):
    def run():
        d = lib.utctp.decide_u(parse(text))
        return [d.wins, num(d.guaranteed_arrival)]
    return Op(name, kind, run, check, fixed)


def _k1_op(name, kind, text, check=None, fixed=False):
    def run():
        return [lib.litctp.solve_k1(parse(text)).wins]
    return Op(name, kind, run, check, fixed)


def poly_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    ser = lib.core.serialize_instance

    # fixed large instances: answers pinned from the seed commit
    big = rand_temporal(random.Random(FIXED_SEED), 100, 1000, 100, 3)
    ch = chain(1500, 3)
    ops.append(_u_op("u.fixed.m1000", "u-large", ser(big), fixed=True))
    ops.append(_u_op("u.fixed.chain1500", "u-large", ser(ch), fixed=True))
    ops.append(_k1_op("k1.fixed.m1000", "k1-large", ser(with_k(big, 1)), fixed=True))
    ops.append(_k1_op("k1.fixed.chain1500", "k1-large", ser(with_k(ch, 1)), fixed=True))
    for k in (6, 24, 96):
        text = ser(layered_dag(24, 5, k))

        def run(text=text):
            inst = parse(text)
            table = lib.dagctp.compute_pi(inst.graph, inst.t, inst.k)
            rows = sorted((str(v), [num(x) for x in r]) for v, r in table.values.items())
            return [num(table.value(inst.s, inst.k)), sha(repr(rows))]
        ops.append(Op(f"pi.layered.k{k}", "pi-layered", run, fixed=True))

    # seeded ladder below the fixed 1,000-edge instance
    for m in (400, 800):
        inst = rand_temporal(rng, m // 10, m, m // 10, 3)
        ops.append(_u_op(f"u.ladder.m{m}", "u-ladder", ser(inst), identity_check(inst)))
        # a u win with k=3 implies a u win with k=1, which implies an li win
        ops.append(_k1_op(f"k1.ladder.m{m}", "k1-ladder", ser(with_k(inst, 1)),
                          (lambda got, inst=inst: "u win but li loses"
                           if not got[0] and identity_decide(inst)[0] else None)))

    # the homogeneous medium class that the 90th percentile falls in
    for i in range(POLY_MEDIUM):
        inst = rand_temporal(rng, 20, 200, 20, 3)
        ops.append(_u_op(f"u.medium.{i}", "u-medium", ser(inst), identity_check(inst)))

    # window optimizers (earliest arrival, latest departure, fastest path)
    for i in range(3):
        inst = rand_temporal(rng, 12, 120, 12, 2)
        text = ser(inst)
        ops.extend(_optimizer_ops(i, inst, text))

    # tiny instances checked against the brute-force oracles
    for i in range(POLY_TINY_U):
        inst = tiny_temporal(rng)
        ops.append(_u_op(f"u.tiny.{i}", "tiny", ser(inst),
                         _brute_u_check(inst)))
    for i in range(40):
        inst = tiny_dag(rng)
        text = ser(inst)

        def run(text=text):
            inst = parse(text)
            return [num(lib.dagctp.compute_pi(inst.graph, inst.t, inst.k)
                        .value(inst.s, inst.k))]

        def check(got, inst=inst):
            want = lib.dagctp.brute_dag_game(inst.graph, inst.s, inst.t, inst.k,
                                             unlimited=True)
            return None if got == [num(want)] else f"brute value {want}"
        ops.append(Op(f"pi.tiny.{i}", "tiny", run, check))
    for i in range(40):
        inst = tiny_temporal(rng, k=1)

        def check(got, inst=inst):
            want = lib.litctp.exact_li(inst).wins
            return None if got == [want] else f"exact search says {want}"
        ops.append(_k1_op(f"k1.tiny.{i}", "tiny", ser(inst), check))
    return ops


def _brute_u_check(inst):
    def check(got):
        want = lib.utctp.brute_u_game(inst)
        return None if got[0] == want else f"brute force says {want}"
    return check


def _optimizer_ops(i, inst, text):
    def earliest():
        return [num(lib.utctp.earliest_arrival(parse(text)))]

    def latest():
        return [num(lib.utctp.latest_departure(parse(text)))]

    def duration():
        w = lib.utctp.shortest_duration(parse(text))
        return [list(w) if w else None]

    g = inst.graph
    departures = sorted({e.tau for e in g.edges})

    def check_earliest(got):
        # a (0, t2) win is upward closed in t2, so the least winning t2 is
        # the guaranteed arrival of the unbounded window
        wins, arrive = identity_decide(inst, 0, math.inf)
        want = [num(arrive) if wins else None]
        return None if got == want else f"guaranteed arrival {want}"

    def check_latest(got):
        # a (t1, inf) win is downward closed in t1
        t1 = got[0]
        later = [t for t in departures if t1 is None or t > t1]
        if t1 is not None and not identity_decide(inst, t1, math.inf)[0]:
            return f"departure {t1} does not win"
        if later and identity_decide(inst, later[0], math.inf)[0]:
            return f"departure {later[0]} also wins"
        return None

    def check_duration(got):
        if got[0] is None:
            return "no window" if identity_decide(inst, 0, math.inf)[0] else None
        t1, t2 = got[0]
        return None if identity_decide(inst, t1, t2)[0] else f"window {got[0]} loses"

    return [Op(f"opt.earliest.{i}", "optimizer", earliest, check_earliest),
            Op(f"opt.latest.{i}", "optimizer", latest, check_latest),
            Op(f"opt.duration.{i}", "optimizer", duration, check_duration)]


# ---------------------------------------------------------------------------
# search: exact knowledge-state search in decision mode


def _li_op(name, kind, text, check=None, fixed=False):
    def run():
        return [lib.litctp.exact_li(parse(text)).wins]
    return Op(name, kind, run, check, fixed)


def search_ops() -> list:
    ser = lib.core.serialize_instance
    ops = []
    for i, f in enumerate(qbf_corpus()):
        q = gadgets.QbfFormula.from_cnf(f)
        text = ser(lib.gadgets.gen_li_pspace(q))
        ops.append(_li_op(f"qbf.{i}", "qbf-li", text,
                          expect(lambda q=q: [lib.gadgets.eval_qbf(q)]), fixed=True))
    for i, f in enumerate(cnf_classes()):
        want = (lambda f=f: [bool(lib.gadgets.eval_cnf_sat(f))])
        inst, bound = lib.gadgets.gen_static_np(f)
        text = ser(inst)

        def run(text=text, bound=bound):
            return [lib.staticctp.decide_static(parse(text), bound)]
        ops.append(Op(f"sat4.{i}", "sat4-static", run, expect(want), fixed=True))
        inst2, _ = lib.gadgets.gen_li_np(f)
        ops.append(_li_op(f"sat2.{i}", "sat2-li", ser(inst2), expect(want), fixed=True))
    # pinned like poly's large instances: the cost of one random search is
    # heavy-tailed, so a seeded corpus would swing the workload between seeds
    rng = random.Random(FIXED_SEED)
    for i in range(RANDOM_LI):
        inst = rand_temporal(rng, 14, 50, 15, 3, cmax=2)

        def check(got, inst=inst):
            # the locally informed traveller knows at least what the
            # uninformed one knows, so a u win is an li win
            if not got[0] and lib.utctp.decide_u(inst).wins:
                return "u win but li loses"
            return None
        ops.append(_li_op(f"li.random.{i}", "li-random", ser(inst), check, fixed=True))
    return ops


# ---------------------------------------------------------------------------
# cli: every subcommand end to end, in process


def dispatch(argv) -> tuple:
    """One in-process ``tctp`` call: (exit code, stdout).

    Anything escaping ``dispatch`` is a contract failure, as is an exit code
    outside 0/2/3/4, a traceback on stderr, or the state limit (exit 4).
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.dispatch(argv)
    except Exception as exc:  # the benchmark must survive a crashing call
        raise OpFailed(f"raised {type(exc).__name__}") from None
    if code not in EXIT_CODES or code == 4:
        raise OpFailed(f"exit code {code}")
    if "Traceback" in err.getvalue():
        raise OpFailed("traceback on stderr")
    return code, out.getvalue()


def _cli_op(name, kind, argv, want_exit=None, want_stdout=None, fixed=False):
    """want_exit / want_stdout: callables evaluated only in the check phase."""
    def run():
        code, stdout = dispatch(argv)
        return [code, sha(stdout)]

    def check(got):
        if want_exit is not None:
            w = want_exit()
            if got[0] != w:
                return f"exit {got[0]}, expected {w}"
        if want_stdout is not None and got[1] != sha(want_stdout()):
            return "stdout differs from the library's serialization"
        return None
    return Op(name, kind, run, check, fixed)


def expect_exit(want):
    def check(got):
        w = want()
        return None if got[:len(w)] == w else f"exit codes {got[:len(w)]}, expected {w}"
    return check


def _optimum_exit(objective, inst):
    fn = {"earliest": "earliest_arrival", "latest": "latest_departure",
          "duration": "shortest_duration"}[objective]
    return lambda: 3 if getattr(lib.utctp, fn)(inst) is None else 0


def _wins_exit(wins) -> int:
    return 0 if wins else 3


def _u_wins(inst):
    try:
        return lib.utctp.brute_u_game(inst)
    except lib.SizeLimitError:
        return lib.utctp.decide_u(inst).wins


def _static_wins(inst):
    discovery = "out" if inst.graph.directed else "incident"
    val = lib.staticctp.exact_static_value(inst, discovery)
    return val != math.inf and (inst.deadline is None or val <= inst.deadline)


def cli_files(seed: int, workdir: str) -> dict:
    """Write the cli workload's instance and formula files; return their paths."""
    rng = random.Random(seed)
    ser = lib.core.serialize_instance
    files: dict = {"temporal": [], "k1": [], "medium": [], "dag": [], "static": [],
                   "cnf": []}

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    for i in range(10):
        inst = tiny_temporal(rng, k=rng.randint(1, 2))
        fmt = "json" if i % 2 else "text"
        files["temporal"].append((write(f"t{i}.{fmt}", ser(inst, fmt)), inst))
    for i in range(6):
        inst = tiny_temporal(rng, k=1)
        files["k1"].append((write(f"k{i}.txt", ser(inst)), inst))
    # fixed, as the 90th percentile falls in their class
    fixed_rng = random.Random(FIXED_SEED)
    for i in range(20):
        inst = rand_temporal(fixed_rng, 20, 150, 20, 2)
        files["medium"].append((write(f"m{i}.txt", ser(inst)), inst))
    for i in range(10):
        inst = tiny_dag(rng)
        fmt = "json" if i % 2 else "text"
        files["dag"].append((write(f"d{i}.{fmt}", ser(inst, fmt)), inst))
    for i in range(6):
        inst = tiny_static(rng)
        files["static"].append((write(f"s{i}.txt", ser(inst)), inst))
    for i in range(4):
        n = rng.randint(1, 2)
        lits = [x for v in range(1, n + 1) for x in (v, -v)]
        clauses = [tuple(rng.choice(lits) for _ in range(3))
                   for _ in range(rng.randint(1, 2))]
        f = gadgets.CnfFormula.build(n, clauses)
        files["cnf"].append((write(f"f{i}.cnf", dimacs(f)), f))

    # fixed: the one-clause, one-variable sat4 pair and the contract edges
    for i, clause in enumerate(((1, 1, 1), (-1, -1, -1))):
        f = gadgets.CnfFormula.build(1, [clause])
        files.setdefault("sat4", []).append((write(f"sat4_{i}.cnf", dimacs(f)), f))
    files["chain"] = write("chain.txt", ser(chain(3000, 3)))
    files["tau_json"] = write("tau.json", (
        '{"model": "temporal", "vertices": ["a", "b"], "s": "a", "t": "b", '
        '"k": 0, "edges": [{"u": "a", "v": "b", "tau": "0", "d": 1}]}\n'))
    files["workdir"] = workdir
    return files


def cli_ops(files: dict) -> list:
    ops = []
    fmts = ("text", "json")

    def add(name, kind, argv, want_exit=None, want_stdout=None, fixed=False):
        ops.append(_cli_op(name, kind, argv, want_exit, want_stdout, fixed))

    for i, (path, inst) in enumerate(files["temporal"]):
        fmt = fmts[i % 2]
        f = ["--format", fmt]
        u = (lambda inst=inst: _wins_exit(_u_wins(inst)))
        li = (lambda inst=inst: _wins_exit(lib.litctp.exact_li(inst).wins))
        add(f"expand.t{i}", "expand", ["expand", path] + f, lambda: 0)
        add(f"expand.t{i}.window", "expand", ["expand", path, "--t1", "1", "--t2", "4"],
            lambda: 0)
        add(f"solve-u.t{i}", "solve-u", ["solve-u", path] + f, u)
        add(f"solve-u.t{i}.quiet", "solve-u", ["--quiet", "solve-u", path], u)
        for obj in ("earliest", "latest", "duration"):
            add(f"solve-u.t{i}.{obj}", "solve-u-objective",
                ["solve-u", path, "--objective", obj] + f, _optimum_exit(obj, inst))
        add(f"solve-li.t{i}", "solve-li", ["solve-li", path] + f, li)
        add(f"solve-li.t{i}.exact", "solve-li", ["solve-li", path, "--exact"] + f, li)
        add(f"play.t{i}.u", "play", ["play", path, "--model", "u"] + f, u)
        add(f"play.t{i}.li", "play", ["play", path, "--model", "li"] + f, li)
        add(f"play.t{i}.u.exhaustive", "play",
            ["play", path, "--model", "u", "--blocker", "exhaustive"] + f, u)
        add(f"verify.t{i}.u", "verify", ["verify", path, "--model", "u"] + f, u)
        add(f"verify.t{i}.li", "verify", ["verify", path, "--model", "li"] + f, li)
    for i, (path, inst) in enumerate(files["k1"]):
        li = (lambda inst=inst: _wins_exit(lib.litctp.exact_li(inst).wins))
        for fmt in fmts:
            add(f"solve-li.k{i}.{fmt}", "solve-li", ["solve-li", path, "--format", fmt], li)
    # the homogeneous medium class that the 90th percentile falls in
    for i, (path, inst) in enumerate(files["medium"]):
        u = (lambda inst=inst: _wins_exit(lib.utctp.decide_u(inst).wins))
        for fmt in fmts:
            add(f"solve-u.m{i}.{fmt}", "solve-u-medium",
                ["solve-u", path, "--format", fmt], u, fixed=True)
        if i < 4:
            add(f"expand.m{i}", "expand", ["expand", path, "--format", "json"],
                lambda: 0, fixed=True)
            add(f"play.m{i}.u", "play", ["play", path, "--model", "u"], u, fixed=True)
    for i, (path, inst) in enumerate(files["dag"]):
        fmt = fmts[i % 2]
        f = ["--format", fmt]

        def dag(inst=inst):
            val = lib.dagctp.brute_dag_game(inst.graph, inst.s, inst.t, inst.k,
                                            unlimited=True)
            return _wins_exit(val != math.inf)
        add(f"dag-solve.d{i}", "dag-solve", ["dag-solve", path] + f, dag)
        add(f"dag-solve.d{i}.table", "dag-solve", ["dag-solve", path, "--table"] + f, dag)
        add(f"play.d{i}.dag", "play", ["play", path, "--model", "dag"] + f, dag)
        add(f"verify.d{i}.dag", "verify", ["verify", path, "--model", "dag"] + f, dag)
        add(f"solve-static.d{i}", "solve-static", ["solve-static", path] + f,
            lambda inst=inst: _wins_exit(_static_wins(inst)))
    for i, (path, inst) in enumerate(files["static"]):
        st = (lambda inst=inst: _wins_exit(_static_wins(inst)))
        for fmt in fmts:
            f = ["--format", fmt]
            add(f"solve-static.s{i}.{fmt}", "solve-static", ["solve-static", path] + f, st)
            add(f"play.s{i}.static.{fmt}", "play",
                ["play", path, "--model", "static"] + f, st)
            add(f"verify.s{i}.static.{fmt}", "verify",
                ["verify", path, "--model", "static"] + f, st)
    for i, (path, f) in enumerate(files["cnf"]):
        for kind in ("qbf", "sat4", "sat2"):
            for fmt in fmts:
                add(f"gen.{kind}.f{i}.{fmt}", "gen",
                    ["gen", kind, path, "--format", fmt], lambda: 0,
                    lambda f=f, kind=kind, fmt=fmt: lib.core.serialize_instance(
                        _gadget(kind, f), fmt))

    # fixed operations, identical for every seed
    wd = files["workdir"]
    for i, (path, f) in enumerate(files["sat4"]):
        out = os.path.join(wd, f"sat4_{i}.txt")

        def run(path=path, out=out):
            gen_code, _ = dispatch(["gen", "sat4", path, "-o", out])
            code, stdout = dispatch(["solve-static", out])
            return [gen_code, code, sha(stdout)]
        ops.append(Op(f"sat4.gen-solve-static.{i}", "heavy", run,
                      expect_exit(lambda f=f: [0, _wins_exit(bool(gadgets.eval_cnf_sat(f)))]),
                      fixed=True))
    # contract edges: raise on the seed; a fixed build must give these exits
    add("edge.chain.solve-li-exact", "contract", ["solve-li", "--exact", files["chain"]],
        lambda: 0)
    add("edge.chain.play-li", "contract", ["play", files["chain"], "--model", "li"],
        lambda: 0)
    add("edge.dag-solve-temporal", "contract", ["dag-solve", files["chain"]], lambda: 2)
    add("edge.json-string-tau", "contract", ["solve-u", files["tau_json"]], lambda: 2)
    return ops


def _gadget(kind, f):
    if kind == "qbf":
        return gadgets.gen_li_pspace(gadgets.QbfFormula.from_cnf(f))
    if kind == "sat4":
        return gadgets.gen_static_np(f)[0]
    return gadgets.gen_li_np(f)[0]
