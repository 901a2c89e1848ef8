"""Formula-to-instance generators and brute-force formula oracles.

Three generators turn small boolean formulas into game instances whose
decision provably equals the formula's truth: quantified 3-CNF becomes a
locally-informed temporal game, plain 3-CNF becomes either a weighted static
game with budget 4 or a locally-informed temporal game with budget 2.  The
oracles evaluate the formulas exhaustively, so reduction correctness is an
executable test rather than a promise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from .core import Instance, StaticEdge, StaticGraph, TemporalGraph, TimeEdge
from .errors import InstanceFormatError, SizeLimitError

Clause = Tuple[int, int, int]


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF over variables 1..n; a literal is a signed variable index."""

    n: int
    clauses: Tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range 1..{self.n}")

    @classmethod
    def build(cls, n: int, clauses) -> "CnfFormula":
        return cls(n, tuple(tuple(c) for c in clauses))

    @property
    def m(self) -> int:
        return len(self.clauses)

    def satisfied_by(self, assignment) -> bool:
        """assignment[i-1] is the truth value of variable i."""
        return all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


@dataclass(frozen=True)
class QbfFormula:
    """CnfFormula under the strictly alternating prefix E x1 A x2 E x3 ...

    Only the fully alternating, existential-first, even-length prefix is
    representable; that is the exact shape the game construction consumes.
    """

    cnf: CnfFormula

    def __post_init__(self):
        if self.cnf.n % 2 != 0:
            raise ValueError("alternating prefix needs an even variable count")

    @classmethod
    def from_cnf(cls, cnf: CnfFormula) -> "QbfFormula":
        """Wrap a CNF, padding odd n with one dummy universal variable.

        The dummy appears in no clause, so truth is unchanged.
        """
        if cnf.n % 2 != 0:
            cnf = CnfFormula(cnf.n + 1, cnf.clauses)
        return cls(cnf)

    @property
    def n(self) -> int:
        return self.cnf.n

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        return self.cnf.clauses

    @property
    def prefix(self) -> Tuple[str, ...]:
        return tuple("e" if i % 2 == 1 else "a" for i in range(1, self.n + 1))


@dataclass(frozen=True)
class SatResult:
    sat: bool
    witness: Optional[Tuple[bool, ...]] = None

    def __bool__(self) -> bool:
        return self.sat


_EVAL_LIMIT = 20


def eval_qbf(f: QbfFormula) -> bool:
    """Truth of the alternating formula by exhaustive game-tree evaluation."""
    if f.n > _EVAL_LIMIT:
        raise SizeLimitError("brute-force formula variables", f.n, _EVAL_LIMIT)
    assignment = [False] * f.n

    def turn(i: int) -> bool:
        if i > f.n:
            return f.cnf.satisfied_by(assignment)
        results = []
        for value in (False, True):
            assignment[i - 1] = value
            results.append(turn(i + 1))
            # existential player needs one good branch, universal needs both
            if i % 2 == 1 and results[-1]:
                return True
            if i % 2 == 0 and not results[-1]:
                return False
        return results[-1]

    return turn(1)


def eval_cnf_sat(f: CnfFormula) -> SatResult:
    """Exhaustive satisfiability test; carries a witness when satisfiable."""
    if f.n > _EVAL_LIMIT:
        raise SizeLimitError("brute-force formula variables", f.n, _EVAL_LIMIT)
    for bits in itertools.product((False, True), repeat=f.n):
        if f.satisfied_by(bits):
            return SatResult(True, bits)
    return SatResult(False, None)


def parse_dimacs(text: str):
    """Parse DIMACS CNF, returning (CnfFormula, saw_quantifier_prefix).

    Accepts an optional prefix line ``q e a e a ...``; only the strictly
    alternating existential-first prefix is supported.  Clauses with fewer
    than three literals are padded by repeating the last one; clauses with
    more are rejected.
    """
    header = None
    prefix = None
    tokens: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InstanceFormatError("expected 'p cnf <vars> <clauses>'",
                                          line=lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise InstanceFormatError("non-numeric problem line",
                                          line=lineno) from None
            continue
        if line.split()[0] == "q":
            prefix = tuple(line.split()[1:])
            for pos, q in enumerate(prefix, 1):
                want = "e" if pos % 2 == 1 else "a"
                if q != want:
                    raise InstanceFormatError(
                        "only the strictly alternating prefix e a e a ... "
                        "is supported", line=lineno)
            continue
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise InstanceFormatError(f"bad literal {tok!r}",
                                          line=lineno) from None
    if header is None:
        raise InstanceFormatError("missing 'p cnf' line")
    n, m = header
    clauses = []
    current: list = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(current)
                current = []
            continue
        current.append(tok)
    if current:
        clauses.append(current)
    fixed = []
    for clause in clauses:
        if len(clause) > 3:
            raise InstanceFormatError(f"clause {clause} has more than 3 literals")
        while len(clause) < 3:
            clause.append(clause[-1])
        fixed.append(tuple(clause))
    if len(fixed) != m:
        raise InstanceFormatError(
            f"header promises {m} clauses, found {len(fixed)}")
    if prefix is not None and len(prefix) != n:
        raise InstanceFormatError(
            f"prefix length {len(prefix)} does not match {n} variables")
    return CnfFormula.build(n, fixed), prefix is not None


def _lit_vertex(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def gen_li_pspace(f: QbfFormula) -> Instance:
    """Alternating 3-CNF as a locally-informed temporal game, k = 2m + n/2.

    The walker crosses one diamond per variable: on odd (existential) ones
    they pick a side; on even (universal) ones the blocker's reveal picks it.
    The a-exits punish any blocker overspend, the b-detours punish blocking
    too little, and after the diamonds the walker must cross a clause vertex
    and finish through a literal vertex they have already visited.
    """
    n, m = f.n, f.cnf.m
    k = 2 * m + n // 2
    L = 7 * n // 2
    forced = k + 1
    d = 1
    edges = []

    def add(u, v, tau, copies=1):
        if copies > 0:
            edges.append(TimeEdge(u, v, tau, d, copies=copies))

    add("s", "v1", 0, forced)
    for i in range(1, n + 2):
        if i % 2 == 1:
            base = 7 * (i // 2)
            if i <= n:
                add(f"v{i}", f"x{i}", base + 1, forced)
                add(f"v{i}", f"nx{i}", base + 1, forced)
                add(f"x{i}", f"v{i + 1}", base + 2, forced)
                add(f"nx{i}", f"v{i + 1}", base + 2, forced)
            add(f"v{i}", f"a{i}", base + 1, forced)
        else:
            base = 7 * ((i - 1) // 2)
            add(f"v{i}", f"x{i}", base + 3)
            add(f"v{i}", f"nx{i}", base + 6)
            add(f"x{i}", f"v{i + 1}", 7 * (i // 2), forced)
            add(f"nx{i}", f"v{i + 1}", 7 * (i // 2), forced)
            add(f"x{i}", f"b{i}", base + 4, forced)
            add(f"b{i}", f"v{i}", base + 5, forced)
            # detour reward: reachable copies, arriving from x_i at base+5
            add(f"b{i}", "t", base + 5, 2)
            add(f"v{i}", f"a{i}", base + 3, forced)
        add(f"a{i}", "t", L + 5, k - i // 2)
    for i in range(1, n + 1):
        add(f"x{i}", f"z{i}", L + 4)
        add(f"nx{i}", f"z{i}", L + 4)
        add(f"z{i}", "t", L + 5, 2 * m)
    add(f"v{n + 1}", "w", L + 1, forced)
    add("w", "t", L + 2)
    for j, clause in enumerate(f.clauses, 1):
        add("w", f"c{j}", L + 2, 2)
        for lit in dict.fromkeys(clause):
            add(f"c{j}", _lit_vertex(lit), L + 3, forced)
    vertices = {"s", "t"} | {x for e in edges for x in (e.u, e.v)}
    graph = TemporalGraph.build(vertices, edges)
    return Instance(graph, "s", "t", k, deadline=L + 6)


def gen_static_np(f: CnfFormula):
    """Plain 3-CNF as a weighted static game with budget 4; returns (inst, T).

    Weights are scaled by M = 2n+2m+1 so any off-script move overshoots the
    bound T = 27M+2n+2m.  The honest tour walks the variable diamonds, then
    each clause fan; a blocked clause exit is recovered through the beta
    vertex of a satisfied literal, whose z-edge is known to be open.
    """
    n, m = f.n, f.m
    M = 2 * n + 2 * m + 1
    T = 27 * M + 2 * n + 2 * m
    k = 4
    forced = k + 1
    edges = []

    def add(u, v, weight, copies=1):
        if copies > 0:
            edges.append(StaticEdge(u, v, weight, copies=copies))

    for i in range(1, n + 1):
        add(f"v{i - 1}", f"x{i}", 1, forced)
        add(f"v{i - 1}", f"nx{i}", 1, forced)
        add(f"x{i}", f"v{i}", 1, forced)
        add(f"nx{i}", f"v{i}", 1, forced)
        add(f"x{i}", f"z{i}", 10 * M)
        add(f"nx{i}", f"nz{i}", 10 * M)
        add(f"z{i}", "t", 0, 2)
        add(f"nz{i}", "t", 0, 2)
    add(f"v{n}", "w", 2 * m + 27 * M, forced)
    add("w", "t", 0, 4)
    add(f"v{n}", "c1", 9 * M)
    for j, clause in enumerate(f.clauses, 1):
        dj = 2 * m - 2 * j + 1
        for s, lit in enumerate(clause, 1):
            add(f"c{j}", f"alpha{j}_{s}", 1, forced)
            add(f"alpha{j}_{s}", f"c{j + 1}", 1, 3)
            add(f"alpha{j}_{s}", f"beta{j}_{s}", dj, 2)
            add(f"beta{j}_{s}", _lit_vertex(lit), 8 * M, forced)
    add(f"c{m + 1}", "t", 18 * M, forced)
    vertices = {"v0", "t"} | {x for e in edges for x in (e.u, e.v)}
    graph = StaticGraph.build(vertices, edges)
    return Instance(graph, "v0", "t", k, deadline=T), T


def gen_li_np(f: CnfFormula):
    """Plain 3-CNF as a locally-informed temporal game with budget 2.

    Same skeleton as the static construction, with appearance times doing the
    work of the heavy weights; returns (inst, (0, horizon)).
    """
    n, m = f.n, f.m
    k = 2
    forced = k + 1
    L2 = 2 * n + 2 * m + 2
    d = 1
    edges = []

    def add(u, v, tau, copies=1):
        if copies > 0:
            edges.append(TimeEdge(u, v, tau, d, copies=copies))

    for i in range(1, n + 1):
        add(f"v{i - 1}", f"x{i}", 2 * i - 1, forced)
        add(f"v{i - 1}", f"nx{i}", 2 * i - 1, forced)
        add(f"x{i}", f"v{i}", 2 * i, forced)
        add(f"nx{i}", f"v{i}", 2 * i, forced)
        add(f"x{i}", f"z{i}", L2 + 2)
        add(f"nx{i}", f"nz{i}", L2 + 2)
        # departure one step after the walker can first stand on z
        add(f"z{i}", "t", L2 + 3, 2)
        add(f"nz{i}", "t", L2 + 3, 2)
    add(f"v{n}", "w", 2 * n + 1, forced)
    add("w", "t", 2 * n + 2, 2)
    add(f"v{n}", "c1", 2 * n + 1)
    for j, clause in enumerate(f.clauses, 1):
        for s, lit in enumerate(clause, 1):
            add(f"c{j}", f"alpha{j}_{s}", 2 * n + 2 * j, forced)
            add(f"alpha{j}_{s}", f"c{j + 1}", 2 * n + 2 * j + 1)
            add(f"alpha{j}_{s}", f"beta{j}_{s}", L2, forced)
            add(f"beta{j}_{s}", _lit_vertex(lit), L2 + 1, forced)
    add(f"c{m + 1}", "t", L2, forced)
    vertices = {"v0", "t"} | {x for e in edges for x in (e.u, e.v)}
    graph = TemporalGraph.build(vertices, edges)
    return Instance(graph, "v0", "t", k, deadline=L2 + 4), (0, L2 + 4)
