"""Formula oracles, DIMACS parsing, and the three reduction generators."""
import pytest

from tctp.core import serialize_instance
from tctp.errors import InstanceFormatError, SizeLimitError
from tctp.gadgets import (
    CnfFormula,
    QbfFormula,
    eval_cnf_sat,
    eval_qbf,
    gen_li_np,
    gen_li_pspace,
    gen_static_np,
    parse_dimacs,
)
from tctp.litctp import exact_li
from tctp.staticctp import decide_static

# hand-checkable two-variable formulas used throughout
WORKED_TRUE = CnfFormula.build(2, [(1, 2, 2), (1, -2, -2)])
WORKED_FALSE = CnfFormula.build(2, [(1, 1, 1), (-1, 2, 2)])


def test_cnf_validation():
    with pytest.raises(ValueError, match="3 literals"):
        CnfFormula.build(2, [(1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula.build(1, [(1, 2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula.build(1, [(1, 0, 1)])
    f = WORKED_TRUE
    assert f.m == 2 and f.n == 2
    assert f.satisfied_by((True, True))
    assert f.satisfied_by((True, False))
    assert not f.satisfied_by((False, False))


def test_qbf_prefix_shape():
    q = QbfFormula(WORKED_TRUE)
    assert q.prefix == ("e", "a")
    assert q.clauses == WORKED_TRUE.clauses
    with pytest.raises(ValueError, match="even"):
        QbfFormula(CnfFormula.build(1, [(1, 1, 1)]))


def test_from_cnf_pads_with_a_silent_universal():
    odd = CnfFormula.build(1, [(1, 1, 1)])
    q = QbfFormula.from_cnf(odd)
    assert q.n == 2
    assert q.clauses == odd.clauses
    assert eval_qbf(q) is True
    assert eval_qbf(QbfFormula.from_cnf(CnfFormula.build(1, [(-1, -1, -1)]))) is True
    both = CnfFormula.build(1, [(1, 1, 1), (-1, -1, -1)])
    assert eval_qbf(QbfFormula.from_cnf(both)) is False


def test_eval_qbf_worked_examples():
    # picking x1 true satisfies both clauses whatever x2 turns out to be
    assert eval_qbf(QbfFormula(WORKED_TRUE)) is True
    # x1 is forced true by the first clause, then x2 = false kills the second
    assert eval_qbf(QbfFormula(WORKED_FALSE)) is False


def test_eval_cnf_sat_returns_a_checkable_witness():
    res = eval_cnf_sat(WORKED_TRUE)
    assert res and res.sat
    assert WORKED_TRUE.satisfied_by(res.witness)
    contradiction = CnfFormula.build(1, [(1, 1, 1), (-1, -1, -1)])
    res = eval_cnf_sat(contradiction)
    assert not res and res.witness is None


def test_eval_guards_wide_formulas():
    wide = CnfFormula.build(21, [(21, 21, 21)])
    with pytest.raises(SizeLimitError,
                       match=r"^brute-force formula variables exceeded 20 \(reached 21\)$"):
        eval_cnf_sat(wide)
    wide_even = CnfFormula.build(22, [(22, 22, 22)])
    with pytest.raises(SizeLimitError,
                       match=r"^brute-force formula variables exceeded 20 \(reached 22\)$"):
        eval_qbf(QbfFormula(wide_even))


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs_basic():
    f, quantified = parse_dimacs("c a comment\np cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert not quantified
    assert f.n == 2
    assert f.clauses == ((1, 2, 2), (-1, -2, -2))


def test_parse_dimacs_prefix_and_final_clause():
    f, quantified = parse_dimacs("q e a\np cnf 2 1\n1 2")
    assert quantified
    assert f.clauses == ((1, 2, 2),)
    with pytest.raises(InstanceFormatError, match="alternating"):
        parse_dimacs("q a e\np cnf 2 1\n1 2 0\n")
    with pytest.raises(InstanceFormatError, match="prefix length"):
        parse_dimacs("q e\np cnf 2 1\n1 2 0\n")


def test_parse_dimacs_errors():
    with pytest.raises(InstanceFormatError, match="missing 'p cnf'"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(InstanceFormatError, match="more than 3"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(InstanceFormatError, match="bad literal"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(InstanceFormatError, match="promises"):
        parse_dimacs("p cnf 2 2\n1 2 0\n")
    with pytest.raises(InstanceFormatError, match="p cnf"):
        parse_dimacs("p sat 2 1\n1 2 0\n")
    with pytest.raises(InstanceFormatError, match="non-numeric"):
        parse_dimacs("p cnf two 1\n1 2 0\n")


# ---------------------------------------------------------------------------
# generator structure


def test_alternating_reduction_inventory():
    q = QbfFormula(CnfFormula.build(2, [(1, 2, 2)]))
    inst = gen_li_pspace(q)
    g = inst.graph
    assert inst.k == 2 * 1 + 2 // 2 == 3
    assert inst.deadline == 13
    assert set(g.vertices) == {
        "s", "t", "v1", "v2", "v3", "x1", "nx1", "x2", "nx2",
        "a1", "a2", "a3", "b2", "z1", "z2", "w", "c1",
    }
    assert len(g.vertices) == 17
    assert max(e.tau for e in g.edges) == 12  # nothing departs past L + 5
    copies = {e.key: e.copies for e in g.edges}
    forced = inst.k + 1
    assert copies[("s", "v1", 0, 1)] == forced
    assert copies[("a1", "t", 12, 1)] == 3
    assert copies[("a2", "t", 12, 1)] == 2
    assert copies[("a3", "t", 12, 1)] == 2
    assert copies[("t", "z1", 12, 1)] == 2  # 2m exit copies
    assert copies[("b2", "t", 5, 1)] == 2


def test_weighted_reduction_inventory():
    inst, T = gen_static_np(CnfFormula.build(2, [(1, 2, 2)]))
    g = inst.graph
    M = 2 * 2 + 2 * 1 + 1
    assert M == 7
    assert T == 27 * M + 2 * 2 + 2 * 1 == 195
    assert inst.k == 4 and inst.deadline == T
    assert inst.s == "v0" and inst.t == "t"
    assert len(g.vertices) == 21
    by_key = {e.key: e for e in g.edges}
    assert by_key[("t", "w", 0)].copies == 4
    assert by_key[("v2", "w", 2 * 1 + 27 * M)].copies == 5
    assert by_key[("x1", "z1", 10 * M)].copies == 1
    assert by_key[("t", "z1", 0)].copies == 2
    assert by_key[("c2", "t", 18 * M)].copies == 5
    assert by_key[("alpha1_1", "c2", 1)].copies == 3
    assert by_key[("alpha1_1", "beta1_1", 2 * 1 - 2 * 1 + 1)].copies == 2
    assert by_key[("beta1_1", "x1", 8 * M)].copies == 5


def test_thrifty_reduction_inventory():
    inst, window = gen_li_np(CnfFormula.build(2, [(1, 2, 2)]))
    g = inst.graph
    L2 = 2 * 2 + 2 * 1 + 2
    assert L2 == 8
    assert inst.k == 2 and inst.deadline == L2 + 4
    assert window == (0, L2 + 4)
    copies = {e.key: e.copies for e in g.edges}
    assert copies[("t", "z1", L2 + 3, 1)] == 2
    assert copies[("alpha1_1", "c2", 2 * 2 + 2 * 1 + 1, 1)] == 1
    assert copies[("c2", "t", L2, 1)] == 3
    assert copies[("t", "w", 2 * 2 + 2, 1)] == 2
    assert copies[("c1", "v2", 2 * 2 + 1, 1)] == 1


def test_generators_are_deterministic():
    q = QbfFormula(WORKED_TRUE)
    assert serialize_instance(gen_li_pspace(q)) == serialize_instance(gen_li_pspace(q))
    a, _ = gen_static_np(WORKED_FALSE)
    b, _ = gen_static_np(WORKED_FALSE)
    assert serialize_instance(a) == serialize_instance(b)
    c, _ = gen_li_np(WORKED_TRUE)
    d, _ = gen_li_np(WORKED_TRUE)
    assert serialize_instance(c) == serialize_instance(d)


# ---------------------------------------------------------------------------
# reductions decide their formulas


def test_alternating_reduction_decides_truth():
    for cnf, want in ((WORKED_TRUE, True), (WORKED_FALSE, False)):
        q = QbfFormula(cnf)
        assert eval_qbf(q) is want
        assert exact_li(gen_li_pspace(q)).wins is want


def test_satisfiability_reductions_decide_truth():
    cases = [
        WORKED_TRUE,
        CnfFormula.build(1, [(1, 1, 1)]),
        CnfFormula.build(1, [(1, 1, 1), (-1, -1, -1)]),
    ]
    for cnf in cases:
        want = bool(eval_cnf_sat(cnf))
        inst, T = gen_static_np(cnf)
        assert decide_static(inst, T) is want
        linst, _ = gen_li_np(cnf)
        assert exact_li(linst).wins is want
