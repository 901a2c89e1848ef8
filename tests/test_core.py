"""Edge and graph types, instance validation, and instance format round trips."""
import json
import random

import pytest

from generators import rand_dag, rand_temporal
from tctp.core import (
    Instance,
    StaticEdge,
    StaticGraph,
    TemporalGraph,
    TimeEdge,
    lifespan,
    parse_instance,
    serialize_instance,
)
from tctp.errors import InstanceFormatError
from tctp.samples import separating_instance


def test_time_edge_orients_endpoints_canonically():
    e = TimeEdge("z", "a", 3, 1)
    assert (e.u, e.v) == ("a", "z")
    assert e.key == ("a", "z", 3, 1)
    assert e.arrival == 4
    assert e.other("a") == "z" and e.other("z") == "a"


def test_time_edge_rejects_bad_fields():
    with pytest.raises(ValueError):
        TimeEdge("a", "a", 0, 1)
    with pytest.raises(ValueError):
        TimeEdge("a", "b", -1, 1)
    with pytest.raises(ValueError):
        TimeEdge("a", "b", 0, 0)
    with pytest.raises(ValueError):
        TimeEdge("a", "b", 0, 1, copies=0)
    with pytest.raises(ValueError):
        e = TimeEdge("a", "b", 0, 1)
        e.other("c")


def test_static_edge_allows_zero_weight():
    assert StaticEdge("a", "b", 0).weight == 0
    with pytest.raises(ValueError):
        StaticEdge("a", "b", -1)
    with pytest.raises(ValueError):
        StaticEdge("a", "b", 1, copies=0)


def test_build_merges_parallel_records():
    g = TemporalGraph.build(
        ["a", "b"],
        [TimeEdge("a", "b", 0, 1, copies=2), TimeEdge("b", "a", 0, 1, copies=3)],
    )
    assert len(g.edges) == 1
    assert g.edges[0].copies == 5


def test_build_rejects_dangling_endpoint():
    with pytest.raises(ValueError):
        TemporalGraph.build(["a"], [TimeEdge("a", "b", 0, 1)])
    with pytest.raises(ValueError):
        StaticGraph.build(["a"], [StaticEdge("a", "b", 1)])


def test_canonicalization_is_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        g = rand_temporal(rng).graph
        again = TemporalGraph.build(g.vertices, g.edges)
        assert again == g


def test_undirected_static_edges_canonicalize():
    g = StaticGraph.build(["a", "b"], [StaticEdge("b", "a", 2)])
    assert g.edges[0].key == ("a", "b", 2)
    d = StaticGraph.build(["a", "b"], [StaticEdge("b", "a", 2)], directed=True)
    assert d.edges[0].key == ("b", "a", 2)
    assert d.outgoing("a") == ()
    assert g.outgoing("a") == g.edges


def test_lifespan():
    assert lifespan(separating_instance(2).graph) == 3
    assert lifespan(TemporalGraph.build(["a"], [])) == 0
    assert lifespan(TemporalGraph.build(["a", "b"], [TimeEdge("a", "b", 7, 2)])) == 7


def test_instance_validation():
    g = TemporalGraph.build(["a", "b"], [TimeEdge("a", "b", 0, 1)])
    with pytest.raises(ValueError):
        Instance(g, "zzz", "b", 0)
    with pytest.raises(ValueError):
        Instance(g, "a", "zzz", 0)
    with pytest.raises(ValueError):
        Instance(g, "a", "b", -1)
    with pytest.raises(ValueError):
        Instance(g, "a", "b", 0, deadline=-1)


def test_model_tags():
    assert separating_instance(1).model == "temporal"
    sg = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 1)])
    assert Instance(sg, "a", "b", 0).model == "static"
    dg = StaticGraph.build(["a", "b"], [StaticEdge("a", "b", 1)], directed=True)
    assert Instance(dg, "a", "b", 0).model == "dag"


# ---------------------------------------------------------------------------
# serialization


def _instances(rng, n):
    out = [separating_instance(2), separating_instance(1)]
    for _ in range(n):
        out.append(rand_temporal(rng))
        out.append(rand_dag(rng))
    sg = StaticGraph.build(["a", "b", "c"], [StaticEdge("a", "b", 0, 2),
                                            StaticEdge("b", "c", 3)])
    out.append(Instance(sg, "a", "c", 1, deadline=9))
    return out


def test_round_trip_both_formats():
    rng = random.Random(7)
    for inst in _instances(rng, 10):
        for fmt in ("text", "json"):
            assert parse_instance(serialize_instance(inst, fmt)) == inst
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        serialize_instance(inst, "xml")


def test_serialization_is_byte_stable():
    rng = random.Random(8)
    for inst in _instances(rng, 6):
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text


def test_parse_reports_line_numbers():
    with pytest.raises(InstanceFormatError, match="line 3.*unknown source"):
        parse_instance("model temporal\nvertices a b\ns zz\nt b\nk 0\n")
    with pytest.raises(InstanceFormatError, match="missing model"):
        parse_instance("vertices a b\ns a\nt b\nk 0\n")
    with pytest.raises(InstanceFormatError, match="bad k value"):
        parse_instance("model temporal\nvertices a b\ns a\nt b\nk many\n")
    with pytest.raises(InstanceFormatError, match="edge record"):
        parse_instance("model temporal\nvertices a b\ns a\nt b\nk 0\nedge a b 0\n")
    with pytest.raises(InstanceFormatError, match="unknown keyword"):
        parse_instance("model temporal\nwat\n")


_HEAD = "model {}\nvertices a b\ns a\nt b\nk 0\n"


@pytest.mark.parametrize("text, line, message", [
    ("model temporal\nvertices a b\ns a\nk 0\n", None, "missing t line"),
    (_HEAD.format("temporal") + "deadline soon\n", 6, "bad deadline value 'soon'"),
    (_HEAD.format("temporal") + "edge a b x 1\n", 6, "bad edge numbers in 'a b x 1'"),
    (_HEAD.format("temporal") + "edge a zz 0 1\n", 6, "unknown vertex 'zz' in edge"),
    (_HEAD.format("static") + "edge a b 1\nedge a a 1\n", 7, "loop edge at 'a'"),
    ("model temporal\nvertices a b\ns a\nt b\nk -1\n", 5, "blocker budget k must be >= 0"),
    (_HEAD.format("temporal") + "deadline -2\n", 6, "deadline must be >= 0"),
    # a faulty record fails at its own line, whatever it would merge with
    (_HEAD.format("temporal") + "edge a b 0 1 2\nedge b a 0 1 0\n", 7,
     "copies must be >= 1 on b-a"),
])
def test_parse_errors_name_their_line(text, line, message):
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_parse_rejects_repeated_header_lines():
    head = "model temporal\nvertices a b\ns a\nt b\nk 1\ndeadline 3\n"
    for line in ("model temporal", "s b", "t a", "k 2", "deadline 9"):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(head + line + "\n")
        assert info.value.line == 7
        assert f"repeated {line.split()[0]} line" in str(info.value)
    # vertices lines accumulate, and that is no repeat
    assert parse_instance(head + "vertices c\n").graph.vertices == ("a", "b", "c")


def test_parse_rejects_deeply_nested_json():
    with pytest.raises(InstanceFormatError, match="nested too deeply"):
        parse_instance('{"a": ' + "[" * 100_000)


def test_parse_merges_duplicate_edge_records():
    inst = parse_instance(
        "model temporal\nvertices a b\ns a\nt b\nk 1\n"
        "edge a b 0 1 2\nedge a b 0 1 3\n"
    )
    assert len(inst.graph.edges) == 1
    assert inst.graph.edges[0].copies == 5


def test_parse_allows_comments_and_default_copies():
    inst = parse_instance(
        "# a comment\nmodel temporal\nvertices a b  # trailing\n"
        "s a\nt b\nk 0\n\nedge a b 2 1\n"
    )
    assert inst.graph.edges[0].copies == 1
    assert inst.graph.edges[0].tau == 2


def test_parse_json_errors():
    with pytest.raises(InstanceFormatError, match="missing field"):
        parse_instance('{"model": "temporal"}')
    with pytest.raises(InstanceFormatError):
        parse_instance('{"model": "wat", "vertices": [], "s": "a", "t": "a", "k": 0}')


def _json_instance(k=0, tau=0, vertices=("a", "b")):
    return json.dumps({"model": "temporal", "vertices": list(vertices), "s": "a",
                       "t": "b", "k": k, "edges": [{"u": "a", "v": "b", "tau": tau,
                                                    "d": 1}]})


def test_parse_json_field_types():
    assert parse_instance(_json_instance()).graph.edges[0].tau == 0
    with pytest.raises(InstanceFormatError, match="tau must be an integer"):
        parse_instance(_json_instance(tau="0"))
    with pytest.raises(InstanceFormatError, match="tau must be an integer"):
        parse_instance(_json_instance(tau=0.5))
    with pytest.raises(InstanceFormatError, match="k must be an integer"):
        parse_instance(_json_instance(k=True))
    with pytest.raises(InstanceFormatError, match="vertex name must be a string"):
        parse_instance(_json_instance(vertices=("a", "b", 3)))


def test_deadline_round_trips():
    inst = Instance(separating_instance(2).graph, "s", "t", 2, deadline=4)
    for fmt in ("text", "json"):
        assert parse_instance(serialize_instance(inst, fmt)).deadline == 4
    assert parse_instance(serialize_instance(separating_instance(2))).deadline is None
