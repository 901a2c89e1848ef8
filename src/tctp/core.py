"""Graph model and on-disk instance format.

Two graph flavours share one Instance container:

* temporal graphs: undirected time edges (u, v, tau, d) that depart at time
  tau, take d time units, and may exist in several identical copies;
* static graphs: weighted edges, optionally directed (the "dag" model tag).

Instances serialize to a line-oriented text format or to JSON; both round-trip
through ``parse_instance`` / ``serialize_instance``.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

from .errors import InstanceFormatError

# Static graphs produced by the time expansion use (name, time) tuples as
# vertex ids; everything parsed from disk uses plain strings.
VertexId = Union[str, tuple]


class _Edge:
    """Endpoint helpers shared by both edge kinds; it adds no field and no
    slot, so equality, hashing and field order stay the subclasses' own."""

    __slots__ = ()

    def touches(self, x) -> bool:
        return x == self.u or x == self.v

    def other(self, x):
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"{x!r} is not an endpoint of {self.u}-{self.v}")


@dataclass(frozen=True, slots=True)
class TimeEdge(_Edge):
    """One undirected time edge; `copies` identical parallel copies. Its
    ``key``, (u, v, tau, d), is stored once and left out of ==, hash and repr."""

    u: str
    v: str
    tau: int
    d: int
    copies: int = 1
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u!r}")
        if self.tau < 0:
            raise ValueError(f"negative appearance time on {self.u}-{self.v}")
        if self.d < 1:
            raise ValueError(f"travel time must be >= 1 on {self.u}-{self.v}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1 on {self.u}-{self.v}")
        if self.v < self.u:
            u, v = self.u, self.v
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)
        object.__setattr__(self, "key", (self.u, self.v, self.tau, self.d))

    @property
    def arrival(self) -> int:
        return self.tau + self.d


@dataclass(frozen=True, slots=True)
class StaticEdge(_Edge):
    """Weighted edge of a static graph; directed graphs read it as u -> v.
    Its ``key``, (u, v, weight), is stored once, as on ``TimeEdge``."""

    u: VertexId
    v: VertexId
    weight: int
    copies: int = 1
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u!r}")
        if self.weight < 0:
            raise ValueError(f"negative weight on {self.u}-{self.v}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1 on {self.u}-{self.v}")
        object.__setattr__(self, "key", (self.u, self.v, self.weight))


def _sums(vset: set, keyed) -> dict:
    """Copies summed per canonical key over keyed's (key, u, v, copies)
    records; an endpoint outside vset is a ValueError."""
    merged: dict[tuple, int] = {}
    for key, u, v, copies in keyed:
        if u not in vset or v not in vset:
            raise ValueError(f"edge endpoint {u if u not in vset else v!r} not in vertex list")
        merged[key] = merged.get(key, 0) + copies
    return merged


class _Graph:
    """Lookups shared by both graph kinds over their vertices and edges;
    field-less like _Edge."""

    @cached_property
    def _incident(self) -> dict:
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.u].append(e)
            table[e.v].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def incident(self, v) -> tuple:
        return self._incident[v]

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}


@dataclass(frozen=True)
class TemporalGraph(_Graph):
    vertices: tuple[str, ...]
    edges: tuple[TimeEdge, ...]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[TimeEdge]) -> "TemporalGraph":
        """Canonicalize: sort vertices, merge parallel records by summing copies."""
        vset = set(vertices)
        keyed = ((e.key, e.u, e.v, e.copies) for e in edges)
        return _graph("temporal", vset, _sums(vset, keyed))

    @cached_property
    def latest_first(self) -> tuple[TimeEdge, ...]:
        """Edges by decreasing tau, ties by key: the label-pass order."""
        return tuple(sorted(self.edges, key=lambda e: (-e.tau, e.key)))


@dataclass(frozen=True)
class StaticGraph(_Graph):
    vertices: tuple
    edges: tuple[StaticEdge, ...]
    directed: bool = False

    @classmethod
    def build(cls, vertices, edges: Iterable[StaticEdge], directed: bool = False) -> "StaticGraph":
        vset = set(vertices)
        keyed = (((e.v, e.u, e.weight) if not directed and e.v < e.u else e.key, e.u, e.v,
                  e.copies) for e in edges)
        return _graph("dag" if directed else "static", vset, _sums(vset, keyed))

    @cached_property
    def _outgoing(self) -> dict:
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.u].append(e)
            if not self.directed:
                table[e.v].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def outgoing(self, v) -> tuple[StaticEdge, ...]:
        """Edges usable to leave v (all incident ones when undirected)."""
        return self._outgoing[v]


Graph = Union[TemporalGraph, StaticGraph]


@dataclass(frozen=True)
class Instance:
    """A game instance: graph, source, target, blocker budget, optional deadline."""

    graph: Graph
    s: VertexId
    t: VertexId
    k: int
    deadline: int | None = None

    def __post_init__(self):
        if self.s not in self.graph.index:
            raise ValueError(f"unknown source vertex {self.s!r}")
        if self.t not in self.graph.index:
            raise ValueError(f"unknown target vertex {self.t!r}")
        if self.k < 0:
            raise ValueError("blocker budget k must be >= 0")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    @property
    def model(self) -> str:
        if isinstance(self.graph, TemporalGraph):
            return "temporal"
        return "dag" if self.graph.directed else "static"


def window(inst: Instance, t1, t2) -> tuple:
    """The temporal game's window (t1, t2): t2 defaults to the instance
    deadline, else unbounded. A window that starts before 0 or ends before
    it starts is a ValueError."""
    if t2 is None:
        t2 = math.inf if inst.deadline is None else inst.deadline
    if t1 < 0 or t1 > t2:
        raise ValueError(f"bad window [{t1}, {t2}]")
    return t1, t2


def lifespan(g: TemporalGraph) -> int:
    """Largest appearance time over all time edges (0 for an edgeless graph)."""
    return max((e.tau for e in g.edges), default=0)


# ---------------------------------------------------------------------------
# serialization

_MODELS = ("temporal", "static", "dag")


def serialize_instance(inst: Instance, fmt: str = "text") -> str:
    """Stable serialization: vertices and edges in canonical sorted order."""
    if fmt == "json":
        return _json_text(inst)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    g = inst.graph
    names = {v: _name(v) for v in g.vertices}  # each vertex's name, once
    lines = [f"model {inst.model}", "vertices " + " ".join(names.values()),
             f"s {_name(inst.s)}", f"t {_name(inst.t)}", f"k {inst.k}"]
    if inst.deadline is not None:
        lines.append(f"deadline {inst.deadline}")
    if isinstance(g, TemporalGraph):
        lines += [f"edge {e.u} {e.v} {e.tau} {e.d} {e.copies}" for e in g.edges]
    else:
        lines += [f"edge {names[e.u]} {names[e.v]} {e.weight} {e.copies}" for e in g.edges]
    return "\n".join(lines) + "\n"


def _name(v: VertexId) -> str:
    if isinstance(v, str):
        return v
    name, time = v
    return f"{name}@{time}" if name != "@target" else "@target"


# one edge object of the JSON layout; its numbers are ints, which % writes as json does
_TIME_EDGE = ('{\n      "u": %s,\n      "v": %s,\n      "tau": %s,\n      "d": %s,\n'
              '      "copies": %s\n    }')
_STATIC_EDGE = '{\n      "u": %s,\n      "v": %s,\n      "weight": %s,\n      "copies": %s\n    }'


def _json_text(inst: Instance) -> str:
    """``json.dumps(..., indent=2)`` of the schema's fields in its order, laid
    out here: ``indent`` takes json's pure-Python encoder, at several times
    the cost."""
    g, q = inst.graph, json.encoder.encode_basestring_ascii
    names = {v: q(_name(v)) for v in g.vertices}  # each vertex's JSON string, once
    if isinstance(g, TemporalGraph):
        edges = [_TIME_EDGE % (names[e.u], names[e.v], e.tau, e.d, e.copies) for e in g.edges]
    else:
        edges = [_STATIC_EDGE % (names[e.u], names[e.v], e.weight, e.copies) for e in g.edges]
    deadline = "" if inst.deadline is None else f',\n  "deadline": {inst.deadline}'
    return (f'{{\n  "model": {q(inst.model)},\n  "vertices": {_json_list([*names.values()])},\n'
            f'  "s": {names[inst.s]},\n  "t": {names[inst.t]},\n  "k": {inst.k}{deadline},\n'
            f'  "edges": {_json_list(edges)}\n}}\n')


def _json_list(items: list) -> str:
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def parse_instance(text: str) -> Instance:
    """Parse either serialization; text errors carry the offending line number.

    Each edge record is checked once, its copies are summed under its
    canonical key, and the graph takes its sorted edges from those sums.
    """
    if text.lstrip().startswith("{"):
        try:
            return _from_dict(json.loads(text))
        except RecursionError:
            raise InstanceFormatError("JSON nested too deeply") from None
    return _parse_text(text)


def _parse_text(text: str) -> Instance:
    vertices: list[str] = []
    fields: dict[str, tuple[str, int]] = {}
    records: list[list[str]] = []  # each edge line's tokens, "edge" first
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw == "edge":
            records.append(tokens)
            linenos.append(lineno)
        elif kw == "vertices":
            vertices += tokens[1:]
        elif kw in fields:
            raise InstanceFormatError(f"repeated {kw} line", lineno)
        elif kw in ("model", "s", "t", "k", "deadline"):
            if kw == "model" and (len(tokens) != 2 or tokens[1] not in _MODELS):
                line = raw.split("#", 1)[0].strip()
                raise InstanceFormatError(f"bad model line {line!r}", lineno)
            if len(tokens) != 2:
                raise InstanceFormatError(f"{kw} takes one value", lineno)
            fields[kw] = (tokens[1], lineno)
        else:
            raise InstanceFormatError(f"unknown keyword {kw!r}", lineno)
    for req in ("model", "s", "t", "k"):
        if req not in fields:
            raise InstanceFormatError(f"missing {req} line")
    model = fields["model"][0]
    vset = set(vertices)
    for kw, which in (("s", "source"), ("t", "target")):
        name, lineno = fields[kw]
        if name not in vset:
            raise InstanceFormatError(f"unknown {which} vertex {name!r}", lineno)
    k = _count(*fields["k"], "k", "blocker budget k")
    deadline = (_count(*fields["deadline"], "deadline", "deadline")
                if "deadline" in fields else None)

    # the loops only tell sound records from faulty ones; _record_error names the fault
    merged: dict[tuple, int] = {}
    get = merged.get
    if model == "temporal":
        for tokens, lineno in zip(records, linenos):
            try:
                _, u, v, tau, d, copies = tokens if len(tokens) == 6 else (*tokens, "1")
                tau, d, copies = int(tau), int(d), int(copies)
            except ValueError:
                raise _record_error(tokens, lineno, model, vset) from None
            if u not in vset or v not in vset or u == v or tau < 0 or d < 1 or copies < 1:
                raise _record_error(tokens, lineno, model, vset)
            key = (u, v, tau, d) if u < v else (v, u, tau, d)
            merged[key] = get(key, 0) + copies
    else:
        for tokens, lineno in zip(records, linenos):
            try:
                _, u, v, weight, copies = tokens if len(tokens) == 5 else (*tokens, "1")
                weight, copies = int(weight), int(copies)
            except ValueError:
                raise _record_error(tokens, lineno, model, vset) from None
            if u not in vset or v not in vset or u == v or weight < 0 or copies < 1:
                raise _record_error(tokens, lineno, model, vset)
            key = (v, u, weight) if v < u and model == "static" else (u, v, weight)
            merged[key] = get(key, 0) + copies
    return Instance(_graph(model, vertices, merged), fields["s"][0], fields["t"][0], k, deadline)


def _count(value: str, lineno: int, kw: str, what: str) -> int:
    """The value of a k or deadline line, which must be an integer >= 0."""
    try:
        n = int(value)
    except ValueError:
        raise InstanceFormatError(f"bad {kw} value {value!r}", lineno) from None
    if n < 0:
        raise InstanceFormatError(f"{what} must be >= 0", lineno)
    return n


def _record_error(tokens: list, lineno: int, model: str, vset: set) -> InstanceFormatError:
    """The first fault of an edge line: its field count, then its endpoints,
    its numbers, then the ranges its edge type checks."""
    args = tokens[1:]
    want = 5 if model == "temporal" else 4
    if len(args) not in (want - 1, want):
        return InstanceFormatError(f"edge record needs {want - 1} or {want} fields, "
                                   f"got {len(args)}", lineno)
    for x in args[:2]:
        if x not in vset:
            return InstanceFormatError(f"unknown vertex {x!r} in edge", lineno)
    try:
        nums = [int(a) for a in args[2:]]
    except ValueError:
        return InstanceFormatError(f"bad edge numbers in {' '.join(args)!r}", lineno)
    try:  # the edge's own checks name a fault in its ranges
        (TimeEdge if model == "temporal" else StaticEdge)(*args[:2], *nums)
    except ValueError as exc:
        return InstanceFormatError(str(exc), lineno)


def _graph(model: str, vertices: Iterable, merged: dict) -> Graph:
    """The graph over vertices whose edges are merged's (key, copies) items.
    Every key was range-checked and put in canonical order before it got here,
    so each edge is set field by field, past the checks of its constructor."""
    vs = tuple(sorted(set(vertices)))
    new, put = object.__new__, object.__setattr__
    edges = []
    if model == "temporal":
        for key in sorted(merged):  # keys alone sort faster than (key, copies) items
            e = new(TimeEdge)
            put(e, "u", key[0]), put(e, "v", key[1]), put(e, "tau", key[2]), put(e, "d", key[3])
            put(e, "copies", merged[key]), put(e, "key", key)
            edges.append(e)
        return TemporalGraph(vs, tuple(edges))
    for key in sorted(merged):
        e = new(StaticEdge)
        put(e, "u", key[0]), put(e, "v", key[1]), put(e, "weight", key[2])
        put(e, "copies", merged[key]), put(e, "key", key)
        edges.append(e)
    return StaticGraph(vs, tuple(edges), model == "dag")


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _typed(value, kind: type, what: str):
    """value, if its JSON type is kind (a bool is no integer here)."""
    if type(value) is not kind:
        got = reprlib.repr(value)  # depth-capped, so deep nesting stays short
        if len(got) > 80:
            got = got[:80] + "..."
        raise InstanceFormatError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")
    return value


def _from_dict(data: dict) -> Instance:
    """Build an Instance from parsed JSON, with the schema's field types. An
    endpoint missing from the vertex list fails once every record has passed
    its type and range checks."""
    try:
        model = data["model"]
        if model not in _MODELS:
            raise InstanceFormatError(f"bad model {model!r}")
        vertices = [_typed(v, str, "vertex name")
                    for v in _typed(data["vertices"], list, "vertices")]
        keyed = []
        for e in _typed(data["edges"], list, "edges"):
            _typed(e, dict, "edge record")
            u = _typed(e["u"], str, "edge endpoint")
            v = _typed(e["v"], str, "edge endpoint")
            copies = _typed(e.get("copies", 1), int, "copies")
            if model == "temporal":
                tau, d = _typed(e["tau"], int, "tau"), _typed(e["d"], int, "d")
                if u == v or tau < 0 or d < 1 or copies < 1:
                    TimeEdge(u, v, tau, d, copies)  # raises, naming the fault
                u, v = (u, v) if u < v else (v, u)
                key = (u, v, tau, d)
            else:
                weight = _typed(e["weight"], int, "weight")
                if u == v or weight < 0 or copies < 1:
                    StaticEdge(u, v, weight, copies)  # raises, naming the fault
                key = (v, u, weight) if v < u and model == "static" else (u, v, weight)
            keyed.append((key, u, v, copies))
        graph = _graph(model, vertices, _sums(set(vertices), keyed))
        deadline = _typed(data["deadline"], int, "deadline") if "deadline" in data else None
        return Instance(graph, _typed(data["s"], str, "s"), _typed(data["t"], str, "t"),
                        _typed(data["k"], int, "k"), deadline)
    except KeyError as exc:
        raise InstanceFormatError(f"missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
