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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .errors import InstanceFormatError

# Static graphs produced by the time expansion use (name, time) tuples as
# vertex ids; everything parsed from disk uses plain strings.
VertexId = Union[str, tuple]


class _Edge:
    """Endpoint helpers shared by both edge kinds; it adds no field, so
    equality, hashing and field order stay the subclasses' own."""

    def touches(self, x) -> bool:
        return x == self.u or x == self.v

    def other(self, x):
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"{x!r} is not an endpoint of {self.u}-{self.v}")


@dataclass(frozen=True)
class TimeEdge(_Edge):
    """One undirected time edge; `copies` identical parallel copies."""

    u: str
    v: str
    tau: int
    d: int
    copies: int = 1

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

    @property
    def key(self) -> tuple:
        return (self.u, self.v, self.tau, self.d)

    @property
    def arrival(self) -> int:
        return self.tau + self.d


@dataclass(frozen=True)
class StaticEdge(_Edge):
    """Weighted edge of a static graph; directed graphs read it as u -> v."""

    u: VertexId
    v: VertexId
    weight: int
    copies: int = 1

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u!r}")
        if self.weight < 0:
            raise ValueError(f"negative weight on {self.u}-{self.v}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1 on {self.u}-{self.v}")

    @property
    def key(self) -> tuple:
        return (self.u, self.v, self.weight)


def _merge(keyed, make):
    """One edge per canonical key, in key order; parallel records sum copies.

    keyed yields (canonical key, edge) pairs. An edge whose key occurs once
    and already reads canonically is kept as it is.
    """
    merged: dict[tuple, list] = {}
    for key, e in keyed:
        entry = merged.get(key)
        if entry is None:
            merged[key] = [e, e.copies]
        else:
            entry[0] = None
            entry[1] += e.copies
    return tuple(
        e if e is not None and e.key == key else make(key, copies)
        for key, (e, copies) in sorted(merged.items())
    )


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
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        for e in edges:
            for x in (e.u, e.v):
                if x not in vset:
                    raise ValueError(f"edge endpoint {x!r} not in vertex list")
        merged = _merge(
            ((e.key, e) for e in edges),
            lambda key, copies: TimeEdge(*key, copies=copies),
        )
        return cls(vs, merged)

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
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        keyed = []
        for e in edges:
            for x in (e.u, e.v):
                if x not in vset:
                    raise ValueError(f"edge endpoint {x!r} not in vertex list")
            u, v = e.u, e.v
            if not directed and v < u:
                u, v = v, u
            keyed.append(((u, v, e.weight), e))
        merged = _merge(keyed, lambda key, copies: StaticEdge(*key, copies=copies))
        return cls(vs, merged, directed)

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
        return json.dumps(_to_dict(inst), indent=2, sort_keys=False) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    g = inst.graph
    lines = [f"model {inst.model}"]
    lines.append("vertices " + " ".join(_name(v) for v in g.vertices))
    lines.append(f"s {_name(inst.s)}")
    lines.append(f"t {_name(inst.t)}")
    lines.append(f"k {inst.k}")
    if inst.deadline is not None:
        lines.append(f"deadline {inst.deadline}")
    if isinstance(g, TemporalGraph):
        for e in g.edges:
            lines.append(f"edge {e.u} {e.v} {e.tau} {e.d} {e.copies}")
    else:
        for e in g.edges:
            lines.append(f"edge {_name(e.u)} {_name(e.v)} {e.weight} {e.copies}")
    return "\n".join(lines) + "\n"


def _name(v: VertexId) -> str:
    if isinstance(v, str):
        return v
    name, time = v
    return f"{name}@{time}" if name != "@target" else "@target"


def _to_dict(inst: Instance) -> dict:
    g = inst.graph
    out: dict = {"model": inst.model}
    out["vertices"] = [_name(v) for v in g.vertices]
    out["s"] = _name(inst.s)
    out["t"] = _name(inst.t)
    out["k"] = inst.k
    if inst.deadline is not None:
        out["deadline"] = inst.deadline
    if isinstance(g, TemporalGraph):
        out["edges"] = [
            {"u": e.u, "v": e.v, "tau": e.tau, "d": e.d, "copies": e.copies}
            for e in g.edges
        ]
    else:
        out["edges"] = [
            {"u": _name(e.u), "v": _name(e.v), "weight": e.weight, "copies": e.copies}
            for e in g.edges
        ]
    return out


def parse_instance(text: str) -> Instance:
    """Parse either serialization; text errors carry the offending line number."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return _from_dict(json.loads(text))
        except RecursionError:
            raise InstanceFormatError("JSON nested too deeply") from None
    return _parse_text(text)


def _parse_text(text: str) -> Instance:
    model = None
    vertices: list[str] = []
    fields: dict[str, tuple[str, int]] = {}
    edges: list[tuple] = []
    deadline = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw, args = tokens[0], tokens[1:]
        if kw in fields or (kw == "model" and model is not None):
            raise InstanceFormatError(f"repeated {kw} line", lineno)
        if kw == "model":
            if len(args) != 1 or args[0] not in _MODELS:
                raise InstanceFormatError(f"bad model line {line!r}", lineno)
            model = args[0]
        elif kw == "vertices":
            vertices.extend(args)
        elif kw in ("s", "t", "k", "deadline"):
            if len(args) != 1:
                raise InstanceFormatError(f"{kw} takes one value", lineno)
            fields[kw] = (args[0], lineno)
        elif kw == "edge":
            edges.append((args, lineno))
        else:
            raise InstanceFormatError(f"unknown keyword {kw!r}", lineno)
    if model is None:
        raise InstanceFormatError("missing model line")
    for req in ("s", "t", "k"):
        if req not in fields:
            raise InstanceFormatError(f"missing {req} line")
    vset = set(vertices)
    for name, which in ((fields["s"][0], "source"), (fields["t"][0], "target")):
        if name not in vset:
            raise InstanceFormatError(
                f"unknown {which} vertex {name!r}",
                fields["s" if which == "source" else "t"][1],
            )
    try:
        k = int(fields["k"][0])
    except ValueError:
        raise InstanceFormatError(f"bad k value {fields['k'][0]!r}", fields["k"][1]) from None
    if "deadline" in fields:
        try:
            deadline = int(fields["deadline"][0])
        except ValueError:
            raise InstanceFormatError(
                f"bad deadline value {fields['deadline'][0]!r}", fields["deadline"][1]
            ) from None

    def ints(args, lineno, n):
        try:
            return [int(a) for a in args[2 : 2 + n]]
        except ValueError:
            raise InstanceFormatError(f"bad edge numbers in {' '.join(args)!r}", lineno) from None

    built_edges = []
    for args, lineno in edges:
        want = 5 if model == "temporal" else 4
        if len(args) not in (want - 1, want):
            raise InstanceFormatError(
                f"edge record needs {want - 1} or {want} fields, got {len(args)}", lineno
            )
        u, v = args[0], args[1]
        for x in (u, v):
            if x not in vset:
                raise InstanceFormatError(f"unknown vertex {x!r} in edge", lineno)
        nums = ints(args, lineno, len(args) - 2)
        copies = nums[-1] if len(args) == want else 1
        try:
            if model == "temporal":
                tau, d = nums[0], nums[1]
                built_edges.append(TimeEdge(u, v, tau, d, copies))
            else:
                built_edges.append(StaticEdge(u, v, nums[0], copies))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), lineno) from None

    try:
        if model == "temporal":
            graph: Graph = TemporalGraph.build(vertices, built_edges)
        else:
            graph = StaticGraph.build(vertices, built_edges, directed=(model == "dag"))
        return Instance(graph, fields["s"][0], fields["t"][0], k, deadline)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


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
    """Build an Instance from parsed JSON, with the schema's field types."""
    try:
        model = data["model"]
        if model not in _MODELS:
            raise InstanceFormatError(f"bad model {model!r}")
        vertices = [_typed(v, str, "vertex name")
                    for v in _typed(data["vertices"], list, "vertices")]
        built: list = []
        for e in _typed(data["edges"], list, "edges"):
            _typed(e, dict, "edge record")
            u = _typed(e["u"], str, "edge endpoint")
            v = _typed(e["v"], str, "edge endpoint")
            copies = _typed(e.get("copies", 1), int, "copies")
            if model == "temporal":
                tau, d = _typed(e["tau"], int, "tau"), _typed(e["d"], int, "d")
                built.append(TimeEdge(u, v, tau, d, copies))
            else:
                built.append(StaticEdge(u, v, _typed(e["weight"], int, "weight"), copies))
        if model == "temporal":
            graph: Graph = TemporalGraph.build(vertices, built)
        else:
            graph = StaticGraph.build(vertices, built, directed=(model == "dag"))
        deadline = data.get("deadline")
        if "deadline" in data:
            _typed(deadline, int, "deadline")
        return Instance(graph, _typed(data["s"], str, "s"), _typed(data["t"], str, "t"),
                        _typed(data["k"], int, "k"), deadline)
    except KeyError as exc:
        raise InstanceFormatError(f"missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
