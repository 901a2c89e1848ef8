"""Straightforward reference versions of the fast polynomial paths.

Each one recomputes, the slow and obvious way, an answer that the library
reads off a shared table or a pruned pass:

* the window optimizers as scans over event times, one ``decide_u`` per
  candidate window;
* the single-block solver with one label pass per single-copy edge and a
  full rescan of the unsettled vertices at every settling step;
* the budget table with ``heapq.nsmallest`` over every capped copy;
* one row of the budget table with every budget index and every
  (m+1)-smallest candidate range-checked, in place of cutting the row at its
  copy count;
* the uninformed game's table as ``compute_pi`` on the materialized time
  expansion, in place of the reverse-time sweep;
* the uninformed game's playout policies reading each node's out-arcs from
  the materialized time expansion, in place of reading them from the
  instance;
* the DAG game's playout policies as their own traveller and blocker
  bodies, in place of the table game shared with the uninformed game;
* the table moves of both pairs above as their own bodies over
  ``StaticEdge`` arcs in arc-key order, in place of ``dagctp``'s moves over
  (head, weight, copies, key) tuples;
* the time expansion built through ``StaticGraph.build``, which re-checks
  every endpoint and re-merges every arc;
* edge merging by summing copies per key into freshly built edges;
* the Blocker's reveals as a filter over every mask of the blockable edges,
  in place of extending only the subsets that fit the budget;
* the static game's values from a memo of cost-to-go over sweeps run
  until t is popped, in place of probes of the threshold search and
  play sweeps that stop at the cheapest route end found;
* the verifier's min-max on a hand-written stack of open reveals, each
  holding its own copy of the game state, in place of one generator per
  open reveal driven by ``knowledge.run`` over one state with undo;
* the temporal walk rule as a check of each step on its own, in place of
  the referee's rules object that let the moves through;
* the locally-informed search keying its memo on the whole knowledge state
  and letting Blocker block edges that no walk can use any more, in place
  of dropping those dead edges from reveals and memo keys;
* the instance readers building every record as a ``TimeEdge`` or
  ``StaticEdge`` and handing them to ``build``, which checks every endpoint
  again and merges parallel records, in place of checking each record once
  and summing its copies into one map;
* the locally-informed playout policies re-running the search at every
  consult -- the Traveller the reveal behind each departure in turn, the
  Blocker each reveal, a lone one included -- in place of reading the
  Traveller's move from the memo and playing a lone reveal unsearched;
* an instance's JSON as ``json.dumps(..., indent=2)`` of its schema dict, in
  place of the layout the writer spells out.
"""
import heapq
import json
import math
import reprlib
from bisect import bisect_left
from itertools import chain, repeat

from tctp.arena import TRAVELLER_WIN, _choices, _State
from tctp.core import (
    Instance,
    StaticEdge,
    StaticGraph,
    TemporalGraph,
    TimeEdge,
    _name,
    window,
)
from tctp.dagctp import UNREACHABLE, PiTable, compute_pi, topological_order
from tctp.errors import STATE_LIMIT, InstanceFormatError, SizeLimitError
from tctp.expansion import TARGET
from tctp.knowledge import EMPTY, Knowledge, run
from tctp.litctp import NEVER, latest_departure_labels
from tctp.staticctp import StaticGame
from tctp.utctp import decide_u


def chained(g, start, steps) -> bool:
    """Whether the (edge, depart) steps form a temporal walk of g from start:
    each edge of g leaves the current vertex at its own tau, no earlier than
    the previous edge arrives."""
    here, arrived = start, None
    for e, depart in steps:
        if e not in g.edges or depart != e.tau or not e.touches(here):
            return False
        if arrived is not None and depart < arrived:
            return False
        here, arrived = e.other(here), depart + e.d
    return True


def scan_earliest_arrival(inst: Instance):
    if inst.s == inst.t:
        return 0
    for t2 in sorted({e.arrival for e in inst.graph.edges}):
        if decide_u(inst, 0, t2).wins:
            return t2
    return None


def scan_latest_departure(inst: Instance):
    if inst.s == inst.t:
        return math.inf
    for t1 in sorted({e.tau for e in inst.graph.edges}, reverse=True):
        if decide_u(inst, t1, math.inf).wins:
            return t1
    return None


def scan_shortest_duration(inst: Instance):
    if inst.s == inst.t:
        return (0, 0)
    departures = sorted({e.tau for e in inst.graph.edges})
    arrivals = sorted({e.arrival for e in inst.graph.edges})
    best = None
    for t1 in departures:
        for t2 in arrivals:
            if t2 < t1:
                continue
            if best is not None and t2 - t1 >= best[0]:
                break
            if decide_u(inst, t1, t2).wins:
                best = (t2 - t1, t1, t2)
                break
    return (best[1], best[2]) if best else None


def per_edge_k1_table(inst: Instance, T=None) -> dict:
    """The single-block pi1 table with a label rerun for every single-copy
    edge."""
    g = inst.graph
    if T is None:
        T = inst.deadline if inst.deadline is not None else math.inf
    base = latest_departure_labels(g, inst.t, T)
    cache = {
        e.key: latest_departure_labels(g, inst.t, T, skip_one=e.key)
        for e in g.edges
        if e.copies == 1
    }
    lam1 = {}
    for v in g.vertices:
        if v == inst.t:
            continue
        vals = [cache[e.key][v] if e.copies == 1 else base[v] for e in g.incident(v)]
        lam1[v] = min(vals) if vals else math.inf

    pi1 = {inst.t: T}
    nu = {v: NEVER for v in g.vertices if v != inst.t}
    for e in g.incident(inst.t):
        other = e.other(inst.t)
        if e.tau + e.d <= T and e.tau > nu[other]:
            nu[other] = e.tau
    unsettled = set(nu)
    while unsettled:
        best_v, best_val = None, None
        for v in sorted(unsettled):
            val = min(lam1[v], nu[v])
            if best_v is None or val > best_val:
                best_v, best_val = v, val
        unsettled.discard(best_v)
        pi1[best_v] = best_val
        for e in g.incident(best_v):
            other = e.other(best_v)
            if other in unsettled and e.tau + e.d <= best_val and e.tau > nu[other]:
                nu[other] = e.tau
    return pi1


def nsmallest_pi_values(g: StaticGraph, target, k: int) -> dict:
    """Budget-table rows, each candidate list cut by ``heapq.nsmallest``."""
    values: dict = {}
    for v in reversed(topological_order(g)):
        if v == target:
            values[v] = tuple(0 for _ in range(k + 1))
            continue
        out = g.outgoing(v)
        if not out:
            values[v] = tuple(UNREACHABLE for _ in range(k + 1))
            continue
        prefixes = []
        for r in range(k + 1):
            cands = chain.from_iterable(
                repeat(values[e.v][r] + e.weight, min(e.copies, k + 1)) for e in out
            )
            prefixes.append(heapq.nsmallest(k + 1, cands))
        row = []
        for i in range(k + 1):
            best = 0
            for m in range(i + 1):
                prefix = prefixes[i - m]
                cand = prefix[m] if m < len(prefix) else UNREACHABLE
                if cand > best:
                    best = cand
            row.append(best)
        values[v] = tuple(row)
    return values


def full_width_pi_row(arcs: list, width: int) -> tuple:
    """``pi_row`` with no cut: every budget index r gets a sorted candidate
    list, and entry i is the max over every m <= i, an (m+1)-smallest that
    does not exist counting as unreachable."""
    budgets = range(width)
    prefixes = []
    for r in budgets:
        cands = []
        for head, weight, copies in arcs:
            cands.extend([head[r] + weight] * copies)
        cands.sort()
        prefixes.append(cands)
    row = []
    for i in budgets:
        best = 0
        for m in range(i + 1):
            prefix = prefixes[i - m]
            cand = prefix[m] if m < len(prefix) else UNREACHABLE
            if cand > best:
                best = cand
        row.append(best)
    return tuple(row)


def arc_traveller_move(out, table: PiTable, remaining: int, blocked) -> StaticEdge:
    """The surviving arc of out minimizing cost-from-head plus weight, the
    first in arc-key order on a tie; blocked maps arc key -> copies blocked."""
    best, best_arc = UNREACHABLE, None
    for e in sorted(out, key=lambda a: a.key):
        if e.copies - blocked.get(e.key, 0) < 1:
            continue
        cand = table.value(e.v, remaining) + e.weight
        if cand < best:
            best, best_arc = cand, e
    return best_arc


def arc_blocker_move(out, table: PiTable, remaining: int) -> dict:
    """{arc key: copies blocked} forcing the worst survivor; ties go to the
    fewer blocks, then to the candidate first in arc-key order."""
    if not 0 <= remaining <= table.budget:
        raise ValueError(f"remaining budget {remaining} outside 0..{table.budget}")
    out = sorted(out, key=lambda a: a.key)
    best_val, best = None, []
    for m in range(remaining + 1):
        cands = sorted((table.value(e.v, remaining - m) + e.weight, idx, copy)
                       for idx, e in enumerate(out)
                       for copy in range(min(e.copies, remaining + 1)))
        val = cands[m][0] if m < len(cands) else UNREACHABLE
        if best_val is None or val > best_val:
            best_val, best = val, cands[:m]
    blocked: dict = {}
    for _, idx, _ in best:
        key = out[idx].key
        blocked[key] = blocked.get(key, 0) + 1
    return blocked


def expansion_pi_table(inst: Instance, t1: int, t2) -> PiTable:
    """The [t1, t2] budget table of ``compute_pi`` on the rebuilt expansion,
    less the row of its target node."""
    graph, _ = rebuilt_expansion(inst.graph, inst.s, inst.t, inst.k, t1, t2)
    table = compute_pi(graph, TARGET, inst.k)
    return PiTable({node: row for node, row in table.values.items() if node != TARGET},
                   table.budget)


def expansion_read_policies(inst: Instance, t1: int = 0, t2=None) -> tuple:
    """Both sides of the ``u`` playout, reading out-arcs and their weights
    from the rebuilt expansion and playing its own cost table."""
    t1, t2 = window(inst, t1, t2)
    g, origins = rebuilt_expansion(inst.graph, inst.s, inst.t, inst.k, t1, t2)
    table = expansion_pi_table(inst, t1, t2)

    def arcs_at(node) -> tuple:
        """The node's out-arcs, or between two nodes the wait to the next."""
        if node in g.index:
            return g.outgoing(node)
        v, tau = node
        later = [b for a, b in g.vertices if a == v and b > tau]
        return (StaticEdge(node, (v, min(later)), min(later) - tau, inst.k + 1),) if later else ()

    def newly_at(node, decided) -> dict:
        out = {}
        for arc in arcs_at(node):
            origin = origins.get(arc.key, WAIT)
            if isinstance(origin, TimeEdge):
                c = decided.get(origin.key, 0)
                if c:
                    out[arc.key] = c
        return out

    def traveller(view):
        node = (view.position, view.clock)
        arc = arc_traveller_move(arcs_at(node), table, table.budget - view.spent,
                                 newly_at(node, view.decided))
        if arc is None:
            return ("resign",)
        origin = origins.get(arc.key, WAIT)
        if isinstance(origin, TimeEdge):
            return ("move", origin.key)
        return ("wait", arc.v[1])

    def blocker(view):
        node = (view.position, view.clock)
        scope = set(view.undecided)
        out = {}
        for ak, c in arc_blocker_move(arcs_at(node), table, view.remaining).items():
            origin = origins.get(ak, WAIT)
            if isinstance(origin, TimeEdge) and origin.key in scope:
                out[origin.key] = c
        return out

    return traveller, blocker


def outgoing_read_policies(inst: Instance, table=None) -> tuple:
    """Both sides of the DAG game, reading each vertex's out-arcs from the graph."""
    g = inst.graph
    if table is None:
        table = compute_pi(g, inst.t, inst.k)

    def traveller(view):
        newly = {}
        for e in g.outgoing(view.position):
            c = view.decided.get(e.key, 0)
            if c:
                newly[e.key] = c
        arc = arc_traveller_move(g.outgoing(view.position), table,
                                 table.budget - view.spent, newly)
        if arc is None:
            return ("resign",)
        return ("move", arc.key)

    def blocker(view):
        scope = set(view.undecided)
        mv = arc_blocker_move(g.outgoing(view.position), table, view.remaining)
        return {k: c for k, c in mv.items() if k in scope}

    return traveller, blocker


WAIT = "wait"  # origin of a wait arc in rebuilt_expansion
SINK = "sink"  # origin of a sink arc into the target


def rebuilt_expansion(g, s, t, k, t1=0, t2=math.inf) -> tuple:
    """(graph, origins) of the [t1, t2] expansion, built apart from
    ``expansion.layout``: origins maps each arc key to its time edge, WAIT
    or SINK. Every arc is made as a StaticEdge and handed to StaticGraph.build.
    """
    surviving = [e for e in g.edges if t1 <= e.tau and e.tau + e.d <= t2]
    nodes = {(s, t1)}
    for e in surviving:
        nodes.update({(e.u, e.tau), (e.v, e.tau), (e.u, e.arrival), (e.v, e.arrival)})
    arcs, origins = [], {}

    def add(u, v, weight, copies, origin):
        arc = StaticEdge(u, v, weight, copies)
        arcs.append(arc)
        origins[arc.key] = origin

    for e in surviving:
        add((e.u, e.tau), (e.v, e.arrival), e.d, e.copies, e)
        add((e.v, e.tau), (e.u, e.arrival), e.d, e.copies, e)
    times_of = {}
    for name, tau in nodes:
        times_of.setdefault(name, []).append(tau)
    for name, times in sorted(times_of.items()):
        times.sort()
        for a, b in zip(times, times[1:]):
            add((name, a), (name, b), b - a, k + 1, WAIT)
    for tau in sorted(times_of.get(t, [])):
        add((t, tau), TARGET, 0, k + 1, SINK)
    nodes.add(TARGET)
    graph = StaticGraph.build(sorted(nodes), arcs, directed=True)
    return graph, origins


def summed_edges(records, directed=None) -> tuple:
    """Canonical edges of records: copies summed per key, sorted by key.

    directed is None for time edges, else whether static edges keep their
    orientation.
    """
    merged = {}
    for e in records:
        if directed is None:
            key = e.key
        else:
            u, v = (e.u, e.v) if directed or e.u <= e.v else (e.v, e.u)
            key = (u, v, e.weight)
        merged[key] = merged.get(key, 0) + e.copies
    make = TimeEdge if directed is None else StaticEdge
    return tuple(make(*key, copies=c) for key, c in sorted(merged.items()))


def mask_choices(know, v, state) -> list:
    """``Knowledge.choices`` by a filter over all 2^n masks of the blockable
    edges at v, sorted by (spend, mask)."""
    r, b, spent = state
    remaining = know.k - spent
    blockable = [(bit, c) for bit, c, _ in know.local[v]
                 if not r & bit and c <= remaining]
    ranked = []
    for mask in range(1 << len(blockable)):
        total = bits = 0
        for i, (bit, c) in enumerate(blockable):
            if mask >> i & 1:
                total += c
                bits |= bit
        if total <= remaining:
            ranked.append((total, mask, bits))
    ranked.sort()
    r |= know.scope[v]
    return [(r, b | bits, spent + total) for total, _, bits in ranked]


class _UnboundedStaticGame(StaticGame):
    def __init__(self, inst: Instance, discovery: str):
        super().__init__(inst, discovery)
        # cost-to-go memo, keyed (pos, state) for settled and unsettled pos
        self._values: dict = {}

    def value(self, pos, state):
        return run(self._value(pos, state))

    def _value(self, pos, state):
        """Cost-to-go at pos; while pos is unsettled the blocker moves first.
        Moves between settled vertices are deterministic: one sweep suffices."""
        if pos == self.inst.t:
            return 0
        key = (pos, state)
        hit = self._values.get(key)
        if hit is not None:
            return hit
        self.know.count()
        if self.know.settled(pos, state):
            ends, _ = yield from self._ends(pos, state)
            value = min((cost for cost, _, _ in ends), default=UNREACHABLE)
        else:
            value = None
            for choice in self.reveal_choices(pos, state):
                sub = yield self._value(pos, choice)
                if value is None or sub > value:
                    value = sub
        self._values[key] = value
        return value

    def _sweep(self, pos, state):
        return run(self._ends(pos, state))

    def _ends(self, pos, state):
        t, idx, settled = self.inst.t, self.g.index, self.know.settled
        blocked = state[1]
        dist = {pos: 0}
        prev: dict = {}
        heap = [(0, idx[pos], pos)]
        ends = []
        while heap:
            d, i, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v == t:
                ends.append((d, i, v))
                break
            if not settled(v, state):
                ends.append((d + (yield self._value(v, state)), i, v))
                continue
            for bit, w, weight, key in self.moves[v]:
                if blocked & bit:
                    continue
                nd = d + weight
                if nd < dist.get(w, UNREACHABLE):
                    dist[w] = nd
                    prev[w] = (v, key)
                    heapq.heappush(heap, (nd, idx[w], w))
        return ends, prev


def unbounded_static_game(inst: Instance, discovery: str = "incident") -> StaticGame:
    """A ``StaticGame`` that finds values by a memo of cost-to-go over its own
    sweeps, each of which values every portal and expands every settled
    vertex popped before t, however dear."""
    return _UnboundedStaticGame(inst, discovery)


def _after(st: _State, scope, choice) -> _State:
    """A copy of ``st`` with the reveal made."""
    new = _State(st.pos, st.clock)
    new.spent = st.spent
    for key, c in st.decided.entries:
        new.decided.add(key, c)
    for v, _ in st.visited.entries:
        new.visited.add(v)
    new.reveal(scope, choice)
    return new


def stacked_refute(rules, tp, limit) -> tuple:
    """``arena._refute`` on an explicit stack of open reveals: (script,
    explored), the same losing script and count, raising SizeLimitError
    at the same reveal state or count vector."""
    stack: list = []  # open reveals: [state, scope, choices, choice tried, vectors tried]
    explored = 0
    st = _State(rules.inst.s, rules.t1)
    stop = rules.walk(st, tp, [])
    while True:
        if not isinstance(stop, list):
            result = None if stop == TRAVELLER_WIN else ()
        else:
            explored += 1
            if explored > limit:
                raise SizeLimitError(
                    f"verification explored more than {limit} reveal states",
                    limit,
                )
            stack.append([st, stop, _choices(stop, rules.inst.k - st.spent), None, 0])
            result = None
        # a losing line closes its reveal; a won one moves on to the next choice
        while stack:
            top = stack[-1]
            state, scope, choices, choice, _ = top
            if result is None:
                top[3] = choice = next(choices, None)
                if choice is not None:
                    top[4] += 1
                    if top[4] > limit:
                        raise SizeLimitError(
                            f"verification tried more than {limit} count vectors at one reveal",
                            limit,
                        )
                    st = _after(state, scope, choice)
                    stop = rules.walk(st, tp, [])
                    break
            else:
                result = (choice, result)
            stack.pop()
        else:
            return result, explored


def replayed_li_policies(game) -> tuple:
    """(traveller, blocker) for a searched ``LiGame`` that replay its search
    at each consult and read only whether a position wins."""
    know = game.know

    def traveller(view):
        pos, clock = view.position, view.clock
        r, blocked, spent = know.state(view.decided)
        state = (r | know.scope[pos], blocked, spent)
        for tau, arrival, bit, head, key, _n, past in game.departures[pos]:
            if (tau >= clock and not blocked & bit
                    and run(game._reveal_wins(head, arrival, past, state))):
                return ("move", key)
        return ("resign",)

    def blocker(view):
        state = game._live(bisect_left(game.taus, view.clock), know.state(view.decided))
        for choice in game.reveal_choices(view.position, state):
            if not run(game._wins(view.position, view.clock, choice)):
                statuses = know.statuses(view.position, state, choice)
                return {k: c for k, c in statuses.items() if c > 0}
        return {}

    return traveller, blocker


class FullStateLiGame:
    """``LiGame`` with every edge live to the end: the memo keys each
    position on its whole knowledge state, and Blocker's reveals may block
    edges that depart before the clock or arrive after t2."""

    def __init__(self, inst: Instance, t1=0, t2=None, state_limit: int = STATE_LIMIT):
        g = inst.graph
        self.inst = inst
        self.t1, self.t2 = window(inst, t1, t2)
        self.memo: dict = {}
        number = {e.key: i for i, e in enumerate(g.edges)}
        incident = {v: sorted(g.incident(v), key=lambda e: (e.tau, e.key))
                    for v in g.vertices}
        self.know = Knowledge([(e.key, e.copies) for e in g.edges],
                              {v: [number[e.key] for e in es] for v, es in incident.items()},
                              inst.k, state_limit)
        bit = self.know.bit
        self.departures = {
            v: [(e.tau, e.arrival, bit[e.key], e.other(v), e.key)
                for e in es if e.arrival <= self.t2]
            for v, es in incident.items()
        }

    @property
    def states(self) -> int:
        return self.know.states

    def _options(self, pos, clock, blocked: int) -> list:
        return [x for x in self.departures[pos] if x[0] >= clock and not blocked & x[2]]

    def _wins(self, pos, clock, state):
        if pos == self.inst.t:
            return True
        options = self._options(pos, clock, state[1])
        if not options:
            return False
        key = (pos, options[0][0], state)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.know.count()
        win = False
        for _tau, arrival, _bit, head, _key in options:
            if (yield self._reveal_wins(head, arrival, state)):
                win = True
                break
        self.memo[key] = win
        return win

    def _reveal_wins(self, v, arrive, state):
        for choice in self.know.choices(v, state):
            if not (yield self._wins(v, arrive, choice)):
                return False
        return True

    @property
    def wins(self) -> bool:
        return run(self._reveal_wins(self.inst.s, self.t1, EMPTY))

    def traveller_policy(self):
        def policy(view):
            r, blocked, spent = self.know.state(view.decided)
            state = (r | self.know.scope[view.position], blocked, spent)
            for _tau, arrival, _bit, head, key in self._options(
                    view.position, view.clock, blocked):
                if run(self._reveal_wins(head, arrival, state)):
                    return ("move", key)
            return ("resign",)

        return policy

    def blocker_policy(self):
        def policy(view):
            state = self.know.state(view.decided)
            for choice in self.know.choices(view.position, state):
                if not run(self._wins(view.position, view.clock, choice)):
                    statuses = self.know.statuses(view.position, state, choice)
                    return {k: c for k, c in statuses.items() if c > 0}
            return {}

        return policy


_MODELS = ("temporal", "static", "dag")


def indented_instance_json(inst: Instance) -> str:
    """``serialize_instance(inst, "json")`` through ``json.dumps``."""
    return json.dumps(_to_dict(inst), indent=2, sort_keys=False) + "\n"


def _to_dict(inst: Instance) -> dict:
    g = inst.graph
    out: dict = {"model": inst.model, "vertices": [_name(v) for v in g.vertices],
                 "s": _name(inst.s), "t": _name(inst.t), "k": inst.k}
    if inst.deadline is not None:
        out["deadline"] = inst.deadline
    if isinstance(g, TemporalGraph):
        out["edges"] = [{"u": e.u, "v": e.v, "tau": e.tau, "d": e.d, "copies": e.copies}
                        for e in g.edges]
    else:
        out["edges"] = [{"u": _name(e.u), "v": _name(e.v), "weight": e.weight,
                         "copies": e.copies} for e in g.edges]
    return out


def reference_parse_instance(text: str) -> Instance:
    """``parse_instance`` with every record built as an edge and handed to
    ``build``. A negative k or deadline is an error at its own line."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return _reference_from_dict(json.loads(text))
        except RecursionError:
            raise InstanceFormatError("JSON nested too deeply") from None
    return _reference_parse_text(text)


def _reference_parse_text(text: str) -> Instance:
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
    if k < 0:
        raise InstanceFormatError("blocker budget k must be >= 0", fields["k"][1])
    if "deadline" in fields:
        try:
            deadline = int(fields["deadline"][0])
        except ValueError:
            raise InstanceFormatError(
                f"bad deadline value {fields['deadline'][0]!r}", fields["deadline"][1]
            ) from None
        if deadline < 0:
            raise InstanceFormatError("deadline must be >= 0", fields["deadline"][1])

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
            graph = TemporalGraph.build(vertices, built_edges)
        else:
            graph = StaticGraph.build(vertices, built_edges, directed=(model == "dag"))
        return Instance(graph, fields["s"][0], fields["t"][0], k, deadline)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _typed(value, kind: type, what: str):
    if type(value) is not kind:
        got = reprlib.repr(value)
        if len(got) > 80:
            got = got[:80] + "..."
        raise InstanceFormatError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")
    return value


def _reference_from_dict(data: dict) -> Instance:
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
            graph = TemporalGraph.build(vertices, built)
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
