"""Referee and exhaustive verifier for Traveller-vs-Blocker games.

The four information models differ only in what a reveal exposes and when,
so each is one rules object that the referee and the verifier both step.
It defines, once: the inputs it accepts and the bound it plays to; the
reveal scope at a state; the legal moves and waits and where they lead; and
the view each side sees.

  "li"      (``_LiRules``) temporal graph; all edges incident to a vertex are
            decided at the Traveller's first arrival there. Any later
            departure may be taken; a wait runs to its end.
  "u"       (``_URules``) temporal graph; edges departing the Traveller's
            position at the current instant are decided right before the
            Traveller acts. Only those may be taken; a wait stops at the
            next instant that would reveal something.
  "static"  (``_StaticRules``) weighted graph; edges incident to a vertex are
            decided at first arrival, the clock is accumulated weight. There
            is no waiting, and standing again where nothing was revealed
            since is a loss: the walk is circling.
  "dag"     directed weighted graph; like "static" but only out-arcs are
            decided on arrival.

``play`` steps the rules against a Blocker policy and returns a Transcript.
Policies are plain callables from a view of the current knowledge state to
an action; an illegal output becomes a FOUL event that awards the game to
the opponent instead of raising. A view is a ``View``, the Traveller's in
"li" a ``LiView`` and Blocker's a ``BlockerView``. Policies only read it; it
is built fresh per consult and not frozen, which builds four times slower.
Traveller actions: ("move", edge_key), ("wait", until) on temporal models,
("resign",). A wait is a commitment; a policy wanting to re-decide every
instant can wait one step at a time.

``verify_traveller_strategy`` steps the same rules but branches over every
legal count vector at every reveal, one generator per open reveal driven
by ``knowledge.run``, and either certifies that the Traveller policy wins
within the deadline or replays a losing line through ``play``. It undoes
each reveal on one state, so it assumes the policy is a pure function of
its view and keeps none past the branch it was made in.
"""
from __future__ import annotations

import contextlib
import json
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from typing import AbstractSet, Callable, Optional

from .core import Instance, StaticGraph, TemporalGraph, window
from .dagctp import PiTable, blocker_move, compute_pi, traveller_move
from .errors import STATE_LIMIT, VERIFY_LIMIT, CyclicGraphError, Meter, SizeLimitError
from .knowledge import Ledger, Snapshot, run
from .litctp import exact_li
from .staticctp import StaticGame
from .utctp import decide_u

TRAVELLER_WIN = "TRAVELLER_WIN"
BLOCKER_WIN = "BLOCKER_WIN"
MODELS = ("li", "u", "static", "dag")
# json.dumps(row, sort_keys=True) through json's C encoder, built here once:
# JSONEncoder.encode builds one per call. None where json has no C module.
_encoder = json.JSONEncoder(sort_keys=True)
_rows = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _encoder.default, json.encoder.encode_basestring_ascii, None,
    _encoder.key_separator, _encoder.item_separator, True, False, True)

Policy = Callable


# ---------------------------------------------------------------------------
# views handed to policies


@dataclass
class View:
    """What a side knows when it is consulted.

    ``decided``, a read-only snapshot, maps each edge key settled so far to
    its blocked copies in the order settled, and ``spent`` is their sum.
    ``clock`` is accumulated cost in the static models.
    """

    position: object
    clock: object
    decided: Mapping
    spent: int
    inst: Instance


@dataclass
class LiView(View):
    """The Traveller's view in ``li``: ``decided`` covers exactly the edges
    incident to the ``visited`` vertices, a read-only set view."""

    visited: AbstractSet


@dataclass
class BlockerView(View):
    """What Blocker sees when asked to fix statuses.

    ``undecided`` lists the edge keys whose statuses are being fixed right
    now; anything the returned mapping leaves out is recorded as unblocked.
    ``remaining`` is the budget left, ``inst.k - spent``.
    """

    undecided: tuple
    remaining: int


# ---------------------------------------------------------------------------
# transcripts


@dataclass
class Transcript:
    """Full record of one playout.

    Events are dicts with a "type" field: REVEAL {at, clock, statuses},
    MOVE {key, depart, arrive}, WAIT {at, until}, RESIGN {by},
    FOUL {by, reason}. ``final_time`` is the clock (cost) when the game
    ended; ``t2`` doubles as the deadline for the static models.
    """

    model: str
    s: object
    t: object
    k: int
    events: tuple
    outcome: str
    final_time: object
    budget_spent: int
    t1: int = 0
    t2: object = None

    def __bool__(self) -> bool:
        return self.outcome == TRAVELLER_WIN

    def moves(self) -> tuple:
        return tuple(e for e in self.events if e["type"] == "MOVE")

    def rows(self):
        """Yield the JSON-ready header, one row per event, and the footer."""
        yield {"model": self.model, "s": self.s, "t": self.t, "k": self.k,
               "t1": self.t1, "t2": self.t2}
        yield from self.events
        yield {"outcome": self.outcome, "final_time": self.final_time,
               "budget_spent": self.budget_spent}

    def to_json_lines(self) -> str:
        if _rows is None:
            return "".join(_encoder.encode(row) + "\n" for row in self.rows())
        return "".join("".join(_rows(row, 0)) + "\n" for row in self.rows())

    @classmethod
    def from_json_lines(cls, text: str) -> "Transcript":
        """Parse ``rows`` output. A row that is not an object, or that lacks
        or misshapes a field the replay reads, is a ValueError."""
        try:
            rows = [_tupled(json.loads(line)) for line in text.splitlines() if line.strip()]
        except RecursionError:
            raise ValueError("transcript JSON nested too deeply") from None
        if len(rows) < 2:
            raise ValueError("transcript needs a header and a footer line")
        head, foot = rows[0], rows[-1]
        try:
            tr = cls(
                model=head["model"], s=head["s"], t=head["t"], k=head["k"],
                events=tuple(rows[1:-1]), outcome=foot["outcome"],
                final_time=foot["final_time"], budget_spent=foot["budget_spent"],
                t1=head.get("t1", 0), t2=head.get("t2"),
            )
            transcript_traveller_policy(tr)  # every read the replay makes, once
        except KeyError as exc:
            raise ValueError(f"transcript row lacks {exc}") from None
        except (IndexError, TypeError, ValueError):
            raise ValueError("transcript has a field of the wrong shape") from None
        return tr


def _tupled(row) -> dict:
    """A parsed row with every JSON array in it made a tuple, so that it hashes."""
    if not isinstance(row, dict):
        raise ValueError("transcript rows must be JSON objects")
    return {name: _tupled_value(value) for name, value in row.items()}


def _tupled_value(value):
    if isinstance(value, dict):
        raise ValueError("transcript fields hold numbers, strings and arrays only")
    return tuple(map(_tupled_value, value)) if isinstance(value, list) else value


def transcript_traveller_policy(tr: Transcript) -> Policy:
    """Pure replay: repeat the transcript's action in each knowledge state.

    Off the recorded line (for example against a Blocker that deviates) the
    policy resigns. A snapshot that repeats the recorded statuses in order
    (checked past the one matched last) is on the line; any other mapping,
    or all if a key is settled twice, is compared whole.
    """
    line: list = []  # the recorded (key, count) statuses in order
    consults: dict = {}  # (position, clock) -> [(n, action)], n statuses decided
    pos, clock = tr.s, tr.t1
    for ev in tr.events:
        kind, at = ev["type"], (pos, clock)
        if kind == "REVEAL":
            line += [(key, c) for key, c in ev["statuses"]]
            continue
        if kind == "MOVE":
            action = ("move", ev["key"])
            u, v = ev["key"][0], ev["key"][1]
            pos, clock = (v if pos == u else u), ev["arrive"]
        elif kind == "WAIT":
            action = ("wait", ev["until"])
            clock = ev["until"]
        elif kind == "RESIGN" and ev.get("by", "traveller") == "traveller":
            action = ("resign",)
        else:
            continue
        consults.setdefault(at, []).append((len(line), action))
    distinct = len(dict(line)) == len(line)
    matched = None  # the last snapshot found on the line

    def policy(view):
        nonlocal matched
        decided, m = view.decided, len(view.decided)
        if distinct and isinstance(decided, Snapshot) and m <= len(line):
            n = matched.n if matched is not None and decided.extends(matched) else 0
            if decided.ledger.entries[n:m] == line[n:m]:
                matched = decided
        for n, action in reversed(consults.get((view.position, view.clock), [])):
            if n == m if matched is decided else dict(line[:n]) == decided:
                return action
        return ("resign",)

    return policy


def scripted_blocker(choices) -> Policy:
    """Blocker that plays a fixed list of reveal choices, then all-zeros."""
    cursor = iter(list(choices))
    return lambda view: next(cursor, {})


# ---------------------------------------------------------------------------
# the rules table


def _undecided(edges, decided) -> list:
    out = [e for e in edges if e.key not in decided]
    return sorted(out, key=lambda e: e.key) if len(out) > 1 else out


def _check_choice(scope, choice, remaining: int) -> Optional[str]:
    """None when legal, else a human-readable foul reason."""
    if not isinstance(choice, Mapping):
        return f"reveal must be a mapping, got {type(choice).__name__}"
    total = 0
    for key, c in choice.items():
        cap = next((e.copies for e in scope if e.key == key), None)  # by ==, unhashable keys too
        if cap is None:
            return f"status for {key!r} which is not up for reveal"
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            return f"bad copy count {c!r} for {key!r}"
        if c > cap:
            return f"{c} blocked copies of {key!r} but only {cap} exist"
        total += c
    if total > remaining:
        return f"blocking {total} copies with only {remaining} budget left"
    return None


def _choices(scope, remaining: int):
    """Every legal count vector over the scope, all-zeros first.

    Deliberately naive: partially blocking a key is enumerated too, so a
    solver that prunes dominated reveals is checked against the full rule.
    """

    def rec(i, left, acc):
        if i == len(scope):
            yield dict(acc)
            return
        e = scope[i]
        for c in range(min(e.copies, left) + 1):
            acc[e.key] = c
            yield from rec(i + 1, left - c, acc)
        del acc[e.key]

    yield from rec(0, remaining, {})


class _Foul(Exception):
    """A Traveller action the rules forbid; the reason forfeits the game."""


def _take_action(act) -> tuple:
    """Normalize a Traveller output; raises _Foul on garbage."""
    if not isinstance(act, tuple) or not act:
        raise _Foul(f"action must be a nonempty tuple, got {act!r}")
    if (act[0] == "resign" and len(act) == 1
            or act[0] in ("move", "wait") and len(act) == 2):
        return act
    raise _Foul(f"unrecognized action {act!r}")


class _State:
    """Where a game stands; the verifier undoes a reveal with ``mark`` and ``undo``.

    ``decided`` and ``visited`` are ledgers: the blocked copies of each
    settled edge key, and the vertices whose first-arrival reveal is done.
    ``seen`` holds the positions stood on since the last reveal.
    """

    __slots__ = ("pos", "clock", "spent", "decided", "visited", "seen")

    def __init__(self, pos, clock):
        self.pos, self.clock, self.spent, self.seen = pos, clock, 0, set()
        self.decided, self.visited = Ledger(), Ledger()

    def reveal(self, scope, choice) -> tuple:
        """Record a legal choice (zeros for unmentioned keys); returns the statuses."""
        n = len(self.decided.entries)
        for e in scope:
            c = int(choice.get(e.key, 0))
            self.decided.add(e.key, c)
            self.spent += c
        self.seen = set()
        return tuple(self.decided.entries[n:])

    def mark(self) -> tuple:
        return (self.pos, self.clock, self.spent, self.seen,
                len(self.decided.entries), len(self.visited.entries))

    def undo(self, mark: tuple) -> None:
        self.pos, self.clock, self.spent, self.seen, n, m = mark
        self.decided.truncate(n)
        self.visited.truncate(m)


class _Rules:
    """One information model's rules, stepped by ``play`` and by the verifier.

    The constructor checks the inputs: the Traveller wins on reaching t with
    clock <= ``deadline`` and loses once the clock passes ``horizon``. A
    subclass defines ``scope``, ``move`` and ``wait``.
    """

    circling = False  # standing again where nothing was revealed since loses

    def __init__(self, inst: Instance, t1, t2, horizon):
        self.inst, self.g = inst, inst.graph
        self.t1, self.t2 = t1, t2  # as transcripts record them
        self.deadline = math.inf if t2 is None else t2
        self.horizon = horizon

    def walk(self, st: _State, tp: Policy, events: list):
        """Step the Traveller from ``st`` until a reveal is due or the game ends.

        Updates ``st`` and appends the Traveller's events. Returns the
        nonempty scope of the due reveal, or the outcome.
        """
        while True:
            if st.pos == self.inst.t:
                return TRAVELLER_WIN if st.clock <= self.deadline else BLOCKER_WIN
            if st.clock > self.horizon:
                return BLOCKER_WIN
            scope = self.scope(st)
            if scope:
                return scope
            if self.circling:
                if st.pos in st.seen:
                    return BLOCKER_WIN
                st.seen.add(st.pos)
            try:
                act = _take_action(tp(self.view(st)))
                if act[0] == "resign":
                    events.append({"type": "RESIGN", "by": "traveller"})
                    return BLOCKER_WIN
                if act[0] == "move":
                    events.append(self.move(st, act[1]))
                else:
                    events.append(self.wait(st, act[1]))
            except _Foul as f:
                events.append({"type": "FOUL", "by": "traveller", "reason": str(f)})
                return BLOCKER_WIN

    def view(self, st: _State) -> View:
        return View(st.pos, st.clock, st.decided.snapshot(), st.spent, self.inst)

    def _first_arrival(self, st: _State, edges) -> list:
        """The undecided edges on the first arrival at st.pos, marking it visited."""
        if st.pos in st.visited.index:
            return []
        st.visited.add(st.pos)
        return _undecided(edges, st.decided.index)

    @staticmethod
    def _surviving(st: _State, e, key) -> None:
        i = st.decided.index.get(e.key)
        if i is not None and e.copies - st.decided.entries[i][1] < 1:
            raise _Foul(f"no surviving copy of {key!r}")


class _TemporalRules(_Rules):
    """Temporal graph, window [t1, t2]; a move arrives at e.tau + e.d."""

    def __init__(self, inst, model, t1, t2):
        if not isinstance(inst.graph, TemporalGraph):
            raise ValueError(f"model {model!r} needs a temporal instance")
        t1, t2 = window(inst, t1, t2)
        horizon = t2 if t2 != math.inf else max(
            (e.arrival for e in inst.graph.edges), default=t1)
        super().__init__(inst, t1, None if t2 == math.inf else t2, horizon)

    def move(self, st, key) -> dict:
        for e in self.g.incident(st.pos):
            if e.key == key:
                break
        else:
            raise _Foul(f"no edge {key!r} at {st.pos!r}")
        self._departs(e, key, st.clock)
        self._surviving(st, e, key)
        st.pos, st.clock = e.other(st.pos), e.arrival
        return {"type": "MOVE", "key": e.key, "depart": e.tau, "arrive": e.arrival}

    def wait(self, st, until) -> dict:
        if not isinstance(until, int) or until <= st.clock:
            raise _Foul(f"wait until {until!r} never passes {st.clock}")
        st.clock = self._wake(st, until)
        return {"type": "WAIT", "at": st.pos, "until": st.clock}


class _LiRules(_TemporalRules):
    """``li``: the Traveller's view carries the visited set."""

    def scope(self, st):
        return self._first_arrival(st, self.g.incident(st.pos))

    def view(self, st):
        return LiView(st.pos, st.clock, st.decided.snapshot(), st.spent, self.inst,
                      st.visited.snapshot().keys())

    def _departs(self, e, key, clock) -> None:
        if e.tau < clock:
            raise _Foul(f"edge {key!r} departed before time {clock}")

    def _wake(self, st, until) -> int:
        return until


class _URules(_TemporalRules):
    """``u``: reveals and moves happen only at the current instant."""

    def scope(self, st):
        return _undecided((e for e in self.g.incident(st.pos) if e.tau == st.clock),
                          st.decided.index)

    def _departs(self, e, key, clock) -> None:
        if e.tau != clock:
            raise _Foul(f"edge {key!r} does not depart at instant {clock}")

    def _wake(self, st, until) -> int:
        return min((e.tau for e in self.g.incident(st.pos)
                    if st.clock < e.tau <= until and e.key not in st.decided.index),
                   default=until)


class _StaticRules(_Rules):
    """``static`` and ``dag``: the clock is accumulated cost, t1 stays 0."""

    circling = True

    def __init__(self, inst, model, t1, t2):
        if not isinstance(inst.graph, StaticGraph):
            raise ValueError(f"model {model!r} needs a weighted-graph instance")
        if model == "dag" and not inst.graph.directed:
            raise ValueError("model 'dag' needs a directed graph")
        if t1 != 0:
            raise ValueError("static models start at cost 0; t1 must be 0")
        deadline = t2 if t2 is not None else inst.deadline
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0")
        super().__init__(inst, 0, deadline, math.inf if deadline is None else deadline)
        self.revealed = inst.graph.outgoing if model == "dag" else inst.graph.incident

    def scope(self, st):
        return self._first_arrival(st, self.revealed(st.pos))

    def move(self, st, key) -> dict:
        e = next((e for e in self.g.outgoing(st.pos) if e.key == key), None)
        if e is None:
            raise _Foul(f"no edge {key!r} usable from {st.pos!r}")
        self._surviving(st, e, key)
        event = {"type": "MOVE", "key": e.key,
                 "depart": st.clock, "arrive": st.clock + e.weight}
        st.clock += e.weight
        st.pos = e.v if self.g.directed else e.other(st.pos)
        return event

    def wait(self, st, until) -> dict:
        raise _Foul("waiting is not a move in the static game")


_RULES = {"li": _LiRules, "u": _URules, "static": _StaticRules, "dag": _StaticRules}


def _rules(inst: Instance, model: str, t1, t2) -> _Rules:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    return _RULES[model](inst, model, t1, t2)


# ---------------------------------------------------------------------------
# the referee


def play(
    inst: Instance,
    traveller_policy: Policy,
    blocker_policy: Policy,
    model: str,
    t1: int = 0,
    t2=None,
) -> Transcript:
    """Referee one game; never raises on bad policy output (FOUL instead).

    For temporal models the window is [t1, t2] (t2 defaults to the instance
    deadline, else unbounded). For static models t2 acts as the deadline and
    t1 must stay 0.
    """
    rules = _rules(inst, model, t1, t2)
    st = _State(inst.s, rules.t1)
    events: list = []
    while True:
        stop = rules.walk(st, traveller_policy, events)
        if not isinstance(stop, list):
            break
        remaining = inst.k - st.spent
        choice = blocker_policy(BlockerView(
            st.pos, st.clock, st.decided.snapshot(), st.spent, inst,
            tuple([e.key for e in stop]), remaining))
        reason = _check_choice(stop, choice, remaining)
        if reason is not None:
            events.append({"type": "FOUL", "by": "blocker", "reason": reason})
            stop = TRAVELLER_WIN
            break
        events.append({"type": "REVEAL", "at": st.pos, "clock": st.clock,
                       "statuses": st.reveal(stop, choice)})
    return Transcript(model, inst.s, inst.t, inst.k, tuple(events), stop,
                      st.clock, st.spent, rules.t1, rules.t2)


# ---------------------------------------------------------------------------
# exhaustive verification


@dataclass
class VerifyResult:
    ok: bool
    counterexample: Optional[Transcript]
    explored: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_traveller_strategy(
    inst: Instance,
    traveller_policy: Policy,
    model: str,
    deadline=None,
    t1: int = 0,
    limit=VERIFY_LIMIT,
) -> VerifyResult:
    """Does the policy beat every Blocker line within the deadline?

    Enumerates every legal reveal (all count vectors, partial blocks
    included) and follows the policy's deterministic replies. On failure the
    losing Blocker script is replayed through ``play`` so the counterexample
    is an ordinary transcript. Raises SizeLimitError beyond ``limit`` reveal
    states, or count vectors at one reveal (``math.inf`` lifts the guard).
    """
    rules = _rules(inst, model, t1, deadline)
    script, explored = _refute(rules, traveller_policy, limit)
    if script is None:
        return VerifyResult(True, None, explored)
    choices = []
    while script:
        choice, script = script
        choices.append(choice)
    tr = play(inst, traveller_policy, scripted_blocker(choices), model,
              t1=t1, t2=deadline)
    assert tr.outcome == BLOCKER_WIN, "verifier and referee disagree"
    return VerifyResult(False, tr, explored)


def _refute(rules: _Rules, tp: Policy, limit) -> tuple:
    """Min-max over Blocker choices with the Traveller side fixed.

    Returns (script, explored). The script is None when the policy wins
    every line, else the losing choices in consult order as nested pairs
    (choice, rest) ending in (). Each open reveal is one generator that
    ``knowledge.run`` drives, so deep games need no recursion; all share
    ``st`` and undo their reveals.
    """
    explored = Meter("verifier reveal states", limit)
    st = _State(rules.inst.s, rules.t1)

    def line():
        """The losing script from ``st`` on, or None when the policy wins."""
        stop = rules.walk(st, tp, [])
        if not isinstance(stop, list):
            return None if stop == TRAVELLER_WIN else ()
        explored.charge()
        tried = Meter("verifier count vectors at one reveal", limit)
        mark = st.mark()
        for choice in _choices(stop, rules.inst.k - st.spent):
            tried.charge()
            st.reveal(stop, choice)
            sub = yield line()
            st.undo(mark)
            if sub is not None:
                return (choice, sub)
        return None

    return run(line()), explored.used


# ---------------------------------------------------------------------------
# ready-made policies


def _table_pair(table: PiTable, arcs_at: Callable) -> tuple:
    """Both sides of the blocked-arc game, guided by a budget table.

    ``arcs_at`` maps a view to the out-arcs where it stands, as the
    (head, weight, copies, key) tuples of ``dagctp.traveller_move``: key is
    the edge whose status the arc follows, None for a wait to the head's time.
    """

    def traveller(view):
        arc = traveller_move(arcs_at(view), table, table.budget - view.spent, view.decided)
        if arc is None:
            return ("resign",)
        return ("wait", arc[0][1]) if arc[3] is None else ("move", arc[3])

    def blocker(view):
        scope = set(view.undecided)
        mv = blocker_move(arcs_at(view), table, view.remaining)
        return {key: c for key, c in mv.items() if key in scope}

    return traveller, blocker


def expansion_policies(inst: Instance, t1: int = 0, t2=None) -> tuple:
    """Both sides of the per-instant model, guided by the ``u`` budget table.

    A position's out-arcs are the time expansion's, read off the graph and
    the table: a departure per edge leaving there at that instant and
    arriving by t2, and the wait to the vertex's next node in the table. A
    position between two nodes (a wait woken by an edge that arrives too
    late to be in the table) has only that wait. Every arc weighs 0: an arc's
    cost is its head's arrival in the table less the clock, the same for every
    arc at a position, so moves and (head, weight) ties are the cost table's.
    """
    dec = decide_u(inst, t1, t2)
    g, t1, t2, wide = inst.graph, dec.t1, dec.t2, inst.k + 1

    @cache
    def times(v) -> list:
        """v's node times by ``layout``'s filter, ascending; a wait never
        enters (s, t1), the one node that may have no edge."""
        return sorted({x for e in g.incident(v) if t1 <= e.tau and e.arrival <= t2
                       for x in (e.tau, e.arrival)})

    def arcs_at(view) -> list:
        v, clock = view.position, view.clock
        arcs = [((e.other(v), e.arrival), 0, e.copies, e.key)
                for e in g.incident(v) if e.tau == clock and e.arrival <= t2]
        later = times(v)
        i = bisect_right(later, clock)
        if i < len(later):
            arcs.append(((v, later[i]), 0, wide, None))
        return arcs

    return _table_pair(dec.table, arcs_at)


def table_policies(inst: Instance, table: PiTable) -> tuple:
    """Both sides of the directed blocking game, guided by the budget table."""
    return _table_pair(table, lambda view: [(e.v, e.weight, e.copies, e.key)
                                            for e in inst.graph.outgoing(view.position)])


def solve_weighted(inst: Instance, state_limit: int = STATE_LIMIT) -> tuple:
    """(value, traveller, blocker) by the budget table of a DAG, else (an undirected or
    cyclic graph, or a table past TABLE_STEPS) by the search."""
    g, k = inst.graph, inst.k
    if g.directed:
        with contextlib.suppress(CyclicGraphError, SizeLimitError):
            table = compute_pi(g, inst.t, k)
            return table.value(inst.s, k), *table_policies(inst, table)
    game = StaticGame(inst, "out" if g.directed else "incident", state_limit)
    return game.entry_value(), game.traveller_policy(), game.blocker_policy()


def builtin_policies(inst: Instance, model: str, t1: int = 0, t2=None,
                     state_limit: int = STATE_LIMIT) -> tuple:
    """(traveller, blocker) pair backed by the matching solver.

    The model's input checks run first, so an instance of the wrong kind is
    a ValueError here, as in ``play`` and ``verify_traveller_strategy``.
    ``state_limit`` bounds the exact searches of ``li``, ``static`` and ``dag``.
    """
    _rules(inst, model, t1, t2)
    if model == "u":
        return expansion_policies(inst, t1, t2)
    if model == "dag":
        return solve_weighted(inst, state_limit)[1:]
    game = (exact_li(inst, t1, t2, state_limit) if model == "li"
            else StaticGame(inst, "incident", state_limit))
    return game.traveller_policy(), game.blocker_policy()
