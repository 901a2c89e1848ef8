"""Command-line front end.

One binary, eight subcommands: expand, dag-solve, solve-u, solve-li,
solve-static, gen, play, verify. Global flags may sit before or after the
subcommand. Exit codes: 0 Traveller wins / success, 3 Blocker wins /
UNREACHABLE, 2 usage or input error, 4 state-limit tripped.

Output is deterministic: identical invocations yield identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .arena import (
    MODELS,
    TRAVELLER_WIN,
    Transcript,
    builtin_policies,
    play,
    solve_weighted,
    transcript_traveller_policy,
    verify_traveller_strategy,
)
from .core import Instance, StaticGraph, TemporalGraph, parse_instance, serialize_instance
from .dagctp import UNREACHABLE, compute_pi
from .errors import STATE_LIMIT, TABLE_CELLS, VERIFY_LIMIT, InstanceFormatError, SizeLimitError
from .expansion import build_expansion
from .gadgets import QbfFormula, gen_li_np, gen_li_pspace, gen_static_np, parse_dimacs
from .litctp import NEVER, exact_li, solve_k1
from .utctp import decide_u, earliest_arrival, latest_departure, shortest_duration


def _state_count(text: str) -> int:
    """``--limit``'s value: a count of states, so never negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps a flag given before the subcommand from being clobbered
    # by the subparser's default
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                   help="output style (default text)")
    p.add_argument("--limit", type=_state_count, default=argparse.SUPPRESS, metavar="STATES",
                   help="override the exhaustive-search state guard")
    p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                   help="no stdout; the exit code carries the answer")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every call shares the one parser, so callers must not modify it; parsing
    leaves it unchanged, and each parse starts from a fresh namespace.
    """
    common = _common_flags()
    root = argparse.ArgumentParser(prog="tctp", parents=[common],
                                   description=__doc__.splitlines()[0])
    subs = root.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("expand", parents=[common],
                        help="time-expand a temporal instance into a DAG instance")
    p.add_argument("instance")
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=None)
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("dag-solve", parents=[common],
                        help="worst-case cost table of a directed instance")
    p.add_argument("instance")
    p.add_argument("--table", action="store_true",
                   help="print the whole table as TSV (vertex, pi_0..pi_k)")
    p.set_defaults(func=cmd_dag_solve)

    p = subs.add_parser("solve-u", parents=[common],
                        help="decide or optimize the per-instant reveal game")
    p.add_argument("instance")
    p.add_argument("--objective", choices=("decide", "earliest", "latest", "duration"),
                   default="decide")
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=None)
    p.set_defaults(func=cmd_solve_u)

    p = subs.add_parser("solve-li", parents=[common],
                        help="decide the first-arrival reveal game")
    p.add_argument("instance")
    p.add_argument("--exact", action="store_true",
                   help="full game search (any budget) plus one optimal playout")
    p.add_argument("--deadline", type=int, default=None)
    p.set_defaults(func=cmd_solve_li)

    p = subs.add_parser("solve-static", parents=[common],
                        help="exact value of the blocking game on a weighted graph")
    p.add_argument("instance")
    p.add_argument("--deadline", type=int, default=None)
    p.set_defaults(func=cmd_solve_static)

    p = subs.add_parser("gen", parents=[common],
                        help="build a hardness instance from a formula file")
    p.add_argument("kind", choices=("qbf", "sat4", "sat2"))
    p.add_argument("formula")
    p.add_argument("-o", "--output", default=None,
                   help="instance file to write (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("play", parents=[common],
                        help="referee one playout and print its transcript")
    p.add_argument("instance")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--traveller", choices=("builtin", "transcript"), default="builtin")
    p.add_argument("--blocker", choices=("builtin", "exhaustive"), default="builtin")
    p.add_argument("--transcript", default=None, metavar="FILE",
                   help="transcript to replay (with --traveller transcript)")
    p.add_argument("--t1", type=int, default=0)
    p.add_argument("--t2", type=int, default=None)
    p.set_defaults(func=cmd_play)

    p = subs.add_parser("verify", parents=[common],
                        help="check a traveller policy against every blocker line")
    p.add_argument("instance")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--traveller", choices=("builtin", "transcript"), default="builtin")
    p.add_argument("--transcript", default=None, metavar="FILE")
    p.add_argument("--deadline", type=int, default=None)
    p.add_argument("--t1", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return root


class _Out:
    def __init__(self, ns):
        self.fmt = getattr(ns, "format", "text")
        self.quiet = getattr(ns, "quiet", False)
        # the format result() prints in, None under --quiet
        self.prints = None if self.quiet else self.fmt

    def block(self, text: str) -> None:
        if not self.quiet:
            sys.stdout.write(text)

    def result(self, obj: dict, text_lines) -> None:
        """Emit obj as JSON, or the prepared text lines."""
        if self.prints == "json":
            sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
        elif self.prints == "text":
            for line in text_lines:
                sys.stdout.write(line + "\n")

    def transcript(self, tr: Transcript, obj: Optional[dict] = None, text_lines=()) -> None:
        """Emit a result ending in tr: obj with tr as its "transcript" field
        (tr's object alone when obj is None), or tr's JSON lines after text_lines."""
        if self.prints == "json":
            tobj = _transcript_obj(tr)
            self.result(tobj if obj is None else {**obj, "transcript": tobj}, ())
        elif self.prints == "text":
            self.result(None, [*text_lines, tr.to_json_lines().rstrip("\n")])


def _load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _limit(ns, default: int) -> int:
    return getattr(ns, "limit", default)


def _finite(x):
    return None if x == UNREACHABLE else x


def _render(x) -> str:
    return "inf" if x == math.inf else str(x)


def _transcript_obj(tr: Transcript) -> dict:
    rows = list(tr.rows())
    return {"header": rows[0], "events": rows[1:-1], "footer": rows[-1]}


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(ns) -> int:
    inst = _load(ns.instance)
    if not isinstance(inst.graph, TemporalGraph):
        raise ValueError("expand needs a temporal instance")
    t2 = ns.t2 if ns.t2 is not None else inst.deadline
    xd = build_expansion(inst.graph, inst.s, inst.t, inst.k, ns.t1, t2)
    out_inst = Instance(xd.graph, xd.source, xd.target, inst.k)
    out = _Out(ns)
    if out.fmt == "json":
        out.block(serialize_instance(out_inst, "json"))
        return 0
    labels = " ".join(
        f"{name}@{time}" for name, time in xd.non_target_nodes()
    )
    comment = (
        f"# time expansion, window [{ns.t1}, {_render(xd.t2)}]\n"
        "# label name@time = that vertex at that time; @target absorbs every\n"
        "# (target, time) node through zero-weight sink arcs\n"
        f"# nodes: {labels}\n"
    )
    out.block(comment + serialize_instance(out_inst, "text"))
    return 0


def cmd_dag_solve(ns) -> int:
    inst = _load(ns.instance)
    if inst.model != "dag":
        raise ValueError("dag-solve needs a dag instance")
    if ns.table and len(inst.graph.vertices) * (inst.k + 1) > TABLE_CELLS:
        raise ValueError(f"--table prints k + 1 columns a vertex, at most {TABLE_CELLS} cells")
    table = compute_pi(inst.graph, inst.t, inst.k)
    val = table.value(inst.s, inst.k)
    obj = {"source": str(inst.s), "k": inst.k, "value": _finite(val)}
    lines = [f"pi_{inst.k}({inst.s}) = "
             + ("UNREACHABLE" if val == UNREACHABLE else str(val))]
    if ns.table:
        header = "vertex\t" + "\t".join(f"pi_{i}" for i in range(inst.k + 1))
        lines.append(header)
        tab = {}
        for v in inst.graph.vertices:
            row = [table.value(v, i) for i in range(inst.k + 1)]
            tab[str(v)] = [_finite(x) for x in row]
            lines.append(str(v) + "\t" + "\t".join(_render(x) for x in row))
        obj["table"] = tab
    _Out(ns).result(obj, lines)
    return 0 if val != UNREACHABLE else 3


def cmd_solve_u(ns) -> int:
    inst = _load(ns.instance)
    out = _Out(ns)
    if ns.objective == "decide":
        dec = decide_u(inst, ns.t1, ns.t2)
        window = [dec.t1, None if dec.t2 == math.inf else dec.t2]
        obj = {"objective": "decide", "wins": dec.wins, "window": window,
               "guaranteed_arrival": _finite(dec.guaranteed_arrival)}
        who = "Traveller wins" if dec.wins else "Blocker wins"
        line = f"{who} window [{dec.t1}, {_render(dec.t2)}]"
        if dec.wins:
            line += f": guaranteed arrival {dec.guaranteed_arrival}"
        out.result(obj, [line])
        return 0 if dec.wins else 3
    if ns.t1 != 0 or ns.t2 is not None:
        raise ValueError(f"--t1/--t2 apply to --objective decide, not {ns.objective}")
    if ns.objective == "earliest":
        val = earliest_arrival(inst)
        out.result({"objective": "earliest", "value": val},
                   [f"earliest arrival {val}" if val is not None else "UNREACHABLE"])
        return 0 if val is not None else 3
    if ns.objective == "latest":
        val = latest_departure(inst)
        obj_val = "inf" if val == math.inf else val
        out.result({"objective": "latest", "value": obj_val},
                   [f"latest departure {_render(val)}" if val is not None
                    else "UNREACHABLE"])
        return 0 if val is not None else 3
    window = shortest_duration(inst)
    obj = {"objective": "duration",
           "window": list(window) if window else None,
           "value": window[1] - window[0] if window else None}
    text = (f"shortest window [{window[0]}, {window[1]}] "
            f"(duration {window[1] - window[0]})" if window else "UNREACHABLE")
    out.result(obj, [text])
    return 0 if window is not None else 3


def cmd_solve_li(ns) -> int:
    inst = _load(ns.instance)
    out = _Out(ns)
    obj: dict = {"k": inst.k, "deadline": ns.deadline
                 if ns.deadline is not None else inst.deadline}
    if ns.exact or inst.k != 1:
        res = exact_li(inst, 0, ns.deadline, state_limit=_limit(ns, STATE_LIMIT))
        obj["wins"] = res.wins
        lines = ["Traveller wins" if res.wins else "Blocker wins"]
        if ns.exact:
            tp, bp = res.traveller_policy(), res.blocker_policy()
            out.transcript(play(inst, tp, bp, "li", 0, ns.deadline), obj, lines)
        else:
            out.result(obj, lines)
        return 0 if res.wins else 3
    res = solve_k1(inst, ns.deadline)
    obj["wins"] = res.wins
    pi1 = {}
    for v in inst.graph.vertices:
        x = res.pi1[v]
        pi1[v] = "never" if x == NEVER else "inf" if x == math.inf else x
    obj["pi1"] = pi1
    lines = ["Traveller wins" if res.wins else "Blocker wins",
             "vertex\tlatest_safe"]
    lines += [f"{v}\t{x}" for v, x in pi1.items()]
    out.result(obj, lines)
    return 0 if res.wins else 3


def cmd_solve_static(ns) -> int:
    inst = _load(ns.instance)
    if not isinstance(inst.graph, StaticGraph):
        raise ValueError("solve-static needs a weighted-graph instance")
    if ns.deadline is not None and ns.deadline < 0:
        raise ValueError("deadline must be >= 0")
    val, traveller, blocker = solve_weighted(inst, _limit(ns, STATE_LIMIT))
    deadline = ns.deadline if ns.deadline is not None else inst.deadline
    wins = val != UNREACHABLE and (deadline is None or val <= deadline)
    obj = {"value": _finite(val), "deadline": deadline, "wins": wins}
    lines = ["value " + ("UNREACHABLE" if val == UNREACHABLE else str(val))]
    out = _Out(ns)
    if val != UNREACHABLE:
        tr = play(inst, traveller, blocker,
                  "dag" if inst.graph.directed else "static", 0, ns.deadline)
        out.transcript(tr, obj, lines)
    else:
        out.result(obj, lines)
    return 0 if wins else 3


def cmd_gen(ns) -> int:
    with open(ns.formula, "r", encoding="utf-8") as fh:
        cnf, _ = parse_dimacs(fh.read())
    if ns.kind == "qbf":
        inst = gen_li_pspace(QbfFormula.from_cnf(cnf))
    elif ns.kind == "sat4":
        inst, _ = gen_static_np(cnf)
    else:
        inst, _ = gen_li_np(cnf)
    out = _Out(ns)
    text = serialize_instance(inst, out.fmt)
    if ns.output is None:
        out.block(text)
    else:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _builtin(ns, inst: Instance, t2):
    """The (traveller, blocker) builtin pair for the window [t1, t2] the
    command plays or checks, built on first use only."""
    return functools.cache(
        lambda: builtin_policies(inst, ns.model, ns.t1, t2, _limit(ns, STATE_LIMIT)))


def _pick_traveller(ns, builtin):
    if ns.traveller == "transcript":
        if ns.transcript is None:
            raise ValueError("--traveller transcript needs --transcript FILE")
        with open(ns.transcript, "r", encoding="utf-8") as fh:
            return transcript_traveller_policy(Transcript.from_json_lines(fh.read()))
    if ns.transcript is not None:
        raise ValueError("--transcript FILE needs --traveller transcript")
    return builtin()[0]


def cmd_play(ns) -> int:
    inst = _load(ns.instance)
    builtin = _builtin(ns, inst, ns.t2)
    tp = _pick_traveller(ns, builtin)
    tr = None
    if ns.blocker == "exhaustive":
        tr = verify_traveller_strategy(inst, tp, ns.model, deadline=ns.t2, t1=ns.t1,
                                       limit=_limit(ns, VERIFY_LIMIT)).counterexample
    if tr is None:
        tr = play(inst, tp, builtin()[1], ns.model, ns.t1, ns.t2)
    _Out(ns).transcript(tr)
    return 0 if tr.outcome == TRAVELLER_WIN else 3


def cmd_verify(ns) -> int:
    inst = _load(ns.instance)
    tp = _pick_traveller(ns, _builtin(ns, inst, ns.deadline))
    res = verify_traveller_strategy(inst, tp, ns.model, deadline=ns.deadline,
                                    t1=ns.t1, limit=_limit(ns, VERIFY_LIMIT))
    out = _Out(ns)
    obj = {"ok": res.ok, "explored": res.explored,
           "counterexample": _transcript_obj(res.counterexample)
           if res.counterexample else None}
    if res.ok:
        out.result(obj, [f"verified: wins every blocker line "
                         f"({res.explored} reveal states)"])
        return 0
    out.result(obj, ["refuted:", res.counterexample.to_json_lines().rstrip("\n")]
               if out.prints == "text" else [])
    return 3


# ---------------------------------------------------------------------------


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return ns.func(ns)
    except SizeLimitError as exc:
        print(f"tctp: state limit: {exc}", file=sys.stderr)
        return 4
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"tctp: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
