"""Seeded corpus of tiny referee and verifier runs, recorded as a golden file.

``records()`` plays every case of the corpus and returns what the arena
produced: the transcript bytes of a builtin-vs-builtin ``play`` and, for
three traveller policies, the ``explored`` count and counterexample bytes of
``verify_traveller_strategy``. ``test_arena.py`` compares it with
``arena_golden.json``. Regenerate the file only when a change to the
arena's output is intended:

    PYTHONPATH=src:tests python tests/arena_golden.py
"""
import json
import pathlib
import random

from generators import rand_dag, rand_static, rand_temporal
from tctp.arena import builtin_policies, play, verify_traveller_strategy
from tctp.core import TemporalGraph, parse_instance, serialize_instance

GOLDEN = pathlib.Path(__file__).with_name("arena_golden.json")
PER_MODEL = 16


def greedy_temporal(view):
    """Criterion-9 greedy: earliest surviving arrival, else sleep to the next departure."""
    g = view.inst.graph
    pos, clock = view.position, view.clock
    for e in sorted(g.incident(pos), key=lambda e: (e.arrival, e.key)):
        if e.tau >= clock and e.copies - view.decided.get(e.key, 0) >= 1:
            if hasattr(view, "visited") or e.tau == clock:
                return ("move", e.key)
    nxt = min((e.tau for e in g.incident(pos) if e.tau > clock), default=None)
    return ("wait", nxt) if nxt is not None else ("resign",)


def greedy_static(view):
    """Criterion-9 greedy: the lightest surviving usable edge."""
    g = view.inst.graph
    for e in sorted(g.outgoing(view.position), key=lambda e: (e.weight, e.key)):
        if e.copies - view.decided.get(e.key, 0) >= 1:
            return ("move", e.key)
    return ("resign",)


def wanderer(view):
    """Pure but careless: cycles through every incident edge and a short
    wait, legal or not, so fouls, waits and circling all come up."""
    g = view.inst.graph
    temporal = isinstance(g, TemporalGraph)
    options = [("move", e.key) for e in g.incident(view.position)]
    if temporal or not options:
        options.append(("wait", view.clock + 1))
    blocked = sum(1 for c in view.decided.values() if c)
    return options[(view.clock + len(view.decided) + 3 * blocked) % len(options)]


def cases() -> list:
    """(model, instance, t1, t2) for every case, in a fixed order."""
    out = []
    rng = random.Random(2024)
    for model in ("li", "u"):
        for i in range(PER_MODEL):
            inst = rand_temporal(rng, max_n=6, max_keys=10)
            t1, t2 = [(0, None), (1, None), (0, 4)][i % 3]
            out.append((model, inst, t1, t2))
    for i in range(PER_MODEL):
        out.append(("dag", rand_dag(rng, max_n=7, max_arcs=12),
                    0, [None, 12][i % 2]))
    for i in range(PER_MODEL):
        inst = rand_static(rng, max_n=5, directed=i % 4 == 3)
        out.append(("static", inst, 0, [None, 6][i % 2]))
    return out


def run_case(model, inst, t1, t2) -> dict:
    tp, bp = builtin_policies(inst, model, t1, t2)
    rec = {"play": play(inst, tp, bp, model, t1, t2).to_json_lines(), "verify": {}}
    greedy = greedy_temporal if model in ("li", "u") else greedy_static
    for name, pol in (("builtin", tp), ("greedy", greedy), ("wanderer", wanderer)):
        res = verify_traveller_strategy(inst, pol, model, deadline=t2, t1=t1)
        ce = res.counterexample
        rec["verify"][name] = [res.explored,
                               None if ce is None else ce.to_json_lines()]
    return rec


def records() -> list:
    out = []
    for model, inst, t1, t2 in cases():
        rec = {"model": model, "instance": serialize_instance(inst), "t1": t1, "t2": t2}
        rec.update(run_case(model, inst, t1, t2))
        out.append(rec)
    return out


def replay(rec: dict) -> dict:
    """Run one recorded case again from its stored instance text."""
    inst = parse_instance(rec["instance"])
    return run_case(rec["model"], inst, rec["t1"], rec["t2"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n")
