"""Seeded corpus of tiny exact knowledge-state searches, recorded as a golden file.

``records()`` runs every case and returns what the two exact searches
answered and how many knowledge states each touched: for ``li`` cases,
``exact_li(...).wins`` and ``.states`` over a few windows; for ``static`` and
``dag`` cases, in both discovery modes, ``entry_value()`` and its state count,
``decide(T)`` for T around the value with its state count, and the order of
the Blocker's reveal choices at the source. Every count comes from a fresh
game. ``test_search_golden.py`` compares it with ``search_golden.json``.
Regenerate the file only when a change to what the searches do is intended:

    PYTHONPATH=src:tests python tests/search_golden.py
"""
import json
import pathlib
import random

from generators import rand_dag, rand_static, rand_temporal
from tctp.core import parse_instance, serialize_instance
from tctp.dagctp import UNREACHABLE
from tctp.knowledge import EMPTY
from tctp.litctp import exact_li
from tctp.staticctp import StaticGame

GOLDEN = pathlib.Path(__file__).with_name("search_golden.json")
PER_MODEL = 24
WINDOWS = ((0, None), (1, None), (0, 4), (2, 6))


def cases() -> list:
    """(model, instance) for every case, in a fixed order."""
    out = []
    rng = random.Random(4077)
    for _ in range(PER_MODEL):
        out.append(("li", rand_temporal(rng, max_n=8, max_keys=16, max_tau=7, max_k=3)))
    for i in range(PER_MODEL):
        out.append(("static", rand_static(rng, max_n=6, max_k=3, directed=i % 4 == 3)))
    for _ in range(PER_MODEL):
        out.append(("dag", rand_dag(rng, max_n=7, max_arcs=12)))
    return out


def source_choices(game: StaticGame) -> list:
    """The Blocker's reveals at the source, in search order, as sorted items."""
    s = game.inst.s
    return [sorted(game.know.statuses(s, EMPTY, c).items())
            for c in game.reveal_choices(s, EMPTY)]


def _finite(x):
    return None if x == UNREACHABLE else x


def run_case(model, inst) -> dict:
    if model == "li":
        runs = []
        for t1, t2 in WINDOWS:
            res = exact_li(inst, t1, t2)
            runs.append([t1, t2, res.wins, res.states])
        return {"li": runs}
    rec = {}
    for discovery in ("incident", "out"):
        game = StaticGame(inst, discovery=discovery)
        value = game.entry_value()
        thresholds = (0, 10) if value == UNREACHABLE else (value - 1, value, value + 1)
        decided = []
        for T in thresholds:
            fresh = StaticGame(inst, discovery=discovery)
            decided.append([T, fresh.decide(T), fresh.states])
        rec[discovery] = {
            "value": [_finite(value), game.states],
            "decide": decided,
            "choices": source_choices(StaticGame(inst, discovery=discovery)),
        }
    return rec


def _plain(obj):
    """JSON's view of obj: tuples become lists."""
    return json.loads(json.dumps(obj))


def records() -> list:
    out = []
    for model, inst in cases():
        rec = {"model": model, "instance": serialize_instance(inst)}
        rec.update(_plain(run_case(model, inst)))
        out.append(rec)
    return out


def replay(rec: dict) -> dict:
    """Run one recorded case again from its stored instance text."""
    return _plain(run_case(rec["model"], parse_instance(rec["instance"])))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n")
