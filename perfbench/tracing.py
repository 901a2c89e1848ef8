"""Spans and counts at the public-function boundaries of the tctp modules.

Nothing in ``src/tctp`` is edited: ``Tracer.install`` replaces each traced
function with a wrapper under every name a tctp module looks it up by
(``tctp.utctp.decide_u`` for the optimizers, ``tctp.cli.decide_u`` for the
command line, and so on), and each traced method on its class.
``uninstall`` puts the originals back. A span records its name, start, end,
parent span and operation id; spans stay in memory until ``dump``.

The group check of ``compute_pi`` is measured by re-running the same table
with identity groups after each grouped call. That probe is paused out of the
clock, so it adds to no span.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from tctp import arena, cli, core, dagctp, expansion, gadgets, litctp, staticctp, utctp

LAYERS = ("core", "expansion", "dagctp", "utctp", "litctp", "staticctp", "gadgets",
          "arena", "cli")
SUBCOMMANDS = ("expand", "dag-solve", "solve-u", "solve-li", "solve-static", "gen",
               "play", "verify")
OPTIMIZERS = ("utctp.earliest_arrival", "utctp.latest_departure",
              "utctp.shortest_duration")

# (unit, better) of every per-layer metric, in report order
METRICS = {
    "core.parse_s": ("s", "lower"),
    "core.serialize_s": ("s", "lower"),
    "core.parse_bytes": ("count", "lower"),
    "expansion.build_s": ("s", "lower"),
    "expansion.nodes": ("count", "lower"),
    "expansion.arcs": ("count", "lower"),
    "dagctp.compute_pi_s": ("s", "lower"),
    "dagctp.compute_pi_calls": ("count", "lower"),
    "dagctp.move_calls": ("count", "lower"),
    "dagctp.group_check_s": ("s", "lower"),
    "utctp.decide_s": ("s", "lower"),
    "utctp.decide_calls": ("count", "lower"),
    "utctp.optimizer_calls": ("count", "lower"),
    "utctp.decide_calls_per_optimizer": ("count", "lower"),
    "litctp.k1_s": ("s", "lower"),
    "litctp.label_passes": ("count", "lower"),
    "litctp.exact_s": ("s", "lower"),
    "litctp.states": ("count", "lower"),
    "litctp.reveal_branches": ("count", "lower"),
    "litctp.states_per_s": ("1/s", "higher"),
    "staticctp.decide_s": ("s", "lower"),
    "staticctp.decide_states": ("count", "lower"),
    "staticctp.reveal_branches": ("count", "lower"),
    "staticctp.value_s": ("s", "lower"),
    "staticctp.value_states": ("count", "lower"),
    "staticctp.playout_calls": ("count", "lower"),
    "gadgets.gen_s": ("s", "lower"),
    "arena.policies_s": ("s", "lower"),
    "arena.play_s": ("s", "lower"),
    "arena.play_events": ("count", "lower"),
    "arena.verify_s": ("s", "lower"),
    "arena.verify_explored": ("count", "lower"),
    **{f"cli.dispatch_s.{c}": ("s", "lower") for c in SUBCOMMANDS},
    "cli.overhead_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# span-duration sums: metric -> span names
DURATIONS = {
    "core.parse_s": ("core.parse_instance",),
    "core.serialize_s": ("core.serialize_instance",),
    "expansion.build_s": ("expansion.build_expansion",),
    "dagctp.compute_pi_s": ("dagctp.compute_pi",),
    "utctp.decide_s": ("utctp.decide_u",),
    "litctp.k1_s": ("litctp.solve_k1",),
    "litctp.exact_s": ("litctp.exact_li",),
    "staticctp.decide_s": ("staticctp.StaticGame.decide",),
    "staticctp.value_s": ("staticctp.StaticGame.entry_value",),
    "gadgets.gen_s": ("gadgets.gen_li_pspace", "gadgets.gen_static_np",
                      "gadgets.gen_li_np"),
    "arena.policies_s": ("arena.builtin_policies",),
    "arena.play_s": ("arena.play",),
    "arena.verify_s": ("arena.verify_traveller_strategy",),
}

# span-count metrics: metric -> span names
CALLS = {
    "dagctp.compute_pi_calls": ("dagctp.compute_pi",),
    "utctp.decide_calls": ("utctp.decide_u",),
    "utctp.optimizer_calls": OPTIMIZERS,
}


def subcommand(args):
    """The subcommand named in a ``dispatch(argv)`` call."""
    return next((a for a in args[0] if a in SUBCOMMANDS), None)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, layer, start, end, parent index, op]
        self.counts: dict = defaultdict(int)
        self.op = None
        self._stack: list = []
        self._paused = 0.0
        self._patches: list = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None, tag=None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            rec = [name, layer, self.clock(), None,
                   self._stack[-1] if self._stack else None, self.op,
                   tag(args) if tag else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = self.clock()
                self._stack.pop()
            if after is not None:
                after(rec, result, args, kwargs)
            return result
        return wrapper

    def _counted(self, metric, fn):
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- after-hooks -------------------------------------------------------

    def _after_parse(self, rec, result, args, kwargs):
        self.counts["core.parse_bytes"] += len(args[0] if args else kwargs["text"])

    def _after_expansion(self, rec, xd, args, kwargs):
        self.counts["expansion.nodes"] += len(xd.graph.vertices)
        self.counts["expansion.arcs"] += len(xd.graph.edges)

    def _after_compute_pi(self, rec, table, args, kwargs):
        groups = args[3] if len(args) > 3 else kwargs.get("groups")
        if groups is None:
            return
        t0 = time.perf_counter()
        self._originals["dagctp.compute_pi"](args[0], args[1], args[2])
        probe = time.perf_counter() - t0
        self._paused += probe
        self.counts["dagctp.group_check_s"] += max(0.0, rec[3] - rec[2] - probe)

    def _after_exact_li(self, rec, res, args, kwargs):
        self.counts["litctp.states"] += res.states

    def _after_decide(self, rec, result, args, kwargs):
        self.counts["staticctp.decide_states"] += args[0].states

    def _after_value(self, rec, result, args, kwargs):
        self.counts["staticctp.value_states"] += args[0].states

    def _after_play(self, rec, tr, args, kwargs):
        self.counts["arena.play_events"] += len(tr.events)

    def _after_verify(self, rec, res, args, kwargs):
        self.counts["arena.verify_explored"] += res.explored

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tctp" or name.startswith("tctp.")]
        self._originals = {}
        functions = {
            (core, "parse_instance"): self._after_parse,
            (core, "serialize_instance"): None,
            (expansion, "build_expansion"): self._after_expansion,
            (dagctp, "compute_pi"): self._after_compute_pi,
            (utctp, "decide_u"): None,
            (utctp, "earliest_arrival"): None,
            (utctp, "latest_departure"): None,
            (utctp, "shortest_duration"): None,
            (litctp, "solve_k1"): None,
            (litctp, "exact_li"): self._after_exact_li,
            (gadgets, "gen_li_pspace"): None,
            (gadgets, "gen_static_np"): None,
            (gadgets, "gen_li_np"): None,
            (arena, "builtin_policies"): None,
            (arena, "play"): self._after_play,
            (arena, "verify_traveller_strategy"): self._after_verify,
            (cli, "dispatch"): None,
        }
        for (mod, attr), after in functions.items():
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            original = getattr(mod, attr)
            self._originals[name] = original
            tag = subcommand if name == "cli.dispatch" else None
            self._replace(modules, original, self._span(name, original, after, tag))
        counted = {
            (dagctp, "traveller_move"): "dagctp.move_calls",
            (dagctp, "blocker_move"): "dagctp.move_calls",
            (litctp, "latest_departure_labels"): "litctp.label_passes",
        }
        for (mod, attr), metric in counted.items():
            original = getattr(mod, attr)
            self._replace(modules, original, self._counted(metric, original))

        game = staticctp.StaticGame
        self._set(game, "decide", self._span("staticctp.StaticGame.decide",
                                             game.decide, self._after_decide))
        self._set(game, "entry_value", self._span("staticctp.StaticGame.entry_value",
                                                  game.entry_value, self._after_value))
        for attr in ("plan_move", "best_reveal"):
            self._set(game, attr, self._counted("staticctp.playout_calls",
                                                getattr(game, attr)))
        static_choices = game.reveal_choices

        def static_reveal(obj, v, decided):
            out = static_choices(obj, v, decided)
            self.counts["staticctp.reveal_branches"] += len(out)
            return out
        self._set(game, "reveal_choices", static_reveal)
        li_choices = litctp.LiGame.reveal_choices

        def li_reveal(obj, v, decided):
            for choice in li_choices(obj, v, decided):
                self.counts["litctp.reveal_branches"] += 1
                yield choice
        self._set(litctp.LiGame, "reveal_choices", li_reveal)

    def _replace(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[4] is not None:
                child[rec[4]] += rec[3] - rec[2]
        by_name: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        self_time: dict = defaultdict(float)
        dispatch: dict = defaultdict(float)
        for i, (name, layer, start, end, parent, op, tag) in enumerate(spans):
            by_name[name] += end - start
            calls[name] += 1
            self_time[layer] += end - start - child[i]
            if name == "cli.dispatch":
                dispatch[tag] += end - start
        out = {m: 0 for m in METRICS}
        for metric, names in DURATIONS.items():
            out[metric] = sum(by_name[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[n] for n in names)
        out.update({m: v for m, v in self.counts.items() if m in out})
        in_optimizer = sum(1 for rec in spans if rec[0] == "utctp.decide_u"
                           and rec[4] is not None and spans[rec[4]][0] in OPTIMIZERS)
        if out["utctp.optimizer_calls"]:
            out["utctp.decide_calls_per_optimizer"] = (
                in_optimizer / out["utctp.optimizer_calls"])
        if out["litctp.exact_s"]:
            out["litctp.states_per_s"] = out["litctp.states"] / out["litctp.exact_s"]
        for sub in SUBCOMMANDS:
            out[f"cli.dispatch_s.{sub}"] = dispatch[sub]
        out["cli.overhead_s"] = self_time["cli"]
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self_time[layer]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, op, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
