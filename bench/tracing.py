"""Span tracing around kspace's layer boundaries, from outside the program.

`Tracer.install` replaces each listed function with a wrapper, in its
defining module and in every kspace module that re-exports it (engine and
oracle import ``level_restrict``, cli imports ``realize``/``is_sound`` and
so on), and `Tracer.uninstall` puts the originals back.  Spans are not
kept one by one: each (caller span, span) pair aggregates its call count,
inclusive time and self time, so memory stays bounded however many leaf
calls a workload makes.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("kspace", "kspace.core", "kspace.oracle", "kspace.engine",
           "kspace.instances", "kspace.cli")

# span name -> (defining module, function); each is also replaced wherever
# another kspace module imported it
FUNCTION_SPANS = {
    "cli.main": ("kspace.cli", "main"),
    "instances.load_instance": ("kspace.instances", "load_instance"),
    "instances.eval_expr": ("kspace.instances", "eval_expr"),
    "oracle.truth": ("kspace.oracle", "truth"),
    "oracle.is_sound": ("kspace.oracle", "is_sound"),
    "oracle.realize": ("kspace.oracle", "realize"),
    "core.level_restrict": ("kspace.core", "level_restrict"),
    "core.query": ("kspace.core", "query"),
    "core.homogeneous_level": ("kspace.core", "homogeneous_level"),
    "engine.candidates_from_proposals": ("kspace.engine", "candidates_from_proposals"),
    "engine.apply_step": ("kspace.engine", "apply_step"),
    "engine.run": ("kspace.engine", "run"),
    "engine.step_record": ("kspace.engine", "step_record"),
    "engine.explore_tree": ("kspace.engine", "explore_tree"),
    "engine.check_edge": ("kspace.engine", "check_edge"),
    "engine.check_node": ("kspace.engine", "check_node"),
}
SPANS = (*FUNCTION_SPANS,
         "instances.InstanceDoc.from_json",
         "engine.strategy")  # the callable engine.make_strategy returns


class Tracer:
    def __init__(self):
        self._stack: list[list] = []      # [span name, time in child spans]
        self._active: dict[str, int] = {}
        self._restore: list[tuple] = []
        self._edges: set = set()
        self.reset()

    def reset(self) -> None:
        # (caller, span) -> [calls, inclusive s, self s]; inclusive time
        # is only added for the outermost call of a recursive span
        self.spans: dict[tuple[str, str], list] = {}
        self.counters = {"candidates_emitted": 0, "candidates_max": 0,
                         "proposals_raw": 0, "proposals_kept": 0,
                         "distinct_edges": 0}

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] -= 1
                caller = stack[-1][0] if stack else "-"
                if stack:
                    stack[-1][1] += elapsed
                entry = self.spans.get((caller, name))
                if entry is None:
                    entry = self.spans[(caller, name)] = [0, 0.0, 0.0]
                entry[0] += 1
                if not active[name]:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if on_return is not None:
                result = on_return(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the same boundaries -------------------------------

    def _on_candidates(self, result, args):
        c = self.counters
        c["candidates_emitted"] += len(result)
        c["candidates_max"] = max(c["candidates_max"], len(result))
        return result

    def _on_realize(self, result, args):
        self.counters["proposals_kept"] += len(result)
        return result

    def _on_check_edge(self, result, args):
        edge = args[1]
        self._edges.add((edge.source, edge.chosen))
        return result

    def end_call(self) -> None:
        """Close one CLI call: distinct lemma edges are counted per call."""
        self.counters["distinct_edges"] += len(self._edges)
        self._edges.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {"engine.candidates_from_proposals": self._on_candidates,
                 "oracle.realize": self._on_realize,
                 "engine.check_edge": self._on_check_edge}
        for name, (module_name, attr) in FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self.wrap(name, original, hooks.get(name)))

        make_strategy = importlib.import_module("kspace.engine").make_strategy

        def traced_make_strategy(*args, **kwargs):
            return self.wrap("engine.strategy", make_strategy(*args, **kwargs))
        self._replace(make_strategy, traced_make_strategy)

        doc = importlib.import_module("kspace.instances").InstanceDoc
        from_json = doc.__dict__["from_json"].__func__
        self._set(doc, "from_json",
                  classmethod(self.wrap("instances.InstanceDoc.from_json", from_json)))

        realizer = importlib.import_module("kspace.oracle").Realizer
        propose = realizer.__dict__["propose"]

        def counted_propose(obj, view):
            raw = propose(obj, view)
            self.counters["proposals_raw"] += len(raw)
            return raw
        self._set(realizer, "propose", counted_propose)

    def _replace(self, original, wrapper) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span: [calls, inclusive s, self s], summed over callers."""
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        for (_, name), (calls, incl, own) in self.spans.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        return out

    def by_caller(self) -> list[dict]:
        return [{"caller": caller, "span": name, "calls": calls,
                 "incl_s": incl, "self_s": own}
                for (caller, name), (calls, incl, own) in sorted(self.spans.items())]
