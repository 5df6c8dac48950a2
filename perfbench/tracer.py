"""Per-module spans recorded from outside the program.

The tracer rebinds holelab's public functions to timing wrappers everywhere
they are bound, including `from ... import` bindings such as
holelab.holes.find_holes or holelab.campaign.is_k_balanced, so a call is
timed whichever module makes it. A generator call is one span whose busy
time is the sum of its steps (each `next`, and the final close).

A span's self time is its duration minus the time of the spans it caused;
a layer's busy time is the union of its spans' intervals. Self times of all
spans add up to the time covered by outermost spans, and the rest of a pass
is unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# module -> layer; every public function defined in the module is wrapped
MODULE_LAYERS = {
    "holelab.cli": "cli",
    "holelab.io": "io",
    "holelab.campaign": "campaign",
    "holelab.holes": "holes",
    "holelab.homology": "homology",
    "holelab.invariants": "invariants",
}

PRUNE_HOOK = "_completion_feasible"


class Layer:
    __slots__ = ("name", "busy", "active")

    def __init__(self, name: str):
        self.name = name
        self.busy = 0.0
        self.active = 0


class Stat:
    __slots__ = ("layer", "calls", "busy", "self_s", "active", "yields", "falses", "items")

    def __init__(self, layer: Layer):
        self.layer = layer
        self.calls = self.yields = self.falses = self.items = 0
        self.busy = self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.layers: dict[str, Layer] = {}
        self.stats: dict[str, Stat] = {}
        self.covered = 0.0  # total duration of outermost spans
        self.budgets: list = []
        self.prune_hooked = False

    # -- span accounting ----------------------------------------------------

    def _enter(self, st: Stat):
        frame = [0.0]
        self.stack.append(frame)
        st.active += 1
        st.layer.active += 1
        return frame, time.perf_counter()

    def _exit(self, st: Stat, token) -> None:
        frame, t0 = token
        dt = time.perf_counter() - t0
        self.stack.pop()
        st.self_s += dt - frame[0]
        st.active -= 1
        if not st.active:
            st.busy += dt
        layer = st.layer
        layer.active -= 1
        if not layer.active:
            layer.busy += dt
        if self.stack:
            self.stack[-1][0] += dt
        else:
            self.covered += dt

    def _stat(self, layer: str, name: str) -> Stat:
        lay = self.layers.setdefault(layer, Layer(layer))
        return self.stats.setdefault(f"{layer}.{name}", Stat(lay))

    def wrap(self, fn, layer: str, name: str | None = None, steps: bool = False, on_result=None):
        st = self._stat(layer, name or fn.__name__)
        enter, leave = self._enter, self._exit

        if steps:
            def traced_steps(it):
                try:
                    while True:
                        token = enter(st)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave(st, token)
                        st.yields += 1
                        yield item
                finally:
                    close = getattr(it, "close", None)
                    if close is not None:
                        token = enter(st)
                        try:
                            close()
                        finally:
                            leave(st, token)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                st.calls += 1
                token = enter(st)
                try:
                    it = iter(fn(*args, **kwargs))
                finally:
                    leave(st, token)
                return traced_steps(it)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            token = enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, token)
            if on_result is not None:
                on_result(st, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever holelab binds it."""
        kernels = importlib.import_module("holelab.kernels")
        budget_mod = importlib.import_module("holelab.budget")
        graph_mod = importlib.import_module("holelab.graph")
        replace: dict[int, object] = {}
        for mod_name, layer in MODULE_LAYERS.items():
            mod = importlib.import_module(mod_name)
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod_name:
                    continue
                on_result = _count_verdicts if (mod_name, name) == ("holelab.campaign", "run_campaign") else None
                replace[id(fn)] = self.wrap(fn, layer, steps=inspect.isgeneratorfunction(fn), on_result=on_result)
        # the kernel in use returns an iterator whether compiled or pure
        replace[id(kernels.find_holes)] = self.wrap(kernels.find_holes, "kernels", steps=True)
        impl = sys.modules.get("holelab.kernels._pycore")
        if kernels.IMPLEMENTATION == "pure" and impl is not None and hasattr(impl, PRUNE_HOOK):
            setattr(impl, PRUNE_HOOK, self.wrap(getattr(impl, PRUNE_HOOK), "kernels", "prune", on_result=_count_false))
            self.prune_hooked = True
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "holelab" or mod_name.startswith("holelab.")):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
        graph_mod.Graph.induced_subgraph = self.wrap(graph_mod.Graph.induced_subgraph, "graph")
        original_init = budget_mod.Budget.__init__
        budgets = self.budgets

        @functools.wraps(original_init)
        def init(budget, *args, **kwargs):
            original_init(budget, *args, **kwargs)
            budgets.append(budget)

        budget_mod.Budget.__init__ = init

    # -- per-pass results ---------------------------------------------------

    def reset(self) -> None:
        for st in self.stats.values():
            st.calls = st.yields = st.falses = st.items = 0
            st.busy = st.self_s = 0.0
        for layer in self.layers.values():
            layer.busy = 0.0
        self.covered = 0.0
        self.budgets.clear()

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def metrics(self) -> dict[str, float]:
        s = self.stats

        def layer_sum(layer: str, attr: str):
            return sum(getattr(st, attr) for key, st in s.items() if key.startswith(layer + "."))

        out = {
            "kernels.busy_s": self.layers["kernels"].busy,
            "kernels.calls": s["kernels.find_holes"].calls,
            "kernels.holes": s["kernels.find_holes"].yields,
            "holes.self_s": layer_sum("holes", "self_s"),
            "holes.calls": layer_sum("holes", "calls"),
            "cli.self_s": layer_sum("cli", "self_s"),
            "io.busy_s": self.layers["io"].busy,
            "io.entries": s["io.parse_corpus"].yields,
            "campaign.self_s": layer_sum("campaign", "self_s"),
            "campaign.entries": s["campaign.run_campaign"].items,
            "homology.parity_s": s["homology.independence_parity"].busy,
            "homology.parity_calls": s["homology.independence_parity"].calls,
            "homology.betti_self_s": s["homology.betti_numbers"].self_s,
            "homology.balance_self_s": s["homology.is_k_balanced"].self_s,
            "invariants.clique_s": s["invariants.clique_number"].busy,
            "invariants.clique_calls": s["invariants.clique_number"].calls,
            "invariants.chromatic_self_s": s["invariants.chromatic_number"].self_s,
            "invariants.chromatic_calls": s["invariants.chromatic_number"].calls,
            "invariants.chi_rho_self_s": s["invariants.chi_rho"].self_s,
            "graph.induced_subgraph_s": s["graph.induced_subgraph"].busy,
            "graph.induced_subgraph_calls": s["graph.induced_subgraph"].calls,
            "budget.nodes": sum(b.used for b in self.budgets),
        }
        if self.prune_hooked:
            prune = s["kernels.prune"]
            out["kernels.prune_calls"] = prune.calls
            out["kernels.prune_rejects"] = prune.falses
            out["kernels.prune_reject_frac"] = prune.falses / prune.calls if prune.calls else 0.0
            out["kernels.prune_s"] = prune.busy
        return out


def _count_false(st: Stat, result) -> None:
    if not result:
        st.falses += 1


def _count_verdicts(st: Stat, report) -> None:
    st.items += len(report.verdicts)
