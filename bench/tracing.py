"""Spans around the calls into each package module, recorded from outside it.

Each traced function is replaced where the calling module imports it (for
example ``resilient_sse.experiments.build_horizon``), so the package source
is untouched and an untraced run pays nothing. A call site that a refactor
renames or removes shows up as a missing span, never as a zero.

A span's self time is its duration minus the time covered by the spans it
caused. A layer's ``calls`` counts entries into the layer from another layer
(``weighted_observer`` calling ``solve_weighted_l1`` is one estimation call).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("lp", "estimation", "lti", "fdia", "pruning", "experiments", "cli")

# (calling module, name imported there, span name "<layer>.<function>")
CALL_SITES = (
    ("experiments", "sweep", "experiments.sweep"),
    ("experiments", "run_scenario", "experiments.run_scenario"),
    ("experiments", "draw_instance", "experiments.draw_instance"),
    ("experiments", "build_horizon", "lti.build_horizon"),
    ("experiments", "simulate", "lti.simulate"),
    ("experiments", "stack_window", "lti.stack_window"),
    ("experiments", "decode", "estimation.decode"),
    ("experiments", "weighted_observer", "estimation.weighted_observer"),
    ("experiments", "luenberger_baseline", "estimation.luenberger_baseline"),
    ("experiments", "random_support", "fdia.random_support"),
    ("experiments", "synthesize_fdia", "fdia.synthesize_fdia"),
    ("experiments", "indicator_from_support", "pruning.indicator_from_support"),
    ("experiments", "gen_confidences", "pruning.gen_confidences"),
    ("experiments", "sample_prior", "pruning.sample_prior"),
    ("experiments", "prune_product", "pruning.prune_product"),
    ("experiments", "prune_quantile", "pruning.prune_quantile"),
    ("estimation", "solve_weighted_l1", "estimation.solve_weighted_l1"),
    ("estimation", "weighted_l1_regression", "lp.weighted_l1_regression"),
    ("cli", "parse_and_dispatch", "cli.parse_and_dispatch"),
    ("cli", "build_horizon", "lti.build_horizon"),
    ("cli", "decode", "estimation.decode"),
    ("cli", "weighted_observer", "estimation.weighted_observer"),
)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory spans plus the LP outcomes, installed for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, index of the causing span or -1]
        self._stack = []
        self._installed = []
        self.lp_iterations = []
        self.lp_rel_gaps = []
        self.lp_failures = 0

    def install(self) -> None:
        for module_name, attr, span_name in CALL_SITES:
            try:
                module = importlib.import_module(f"resilient_sse.{module_name}")
            except ModuleNotFoundError:
                continue  # its spans never appear, and coverage reports them
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, span_name))
                self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        is_lp = _layer(name) == "lp"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_lp:
                    self.lp_failures += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if is_lp:  # the public LpSolution
                self.lp_iterations.append(result.iterations)
                self.lp_rel_gaps.append(result.gap / (1.0 + abs(result.objective)))
            return result

        return traced

    def missing(self, expected) -> list:
        seen = {span[0] for span in self.spans}
        return sorted(set(expected) - seen)

    def metrics(self) -> dict:
        """Calls and self seconds per layer and per function, plus the LP figures."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("calls", "self_s")}
        for (name, start, end, parent), covered in zip(self.spans, child_s):
            self_s = end - start - covered
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{_layer(name)}.self_s"] += self_s
            if parent < 0 or _layer(self.spans[parent][0]) != _layer(name):
                out[f"{_layer(name)}.calls"] += 1
        its = self.lp_iterations
        out["lp.iterations_total"] = sum(its)
        out["lp.iterations_mean"] = sum(its) / len(its) if its else 0.0
        out["lp.iterations_max"] = max(its, default=0)
        out["lp.worst_rel_gap"] = max(self.lp_rel_gaps, default=0.0)
        out["lp.failures"] = self.lp_failures
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
