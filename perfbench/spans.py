"""Spans around calls into zetalab's layers, recorded from outside the program.

install() wraps the public functions listed in FUNCTIONS and METHODS and
rebinds every module-level name that refers to an original, so calls
made through `from .liouville import iter_lambda_segments` are seen too.
Each original is wrapped once: a second install() finds only wrappers
and leaves them alone. Spans stay in memory; the worker writes them out
when the command has returned.

A span's self time is its duration minus the time its direct child spans
cover. Summaries group spans by the metric they feed (see summarize()).
"""

import functools
import sys
import time

# module -> public functions timed as spans
FUNCTIONS = {
    "liouville": ("iter_lambda_segments", "iter_mobius_segments", "sieve_range", "run_scan"),
    "integrals": ("integrate_step", "j_xi", "estimate_sigma_c"),
    "zeta": ("zeta", "zeta_with_error", "zeta_ratio", "shifted_ratio", "lambda_series"),
    "sums": ("f_x", "l_x"),
    "verify": ("run_default_suite",),
    "cli": ("main",),
}
# module -> (class, method) pairs timed as spans
METHODS = {
    "liouville": (("ScanCheckpoint", "save"),),
    "compensated": (("CompensatedSum", "add_array"), ("ComplexCompensatedSum", "add_array")),
    "sums": (("PrefixEvaluator", "update"),),
}
# Segment generators: the call starts a sieve pass, each advance is a span.
_GENERATORS = {"liouville.iter_lambda_segments", "liouville.iter_mobius_segments"}
ADVANCE = "liouville.segment_advance"

# Span name -> the group whose busy/self time and call count it feeds.
GROUPS = {
    ADVANCE: "sieve",
    "liouville.sieve_range": "sieve_range",
    "liouville.run_scan": "scan",
    "liouville.ScanCheckpoint.save": "checkpoint",
    "compensated.CompensatedSum.add_array": "compensated",
    "compensated.ComplexCompensatedSum.add_array": "compensated",
    "integrals.integrate_step": "integrals",
    "integrals.j_xi": "integrals",
    "integrals.estimate_sigma_c": "integrals",
    "zeta.zeta": "zeta",
    "zeta.zeta_with_error": "zeta",
    "zeta.zeta_ratio": "zeta",
    "zeta.shifted_ratio": "zeta",
    "zeta.lambda_series": "series",
    "sums.f_x": "sums",
    "sums.l_x": "sums",
    "sums.PrefixEvaluator.update": "sums",
    "verify.run_default_suite": "verify",
    "cli.main": "cli",
}

_MARK = "__perfbench_span__"


class Tracer:
    """In-memory span recorder with per-group aggregates."""

    def __init__(self, trace_id: str = "run"):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._group_depth: dict[str, int] = {}
        self.passes = 0
        self.pass_ranges: list[tuple[int, int]] = []
        self.n_sieved = 0
        self.integrations = 0
        self.cells = 0
        self.series_terms = 0
        self.cases = 0

    def open(self, name: str) -> dict:
        group = GROUPS[name]
        depth = self._group_depth.get(group, 0)
        span = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "group": group,
            "outermost": depth == 0,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        self._group_depth[group] = depth + 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self._group_depth[span["group"]] -= 1
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def depth(self, group: str) -> int:
        return self._group_depth.get(group, 0)

    def count_pass(self, lo: int, hi: int) -> None:
        self.passes += 1
        self.pass_ranges.append((int(lo), int(hi)))

    def distinct_needed(self) -> int:
        """Length of the union of all sieve-pass ranges."""
        total, reach = 0, 0
        for lo, hi in sorted(self.pass_ranges):
            total += max(0, hi - max(lo, reach))
            reach = max(reach, hi)
        return total

    def summarize(self) -> dict:
        """Per-group counts, outermost busy time and summed self time."""
        groups: dict[str, dict] = {}
        for s in self.spans:
            g = groups.setdefault(s["group"], {"calls": 0, "all_calls": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            g["all_calls"] += 1
            g["self_s"] += dur - s["child_s"]
            if s["outermost"]:
                g["calls"] += 1
                g["busy_s"] += dur
        evals = sum(1 for s in self.spans if s["name"] == "zeta.zeta_with_error")
        return {
            "groups": groups,
            "passes": self.passes,
            "n_sieved": self.n_sieved,
            "distinct_needed": self.distinct_needed(),
            "integrations": self.integrations,
            "cells": self.cells,
            "series_terms": self.series_terms,
            "zeta_evals": evals,
            "cases": self.cases,
        }


def _traced_call(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _count_arguments(tracer, name, args, kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if name == "verify.run_default_suite":
            tracer.cases += len(result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(start, stop, *args, **kwargs):
        if not tracer.depth("sieve_range"):  # sieve_range counted this pass already
            tracer.count_pass(start, stop)
        return _advance_spans(tracer, fn(start, stop, *args, **kwargs))

    setattr(wrapper, _MARK, True)
    return wrapper


def _advance_spans(tracer: Tracer, gen):
    while True:
        span = tracer.open(ADVANCE)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.close(span)
        tracer.n_sieved += len(item[1])
        yield item


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _count_arguments(tracer: Tracer, name: str, args, kwargs) -> None:
    """Work counts computed from arguments, where the call hides the loop.

    integrate_step and j_xi each integrate once over X - 1 cells;
    estimate_sigma_c integrates once per (sigma, X) pair. A call made
    inside another integrals call is already counted by the outer one.
    """
    if name == "liouville.sieve_range":
        tracer.count_pass(_arg(args, kwargs, 0, "lo"), _arg(args, kwargs, 1, "hi"))
    elif GROUPS[name] == "integrals" and tracer.depth("integrals"):
        return
    elif name == "integrals.integrate_step":
        G = args[0]
        X = _arg(args, kwargs, 2, "X")
        tracer.integrations += 1
        tracer.cells += int(G.limit if X is None else X) - 1
    elif name == "integrals.j_xi":
        tracer.integrations += 1
        tracer.cells += int(_arg(args, kwargs, 1, "X")) - 1
    elif name == "integrals.estimate_sigma_c":
        grid = list(_arg(args, kwargs, 1, "sigma_grid"))
        sched = [int(x) for x in _arg(args, kwargs, 2, "x_schedule")]
        tracer.integrations += len(grid) * len(sched)
        tracer.cells += len(grid) * sum(x - 1 for x in sched)
    elif name == "zeta.lambda_series":
        tracer.series_terms += int(_arg(args, kwargs, 1, "n_terms"))


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method once and rebind its aliases."""
    replacements = {}
    for mod_name, names in FUNCTIONS.items():
        module = sys.modules[f"zetalab.{mod_name}"]
        for fname in names:
            orig = getattr(module, fname)
            if getattr(orig, _MARK, False):
                continue
            name = f"{mod_name}.{fname}"
            make = _traced_generator if name in _GENERATORS else _traced_call
            replacements[id(orig)] = (orig, make(tracer, name, orig))
    for mod_name, pairs in METHODS.items():
        module = sys.modules[f"zetalab.{mod_name}"]
        for cls_name, meth in pairs:
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            if not getattr(orig, _MARK, False):
                setattr(cls, meth, _traced_call(tracer, f"{mod_name}.{cls_name}.{meth}", orig))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "zetalab" and not mod_name.startswith("zetalab."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
