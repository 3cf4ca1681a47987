"""Spans around calls into gbcbound's public functions, for the traced run.

Nothing in the package changes.  ``instrument`` rebinds every public
function of the traced modules to a recording wrapper, in every gbcbound
module namespace that refers to it.  Calls made through a module attribute
(``membership.sup_bound_lhs`` inside ``in_outer_region``) and names bound by
``from ... import`` (``cli.trace_boundary``) both go through the wrapper.
The originals are restored on exit.

Spans stay in memory.  A span is recorded only while an operation span is
open, so the benchmark's own output checks are never traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("bound", "membership", "capacity", "minkowski", "simulate", "verify")

SUP = "membership.sup_bound_lhs"
ROW = "membership.trace_boundary"

# Per-span numbers taken from the call: (K, count).
DESCRIBE = {
    SUP: lambda args, result: (args[0].num_receivers, result.iterations),
    ROW: lambda args, result: (args[0].num_receivers, 0),
    "capacity.containment": lambda args, result: (0, result.samples_checked),
    "simulate.run_analog": lambda args, result: (0, args[0].samples),
}

# Span record fields.
NAME, PARENT, ROOT, START, END, K, COUNT = range(7)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append([name, parent, root, perf_counter(), 0.0, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                self.spans[idx][K:] = describe(args, result)
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route the public functions of TRACED_MODULES through ``tracer``."""
    wrappers = {}
    for layer in TRACED_MODULES:
        module = importlib.import_module(f"gbcbound.{layer}")
        for fname in module.__all__:
            fn = getattr(module, fname)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{fname}", fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "gbcbound" and not modname.startswith("gbcbound."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def _mean(total: float, count: int) -> float:
    """Mean over recorded calls; 0 where the workload made no such call."""
    return total / count if count else 0.0


def layer_metrics(spans: list[list], exact: int, ks: tuple[int, ...],
                  cli_commands: tuple[str, ...]) -> dict:
    """Per-layer numbers from the recorded spans.

    Times are taken over all spans.  The exact counts (evaluations per
    supremum, supremum calls per row) are taken over the first ``exact``
    spans only: those of the workload's fixed set of rounds.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    row_of = [-1] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            row_of[i] = row_of[parent]
        if s[NAME] == ROW:
            row_of[i] = i
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def total(ids):
        return sum(dur[i] for i in ids)

    out = {}
    sups = by_name.get(SUP, [])
    for k in ks:
        ids = [i for i in sups if spans[i][K] == k]
        evals = sum(spans[i][COUNT] for i in ids)
        fixed = [i for i in ids if i < exact]
        out[f"membership.sup_ms.K{k}"] = 1e3 * _mean(total(ids), len(ids))
        fixed_evals = sum(spans[i][COUNT] for i in fixed)
        out[f"membership.evals_per_sup.K{k}"] = _mean(fixed_evals, len(fixed))
        out[f"bound.eval_ns.K{k}"] = 1e9 * _mean(total(ids), evals)
    checks = by_name.get("bound.check_inequality", [])
    out["bound.check_inequality_us"] = 1e6 * _mean(total(checks), len(checks))

    rows = by_name.get(ROW, [])
    for k in (2, 3):
        row_ids = [i for i in rows if spans[i][K] == k]
        sup_in_rows = [i for i in sups if 0 <= row_of[i] < exact and spans[row_of[i]][K] == k]
        fixed_rows = [i for i in row_ids if i < exact]
        out[f"membership.sup_calls_per_row.K{k}"] = _mean(len(sup_in_rows), len(fixed_rows))
        out[f"membership.row_ms.K{k}"] = 1e3 * _mean(total(row_ids), len(row_ids))
    out["membership.row_sup_share"] = _mean(
        total(i for i in sups if row_of[i] >= 0), total(rows)
    )

    for command in cli_commands:
        ids = by_name.get(f"cli.{command}", [])
        out[f"cli.{command}_ms"] = 1e3 * _mean(total(ids), len(ids))

    cont = by_name.get("capacity.containment", [])
    out["capacity.containment_ms"] = 1e3 * _mean(total(cont), len(cont))
    out["capacity.samples_per_containment"] = _mean(
        sum(spans[i][COUNT] for i in cont), len(cont)
    )
    sims = by_name.get("simulate.run_analog", [])
    out["simulate.samples_per_s"] = _mean(sum(spans[i][COUNT] for i in sims), total(sims))
    return out


def verify_metrics(spans: list[list]) -> dict:
    """Per-layer numbers of the ``cli.verify`` operation in ``spans``.

    A layer's share is the self time of its functions over the command's
    time.  Self time is a span's duration minus the time its child spans
    cover (children of one span never overlap: one thread, nested calls).
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    in_verify = [i for i, s in enumerate(spans) if spans[s[ROOT]][NAME] == "cli.verify"]
    verify_time = sum(dur[i] for i in in_verify if spans[i][NAME] == "cli.verify")
    out = {"cli.verify_ms": 1e3 * verify_time}
    for layer in ("membership", "bound", "capacity", "minkowski"):
        self_time = sum(dur[i] - child[i] for i in in_verify if spans[i][NAME].startswith(layer + "."))
        out[f"verify.layer_share.{layer}"] = _mean(self_time, verify_time)
    mink = [i for i in in_verify if spans[i][NAME] == "minkowski.check_minkowski"]
    out["minkowski.check_us"] = 1e6 * _mean(sum(dur[i] for i in mink), len(mink))
    return out
