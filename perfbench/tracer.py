"""In-memory span recorder wrapped around localgd's public functions.

A span is (name, start_ns, end_ns, parent, run_id, work): ``parent`` is the
index of the enclosing span (-1 for a root), ``run_id`` numbers the operation
(sweep cell, run or flow instance) the span belongs to, and ``work`` is a
count taken from the call's arguments (rounds for runners, scalar steps for
the margin kernel, 0 elsewhere). Spans stay in memory until the benchmark
writes them out.

Wrapping replaces a function in every localgd module namespace that binds
it, so calls through ``from .data import load_dataset`` style names are
traced as well as calls through the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _config_rounds(bound):
    return int(bound.arguments["config"].R)


def _margin_steps(bound):
    a = bound.arguments
    return int(a["K"]) * int(a["rounds"]) * len(a["gammas"])


# (qualified name, work counter); the qualified name is "<module>.<function>"
# inside the localgd package. schedules and errors are O(1) arithmetic and
# exception types and carry no spans.
TRACED = (
    ("cli.main", None),
    ("optim.run_local_gd", _config_rounds),
    ("optim.run_two_stage", _config_rounds),
    ("optim.run_local_gf", _config_rounds),
    ("_kernels.local_gd_margin", _margin_steps),
    ("losses.ell_prime", None),
    ("losses.objective", None),
    ("losses.min_margin", None),
    ("specialfn.log_phi", None),
    ("specialfn.surrogate_loss", None),
    ("specialfn.gf_round", None),
    ("specialfn.make_gf_state", None),
    ("specialfn.theory_constants", None),
    ("data.partition_heterogeneous", None),
    ("data.compute_margin", None),
    ("data.save_dataset", None),
    ("data.load_dataset", None),
    ("diagnostics.check_run", None),
    ("diagnostics.envelope_two_stage", None),
)

# A call of this function starts a new operation (one sweep cell); it is
# private, so a refactor that removes it leaves the whole sweep one operation.
CELL_BOUNDARY = "cli._sweep_cell"


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers: dict = {}

    def begin_operation(self):
        self.run_id += 1

    def clear(self):
        self.spans = []
        self._stack = []
        self.run_id = 0

    def _wrap(self, name, fn, work, starts_operation):
        if name in self._wrappers:
            return self._wrappers[name]
        idx = len(self.names)
        self.names.append(name)
        signature = inspect.signature(fn) if work else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_operation:
                self.run_id += 1
            stack = self._stack
            parent = stack[-1] if stack else -1
            slot = len(self.spans)
            self.spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = work(signature.bind(*args, **kwargs)) if work else 0
                self.spans[slot] = (idx, start, end, parent, self.run_id, count)

        self._wrappers[name] = traced
        return traced

    def _replace_everywhere(self, original, wrapped):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "localgd" or n.startswith("localgd."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every function in TRACED; returns the names that do not exist."""
        missing = []
        targets = [(q, w, False) for q, w in TRACED] + [(CELL_BOUNDARY, None, True)]
        for qual, work, starts_operation in targets:
            modname, func = qual.rsplit(".", 1)
            home = sys.modules.get("localgd." + modname)
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                missing.append(qual)
                continue
            self._replace_everywhere(original, self._wrap(qual, original, work, starts_operation))
        return missing

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of direct children."""
    child = [0] * len(spans)
    for _idx, start, end, parent, _run, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]
