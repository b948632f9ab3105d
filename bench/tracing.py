"""Spans around the public functions of the distobs layers, from outside the program.

`Tracer.install()` replaces every module-level binding in `distobs.*` of a
public function defined in one of `LAYERS` by one wrapper per function, and
`Tracer.uninstall()` puts the original objects back.  A wrapper records a
span (id, parent id, op id, name, start, end), the function's self time
(duration minus the time covered by its traced children), calls and
exceptions that left it.  Spans stay in memory until `write_spans`.

A few wrappers also count work at the same boundary: CARE solves inside
`place_injection`, the bytes of the matrices `build_error_system` returns,
RK4 steps, and the sizes of gains and trace files written or read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import scipy.linalg

LAYERS = ("graph", "linalg", "synthesis", "error_system", "simulate", "problem", "cli")


def _modules():
    return [importlib.import_module("distobs")] + [
        importlib.import_module(f"distobs.{layer}") for layer in LAYERS
    ]


def public_functions() -> dict:
    """Span name -> function, for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"distobs.{layer}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [self_s, calls, errors]
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)
        hooks = {
            "synthesis.place_injection": self._placement_done,
            "error_system.build_error_system": self._error_system_built,
            "simulate.simulate": self._simulated,
            "problem.write_trace_csv": self._file_size("trace_csv_bytes", 1),
            "problem.save_realization": self._file_size("gains_bytes", 1),
            "problem.load_realization": self._file_size("gains_bytes", 0),
        }
        self._wrappers = {
            id(fn): self._wrap(name, fn, hooks.get(name))
            for name, fn in public_functions().items()
        }

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod in _modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in self._wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[id(obj)])
        care = scipy.linalg.solve_continuous_are
        self._saved.append((scipy.linalg, "solve_continuous_are", care))
        scipy.linalg.solve_continuous_are = self._count("care_attempts", care)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stat = self.stats.setdefault(name, [0.0, 0, 0])
        stack, spans, counters = self._stack, self.spans, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            care_before = counters["care_attempts"]
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                stat[0] += dur - frame[1]
                stat[1] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.op, name, start, end))
            if hook is not None:
                hook(args, result, counters["care_attempts"] - care_before)
            return result

        return traced

    def _count(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _placement_done(self, args, result, care_calls):
        # a placement that needed CARE solves is one useful outcome of them
        if care_calls:
            self.counters["care_useful"] += 1

    def _error_system_built(self, args, result, care_calls):
        self.counters["error_system_builds"] += 1
        self.counters["error_system_bytes"] += sum(
            m.nbytes
            for m in (result.full_matrix, result.restricted_matrix, result.t_s, result.t_p)
        )

    def _simulated(self, args, result, care_calls):
        cfg = args[3]
        self.counters["steps"] += round(cfg.t_final / cfg.dt)

    def _file_size(self, key, arg):
        def hook(args, result, care_calls):
            self.counters[key] += os.path.getsize(args[arg])
            self.counters[key + "_files"] += 1

        return hook

    # -- results -------------------------------------------------------------

    def self_total(self, prefix: str = "") -> float:
        """Summed self time of the functions whose span name starts with `prefix`."""
        return sum(s[0] for name, s in self.stats.items() if name.startswith(prefix))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end}
                ) + "\n")
