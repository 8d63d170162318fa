"""In-memory span tracer that wraps halfcav functions from outside the package.

The package binds functions with ``from .x import f``, so a function is
reachable under several module attributes (``absorption_probability`` lives
in ``dynamics`` and is also bound in ``scenario`` and ``write_optimizer``).
``Tracer.install`` replaces every binding of each traced function in every
loaded ``halfcav`` module, so no caller bypasses the wrapper.

Spans record a name, start, end, parent span and op id, and stay in memory
until the run ends.  A span's self time is its duration minus the part of
it that its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Layer functions, as (module, function) pairs.
TRACED = (
    ("cli", "write_csv"),
    ("cli", "emit_store"),
    ("cli", "emit_sweep"),
    ("scenario", "build_store_run"),
    ("scenario", "sweep_point"),
    ("scenario", "oracle_check"),
    ("write_optimizer", "optimal_write_profile"),
    ("write_optimizer", "_synthesize_gamma_z"),
    ("read_shaper", "read_profile_for_target"),
    ("dynamics", "profile_from_gamma_z"),
    ("dynamics", "absorption_probability"),
    ("dynamics", "bloch_ode_oracle"),
    ("pulses", "make_time_bin"),
    ("pulses", "shift"),
    ("mirror", "trajectory_from_decay"),
    ("core", "cumtrapz"),
)

# Gamma_z[-1] at or above this sends absorption_probability down its
# per-sample loop (the long-storage fallback in halfcav.dynamics).  It must
# match the switch in dynamics.absorption_probability; selftest.py checks
# the counter against the path taken on both sides of it.
LOOP_PATH_GAMMA_Z = 1200.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_write_csv(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    columns = kwargs.get("columns", args[2] if len(args) > 2 else None)
    return {"bytes": os.path.getsize(path), "rows": len(columns[0])}


def _count_build(args, kwargs, result):
    return {"grid_n": result.grid.n}


def _count_absorption(args, kwargs, result):
    profile = kwargs.get("profile", args[0] if args else None)
    return {
        "samples": profile.grid.n,
        "loop_path_calls": int(profile.Gamma_z[-1] >= LOOP_PATH_GAMMA_Z),
    }


def _count_synthesis(args, kwargs, result):
    return {"samples": len(result)}


def _count_oracle_steps(args, kwargs, result):
    return {"steps": result.grid.n - 1}


# Work counts recorded on a span from the call's arguments and result.
COUNTERS = {
    "cli.write_csv": _count_write_csv,
    "scenario.build_store_run": _count_build,
    "dynamics.absorption_probability": _count_absorption,
    "write_optimizer._synthesize_gamma_z": _count_synthesis,
    "dynamics.bloch_ode_oracle": _count_oracle_steps,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the op root)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each TRACED function in loaded halfcav modules."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"halfcav.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "halfcav" or n.startswith("halfcav.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"halfcav.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def per_op_layer_metrics(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Layer metrics of each op: summed self times and counts, plus ratios.

    Ops in which a layer does not run report 0 for it.
    """
    selfs = self_times(spans)
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    sweep_points: dict[int, list[float]] = defaultdict(list)
    builds: dict[int, int] = {}
    for i, span in enumerate(spans):
        m = ops[span.op]
        m[f"{span.name}.self_s"] += selfs[i]
        for key, value in span.counts.items():
            m[f"{span.name}.{key}"] += value
        if span.name == "core.cumtrapz":
            m["core.cumtrapz.calls"] += 1
        if span.name == "scenario.sweep_point":
            sweep_points[span.op].append(span.duration)
        if span.name == "scenario.build_store_run":
            builds[i] = 0
    for span in spans:
        if span.name == "read_shaper.read_profile_for_target" and span.parent in builds:
            builds[span.parent] += 1
    for i, attempts in builds.items():
        m = ops[spans[i].op]
        key = "scenario.build_store_run.read_window_attempts"
        m[key] = max(m[key], attempts)
    for op, durations in sweep_points.items():
        ops[op]["scenario.sweep_point.slowest_share"] = max(durations) / sum(durations)
        ops[op]["scenario.sweep_point.sum_s"] = sum(durations)
    return {op: dict(m) for op, m in ops.items()}


def median_over_ops(per_op: dict[int, dict[str, float]], name: str) -> float:
    values = [m.get(name, 0.0) for m in per_op.values()]
    return statistics.median(values) if values else 0.0
