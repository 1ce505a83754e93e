"""Outside-in span tracer over the public callables of randquad's layers.

Every public function of the traced modules is wrapped at each module
attribute that binds it: ``from X import Y`` copies the name, so
``kernel.find_periodic_orbit`` and ``quadmap.find_periodic_orbit`` are two
bindings of one function and both get the same wrapper.  Two methods mark
layer boundaries inside objects and are wrapped on their classes:
``NoiseModel.sample`` and ``KernelOperator.row``.  Nothing under ``src/``
changes; leaving the ``with Tracer()`` block restores every binding.

Clock: spans measure CPU seconds (user + sys).  A span on the thread that
installed the tracer reads process CPU, so work done for it by pool threads
outside any span (the replicate recurrence inside ``ensemble_occupation``)
is its own; a span on a pool thread reads that thread's CPU.  Each thread
keeps its own span stack, and a pool thread's outermost span is a child of
the innermost span open on the installing thread.  A span's self time is its
time minus that of its children, so the self times of a pass add up to the
pass's CPU time.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
import weakref
from collections import defaultdict
from itertools import count

import numpy as np

from randquad import cli, config, diagnostics, engine, kernel, noise, quadmap

MODULES = (quadmap, noise, engine, kernel, diagnostics, cli, config)
METHODS = ((noise.NoiseModel, "sample"), (kernel.KernelOperator, "row"))


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


class Tracer:
    """Install with ``with Tracer() as t:``; spans are (id, parent, layer, cpu_s, facts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = count()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._multi_step_ops = weakref.WeakSet()
        self._operators = weakref.WeakSet()
        self._facts = {
            "noise.sample": lambda a, k, r: {"draws": 1 if _arg(a, k, 2, "size") is None
                                             else int(_arg(a, k, 2, "size"))},
            "engine.bin_states": lambda a, k, r: {"states": len(_arg(a, k, 0, "values"))},
            "engine.ensemble_occupation": self._ensemble_facts,
            "engine.simulate_trajectory": lambda a, k, r: {
                "steps": int(_arg(a, k, 2, "n")), "absorbed": int(r.absorbed)},
            "quadmap.find_periodic_orbit": lambda a, k, r: {"hit": r is not None},
            "kernel.row": self._row_facts,
        }

    # ------------------------------------------------------------------ #
    # facts recorded at the layer boundary

    @staticmethod
    def _ensemble_facts(args, kwargs, result):
        cfg = _arg(args, kwargs, 2, "config")
        return {"steps": cfg.n_replicates * cfg.n_steps, "absorbed": int(result.absorbed)}

    def _row_facts(self, args, kwargs, result):
        op, n = args[0], _arg(args, kwargs, 2, "n")
        new = op not in self._operators
        self._operators.add(op)
        first = n >= 2 and op not in self._multi_step_ops
        if n >= 2:
            self._multi_step_ops.add(op)
        return {"operators": int(new), "first": first, "operator_bytes": _array_bytes(vars(op))}

    # ------------------------------------------------------------------ #
    # installing wrappers

    def _wrap(self, layer, fn):
        facts = self._facts.get(layer)
        spans, ids, home, home_stack, local = (
            self.spans, self._ids, self._home, self._home_stack, self._local)
        process_time, thread_time = time.process_time, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() == home:
                stack, clock = home_stack, process_time
                parent = stack[-1] if stack else None
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                clock = thread_time
                parent = stack[-1] if stack else (home_stack[-1] if home_stack else None)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t1 - t0, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, layer, t1 - t0,
                          facts(args, kwargs, result) if facts else None))
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("randquad.")):
                    continue
                if value not in wrappers:
                    layer = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._wrap(layer, value)
                self._restore.append((module, name, value))
                setattr(module, name, wrappers[value])
        for cls, name in METHODS:
            method = vars(cls)[name]
            layer = f"{cls.__module__.rsplit('.', 1)[-1]}.{name}"
            self._restore.append((cls, name, method))
            setattr(cls, name, self._wrap(layer, method))
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        return False

    # ------------------------------------------------------------------ #
    # results

    def layers(self) -> dict:
        """Per layer: calls, self CPU seconds and the summed facts."""
        child = defaultdict(float)
        for _, parent, _, cpu, _ in self.spans:
            if parent is not None:
                child[parent] += cpu
        out = defaultdict(lambda: defaultdict(float))
        for sid, _, layer, cpu, facts in self.spans:
            agg = out[layer]
            agg["calls"] += 1
            agg["self_s"] += cpu - child[sid]
            for key, value in (facts or {}).items():
                if key == "hit":
                    agg["hits" if value else "misses"] += 1
                    agg["hit_s" if value else "miss_s"] += cpu
                elif key == "first":
                    agg["first_row_s" if value else "rest_row_s"] += cpu
                elif key == "operator_bytes":
                    agg["operator_bytes"] = max(agg["operator_bytes"], value)
                else:
                    agg[key] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, cpu, facts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "cpu_s": cpu, "facts": facts}) + "\n")


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracers) -> dict:
    """The benchmark's per-layer metrics, averaged over traced passes."""
    per_pass = []
    for tracer in tracers:
        L = tracer.layers()
        sample, bins = L["noise.sample"], L["engine.bin_states"]
        ens, traj = L["engine.ensemble_occupation"], L["engine.simulate_trajectory"]
        orbit, row = L["quadmap.find_periodic_orbit"], L["kernel.row"]
        steps = ens["steps"] + traj["steps"]
        per_pass.append({
            "noise.sample.calls": (sample["calls"], "count"),
            "noise.sample.draws": (sample["draws"], "count"),
            "noise.sample.self_s": (sample["self_s"], "s"),
            "noise.sample.ns_per_draw": (_ratio(sample["self_s"], sample["draws"], 1e9), "ns"),
            "noise.substream.calls": (L["noise.substream"]["calls"], "count"),
            "engine.ensemble_occupation.calls": (ens["calls"], "count"),
            "engine.ensemble_occupation.self_s": (ens["self_s"], "s"),
            "engine.steps": (steps, "count"),
            "engine.steps_per_s": (_ratio(steps, ens["self_s"] + traj["self_s"]), "steps/s"),
            "engine.absorbed": (ens["absorbed"] + traj["absorbed"], "count"),
            "engine.bin_states.calls": (bins["calls"], "count"),
            "engine.bin_states.states": (bins["states"], "count"),
            "engine.bin_states.self_s": (bins["self_s"], "s"),
            "engine.bin_states.ns_per_state": (_ratio(bins["self_s"], bins["states"], 1e9), "ns"),
            "engine.merge_occupations.calls": (L["engine.merge_occupations"]["calls"], "count"),
            "engine.simulate_trajectory.self_s": (traj["self_s"], "s"),
            "diagnostics.extinction_test.self_s": (L["diagnostics.extinction_test"]["self_s"], "s"),
            "diagnostics.cyclicity_detect.self_s": (L["diagnostics.cyclicity_detect"]["self_s"], "s"),
            "diagnostics.kolmogorov_approx.self_s": (L["diagnostics.kolmogorov_approx"]["self_s"], "s"),
            "kernel.row.calls": (row["calls"], "count"),
            "kernel.row.self_s": (row["self_s"], "s"),
            "kernel.first_row_s": (row["first_row_s"], "s"),
            "kernel.rest_row_s": (row["rest_row_s"], "s"),
            "kernel.operators": (row["operators"], "count"),
            "kernel.matrix_mib": (row["operator_bytes"] / 2**20, "MiB"),
            "quadmap.find_periodic_orbit.calls": (orbit["calls"], "count"),
            "quadmap.find_periodic_orbit.hits": (orbit["hits"], "count"),
            "quadmap.find_periodic_orbit.misses": (orbit["misses"], "count"),
            "quadmap.find_periodic_orbit.hit_ms": (_ratio(orbit["hit_s"], orbit["hits"], 1e3), "ms"),
            "quadmap.find_periodic_orbit.miss_ms": (_ratio(orbit["miss_s"], orbit["misses"], 1e3), "ms"),
            "quadmap.q_of_theta.self_s": (L["quadmap.q_of_theta"]["self_s"], "s"),
            "cli.main.calls": (L["cli.main"]["calls"], "count"),
            "cli.main.self_s": (L["cli.main"]["self_s"], "s"),
            "config.load_config.self_s": (L["config.load_config"]["self_s"], "s"),
        })
    return {
        name: (statistics.fmean(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def self_shares(tracers, top: int = 8) -> dict:
    """Largest self-time shares of the traced CPU time, summed over passes."""
    totals = defaultdict(float)
    for tracer in tracers:
        for layer, agg in tracer.layers().items():
            totals[layer] += agg["self_s"]
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return {layer: round(s / whole, 4) for layer, s in ranked}
