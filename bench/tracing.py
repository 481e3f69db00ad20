"""Span tracing for the benchmark's traced mode.

The tracer times each layer of ``usvt`` from outside: it replaces every
binding of a layer's public function (in its defining module and in each
``usvt`` module that imported the name) with a wrapper that records a
span. Callers import names directly, so patching only the defining
module would miss them. A layer whose function no longer exists is
reported as absent, not as an error.

Spans are kept in memory and written out at the end of the run. Each has
a name, start, end, parent span and op id. A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc

#: Layer span name -> the (defining module, function name) pairs it times.
#: The four norm helpers share one span name; each runs its own SVD.
LAYER_FUNCTIONS = {
    "cli.main": [("usvt.cli", "main")],
    "harness.estimate_file": [("usvt.harness", "estimate_file")],
    "harness.run_experiment": [("usvt.harness", "run_experiment")],
    "matrixio.read_matrix_csv": [("usvt.matrixio", "read_matrix_csv")],
    "matrixio.write_matrix_csv": [("usvt.matrixio", "write_matrix_csv")],
    "estimator.usvt_estimate": [("usvt.estimator", "usvt_estimate")],
    "estimator.trivial_estimate": [("usvt.estimator", "trivial_estimate")],
    "linalg.svd": [("usvt.linalg", "svd")],
    "linalg.norm_helpers": [
        ("usvt.linalg", name)
        for name in ("spectral_norm", "nuclear_norm", "numerical_rank", "frobenius_norm")
    ],
    "evaluation.mse": [("usvt.evaluation", "mse")],
    "evaluation.spectral_concentration_trial": [
        ("usvt.evaluation", "spectral_concentration_trial")
    ],
    **{
        f"generators.{name}": [("usvt.generators", name)]
        for name in ("gen_blockmodel", "gen_low_rank", "bernoulli_mask", "bernoulli_round")
    },
}

#: Property batteries of ``usvt check --suite all``; each gets a
#: ``checks.<battery>`` span.
CHECK_BATTERIES = ("denoise-bound", "norms", "concentration", "generators")


def _usvt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "usvt" or name.startswith("usvt."))]


class Tracer:
    """Records spans from :meth:`install` until :meth:`uninstall`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, extra]
        self._stack = []
        self._patches = []  # (namespace dict or class, key, original)
        self.op = "setup"
        self.absent = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn, hook=None, measure_memory=False):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if measure_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = time.perf_counter()
                tracer._stack.pop()
            extra = hook(args, kwargs, result) if hook else {}
            if measure_memory:
                extra["peak_bytes"] = peak
            span[5] = extra
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def _patch_everywhere(self, original, replacement):
        """Rebind every module-level name (and module-level dict value)
        in ``usvt`` that refers to ``original``."""
        for mod in _usvt_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = replacement
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def install(self):
        """Wrap every layer function found; record the missing ones."""
        self.absent = []
        for span_name, targets in LAYER_FUNCTIONS.items():
            found = False
            for module_name, attr in targets:
                mod = sys.modules.get(module_name)
                original = getattr(mod, attr, None) if mod is not None else None
                if original is None:
                    continue
                found = True
                hook = _HOOKS.get(span_name)
                wrapper = self._wrap(span_name, original, hook,
                                     measure_memory=span_name == "estimator.usvt_estimate")
                self._patch_everywhere(original, wrapper)
            if not found:
                self.absent.append(span_name)

        estimator = sys.modules.get("usvt.estimator")
        masked = getattr(estimator, "MaskedMatrix", None)
        post_init = vars(masked).get("__post_init__") if masked is not None else None
        if post_init is None:
            self.absent.append("estimator.MaskedMatrix")
        else:
            # Validation runs in __post_init__; patching the class
            # attribute catches every construction site.
            self._patches.append((masked, "__post_init__", post_init))
            setattr(masked, "__post_init__", self._wrap("estimator.MaskedMatrix", post_init))

        batteries = getattr(sys.modules.get("usvt.checks"), "_CHECKS", {})
        for battery in CHECK_BATTERIES:
            fn = batteries.get(battery)
            if fn is None:
                self.absent.append(f"checks.{battery}")
            else:
                self._patch_everywhere(fn, self._wrap(f"checks.{battery}", fn))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []

    # -- output --------------------------------------------------------
    def write(self, path, header):
        spans = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4],
             **(s[5] or {})}
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": spans}, fh)


def _hook_file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _hook_svd(args, kwargs, result):
    return {"triplets": int(len(result.singular_values))}


def _hook_estimate(args, kwargs, result):
    return {"retained_rank": int(result.retained_rank)}


def _hook_experiment(args, kwargs, result):
    return {
        "cells": len(result.cells),
        "cells_failed": sum(c.failure is not None for c in result.cells),
        "cell_wall_times": [c.wall_time for c in result.cells],
    }


_HOOKS = {
    "matrixio.read_matrix_csv": _hook_file_bytes,
    "matrixio.write_matrix_csv": _hook_file_bytes,
    "linalg.svd": _hook_svd,
    "estimator.usvt_estimate": _hook_estimate,
    "harness.run_experiment": _hook_experiment,
}

_GENERATORS = ("gen_blockmodel", "gen_low_rank", "bernoulli_mask", "bernoulli_round")

#: Per-layer metric -> (unit, layer spans it needs). A metric is left out
#: when one of its layers is absent.
PER_LAYER_METRICS = {
    "matrixio.read_matrix_csv.s": ("s", ("matrixio.read_matrix_csv",)),
    "matrixio.read_matrix_csv.mb_per_s": ("MB/s", ("matrixio.read_matrix_csv",)),
    "matrixio.write_matrix_csv.s": ("s", ("matrixio.write_matrix_csv",)),
    "matrixio.write_matrix_csv.mb_per_s": ("MB/s", ("matrixio.write_matrix_csv",)),
    "linalg.svd.calls": ("count", ("linalg.svd",)),
    "linalg.svd.s": ("s", ("linalg.svd",)),
    "linalg.svd.triplets": ("count", ("linalg.svd",)),
    "linalg.svd.useful_frac": ("fraction", ("linalg.svd", "estimator.usvt_estimate")),
    "estimator.usvt_estimate.calls": ("count", ("estimator.usvt_estimate",)),
    "estimator.usvt_estimate.s": ("s", ("estimator.usvt_estimate",)),
    "estimator.usvt_estimate.self_s": ("s", ("estimator.usvt_estimate",)),
    "estimator.usvt_estimate.peak_mb": ("MB", ("estimator.usvt_estimate",)),
    "estimator.retained_rank": ("count", ("estimator.usvt_estimate",)),
    "estimator.MaskedMatrix.s": ("s", ("estimator.MaskedMatrix",)),
    "estimator.trivial_estimate.s": ("s", ("estimator.trivial_estimate",)),
    "evaluation.mse.s": ("s", ("evaluation.mse",)),
    **{
        f"generators.{fn}.{suffix}": (unit, (f"generators.{fn}",))
        for fn in _GENERATORS for suffix, unit in (("calls", "count"), ("s", "s"))
    },
    "harness.run_experiment.s": ("s", ("harness.run_experiment",)),
    "harness.run_experiment.self_s": ("s", ("harness.run_experiment",)),
    "harness.cells": ("count", ("harness.run_experiment",)),
    "harness.cells_failed": ("count", ("harness.run_experiment",)),
    "harness.cell_s_p50": ("s", ("harness.run_experiment",)),
    **{f"checks.{b}.s": ("s", (f"checks.{b}",)) for b in CHECK_BATTERIES},
    "evaluation.spectral_concentration_trial.s": (
        "s", ("evaluation.spectral_concentration_trial",)),
    "linalg.norm_helpers.calls": ("count", ("linalg.norm_helpers",)),
    "linalg.norm_helpers.s": ("s", ("linalg.norm_helpers",)),
    "cli.main.self_s": ("s", ("cli.main",)),
    "harness.estimate_file.self_s": ("s", ("harness.estimate_file",)),
    "trace.overhead_frac": ("fraction", ()),
}


def layer_metrics(spans, traced_passes, absent):
    """Per-layer figures for one set-up plus one pass.

    Spans recorded during set-up count once; spans recorded in the traced
    passes are averaged over ``traced_passes``. Returns every metric of
    :data:`PER_LAYER_METRICS` except ``trace.overhead_frac`` and those of
    absent layers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent is not None:
            child_time[parent] += end - start

    setup_sums, pass_sums = {}, {}

    def add(key, value, op):
        sums = setup_sums if op == "setup" else pass_sums
        sums[key] = sums.get(key, 0) + value

    files = {"matrixio.read_matrix_csv": [0, 0.0], "matrixio.write_matrix_csv": [0, 0.0]}
    peak_bytes = 0
    cell_times = []
    useful = [0, 0]  # retained rank, triplets: SVDs called by usvt_estimate
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        extra = extra or {}
        duration = end - start
        add(f"{name}.s", duration, op)
        add(f"{name}.self_s", duration - child_time[i], op)
        add(f"{name}.calls", 1, op)
        if name in files:
            files[name][0] += extra.get("bytes", 0)
            files[name][1] += duration
        elif name == "linalg.svd":
            add("linalg.svd.triplets", extra.get("triplets", 0), op)
            caller = spans[parent] if parent is not None else None
            if caller is not None and caller[0] == "estimator.usvt_estimate" and caller[5]:
                useful[0] += caller[5]["retained_rank"]
                useful[1] += extra.get("triplets", 0)
        elif name == "estimator.usvt_estimate":
            add("estimator.retained_rank", extra.get("retained_rank", 0), op)
            peak_bytes = max(peak_bytes, extra.get("peak_bytes", 0))
        elif name == "harness.run_experiment":
            add("harness.cells", extra.get("cells", 0), op)
            add("harness.cells_failed", extra.get("cells_failed", 0), op)
            cell_times.extend(extra.get("cell_wall_times", ()))
    values = {key: setup_sums.get(key, 0) + pass_sums.get(key, 0) / traced_passes
              for key in setup_sums.keys() | pass_sums.keys()}
    for name, (n_bytes, seconds) in files.items():
        values[f"{name}.mb_per_s"] = n_bytes / 1e6 / seconds if seconds else 0.0
    values["linalg.svd.useful_frac"] = useful[0] / useful[1] if useful[1] else 0.0
    values["estimator.usvt_estimate.peak_mb"] = peak_bytes / 1e6
    values["harness.cell_s_p50"] = statistics.median(cell_times) if cell_times else 0.0

    return {
        key: values.get(key, 0.0)
        for key, (unit, layers) in PER_LAYER_METRICS.items()
        if key != "trace.overhead_frac" and not set(layers) & set(absent)
    }
