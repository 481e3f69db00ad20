#!/usr/bin/env python3
"""Benchmark of the ``usvt`` package, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: estimate-file, estimate-large, sweep, check-all (see
bench/README.md). The run is one process and a closed loop: one caller,
each op starts after the previous one returned. Inputs are built from
``--seed``. After an untimed warm-up pass, passes of ops run until their
timed total reaches ``--seconds``; every op is gated for correctness
outside the timed interval.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced, reports the per-layer metrics and writes
the spans to ``.bench_work/traces/``. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-up runs per measurement: this process plus the children.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "mse": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    # Internal: run set-up (and the oracle) in a child process.
    parser.add_argument("--child", choices=("setup", "oracle"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_record(seed):
    """Where the numbers were measured."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def run_child(args, mode, work):
    """Set up again in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", mode, "--work", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs passes of a workload's ops and gates each op."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.mses = []

    def op(self, kind, label):
        """One timed op plus its untimed gate; returns the op's seconds."""
        if self.tracer is not None:
            self.tracer.op = label
            self.tracer.install()
        start = time.perf_counter()
        try:
            result, error = self.workload.run(kind), None
        except Exception:  # an op that raises counts as failed; keep running
            result, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.uninstall()
        if error is None:
            self.check(label, lambda: self.workload.gate(kind, result))
        else:
            self.check(label, lambda: (False, None, error))
        return seconds

    def check(self, label, gate):
        """Count one attempted op; ``gate()`` gives ``(ok, mse, detail)``."""
        self.attempted += 1
        try:
            ok, mse, detail = gate()
        except Exception:  # a gate that cannot read the output fails the op
            ok, mse, detail = False, None, traceback.format_exc()
        if mse is not None:
            self.mses.append(mse)
        if not ok:
            self.failures.append(f"{label}: {detail}")
            print(f"gate failed: {label}: {detail}", file=sys.stderr)

    def passes(self, seconds, label, between=None):
        """Whole passes until their timed total reaches ``seconds``;
        ``between()`` runs untimed after each pass."""
        pass_times, op_times = [], []
        while not pass_times or sum(pass_times) < seconds:
            index = len(pass_times)
            times = [self.op(kind, f"{label}{index}.{kind}") for kind in self.workload.kinds]
            op_times.extend(times)
            pass_times.append(sum(times))
            if between is not None:
                between()
        return pass_times, op_times


def run_benchmark(args, started):
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        workload.build()
        if tracer is not None:
            tracer.uninstall()
        setup_samples = [time.perf_counter() - started]

        def child(mode):
            child_work = work / f"child{len(setup_samples)}"
            child_work.mkdir()
            setup_samples.append(run_child(args, mode, child_work))
            return child_work

        def more_setup_samples():
            # Spread over the run, so one slow spell of the host does not
            # set every sample.
            if len(setup_samples) < SETUP_SAMPLES:
                child("setup")

        if workload.needs_oracle:
            with np.load(child("oracle") / "oracle.npz") as arrays:
                workload.load_oracle(dict(arrays))

        runner = Runner(workload)
        runner.passes(0.0, "warmup")
        info = {"workload": args.workload, "machine": machine_record(args.seed),
                "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            plain_passes, _ = runner.passes(args.seconds / 2, "untraced")
            runner.tracer = tracer
            traced_passes, _ = runner.passes(args.seconds / 2, "pass")
            runner.tracer = None
            metrics = tracing.layer_metrics(tracer.spans, len(traced_passes), tracer.absent)
            metrics["trace.overhead_frac"] = (
                statistics.fmean(traced_passes) / statistics.fmean(plain_passes) - 1.0)
            units = {k: unit for k, (unit, _) in tracing.PER_LAYER_METRICS.items()}
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, info)
            info.update(absent=tracer.absent, trace_file=str(trace_path.relative_to(ROOT)),
                        untraced_pass_s=plain_passes, traced_pass_s=traced_passes)
        else:
            pass_times, op_times = runner.passes(args.seconds, "pass", more_setup_samples)
            while len(setup_samples) < SETUP_SAMPLES:
                more_setup_samples()
            # Read before the quality probe, whose n = 1000 estimate and
            # oracle are the benchmark's own and must not set the peak.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if workload.has_quality_probe:
                runner.check("quality-probe", workload.quality_probe)
            # Means over the run, not medians: the host's speed switches
            # between two modes for seconds at a time, and the median of
            # ten or so samples flips between them.
            run_s = statistics.fmean(pass_times)
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "run_s": run_s,
                # The same measurement as run_s, as a throughput.
                "ops_per_s": len(workload.kinds) / run_s,
                "peak_rss_mb": peak_kb / 1024.0,
                "passed_frac": 1.0 - len(runner.failures) / runner.attempted,
                "mse": statistics.fmean(runner.mses) if runner.mses else 0.0,
            }
            units = END_TO_END_UNITS
            info.update(setup_samples_s=setup_samples, pass_s=pass_times, op_s=op_times,
                        ops=len(op_times), op_p50_s=statistics.median(op_times))
        info.update(attempted=runner.attempted, failures=runner.failures)
        print(json.dumps(info))
        result = {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_child_mode(args, started):
    """Set up in this process; with ``--child oracle`` also save the oracle."""
    import numpy as np

    from workloads import WORKLOADS

    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
    workload.build()
    setup_s = time.perf_counter() - started
    if args.child == "oracle":
        np.savez(work / "oracle.npz", **workload.oracle())
    print(json.dumps({"setup_s": setup_s}))


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "usvt" / "__init__.py").is_file():
        print(f"error: no usvt package under {SRC}", file=sys.stderr)
        return 2
    # At most one BLAS thread per core; must be set before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        run_child_mode(args, started)
    else:
        run_benchmark(args, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
