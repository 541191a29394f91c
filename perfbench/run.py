#!/usr/bin/env python3
"""qfibounds benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` there.
The workload runs as a closed loop of operations for ``--seconds`` seconds in
this single process.  Every operation's output is checked outside the timed
section.  With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` every input runs twice, untraced and with every public
library function wrapped in a span, in alternating order, and the last line
carries the per-layer metrics, per operation, plus the tracing overhead.
The workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads: at most the core count and at most 2, fixed before numpy loads.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

MIN_OPS = 3  # the timed loop completes at least this many operations
SETUP_PROBES = 9  # fresh interpreters timed for setup_s


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds per operation
    fingerprints: list = field(default_factory=list)  # None where it failed
    problems: list = field(default_factory=list)
    wall: float = 0.0  # summed operation time, without the checks

    @property
    def n(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.fingerprints.count(None)


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import qfibounds

    if Path(qfibounds.__file__).resolve().parent != ROOT / "src" / "qfibounds":
        raise SystemExit(f"qfibounds imported from {qfibounds.__file__}, not from src/")


def host_block() -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_requested": int(BLAS_THREADS),
    }


def setup(workload_name: str, seed: int, out_dir: Path):
    """Import the library, draw the seeded inputs and run the warm-up."""
    _import_library()
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(np.random.default_rng(seed))
    workload.run(workload.warmup, out_dir)
    return workload, inputs


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its first operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def run_op(workload, inp, out_dir, loop: Loop, tracer=None) -> None:
    """One operation, timed, then its check off the clock; adds to ``loop``."""
    out, problems = None, []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out = workload.run(inp, out_dir)
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
    loop.latencies.append(latency)
    loop.wall += latency
    fingerprint = None
    if out is not None:
        try:
            problems = workload.check(inp, out)
            fingerprint = workload.fingerprint(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    del out
    loop.fingerprints.append(None if problems else fingerprint)
    loop.problems.extend(f"op {loop.n - 1}: {p}" for p in problems)


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_untraced(args, workload, inputs, out_dir) -> None:
    """Closed loop until ``seconds`` of operation time and at least MIN_OPS
    operations.  The setup probes run one before the loop and one after each
    operation, off the clock, so that their median spans the whole run."""
    setup_times = [probe_setup(args)]
    loop = Loop()
    while loop.n < MIN_OPS or loop.wall < args.seconds:
        run_op(workload, inputs[loop.n % len(inputs)], out_dir, loop)
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(args))
    for p in loop.problems:
        print(p, file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (loop.wall / loop.n, "s"),
        "op_p50_s": (statistics.median(loop.latencies), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": ((loop.n - loop.failed) / loop.n, "ratio"),
    }
    print(_result(loop.failed == 0, loop.n, loop.failed, metrics))


def run_traced(args, workload, inputs, out_dir) -> None:
    """Each input untraced and traced, alternating which runs first, until
    ``seconds`` of operation time and at least two pairs.  One discarded
    operation first takes the slower first touch of full-size memory."""
    from tracing import Tracer

    warm = Loop()
    run_op(workload, inputs[-1], out_dir, warm)
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    while plain.n < 2 or plain.wall + traced.wall < args.seconds:
        inp = inputs[plain.n % len(inputs)]
        pair = [(plain, None), (traced, tracer)]
        for loop, t in pair if plain.n % 2 == 0 else pair[::-1]:
            run_op(workload, inp, out_dir, loop, t)
    differ = sum(a is not None and b is not None and a != b
                 for a, b in zip(plain.fingerprints, traced.fingerprints))
    problems = warm.problems + plain.problems + traced.problems
    if differ:
        problems.append(f"{differ} traced outputs differ from the untraced ones")
    for p in problems:
        print(p, file=sys.stderr)
    n = plain.n
    metrics = {}
    for name, value in tracer.per_layer(n).items():
        unit = "s/op" if name.endswith("_s") else "B/op" if name.endswith("_bytes") else "1/op"
        metrics[name] = (value, unit)
    overhead = statistics.median(b - a for a, b in zip(plain.latencies, traced.latencies))
    metrics["trace.overhead_s"] = (overhead, "s/op")
    metrics["trace.spans"] = (len(tracer.spans) / n, "1/op")
    failed = warm.failed + plain.failed + traced.failed + differ
    print(_result(failed == 0, 1 + 2 * n, failed, metrics))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in config["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    out_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, inputs = setup(args.workload, args.seed, out_dir)
        if args.setup_probe:
            print("ready", flush=True)
            return
        print(json.dumps({"host": host_block()}), flush=True)
        (run_traced if args.trace else run_untraced)(args, workload, inputs, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a parent run
            out_dir.parent.rmdir()


if __name__ == "__main__":
    main()
