"""Run one radiuslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 14 --trace 0

Run from the repository root: radiuslab is imported from ./src.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run's first round is timed untraced as a
reference, the rest are traced, and the metrics are the per-layer ones
plus the tracing overhead.  Spans are written to
perfbench/out/trace-<workload>-<seed>.jsonl.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS unless the caller says otherwise; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
LAYERS = ("cli", "matfile", "inequalities", "ensembles", "radius", "norms", "matcore")


def import_program():
    """Import radiuslab's modules from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "radiuslab", "__init__.py")):
        raise ImportError(f"no radiuslab package under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"radiuslab.{name}") for name in LAYERS}
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(SRC, "radiuslab"):
        raise ImportError(f"radiuslab imported from {origin}, not {SRC}")
    return types.SimpleNamespace(**mods)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "ratio" if name.endswith("ratio") else "count"


def _rounds(workload, first, deadline):
    """Whole rounds from `first` on until `deadline`; at least one."""
    calls, k = [], first
    while True:
        calls.extend(workload.round(k))
        k += 1
        if time.perf_counter() >= deadline:
            return calls, k - first


def main(argv=None) -> int:
    t0 = time.perf_counter()
    from workloads import WORKLOADS  # loads numpy, which set-up time covers

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rl = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import radiuslab: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](rl, workdir, args.seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t)

        start = time.perf_counter()
        deadline = start + args.seconds
        if args.trace:
            metrics, calls = _traced(rl, workload, deadline, args)
        else:
            calls, _ = _rounds(workload, 0, deadline)
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "ops_per_s": (sum(c.attempted for c in calls)
                              / sum(c.latency_s for c in calls), "op/s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not any(c.wrong for c in calls),
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.failed for c in calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced(rl, workload, deadline, args):
    """An untraced reference round, then traced rounds to the deadline."""
    from tracing import Tracer

    reference, _ = _rounds(workload, 0, 0.0)
    checks = {d.runner: d.name for d in rl.inequalities.default_checks()}
    tracer = Tracer()
    tracer.install(checks)
    tracer.active = True
    try:
        calls, rounds = _rounds(workload, 1, deadline)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))

    per_round_ref = sum(c.latency_s for c in reference)
    per_round = sum(c.latency_s for c in calls) / rounds
    metrics = {k: (v, layer_unit(k))
               for k, v in tracer.layer_metrics(list(checks.values())).items()}
    metrics["trace.overhead_pct"] = (100.0 * (per_round / per_round_ref - 1.0), "%")
    return metrics, reference + calls


if __name__ == "__main__":
    sys.exit(main())
