"""One workload in a fresh interpreter: warm up, then time passes.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the calls of one pass, the time budget, and whether to
trace. A warm-up call of the workload's minimal form fills the package's
caches and finishes lazy imports; then passes run until the budget is
spent, while speed.Sampler times the CPU they run on. With tracing, the
first half of the budget times untraced passes and the second half traced
ones, so the two can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import checks
import speed
import tracer as tracing
from workloads import Plan


def call(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ringsim.cli.main(argv), capturing its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the pass; the run goes on
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_passes(main, plan: Plan, budget: float, min_passes: int,
               sampler: speed.Sampler, tracer=None):
    """Time passes until the next one would overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = [call(main, argv) for argv in plan.calls]
        wall1, cpu1 = time.perf_counter(), time.process_time()
        wall, cpu = wall1 - wall0, cpu1 - cpu0
        stdout = "".join(out for _, out, _ in results)
        record = {
            "wall_s": wall,
            "cpu_s": cpu,
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
            "rows": sum(max(out.count("\n") - 1, 0) for _, out, _ in results),
            "problems": checks.check_pass(plan, results),
            "kernel_s": sampler.kernel_s(wall0, wall1),
        }
        if tracer is not None:
            record["calls"] = dict(tracer.calls)
            record["self_s"] = dict(tracer.self_s)
            record["layer_self_s"] = tracer.layer_self_s()
            record["threads"] = len(tracer.threads)
            tracer.reset()
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > budget:
            return passes


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    plan = Plan(**job["plan"])
    import numpy
    from ringsim import cli

    warm = call(cli.main, plan.setup_argv)
    result = {"numpy": numpy.__version__, "warm_rc": warm[0]}
    with speed.Sampler() as sampler:
        if not job["trace"]:
            result["passes"] = run_passes(cli.main, plan, job["seconds"],
                                          job["min_passes"], sampler)
            result["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            half = job["seconds"] / 2.0
            result["untraced"] = run_passes(cli.main, plan, half, 1, sampler)
            tr = tracing.Tracer()
            originals = tracing.install(tr)
            layers = {name.split(".", 1)[0] for name in originals}
            result["coverage"] = {
                "wrapped": len(originals),
                "unwrapped_bindings": tracing.unwrapped_bindings(originals),
                "layers_missing": sorted(set(tracing.LAYERS) - layers),
            }
            result["traced"] = run_passes(cli.main, plan, half, 1, sampler, tracer=tr)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
