"""ringsim benchmark driver: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the run measures set-up time (fresh interpreters making
the workload's minimal call) and then times warm passes in a worker
interpreter, and reports the end-to-end metrics. With ``--trace 1`` the
worker also wraps the package's public functions in spans and reports the
per-layer metrics. RINGSIM_THREADS is cleared, so the default a user gets
is what is measured. The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path

import selftest
import speed
from tracer import LAYERS
from workloads import WORKLOADS, make_plan, materialize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# name, unit
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("fock.evolve.calls", "count"),
    ("fock.evolve.self_s", "s"),
    ("fock.project.calls", "count"),
    ("fock.project.self_s", "s"),
    ("fock.self_s", "s"),
    ("network.compose_scattering.calls", "count"),
    ("network.compose_scattering.self_s", "s"),
    ("network.mode_swap3.calls", "count"),
    ("network.mode_swap3.self_s", "s"),
    ("network.self_s", "s"),
    ("analysis.verdict.calls", "count"),
    ("analysis.verdict.self_s", "s"),
    ("analysis.surface_theta.self_s", "s"),
    ("analysis.compensated_network.self_s", "s"),
    ("analysis.curve_eta_of_tau.self_s", "s"),
    ("analysis.intersect_delta2.self_s", "s"),
    ("analysis.intersect.converged_ratio", "ratio"),
    ("analysis.self_s", "s"),
    ("ring.build_coupler.calls", "count"),
    ("ring.transfer_matrix.calls", "count"),
    ("ring.self_s", "s"),
    ("cnot.build_cnot.self_s", "s"),
    ("cnot.verify_truth_table.self_s", "s"),
    ("cnot.verify_coherence.self_s", "s"),
    ("cnot.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.threads", "count"),
    ("cli.rows_out", "count"),
    ("cli.surface.branch_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

SETUP_REPEATS = 7
SPEED_SAMPLES = 15
MIN_PASSES = 3
TIME_LIMIT_S = 170.0
SETUP_CODE = "import sys; from ringsim.cli import main; sys.exit(main(sys.argv[1:]))"


def environment() -> dict:
    """Machine and interpreter the run measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "ringsim_threads_env": "unset for the run"
                               + ("" if "RINGSIM_THREADS" not in os.environ
                                  else f" (caller had {os.environ['RINGSIM_THREADS']!r})"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RINGSIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(argv: list[str], env: dict, deadline: float):
    """Fresh interpreters importing ringsim.cli and making one call.

    Returns their wall times, the kernel time sampled around each (see
    speed.py), and their exit codes. The driver and the children are held
    on one CPU meanwhile, so the samples time the CPU the child runs on.
    The wait blocks without a timeout, because Popen.wait(timeout) polls in
    steps of up to 50 ms; a timer kills a child that overruns the deadline.
    """
    times, kernels, codes = [], [], []
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for _ in range(SETUP_REPEATS):
            before = [speed.timed_kernel() for _ in range(SPEED_SAMPLES)]
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *argv], cwd=ROOT,
                                    env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
            killer.start()
            try:
                codes.append(proc.wait())
            finally:
                killer.cancel()
            times.append(time.perf_counter() - start)
            after = [speed.timed_kernel() for _ in range(SPEED_SAMPLES)]
            kernels.append(statistics.median(before + after))
    finally:
        os.sched_setaffinity(0, affinity)
    return times, kernels, codes


def run_worker(job: dict, workdir: Path, env: dict, deadline: float) -> dict:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                           str(result_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median(values) -> float:
    return statistics.median(list(values))


def _scaled(record: dict, key: str) -> float:
    """A pass's time in reference-CPU seconds."""
    return record[key] * speed.scale(record["kernel_s"])


def layer_metrics(plan, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-pass per-layer metrics, averaged over the traced passes; times
    are in reference-CPU seconds."""
    n = len(traced)

    def mean(key: str, name: str) -> float:
        factor = (lambda p: 1.0) if key == "calls" else (lambda p: speed.scale(p["kernel_s"]))
        return sum(p[key].get(name, 0) * factor(p) for p in traced) / n

    rows = traced[0]["rows"]
    grid = plan.params.get("grid", 0)
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = mean("calls", name[:-len(".calls")])
        elif name.endswith(".self_s") and name.split(".")[0] in LAYERS \
                and name.count(".") == 1:
            out[name] = mean("layer_self_s", name.split(".")[0])
        elif name.endswith(".self_s"):
            out[name] = mean("self_s", name[:-len(".self_s")])
    out["analysis.intersect.converged_ratio"] = (
        rows / (grid * len(plan.calls)) if plan.name == "intersect" else 0.0)
    out["cli.threads"] = max(p["threads"] for p in traced)
    out["cli.rows_out"] = rows
    out["cli.surface.branch_ratio"] = (
        rows / (2 * grid * grid) if plan.name == "surface" else 0.0)
    out["trace.overhead_s"] = (_median(_scaled(p, "wall_s") for p in traced)
                               - _median(_scaled(p, "wall_s") for p in untraced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "ringsim" / "cli.py").is_file():
        print(f"no ringsim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = child_env()
    plan = make_plan(args.workload, args.seed)
    problems: list[str] = []
    report: dict = {"workload": plan.name, "seed": args.seed, "trace": args.trace,
                    "env": environment()}
    (HERE / ".work").mkdir(exist_ok=True)
    report["params"] = plan.params
    report["argv"] = plan.calls[0]
    report["calls_per_pass"] = len(plan.calls)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        plan = materialize(plan, Path(tmp))
        job = {"plan": asdict(plan), "seconds": args.seconds, "trace": args.trace,
               "min_passes": MIN_PASSES}
        if not args.trace:
            setup_times, setup_kernels, setup_codes = measure_setup(
                plan.setup_argv, env, deadline)
            problems += [f"set-up call exited {c}" for c in setup_codes if c != 0]
        result = run_worker(job, Path(tmp), env, deadline)
    try:
        (HERE / ".work").rmdir()
    except OSError:  # another run still uses it
        pass

    report["env"]["numpy"] = result["numpy"]
    if result["warm_rc"] != 0:
        problems.append(f"warm-up call exited {result['warm_rc']}")
    passes = result["passes"] if not args.trace else result["untraced"] + result["traced"]
    digests = sorted({p["digest"] for p in passes})
    first = passes[0]["digest"]
    failed = 0
    for i, p in enumerate(passes):
        if p["digest"] != first:
            p["problems"].append("stdout differs from the first pass")
        if p["problems"]:
            failed += 1
            problems += [f"pass {i}: {msg}" for msg in p["problems"][:5]]
    report["stdout_sha256"] = first
    report["passes"] = len(passes)
    report["failed_frac"] = failed / len(passes)

    if not args.trace:
        metrics = {
            "wall_s": _median(_scaled(p, "wall_s") for p in passes),
            "cpu_s": _median(_scaled(p, "cpu_s") for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": _median(t * speed.scale(k)
                               for t, k in zip(setup_times, setup_kernels)),
        }
        report["raw"] = {"wall_s": _median(p["wall_s"] for p in passes),
                         "cpu_s": _median(p["cpu_s"] for p in passes),
                         "setup_s": _median(setup_times)}
        report["pass_wall_s"] = [round(p["wall_s"], 4) for p in passes]
        report["pass_kernel_us"] = [round(p["kernel_s"] * 1e6, 1) for p in passes]
        report["setup_runs_s"] = [round(t, 4) for t in setup_times]
        units = dict(END_TO_END)
    else:
        cov = result["coverage"]
        problems += [f"unwrapped binding {b}" for b in cov["unwrapped_bindings"]]
        problems += [f"no traced function in layer {m}" for m in cov["layers_missing"]]
        if len(digests) > 1:
            problems.append("traced stdout differs from untraced stdout")
        problems += [f"tracer self-test: {msg}" for msg in selftest.run()]
        report["coverage"] = cov
        metrics = layer_metrics(plan, result["traced"], result["untraced"])
        units = dict(PER_LAYER)

    for name, value in metrics.items():
        print(f"{plan.name:9s} {name:38s} {value:14.6g} {units[name]}")
    for name, value in report.get("raw", {}).items():
        print(f"{plan.name:9s} {name + ' (unscaled)':38s} {value:14.6g} s")
    print(f"{plan.name:9s} {'failed_frac':38s} {report['failed_frac']:14.6g} "
          f"({failed} of {len(passes)} passes)")
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
