"""Run every workload over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/suite.py                      # all workloads, seed 1
    python3 perfbench/suite.py --seeds 1-10 --trace 0 --out summary.json

Each run is ``perfbench/run.py`` in its own process, one after another.
For every metric the table gives its unit, the median over seeds and the
spread, the distance between the first and third quartiles as a share of
the median, next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    *_, report, result = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    return json.loads(report), json.loads(result)


def check_spec(bench: dict) -> list[str]:
    """Differences between BENCHMARK.json and the metrics run.py reports."""
    problems = []
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in bench.get(key, [])]
        if listed != list(spec):
            problems.append(f"BENCHMARK.json {key} does not match run.py")
    if [w["name"] for w in bench.get("workloads", [])] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.py")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--out", default=None, help="write the summary as JSON")
    args = ap.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.is_file() else {}
    for msg in check_spec(bench):
        print(f"warning: {msg}", file=sys.stderr)
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 10)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    seeds = parse_seeds(args.seeds)
    units = dict(END_TO_END + PER_LAYER)

    summary: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        entry = summary["workloads"].setdefault(workload, {"stdout_sha256": {}})
        for trace in traces:
            values: dict[str, list[float]] = {}
            for seed in seeds:
                report, result = run_once(workload, seed, seconds, trace)
                summary["env"] = report["env"]
                entry["stdout_sha256"][str(seed)] = report["stdout_sha256"]
                ok &= result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, value in report.get("raw", {}).items():
                    values.setdefault(f"{name} (unscaled)", []).append(value)
                print(f"# {workload} seed {seed} trace {trace}: correct="
                      f"{result['correct']} passes={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {}
            for name, vals in values.items():
                med, sp, bound = statistics.median(vals), spread(vals), bounds.get(name)
                unit = units.get(name, "s")
                entry[key][name] = {"median": med, "spread": sp, "unit": unit,
                                    "values": vals}
                flag = ""
                if bound is not None and sp is not None:
                    flag = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound
                                                         else "OVER BOUND")
                sp_text = "" if sp is None else f"{sp:8.4f}"
                print(f"{workload:9s} {name:38s} {med:14.6g} {unit:6s} "
                      f"spread {sp_text:8s} bound {bound if bound is not None else '-'} "
                      f"{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
