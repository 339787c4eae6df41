"""Benchmark workloads: CLI argument lists and config files made from a seed.

Each workload is one *pass*: a fixed list of ``ringsim.cli.main(argv)``
calls. The seed draws the inputs from ranges on which the work per pass
is the same to within a few percent, so runs with different seeds are
comparable, and on which every call succeeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SQRT2 = math.sqrt(2.0)
# Optimal effective transmissions of the outer and middle rings, restated
# here from the paper so the benchmark does not take them from the code.
T1 = math.sqrt(2.0 * (SQRT2 - 1.0))
T2 = (1.0 + 2.0 * SQRT2) / 7.0

SURFACE_GRID = 101
CURVE_GRID = 1001
INTERSECT_GRID = 1001
# Line-phase bands of the intersect workload. Newton converges on most
# points in the small band (pi/30 lies in it) and on about half in the
# large one; the iteration count varies by under 3% within each band.
INTERSECT_BANDS = ((0.100, 0.110), (1.950, 2.050))
CNOT_PAIRS = 64
CNOT_TAU_MAX = 0.9

WORKLOADS = ("surface", "curve", "intersect", "cnot")


@dataclass
class Plan:
    """Inputs of one workload at one seed."""

    name: str
    calls: list[list[str]]
    # The minimal call a fresh interpreter makes to measure set-up time.
    setup_argv: list[str]
    params: dict = field(default_factory=dict)
    # Config files to write before the run: file name -> JSON object.
    files: dict[str, dict] = field(default_factory=dict)


def _eta_on_curve(t: float, tau: float) -> float:
    """Upper coupler that gives a resonant ring the effective transmission t."""
    return (t + tau) / (1.0 + t * tau)


def _curve_ring(t: float, tau: float) -> dict:
    return {"tau": tau, "eta": _eta_on_curve(t, tau), "theta": 2.0 * math.pi}


def _surface(rng: random.Random) -> Plan:
    # Slots 1 and 3 share the outer-ring target, so both give the same grid
    # of candidate branches and the same rows.
    ring = rng.choice((1, 3))
    argv = ["manifold", "surface", "--ring", str(ring), "--grid", str(SURFACE_GRID)]
    return Plan("surface", [argv],
                ["manifold", "surface", "--ring", str(ring), "--grid", "2"],
                params={"ring": ring, "grid": SURFACE_GRID})


def _curve(rng: random.Random) -> Plan:
    tau_min = round(rng.uniform(0.0, 0.02), 6)
    tau_max = round(rng.uniform(0.98, 0.999), 6)
    argv = ["manifold", "curve", "--ring", "0", "--grid", str(CURVE_GRID),
            "--tau-min", repr(tau_min), "--tau-max", repr(tau_max)]
    return Plan("curve", [argv],
                ["manifold", "curve", "--ring", "1", "--grid", "2"],
                params={"grid": CURVE_GRID, "tau_min": tau_min, "tau_max": tau_max})


def _intersect(rng: random.Random) -> Plan:
    deltas = [round(rng.uniform(lo, hi), 9) for lo, hi in INTERSECT_BANDS]
    calls = [["manifold", "intersect", "--grid", str(INTERSECT_GRID),
              "--delta2", repr(d)] for d in deltas]
    return Plan("intersect", calls,
                ["manifold", "intersect", "--grid", "2", "--delta2", repr(deltas[0])],
                params={"grid": INTERSECT_GRID, "delta2": deltas})


def _gate(rng: random.Random) -> dict:
    taus = [rng.uniform(0.0, CNOT_TAU_MAX) for _ in range(3)]
    return {"rings": [_curve_ring(T1, taus[0]), _curve_ring(T2, taus[1]),
                      _curve_ring(T1, taus[2])]}


def _cnot(rng: random.Random) -> Plan:
    files = {f"cnot_{i:03d}.json": {"gate_a": _gate(rng), "gate_b": _gate(rng)}
             for i in range(CNOT_PAIRS)}
    calls = [["cnot", "--config", name] for name in files]
    return Plan("cnot", calls, list(calls[0]),
                params={"pairs": CNOT_PAIRS}, files=files)


_MAKERS = {"surface": _surface, "curve": _curve, "intersect": _intersect,
           "cnot": _cnot}


def make_plan(name: str, seed: int) -> Plan:
    """Inputs of a workload; the same seed gives the same inputs."""
    return _MAKERS[name](random.Random(f"{name}:{seed}"))


def materialize(plan: Plan, workdir: Path) -> Plan:
    """Write the plan's config files into workdir and point argv at them."""
    paths = {}
    for name, obj in plan.files.items():
        path = workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path)

    def resolve(argv):
        return [paths.get(a, a) for a in argv]

    return Plan(plan.name, [resolve(a) for a in plan.calls],
                resolve(plan.setup_argv), plan.params)
