"""Output checks of one pass, independent of the code they check.

Each check parses the CLI's CSV output and tests a physical property with
the benchmark's own arithmetic; none reads a residual the program reports
about itself. A check returns a list of problems, empty when the pass is
correct.
"""

from __future__ import annotations

import cmath
import math
import re

from workloads import T2

TOL = 1e-9
# The CSV prints 9 significant digits, so a value read back carries a
# relative rounding error of up to half a unit in the last digit.
PRINT_REL = 5e-9

_BELL = re.compile(r"^bell_overlap = (\S+)$", re.MULTILINE)


def _rows(out: str, header: str, problems: list[str]) -> list[list[float]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"header {lines[:1]!r} is not {header!r}")
        return []
    rows = []
    for line in lines[1:]:
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            problems.append(f"unparsable row {line!r}")
            continue
        if len(row) != header.count(",") + 1 or not all(map(math.isfinite, row)):
            problems.append(f"malformed row {line!r}")
            continue
        rows.append(row)
    if not rows:
        problems.append("no rows")
    return rows


def _beta_sq_rows(rows, problems: list[str]) -> None:
    for row in rows:
        if abs(row[-1] - 0.25) > TOL:
            problems.append(f"beta_sq {row[-1]!r} is not 1/4")
            return


def check_surface(plan, results) -> list[str]:
    problems: list[str] = []
    rows = _rows(results[0][1], "ring,tau,eta,theta,beta_sq", problems)
    _beta_sq_rows(rows, problems)
    if any(int(r[0]) != plan.params["ring"] for r in rows):
        problems.append("row of another ring slot")
    return problems


def check_curve(plan, results) -> list[str]:
    problems: list[str] = []
    rows = _rows(results[0][1], "ring,tau,eta,tau_sq,eta_sq,beta_sq", problems)
    _beta_sq_rows(rows, problems)
    # Every lower coupler in [0, 1) has an upper coupler on the resonant
    # curve, so no grid point may be skipped.
    for ring in (1, 2, 3):
        n = sum(1 for r in rows if int(r[0]) == ring)
        if n != plan.params["grid"]:
            problems.append(f"ring {ring}: {n} rows, expected {plan.params['grid']}")
    return problems


def _wrap(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def check_intersect(plan, results) -> list[str]:
    """Rebuild the middle ring of each row and test its through amplitude.

    A = (eta - tau z) / (1 - eta tau z), z = e^{-i theta}, must have
    magnitude T2 and argument delta2. The tolerance is 1e-9 plus the
    first-order effect of the CSV's rounding of tau, eta and theta.
    """
    problems: list[str] = []
    step = 0.999 / (plan.params["grid"] - 1)
    for (_, out, _), delta2 in zip(results, plan.params["delta2"]):
        rows = _rows(out, "tau2,eta2,theta2,residual_mag,residual_arg", problems)
        for tau, eta, theta, _, _ in rows:
            z = cmath.exp(-1j * theta)
            den = 1.0 - eta * tau * z
            a = (eta - tau * z) / den
            slack = PRINT_REL * (abs((1.0 - tau * tau * z * z) / den ** 2) * abs(eta)
                                 + abs((eta * eta - 1.0) * z / den ** 2) * abs(tau)
                                 + abs(tau * z * (1.0 - eta * eta) / den ** 2) * abs(theta))
            if abs(abs(a) - T2) > TOL + slack:
                problems.append(f"delta2={delta2}: |A| = {abs(a)!r} at tau2={tau}")
                break
            if abs(a) * abs(_wrap(cmath.phase(a) - delta2)) > TOL + slack:
                problems.append(f"delta2={delta2}: arg A = {cmath.phase(a)!r} "
                                f"at tau2={tau}")
                break
            if abs(tau - step * round(tau / step)) > PRINT_REL * tau:
                problems.append(f"tau2={tau} is not a grid point")
                break
    return problems


def check_cnot(plan, results) -> list[str]:
    problems: list[str] = []
    header = "control_in,target_in,control_out,target_out,probability,fidelity,leakage"
    for i, (_, out, err) in enumerate(results):
        rows = _rows(out, header, problems)
        inputs = [(int(r[0]), int(r[1])) for r in rows]
        if inputs != [(0, 0), (0, 1), (1, 0), (1, 1)]:
            problems.append(f"pair {i}: inputs {inputs}")
        for r in rows:
            c, t = int(r[0]), int(r[1])
            if (int(r[2]), int(r[3])) != (c, c ^ t):
                problems.append(f"pair {i}: {c}{t} -> {int(r[2])}{int(r[3])} is not CNOT")
            if abs(r[4] - 1.0 / 16.0) > TOL or abs(r[5] - 1.0) > TOL:
                problems.append(f"pair {i}: probability {r[4]!r}, fidelity {r[5]!r}")
        bell = _BELL.search(err)
        if bell is None or abs(float(bell.group(1)) - 1.0) > TOL:
            problems.append(f"pair {i}: Bell overlap {bell and bell.group(1)!r}")
    return problems


CHECKS = {"surface": check_surface, "curve": check_curve,
          "intersect": check_intersect, "cnot": check_cnot}


def check_pass(plan, results) -> list[str]:
    """Problems of one pass; results are (exit code, stdout, stderr) per call."""
    problems = [f"call {i} exited {rc}" for i, (rc, _, _) in enumerate(results) if rc != 0]
    return problems + CHECKS[plan.name](plan, results)
