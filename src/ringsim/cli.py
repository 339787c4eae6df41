"""Command-line surface: scattering matrices, gate verification, manifold
sweeps, the optimal constants, and the CNOT truth table, as CSV or JSON.
``main`` alone reads the config and writes what each ``cmd_*`` returns."""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import _csv
from .analysis import (T1_OPTIMAL, T2_OPTIMAL, curve_network, curve_stack,
                       intersect_stack, optimize_t1, surface_stack,
                       t2_from_equality, verdict, wrap_angle)
from .cnot import build_cnot, verify_coherence, verify_truth_table
from .errors import ConstraintError, DomainError, PoleError
from .fock import (SUCCESS_PATTERN, NlpsgInput, _heralded_success, evolve,
                   nlpsg_closed_form, project)
from .network import (NetworkParams, NetworkStack, _entries, _require_unitary,
                      closed_form_resonant, compose_scattering, compose_scattering_stack,
                      unitarity_residual)
from .ring import TWO_PI, build_coupler, effective_coupling

# Signal superposition the manifold sweeps evaluate, and verify's default:
# equal weights on zero, one and two photons. Its norm is exactly 1.0.
_EQUAL_SIGNAL = NlpsgInput(*[1.0 / math.sqrt(3.0)] * 3)

# Grid points per stacked batch of a sweep; batching keeps memory flat for
# any grid size. Each batch carries fixed numpy and Python work: about
# 0.28 ms in a curve batch and 0.38 ms in a surface batch, which also
# solves theta (a sweep cut into batches of 2 or 4 points, less the same
# sweep as one batch, over the extra batches). Each grid point costs
# about 0.5 us, so the default 101 x 101 surface grid runs as one batch.
# Its whole sweep then peaks at 2.98 MB of traced allocations, against
# 1.86 MB as three batches of 4096 (in process, best of 7 and
# tracemalloc, numpy 2.4 on a 2-core AVX-512 x86-64).
_BATCH_POINTS = 16384


def _fmt(x: float) -> str:
    return _csv.NUM % x


def _round9(x: float) -> float:
    return float(_fmt(x))


def _complex_pair(z: complex) -> list[float]:
    return [_round9(z.real), _round9(z.imag)]


def _fmt_complex(z: complex) -> str:
    """z as "re imj" in NUM format. Adding 0.0 turns a -0.0 part into +0.0,
    so a zero prints the same whatever the sign its arithmetic left."""
    return f"{_fmt(z.real + 0.0)} {_fmt(z.imag + 0.0)}j"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise DomainError(f"cannot read config {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # Not UTF-8, not JSON, an integer too long to convert, or nested
        # deeper than the decoder's recursion limit.
        raise DomainError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise DomainError("config root must be a JSON object")
    return cfg


def _number(value) -> float:
    """float(value) of a JSON number; a JSON string or boolean raises TypeError."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _float_field(obj: dict, name: str, where: str, default=None) -> float:
    if name not in obj:
        if default is not None:
            return default
        raise DomainError(f"missing field {where}.{name}")
    try:
        value = _number(obj[name])
    except (TypeError, ValueError, OverflowError) as err:
        raise DomainError(f"field {where}.{name} must be a number, "
                          f"got {obj[name]!r}") from err
    if not math.isfinite(value):
        raise DomainError(f"field {where}.{name} must be finite, got {obj[name]!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of the float options: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(args, cfg: dict) -> float:
    """The constraint tolerance: --tolerance, else the config's tolerance
    field, else 1e-9. The field is checked even where --tolerance wins over
    it. A tolerance <= 0 passes no gate, so it is bad input."""
    given = [(_float_field(cfg, "tolerance", "config", default=1e-9), "field config.tolerance")]
    if args.tolerance is not None:
        given.append((args.tolerance, "--tolerance"))
    for tol, name in given:
        if not tol > 0.0:
            raise DomainError(f"{name} must be positive, got {tol!r}")
    return tol


def _network_from_config(cfg: dict, where: str = "rings") -> NetworkParams:
    rings_cfg = cfg.get("rings")
    if not isinstance(rings_cfg, list) or len(rings_cfg) != 3:
        raise DomainError(f"{where} must be a list of exactly 3 ring objects")
    rings = []
    deltas = []
    for i, ring_cfg in enumerate(rings_cfg):
        if not isinstance(ring_cfg, dict):
            raise DomainError(f"{where}[{i}] must be an object")
        label = f"{where}[{i}]"
        tau = _float_field(ring_cfg, "tau", label)
        eta = _float_field(ring_cfg, "eta", label)
        theta = _float_field(ring_cfg, "theta", label)
        deltas.append(_float_field(ring_cfg, "delta", label, default=0.0))
        if ring_cfg.get("phi") is None:
            # Default phi = theta/2 of theta reduced into (0, 2 pi], so every
            # representative of one angle gets the same phase partition and
            # theta = 0 gets phi = pi, as RESONANT_THETA = 2 pi does.
            phi = 0.5 * (theta % TWO_PI or TWO_PI)
        else:
            phi = _float_field(ring_cfg, "phi", label)
        try:
            rings.append(build_coupler(tau, eta, theta, phi))
        except DomainError as err:
            # PoleError propagates: it is a numerical condition (exit 3),
            # not a malformed config (exit 2).
            raise DomainError(f"{label}: {err}") from err
    return NetworkParams(rings=tuple(rings), deltas=tuple(deltas))


def _parse_alpha(args, cfg: dict) -> tuple[NlpsgInput, bool]:
    """The signal amplitudes, normalized, and whether they had to be."""
    if getattr(args, "alpha", None):
        parts = args.alpha.split(",")
        if len(parts) != 3:
            raise DomainError("--alpha needs 3 comma-separated complex numbers")
        try:
            raw = [complex(p.strip()) for p in parts]
        except ValueError as err:
            raise DomainError(f"cannot parse --alpha: {err}") from err
    elif "alpha" in cfg:
        pairs = cfg["alpha"]
        if not (isinstance(pairs, list) and len(pairs) == 3
                and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise DomainError("config alpha must be 3 [re, im] pairs")
        try:
            raw = [complex(_number(re), _number(im)) for re, im in pairs]
        except (TypeError, ValueError, OverflowError) as err:
            raise DomainError(f"bad alpha entry: {err}") from err
    else:
        return _EQUAL_SIGNAL, False
    if not all(cmath.isfinite(z) for z in raw):
        raise DomainError(f"alpha must be finite, got {raw}")
    try:
        norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    except OverflowError as err:
        raise DomainError(f"alpha too large to normalize: {raw}") from err
    if norm == 0.0:
        raise DomainError("alpha must not be all zero")
    return NlpsgInput(*(z / norm for z in raw)), not abs(norm - 1.0) <= 1e-12


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise DomainError(f"cannot write output {path}: {err}") from err


def _is_resonant(net: NetworkParams) -> bool:
    """Every round trip and line phase is a multiple of 2 pi, within 1e-12."""
    return all(abs(wrap_angle(x)) <= 1e-12
               for x in (*(c.theta for c in net.rings), *net.deltas))


def cmd_smatrix(args, cfg: dict) -> tuple[int, str, list[str]]:
    net = _network_from_config(cfg)
    composed = compose_scattering(net)
    out = {}
    if args.closed_form:
        if not _is_resonant(net):
            raise DomainError("--closed-form is valid on resonance with zero line phases only")
        ts = [effective_coupling(c.tau, c.eta).t for c in net.rings]
        matrix = closed_form_resonant(*ts)
        out["closed_form_max_diff"] = _round9(float(np.max(np.abs(matrix - composed))))
    else:
        matrix = composed
    out["matrix"] = [[_complex_pair(matrix[i, j]) for j in range(3)]
                     for i in range(3)]
    out["unitarity_residual"] = _round9(unitarity_residual(matrix))
    out["det"] = _complex_pair(complex(np.linalg.det(matrix)))
    return 0, json.dumps(out, indent=2, sort_keys=True) + "\n", []


def cmd_verify(args, cfg: dict) -> tuple[int, str, list[str]]:
    net = _network_from_config(cfg)
    inp, renormalized = _parse_alpha(args, cfg)
    tol = _tolerance(args, cfg)
    networks = NetworkStack.of([net])
    s = compose_scattering_stack(networks)[0]
    _require_unitary(networks, [unitarity_residual(s)])
    v = verdict(s)
    prob, cond = project(evolve(inp.state(), s), SUCCESS_PATTERN)
    coeffs, failure = nlpsg_closed_form(s, inp)

    lines = []
    for i, beta in enumerate((v.beta0, v.beta1, v.beta2)):
        lines.append(f"beta{i} = {_fmt_complex(beta)}")
    lines.append(f"constraint_residual = {_fmt(v.residual)}")
    lines.append(f"s11_residual = {_fmt(v.s11_residual)}")
    lines.append(f"magnitude_residual = {_fmt(v.magnitude_residual)}")
    lines.append(f"success_probability_simulated = {_fmt(prob)}")
    lines.append(f"success_probability_verdict = {_fmt(v.success_probability)}")
    lines.append(f"success_probability_closed_form = "
                 f"{_fmt(float(np.sum(np.abs(coeffs) ** 2)))}")
    lines.append(f"failure_norm = {_fmt(failure)}")
    for n in (0, 1, 2):
        amp = cond.amplitude_of((n,))
        lines.append(f"conditional_{n}_photon = {_fmt_complex(amp)}")
    if v.satisfied(tol):
        lines.append("constraints satisfied")
        code = 0
    elif v.magnitudes_satisfied(tol):
        lines.append("constraints satisfied up to heralded phase")
        code = 0
    else:
        lines.append("constraints not satisfied")
        code = 4
    notes = ["warning: alpha renormalized"] if renormalized else []
    return code, "\n".join(lines) + "\n", notes


def cmd_manifold(args, cfg: dict) -> tuple[int, str, list[str]]:
    grid = args.grid if args.grid is not None else \
        _float_field(cfg, "grid", "config",
                     default=401 if args.kind != "surface" else 101)
    if grid != int(grid):
        raise DomainError(f"field config.grid must be a whole number, got {grid!r}")
    grid_n = int(grid)
    if grid_n < 2:
        raise DomainError("grid must have at least 2 points")
    # Every row is held in memory before it is written, so the points are
    # bounded before any array is allocated; a curve counts them per ring.
    points = grid_n * grid_n if args.kind == "surface" else grid_n
    if points > 10 ** 6:
        raise DomainError(f"{points} grid points, more than 10^6")

    if args.kind == "curve":
        if not math.isfinite(args.tau_max - args.tau_min):
            raise DomainError(f"--tau-min {args.tau_min!r} and --tau-max {args.tau_max!r} "
                              f"span a range that overflows a float")
        grid = np.linspace(args.tau_min, args.tau_max, grid_n)
        rings = (1, 2, 3) if args.ring == 0 else (args.ring,)
        chunks, rows = [b"ring,tau,eta,tau_sq,eta_sq,beta_sq\n"], 0
        for ring in rings:
            for start in range(0, grid_n, _BATCH_POINTS):
                networks = curve_stack(grid[start:start + _BATCH_POINTS], ring)
                swept = networks.rings[ring - 1]
                success = _heralded_success(_entries(networks), _EQUAL_SIGNAL, networks)
                # x * x is the correctly rounded IEEE square on every CPU.
                chunks.append(_csv.rows((swept.tau, swept.eta, swept.tau * swept.tau,
                                         swept.eta * swept.eta, success), str(ring)))
                rows += len(swept)
        return 0, b"".join(chunks).decode("ascii"), \
            [f"emitted {rows} of {len(rings) * grid_n} grid points"]

    if args.kind == "surface":
        ring = args.ring if args.ring != 0 else 1
        axis = np.linspace(0.05, 0.98, grid_n)
        chunks, rows = [b"ring,tau,eta,theta,beta_sq\n"], 0
        for start in range(0, points, _BATCH_POINTS):
            # Grid points in row-major (eta, tau) order, as the CSV lists them.
            point = np.arange(start, min(start + _BATCH_POINTS, points))
            branch, theta, networks = surface_stack(ring, axis[point // grid_n],
                                                    axis[point % grid_n])
            success = _heralded_success(_entries(networks), _EQUAL_SIGNAL, networks)
            # Each branch's tau and eta are the axis values at its grid indices.
            eta_at, tau_at = np.divmod(point[branch], grid_n)
            chunks.append(_csv.rows(((axis, tau_at), (axis, eta_at), theta, success),
                                    str(ring)))
            rows += len(theta)
        return 0, b"".join(chunks).decode("ascii"), \
            [f"emitted {rows} of {2 * points} candidate branches"]

    columns = intersect_stack(args.delta2, np.linspace(0.0, 0.999, grid_n))
    text = (b"tau2,eta2,theta2,residual_mag,residual_arg\n"
            + _csv.rows(columns)).decode("ascii")
    return 0, text, [f"converged {len(columns[0])} of {grid_n} grid points"]


def cmd_optimize(args, cfg: dict) -> tuple[int, str, list[str]]:
    t1_num, peak_corrected = optimize_t1("corrected")
    t1_printed, peak_printed = optimize_t1("printed")
    t2_num = t2_from_equality(T1_OPTIMAL, T1_OPTIMAL)
    lines = [
        f"t1_closed_form = {_fmt(T1_OPTIMAL)}",
        f"t1_numeric = {_fmt(t1_num)}",
        f"t2_closed_form = {_fmt(T2_OPTIMAL)}",
        f"t2_numeric = {_fmt(t2_num)}",
        f"t3_closed_form = {_fmt(T1_OPTIMAL)}",
        f"corrected_peak = {_fmt(peak_corrected)} at t1 = {_fmt(t1_num)}",
        f"printed_peak = {_fmt(peak_printed)} at t1 = {_fmt(t1_printed)}",
        "note: the printed profile is low by the factor 1 + sqrt(2); the "
        "corrected profile matches the scattering-matrix computation",
    ]
    return 0, "\n".join(lines) + "\n", []


def cmd_cnot(args, cfg: dict) -> tuple[int, str, list[str]]:
    nets = []
    for key in ("gate_a", "gate_b"):
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise DomainError(f"{key} must be an object")
            nets.append(_network_from_config(cfg[key], where=f"{key}.rings"))
        else:
            nets.append(curve_network())
    # cnot reads no tolerance from its config: an empty one gives the default.
    tol = _tolerance(args, {})
    net = build_cnot(nets[0], nets[1], tol=tol, probe_phase=args.probe_phase)
    row = "%d,%d,%d,%d," + ",".join([_csv.NUM] * 3) + "\n"
    text = "control_in,target_in,control_out,target_out,probability,fidelity,leakage\n" \
        + "".join(row % (r.control_in, r.target_in, r.control_out, r.target_out,
                         r.probability, r.fidelity, r.leakage) for r in verify_truth_table(net))
    report = verify_coherence(net)
    return 0, text, [f"bell_overlap = {_fmt(report.overlap)}",
                     f"herald_probability = {_fmt(report.probability)}"]


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parse_args leaves it unchanged and starts
    each call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="Three-ring photonic network simulator: heralded phase "
                    "gate analysis and a post-selected CNOT.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smatrix", help="compose and print the 3x3 scattering matrix")
    p.add_argument("--config", required=True, help="JSON config with 3 rings")
    p.add_argument("--closed-form", action="store_true",
                   help="use the resonant closed form and report the "
                        "max difference against composition")

    p = sub.add_parser("verify", help="run the success-constraint verdict and "
                                      "a full Fock simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", default=None,
                   help="three comma-separated complex amplitudes")
    p.add_argument("--tolerance", type=_finite_float, default=None)

    p = sub.add_parser("manifold", help="trace optimal-operation manifolds to CSV")
    p.add_argument("kind", choices=("curve", "surface", "intersect"))
    p.add_argument("--config", default=None)
    p.add_argument("--ring", type=int, default=0, choices=(0, 1, 2, 3),
                   help="ring slot to sweep; 0 = all (curve) or 1 (surface)")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tau-min", type=_finite_float, default=0.0)
    p.add_argument("--tau-max", type=_finite_float, default=0.999)
    p.add_argument("--delta2", type=_finite_float, default=math.pi / 30.0,
                   help="middle line phase for the intersect kind")

    sub.add_parser("optimize", help="report the optimal transmissions and "
                                    "both success-profile variants")

    p = sub.add_parser("cnot", help="simulate the post-selected CNOT truth table")
    p.add_argument("--config", default=None,
                   help="JSON config with gate_a and gate_b ring objects")
    p.add_argument("--tolerance", type=_finite_float, default=None)
    p.add_argument("--probe-phase", type=_finite_float, default=0.0,
                   help="diagnostic phase on one interferometer arm")
    # Declared last, so that it ends every usage line.
    for p in sub.choices.values():
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up on each call, not stored in the cached parser, so a rebinding
    # of a command function takes effect.
    command = {"smatrix": cmd_smatrix, "verify": cmd_verify,
               "manifold": cmd_manifold, "optimize": cmd_optimize,
               "cnot": cmd_cnot}[args.command]
    try:
        code, text, notes = command(args, _load_config(getattr(args, "config", None)))
        _write_text(args.output, text)
    except DomainError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PoleError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except ConstraintError as err:
        # One line, with the verdict's residual in full where there is one.
        detail = "" if err.verdict is None else f"; residual = {_fmt(err.verdict.residual)}"
        print(f"constraint violation: {err}{detail}", file=sys.stderr)
        return 4
    # Diagnostics follow the output, so that an error exit prints its line alone.
    for note in notes:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
