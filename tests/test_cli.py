"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsim import (SUCCESS_PATTERN, CouplerStack, NetworkParams, NlpsgInput,
                     T1_OPTIMAL, T2_OPTIMAL, build_coupler, compensated_network_stack,
                     compose_scattering, curve_network, curve_ring, evolve,
                     invert_effective, project, surface_theta)
from ringsim import _csv, cli, fock
from ringsim import analysis as analysis_module
from ringsim import cnot as cnot_module
from ringsim import network as network_module
from ringsim import ring as ring_module
from ringsim.cli import main

TWO_PI = 2.0 * math.pi


def ring_entry(slot, tau=0.0, theta=TWO_PI, delta=None, drop=None):
    t = T2_OPTIMAL if slot == 2 else T1_OPTIMAL
    entry = {"tau": tau, "eta": invert_effective(t, tau), "theta": theta}
    if delta is not None:
        entry["delta"] = delta
    if drop is not None:
        entry.pop(drop)
    return entry


def write_config(tmp_path, cfg, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def optimal_config(tmp_path, **kwargs):
    return write_config(tmp_path, {"rings": [ring_entry(s) for s in (1, 2, 3)]},
                        **kwargs)


def parse_report(text):
    values = {}
    for line in text.strip().splitlines():
        if " = " not in line:
            continue
        key, _, rest = line.partition(" = ")
        values[key] = rest
    return values


def test_smatrix_optimal(tmp_path, capsys):
    assert main(["smatrix", "--config", optimal_config(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.isclose(out["matrix"][0][0][0], 1.0 - np.sqrt(2.0), atol=1e-9)
    assert np.isclose(out["matrix"][1][1][0], 0.5, atol=1e-9)
    assert out["unitarity_residual"] < 1e-9
    assert np.isclose(out["det"][0], -1.0, atol=1e-9)
    assert abs(out["det"][1]) < 1e-9


def test_smatrix_closed_form_agreement(tmp_path, capsys):
    assert main(["smatrix", "--config", optimal_config(tmp_path),
                 "--closed-form"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_form_max_diff"] < 1e-12


@pytest.mark.parametrize("command", [["smatrix", "--closed-form"], ["verify"]])
def test_resonance_output_independent_of_theta_representative(tmp_path, capsys,
                                                              command):
    # theta = 0, 2 pi and 4 pi are one resonance; without a phi the default
    # phase partition is taken from theta reduced into (0, 2 pi].
    outputs = []
    for theta in (0.0, TWO_PI, 2.0 * TWO_PI):
        cfg = {"rings": [ring_entry(s, tau=0.3, theta=theta) for s in (1, 2, 3)]}
        path = write_config(tmp_path, cfg, name=f"theta_{len(outputs)}.json")
        assert main([command[0], "--config", path] + command[1:]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    if command[0] == "smatrix":
        assert json.loads(outputs[0])["closed_form_max_diff"] <= 1e-12


def test_smatrix_closed_form_rejected_off_resonance(tmp_path, capsys):
    cfg = {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}
    code = main(["smatrix", "--config", write_config(tmp_path, cfg),
                 "--closed-form"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("delta, code", [(TWO_PI, 0), (-TWO_PI, 0), (2.0 * TWO_PI, 0),
                                         (0.1, 2)])
def test_smatrix_closed_form_takes_line_phases_modulo_two_pi(tmp_path, capsys,
                                                             delta, code):
    # A line phase of 2 pi is no phase, as verify already takes it.
    rings = [dict(r) for r in _README_OPTIMAL_CONFIG["rings"]]
    rings[0]["delta"] = delta
    rings[1]["delta"] = -delta
    path = write_config(tmp_path, {"rings": rings})
    assert main(["smatrix", "--config", path, "--closed-form"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["closed_form_max_diff"] <= 1e-15
    else:
        assert "valid on resonance with zero line phases only" in captured.err


def test_smatrix_pole_is_numerical_error(tmp_path, capsys):
    cfg = {"rings": [{"tau": 1.0, "eta": 1.0, "theta": 0.0},
                     ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("closed_form", [[], ["--closed-form"]])
def test_smatrix_next_to_the_coupler_pole_composes(tmp_path, capsys, closed_form):
    # tau = 1 - 2^-53, eta = 1 is a valid resonant ring with effective
    # transmission exactly 1; only tau = eta = 1 is the pole.
    cfg = {"rings": [{"tau": 1.0 - 2.0 ** -53, "eta": 1.0, "theta": TWO_PI},
                     ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)] + closed_form) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if closed_form:
        assert json.loads(captured.out)["closed_form_max_diff"] < 1e-12


@pytest.mark.parametrize("command", ["smatrix", "verify", "cnot"])
@pytest.mark.parametrize("ring, code, err", [
    ({"tau": 1.2, "eta": 0.5, "theta": TWO_PI}, 2,
     "config error: {where}[0]: tau must lie in [-1, 1], got 1.2\n"),
    ({"tau": 1.0, "eta": 1.0, "theta": TWO_PI}, 3,
     "numerical error: |tau*eta| = 1.0: on-resonance pole\n"),
])
def test_bad_coupler_stderr_is_pinned(tmp_path, capsys, command, ring, code, err):
    cfg = {"rings": [ring, ring_entry(2), ring_entry(3)]}
    where = "rings"
    if command == "cnot":
        cfg, where = {"gate_a": cfg}, "gate_a.rings"
    assert main([command, "--config", write_config(tmp_path, cfg)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err.format(where=where)


@pytest.mark.parametrize("eta", [0.4, 0.4 + 1e-8])
def test_smatrix_balanced_ring_composes(tmp_path, capsys, eta):
    # eta = tau on resonance is a full-drop ring (t = 0): zero through
    # amplitude, no pole.
    cfg = {"rings": [{"tau": 0.4, "eta": eta, "theta": TWO_PI},
                     ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg),
                 "--closed-form"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_form_max_diff"] <= 1e-12
    assert out["unitarity_residual"] <= 1e-12


def test_smatrix_loop_pole_is_numerical_error(tmp_path, capsys):
    # Full-drop outer rings and a full-through middle ring close the
    # feedback loop with gain 1.
    balanced = {"tau": 0.5, "eta": 0.5, "theta": TWO_PI}
    cfg = {"rings": [balanced, {"tau": 1.0, "eta": 0.0, "theta": TWO_PI,
                                "delta": math.pi}, balanced]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: network 0: loop gain")


_DETUNED_WITH_LINE_PHASES = {"rings": [
    {"tau": 0.3, "eta": 0.8, "theta": 0.7, "delta": 0.25},
    {"tau": 0.45, "eta": 0.6, "theta": 2.1, "phi": 0.4, "delta": 1.3},
    {"tau": 0.2, "eta": 0.9, "theta": 5.5, "delta": -0.6}]}


@pytest.mark.parametrize("cfg, expected", [
    # The README's optimal config.
    ({"rings": [
        {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586},
        {"tau": 0.0, "eta": 0.5469181606780271, "theta": 6.283185307179586},
        {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586}]},
     {"det": [-1.0, 2.46782653e-32],
      "matrix": [[[-0.414213562, 1.24997381e-33], [0.840896415, 1.0298011e-16],
                  [-0.3483107, -8.53115167e-17]],
                 [[0.840896415, -1.0298011e-16], [0.5, 3.45124485e-34],
                  [0.207106781, 2.53632657e-17]],
                 [[-0.3483107, 8.53115167e-17], [0.207106781, -2.53632657e-17],
                  [0.914213562, 6.3103497e-34]]],
      "unitarity_residual": 2.22044605e-16}),
    (_DETUNED_WITH_LINE_PHASES,
     {"det": [0.996201698, 0.0870756916],
      "matrix": [[[0.685598539, 0.524765556], [-0.46230334, -0.0743090973],
                  [-0.0388170142, -0.183909689]],
                 [[0.0925873203, 0.376803362], [0.372894586, 0.22243799],
                  [-0.621368725, 0.524231524]],
                 [[0.288284336, 0.144619195], [0.758240021, 0.131517367],
                  [0.199233713, -0.513866335]]],
      "unitarity_residual": 5.55112234e-16}),
])
def test_smatrix_output_is_pinned(tmp_path, capsys, cfg, expected):
    # The whole stdout, so a change to the arithmetic of unitarity_residual
    # shows even where the residual stays at rounding level.
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert captured.err == ""


_README_RINGS = [
    {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586},
    {"tau": 0.0, "eta": 0.5469181606780271, "theta": 6.283185307179586},
    {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586}]


@pytest.mark.parametrize("rings, expected", [
    # The README's optimal config.
    (_README_RINGS,
     {"closed_form_max_diff": 1.11022302e-16, "det": [-1.0, 0.0],
      "matrix": [[[-0.414213562, 0.0], [0.840896415, 0.0], [-0.3483107, 0.0]],
                 [[0.840896415, 0.0], [0.5, 0.0], [0.207106781, 0.0]],
                 [[-0.3483107, 0.0], [0.207106781, 0.0], [0.914213562, 0.0]]],
      "unitarity_residual": 2.22044605e-16}),
    # Ring 1 next to the coupler pole, of effective transmission exactly 1.
    ([{"tau": 1.0 - 2.0 ** -53, "eta": 1.0, "theta": 6.283185307179586}] + _README_RINGS[1:],
     {"closed_form_max_diff": 1.02525725e-16, "det": [-1.0, 0.0],
      "matrix": [[[-0.546918161, 0.0], [0.761989789, 0.0], [-0.346773827, 0.0]],
                 [[0.837186076, 0.0], [0.497793819, 0.0], [-0.22654092, 0.0]],
                 [[0.0, 0.0], [0.414213562, 0.0], [0.910179721, 0.0]]],
      "unitarity_residual": 1.11022302e-16}),
])
def test_smatrix_closed_form_output_is_pinned(tmp_path, capsys, rings, expected):
    # The closed form is real; its zeros print as 0.0, never -0.0.
    path = write_config(tmp_path, {"rings": rings})
    assert main(["smatrix", "--config", path, "--closed-form"]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert captured.err == ""


def test_verify_optimal(tmp_path, capsys):
    assert main(["verify", "--config", optimal_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "constraints satisfied" in out
    report = parse_report(out)
    assert np.isclose(float(report["success_probability_simulated"]), 0.25,
                      atol=1e-9)
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    cond = [float(report[f"conditional_{n}_photon"].split()[0]) for n in range(3)]
    assert np.allclose(cond, [inv_sqrt3, inv_sqrt3, -inv_sqrt3], atol=1e-9)


def test_verify_renormalizes_alpha_with_warning(tmp_path, capsys):
    code = main(["verify", "--config", optimal_config(tmp_path),
                 "--alpha", "1,1,0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "alpha renormalized" in captured.err
    report = parse_report(captured.out)
    assert np.isclose(float(report["success_probability_simulated"]), 0.25,
                      atol=1e-9)


def test_verify_detuned_fails(tmp_path, capsys):
    cfg = {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 4
    assert "constraints not satisfied" in capsys.readouterr().out


# The optimal config of the README, a detuned one and one whose ring 1 is
# balanced, written out so the pinned reports below depend on nothing but
# the simulation.
_README_OPTIMAL_CONFIG = {"rings": [
    {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586},
    {"tau": 0.0, "eta": 0.5469181606780271, "theta": 6.283185307179586},
    {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586}]}
_DETUNED_CONFIG = {"rings": [
    {"tau": 0.3, "eta": 0.8, "theta": 1.0, "delta": 0.2},
    {"tau": 0.1, "eta": 0.5469181606780271, "theta": 6.283185307179586},
    {"tau": 0.0, "eta": 0.9101797211244548, "theta": 6.283185307179586}]}
_BALANCED_RING1_CONFIG = {"rings": [
    {"tau": 0.5, "eta": 0.5, "theta": 6.283185307179586},
    _README_OPTIMAL_CONFIG["rings"][1], _README_OPTIMAL_CONFIG["rings"][2]]}
_OPTIMAL_HEAD = (
    "beta0 = 5.00000000e-01 3.45124485e-34j\n"
    "beta1 = 5.00000000e-01 -6.00140634e-34j\n"
    "beta2 = 5.00000000e-01 -2.20568869e-33j\n"
    "constraint_residual = 2.22044605e-16\n"
    "s11_residual = 1.24997381e-33\n"
    "magnitude_residual = 2.22044605e-16\n"
    "success_probability_simulated = 2.50000000e-01\n"
    "success_probability_verdict = 2.50000000e-01\n"
    "success_probability_closed_form = 2.50000000e-01\n"
    "failure_norm = 7.50000000e-01\n")


@pytest.mark.parametrize("cfg, alpha, code, out", [
    (_README_OPTIMAL_CONFIG, None, 0, _OPTIMAL_HEAD + (
        "conditional_0_photon = 5.77350269e-01 3.98515429e-34j\n"
        "conditional_1_photon = 5.77350269e-01 7.11639150e-33j\n"
        "conditional_2_photon = -5.77350269e-01 -7.11639150e-33j\n"
        "constraints satisfied\n")),
    # A zero component leaves its sector without a kept amplitude.
    (_README_OPTIMAL_CONFIG, "0.6,0,0.8", 0, _OPTIMAL_HEAD + (
        "conditional_0_photon = 6.00000000e-01 4.14149382e-34j\n"
        "conditional_1_photon = 0.00000000e+00 0.00000000e+00j\n"
        "conditional_2_photon = -8.00000000e-01 -9.86076132e-33j\n"
        "constraints satisfied\n")),
    (_DETUNED_CONFIG, None, 4, (
        "beta0 = 2.93653958e-01 6.72079560e-02j\n"
        "beta1 = 2.60571095e-01 7.51949680e-02j\n"
        "beta2 = 4.44851918e-01 -9.60065403e-02j\n"
        "constraint_residual = 2.51534050e-01\n"
        "s11_residual = 2.91955659e-01\n"
        "magnitude_residual = 2.28796057e-01\n"
        "success_probability_simulated = 1.23803873e-01\n"
        "success_probability_verdict = 9.07495563e-02\n"
        "success_probability_closed_form = 1.23803873e-01\n"
        "failure_norm = 8.76196127e-01\n"
        "conditional_0_photon = 4.81845841e-01 1.10279032e-01j\n"
        "conditional_1_photon = 4.27561403e-01 1.23384622e-01j\n"
        "conditional_2_photon = -7.29940943e-01 1.57533556e-01j\n"
        "constraints not satisfied\n")),
    # A balanced ring 1 never heralds: probability 0 and an empty
    # conditional state, every amplitude printed as zero.
    (_BALANCED_RING1_CONFIG, "1,0,0", 4, (
        "beta0 = 0.00000000e+00 0.00000000e+00j\n"
        "beta1 = 0.00000000e+00 0.00000000e+00j\n"
        "beta2 = 0.00000000e+00 0.00000000e+00j\n"
        "constraint_residual = 0.00000000e+00\n"
        "s11_residual = 2.42640687e-01\n"
        "magnitude_residual = 5.00000000e-01\n"
        "success_probability_simulated = 0.00000000e+00\n"
        "success_probability_verdict = 0.00000000e+00\n"
        "success_probability_closed_form = 0.00000000e+00\n"
        "failure_norm = 1.00000000e+00\n"
        "conditional_0_photon = 0.00000000e+00 0.00000000e+00j\n"
        "conditional_1_photon = 0.00000000e+00 0.00000000e+00j\n"
        "conditional_2_photon = 0.00000000e+00 0.00000000e+00j\n"
        "constraints not satisfied\n")),
])
def test_verify_output_is_pinned(tmp_path, capsys, cfg, alpha, code, out):
    argv = ["verify", "--config", write_config(tmp_path, cfg)]
    if alpha is not None:
        argv += ["--alpha", alpha]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


@pytest.mark.parametrize("entry", [{"re": 1}, [1, 0, 7], [1], 1.0, "10", [10 ** 400, 0]])
def test_config_alpha_entry_must_be_a_pair_of_numbers(tmp_path, capsys, entry):
    cfg = dict(_README_OPTIMAL_CONFIG, alpha=[entry, [0, 0], [0, 0]])
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "alpha" in captured.err


def test_config_grid_must_be_a_whole_number(tmp_path, capsys):
    path = write_config(tmp_path, {"grid": 2.9})
    assert main(["manifold", "curve", "--config", path]) == 2
    assert "config.grid must be a whole number" in capsys.readouterr().err
    path = write_config(tmp_path, {"grid": 5.0})
    assert main(["manifold", "curve", "--config", path]) == 0
    from_config = capsys.readouterr()
    assert main(["manifold", "curve", "--grid", "5"]) == 0
    assert capsys.readouterr() == from_config


@pytest.mark.parametrize("argv, grid", [
    (["manifold", "curve"], 1e20),
    (["manifold", "curve", "--grid", "100000000000000000000"], None),
    (["manifold", "intersect", "--grid", "1000001"], None),
    (["manifold", "surface", "--grid", "1001"], None),
])
def test_sweep_grid_is_bounded(tmp_path, capsys, argv, grid):
    if grid is not None:
        argv = argv + ["--config", write_config(tmp_path, {"grid": grid})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "grid points, more than 10^6" in captured.err


def test_manifold_curve_single_ring(tmp_path, capsys):
    assert main(["manifold", "curve", "--ring", "1", "--grid", "5"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "ring,tau,eta,tau_sq,eta_sq,beta_sq"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "1"
        assert abs(float(fields[5]) - 0.25) < 1e-9
    assert "emitted 5 of 5 grid points" in captured.err
    # tau = -1 and tau = 1 put the ring on its pole and are skipped.
    assert main(["manifold", "curve", "--ring", "1", "--grid", "5",
                 "--tau-min", "-1", "--tau-max", "1"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 4
    assert "emitted 3 of 5 grid points" in captured.err


def test_manifold_curve_all_rings(tmp_path, capsys):
    assert main(["manifold", "curve", "--grid", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 10
    assert [line.split(",")[0] for line in lines[1:]] == \
        ["1", "1", "1", "2", "2", "2", "3", "3", "3"]
    assert "emitted 9 of 9 grid points" in captured.err


def test_manifold_curve_deterministic_output(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["manifold", "curve", "--grid", "7", "--output", str(out_a)]) == 0
    assert main(["manifold", "curve", "--grid", "7", "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_manifold_surface(tmp_path, capsys):
    assert main(["manifold", "surface", "--ring", "1", "--grid", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "ring,tau,eta,theta,beta_sq"
    assert len(lines) > 1
    for line in lines[1:]:
        assert abs(float(line.split(",")[4]) - 0.25) < 1e-9
    assert "of 18 candidate branches" in captured.err


def _fmt(x):
    return f"{x:.8e}"


def _rebuilt_success(net):
    a = 1.0 / np.sqrt(3.0)
    prob, _ = project(evolve(NlpsgInput(a, a, a).state(), compose_scattering(net)),
                      SUCCESS_PATTERN)
    return prob


def _rebuild_surface(ring, grid):
    """The surface CSV rebuilt point by point through the scalar API."""
    transmission = T2_OPTIMAL if ring == 2 else T1_OPTIMAL
    axis = np.linspace(0.05, 0.98, grid)
    lines = ["ring,tau,eta,theta,beta_sq"]
    for eta in axis:
        for tau in axis:
            for theta in surface_theta(transmission, eta, tau):
                rings = [curve_ring(s, 0.0) for s in (1, 2, 3)]
                rings[ring - 1] = build_coupler(tau, eta, theta)
                stack = compensated_network_stack(tuple(CouplerStack.of([r]) for r in rings))
                net = NetworkParams(rings=tuple(rings), deltas=tuple(stack.deltas[0].tolist()))
                lines.append(",".join([str(ring), _fmt(tau), _fmt(eta), _fmt(theta),
                                       _fmt(_rebuilt_success(net))]))
    return lines


def _rebuild_curve(grid):
    lines = ["ring,tau,eta,tau_sq,eta_sq,beta_sq"]
    for ring in (1, 2, 3):
        for tau in np.linspace(0.0, 0.999, grid):
            rings = [curve_ring(s, 0.0) for s in (1, 2, 3)]
            rings[ring - 1] = curve_ring(ring, float(tau))
            c = rings[ring - 1]
            beta_sq = _rebuilt_success(NetworkParams(rings=tuple(rings)))
            lines.append(",".join([str(ring), _fmt(c.tau), _fmt(c.eta), _fmt(c.tau ** 2),
                                   _fmt(c.eta ** 2), _fmt(beta_sq)]))
    return lines


@pytest.mark.parametrize("ring", [1, 2, 3])
def test_manifold_surface_equals_pointwise_rebuild(ring, capsys):
    assert main(["manifold", "surface", "--ring", str(ring), "--grid", "5"]) == 0
    captured = capsys.readouterr()
    expected = _rebuild_surface(ring, 5)
    assert captured.out.splitlines() == expected
    assert f"emitted {len(expected) - 1} of 50 candidate branches" in captured.err


def test_manifold_curve_equals_pointwise_rebuild(capsys):
    assert main(["manifold", "curve", "--grid", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == _rebuild_curve(7)


def test_manifold_output_independent_of_batch_size(monkeypatch, capsys):
    argvs = (["manifold", "surface", "--ring", "2", "--grid", "5"],
             ["manifold", "curve", "--grid", "7"])
    whole = []
    for argv in argvs:
        assert main(argv) == 0
        whole.append(capsys.readouterr())
    monkeypatch.setattr(cli, "_BATCH_POINTS", 3)
    for argv, expected in zip(argvs, whole):
        assert main(argv) == 0
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv", [
    ["manifold", "curve", "--tau-min", "nan"],
    ["manifold", "curve", "--tau-max", "inf"],
    ["manifold", "intersect", "--delta2=-inf"],
    ["cnot", "--tolerance", "nan"],
    ["cnot", "--probe-phase", "inf"],
])
def test_non_finite_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config_tolerance, message", [
    (["cnot", "--tolerance", "-1"], None, "--tolerance must be positive, got -1.0"),
    (["cnot", "--tolerance", "0"], None, "--tolerance must be positive, got 0.0"),
    (["verify", "--tolerance", "-1"], None, "--tolerance must be positive, got -1.0"),
    (["verify", "--tolerance", "-0"], None, "--tolerance must be positive, got -0.0"),
    (["verify"], -1, "field config.tolerance must be positive, got -1.0"),
    (["verify"], 0, "field config.tolerance must be positive, got 0.0"),
])
def test_non_positive_tolerance_exits_2(tmp_path, capsys, argv, config_tolerance,
                                        message):
    # A tolerance <= 0 passes no gate: bad input, not a constraint violation.
    if argv[0] == "verify":
        cfg = {"rings": [ring_entry(s) for s in (1, 2, 3)]}
        if config_tolerance is not None:
            cfg["tolerance"] = config_tolerance
        argv = argv + ["--config", write_config(tmp_path, cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("option", [None, "1e-9"])
@pytest.mark.parametrize("value, message", [
    ("abc", "field config.tolerance must be a number, got 'abc'"),
    (-1e-3, "field config.tolerance must be positive, got -0.001"),
])
def test_bad_config_tolerance_exits_2_with_or_without_the_option(
        tmp_path, capsys, option, value, message):
    # --tolerance wins over the field, but a bad field is bad input either way.
    cfg = {"rings": [ring_entry(s) for s in (1, 2, 3)], "tolerance": value}
    argv = ["verify", "--config", write_config(tmp_path, cfg)]
    if option is not None:
        argv += ["--tolerance", option]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("field, option, code", [
    (None, None, 4),      # the default 1e-9
    (None, "1e-3", 0),
    (1e-3, None, 0),
    (1e-3, "1e-9", 4),    # the option wins over a valid field
])
def test_tolerance_precedence(tmp_path, capsys, field, option, code):
    # Ring 1 is detuned off the manifold to a constraint residual of 1.2e-5,
    # so the verdict tells 1e-9 from 1e-3.
    entry = ring_entry(1)
    entry["eta"] += 1e-5
    cfg = {"rings": [entry, ring_entry(2), ring_entry(3)]}
    if field is not None:
        cfg["tolerance"] = field
    argv = ["verify", "--config", write_config(tmp_path, cfg)]
    if option is not None:
        argv += ["--tolerance", option]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("constraints satisfied\n" if code == 0
                                 else "constraints not satisfied\n")


@pytest.mark.parametrize("field, value", [
    ("theta", float("nan")),
    ("tau", float("inf")),
    ("delta", float("-inf")),
    ("phi", float("nan")),
])
def test_non_finite_ring_field_exits_2(tmp_path, capsys, field, value):
    entry = ring_entry(1)
    entry[field] = value
    cfg = {"rings": [entry, ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rings[0].{field} must be finite" in captured.err


@pytest.mark.parametrize("grid", [float("inf"), float("nan"), 10 ** 400])
def test_non_finite_grid_exits_2(tmp_path, capsys, grid):
    path = write_config(tmp_path, {"grid": grid})
    assert main(["manifold", "curve", "--config", path]) == 2
    assert "config.grid" in capsys.readouterr().err


def test_non_finite_alpha_exits_2(tmp_path, capsys):
    assert main(["verify", "--config", optimal_config(tmp_path),
                 "--alpha", "nan,1,0"]) == 2
    assert "alpha must be finite" in capsys.readouterr().err
    cfg = {"rings": [ring_entry(s) for s in (1, 2, 3)],
           "alpha": [[1.0, 0.0], [float("inf"), 0.0], [0.0, 0.0]]}
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    assert "alpha must be finite" in capsys.readouterr().err
    assert main(["verify", "--config", optimal_config(tmp_path),
                 "--alpha", "1e200,1e200,0"]) == 2
    assert "alpha too large" in capsys.readouterr().err


def test_manifold_intersect(tmp_path, capsys):
    assert main(["manifold", "intersect", "--delta2", str(math.pi / 30.0),
                 "--grid", "11"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "tau2,eta2,theta2,residual_mag,residual_arg"
    assert len(lines) > 1
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        assert fields[3] < 1e-9
        assert fields[4] < 1e-9
    assert "converged" in captured.err


@pytest.mark.parametrize("delta2, rows", [(0.105, 919), (2.0, 453)])
def test_manifold_intersect_row_count(capsys, delta2, rows):
    assert main(["manifold", "intersect", "--delta2", str(delta2),
                 "--grid", "1001"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == rows + 1
    assert f"converged {rows} of 1001 grid points" in captured.err
    for line in lines[1:]:
        residual_mag, residual_arg = (float(x) for x in line.split(",")[3:])
        assert residual_mag < 1e-12 and residual_arg < 1e-12


@pytest.mark.parametrize("delta2, rows, digest", [
    ("0", 1001, "a2a1418e5dbff8fbc713ae5f43e746f24df466b7b948b77826723c246a596eec"),
    ("0.105", 919, "b7ba503e3ba6b5a89cff57feaadfca8748f66bd906cbd515014c6bbddd108c58"),
    ("2", 453, "6ffd2118cb2673a6cb6f7298770ac40e93a9368f257cad65e3b33388c28b56b5"),
])
def test_manifold_intersect_output_is_pinned(capsys, delta2, rows, digest):
    # Every residual on the CLI grid is far below the 1e-9 drop threshold,
    # so the CSV is the one printed before rows missing the target were
    # dropped.
    assert main(["manifold", "intersect", "--grid", "1001", "--delta2", delta2]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == f"converged {rows} of 1001 grid points\n"


@pytest.mark.parametrize("argv, digest, err", [
    (["surface", "--ring", "1", "--grid", "101"],
     "efc84cb6bf63ef0ff627b5a98bb41639ae33c0640f617830911fa0ac2c540c4f",
     "emitted 6694 of 20402 candidate branches\n"),
    (["surface", "--ring", "3", "--grid", "101"],
     "7a4075048108e7e9890a9df1305b62661aafcfdc18efcd8fd82dec865bc37b95",
     "emitted 6694 of 20402 candidate branches\n"),
    (["curve", "--ring", "0", "--grid", "1001", "--tau-min", "0.01", "--tau-max", "0.99"],
     "68fdf8cabd30f0478aaff909034dfd5c60e0245d5baeb31b42652bd71e286aaf",
     "emitted 3003 of 3003 grid points\n"),
    # The flipped middle ring.
    (["surface", "--ring", "2", "--grid", "101"],
     "8110414fe7d20084c4cfaea3a61cbcaa59dc536815340ae8e8ebbea7d12441b3",
     "emitted 10204 of 20402 candidate branches\n"),
    # tau = -1 and tau = 1 are skipped in every ring.
    (["curve", "--ring", "0", "--grid", "1001", "--tau-min", "-1", "--tau-max", "1"],
     "c98765b997f184e89fb3e1247852ee19d269a0fe9b613362cccc7ea337322edd",
     "emitted 2997 of 3003 grid points\n"),
])
def test_manifold_sweep_output_is_pinned(capsys, argv, digest, err):
    # Captured when every value was formatted on its own with f"{x:.8e}".
    assert main(["manifold"] + argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


@pytest.mark.parametrize("argv, digest, err", [
    (["surface", "--ring", "1", "--grid", "5"],
     "c12435c2976cd7c441cda5ea5e7cd6b1d1a45bb046ed5589e74e1260e8b7fe42",
     "emitted 12 of 50 candidate branches\n"),
    (["curve", "--grid", "7"],
     "5e112e180c0c8aec036b91207f73cb0f33d879a038042df607fd5aa5bf24e44d",
     "emitted 21 of 21 grid points\n"),
])
def test_sweeps_skip_the_fock_lift(monkeypatch, capsys, argv, digest, err):
    # The sweeps read beta^2 from the stacked closed form; the permanent
    # lift stays the oracle only. Digests captured while the sweeps still
    # lifted every network.
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep reached the Fock lift")

    monkeypatch.setattr(fock, "_lift_block", forbidden)
    monkeypatch.setattr(fock, "_permanent_batch", forbidden)
    assert main(["manifold"] + argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


def _percent_rows(columns, label=None):
    """The reference: every float of the table formatted on its own."""
    prefix = "" if label is None else label + ","
    return "".join(prefix + ",".join(f"{x:.8e}" for x in row) + "\n"
                   for row in zip(*columns))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=6), st.sampled_from(["", "3,"]))
@example([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0], "")
@example([5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 9.99999999e-308], "1,")
@example([sys.float_info.max, -sys.float_info.max, 1e308, 9.999999995e307, 1e-320], "")
def test_manifold_row_format_equals_per_value_format(values, prefix):
    # One row of the table formatter: each value is a column of length 1.
    label = prefix[:-1] or None
    row = _csv.rows([[x] for x in values], label).decode("ascii")
    assert row == prefix + ",".join(f"{x:.8e}" for x in values) + "\n"


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                   -5e-324, 2.2250738585072014e-308, sys.float_info.max,
                   -sys.float_info.max]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=5).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), min_size=0, max_size=30)))
@example([0.0, -0.0, 0.0, -0.0, 0.0])
@example(_SPECIAL_FLOATS + _SPECIAL_FLOATS[::-1])
@example([struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0], math.nan,
          -math.nan, 1e308, 9.999999995e307, 1e-320, 1e-320])
def test_column_equals_per_value_format(values):
    # One column of the table formatter, whose repeated values are formatted
    # once; values are told apart by their bits.
    expected = "".join(f"{x:.8e}\n" for x in values)
    assert _csv.rows([values]).decode("ascii") == expected
    assert _csv.rows([np.array(values, dtype=float)]).decode("ascii") == expected


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 40).flatmap(lambda rows: st.lists(
           st.lists(st.floats(), min_size=rows, max_size=rows), min_size=1, max_size=6)),
       st.sampled_from([None, "1", "2", "3"]))
def test_table_rows_equal_per_value_format(columns, label):
    assert _csv.rows(columns, label).decode("ascii") == _percent_rows(columns, label)


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]


@pytest.mark.parametrize("value", [
    1000000005.0,      # an exact tie, rounded to even
    9.9999999995e5,    # the rounded mantissa carries into the exponent
    1e100, 1e-100, 9.99999999e99,
    1e290, 1e-290,     # the first exponents past those formatted in numpy
    1e289, 1e-289, 9.999999999e289,
    5e-324, _NAN_PAYLOAD, -0.0,
])
def test_table_rows_edge_values(value):
    for x in (value, -value):
        column = [x, 1.0, x, 0.0, -x]
        assert _csv.rows([column]).decode("ascii") == _percent_rows([column])
        assert _csv.rows([column, column[::-1]], "2").decode("ascii") == \
            _percent_rows([column, column[::-1]], "2")


@pytest.mark.parametrize("error", ["ulp up", "ulp down", "+1", "-1"])
def test_table_rows_do_not_depend_on_log10_rounding(monkeypatch, error):
    # The exponent guess reads log10, whose last bit differs between CPUs.
    # A guess moved by that bit must not change a byte, nor must one a whole
    # decade off (those values go through the per-value format).
    log10 = np.log10
    moved = {"ulp up": lambda a: np.nextafter(log10(a), np.inf),
             "ulp down": lambda a: np.nextafter(log10(a), -np.inf),
             "+1": lambda a: log10(a) + 1.0,
             "-1": lambda a: log10(a) - 1.0}[error]
    powers = np.array([10.0 ** k for k in range(-300, 301)])
    rng = np.random.default_rng(7)
    column = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), powers * (1.0 - 2.0 ** -40),
                             rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).view(float)])
    expected = _percent_rows([column.tolist()]).splitlines()
    monkeypatch.setattr(np, "log10", moved)
    assert _csv.rows([column]).decode("ascii").splitlines() == expected


# Run in a child whose numpy dispatches fewer SIMD kernels: formats the
# float64 columns read from stdin, and checks every table the sweeps format
# in that process against the per-value format.
_SIMD_CHILD = """
import contextlib, io, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from ringsim import _csv, cli

if any(__cpu_features__.get(f, True) for f in sys.argv[1].split()):
    sys.exit(77)  # the setting was not applied
rows = _csv.rows

def checked(columns, label=None):
    out = rows(columns, label)
    prefix = "" if label is None else label + ","
    lists = [np.asarray(c, dtype=float).tolist() for c in columns]
    if out.decode() != "".join(prefix + ",".join(_csv.NUM % x for x in row) + "\\n"
                               for row in zip(*lists)):
        sys.exit("the table differs from the per-value format")
    return out

_csv.rows = checked
for argv in (["surface", "--ring", "2", "--grid", "31"], ["curve", "--grid", "201"],
             *(["intersect", "--grid", "1001", "--delta2=" + d]
               for d in ("0", "0.105", "2", "-0.538"))):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["manifold", *argv]) == 0
sys.stdout.buffer.write(rows(np.frombuffer(sys.stdin.buffer.read()).reshape(4, -1)))
"""


# The two SIMD levels below numpy's AVX-512 kernels: an AVX2 CPU (x86-64-v3)
# and baseline x86-64-v2.
_SIMD_LEVELS = ["AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"]


def _run_at_simd_level(disabled, child, stdin=b""):
    """Run the child script in an interpreter whose numpy has the given CPU
    features disabled, and return its completed process. Skips the test
    where this numpy does not run with them disabled; the child exits 77
    when the setting was not applied."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child, disabled],
                          input=stdin, capture_output=True, env=env)
    if proc.returncode == 77 or b"NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip(f"numpy here does not run with {disabled} disabled")
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("disabled", _SIMD_LEVELS)
def test_table_rows_do_not_depend_on_the_simd_level(disabled):
    # log10's last bit changes with numpy's SIMD level; the formatter's bytes
    # must not. Inputs are raw bit patterns and exactly scaled uniforms.
    rng = np.random.default_rng(16)
    columns = np.concatenate([rng.integers(0, 2 ** 64, 6000, dtype=np.uint64).view(float),
                              rng.random(2000) * 2.0 - 1.0]).reshape(4, -1)
    proc = _run_at_simd_level(disabled, _SIMD_CHILD, columns.tobytes())
    assert proc.stdout.splitlines() == _csv.rows(columns).splitlines()


_SIMD_SWEEPS = (["manifold", "surface", "--ring", "2", "--grid", "21"],
                ["manifold", "curve", "--grid", "51", "--tau-min", "-1", "--tau-max", "1"])

# Run in a child whose numpy dispatches fewer SIMD kernels: writes, as JSON,
# the exit code, stdout and stderr of each call's argv read as JSON from stdin.
_SIMD_CALLS_CHILD = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from ringsim import cli

if any(__cpu_features__.get(f, True) for f in sys.argv[1].split()):
    sys.exit(77)  # the setting was not applied
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
json.dump(out, sys.stdout)
"""


def _calls_at_simd_level(disabled, calls, capsys):
    """Run each argv in-process and in a child at the given SIMD level, and
    assert that both give the same exit code, stdout and stderr."""
    expected = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        expected.append([code, captured.out, captured.err])
    proc = _run_at_simd_level(disabled, _SIMD_CALLS_CHILD, json.dumps(calls).encode("ascii"))
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("disabled", _SIMD_LEVELS)
def test_sweep_bytes_do_not_depend_on_the_simd_level(disabled, capsys):
    # The surface and curve sweeps print the same bytes whichever numpy
    # kernels run their arithmetic.
    _calls_at_simd_level(disabled, _SIMD_SWEEPS, capsys)


@pytest.mark.parametrize("disabled", _SIMD_LEVELS)
def test_cnot_bytes_do_not_depend_on_the_simd_level(disabled, tmp_path, capsys):
    # The CNOT composes both gates' six rings in one mounted stack; its
    # truth table and diagnostics print the same bytes at every level.
    path = write_config(tmp_path, _GOLDEN_CNOT_CONFIG)
    _calls_at_simd_level(disabled, [["cnot"], ["cnot", "--probe-phase", "0.3"],
                                    ["cnot", "--config", path],
                                    ["cnot", "--config", path, "--probe-phase", "0.3"]],
                         capsys)


def test_manifold_with_no_rows_prints_the_header(capsys):
    # tau = 1 is skipped, so both grid points of ring 1 are dropped.
    assert main(["manifold", "curve", "--ring", "1", "--grid", "2",
                 "--tau-min", "1", "--tau-max", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "ring,tau,eta,tau_sq,eta_sq,beta_sq\n"
    assert captured.err == "emitted 0 of 2 grid points\n"


@pytest.mark.parametrize("argv", [["surface", "--ring", "2", "--grid", "5"],
                                  ["curve", "--grid", "7"],
                                  ["intersect", "--grid", "11"]])
def test_manifold_output_file_equals_stdout(tmp_path, capsys, argv):
    assert main(["manifold", *argv]) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "sweep.csv"
    assert main(["manifold", *argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode("ascii")


def _count_transfer_calls(monkeypatch):
    """The couplers of every transfer_matrix_stack call made from here on."""
    calls, transfer_matrix_stack = [], ring_module.transfer_matrix_stack

    def counted(couplers):
        calls.append(couplers)
        return transfer_matrix_stack(couplers)

    for module in (ring_module, network_module):
        monkeypatch.setattr(module, "transfer_matrix_stack", counted)
    return calls


@pytest.mark.parametrize("ring", [1, 2, 3])
def test_surface_batch_evaluates_swept_transfers_once(monkeypatch, capsys, ring):
    # Each batch mounts its three slots in one ring stack and evaluates them
    # in one transfer call, while its networks are built: the compensating
    # line phase and the composition share that call's read-only result. The
    # fixed optimal rings of the other slots are built once per process, and
    # every batch of every sweep mounts the same read-only stacks.
    calls, batches = _count_transfer_calls(monkeypatch), []
    surface_stack = cli.surface_stack

    def recorded(*args):
        count = len(calls)
        theta, networks = surface_stack(*args)
        assert calls[count:] == [networks.mounted]
        batches.append(networks)
        return theta, networks

    analysis_module._optimal_ring.cache_clear()
    monkeypatch.setattr(cli, "surface_stack", recorded)
    monkeypatch.setattr(cli, "_BATCH_POINTS", 10)
    for _ in range(2):
        assert main(["manifold", "surface", "--ring", str(ring), "--grid", "5"]) == 0
    capsys.readouterr()
    assert len(batches) == 6  # per sweep, batches of 10, 10 and 5 grid points
    assert len(calls) == 6 and all(c is n.mounted for c, n in zip(calls, batches))
    fixed = [[r for slot, r in enumerate(n.rings, 1) if slot != ring] for n in batches]
    for networks, stacks in zip(batches, fixed):
        mounted = networks.mounted
        for array in (*networks.transfers, mounted.tau, mounted.eta, mounted.theta,
                      mounted.phi, mounted.kappa, mounted.gamma):
            assert not array.flags.writeable
        assert all(a is b for a, b in zip(stacks, fixed[0]))
        assert all(not getattr(r, field).flags.writeable for r in stacks
                   for field in ("tau", "eta", "theta", "phi", "kappa", "gamma"))


def test_curve_batch_judges_each_point_once(monkeypatch, capsys):
    # A curve batch judges its grid points with one call of the ring mask,
    # and mounts the kept ones unchecked: no CouplerStack validates them
    # again. The grid reaches outside [-1, 1], so the mask skips points.
    argv = ["manifold", "curve", "--grid", "7", "--tau-min", "-1.5", "--tau-max", "1.5"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    calls, passes = [], ring_module._passes

    def counted(*fields):
        calls.append(len(fields[0]))
        return passes(*fields)

    def validated(self):
        raise AssertionError("a curve batch built a validated CouplerStack")

    analysis_module._optimal_ring.cache_clear()
    for module in (ring_module, analysis_module):
        monkeypatch.setattr(module, "_passes", counted)
    monkeypatch.setattr(CouplerStack, "__post_init__", validated)
    monkeypatch.setattr(cli, "_BATCH_POINTS", 3)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.err == "emitted 9 of 21 grid points\n"
    assert calls == [3, 3, 1] * 3  # one call per batch, three batches per ring


def test_cnot_evaluates_its_six_rings_in_one_transfer_call(monkeypatch, tmp_path, capsys):
    # Both gates' rings are mounted in one stack, composed in one call.
    calls = _count_transfer_calls(monkeypatch)
    assert main(["cnot"]) == 0
    assert main(["cnot", "--config", write_config(tmp_path, _GOLDEN_CNOT_CONFIG),
                 "--probe-phase", "0.3"]) == 0
    capsys.readouterr()
    assert [len(c) for c in calls] == [6, 6]


def test_manifold_intersect_zero_line_phase_has_no_negative_zero(capsys):
    assert main(["manifold", "intersect", "--delta2", "0", "--grid", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    for line in lines[1:]:
        assert "-0.00000000e+00" not in line
        assert math.copysign(1.0, float(line.split(",")[2])) == 1.0


def test_optimize_report(capsys):
    assert main(["optimize"]) == 0
    out = capsys.readouterr().out
    report = parse_report(out)
    assert report["t1_closed_form"] == "9.10179721e-01"
    assert report["t2_closed_form"] == "5.46918161e-01"
    assert abs(float(report["t1_numeric"]) - T1_OPTIMAL) < 1e-9
    assert abs(float(report["t2_numeric"]) - T2_OPTIMAL) < 1e-9
    assert report["corrected_peak"].startswith("2.50000000e-01")
    assert report["printed_peak"].startswith("1.03553391e-01")
    assert "1 + sqrt(2)" in out


_DEFAULT_CNOT_OUT = (
    "control_in,target_in,control_out,target_out,probability,fidelity,leakage\n"
    "0,0,0,0,6.25000000e-02,1.00000000e+00,0.00000000e+00\n"
    "0,1,0,1,6.25000000e-02,1.00000000e+00,0.00000000e+00\n"
    "1,0,1,1,6.25000000e-02,1.00000000e+00,0.00000000e+00\n"
    "1,1,1,0,6.25000000e-02,1.00000000e+00,0.00000000e+00\n")
_DEFAULT_CNOT_ERR = ("bell_overlap = 1.00000000e+00\n"
                     "herald_probability = 6.25000000e-02\n")


def test_cnot_default(capsys):
    assert main(["cnot"]) == 0
    captured = capsys.readouterr()
    assert captured.out == _DEFAULT_CNOT_OUT
    assert captured.err == _DEFAULT_CNOT_ERR


def test_cnot_skips_the_generic_fock_state_path(monkeypatch, capsys):
    # The CNOT checks read their heralded block directly; the generic
    # evolve/project machinery stays as their oracle only.
    def forbidden(*args, **kwargs):
        raise AssertionError("the cnot path reached the generic Fock state path")

    monkeypatch.setattr(fock.SectoredState, "__init__", forbidden)
    monkeypatch.setattr(fock.SectoredState, "amplitude_of", forbidden)
    assert main(["cnot"]) == 0
    captured = capsys.readouterr()
    assert captured.out == _DEFAULT_CNOT_OUT
    assert captured.err == _DEFAULT_CNOT_ERR


def _seeded_cnot_config():
    rng = np.random.default_rng(15)
    return {key: {"rings": [{"tau": r.tau, "eta": r.eta, "theta": r.theta}
                            for r in curve_network(*rng.uniform(0.0, 0.9, 3)).rings]}
            for key in ("gate_a", "gate_b")}


def test_cnot_skips_the_fock_lift(monkeypatch, tmp_path, capsys):
    # build_cnot reads its heralded block from the two gates' beta: once the
    # fixed interferometers' two-photon lifts are cached, no permanent runs.
    # The digests of stdout and stderr are those of the 8-mode lift.
    assert main(["cnot"]) == 0
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("the cnot path reached the Fock lift")

    for module, name in ((fock, "_lift_block"), (fock, "_permanent_batch"),
                         (cnot_module, "_lift_block")):
        monkeypatch.setattr(module, name, forbidden)
    path = write_config(tmp_path, _seeded_cnot_config())
    for argv, digest in [
        (["cnot"], "25ea5000c20d205243922a510b45f308e1c2a99b43d7e17b34e2a3421ded4913"),
        (["cnot", "--probe-phase", "0.3"],
         "f08ba7e31b926cd01c18d039298fd669686bc50415fbe070bb488367556e0bc9"),
        (["cnot", "--config", path, "--probe-phase", "-2.5"],
         "d8e006af5f99b4efb9f5369d32ff23e3309d21b1f7a48f7568e98ae27e1f880c"),
    ]:
        assert main(argv) == 0
        captured = capsys.readouterr()
        both = json.dumps([captured.out, captured.err]).encode()
        assert hashlib.sha256(both).hexdigest() == digest, argv


# Two gates on the resonant optimal curve (lower couplers 0.35, 0.1, 0.6 and
# 0.7, 0.45, 0.2), written out so the pinned output below depends on nothing
# but the CNOT simulation.
_GOLDEN_CNOT_CONFIG = {
    "gate_a": {"rings": [
        {"tau": 0.35, "eta": 0.9557221114266732, "theta": 6.283185307179586},
        {"tau": 0.1, "eta": 0.6133717459664435, "theta": 6.283185307179586},
        {"tau": 0.6, "eta": 0.9767622213723187, "theta": 6.283185307179586}]},
    "gate_b": {"rings": [
        {"tau": 0.7, "eta": 0.9835406151537832, "theta": 6.283185307179586},
        {"tau": 0.45, "eta": 0.8000221671952046, "theta": 6.283185307179586},
        {"tau": 0.2, "eta": 0.9392097816893757, "theta": 6.283185307179586}]},
}


def test_cnot_probe_phase_output_is_pinned(tmp_path, capsys):
    # At probe phase 0 every row prints 1/16, 1 and 0 whatever the gates, so
    # a numeric drift shows only with the interference broken.
    path = write_config(tmp_path, _GOLDEN_CNOT_CONFIG)
    assert main(["cnot", "--config", path, "--probe-phase", "0.3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "control_in,target_in,control_out,target_out,probability,fidelity,leakage\n"
        "0,0,0,0,6.25000000e-02,9.83251183e-01,1.11658777e-02\n"
        "0,1,0,1,6.25000000e-02,9.83251183e-01,1.11658777e-02\n"
        "1,0,1,1,6.25000000e-02,9.39585087e-01,5.48319740e-02\n"
        "1,1,1,0,6.25000000e-02,9.39585087e-01,5.48319740e-02\n")
    assert captured.err == ("bell_overlap = 9.77732005e-01\n"
                            "herald_probability = 6.25000000e-02\n")


def test_cnot_detuned_gate_fails(tmp_path, capsys):
    cfg = {"gate_a": {"rings": [ring_entry(1, theta=0.3), ring_entry(2),
                                ring_entry(3)]}}
    assert main(["cnot", "--config", write_config(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert "constraint violation" in err
    assert "residual = " in err


def test_cnot_errors_name_the_gate_in_gate_order(tmp_path, capsys):
    detuned = {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}
    # A balanced ring (eta = tau on resonance) has zero through amplitude,
    # so its gate meets the constraints with beta0 = 0 and never heralds.
    balanced = {"rings": [{"tau": 0.5, "eta": 0.5, "theta": TWO_PI},
                          ring_entry(2), ring_entry(3)]}
    optimal = {"rings": [ring_entry(s) for s in (1, 2, 3)]}
    # Outer rings tau = eta on resonance and a fully transmitting middle ring
    # with delta2 = pi put the loop gain exactly at 1.
    pole = {"rings": [{"tau": 0.5, "eta": 0.5, "theta": TWO_PI},
                      {"tau": 1.0, "eta": 0.0, "theta": TWO_PI, "delta": math.pi},
                      {"tau": 0.5, "eta": 0.5, "theta": TWO_PI}]}
    cases = [({"gate_a": optimal, "gate_b": detuned}, 4, "gate B violates"),
             ({"gate_a": detuned, "gate_b": balanced}, 4, "gate A violates"),
             ({"gate_a": balanced, "gate_b": optimal}, 4, "gate A never heralds"),
             ({"gate_a": detuned, "gate_b": pole}, 4, "gate A violates"),
             ({"gate_a": pole, "gate_b": optimal}, 3,
              "numerical error: gate A: loop gain b3 c1 d2 e^(-i delta2) = 1\n"),
             ({"gate_a": optimal, "gate_b": pole}, 3,
              "numerical error: gate B: loop gain b3 c1 d2 e^(-i delta2) = 1\n")]
    for cfg, code, message in cases:
        assert main(["cnot", "--config", write_config(tmp_path, cfg)]) == code
        assert message in capsys.readouterr().err


def test_cached_parser_keeps_calls_apart(tmp_path, monkeypatch):
    # The parser is built once; each call must still see only its own
    # arguments and the defaults, whatever ran before it.
    seen = []
    for name in ("cmd_smatrix", "cmd_verify", "cmd_manifold", "cmd_optimize",
                 "cmd_cnot"):
        monkeypatch.setattr(cli, name,
                            lambda args, name=name: seen.append((name, vars(args))) or 0)
    config = optimal_config(tmp_path)
    manifold = {"command": "manifold", "config": None, "ring": 0, "grid": None,
                "tau_min": 0.0, "tau_max": 0.999, "delta2": math.pi / 30.0,
                "output": None}
    calls = [
        (["manifold", "curve", "--ring", "2", "--grid", "5", "--tau-min", "0.2",
          "--tau-max", "0.5", "--delta2", "1.5", "--output", "x.csv"],
         dict(manifold, kind="curve", ring=2, grid=5, tau_min=0.2, tau_max=0.5,
              delta2=1.5, output="x.csv")),
        (["manifold", "intersect"], dict(manifold, kind="intersect")),
        (["cnot", "--config", config, "--tolerance", "1e-6", "--probe-phase", "0.3"],
         {"command": "cnot", "config": config, "tolerance": 1e-6,
          "probe_phase": 0.3, "output": None}),
        (["cnot"], {"command": "cnot", "config": None, "tolerance": None,
                    "probe_phase": 0.0, "output": None}),
        (["verify", "--config", config, "--alpha", "1,0,0", "--tolerance", "1e-3"],
         {"command": "verify", "config": config, "alpha": "1,0,0",
          "tolerance": 1e-3, "output": None}),
        (["verify", "--config", config],
         {"command": "verify", "config": config, "alpha": None,
          "tolerance": None, "output": None}),
        (["smatrix", "--config", config, "--closed-form"],
         {"command": "smatrix", "config": config, "closed_form": True,
          "output": None}),
        (["smatrix", "--config", config],
         {"command": "smatrix", "config": config, "closed_form": False,
          "output": None}),
        (["optimize"], {"command": "optimize", "output": None}),
    ]
    for _ in range(2):
        for argv, expected in calls:
            assert main(argv) == 0
            assert seen.pop() == ("cmd_" + argv[0], expected)
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [
    ["manifold", "curve", "--grid", "x"],
    ["manifold", "curve", "--ring", "5"],
    ["cnot", "--probe-phase"],
    ["verify"],
    ["frobnicate"],
    [],
])
def test_cached_parser_still_rejects_bad_arguments(argv, capsys):
    assert main(["optimize"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "usage: ringsim" in capsys.readouterr().err
    assert main(["optimize"]) == 0
    assert capsys.readouterr().out == first


def test_missing_field_is_named(tmp_path, capsys):
    cfg = {"rings": [ring_entry(1), ring_entry(2, drop="eta"), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 2
    assert "rings[1].eta" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["smatrix", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["smatrix"], ["verify"], ["manifold", "surface"], ["cnot"]])
@pytest.mark.parametrize("raw, reason", [
    (b'{"rings": "\xff"}', "'utf-8' codec can't decode"),
    (b'\xef\xbb\xbf{"rings": []}', "Unexpected UTF-8 BOM"),
    (b'{"grid": ' + b"1" * 5000 + b"}", "Exceeds the limit")])
def test_config_that_is_not_utf8_json_exits_2(tmp_path, capsys, argv, raw, reason):
    # Every subcommand that reads --config: one error line, no traceback.
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: config {path} is not valid JSON: {reason}")
    assert len(captured.err.splitlines()) == 1


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["smatrix", "--config", str(path)]) == 2


def _rings_with(i, entry):
    """The README optimal rings with ring i replaced by ``entry``."""
    rings = list(_README_OPTIMAL_CONFIG["rings"])
    rings[i] = entry
    return rings


_ON_CURVE = _README_OPTIMAL_CONFIG["rings"][0]
_SMATRIX, _VERIFY = ["smatrix", "--config", "{cfg}"], ["verify", "--config", "{cfg}"]


# One case per site in cli.py that reports bad input: argv ("{cfg}" is the
# config path, "{dir}" the test's directory), the config written (raw bytes,
# an object, or None for no file), and the whole stderr line.
@pytest.mark.parametrize("argv, cfg, message", [
    (["smatrix", "--config", "{dir}/none.json"], None,
     "cannot read config {dir}/none.json: [Errno 2] No such file or directory: "
     "'{dir}/none.json'"),
    (_SMATRIX, b"{", "config {cfg} is not valid JSON: Expecting property name enclosed "
                     "in double quotes: line 1 column 2 (char 1)"),
    (_SMATRIX, [1, 2], "config root must be a JSON object"),
    (_SMATRIX, {"rings": _rings_with(1, {"tau": 0.0, "theta": 0.0})},
     "missing field rings[1].eta"),
    (_SMATRIX, {"rings": _rings_with(0, dict(_ON_CURVE, tau="x"))},
     "field rings[0].tau must be a number, got 'x'"),
    (_SMATRIX, {"rings": _rings_with(2, dict(_ON_CURVE, delta=float("inf")))},
     "field rings[2].delta must be finite, got inf"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, tolerance=0),
     "field config.tolerance must be positive, got 0.0"),
    (_SMATRIX, {"rings": _README_OPTIMAL_CONFIG["rings"][:2]},
     "rings must be a list of exactly 3 ring objects"),
    (_SMATRIX, {"rings": _rings_with(1, [0.0, 0.5])}, "rings[1] must be an object"),
    (_SMATRIX, {"rings": _rings_with(0, dict(_ON_CURVE, eta=-1.5))},
     "rings[0]: eta must lie in [-1, 1], got -1.5"),
    (_VERIFY + ["--alpha", "1,2"], _README_OPTIMAL_CONFIG,
     "--alpha needs 3 comma-separated complex numbers"),
    (_VERIFY + ["--alpha", "1,x,1"], _README_OPTIMAL_CONFIG,
     "cannot parse --alpha: complex() arg is a malformed string"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, alpha=[[1, 0], [0, 0]]),
     "config alpha must be 3 [re, im] pairs"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, alpha=[[1, 0], [None, 0], [0, 0]]),
     "bad alpha entry: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, alpha=[[1, 0], [0, float("-inf")], [0, 0]]),
     "alpha must be finite, got [(1+0j), -infj, 0j]"),
    (_VERIFY + ["--alpha", "1e200,1e200,0"], _README_OPTIMAL_CONFIG,
     "alpha too large to normalize: [(1e+200+0j), (1e+200+0j), 0j]"),
    (_VERIFY + ["--alpha", "0,0j,-0"], _README_OPTIMAL_CONFIG, "alpha must not be all zero"),
    (["optimize", "--output", "{dir}/none/out.txt"], None,
     "cannot write output {dir}/none/out.txt: [Errno 2] No such file or directory: "
     "'{dir}/none/out.txt'"),
    (_SMATRIX + ["--closed-form"], {"rings": _rings_with(0, dict(_ON_CURVE, theta=0.3))},
     "--closed-form is valid on resonance with zero line phases only"),
    (["manifold", "curve", "--config", "{cfg}"], {"grid": 2.5},
     "field config.grid must be a whole number, got 2.5"),
    (["manifold", "surface", "--grid", "1"], None, "grid must have at least 2 points"),
    (["manifold", "intersect", "--grid", "1000001"], None,
     "1000001 grid points, more than 10^6"),
    (["cnot", "--config", "{cfg}"], {"gate_b": []}, "gate_b must be an object"),
])
def test_config_error_sites_print_one_pinned_line(tmp_path, capsys, argv, cfg, message):
    # Every bad input is a DomainError: exit 2, nothing on stdout and one
    # stderr line, "config error: " and the site's message.
    path = tmp_path / "cfg.json"
    if cfg is not None:
        path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    names = {"cfg": path, "dir": tmp_path}
    assert main([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message.format(**names)}\n"


@pytest.mark.parametrize("argv, cfg, message", [
    (_SMATRIX, {"rings": _rings_with(0, dict(_ON_CURVE, tau="0.0"))},
     "field rings[0].tau must be a number, got '0.0'"),
    (_SMATRIX, {"rings": _rings_with(1, {"tau": 0.0, "eta": True, "theta": 0.0})},
     "field rings[1].eta must be a number, got True"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, tolerance="1e-3"),
     "field config.tolerance must be a number, got '1e-3'"),
    (["manifold", "curve", "--config", "{cfg}"], {"grid": "5"},
     "field config.grid must be a number, got '5'"),
    (["manifold", "curve", "--config", "{cfg}"], {"grid": True},
     "field config.grid must be a number, got True"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, alpha=[[1, 0], ["1", 0], [0, 0]]),
     "bad alpha entry: must be a number, got '1'"),
    (_VERIFY, dict(_README_OPTIMAL_CONFIG, alpha=[[1, 0], [0, 0], [0, False]]),
     "bad alpha entry: must be a number, got False"),
])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, argv, cfg, message):
    # float() converts the strings "0.0" and "1e-3" and the booleans true and
    # false too; a config field that is not a JSON number is bad input.
    path = write_config(tmp_path, cfg)
    assert main([a.format(cfg=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_output_file_option(tmp_path):
    out_path = tmp_path / "matrix.json"
    assert main(["smatrix", "--config", optimal_config(tmp_path),
                 "--output", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert "matrix" in data


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ringsim.cli", "optimize"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "t1_closed_form" in proc.stdout


@pytest.mark.parametrize("command", [
    ["smatrix"], ["verify"], ["manifold", "curve", "--grid", "7"], ["optimize"], ["cnot"],
])
@pytest.mark.parametrize("where, reason", [("missing/dir/out.txt", "No such file or directory"),
                                           (".", "Is a directory")])
def test_unwritable_output_is_config_error(tmp_path, capsys, command, where, reason):
    argv = list(command)
    if command[0] in ("smatrix", "verify"):
        argv += ["--config", optimal_config(tmp_path)]
    target = tmp_path / where
    assert main(argv + ["--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"config error: cannot write output {target}: ")
    assert reason in last


def test_console_script_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "missing" / "x"
    proc = subprocess.run([sys.executable, "-m", "ringsim.cli", "optimize",
                           "--output", str(target)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"config error: cannot write output {target}: "
                           f"[Errno 2] No such file or directory: '{target}'\n")


# The exit-code contract over random calls of the commands that read input.
# Every strategy is built once here: hypothesis spends more time building a
# strategy than drawing from it.
_coin = st.booleans()
_quarter = st.integers(0, 3).map(lambda k: k == 0)
_junk = st.sampled_from([float("nan"), float("inf"), -float("inf"), "x", "0.5", None,
                         [], {}, True, 1e308])
_numbers = st.one_of(st.floats(-1.2, 1.2), st.floats(-7.0, 7.0),
                     st.sampled_from([0.0, 1.0, -1.0, 0.5]), _junk)
_ring_kinds = st.sampled_from(["curve", "curve", "curve", "random", "other"])
_not_objects = st.sampled_from([None, 1.0, "ring", []])
_curve_taus = st.floats(0.0, 0.95)
_detunings = st.sampled_from([0.0, 0.0, 1e-12, 0.3, -TWO_PI])
_dropped = st.sampled_from([None] * 15 + ["tau", "eta", "theta", "delta", "phi"])


@st.composite
def _ring_objects(draw, slot):
    """A ring object: on its slot's optimal curve, maybe detuned, or with
    random or junk fields, a field missing, or not an object at all."""
    kind = draw(_ring_kinds)
    if kind == "other":
        return draw(_not_objects)
    if kind == "curve":
        entry = ring_entry(slot, tau=draw(_curve_taus))
        entry["theta"] += draw(_detunings)
    else:
        entry = {name: draw(_numbers) for name in ("tau", "eta", "theta")}
    for name in ("delta", "phi"):
        if draw(_quarter):
            entry[name] = draw(_numbers)
    entry.pop(draw(_dropped), None)
    return entry


# A network on its feedback-loop pole: |1 - L| = 0.
_POLE_RINGS = [{"tau": 0.5, "eta": 0.5, "theta": TWO_PI},
               {"tau": 1.0, "eta": 0.0, "theta": TWO_PI, "delta": math.pi},
               {"tau": 0.5, "eta": 0.5, "theta": TWO_PI}]
_ring_triples = st.tuples(*(_ring_objects(slot) for slot in (1, 2, 3))).map(list)
_networks = st.one_of(_ring_triples, _ring_triples, _ring_triples,
                      _ring_triples.map(lambda rings: rings[:2]),
                      st.sampled_from(["rings", _POLE_RINGS])).map(lambda r: {"rings": r})

_option_numbers = st.one_of(st.floats(-2.0, 2.0).map(repr), st.sampled_from(
    ["0", "-0", "1e-12", "nan", "inf", "-inf", "abc", ""]))
_alphas = st.sampled_from(["1,1,1", "1,1,0", "0,0,0", "1j,0.5,0.5", "1,2", "1,x,1",
                           "nan,0,1"])
_commands = st.sampled_from(["smatrix", "verify", "cnot", "manifold"])
_kinds = st.sampled_from(["curve", "surface", "intersect"])
_slots = st.sampled_from(["0", "1", "2", "3", "4", "x"])
_grids = st.sampled_from(["-1", "0", "1", "2", "3", "7", "x"])
_config_grids = st.sampled_from([0, 2, 2.5, 5, "x", None])
_eighth = st.integers(0, 7).map(lambda k: k == 0)
# Config files that are not UTF-8 JSON text: a stray byte, a UTF-8 BOM,
# UTF-16, or random bytes.
_raw_configs = st.one_of(st.sampled_from([b'{"rings": "\xff"}', b'\xef\xbb\xbf{"rings": []}',
                                          '{"rings": []}'.encode("utf-16"),
                                          b'{"grid": ' + b"9" * 4301 + b"}"]),
                         st.binary(max_size=24))


def _option(draw, name, values):
    return [name, draw(values)] if draw(_coin) else []


@st.composite
def _cli_calls(draw):
    """argv of a random smatrix, verify, cnot or manifold call, and the
    config it reads (None for no --config)."""
    command = draw(_commands)
    argv, cfg = [command], None
    if command == "smatrix":
        cfg = draw(_networks)
        argv += ["--closed-form"] if draw(_coin) else []
    elif command == "verify":
        cfg = draw(_networks)
        argv += _option(draw, "--alpha", _alphas)
        argv += _option(draw, "--tolerance", _option_numbers)
        if draw(_quarter):
            cfg["tolerance"] = draw(_numbers)
    elif command == "cnot":
        cfg = {key: draw(_networks) for key in ("gate_a", "gate_b") if draw(_coin)}
        argv += _option(draw, "--tolerance", _option_numbers)
        argv += _option(draw, "--probe-phase", _option_numbers)
    else:
        argv += [draw(_kinds)]
        argv += _option(draw, "--ring", _slots)
        argv += _option(draw, "--grid", _grids)
        for name in ("--tau-min", "--tau-max", "--delta2"):
            argv += _option(draw, name, _option_numbers)
        if draw(_coin):
            cfg = {"grid": draw(_config_grids)}
    if cfg is not None:
        argv += ["--config", None]
        if draw(_eighth):
            cfg = draw(_raw_configs)
    if draw(_eighth):
        argv += ["--output", str(Path("missing", "dir", "out"))]
    return argv, cfg


# 30 examples keep the test under 0.5 s.
@settings(deadline=None, max_examples=30)
@given(_cli_calls())
# A constraint violation, diagnostics before an unwritable output, and the
# alpha warning before an error exit.
@example((["cnot", "--config", None],
          {"gate_a": {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}}))
@example((["cnot", "--output", str(Path("missing", "dir", "out"))], None))
@example((["cnot", "--config", None], b'{"gate_a": "\xff"}'))
@example((["manifold", "curve", "--grid", "3", "--output", str(Path("missing", "out"))], None))
@example((["verify", "--alpha", "1,1,0", "--config", None],
          {"rings": [ring_entry(1), ring_entry(2), ring_entry(3)], "tolerance": -1.0}))
def test_cli_exit_code_contract(tmp_path_factory, call):
    # Every call exits 0, 2, 3 or 4 with no traceback; exit 0 prints no NaN
    # or inf. An error exit writes one stderr line, or argparse's usage and
    # error lines; verify's exit 4 is a report on stdout.
    argv, cfg = call
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    argv = [str(path) if a is None else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exit_:
            code, by_argparse = exit_.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, cfg, err)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), (argv, cfg, out)
    elif by_argparse:
        lines = err.splitlines()
        assert code == 2 and err.startswith("usage: ringsim ")
        assert [": error: " in line for line in lines] == [False] * (len(lines) - 1) + [True]
    elif out:
        assert argv[0] == "verify" and code == 4, (argv, cfg, out)
        assert out.endswith("constraints not satisfied\n")
        assert err in ("", "warning: alpha renormalized\n")
    else:
        assert len(err.splitlines()) == 1, (argv, cfg, err)
