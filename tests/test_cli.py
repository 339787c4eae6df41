"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ringsim import (SUCCESS_PATTERN, NetworkParams, NlpsgInput, T1_OPTIMAL,
                     T2_OPTIMAL, build_coupler, compensated_network,
                     compose_scattering, curve_ring, evolve, invert_effective,
                     project, surface_theta)
from ringsim import cli
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


def test_smatrix_closed_form_rejected_off_resonance(tmp_path, capsys):
    cfg = {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}
    code = main(["smatrix", "--config", write_config(tmp_path, cfg),
                 "--closed-form"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_smatrix_pole_is_numerical_error(tmp_path, capsys):
    cfg = {"rings": [{"tau": 1.0, "eta": 1.0, "theta": 0.0},
                     ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_smatrix_singular_pivot_is_numerical_error(tmp_path, capsys):
    cfg = {"rings": [{"tau": 0.4, "eta": 0.4, "theta": TWO_PI},
                     ring_entry(2), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 3
    assert "numerical error" in capsys.readouterr().err


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
                net = compensated_network(*rings)
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


def test_cnot_default(capsys):
    assert main(["cnot"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[4]) - 0.0625) < 1e-9
        assert abs(float(fields[5]) - 1.0) < 1e-9
    overlap = float(parse_report(captured.err)["bell_overlap"])
    assert overlap > 1.0 - 1e-9


def test_cnot_detuned_gate_fails(tmp_path, capsys):
    cfg = {"gate_a": {"rings": [ring_entry(1, theta=0.3), ring_entry(2),
                                ring_entry(3)]}}
    assert main(["cnot", "--config", write_config(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    assert "constraint violation" in err
    assert "residual = " in err


def test_missing_field_is_named(tmp_path, capsys):
    cfg = {"rings": [ring_entry(1), ring_entry(2, drop="eta"), ring_entry(3)]}
    assert main(["smatrix", "--config", write_config(tmp_path, cfg)]) == 2
    assert "rings[1].eta" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["smatrix", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["smatrix", "--config", str(path)]) == 2


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
