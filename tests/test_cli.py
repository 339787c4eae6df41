"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsim import (SUCCESS_PATTERN, CouplerStack, NetworkParams, NetworkStack, NlpsgInput,
                     T1_OPTIMAL, T2_OPTIMAL, build_coupler, compensated_network_stack,
                     compose_scattering, curve_ring, curve_stack, evolve,
                     invert_effective, project, surface_theta)
from ringsim import _csv, cli, fock
from ringsim import analysis as analysis_module
from ringsim import cnot as cnot_module
from ringsim import network as network_module
from ringsim import ring as ring_module
from ringsim.cli import main

import replay

TWO_PI = 2.0 * math.pi

# Every pinned CLI call, by name: the tests/golden/ corpus and the
# deep-config calls.
_PINNED = replay.cases()


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


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_call(tmp_path, name):
    # Exit code, stdout and stderr of the call, run in process with warnings
    # turned into errors.
    replay.replay(_PINNED[name], replay.in_process, tmp_path)


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
    rings = [dict(r) for r in _PINNED["smatrix_readme"]["config"]["rings"]]
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


@pytest.mark.parametrize("entry", [{"re": 1}, [1, 0, 7], [1], 1.0, "10", [10 ** 400, 0]])
def test_config_alpha_entry_must_be_a_pair_of_numbers(tmp_path, capsys, entry):
    cfg = dict(_PINNED["smatrix_readme"]["config"], alpha=[entry, [0, 0], [0, 0]])
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
            lines.append(",".join([str(ring), _fmt(c.tau), _fmt(c.eta), _fmt(c.tau * c.tau),
                                   _fmt(c.eta * c.eta), _fmt(beta_sq)]))
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
    # Small grids split into batches of 3; the default surface grid, one
    # batch at the default size, into batches of 4096.
    default = cli._BATCH_POINTS
    cases = ((["manifold", "surface", "--ring", "2", "--grid", "5"], 3),
             (["manifold", "curve", "--grid", "7"], 3),
             *((["manifold", "surface", "--ring", str(ring), "--grid", "101"], 4096)
               for ring in (1, 2, 3)))
    for argv, batch in cases:
        monkeypatch.setattr(cli, "_BATCH_POINTS", default)
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(cli, "_BATCH_POINTS", batch)
        assert main(argv) == 0
        assert capsys.readouterr() == expected


def test_default_surface_grid_runs_as_one_batch(monkeypatch, capsys):
    sizes, surface_stack = [], cli.surface_stack

    def counted(slot, eta, tau):
        sizes.append(len(eta))
        return surface_stack(slot, eta, tau)

    monkeypatch.setattr(cli, "surface_stack", counted)
    assert main(["manifold", "surface"]) == 0
    capsys.readouterr()
    assert sizes == [101 * 101]


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


@pytest.mark.parametrize("name", ["manifold_surface_ring1_grid5", "manifold_curve_grid7"])
def test_sweeps_skip_the_fock_lift(monkeypatch, tmp_path, name):
    # The sweeps read beta^2 from the stacked closed form; the permanent
    # lift stays the oracle only. The pins were captured while the sweeps
    # still lifted every network.
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep reached the Fock lift")

    monkeypatch.setattr(fock, "_lift_block", forbidden)
    monkeypatch.setattr(fock, "_permanent_batch", forbidden)
    replay.replay(_PINNED[name], replay.in_process, tmp_path)


def test_manifold_curve_squares_are_correctly_rounded(monkeypatch, capsys):
    # The oracle squares each coupler exactly in Fraction and rounds once,
    # with neither numpy nor libm. Both the doubles handed to the formatter
    # and the printed cells must match it.
    grid = np.linspace(-1.0, 1.0, 1001)
    handed = []
    rows = _csv.rows

    def recording_rows(columns, label=None):
        handed.append((label, [np.asarray(c, dtype=float).copy() for c in columns]))
        return rows(columns, label)

    monkeypatch.setattr(_csv, "rows", recording_rows)
    assert main(["manifold", "curve", "--ring", "0", "--grid", "1001",
                 "--tau-min", "-1", "--tau-max", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for ring in (1, 2, 3):
        swept = curve_stack(grid, ring).rings[ring - 1]
        cells = [line.split(",") for line in lines if line.startswith(f"{ring},")]
        batches = [batch for label, batch in handed if label == str(ring)]
        assert len(cells) == len(swept) > 0
        for field, x in ((3, swept.tau), (4, swept.eta)):
            exact = [float(Fraction(v) ** 2) for v in x.tolist()]
            assert [cell[field] for cell in cells] == [_csv.NUM % v for v in exact]
            handed_squares = np.concatenate([batch[field - 1] for batch in batches])
            assert handed_squares.tobytes() == np.array(exact).tobytes()


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
    # One column of the table formatter, with repeated values and values that
    # differ only in their bits: 0.0 and -0.0, NaNs of different payloads.
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


def test_table_rows_near_rounding_ties():
    # Decimals of 10 significant digits ending in 5 lie on a tie of the
    # 9-digit format, which the nearest float misses by under an ulp. The
    # formatter's one-product mantissa is off by up to 1.8e-7, so these and
    # their float neighbours must reach the per-value format through the tie
    # band. 1073741815 is the last such digit string under 2**30, 9999999995
    # the largest, which carries into the exponent.
    rng = np.random.default_rng(25)
    digits = np.concatenate([[1000000005, 1073741815, 9999999995],
                             rng.integers(10 ** 8, 10 ** 9, 40) * 10 + 5])
    exponents = np.arange(-289, 290)
    ties = np.array([float(f"{d}e{e - 9}") for d in digits.tolist()
                     for e in rng.choice(exponents, 30).tolist() + [-289, 0, 289]])
    column = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    column = np.concatenate([column, -column])
    expected = "".join(_csv.NUM % x + "\n" for x in column.tolist())
    assert _csv.rows([column]).decode("ascii") == expected
    assert _csv.rows([column, column[::-1]], "2").decode("ascii") == \
        _percent_rows([column.tolist(), column[::-1].tolist()], "2")


_INDEXED_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS + [_NAN_PAYLOAD])


@st.composite
def _mixed_columns(draw):
    """Columns of equal length, each a list of floats or a (values, index)
    pair of lists."""
    rows, columns = draw(st.integers(0, 20)), []
    for indexed in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        if indexed:
            values = draw(st.lists(_INDEXED_FLOATS, min_size=1, max_size=8))
            columns.append((values, draw(st.lists(st.integers(0, len(values) - 1),
                                                  min_size=rows, max_size=rows))))
        else:
            columns.append(draw(st.lists(st.floats(), min_size=rows, max_size=rows)))
    return columns


@settings(deadline=None, max_examples=200)
@given(_mixed_columns(), st.sampled_from([None, "1", "2", "3"]))
# Repeated indices, 0.0 and -0.0, NaN payloads; indexed columns before,
# between and after plain ones.
@example([([0.0, -0.0, _NAN_PAYLOAD, math.nan, -math.nan], [1, 0, 1, 2, 3, 4, 2]),
          [1.0, -1.0, 0.0, -0.0, 1e-300, 1e300, math.inf],
          ([2.5e-7], [0] * 7), [5e-324] * 7,
          ([-0.0, 0.0], [0, 1, 1, 0, 0, 1, 1])], "2")
@example([([0.5, -0.0], []), [], ([], [])], None)  # empty indices
@example([([0.05, 0.98], [0, 0, 1]), ([0.05, 0.98], [1, 1, 0]), [0.1, 0.2, 0.3]], "1")
def test_indexed_columns_equal_per_value_format(columns, label):
    handed = [(np.array(c[0], dtype=float), np.array(c[1], dtype=np.intp))
              if isinstance(c, tuple) else c for c in columns]
    expanded = [[c[0][i] for i in c[1]] if isinstance(c, tuple) else c for c in columns]
    assert _csv.rows(handed, label).decode("ascii") == _percent_rows(expanded, label)


@pytest.mark.parametrize("columns", [
    [[1.0], [1.0, 2.0]], [[1.0, 2.0], [1.0]],
    [([1.0], [0, 0]), [1.0]], [[1.0, 2.0], ([1.0, 2.0], [1])],
])
def test_table_rows_reject_columns_of_unequal_length(columns):
    # A short column must not be broadcast over the rows.
    with pytest.raises(ValueError):
        _csv.rows(columns)


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
    lists = [(np.asarray(c[0], dtype=float)[c[1]] if isinstance(c, tuple)
              else np.asarray(c, dtype=float)).tolist() for c in columns]
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


def _run_at_simd_level(disabled, child, stdin=b"", args=()):
    """Run the child script, with warnings turned into errors, in an
    interpreter whose numpy has the given CPU features disabled, and return
    its completed process. Skips the test where this numpy does not run
    with them disabled; the child exits 77 when the setting was not applied."""
    path = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", child, disabled, *args],
                          input=stdin, capture_output=True, env=env)
    if proc.returncode == 77 or b"NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip(f"numpy here does not run with {disabled} disabled")
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("disabled", _SIMD_LEVELS)
def test_table_rows_do_not_depend_on_the_simd_level(disabled):
    # log10's last bit changes with numpy's SIMD level; the formatter's bytes
    # must not. Inputs are raw bit patterns, exactly scaled uniforms and
    # signaling NaNs, whose log10 raises "invalid" at the AVX2 and baseline
    # levels (the child turns that warning into an error).
    rng = np.random.default_rng(16)
    signaling = np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000,
                          0x7FF7FFFFFFFFFFFF], dtype=np.uint64).view(float)
    columns = np.concatenate([signaling,
                              rng.integers(0, 2 ** 64, 6000, dtype=np.uint64).view(float),
                              rng.random(2000) * 2.0 - 1.0]).reshape(4, -1)
    proc = _run_at_simd_level(disabled, _SIMD_CHILD, columns.tobytes())
    assert proc.stdout.splitlines() == _csv.rows(columns).splitlines()


# Run in a child whose numpy dispatches fewer SIMD kernels: replays the
# pinned calls named in argv.
_REPLAY_CHILD = """
import sys, tempfile
from numpy._core._multiarray_umath import __cpu_features__
import replay

if any(__cpu_features__.get(f, True) for f in sys.argv[1].split()):
    sys.exit(77)  # the setting was not applied
pinned = replay.cases()
for name in sys.argv[2:]:
    with tempfile.TemporaryDirectory() as workdir:
        replay.replay(pinned[name], replay.in_process, workdir)
"""


@pytest.mark.parametrize("disabled", _SIMD_LEVELS)
def test_pinned_calls_do_not_depend_on_the_simd_level(disabled):
    # The surface and curve sweeps and the CNOT print their pinned bytes
    # whichever numpy kernels run their arithmetic. The CNOT composes both
    # gates' six rings in one mounted stack. smatrix, verify and intersect
    # print rounding-level values whose last bits change with the level, so
    # they are not replayed here.
    _run_at_simd_level(disabled, _REPLAY_CHILD, args=[
        "manifold_surface_ring2_grid21", "manifold_surface_ring2_grid101",
        "manifold_curve_grid51_tau_-1_1", "cnot_default", "cnot_probe_phase_0.3",
        "cnot_golden", "cnot_golden_probe_phase_0.3"])


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
    # Each batch evaluates its three slots in one transfer call each, while
    # its networks are built: the compensating line phase and the
    # composition share those calls' read-only results. The swept ring stack
    # is the one its couplers were built into, evaluated on its own field
    # arrays (the middle slot's swapped as it is mounted flipped), with no
    # copy and no mounted stack. The fixed optimal rings of the other slots
    # are built once per process, and every batch of every sweep evaluates
    # the same read-only stacks of one.
    calls, batches, built = _count_transfer_calls(monkeypatch), [], []
    surface_stack, build_couplers = cli.surface_stack, analysis_module.build_couplers

    def recorded(*args):
        count = len(calls)
        point, theta, networks = surface_stack(*args)
        batches.append((networks, calls[count:]))
        return point, theta, networks

    def recorded_build(*args):
        built.append(build_couplers(*args))
        return built[-1]

    analysis_module._optimal_ring.cache_clear()
    monkeypatch.setattr(cli, "surface_stack", recorded)
    monkeypatch.setattr(analysis_module, "build_couplers", recorded_build)
    monkeypatch.setattr(cli, "_BATCH_POINTS", 10)
    for _ in range(2):
        assert main(["manifold", "surface", "--ring", str(ring), "--grid", "5"]) == 0
    capsys.readouterr()
    assert len(batches) == 6  # per sweep, batches of 10, 10 and 5 grid points
    assert len(calls) == 18 and len(built) == 6
    fixed = [[r for slot, r in enumerate(n.rings, 1) if slot != ring] for n, _ in batches]
    fields = ("tau", "eta", "theta", "phi", "kappa", "gamma")
    for (networks, slot_calls), swept, stacks in zip(batches, built, fixed):
        assert not hasattr(networks, "mounted")
        assert networks.rings[ring - 1] is swept
        assert len(slot_calls) == 3
        for slot, (r, c) in enumerate(zip(networks.rings, slot_calls), 1):
            mount = dict(zip(fields, ("eta", "tau", "theta", "phi", "gamma", "kappa")
                             if slot == 2 else fields))
            assert all(getattr(c, f) is getattr(r, mount[f]) for f in fields)
        for array in (*networks.transfers, *(getattr(swept, f) for f in fields)):
            assert not array.flags.writeable
        assert all(a is b for a, b in zip(stacks, fixed[0]))
        assert all(len(r) == 1 for r in stacks)
        assert all(not getattr(r, f).flags.writeable for r in stacks for f in fields)


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
    assert main(["cnot", "--config", write_config(tmp_path, _PINNED["cnot_golden"]["config"]),
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


def test_cnot_skips_the_generic_fock_state_path(monkeypatch, tmp_path):
    # The CNOT checks read their heralded block directly; the generic
    # evolve/project machinery stays as their oracle only.
    def forbidden(*args, **kwargs):
        raise AssertionError("the cnot path reached the generic Fock state path")

    monkeypatch.setattr(fock.SectoredState, "__init__", forbidden)
    monkeypatch.setattr(fock.SectoredState, "amplitude_of", forbidden)
    replay.replay(_PINNED["cnot_default"], replay.in_process, tmp_path)


def test_cnot_skips_the_fock_lift(monkeypatch, tmp_path, capsys):
    # build_cnot reads its heralded block from the two gates' beta: once the
    # fixed interferometers' two-photon lifts are cached, no permanent runs.
    # The pins were captured from the 8-mode lift.
    assert main(["cnot"]) == 0
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("the cnot path reached the Fock lift")

    for module, name in ((fock, "_lift_block"), (fock, "_permanent_batch"),
                         (cnot_module, "_lift_block")):
        monkeypatch.setattr(module, name, forbidden)
    for name in ("cnot_default", "cnot_probe_phase_0.3", "cnot_seeded_probe_phase_-2.5"):
        replay.replay(_PINNED[name], replay.in_process, tmp_path)


def test_cnot_probe_phase_prints_as_its_fmod_value(capsys):
    # The probe phase is reduced as ring angles are: the largest float
    # prints the bytes of its fmod value, as the cnot_probe_phase_max_float
    # pin holds them.
    phase = 1.7976931348623157e308
    printed = []
    for value in (phase, math.fmod(phase, TWO_PI)):
        assert main(["cnot", f"--probe-phase={value!r}"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out == "".join(_PINNED["cnot_probe_phase_max_float"]["stdout"])


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
    # 1e-8 off that pole the gate composes to a matrix that is not unitary
    # within 1e-10. Each gate's unitarity is checked just before its
    # verdict, so gate B's, like its pole, comes after gate A's checks.
    near = {"rings": [{"tau": 0.5, "eta": 0.5 + 1e-8, "theta": TWO_PI},
                      {"tau": 1.0 - 1e-8, "eta": 0.0, "theta": TWO_PI, "delta": math.pi},
                      {"tau": 0.5, "eta": 0.5, "theta": TWO_PI}]}
    not_unitary = "gate {}: scattering matrix is not unitary within 1e-10 (residual "
    cases = [({"gate_a": optimal, "gate_b": near}, 3, not_unitary.format("B")),
             ({"gate_a": detuned, "gate_b": near}, 4, "gate A violates"),
             ({"gate_a": near, "gate_b": pole}, 3, not_unitary.format("A")),
             ({"gate_a": optimal, "gate_b": detuned}, 4, "gate B violates"),
             ({"gate_a": detuned, "gate_b": balanced}, 4, "gate A violates"),
             ({"gate_a": balanced, "gate_b": optimal}, 4, "gate A never heralds"),
             ({"gate_a": detuned, "gate_b": pole}, 4, "gate A violates"),
             ({"gate_a": pole, "gate_b": optimal}, 3,
              "numerical error: gate A: loop gain b3 c1 d2 e^(-i delta2) = 1\n"),
             ({"gate_a": optimal, "gate_b": pole}, 3,
              "numerical error: gate B: loop gain b3 c1 d2 e^(-i delta2) = 1\n"),
             ({"gate_a": pole, "gate_b": pole}, 3,
              "numerical error: gate A: loop gain b3 c1 d2 e^(-i delta2) = 1\n")]
    for cfg, code, message in cases:
        assert main(["cnot", "--config", write_config(tmp_path, cfg)]) == code
        assert message in capsys.readouterr().err


def test_cached_parser_keeps_calls_apart(tmp_path, monkeypatch):
    # The parser is built once; each call must still see only its own
    # arguments and the defaults, whatever ran before it.
    seen = []
    for name in ("cmd_smatrix", "cmd_verify", "cmd_manifold", "cmd_optimize",
                 "cmd_cnot"):
        monkeypatch.setattr(cli, name, lambda args, cfg, name=name:
                            seen.append((name, vars(args))) or (0, "", []))
    # main writes each stand-in's empty output, "x.csv" included, here.
    monkeypatch.chdir(tmp_path)
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
    ["smatrix", "--config", "{config}"],
    ["verify", "--config", "{config}", "--alpha", "2,0,0"],
    ["manifold", "curve", "--grid", "5"],
    ["manifold", "surface", "--grid", "3"],
    ["manifold", "intersect", "--grid", "5"],
    ["optimize"],
    ["cnot", "--probe-phase", "0.3"],
])
def test_commands_return_their_output_and_main_writes_it(tmp_path, capsys, argv):
    # A command only computes: it writes nothing, and main writes the text it
    # returns to stdout and its notes to stderr.
    argv = [arg.replace("{config}", optimal_config(tmp_path)) for arg in argv]
    args = cli._build_parser().parse_args(argv)
    command = getattr(cli, "cmd_" + args.command)
    code, text, notes = command(args, cli._load_config(getattr(args, "config", None)))
    assert capsys.readouterr() == ("", "")
    assert text and (notes != []) == (argv[0] in ("verify", "manifold", "cnot"))
    assert main(argv) == code == 0
    assert capsys.readouterr() == (text, "".join(note + "\n" for note in notes))


def test_main_writes_the_output_then_the_notes(monkeypatch):
    monkeypatch.setattr(cli, "cmd_optimize",
                        lambda args, cfg: (4, "text\n", ["first", "second"]))
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main(["optimize"]) == 4
    assert both.getvalue() == "text\nfirst\nsecond\n"


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


def test_output_file_option(tmp_path):
    out_path = tmp_path / "matrix.json"
    assert main(["smatrix", "--config", optimal_config(tmp_path),
                 "--output", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert "matrix" in data


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


@pytest.mark.parametrize("name", ["optimize", "error_unwritable_output"])
def test_module_entry_point(tmp_path, name):
    # python -m ringsim.cli exits with main's code, as the console script does.
    replay.replay(_PINNED[name], replay.in_child(sys.executable, "-m", "ringsim.cli"),
                  tmp_path)


# The exit-code contract over random calls of the commands that read input.
# Every strategy is built once here: hypothesis spends more time building a
# strategy than drawing from it.
_coin = st.booleans()
_quarter = st.integers(0, 3).map(lambda k: k == 0)


class _Raw(str):
    """JSON text written as it is: a literal that json.dumps does not write."""


class _Pairs(list):
    """A JSON object written from its (key, value) pairs, a key maybe twice."""


def _json_text(value) -> str:
    """The JSON text of value, with _Raw literals and _Pairs objects."""
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, dict):
        value = _Pairs(value.items())
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return json.dumps(value)


# NaN and Infinity literals, numbers beyond the float range (1e400, 400
# digits), both zeros, strings, nested objects and arrays, and the like.
_junk = st.sampled_from([float("nan"), float("inf"), -float("inf"), "x", "0.5", None,
                         [], {}, True, 1e308, _Raw("1e400"), _Raw("-1e400"), 10 ** 399,
                         -7 * 10 ** 399, _Raw("-0"), -0.0, {"tau": [0.5]}, [[0.5], {}]])
_numbers = st.one_of(st.floats(-1.2, 1.2), st.floats(-7.0, 7.0),
                     st.sampled_from([0.0, 1.0, -1.0, 0.5]), _junk)
# Angles and line phases anywhere in the finite float range.
_angles = st.one_of(_numbers, st.floats(allow_nan=False, allow_infinity=False))
_ring_kinds = st.sampled_from(["curve", "curve", "curve", "random", "other"])
_not_objects = st.sampled_from([None, 1.0, "ring", []])
_curve_taus = st.floats(0.0, 0.95)
_detunings = st.sampled_from([0.0, 0.0, 1e-12, 0.3, -TWO_PI])
_dropped = st.sampled_from([None] * 15 + ["tau", "eta", "theta", "delta", "phi"])


@st.composite
def _ring_objects(draw, slot):
    """A ring object: on its slot's optimal curve, maybe detuned, or with
    random or junk fields, a field missing, a key given twice (the last
    one counts), or not an object at all."""
    kind = draw(_ring_kinds)
    if kind == "other":
        return draw(_not_objects)
    if kind == "curve":
        entry = ring_entry(slot, tau=draw(_curve_taus))
        entry["theta"] += draw(_detunings)
    else:
        entry = {name: draw(_numbers) for name in ("tau", "eta")}
        entry["theta"] = draw(_angles)
    for name in ("delta", "phi"):
        if draw(_quarter):
            entry[name] = draw(_angles)
    entry.pop(draw(_dropped), None)
    if draw(_quarter):
        return _Pairs([*entry.items(), (draw(st.sampled_from(["tau", "eta", "theta",
                                                              "delta", "phi"])),
                                        draw(_angles))])
    return entry


# A network on its feedback-loop pole: |1 - L| = 0.
_POLE_RINGS = [{"tau": 0.5, "eta": 0.5, "theta": TWO_PI},
               {"tau": 1.0, "eta": 0.0, "theta": TWO_PI, "delta": math.pi},
               {"tau": 0.5, "eta": 0.5, "theta": TWO_PI}]
_ring_triples = st.tuples(*(_ring_objects(slot) for slot in (1, 2, 3))).map(list)
_networks = st.one_of(_ring_triples, _ring_triples, _ring_triples,
                      _ring_triples.map(lambda rings: rings[:2]),
                      st.sampled_from(["rings", _POLE_RINGS])).map(lambda r: {"rings": r})

# Every finite float, and strings that are no finite float.
_option_numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                            st.sampled_from(["0", "-0", "1e-12", "nan", "inf", "-inf",
                                             "abc", ""]))
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
    # One argument, so that argparse reads a value such as -1e+308 as the
    # option's, not as an option.
    return [f"{name}={draw(values)}"] if draw(_coin) else []


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
# A constraint violation, diagnostics before an unwritable output, the
# alpha warning before an error exit, a phase partition of -1e308, the
# largest probe phase, a tau range whose width overflows, and curve points
# whose tau * tau overflows.
@example((["cnot", "--config", None],
          {"gate_a": {"rings": [ring_entry(1, theta=0.3), ring_entry(2), ring_entry(3)]}}))
@example((["smatrix", "--config", None],
          {"rings": [{"tau": 0.3, "eta": 0.5, "theta": 1.0, "phi": -1e308},
                     ring_entry(2), ring_entry(3, theta=1e300)]}))
@example((["cnot", "--output", str(Path("missing", "dir", "out"))], None))
@example((["cnot", "--config", None], b'{"gate_a": "\xff"}'))
@example((["manifold", "curve", "--grid", "3", "--output", str(Path("missing", "out"))], None))
@example((["verify", "--alpha", "1,1,0", "--config", None],
          {"rings": [ring_entry(1), ring_entry(2), ring_entry(3)], "tolerance": -1.0}))
@example((["cnot", "--probe-phase=1e308"], None))
@example((["manifold", "curve", "--ring", "1", "--grid", "3", "--tau-min=-1.7e308",
           "--tau-max=1.7e308"], None))
@example((["manifold", "curve", "--tau-max=1.3407807929942597e+154"], None))
def test_cli_exit_code_contract(tmp_path_factory, call):
    # Every call exits 0, 2, 3 or 4 with no traceback and no Python warning,
    # which is turned into an error as the corpus replay turns it; exit 0
    # prints no NaN or inf, and smatrix's exit 0 a unitary matrix away from
    # the band |1 - L| < 1e-3 around the loop pole. An error exit writes one
    # stderr line, or argparse's usage and error lines; verify's exit 4 is a
    # report on stdout.
    argv, cfg = call
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_bytes(cfg if isinstance(cfg, bytes) else _json_text(cfg).encode())
    argv = [str(path) if a is None else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exit_:
            code, by_argparse = exit_.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, cfg, err)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), (argv, cfg, out)
        if argv[0] == "smatrix":
            networks = NetworkStack.of([cli._network_from_config(json.loads(path.read_text()))])
            c1, d2, b3 = networks.legs()[1]
            loop = abs(1.0 - c1[0] * d2[0] * b3[0] * np.exp(-1j * networks.deltas[0, 1]))
            if loop >= 1e-3:
                assert json.loads(out)["unitarity_residual"] <= 1e-10, (argv, cfg, out)
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
