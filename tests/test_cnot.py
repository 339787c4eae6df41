"""Tests for the dual-rail CNOT built from two heralded gates."""

import numpy as np
import pytest

from ringsim import (
    ConstraintError,
    DualRailQubit,
    NetworkParams,
    build_cnot,
    build_coupler,
    conditional_logical_matrix,
    curve_network,
    curve_ring,
    embed,
    normalize_global_phase,
    unitarity_residual,
    verify_coherence,
    verify_truth_table,
)
from ringsim.errors import DomainError


def detuned_params():
    return NetworkParams(rings=(
        build_coupler(0.0, 0.91, 0.3),
        curve_ring(2, 0.0),
        curve_ring(3, 0.0),
    ))


def test_embed_identity():
    assert np.allclose(embed(np.eye(3), (2, 5, 7), 8), np.eye(8))


def test_embed_places_entries():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    out = embed(u, (1, 3), 4)
    assert out[1, 3] == 1 and out[3, 1] == 1
    assert out[1, 1] == 0 and out[3, 3] == 0
    assert out[0, 0] == 1 and out[2, 2] == 1


def test_embed_disjoint_supports_commute():
    rng = np.random.default_rng(97)
    z1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    z2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q1 = np.linalg.qr(z1)[0]
    q2 = np.linalg.qr(z2)[0]
    a = embed(q1, (0, 1, 2), 8)
    b = embed(q2, (5, 6, 7), 8)
    assert np.max(np.abs(a @ b - b @ a)) < 1e-14


def test_embed_errors():
    with pytest.raises(DomainError):
        embed(np.eye(2), (1, 1), 4)
    with pytest.raises(DomainError):
        embed(np.eye(2), (1, 9), 4)
    with pytest.raises(DomainError):
        embed(np.eye(3), (0, 1), 4)


def test_dual_rail_validation():
    with pytest.raises(DomainError):
        DualRailQubit(2, 2)
    with pytest.raises(DomainError):
        DualRailQubit(-1, 0)
    q = DualRailQubit(4, 5)
    assert q.rail(0) == 4 and q.rail(1) == 5


def test_build_cnot_unitary_and_herald():
    net = build_cnot(curve_network(), curve_network())
    assert unitarity_residual(net.matrix) < 1e-12
    assert net.herald_pattern.constraints == ((4, 1), (5, 0), (6, 1), (7, 0))
    assert net.herald_pattern is net.herald_pattern


def test_build_cnot_rejects_detuned_gate():
    with pytest.raises(ConstraintError) as info:
        build_cnot(detuned_params(), curve_network())
    assert info.value.verdict is not None
    assert info.value.verdict.residual > 1e-3


def test_truth_table():
    net = build_cnot(curve_network(), curve_network())
    rows = verify_truth_table(net)
    assert len(rows) == 4
    for row in rows:
        assert abs(row.probability - 1.0 / 16.0) < 1e-9
        assert row.control_out == row.control_in
        assert row.target_out == row.target_in ^ row.control_in
        assert row.fidelity > 1.0 - 1e-9
        assert row.leakage < 1e-9


def test_truth_table_anywhere_on_manifold():
    net = build_cnot(curve_network(0.35, 0.1, 0.6), curve_network(0.7, 0.45, 0.2))
    for row in verify_truth_table(net):
        assert abs(row.probability - 1.0 / 16.0) < 1e-9
        assert row.target_out == row.target_in ^ row.control_in
        assert row.fidelity > 1.0 - 1e-9


def test_coherence_bell_state():
    net = build_cnot(curve_network(), curve_network())
    report = verify_coherence(net)
    assert report.overlap > 1.0 - 1e-9
    assert abs(report.probability - 1.0 / 16.0) < 1e-9


def test_probe_phase_breaks_coherence():
    # A pi phase on one arm between the inner splitters flips the heralded
    # amplitudes' relative sign, so the Bell overlap collapses while the
    # herald itself still fires.
    net = build_cnot(curve_network(), curve_network(), probe_phase=np.pi)
    report = verify_coherence(net)
    assert report.overlap < 0.6


def test_parameterization_independence():
    net_a = build_cnot(curve_network(), curve_network())
    net_b = build_cnot(curve_network(0.5, 0.3, 0.1), curve_network(0.2, 0.6, 0.8))
    m_a = normalize_global_phase(conditional_logical_matrix(net_a))
    m_b = normalize_global_phase(conditional_logical_matrix(net_b))
    assert np.max(np.abs(m_a - m_b)) < 1e-8


def test_conditional_singular_values_uniform():
    net = build_cnot(curve_network(0.4, 0.0, 0.4), curve_network())
    sv = np.linalg.svd(conditional_logical_matrix(net), compute_uv=False)
    assert np.max(np.abs(sv - sv[0])) < 1e-8
    assert np.isclose(sv[0], 0.25, atol=1e-8)


@pytest.mark.parametrize("probe_phase", [0.0, 0.3])
def test_conditional_matrix_agrees_with_truth_table(probe_phase):
    net = build_cnot(curve_network(0.35, 0.1, 0.6), curve_network(0.7, 0.45, 0.2),
                     probe_phase=probe_phase)
    m = conditional_logical_matrix(net)
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for col, row in enumerate(verify_truth_table(net)):
        out = order.index((row.control_out, row.target_out))
        assert abs(abs(m[out, col]) ** 2 - row.probability * row.fidelity) < 1e-12
        assert abs(np.sum(np.abs(m[:, col]) ** 2)
                   - row.probability * (1.0 - row.leakage)) < 1e-12
    if probe_phase == 0.0:
        cnot = np.eye(4)[[0, 1, 3, 2]]
        assert np.max(np.abs(normalize_global_phase(m) - cnot)) < 1e-9
