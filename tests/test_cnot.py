"""Tests for the dual-rail CNOT built from two heralded gates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsim import (
    CnotNetwork,
    CoherenceReport,
    ConstraintError,
    MeasurementPattern,
    NetworkParams,
    SectoredState,
    TruthTableRow,
    build_cnot,
    build_coupler,
    compose_scattering,
    conditional_logical_matrix,
    curve_network,
    curve_ring,
    enumerate_basis,
    evolve,
    normalize_global_phase,
    project,
    unitarity_residual,
    verify_coherence,
    verify_truth_table,
)
from ringsim.cnot import (_CONTROL_FLIP, _INNER, _LOGICAL, _SPLITTER, _TARGET_MIX,
                          _heralded_block, _interferometers)
from ringsim.errors import DomainError
from ringsim.fock import _betas, _corners

from oracles import cnot_kept_block, cnot_network, embed

_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def lifted(u):
    """The CNOT record of the 8-mode unitary u with the oracle's kept
    block: the full four-photon lift of tests/oracles.py, which shares no
    code with the package."""
    return CnotNetwork(kept_block=cnot_kept_block(u))


def network_of(gate_a, gate_b, probe_phase=0.0):
    """The oracle's 8-mode CNOT network (tests/oracles.py) of the two gate
    networks' composed matrices."""
    return cnot_network(compose_scattering(gate_a), compose_scattering(gate_b), probe_phase)


def detuned_params():
    return NetworkParams(rings=(
        build_coupler(0.0, 0.91, 0.3),
        curve_ring(2, 0.0),
        curve_ring(3, 0.0),
    ))


# embed is the oracle's (tests/oracles.py), from which cnot_network
# assembles the CNOT's 8-mode network part by part; the package builds no
# 8-mode matrix.
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
    with pytest.raises(ValueError):
        embed(np.eye(2), (1, 1), 4)
    with pytest.raises(ValueError):
        embed(np.eye(2), (1, 9), 4)
    with pytest.raises(ValueError):
        embed(np.eye(3), (0, 1), 4)


def test_build_cnot_unitary_and_herald():
    # The kept block is what the heralds (4, 1), (5, 0), (6, 1), (7, 0)
    # leave of the network's four-photon outputs.
    net = build_cnot(curve_network(), curve_network())
    u = network_of(curve_network(), curve_network())
    assert unitarity_residual(u) < 1e-12
    assert net.kept_block.shape == (10, 4)
    assert np.max(np.abs(net.kept_block - cnot_kept_block(u))) <= 1e-15


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


@pytest.mark.parametrize("probe_phase", [1.7976931348623157e308, -1e308, 4.0 * math.pi, 7.5])
def test_probe_phase_is_reduced_as_ring_angles_are(probe_phase):
    # The phase is reduced by the exact fmod mod 2 pi, so the largest one
    # gives the block of its fmod value, bit for bit, with no overflow.
    gates = curve_network(0.2, 0.5, 0.8), curve_network()
    reduced = math.fmod(probe_phase, 2.0 * math.pi)
    assert build_cnot(*gates, probe_phase=probe_phase).kept_block.tobytes() \
        == build_cnot(*gates, probe_phase=reduced).kept_block.tobytes()


@pytest.mark.parametrize("probe_phase", [math.inf, -math.inf, math.nan])
def test_probe_phase_must_be_finite(probe_phase):
    with pytest.raises(DomainError, match="^probe_phase must be finite"):
        build_cnot(curve_network(), curve_network(), probe_phase=probe_phase)


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


def test_normalize_global_phase_rejects_non_finite_and_zero_matrices():
    # A NaN or infinite entry would be taken as the pivot, or divide every
    # other entry to NaN.
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        m = np.eye(4, dtype=complex)
        m[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            normalize_global_phase(m)
    with pytest.raises(DomainError, match="zero matrix"):
        normalize_global_phase(np.zeros((4, 4)))


@pytest.mark.parametrize("build", [
    lambda: MeasurementPattern(((1.7, 1), (2, 0.9))),
    lambda: MeasurementPattern(((1, 1), (2, 0.0))),
    lambda: SectoredState.from_occupations(3, {(0.6, 1, 0): 1.0}),
    lambda: SectoredState.from_occupations(3, {(1, 1, 0): 1.0}).amplitude_of((1.0, 1, 0)),
    lambda: SectoredState(3.7, {1: np.array([1.0, 0.0, 0.0])}),
    lambda: SectoredState(3, {1.9: np.array([1.0, 0.0, 0.0])}),
    lambda: enumerate_basis(2.5, 1),
], ids=["pattern", "pattern-count", "occupation", "amplitude-of", "state-modes",
        "state-sector", "basis"])
def test_non_integer_modes_and_counts_are_rejected(build):
    # Truncating would silently move a herald or photon to another mode; a
    # float must fail as a domain error, not later as a TypeError.
    with pytest.raises(DomainError, match="must be an integer"):
        build()


def test_numpy_integer_modes_and_counts_pass():
    i = np.int64
    pattern = MeasurementPattern(((i(1), i(1)), (np.uint8(2), 0)))
    assert pattern == MeasurementPattern(((1, 1), (2, 0)))
    state = SectoredState.from_occupations(i(3), {(i(0), i(1), 0): 1.0})
    assert state.amplitude_of((0, 1, i(0))) == 1.0
    assert SectoredState(i(3), {i(1): [0.0, 1.0, 0.0]}).sectors.keys() == {1}
    assert enumerate_basis(np.int32(2), i(1)) is enumerate_basis(2, 1)


# The CNOT's heralds: one photon on modes 4 and 6, none on 5 and 7.
_HERALDS = MeasurementPattern(((4, 1), (5, 0), (6, 1), (7, 0)))


def _oracle_checks(u):
    """Truth table and coherence report of the 8-mode unitary u, built from
    evolve and project on explicit input states, read through amplitude_of:
    the control on rails 0, 1, the target on rails 2, 3, and one photon in
    each ancilla pair's first mode, 4 and 6."""

    def rails(bits):
        c, t = bits
        return (1 - c, c, 1 - t, t)

    def heralded_output(amplitudes):
        state = SectoredState.from_occupations(
            8, {rails(bits) + (1, 0, 1, 0): a for bits, a in amplitudes.items()})
        prob, cond = project(evolve(state, u), _HERALDS)
        return prob, {bits: cond.amplitude_of(rails(bits)) for bits in _ORDER}

    rows = []
    for c_in, t_in in _ORDER:
        prob, amps = heralded_output({(c_in, t_in): 1.0})
        # Weights within 1e-12 of the largest tie; the first in order wins.
        top = max(abs(a) ** 2 for a in amps.values())
        dominant = next(b for b in _ORDER if abs(amps[b]) ** 2 >= top - 1e-12)
        rows.append(TruthTableRow(
            control_in=c_in, target_in=t_in, probability=prob,
            control_out=dominant[0], target_out=dominant[1],
            fidelity=abs(amps[dominant]) ** 2,
            leakage=1.0 - sum(abs(a) ** 2 for a in amps.values())))
    w = 1.0 / math.sqrt(2.0)
    prob, amps = heralded_output({(0, 0): w, (1, 0): w})
    report = (CoherenceReport(overlap=0.0, probability=0.0) if prob == 0.0 else
              CoherenceReport(overlap=abs(w * (amps[(0, 0)] + amps[(1, 1)])),
                              probability=prob))
    return rows, report


couplers = st.floats(min_value=0.0, max_value=0.9)
optimal_gates = st.builds(curve_network, couplers, couplers, couplers)


@settings(deadline=None, max_examples=40)
@given(optimal_gates, optimal_gates, st.floats(min_value=-math.pi, max_value=math.pi))
@example(curve_network(), curve_network(), 0.0)
@example(curve_network(), curve_network(), math.pi)
def test_checks_equal_evolve_project_oracle(gate_a, gate_b, probe_phase):
    net = build_cnot(gate_a, gate_b, probe_phase=probe_phase)
    u = network_of(gate_a, gate_b, probe_phase)
    rows, report = _oracle_checks(u)
    # The oracle's lift of the network of the same gates (tests/oracles.py)
    # sums naive permanents, evolve and project Ryser's, and build_cnot's
    # block comes from the gates' beta, a third exact algebra: all three
    # agree to rounding.
    oracle = lifted(u)
    assert np.max(np.abs(net.kept_block - oracle.kept_block)) <= 1e-15
    for checked in (oracle, net):
        for row, got in zip(rows, verify_truth_table(checked)):
            for field in ("control_in", "target_in", "control_out", "target_out"):
                assert getattr(got, field) == getattr(row, field)
            for field in ("probability", "fidelity", "leakage"):
                assert abs(getattr(got, field) - getattr(row, field)) <= 2e-15
        got = verify_coherence(checked)
        assert abs(got.overlap - report.overlap) <= 2e-15
        assert abs(got.probability - report.probability) <= 2e-15


def _unitary(entries):
    """The unitary Q factor of the 3x3 complex matrix of 18 floats."""
    z = np.array(entries[:9]) + 1j * np.array(entries[9:])
    return np.linalg.qr(z.reshape(3, 3))[0]


unitary_gates = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                         min_size=18, max_size=18).map(_unitary)


@settings(deadline=None, max_examples=60)
@given(unitary_gates, unitary_gates, st.floats(min_value=-7.0, max_value=7.0))
@example(np.eye(3), np.eye(3), 0.0)
@example(np.eye(3)[[1, 0, 2]], np.eye(3)[[2, 1, 0]], math.pi)
def test_heralded_block_equals_the_lift_of_the_network(gate_a, gate_b, probe_phase):
    # Any unitary gates, not only those on the manifold that build_cnot
    # accepts. The oracle lifts the network it assembles from embedded
    # parts (tests/oracles.py).
    gates = np.stack([gate_a, gate_b])
    block = _heralded_block(np.stack(_betas(*_corners(gates)), axis=-1) * [1, 1, -1],
                            probe_phase)
    u = cnot_network(gate_a, gate_b, probe_phase)
    assert unitarity_residual(u) < 1e-12
    assert np.max(np.abs(block - cnot_kept_block(u))) <= 1e-15


@pytest.mark.parametrize("probe_phase", [math.pi / 2, math.pi, -math.pi])
def test_tied_outputs_go_to_the_first_in_order(probe_phase):
    # At these phases the two outputs of a control-one row weigh the same,
    # so without a tie rule the last bits of the block pick the dominant
    # one, and build_cnot's block and the lift disagree on some rows.
    rng = np.random.default_rng(3)
    for _ in range(20):
        gates = (curve_network(*rng.uniform(0.0, 0.9, 3)),
                 curve_network(*rng.uniform(0.0, 0.9, 3)))
        net = build_cnot(*gates, probe_phase=probe_phase)
        oracle = lifted(network_of(*gates, probe_phase))
        for row, other in zip(verify_truth_table(net), verify_truth_table(oracle)):
            assert (row.control_out, row.target_out) == (other.control_out,
                                                         other.target_out)
            if row.control_in == 1:
                assert (row.control_out, row.target_out) == (1, 0)


def test_never_heralding_network_equals_oracle():
    # Swapping each ancilla pair's modes sends every ancilla photon to the
    # mode that must read 0, so nothing heralds.
    u = np.eye(8, dtype=complex)[[0, 1, 2, 3, 5, 4, 7, 6]]
    net = lifted(u)
    rows, report = _oracle_checks(u)
    assert verify_truth_table(net) == rows
    assert all(row.probability == 0.0 and row.leakage == 1.0 for row in rows)
    assert verify_coherence(net) == report == CoherenceReport(0.0, 0.0)
    assert not conditional_logical_matrix(net).any()


def test_logical_states_are_the_computational_rails():
    # The kept block's columns and logical rows are the rails' two-photon
    # states with one photon on rail c of the control and one on rail 2 + t.
    rails = enumerate_basis(4, 2)
    assert _LOGICAL.tolist() == [rails.index_of((1 - c, c, 1 - t, t)) for c, t in _ORDER]


def test_cnot_constants_are_read_only():
    constants = (_SPLITTER, _TARGET_MIX, _INNER, _CONTROL_FLIP, _LOGICAL, *_interferometers())
    before = [c.copy() for c in constants]
    for c in constants:
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * c.ndim] = 0
    for probe_phase in (0.0, 0.3, math.pi, -1.7):
        build_cnot(curve_network(0.2, 0.5, 0.8), curve_network(), probe_phase=probe_phase)
    for c, b in zip(constants, before):
        assert np.array_equal(c, b)
