"""Tests for the three-ring network composition, and of the mode-swap
oracle the composition is checked against."""

import numpy as np
import pytest

from ringsim import (
    CouplerStack,
    NetworkParams,
    NetworkStack,
    PoleError,
    RESONANT_THETA,
    T1_OPTIMAL,
    T2_OPTIMAL,
    build_coupler,
    closed_form_resonant,
    compose_scattering,
    effective_coupling,
    invert_effective,
    unitarity_residual,
)
from ringsim.errors import DomainError

from oracles import SingularPivotError, block_transfer, mode_swap3


def random_matrix(rng, good_pivots=False):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    if good_pivots:
        while np.min(np.abs(np.diag(g))) <= 0.1:
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return g


def resonant_ring(t, rng):
    tau = rng.uniform(0.0, 0.9)
    return build_coupler(tau, invert_effective(t, tau), RESONANT_THETA)


def random_params(rng):
    rings = tuple(
        build_coupler(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                      rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(3)
    )
    return NetworkParams(rings=rings, deltas=tuple(rng.uniform(0.0, 2.0 * np.pi, 3)))


def test_mode_swap_identity_fixed_point():
    for j in (1, 2, 3):
        assert np.allclose(mode_swap3(np.eye(3), j), np.eye(3), atol=1e-15)


def test_mode_swap_is_involution():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        g = random_matrix(rng, good_pivots=True)
        j = int(rng.integers(1, 4))
        back = mode_swap3(mode_swap3(g, j), j)
        assert np.max(np.abs(back - g)) < 1e-10 * max(1.0, np.max(np.abs(g)))


def test_mode_swap_exchange_relation():
    # If y = G x, the swapped matrix must map the vector with y_j in slot j
    # to the vector with x_j in slot j, other components untouched.
    rng = np.random.default_rng(103)
    for _ in range(200):
        g = random_matrix(rng, good_pivots=True)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = g @ x
        for j in (1, 2, 3):
            p = j - 1
            x_swapped = x.copy()
            x_swapped[p] = y[p]
            y_swapped = mode_swap3(g, j) @ x_swapped
            expected = y.copy()
            expected[p] = x[p]
            assert np.max(np.abs(y_swapped - expected)) < 1e-10


def test_mode_swap_singular_pivot():
    g = np.eye(3, dtype=complex)
    g[1, 1] = 0.0
    with pytest.raises(SingularPivotError) as info:
        mode_swap3(g, 2)
    assert info.value.mode == 2


def test_mode_swap_rejects_bad_input():
    with pytest.raises(ValueError):
        mode_swap3(np.eye(4), 1)
    with pytest.raises(ValueError):
        mode_swap3(np.eye(3), 0)


def test_block_transfer_examples():
    # Resonant rings: [[t, r], [r, -t]] at t = 0, and the flipped
    # [[-t, r], [r, t]] at t = 1.
    swap = np.array([[0.0, 1.0], [1.0, -0.0]])
    assert np.allclose(block_transfer(1, swap, 0.0),
                       [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=1e-15)
    ident = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b2 = block_transfer(2, ident, np.pi)
    assert np.allclose(b2, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)
    b3 = block_transfer(3, swap, 0.0)
    assert np.allclose(b3, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=1e-15)


def test_block_transfer_bad_block():
    with pytest.raises(ValueError):
        block_transfer(4, np.array([[0.5, np.sqrt(0.75)], [np.sqrt(0.75), -0.5]]), 0.0)


def test_compose_optimal_entries():
    rng = np.random.default_rng(7)
    params = NetworkParams(rings=(
        resonant_ring(T1_OPTIMAL, rng),
        resonant_ring(T2_OPTIMAL, rng),
        resonant_ring(T1_OPTIMAL, rng),
    ))
    s = compose_scattering(params)
    assert np.isclose(s[0, 0], 1.0 - np.sqrt(2.0), atol=1e-12)
    assert np.isclose(s[1, 1], 0.5, atol=1e-12)


def test_compose_matches_closed_form():
    rng = np.random.default_rng(211)
    for _ in range(200):
        t = rng.uniform(0.05, 0.95, size=3)
        params = NetworkParams(rings=tuple(resonant_ring(ti, rng) for ti in t))
        s = compose_scattering(params)
        ref = closed_form_resonant(*t)
        assert np.max(np.abs(s - ref)) < 1e-12


def test_compose_unitary_off_resonance():
    rng = np.random.default_rng(307)
    for _ in range(200):
        s = compose_scattering(random_params(rng))
        assert unitarity_residual(s) < 1e-12
        assert np.isclose(abs(np.linalg.det(s)), 1.0, atol=1e-12)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("offset", [0.0, 1e-8])
def test_compose_balanced_ring_matches_closed_form(slot, offset):
    # eta = tau on resonance is a full-drop ring (t = 0): its through
    # amplitude vanishes, which no mode-swap pivot may, but the network
    # composes like any other.
    rng = np.random.default_rng(5)
    t = [0.5, 0.5, 0.5]
    rings = [resonant_ring(ti, rng) for ti in t]
    rings[slot] = build_coupler(0.4, 0.4 + offset, RESONANT_THETA)
    t[slot] = effective_coupling(0.4, 0.4 + offset).t
    s = compose_scattering(NetworkParams(rings=tuple(rings)))
    assert np.max(np.abs(s - closed_form_resonant(*t))) < 1e-12
    assert abs(np.linalg.det(s) + 1.0) < 1e-12


def test_compose_loop_pole():
    # Full-drop outer rings and a full-through middle ring close the
    # feedback loop with gain exactly 1.
    outer = build_coupler(0.5, 0.5, RESONANT_THETA)
    middle = build_coupler(1.0, 0.0, RESONANT_THETA)
    with pytest.raises(PoleError, match="network 0: loop gain"):
        compose_scattering(NetworkParams(rings=(outer, middle, outer),
                                         deltas=(0.0, np.pi, 0.0)))


def test_closed_form_optimal_row():
    s = closed_form_resonant(T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL)
    assert np.isclose(s[0, 0], -0.4142136, atol=1e-7)
    assert np.isclose(s[1, 1], 0.5, atol=1e-7)
    assert np.isclose(s[0, 1], 0.8408964, atol=1e-7)
    assert np.isclose(s[1, 0], 0.8408964, atol=1e-7)
    assert np.isclose(s[1, 2], 0.2071068, atol=1e-7)
    assert np.isclose(s[2, 1], 0.2071068, atol=1e-7)


def test_closed_form_permutation_limit():
    s = closed_form_resonant(0.0, 0.7, 0.0)
    assert np.allclose(s, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=1e-15)


def test_closed_form_determinant():
    rng = np.random.default_rng(17)
    for _ in range(300):
        t = rng.uniform(-0.9, 0.9, size=3)
        s = closed_form_resonant(*t)
        assert np.isclose(np.linalg.det(s), -1.0, atol=1e-12)
        assert unitarity_residual(s) < 1e-12


def test_closed_form_pole():
    with pytest.raises(PoleError):
        closed_form_resonant(0.0, 1.0, 0.0)


def test_unitarity_residual_values():
    assert unitarity_residual(np.eye(3)) == 0.0
    bumped = np.eye(3, dtype=complex)
    bumped[0, 1] = 1e-3
    assert unitarity_residual(bumped) >= 1e-3


@pytest.mark.parametrize("shape", [(), (3,), (3, 4), (2, 3, 4), (1, 1, 3, 3)])
def test_unitarity_residual_rejects_non_square_input(shape):
    with pytest.raises(DomainError, match="square matrix or an"):
        unitarity_residual(np.zeros(shape))


def test_unitarity_residual_result_per_input_shape():
    assert isinstance(unitarity_residual(np.eye(3)), float)
    assert unitarity_residual(np.stack([np.eye(3), 2.0 * np.eye(3)])).tolist() == [0.0, 3.0]
    empty = unitarity_residual(np.zeros((0, 3, 3)))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert unitarity_residual(np.zeros((0, 0))) == 0.0
    assert unitarity_residual(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_line_phase_is_a_domain_error(bad):
    ring = build_coupler(0.3, 0.7, 1.0)
    with pytest.raises(DomainError, match="^line phases must be finite, got "):
        NetworkParams(rings=(ring, ring, ring), deltas=(0.0, bad, 0.0))
    stack = CouplerStack.of([ring])
    with pytest.raises(DomainError, match="^line phases must be finite, got "):
        NetworkStack(rings=(stack, stack, stack), deltas=[[0.0, 0.0, 0.0], [0.0, bad, 0.0]])
