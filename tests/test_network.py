"""Tests for the three-ring network composition, and of the mode-swap
oracle the composition is checked against."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsim import (
    CouplerStack,
    NetworkParams,
    NetworkStack,
    PoleError,
    RESONANT_THETA,
    TWO_PI,
    RingCoupler,
    T1_OPTIMAL,
    T2_OPTIMAL,
    build_coupler,
    closed_form_resonant,
    compose_scattering,
    effective_coupling,
    invert_effective,
    transfer_matrix_stack,
    unitarity_residual,
)
from ringsim.errors import DomainError

from oracles import SingularPivotError, block_transfer, mode_swap3, reversed_network


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


_RING = build_coupler(0.3, 0.7, 1.0)
_STACK = CouplerStack.of([_RING])


@pytest.mark.parametrize("call, message", [
    (lambda: NetworkParams(rings=(_RING, _RING)), "exactly 3 rings required, got 2"),
    (lambda: NetworkParams(rings=(_RING,) * 3, deltas=(0.0, 0.0)),
     "exactly 3 line phases required, got 2"),
    (lambda: NetworkParams(rings=(_RING, _RING, _STACK)), "rings must be RingCoupler instances"),
    (lambda: NetworkStack(rings=(_STACK, _STACK), deltas=np.zeros((1, 3))),
     "exactly 3 ring stacks required, got 2"),
    (lambda: NetworkStack(rings=(_STACK,) * 3, deltas=np.zeros((1, 2))),
     "line phases must have shape (N, 3), got (1, 2)"),
    (lambda: NetworkStack(rings=(_STACK, _STACK, _RING), deltas=np.zeros((1, 3))),
     "rings must be CouplerStack instances"),
    (lambda: closed_form_resonant(0.5, -1.5, 0.5), "t2 must lie in [-1, 1], got -1.5"),
], ids=["two-rings", "two-line-phases", "not-a-ring", "two-ring-stacks",
        "line-phase-shape", "not-a-stack", "closed-form-t"])
def test_network_rejects_bad_input(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# Detuned networks: any round trip, phase partition and line phase in
# [-7, 7], with |tau|, |eta| <= 0.999, so that no ring is within 2e-3 of its
# pole and no loop within 5e-7 of its.
_COUPLER = st.floats(-0.999, 0.999)
_PHASE = st.floats(-7.0, 7.0)
_DETUNED_RING = st.tuples(_COUPLER, _COUPLER, _PHASE, _PHASE)
_TURNS = st.tuples(*[st.integers(-3, 3)] * 3)


@given(st.tuples(*[_DETUNED_RING] * 3), st.tuples(*[_PHASE] * 3), _TURNS, _TURNS)
def test_angle_representatives_compose_to_the_same_matrix(rings, deltas, turns, line_turns):
    # theta + 2 pi k with phi + 2 pi k names the same ring, and delta + 2 pi k
    # the same line, so S agrees to the rounding of the shifted angles
    # (about 4e-15 rad). A ring's amplitudes move by up to about
    # 1 / |1 - tau eta e^{-i theta}| per radian, and the loop gain
    # g = 1 / (1 - L) enters S squared.
    net = NetworkParams(rings=tuple(build_coupler(*ring) for ring in rings), deltas=deltas)
    s = compose_scattering(net)
    c1, d2, b3 = NetworkStack.of([net]).legs()[1]
    g = 1.0 / abs(1.0 - c1[0] * d2[0] * b3[0] * np.exp(-1j * deltas[1]))
    ring_den = min(abs(1.0 - tau * eta * np.exp(-1j * theta)) for tau, eta, theta, _ in rings)
    bound = 1e-13 * g * g / ring_den
    turned = NetworkParams(
        rings=tuple(build_coupler(tau, eta, theta + 2.0 * math.pi * k, phi + 2.0 * math.pi * k)
                    for (tau, eta, theta, phi), k in zip(rings, turns)),
        deltas=deltas)
    assert np.max(np.abs(compose_scattering(turned) - s)) <= bound
    shifted = NetworkParams(rings=net.rings, deltas=tuple(
        d + 2.0 * math.pi * k for d, k in zip(deltas, line_turns)))
    assert np.max(np.abs(compose_scattering(shifted) - s)) <= bound


# Any finite angle, of any magnitude, subnormals and -0.0 included.
_ANY_ANGLE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.tuples(*[st.tuples(_COUPLER, _COUPLER, _ANY_ANGLE, st.none() | _ANY_ANGLE)] * 3),
       st.tuples(*[_ANY_ANGLE] * 3))
# An explicit phi = -1e308 (the pinned smatrix call), and the default
# phi = theta / 2 of an unreduced theta of 1e10 and of 1e300.
@example(((0.3, 0.5, 1.0, -1e308), (0.45, 0.6, 2.1, None), (0.2, 0.9, 5.5, None)),
         (0.0, 0.0, 0.0))
@example(((0.3, 0.5, 1e10, None), (0.45, 0.6, 1e300, None), (0.2, 0.9, -1e15, None)),
         (1e300, -1e10, 5e-324))
def test_every_finite_angle_composes_to_a_unitary_matrix(rings, deltas):
    # theta and phi are reduced once, exactly, when a ring is built, so
    # the half-trip phases phi and theta - phi keep every digit; a line
    # phase is a pure phase at any magnitude. The loop gain g = 1 / (1 - L)
    # amplifies rounding.
    net = NetworkParams(rings=tuple(build_coupler(*ring) for ring in rings), deltas=deltas)
    for ring in net.rings:
        assert abs(ring.theta) < TWO_PI and abs(ring.phi) < TWO_PI
    c1, d2, b3 = NetworkStack.of([net]).legs()[1]
    loop = abs(1.0 - c1[0] * d2[0] * b3[0] * np.exp(-1j * deltas[1]))
    assert unitarity_residual(compose_scattering(net)) <= 1e-14 / min(1.0, loop)


def _reduced(x):
    """x reduced as a ring stores its theta and phi: by fmod, where |x| > pi
    (fmod is the identity below 2 pi)."""
    return math.fmod(x, TWO_PI) if abs(x) > math.pi else x


@settings(max_examples=50)
@given(st.lists(st.tuples(_COUPLER, _COUPLER, _ANY_ANGLE, _ANY_ANGLE), min_size=1, max_size=4))
@example([(0.3, 0.5, 1e300, -1e308), (0.3, 0.5, -4.0, 4.0), (0.3, 0.5, math.pi, -math.pi),
          (0.3, 0.5, TWO_PI, -TWO_PI), (0.3, 0.5, -0.0, 5e-324)])
def test_directly_built_rings_reduce_their_angles(rings):
    # A RingCoupler or CouplerStack built from its fields, not by
    # build_coupler, reduces theta and phi the same way, bit for bit, and
    # each ring's transfer matrix is unitary to rounding, amplified by
    # 1 / |1 - tau eta e^{-i theta}|.
    fields = [dict(tau=tau, eta=eta, theta=theta, phi=phi,
                   kappa=1j * math.sqrt(1.0 - tau * tau), gamma=1j * math.sqrt(1.0 - eta * eta))
              for tau, eta, theta, phi in rings]
    singles = [RingCoupler(**f) for f in fields]
    stack = CouplerStack(**{name: [f[name] for f in fields] for name in fields[0]})
    for f, ring, theta, phi in zip(fields, singles, stack.theta, stack.phi):
        assert ring.theta == theta == _reduced(f["theta"])
        assert ring.phi == phi == _reduced(f["phi"])
    for tau, eta, theta, m in zip(stack.tau, stack.eta, stack.theta,
                                  transfer_matrix_stack(stack)):
        den = abs(1.0 - tau * eta * np.exp(-1j * theta))
        assert unitarity_residual(m) <= 1e-14 / min(1.0, den)


@st.composite
def _reciprocity_ring(draw):
    """A detuned ring, or a balanced (eta = tau) or near-balanced one, on
    resonance or off it."""
    tau = draw(_COUPLER)
    eta = draw(st.one_of(_COUPLER, st.just(tau), st.floats(-1e-6, 1e-6).map(
        lambda step: min(max(tau + step, -0.999), 0.999))))
    theta = draw(st.one_of(_PHASE, st.sampled_from([-2.0 * math.pi, 0.0, 2.0 * math.pi])))
    return tau, eta, theta, draw(_PHASE)


def _network(rings, deltas):
    return NetworkParams(rings=tuple(build_coupler(*ring) for ring in rings),
                         deltas=tuple(deltas))


@given(st.tuples(*[_reciprocity_ring()] * 3), st.tuples(*[_PHASE] * 3))
def test_reversed_network_composes_to_the_transpose(rings, deltas):
    # Reciprocity: the network traversed from the other end has S^T. The
    # loop gain g = 1 / (1 - L) amplifies rounding in both compositions.
    net = _network(rings, deltas)
    s = compose_scattering(net)
    c1, d2, b3 = NetworkStack.of([net]).legs()[1]
    loop = abs(1.0 - c1[0] * d2[0] * b3[0] * np.exp(-1j * deltas[1]))
    s_rev = compose_scattering(_network(*reversed_network(rings, deltas)))
    assert np.max(np.abs(s_rev - s.T)) <= 1e-13 / min(1.0, loop)
