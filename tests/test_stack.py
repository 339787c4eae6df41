"""Property tests of the stacked (N-network) forms against the scalar API,
and of the closed-form fixed-line-phase intersection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringsim import (
    SUCCESS_PATTERN,
    CouplerStack,
    DomainError,
    NetworkParams,
    NetworkStack,
    NlpsgInput,
    PoleError,
    RESONANT_THETA,
    SingularPivotError,
    build_coupler,
    build_couplers,
    compose_scattering,
    compose_scattering_stack,
    evolve,
    heralded_success_stack,
    intersect_stack,
    invert_effective,
    project,
)

TOL = 1e-14
# Each example composes up to a dozen networks; 50 keep the suite quick.
EXAMPLES = settings(deadline=None, max_examples=50)

transmissions = st.floats(min_value=-0.95, max_value=0.95)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@st.composite
def detuned_networks(draw):
    """A network with random theta, phi and delta in every slot."""
    rings = tuple(build_coupler(draw(transmissions), draw(transmissions),
                                draw(angles), draw(angles)) for _ in range(3))
    return NetworkParams(rings=rings, deltas=tuple(draw(angles) for _ in range(3)))


@st.composite
def signal_inputs(draw):
    parts = np.array([draw(st.floats(min_value=-1.0, max_value=1.0)) for _ in range(6)])
    alpha = parts[:3] + 1j * parts[3:]
    norm = np.linalg.norm(alpha)
    assume(norm > 1e-3)
    return NlpsgInput(*(alpha / norm))


network_lists = st.lists(detuned_networks(), min_size=1, max_size=6)


def composed(nets):
    """Scalar composition of each network; examples with a singular pivot
    are discarded."""
    try:
        return np.array([compose_scattering(n) for n in nets])
    except SingularPivotError:
        assume(False)


@EXAMPLES
@given(network_lists)
def test_stacked_compose_equals_scalar(nets):
    expected = composed(nets)
    got = compose_scattering_stack(NetworkStack.of(nets))
    assert got.shape == (len(nets), 3, 3)
    assert np.max(np.abs(got - expected)) <= TOL


@EXAMPLES
@given(network_lists, signal_inputs())
def test_stacked_heralded_success_equals_project(nets, inp):
    s = composed(nets)
    try:
        expected = [project(evolve(inp.state(), m), SUCCESS_PATTERN)[0] for m in s]
    except DomainError:
        assume(False)
    assert np.max(np.abs(heralded_success_stack(s, inp) - expected)) <= TOL


@EXAMPLES
@given(network_lists, st.data())
def test_bad_network_in_stack_raises_scalar_error(nets, data):
    composed(nets)
    # A balanced ring on resonance has a vanishing through amplitude.
    tau = data.draw(transmissions)
    slot = data.draw(st.integers(0, 2))
    where = data.draw(st.integers(0, len(nets)))
    rings = list(nets[0].rings)
    rings[slot] = build_coupler(tau, tau, RESONANT_THETA)
    bad = NetworkParams(rings=tuple(rings), deltas=nets[0].deltas)
    with pytest.raises(SingularPivotError) as scalar:
        compose_scattering(bad)
    with pytest.raises(SingularPivotError) as stacked:
        compose_scattering_stack(NetworkStack.of(nets[:where] + [bad] + nets[where:]))
    assert stacked.value.block == scalar.value.block


@EXAMPLES
@given(network_lists, signal_inputs(), st.data())
def test_non_unitary_matrix_in_stack_raises_scalar_error(nets, inp, data):
    s = composed(nets)
    where = data.draw(st.integers(0, len(s) - 1))
    s[where] *= data.draw(st.sampled_from([1.1, np.nan]))
    with pytest.raises(DomainError):
        evolve(inp.state(), s[where])
    with pytest.raises(DomainError):
        heralded_success_stack(s, inp)


@EXAMPLES
@given(st.lists(st.tuples(transmissions, transmissions, angles), min_size=1, max_size=6),
       st.data())
def test_bad_coupler_in_stack_raises_scalar_error(good, data):
    bad = data.draw(st.sampled_from([(1.5, 0.2, 0.0), (0.2, np.nan, 0.0), (1.0, 1.0, 0.3)]))
    where = data.draw(st.integers(0, len(good)))
    members = good[:where] + [bad] + good[where:]
    with pytest.raises((DomainError, PoleError)) as scalar:
        build_coupler(*bad)
    with pytest.raises(type(scalar.value)):
        build_couplers(*zip(*members))
    stack = build_couplers(*zip(*good))
    assert [stack.member(i) for i in range(len(good))] == \
        [build_coupler(*m) for m in good]


def test_stack_members_round_trip():
    c = build_coupler(0.3, 0.7, 1.1, 0.2)
    stack = CouplerStack.of([c, c.flipped()])
    assert stack.member(0) == c
    assert stack.flipped().member(0) == c.flipped()
    with pytest.raises(DomainError):
        NetworkStack(rings=(stack, stack, CouplerStack.of([c] * 3)),
                     deltas=np.zeros((2, 3)))


phases = st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True)
lower_couplers = st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                    exclude_max=True), min_size=1, max_size=20)
targets = st.floats(min_value=0.05, max_value=0.95)


def rounding_slack(tau, eta, theta):
    """First-order change of the through amplitude when tau, eta and theta
    each move by 64 ulps. It grows without bound as tau approaches 1, where
    no pair of doubles (eta, theta) meets the target to 1e-12."""
    z = np.exp(-1j * theta)
    den = np.abs(1.0 - eta * tau * z) ** 2
    return 64.0 * np.finfo(float).eps * (
        np.abs(1.0 - tau * tau * z * z) * eta + (1.0 - eta * eta) * tau
        + tau * (1.0 - eta * eta) * np.abs(theta)) / den


@EXAMPLES
@given(phases, lower_couplers, targets)
def test_intersect_rows_meet_the_target(delta2, tau2, t):
    tau, eta, theta, residual_mag, residual_arg = intersect_stack(delta2, tau2, t)
    assert np.all((eta > 0.0) & (eta < 1.0))
    assert np.all((theta > -math.pi) & (theta <= math.pi))
    z = np.exp(-1j * theta)
    a = (eta - tau * z) / (1.0 - eta * tau * z)
    bound = 1e-12 + rounding_slack(tau, eta, theta)
    assert np.all(np.abs(np.abs(a) - t) < bound)
    assert np.all(np.abs(np.angle(a * np.exp(-1j * delta2))) < bound / t)
    assert np.all(residual_mag < bound) and np.all(residual_arg < bound / t)


@EXAMPLES
@given(lower_couplers, targets)
def test_intersect_at_zero_line_phase_is_the_resonant_curve(tau2, t):
    tau, eta, theta, _, _ = intersect_stack(0.0, tau2, t)
    expected = {x: invert_effective(t, x) for x in tau2}
    # Only a root within rounding of eta = 1 may be left out.
    assert set(tau.tolist()) >= {x for x, e in expected.items() if e < 1.0 - 1e-12}
    assert np.max(np.abs(eta - [expected[x] for x in tau.tolist()]), initial=0.0) < 1e-12
    assert np.all(theta == 0.0)
