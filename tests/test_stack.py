"""Property tests of the stacked (N-network) forms against the scalar API."""

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
