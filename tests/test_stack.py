"""Property tests of the stacked (N-network) forms against the scalar API,
of evolve + project against the full sector lift, and of the closed-form
fixed-line-phase intersection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringsim import (
    SUCCESS_PATTERN,
    CouplerStack,
    DomainError,
    MeasurementPattern,
    NetworkParams,
    NetworkStack,
    NlpsgInput,
    PoleError,
    RESONANT_THETA,
    SectoredState,
    block_transfer,
    build_coupler,
    build_couplers,
    compose_scattering,
    compose_scattering_stack,
    enumerate_basis,
    evolve,
    heralded_success_stack,
    intersect_stack,
    invert_effective,
    lift_unitary,
    mode_swap3,
    project,
    transfer_matrix_stack,
    unitarity_residual,
)

TOL = 1e-14
# Each example composes up to a dozen networks; 50 keep the suite quick.
EXAMPLES = settings(deadline=None, max_examples=50)

transmissions = st.floats(min_value=-0.95, max_value=0.95)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@st.composite
def detuned_networks(draw, transmissions=transmissions):
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
    """Scalar composition of each network."""
    return np.array([compose_scattering(n) for n in nets])


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
    # Full-drop outer rings and a full-through middle ring close the
    # feedback loop with gain exactly 1.
    outer = build_coupler(0.5, 0.5, RESONANT_THETA)
    bad = NetworkParams(rings=(outer, build_coupler(1.0, 0.0, RESONANT_THETA), outer),
                        deltas=(0.0, math.pi, 0.0))
    where = data.draw(st.integers(0, len(nets)))
    with pytest.raises(PoleError, match="network 0: "):
        compose_scattering(bad)
    with pytest.raises(PoleError, match=f"network {where}: "):
        compose_scattering_stack(NetworkStack.of(nets[:where] + [bad] + nets[where:]))


@EXAMPLES
@given(st.lists(detuned_networks(st.floats(min_value=-0.99, max_value=0.99)),
                min_size=1, max_size=8))
def test_compose_equals_swap_chain_oracle(nets):
    networks = NetworkStack.of(nets)
    # The paper's mode-swap composition: each block swapped on mode 2, the
    # chain multiplied in slot order 3, 2, 1, and a final mode-2 swap. Every
    # swap divides by its pivot, so the oracle loses digits as pivots shrink:
    # examples with a pivot below 1e-3, or whose oracle is not unitary to
    # 1e-13 (its own rounding error, which tracks the gap to the closed form
    # within a factor 1.4), are discarded.
    rings = networks.rings
    couplers = (rings[0], rings[1].flipped(), rings[2])
    blocks = [block_transfer(slot, transfer_matrix_stack(c), networks.deltas[:, slot - 1])
              for slot, c in zip((1, 2, 3), couplers)]
    assume(min(np.min(np.abs(b[:, 1, 1])) for b in blocks) >= 1e-3)
    chain = mode_swap3(blocks[2], 2) @ mode_swap3(blocks[1], 2) @ mode_swap3(blocks[0], 2)
    assume(np.min(np.abs(chain[:, 1, 1])) >= 1e-3)
    expected = mode_swap3(chain, 2)
    assume(np.max(unitarity_residual(expected)) <= 1e-13)
    got = compose_scattering_stack(networks)
    assert np.max(np.abs(got - expected)) <= 1e-12


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


def random_unitary(seed, n):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


seeds = st.integers(min_value=0, max_value=2**32 - 1)
units = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def fock_states(draw):
    """An 8-mode state with 1-3 occupied four-photon states, sometimes
    joined by sparse sectors of fewer photons, a dense two-photon sector, a
    half-filled sector (more than a quarter of its states occupied, not
    all) or an all-zero sector, in random sector order."""
    sectors = {}
    for n in [4] + draw(st.lists(st.integers(0, 3), max_size=2)):
        basis = enumerate_basis(8, n)
        vec = sectors.setdefault(n, np.zeros(basis.size, dtype=complex))
        for _ in range(draw(st.integers(1, 3))):
            vec[draw(st.integers(0, basis.size - 1))] = complex(draw(units), draw(units))
    if draw(st.booleans()):
        parts = np.array(draw(st.lists(units, min_size=72, max_size=72)))
        sectors[2] = parts[:36] + 1j * parts[36:]
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        size = enumerate_basis(8, n).size
        rng = np.random.default_rng(draw(seeds))
        picks = rng.choice(size, draw(st.integers(size // 4 + 1, size - 1)), replace=False)
        sectors[n] = np.zeros(size, dtype=complex)
        sectors[n][picks] = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        sectors[n] = np.zeros(enumerate_basis(8, n).size, dtype=complex)
    order = draw(st.permutations(list(sectors)))
    return SectoredState(8, {n: sectors[n] for n in order})


@st.composite
def patterns(draw):
    """The CNOT heralds, the empty pattern, one no state here can meet, or
    random counts on up to four modes (kept rows in several sectors)."""
    fixed = [((4, 1), (5, 0), (6, 1), (7, 0)), (), ((0, 5),)]
    modes = draw(st.lists(st.integers(0, 7), max_size=4, unique=True))
    random = tuple((m, draw(st.integers(0, 2))) for m in modes)
    return MeasurementPattern(draw(st.sampled_from(fixed + [random])))


@EXAMPLES
@given(seeds, fock_states(), patterns())
def test_project_of_evolve_equals_full_lift(seed, state, pattern):
    s = random_unitary(seed, 8)
    lifted = SectoredState(8, {n: lift_unitary(s, n) @ vec
                               for n, vec in state.sectors.items()})
    evolved = evolve(state, s)
    assert list(evolved.sectors) == list(lifted.sectors)
    for n, vec in lifted.sectors.items():
        assert np.max(np.abs(evolved.sectors[n] - vec)) <= 1e-12
    prob, cond = project(evolved, pattern)
    expected_prob, expected = project(lifted, pattern)
    assert abs(prob - expected_prob) <= 1e-12
    assert cond.n_modes == expected.n_modes
    assert list(cond.sectors) == list(expected.sectors)
    for n, vec in expected.sectors.items():
        assert np.max(np.abs(cond.sectors[n] - vec), initial=0.0) <= 1e-12


def test_stack_members_round_trip():
    c = build_coupler(0.3, 0.7, 1.1, 0.2)
    stack = CouplerStack.of([c, c.flipped()])
    assert stack.member(0) == c
    assert stack.flipped().member(0) == c.flipped()
    with pytest.raises(DomainError):
        NetworkStack(rings=(stack, stack, CouplerStack.of([c] * 3)),
                     deltas=np.zeros((2, 3)))



def test_stack_shares_its_transfers_read_only():
    stack = build_couplers([0.2, -0.5, 0.7], [0.6, 0.3, -0.1], [0.4, 2.0, 5.9])
    assert stack.flipped() is stack.flipped()
    assert stack.transfers is stack.transfers
    assert np.array_equal(stack.transfers, transfer_matrix_stack(stack))
    assert np.array_equal(stack.flipped().transfers, transfer_matrix_stack(stack.flipped()))
    for array in (stack.transfers, stack.tau, stack.flipped().kappa):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # A caller's own array stays writable.
    tau = np.array([0.1, 0.2])
    CouplerStack(tau=tau, eta=tau, theta=tau, phi=tau,
                 kappa=1j * np.sqrt(1.0 - tau * tau), gamma=1j * np.sqrt(1.0 - tau * tau))
    tau[0] = 0.3


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
    tau, eta, theta, residual_mag, residual_arg = intersect_stack(0.0, tau2, t)
    expected = {x: invert_effective(t, x) for x in tau2}
    # Only a root within rounding of eta = 1, or one in the tail within 1e-5
    # of tau2 = 1 where no ring of doubles meets the target to 1e-9, may be
    # left out; every returned row meets it.
    assert set(tau.tolist()) >= {x for x, e in expected.items()
                                 if e < 1.0 - 1e-12 and x < 1.0 - 1e-5}
    assert np.all(residual_mag <= 1e-9) and np.all(residual_arg <= 1e-9)
    assert np.max(np.abs(eta - [expected[x] for x in tau.tolist()]), initial=0.0) < 1e-12
    assert np.all(theta == 0.0)
