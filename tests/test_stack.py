"""Property tests of the stacked (N-network) forms against the scalar API,
of the sweeps' entry kernel against the composed stack, of evolve + project
against the full sector lift, and of the closed-form fixed-line-phase
intersection."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringsim import (
    S11_FIXED,
    SUCCESS_PATTERN,
    CouplerStack,
    DomainError,
    MeasurementPattern,
    NetworkParams,
    NetworkStack,
    NlpsgInput,
    NlpsgVerdict,
    PoleError,
    RESONANT_THETA,
    RingCoupler,
    SectoredState,
    build_coupler,
    build_couplers,
    compose_scattering,
    compose_scattering_stack,
    curve_network,
    enumerate_basis,
    evolve,
    invert_effective,
    nlpsg_closed_form,
    project,
    transfer_matrix_stack,
    unitarity_residual,
    verdict,
    verdict_stack,
)
from ringsim import cli
from ringsim.analysis import _intersect
from ringsim.fock import _heralded_success, _lift_block
from ringsim.network import UNITARITY_TOL, _entries, _entry_residual

from oracles import block_transfer, mode_swap3

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


def success_of_stack(s, inp, networks):
    """The sweeps' guarded success kernel on the nine row-major entries of
    each matrix of an (N, 3, 3) stack; ``networks`` are the N networks
    whose |1 - L| a failing guard reports."""
    return _heralded_success(np.ascontiguousarray(np.asarray(s).reshape(-1, 9).T), inp,
                             networks)


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
    assert np.max(np.abs(success_of_stack(s, inp, NetworkStack.of(nets)) - expected)) <= TOL


@EXAMPLES
@given(network_lists, signal_inputs())
def test_stacked_heralded_success_is_closed_form_bit_for_bit(nets, inp):
    # One code path: every member of the stack is the one-matrix closed
    # form, to the last bit.
    s = composed(nets)
    got = success_of_stack(s, inp, NetworkStack.of(nets))
    for i, m in enumerate(s):
        coeffs, _ = nlpsg_closed_form(m, inp)
        assert got[i] == np.sum(np.abs(coeffs) ** 2)


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
    # members with a pivot below 1e-3, or whose oracle is not unitary to
    # 1e-13 (its own rounding error, which tracks the gap to the closed form
    # within a factor 1.4), are left out, and every other member is checked.
    # Only an example with no member left is discarded.
    rings = networks.rings
    couplers = (rings[0], flipped(rings[1]), rings[2])
    blocks = [block_transfer(slot, transfer_matrix_stack(c), networks.deltas[:, slot - 1])
              for slot, c in zip((1, 2, 3), couplers)]
    kept = np.flatnonzero(np.all([np.abs(b[:, 1, 1]) >= 1e-3 for b in blocks], axis=0))
    chain = mode_swap3(blocks[2][kept], 2) @ mode_swap3(blocks[1][kept], 2) \
        @ mode_swap3(blocks[0][kept], 2)
    pivot_ok = np.abs(chain[:, 1, 1]) >= 1e-3
    kept, expected = kept[pivot_ok], mode_swap3(chain[pivot_ok], 2)
    unitary = unitarity_residual(expected) <= 1e-13
    kept, expected = kept[unitary], expected[unitary]
    assume(kept.size > 0)
    got = compose_scattering_stack(networks)[kept]
    assert np.max(np.abs(got - expected)) <= 1e-12


def scalar_verdict_fields(m):
    """The verdict of one matrix in numpy scalar arithmetic, as the
    one-matrix verdict computed it before the stacked form."""
    pair = m[0, 0] * m[1, 1] + m[1, 0] * m[0, 1]
    beta = [complex(m[1, 1]), complex(pair), complex(-m[0, 0] * (pair + m[1, 0] * m[0, 1]))]
    return {
        "beta0": beta[0], "beta1": beta[1], "beta2": beta[2],
        "residual": max(abs(beta[0] - beta[1]), abs(beta[0] - beta[2]),
                        abs(beta[1] - beta[2])),
        "s11_residual": abs(m[0, 0] - S11_FIXED),
        "success_probability": abs(beta[0]) ** 2,
        "magnitude_residual": max(abs(abs(b) - 0.5) for b in beta),
        "s11_magnitude_residual": abs(abs(m[0, 0]) - (math.sqrt(2.0) - 1.0)),
    }


VERDICT_FIELDS = [f.name for f in dataclasses.fields(NlpsgVerdict)]

unitary_stacks = st.one_of(
    network_lists.map(composed),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6)
    .map(lambda seeds: np.array([random_unitary(seed, 3) for seed in seeds])))


@EXAMPLES
@given(unitary_stacks)
def test_verdict_stack_members_are_one_matrix_verdicts_bit_for_bit(s):
    stacked = verdict_stack(s)
    for i in range(len(s)):
        alone, scalar = verdict_stack(s[i:i + 1]), verdict(s[i])
        for name in VERDICT_FIELDS:
            member = getattr(stacked, name)[i]
            assert member.tobytes() == getattr(alone, name)[0].tobytes()
            assert member.tobytes() == np.asarray(getattr(scalar, name)).tobytes()
        assert stacked.satisfied()[i] == scalar.satisfied()
        assert stacked.magnitudes_satisfied()[i] == scalar.magnitudes_satisfied()


@EXAMPLES
@given(unitary_stacks)
def test_verdict_stack_agrees_with_the_scalar_formula(s):
    # Array complex products may round each part once (a fused multiply-add)
    # where scalar ones round every product, so agreement is to rounding:
    # 1e-15 relative to the largest of 1, the value and the betas, whose
    # rounding every residual inherits.
    stacked = verdict_stack(s)
    for i, m in enumerate(s):
        want = scalar_verdict_fields(m)
        scale = max(1.0, *(abs(want[f"beta{k}"]) for k in range(3)))
        for name, value in want.items():
            got = getattr(stacked, name)[i]
            assert abs(got - value) <= 1e-15 * max(scale, abs(value)), name


@EXAMPLES
@given(network_lists, signal_inputs(), st.data())
def test_non_unitary_matrix_in_stack_raises_scalar_error(nets, inp, data):
    s = composed(nets)
    where = data.draw(st.integers(0, len(s) - 1))
    s[where] *= data.draw(st.sampled_from([1.1, np.nan]))
    with pytest.raises(DomainError):
        evolve(inp.state(), s[where])
    with pytest.raises(PoleError, match=f"^network {where}: "):
        success_of_stack(s, inp, NetworkStack.of(nets))


_FIELDS = ("tau", "eta", "theta", "phi", "kappa", "gamma")


def flipped(stack):
    """Every ring of a CouplerStack mounted mirror-imaged: the buses trade roles."""
    return CouplerStack(tau=stack.eta, eta=stack.tau, theta=stack.theta, phi=stack.phi,
                        kappa=stack.gamma, gamma=stack.kappa)


def member(stack, i):
    """The i-th ring of a CouplerStack as a RingCoupler."""
    return RingCoupler(**{name: getattr(stack, name)[i].item() for name in _FIELDS})


@EXAMPLES
@given(st.lists(st.tuples(transmissions, transmissions, angles), min_size=1, max_size=6),
       st.data())
@pytest.mark.filterwarnings("error")
def test_bad_coupler_in_stack_raises_scalar_error(good, data):
    # The error alone, with no warning: 1e200 * 1e200 overflows.
    bad = data.draw(st.sampled_from([(1.5, 0.2, 0.0), (0.2, np.nan, 0.0), (1.0, 1.0, 0.3),
                                     (0.3, 0.7, np.inf), (0.3, 0.7, np.nan),
                                     (1e200, 0.2, 0.0), (0.2, -1e200, 0.0)]))
    where = data.draw(st.integers(0, len(good)))
    members = good[:where] + [bad] + good[where:]
    with pytest.raises((DomainError, PoleError)) as scalar:
        build_coupler(*bad)
    with pytest.raises(type(scalar.value)) as stacked:
        build_couplers(*zip(*members))
    assert str(stacked.value) == str(scalar.value)


@EXAMPLES
@given(st.lists(st.tuples(transmissions, transmissions, st.floats(-20.0, 20.0)),
                min_size=1, max_size=6))
def test_build_couplers_members_are_build_coupler_bit_for_bit(members):
    # Every field, the default phase partition phi = theta/2 included.
    stack = build_couplers(*zip(*members))
    for i, m in enumerate(members):
        ring = build_coupler(*m)
        for name in _FIELDS:
            assert getattr(stack, name)[i].tobytes() == \
                np.asarray(getattr(ring, name)).tobytes(), name
        assert member(flipped(stack), i) == dataclasses.replace(
            ring, tau=ring.eta, eta=ring.tau, kappa=ring.gamma, gamma=ring.kappa)


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
    lifted = SectoredState(8, {n: _lift_block(s, enumerate_basis(8, n)) @ vec
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


def test_network_stack_rejects_a_ring_stack_of_another_length():
    c = build_coupler(0.3, 0.7, 1.1, 0.2)
    stack = CouplerStack.of([c, build_coupler(0.7, 0.3, 1.1, 0.2)])
    with pytest.raises(DomainError):
        NetworkStack(rings=(stack, stack, CouplerStack.of([c] * 3)),
                     deltas=np.zeros((2, 3)))



def detuned(tau1, tau2, tau3):
    """A network of detuned rings with their own phase partitions."""
    return NetworkParams(rings=tuple(build_coupler(tau, 0.5, 1.0 + tau, 0.3 - tau)
                                     for tau in (tau1, tau2, tau3)),
                         deltas=(0.1, 0.2, 0.3))


def test_stack_shares_its_transfers_read_only():
    # A ring stack's fields are read-only.
    stack = build_couplers([0.2, -0.5, 0.7], [0.6, 0.3, -0.1], [0.4, 2.0, 5.9])
    for array in (getattr(stack, f) for f in _FIELDS):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # A network stack evaluates its slots' transfers once, read-only. ``of``
    # mounts its three slots in one ring stack, the middle one flipped, and
    # gives each slot as a view into it; the constructor keeps the caller's
    # ring stacks, with no copy and no mounted stack, and gives the same
    # transfers bit for bit.
    nets = [curve_network(0.3, 0.2, 0.1), detuned(0.2, -0.5, 0.7)]
    stacked = NetworkStack.of(nets)
    general = NetworkStack(rings=stacked.rings, deltas=stacked.deltas)
    assert len(stacked.mounted) == 6 and not hasattr(general, "mounted")
    assert all(a is b for a, b in zip(general.rings, stacked.rings))
    for networks in (stacked, general):
        assert networks.transfers is networks.transfers
        for array in (*networks.transfers,
                      *(getattr(r, f) for r in networks.rings for f in _FIELDS)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    for array in (getattr(stacked.mounted, f) for f in _FIELDS):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert [t.tobytes() for t in general.transfers] == [t.tobytes() for t in stacked.transfers]
    m, (ring1, ring2, ring3) = stacked.mounted, stacked.rings
    assert np.shares_memory(ring1.tau, m.tau) and np.shares_memory(ring3.gamma, m.gamma)
    assert np.shares_memory(ring2.tau, m.eta) and np.shares_memory(ring2.kappa, m.gamma)
    assert member(ring2, 1) == nets[1].rings[1]
    # The constructor reads a caller's own arrays through the ring stack's
    # read-only views: they are not copied, and stay writable.
    tau = np.array([0.1, 0.2])
    stack = CouplerStack(tau=tau, eta=tau, theta=tau, phi=tau,
                         kappa=1j * np.sqrt(1.0 - tau * tau),
                         gamma=1j * np.sqrt(1.0 - tau * tau))
    networks = NetworkStack(rings=(stack, stack, stack), deltas=np.zeros((2, 3)))
    networks.transfers
    assert all(np.shares_memory(r.tau, tau) for r in networks.rings)
    tau[0] = 0.3


def test_stack_evaluates_a_callers_rewritten_arrays_afresh():
    # The constructor keeps a caller's writable arrays, so no transfer is
    # cached on a ring stack: a network stack made after the caller writes
    # to them evaluates the new values.
    theta = np.array([0.4, 2.0])
    tau, eta = np.array([0.2, -0.5]), np.array([0.6, 0.3])
    stack = build_couplers(tau, eta, theta)
    fields = {f: np.array(getattr(stack, f)) for f in _FIELDS}
    ring = CouplerStack(**fields)
    zeros = np.zeros((2, 3))
    before = NetworkStack(rings=(ring, ring, ring), deltas=zeros).transfers
    fields["theta"][0] = fields["phi"][0] = 1.5
    after = NetworkStack(rings=(ring, ring, ring), deltas=zeros).transfers
    fresh = CouplerStack(**{f: a.copy() for f, a in fields.items()})
    expected = NetworkStack(rings=(fresh, fresh, fresh), deltas=zeros).transfers
    assert [t.tobytes() for t in after] == [t.tobytes() for t in expected]
    assert all(not np.array_equal(a[0], b[0]) for a, b in zip(before, after))
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(before, after))


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
    tau, eta, theta, residual_mag, residual_arg = _intersect(delta2, tau2, t)
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
    tau, eta, theta, residual_mag, residual_arg = _intersect(0.0, tau2, t)
    expected = {x: invert_effective(t, x) for x in tau2}
    # Only a root within rounding of eta = 1, or one in the tail within 1e-5
    # of tau2 = 1 where no ring of doubles meets the target to 1e-9, may be
    # left out; every returned row meets it.
    assert set(tau.tolist()) >= {x for x, e in expected.items()
                                 if e < 1.0 - 1e-12 and x < 1.0 - 1e-5}
    assert np.all(residual_mag <= 1e-9) and np.all(residual_arg <= 1e-9)
    assert np.max(np.abs(eta - [expected[x] for x in tau.tolist()]), initial=0.0) < 1e-12
    assert np.all(theta == 0.0)


@st.composite
def perturbed_unitary_stacks(draw):
    """1-6 random n x n unitaries, n in {1, 2, 3, 4, 8}, each moved by up to
    a drawn size <= 1e-6 in every real and imaginary part."""
    n = draw(st.sampled_from([1, 2, 3, 4, 8]))
    members = []
    for seed, size in draw(st.lists(st.tuples(seeds, st.sampled_from([0.0, 1e-9, 1e-6])
                                              | st.floats(0.0, 1e-6)),
                                    min_size=1, max_size=6)):
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, n, n))
        members.append(random_unitary(seed, n) + size * (noise[0] + 1j * noise[1]))
    return np.array(members)


@EXAMPLES
@given(perturbed_unitary_stacks())
def test_stacked_unitarity_residual_agrees_with_one_matrix(s):
    # The stack sums S†S elementwise, one matrix by a matrix product: the
    # two orders of summation agree to rounding.
    stacked = unitarity_residual(s)
    assert stacked.shape == (len(s),)
    for member, r in zip(s, stacked):
        assert abs(r - unitarity_residual(member)) <= 1e-15


@EXAMPLES
@given(unitary_stacks, signal_inputs(),
       st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                        complex(0.0, -np.inf), complex(np.nan, 0.0)]),
       st.data())
def test_non_finite_entry_fails_the_stacked_guard(s, inp, value, data):
    s, clean = s.copy(), unitarity_residual(s)
    where = data.draw(st.integers(0, len(s) - 1))
    row, col = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    s[where, row, col] = value
    residual = unitarity_residual(s)
    assert not np.isfinite(residual[where])
    others = np.arange(len(s)) != where
    assert residual[others].tobytes() == clean[others].tobytes()
    # The stack's members are random unitaries, not composed networks: any
    # N networks stand in for the loop gain the guard's message reports.
    with pytest.raises(PoleError, match=f"^network {where}: "):
        success_of_stack(s, inp, NetworkStack.of([curve_network()] * len(s)))


def near_pole_network(eps):
    """Outer rings tau = 0.5 with eta = 0.5 + eps and 0.5, middle ring
    tau = 1 - eps, eta = 0 and line phase pi: |1 - L| is about eps, and
    composition loses about 1e-15 / eps of unitarity."""
    rings = (build_coupler(0.5, 0.5 + eps, RESONANT_THETA),
             build_coupler(1.0 - eps, 0.0, RESONANT_THETA),
             build_coupler(0.5, 0.5, RESONANT_THETA))
    return NetworkParams(rings=rings, deltas=(0.0, math.pi, 0.0))


@EXAMPLES
@given(st.lists(st.floats(min_value=-13.0, max_value=-4.0), min_size=1, max_size=6)
       .map(lambda exponents: [10.0 ** x for x in exponents]))
@example([1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-13])
@example([1e-4])
@example([1e-13])
def test_stacked_guard_verdict_near_the_loop_pole(eps):
    # Near the pole the sweeps' guard fails as a PoleError that names the
    # first network the one-matrix residual fails, with that residual and
    # its |1 - L|, which is eps to rounding here.
    networks = NetworkStack.of(near_pole_network(e) for e in eps)
    s = compose_scattering_stack(networks)
    alone = [unitarity_residual(m) <= UNITARITY_TOL for m in s]
    assert (unitarity_residual(s) <= UNITARITY_TOL).tolist() == alone
    if all(alone):
        success_of_stack(s, NlpsgInput(1.0, 0.0, 0.0), networks)
        return
    first = alone.index(False)
    with pytest.raises(PoleError) as info:
        success_of_stack(s, NlpsgInput(1.0, 0.0, 0.0), networks)
    message = str(info.value)
    assert message.startswith(
        f"network {first}: scattering matrix is not unitary within 1e-10 "
        f"(residual {unitarity_residual(s)[first]:.3e}) near the loop pole, |1 - L| = ")
    assert abs(float(message.rsplit(" ", 1)[1]) - eps[first]) <= 1e-15 + 1e-3 * eps[first]


def _coupler_stack(rng, count):
    """count random detuned rings, each with its own phase partition phi."""
    return CouplerStack.of([build_coupler(*rng.uniform(-0.95, 0.95, 2),
                                          *rng.uniform(0.0, 2.0 * math.pi, 2))
                            for _ in range(count)])


# How a line-phase column is drawn: a phase per network, one phase for all
# of them, or zeros whose sign is drawn per network.
_line_columns = st.sampled_from(["own", "shared", "signed zeros"])


def _signed_zeros(rng, n):
    """n zeros, each +0.0 or -0.0 by a draw of rng."""
    return np.where(rng.random(n) < 0.5, 0.0, -0.0)


@st.composite
def network_stacks(draw, sizes=st.integers(0, 6)):
    """0 to 6 detuned networks as one NetworkStack, with rings and line
    phases drawn from a seeded generator. Each slot holds a stack of one
    ring per network or, by a draw, one ring for all of them, and by a
    quarter's draw every slot does; the middle slot is sometimes a stack
    mounted flipped. Each line-phase column is drawn as _line_columns says."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(seeds))
    all_shared = draw(st.integers(0, 3)) == 0
    rings = [_coupler_stack(rng, 1 if all_shared or draw(st.booleans()) else n)
             for _ in range(3)]
    if draw(st.booleans()):
        rings[1] = flipped(rings[1])
    deltas = rng.uniform(0.0, 2.0 * math.pi, (n, 3))
    for k in range(3):
        column = draw(_line_columns)
        if column == "shared":
            deltas[:, k] = rng.uniform(0.0, 2.0 * math.pi)
        elif column == "signed zeros":
            deltas[:, k] = _signed_zeros(rng, n)
    return NetworkStack(rings=tuple(rings), deltas=deltas)


# One network on the optimal curve, and none.
_ON_CURVE = NetworkStack.of([curve_network(0.3, 0.3, 0.3)])
_NONE = NetworkStack(rings=_ON_CURVE.rings, deltas=np.zeros((0, 3)))
# Five networks of one detuned ring per slot: their line phases shared,
# column by column, or zeros of mixed sign.
_ONE_RING = NetworkStack.of([detuned(0.2, -0.5, 0.7)]).rings
_ALL_SHARED = NetworkStack(rings=_ONE_RING, deltas=np.tile([0.1, 0.2, 0.3], (5, 1)))
_MIXED_ZEROS = NetworkStack(rings=_ONE_RING, deltas=np.array(
    [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 0.0]]))


def outcome(f, *args):
    """f's result as bytes, or the type and message of the error it raised."""
    try:
        return np.asarray(f(*args)).tobytes()
    except (DomainError, PoleError) as err:
        return type(err), str(err)


# 30 examples keep the two kernel tests near 0.4 s.
KERNEL_EXAMPLES = settings(deadline=None, max_examples=30)


def _members(networks):
    """Each member of a NetworkStack as NetworkParams."""
    return [NetworkParams(rings=tuple(member(r, min(i, len(r) - 1)) for r in networks.rings),
                          deltas=tuple(networks.deltas[i])) for i in range(len(networks.deltas))]


# N = 0, 1, 2 and many networks.
_stack_sizes = st.one_of(st.integers(0, 2), st.integers(3, 40))


@KERNEL_EXAMPLES
@given(network_stacks(_stack_sizes), st.booleans())
def test_mounted_transfers_are_each_slots_transfers_bit_for_bit(networks, by_members):
    # The one transfer call on the mounted stack of ``of``, split by slot,
    # and the constructor's call on each slot's own fields give what each
    # slot alone gives, the middle slot mounted flipped.
    if by_members:
        networks = NetworkStack.of(_members(networks))
    rings = networks.rings
    for got, slot in zip(networks.transfers, (rings[0], flipped(rings[1]), rings[2])):
        assert got.shape == (len(slot), 2, 2)
        assert got.tobytes() == transfer_matrix_stack(slot).tobytes()
    # Each ring's through and loop legs, in the ring's own terms.
    (a1, a2, a3), (c1, d2, b3) = networks.legs()
    own = [transfer_matrix_stack(r) for r in rings]
    for got, m in zip((a1, a2, a3), own):
        assert got.tobytes() == m[:, 0, 0].tobytes()
    assert (c1.tobytes(), d2.tobytes(), b3.tobytes()) == (
        own[0][:, 1, 0].tobytes(), own[1][:, 0, 0].tobytes(), own[2][:, 0, 1].tobytes())


@KERNEL_EXAMPLES
@given(network_stacks(_stack_sizes))
@example(_ALL_SHARED)
@example(_MIXED_ZEROS)
def test_stack_members_compose_as_networks_alone_bit_for_bit(networks):
    # Each network gets its own phasors, whether a line-phase column is
    # shared by every network or holds +0.0 and -0.0. Every entry has the
    # networks' length, even where every slot and every column is shared.
    stacked = compose_scattering_stack(networks)
    members = _members(networks)
    assert all(entry.shape == (len(networks.deltas),) for entry in _entries(networks))
    assert stacked.shape == (len(networks.deltas), 3, 3)
    for i, net in enumerate(members):
        assert stacked[i].tobytes() == compose_scattering(net).tobytes()
    assert compose_scattering_stack(NetworkStack.of(members)).tobytes() == stacked.tobytes()


@KERNEL_EXAMPLES
@given(network_stacks(), signal_inputs())
@example(_NONE, NlpsgInput(1.0, 0.0, 0.0))
@example(_ON_CURVE, NlpsgInput(0.6, 0.8j, 0.0))
def test_sweep_kernel_equals_the_composed_stack_bit_for_bit(networks, inp):
    # The sweeps hand the one guarded kernel the composition's entries, and
    # success_of_stack hands it its stack's: the result, or the
    # guard's error, and the guard's residual are the same to the last bit.
    for signal in (inp, cli._EQUAL_SIGNAL):
        assert outcome(lambda: _heralded_success(_entries(networks), signal, networks)) \
            == outcome(lambda: success_of_stack(compose_scattering_stack(networks), signal,
                                                networks))
    assert outcome(lambda: _entry_residual(_entries(networks))) == outcome(
        lambda: unitarity_residual(compose_scattering_stack(networks)))
    try:
        s, stack = _entries(networks), compose_scattering_stack(networks)
    except PoleError:
        return
    assert stack.shape == (len(networks.deltas), 3, 3)
    assert all(entry.shape == (len(networks.deltas),) for entry in s)
    # The residual adds each G_ij = conj(S_0i) S_0j + conj(S_1i) S_1j +
    # conj(S_2i) S_2j left to right.
    worst = np.zeros(len(stack))
    for i in range(3):
        for j in range(i, 3):
            g = stack[:, 0, i].conj() * stack[:, 0, j] + stack[:, 1, i].conj() * stack[:, 1, j] \
                + stack[:, 2, i].conj() * stack[:, 2, j]
            worst = np.maximum(worst, np.abs(g - 1.0 if i == j else g))
    assert worst.tobytes() == unitarity_residual(stack).tobytes()
    assert worst.tobytes() == _entry_residual(s).tobytes()


@KERNEL_EXAMPLES
@given(network_stacks(st.integers(1, 6)), st.data())
def test_sweep_guard_fails_as_the_stack_guard(networks, data):
    # A member scaled off the unitary group, or one NaN entry, fails the
    # sweeps' guard on the entries as the stack's residual fails it: the
    # PoleError names the member, with its stack residual and its |1 - L|.
    entries = [entry.copy() for entry in _entries(networks)]
    where = data.draw(st.integers(0, len(networks.deltas) - 1))
    if data.draw(st.booleans()):
        for entry in entries:
            entry[where] *= 1.1
    else:
        entries[data.draw(st.integers(0, 8))][where] = np.nan
    stack = np.stack(entries, axis=-1).reshape(-1, 3, 3)
    with pytest.raises(PoleError) as swept:
        _heralded_success(entries, cli._EQUAL_SIGNAL, networks)
    with pytest.raises(PoleError) as stacked:
        success_of_stack(stack, cli._EQUAL_SIGNAL, networks)
    assert str(swept.value) == str(stacked.value)
    n = len(networks.deltas)
    c1, d2, b3 = (np.broadcast_to(leg, n)[where] for leg in networks.legs()[1])
    gap = abs(1.0 - b3 * c1 * d2 * np.exp(-1j * networks.deltas[where, 1]))
    assert str(swept.value) == (
        f"network {where}: scattering matrix is not unitary within 1e-10 (residual "
        f"{unitarity_residual(stack)[where]:.3e}) near the loop pole, |1 - L| = {gap:.3e}")


@pytest.mark.parametrize("argv", [["curve", "--grid", "3"],
                                  ["surface", "--ring", "2", "--grid", "5"]])
def test_sweeps_run_the_kernel_guard(argv, capsys):
    # Both sweeps put the composition's entries through the guarded kernel:
    # a batch off the unitary group is a numerical error exit, not CSV rows.
    entries = cli._entries

    def scaled(networks):
        return [1.1 * e for e in entries(networks)]

    with mock.patch.object(cli, "_entries", scaled):
        assert cli.main(["manifold"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"numerical error: network 0: scattering matrix is not unitary "
                        r"within 1e-10 \(residual 2\.100e-01\) near the loop pole, "
                        r"\|1 - L\| = \d\.\d{3}e[-+]\d\d\n", err), err
