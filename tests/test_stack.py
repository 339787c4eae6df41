"""Property tests of the stacked (N-network) forms against the scalar API,
of the sweeps' entry kernel against the composed stack, of evolve + project
against the full sector lift, and of the closed-form fixed-line-phase
intersection."""

import dataclasses
import math
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
    SectoredState,
    block_transfer,
    build_coupler,
    build_couplers,
    compose_scattering,
    compose_scattering_stack,
    curve_network,
    enumerate_basis,
    evolve,
    heralded_success_stack,
    intersect_stack,
    invert_effective,
    lift_unitary,
    mode_swap3,
    nlpsg_closed_form,
    project,
    transfer_matrix_stack,
    unitarity_residual,
    verdict,
    verdict_stack,
)
from ringsim import cli
from ringsim.fock import LIFT_UNITARITY_TOL, _success_probability
from ringsim.network import _entries, _entry_residual

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
@given(network_lists, signal_inputs())
def test_stacked_heralded_success_is_closed_form_bit_for_bit(nets, inp):
    # One code path: every member of the stack is the one-matrix closed
    # form, to the last bit.
    s = composed(nets)
    got = heralded_success_stack(s, inp)
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
    couplers = (rings[0], rings[1].flipped(), rings[2])
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
        "offdiag_probability": 0.5 * abs(m[1, 0]) ** 2 * abs(m[0, 1]) ** 2,
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
    with pytest.raises(DomainError):
        heralded_success_stack(s, inp)


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
    s = compose_scattering_stack(NetworkStack.of(near_pole_network(e) for e in eps))
    alone = [unitarity_residual(m) <= LIFT_UNITARITY_TOL for m in s]
    assert (unitarity_residual(s) <= LIFT_UNITARITY_TOL).tolist() == alone
    if all(alone):
        heralded_success_stack(s, NlpsgInput(1.0, 0.0, 0.0))
    else:
        with pytest.raises(DomainError):
            heralded_success_stack(s, NlpsgInput(1.0, 0.0, 0.0))


def _coupler_stack(rng, count):
    """count random detuned rings, each with its own phase partition phi."""
    return CouplerStack.of([build_coupler(*rng.uniform(-0.95, 0.95, 2),
                                          *rng.uniform(0.0, 2.0 * math.pi, 2))
                            for _ in range(count)])


@st.composite
def network_stacks(draw, sizes=st.integers(0, 6)):
    """0 to 6 detuned networks as one NetworkStack, with rings and line
    phases drawn from a seeded generator. Each slot holds a stack of one
    ring per network or, by a draw, one ring for all of them; the middle
    slot is sometimes a stack mounted flipped."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(seeds))
    rings = [_coupler_stack(rng, 1 if draw(st.booleans()) else n) for _ in range(3)]
    if draw(st.booleans()):
        rings[1] = rings[1].flipped()
    deltas = rng.uniform(0.0, 2.0 * math.pi, (n, 3))
    return NetworkStack(rings=tuple(rings), deltas=deltas)


# One network on the optimal curve, and none.
_ON_CURVE = NetworkStack.of([curve_network(0.3, 0.3, 0.3)])
_NONE = NetworkStack(rings=_ON_CURVE.rings, deltas=np.zeros((0, 3)))


def outcome(f, *args):
    """f's result as bytes, or the type and message of the error it raised."""
    try:
        return np.asarray(f(*args)).tobytes()
    except (DomainError, PoleError) as err:
        return type(err), str(err)


# 30 examples keep the two kernel tests near 0.4 s.
KERNEL_EXAMPLES = settings(deadline=None, max_examples=30)


@KERNEL_EXAMPLES
@given(network_stacks(), signal_inputs())
@example(_NONE, NlpsgInput(1.0, 0.0, 0.0))
@example(_ON_CURVE, NlpsgInput(0.6, 0.8j, 0.0))
def test_sweep_kernel_equals_the_composed_stack_bit_for_bit(networks, inp):
    # The sweeps read S entry by entry; the result, and the guard's residual,
    # are those of the composed (N, 3, 3) stack to the last bit.
    assert outcome(cli._sweep_success, networks) == outcome(
        lambda: heralded_success_stack(compose_scattering_stack(networks), cli._SWEEP_INPUT))
    assert outcome(lambda: _entry_residual(_entries(networks))) == outcome(
        lambda: unitarity_residual(compose_scattering_stack(networks)))
    try:
        s, stack = _entries(networks), compose_scattering_stack(networks)
    except PoleError:
        return
    assert stack.shape == (len(networks), 3, 3)
    assert all(entry.shape == (len(networks),) for entry in s)
    # The residual adds each G_ij = conj(S_0i) S_0j + conj(S_1i) S_1j +
    # conj(S_2i) S_2j left to right.
    worst = np.zeros(len(stack))
    for i in range(3):
        for j in range(i, 3):
            g = stack[:, 0, i].conj() * stack[:, 0, j] + stack[:, 1, i].conj() * stack[:, 1, j] \
                + stack[:, 2, i].conj() * stack[:, 2, j]
            worst = np.maximum(worst, np.abs(g - 1.0 if i == j else g))
    assert worst.tobytes() == unitarity_residual(stack).tobytes()
    if np.all(worst <= LIFT_UNITARITY_TOL):
        assert _success_probability(s[0], s[1], s[3], s[4], inp).tobytes() == \
            heralded_success_stack(stack, inp).tobytes()


@KERNEL_EXAMPLES
@given(network_stacks(st.integers(1, 6)), st.data())
def test_sweep_guard_fails_as_the_stack_guard(networks, data):
    # A member scaled off the unitary group, or one NaN entry, fails the
    # sweep's entry guard and the stack's guard with the same message.
    entries = [entry.copy() for entry in _entries(networks)]
    where = data.draw(st.integers(0, len(networks) - 1))
    if data.draw(st.booleans()):
        for entry in entries:
            entry[where] *= 1.1
    else:
        entries[data.draw(st.integers(0, 8))][where] = np.nan
    stack = np.stack(entries, axis=-1).reshape(-1, 3, 3)
    with pytest.raises(DomainError) as swept:
        with mock.patch.object(cli, "_entries", lambda _: entries):
            cli._sweep_success(networks)
    with pytest.raises(DomainError) as stacked:
        heralded_success_stack(stack, cli._SWEEP_INPUT)
    assert str(swept.value) == str(stacked.value)
