"""Tests for the Fock-space engine: bases, permanents, lifts, projection."""

from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import (
    MeasurementPattern,
    NetworkParams,
    NlpsgInput,
    OccupationBasis,
    SUCCESS_PATTERN,
    SectoredState,
    T1_OPTIMAL,
    T2_OPTIMAL,
    build_coupler,
    closed_form_resonant,
    compose_scattering,
    enumerate_basis,
    evolve,
    nlpsg_closed_form,
    project,
)
from ringsim.errors import DomainError
from ringsim.fock import _herald_table, _lift_block, _permanent_batch

from oracles import naive_permanent

HOM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


# The tests of the public permanent, lift_unitary and SectoredState.norm_sq,
# which only tests called, now run the kernels behind them through these.
def ryser(m):
    """The package's Ryser permanent of one square matrix: its stack of one."""
    return complex(_permanent_batch(np.asarray(m, dtype=complex)[np.newaxis])[0])


def lift(s, n_photons):
    """The n-photon sector matrix of s, from the lift kernel that evolve and
    the CNOT run, over every state of the sector."""
    s = np.asarray(s, dtype=complex)
    return _lift_block(s, enumerate_basis(len(s), n_photons))


def norm_sq(state):
    """Squared norm of a SectoredState, summed over its sectors."""
    return float(sum(np.sum(np.abs(v) ** 2) for v in state.sectors.values()))


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_network_matrix(rng):
    rings = tuple(
        build_coupler(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                      rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(3)
    )
    deltas = tuple(rng.uniform(0.0, 2.0 * np.pi, 3))
    return compose_scattering(NetworkParams(rings=rings, deltas=deltas))


def random_alpha(rng):
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    return NlpsgInput(alpha0=a[0], alpha1=a[1], alpha2=a[2])


def test_basis_sizes():
    assert enumerate_basis(3, 3).size == 10
    assert enumerate_basis(8, 4).size == 330
    basis = enumerate_basis(2, 0)
    assert basis.size == 1
    assert basis.states == ((0, 0),)


def test_basis_ordering_descending_lex():
    basis = enumerate_basis(3, 3)
    assert basis.states[0] == (3, 0, 0)
    assert basis.states[-1] == (0, 0, 3)
    assert all(basis.states[i] > basis.states[i + 1]
               for i in range(basis.size - 1))
    assert all(sum(occ) == 3 for occ in basis.states)


def test_basis_index_roundtrip():
    basis = enumerate_basis(4, 3)
    for i, occ in enumerate(basis.states):
        assert basis.index_of(occ) == i
    with pytest.raises(DomainError):
        basis.index_of((4, 0, 0, 0))


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_basis_tables_match_state_definition(n_modes):
    for n_photons in range(6):
        basis = enumerate_basis(n_modes, n_photons)
        # Every occupation of n_modes modes by n_photons photons, once each,
        # in descending lexicographic order.
        assert basis.size == comb(n_modes + n_photons - 1, n_photons)
        assert all(len(occ) == n_modes and min(occ) >= 0 and sum(occ) == n_photons
                   for occ in basis.states)
        assert all(type(c) is int for occ in basis.states for c in occ)
        assert all(a > b for a, b in zip(basis.states, basis.states[1:]))
        assert basis.occupancy.dtype == np.int64
        assert basis.occupancy.tolist() == [list(occ) for occ in basis.states]
        assert basis.mode_indices.shape == (basis.size, n_photons)
        assert basis.mode_indices.dtype == np.int64
        assert basis.norms.shape == (basis.size,)
        assert basis.norms.dtype == float
        for occ, modes, norm in zip(basis.states, basis.mode_indices, basis.norms):
            expected = sorted(m for m, count in enumerate(occ) for _ in range(count))
            assert modes.tolist() == expected
            assert norm == prod(factorial(c) for c in occ)


def test_basis_tables_are_read_only():
    basis = enumerate_basis(3, 2)
    for table in (basis.occupancy, basis.mode_indices, basis.norms):
        with pytest.raises(ValueError):
            table[0] = 0


def herald_patterns(n_modes):
    """The patterns the herald table is checked on at n_modes modes."""
    out = [MeasurementPattern(()),                           # keeps everything
           MeasurementPattern(((0, 5),)),                    # unmeetable
           MeasurementPattern(tuple((m, 0) for m in range(n_modes))),
           MeasurementPattern(((0, 2),) + tuple((m, 0) for m in range(1, n_modes)))]
    if n_modes >= 3:
        out.append(SUCCESS_PATTERN)
    if n_modes == 8:
        out.append(MeasurementPattern(((4, 1), (5, 0), (6, 1), (7, 0))))
    return out


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_herald_table_matches_its_definition(n_modes):
    for n_photons in range(5):
        basis = enumerate_basis(n_modes, n_photons)
        for pattern in herald_patterns(n_modes):
            table = _herald_table(n_modes, n_photons, pattern)
            counts = dict(pattern.constraints)
            keep = [m for m in range(n_modes) if m not in counts]
            rest = n_photons - sum(counts.values())
            rows = [i for i, occ in enumerate(basis.states)
                    if all(occ[m] == c for m, c in counts.items())]
            assert table.rows.tolist() == rows
            if rest < 0:
                assert table.targets.size == 0 and table.remaining is None
                continue
            remaining = enumerate_basis(max(len(keep), 1), rest)
            assert table.remaining is remaining
            assert table.targets.tolist() == [
                remaining.index_of(tuple(basis.states[i][k] for k in keep) or (0,))
                for i in rows]
            assert _herald_table(n_modes, n_photons,
                                 MeasurementPattern(pattern.constraints)) is table
            for array in (table.rows, table.targets):
                with pytest.raises(ValueError):
                    array[:1] = 0
    with pytest.raises(DomainError):
        _herald_table(n_modes, 1, MeasurementPattern(((n_modes, 0),)))


def test_permanent_examples():
    assert np.isclose(ryser(np.eye(2)), 1.0)
    assert abs(ryser(HOM_SPLITTER)) < 1e-15
    assert np.isclose(ryser(np.ones((3, 3))), 6.0)


def test_permanent_empty_matrix():
    assert np.isclose(ryser(np.zeros((0, 0))), 1.0)


def gray_code_permanents(stack):
    """Ryser's formula walked in Gray-code order with the code word kept
    as state, the flipped column found from its change and the sign from
    its popcount: the reference for the step-index walk."""
    b, k, _ = stack.shape
    if k == 0:
        return np.ones(b, dtype=complex)
    row = np.zeros((b, k), dtype=complex)
    total = np.zeros(b, dtype=complex)
    gray = 0
    for idx in range(1, 1 << k):
        g = idx ^ (idx >> 1)
        bit = (g ^ gray).bit_length() - 1
        if g & (g ^ gray):
            row += stack[:, :, bit]
        else:
            row -= stack[:, :, bit]
        gray = g
        sign = -1.0 if bin(g).count("1") % 2 else 1.0
        total += sign * row.prod(axis=1)
    return total if k % 2 == 0 else -total


@pytest.mark.parametrize("k", range(10))
def test_permanent_batch_equals_gray_code_walk_bit_for_bit(k):
    rng = np.random.default_rng(1000 + k)
    stack = rng.normal(size=(6, k, k)) + 1j * rng.normal(size=(6, k, k))
    assert _permanent_batch(stack).tobytes() == gray_code_permanents(stack).tobytes()


def test_permanent_ryser_matches_naive():
    rng = np.random.default_rng(29)
    for k in range(1, 7):
        for _ in range(20):
            m = rng.uniform(-0.5, 0.5, (k, k)) + 1j * rng.uniform(-0.5, 0.5, (k, k))
            assert abs(ryser(m) - naive_permanent(m)) < 1e-12


def test_lift_single_photon_is_the_matrix():
    rng = np.random.default_rng(31)
    s = random_network_matrix(rng)
    assert np.max(np.abs(lift(s, 1) - s)) < 1e-14


def test_lift_identity():
    lifted = lift(np.eye(4), 3)
    assert np.max(np.abs(lifted - np.eye(enumerate_basis(4, 3).size))) < 1e-14


def test_lift_hom_interference():
    # Two photons on a balanced splitter never exit one per port.
    lifted = lift(HOM_SPLITTER, 2)
    basis = enumerate_basis(2, 2)
    col = lifted[:, basis.index_of((1, 1))]
    assert abs(col[basis.index_of((1, 1))]) < 1e-12
    assert np.isclose(abs(col[basis.index_of((2, 0))]), 1.0 / np.sqrt(2.0), atol=1e-12)
    assert np.isclose(abs(col[basis.index_of((0, 2))]), 1.0 / np.sqrt(2.0), atol=1e-12)


def test_lift_unitary_up_to_8_modes_4_photons():
    rng = np.random.default_rng(37)
    for n_modes, n_photons in ((3, 3), (5, 2), (8, 4)):
        u = random_unitary(rng, n_modes)
        lifted = lift(u, n_photons)
        dim = enumerate_basis(n_modes, n_photons).size
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(dim))) < 1e-10


def assert_lift_is_a_homomorphism(u, v, n_photons):
    """The lift of a product is the product of the lifts, and the lift of
    the adjoint is the adjoint of the lift."""
    lift_u, lift_v = lift(u, n_photons), lift(v, n_photons)
    assert np.max(np.abs(lift(u @ v, n_photons) - lift_u @ lift_v)) <= 1e-13
    assert np.max(np.abs(lift(u.conj().T, n_photons) - lift_u.conj().T)) <= 1e-13


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.tuples(st.integers(1, 6), st.integers(0, 4)),
                 st.tuples(st.just(8), st.integers(0, 3))))
def test_lift_is_a_homomorphism(seed, sector):
    n_modes, n_photons = sector
    rng = np.random.default_rng(seed)
    assert_lift_is_a_homomorphism(random_unitary(rng, n_modes),
                                  random_unitary(rng, n_modes), n_photons)


def test_lift_is_a_homomorphism_at_8_modes_4_photons():
    rng = np.random.default_rng(59)
    assert_lift_is_a_homomorphism(random_unitary(rng, 8), random_unitary(rng, 8), 4)


# The lift kernel takes a matrix already guarded: evolve, the one caller
# that takes a caller's matrix, rejects one that is not unitary.
def test_lift_rejects_non_unitary():
    with pytest.raises(DomainError):
        evolve(SectoredState.from_occupations(2, {(1, 1): 1.0}), np.ones((2, 2)))


def test_lift_rejects_nan_matrix():
    with pytest.raises(DomainError):
        evolve(SectoredState.from_occupations(2, {(1, 1): 1.0}), np.full((2, 2), np.nan))


def test_evolve_rejects_nan_matrix():
    state = SectoredState.from_occupations(3, {(1, 0, 0): 1.0})
    s = np.eye(3, dtype=complex)
    s[0, 0] = np.nan
    with pytest.raises(DomainError):
        evolve(state, s)


def test_evolve_vacuum_untouched():
    rng = np.random.default_rng(43)
    state = SectoredState.from_occupations(3, {(0, 0, 0): 1.0})
    out = evolve(state, random_network_matrix(rng))
    assert np.isclose(out.amplitude_of((0, 0, 0)), 1.0)
    assert np.isclose(norm_sq(out), 1.0)


def test_evolve_single_photon_gives_matrix_column():
    rng = np.random.default_rng(47)
    s = random_network_matrix(rng)
    for j in range(3):
        occ = tuple(1 if k == j else 0 for k in range(3))
        out = evolve(SectoredState.from_occupations(3, {occ: 1.0}), s)
        for i in range(3):
            occ_out = tuple(1 if k == i else 0 for k in range(3))
            assert np.isclose(out.amplitude_of(occ_out), s[i, j], atol=1e-14)


def test_evolve_conserves_norm():
    rng = np.random.default_rng(53)
    for _ in range(50):
        sectors = {}
        for n in range(4):
            dim = enumerate_basis(3, n).size
            sectors[n] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = SectoredState(3, sectors)
        out = evolve(state, random_network_matrix(rng))
        assert np.isclose(norm_sq(out), norm_sq(state), atol=1e-12)


@pytest.mark.parametrize("seed, amplitudes", [
    (41, {(4, 0, 0, 0, 0, 0, 0, 0): 1.0}),
    (43, {(0, 0, 0, 1, 0, 0, 0, 3): 1.0}),
    (47, {(1, 0, 1, 0, 1, 0, 1, 0): 0.6, (0, 1, 0, 1, 0, 1, 0, 1): 0.8j}),
    (53, {(2, 0, 0, 0, 0, 0, 2, 0): 0.8, (0, 0, 1, 1, 0, 1, 1, 0): -0.6}),
])
def test_sparse_evolve_matches_full_lift(seed, amplitudes):
    # One or two of the 330 four-photon states are occupied, so evolve lifts
    # only those columns; the result must equal the full sector matrix.
    s = random_unitary(np.random.default_rng(seed), 8)
    state = SectoredState.from_occupations(8, amplitudes)
    vec = state.sectors[4]
    assert 0 < np.count_nonzero(vec) <= enumerate_basis(8, 4).size // 4
    out = evolve(state, s)
    assert np.max(np.abs(out.sectors[4] - lift(s, 4) @ vec)) < 1e-12


def test_evolve_mode_mismatch():
    state = SectoredState.from_occupations(2, {(1, 0): 1.0})
    with pytest.raises(DomainError):
        evolve(state, np.eye(3))


def test_project_success_at_optimum():
    s = closed_form_resonant(T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL)
    alpha = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    inp = NlpsgInput(alpha0=alpha[0], alpha1=alpha[1], alpha2=alpha[2])
    prob, cond = project(evolve(inp.state(), s), SUCCESS_PATTERN)
    assert np.isclose(prob, 0.25, atol=1e-9)
    amps = np.array([cond.amplitude_of((n,)) for n in range(3)])
    amps /= amps[0] / abs(amps[0])
    expected = np.array([alpha[0], alpha[1], -alpha[2]])
    assert np.max(np.abs(amps - expected)) < 1e-9


def test_project_zero_probability():
    state = SectoredState.from_occupations(3, {(0, 0, 0): 1.0})
    prob, cond = project(state, MeasurementPattern(((1, 1),)))
    assert prob == 0.0
    assert norm_sq(cond) == 0.0


def test_project_empty_pattern_is_identity():
    state = SectoredState.from_occupations(3, {(1, 0, 1): 0.6, (0, 1, 0): 0.8})
    prob, cond = project(state, MeasurementPattern(()))
    assert np.isclose(prob, 1.0, atol=1e-12)
    assert np.isclose(cond.amplitude_of((1, 0, 1)), 0.6)
    assert np.isclose(cond.amplitude_of((0, 1, 0)), 0.8)


def test_project_sums_onto_zeros():
    # Kept amplitudes are added onto a zero vector, so a negative zero part
    # comes out positive, as the printed conditional amplitudes rely on.
    state = SectoredState(2, {1: np.array([complex(0.6, -0.0), complex(-0.0, 0.8)])})
    _, cond = project(state, MeasurementPattern(()))
    vec = cond.sectors[1]
    assert not np.any(np.signbit(vec.real)) and not np.any(np.signbit(vec.imag))


def test_project_rejects_unknown_mode():
    state = SectoredState.from_occupations(2, {(1, 0): 1.0})
    with pytest.raises(DomainError):
        project(state, MeasurementPattern(((5, 1),)))


def test_pattern_rejects_duplicate_modes():
    with pytest.raises(DomainError):
        MeasurementPattern(((1, 1), (1, 0)))


def test_nlpsg_input_must_be_normalized():
    with pytest.raises(DomainError):
        NlpsgInput(alpha0=1.0, alpha1=1.0, alpha2=0.0)


def test_nlpsg_input_rejects_nan():
    with pytest.raises(DomainError):
        NlpsgInput(alpha0=np.nan, alpha1=0.0, alpha2=0.0)


_EQUAL_INPUT = NlpsgInput(*[3.0 ** -0.5] * 3)


@pytest.mark.parametrize("call, message", [
    (lambda: OccupationBasis(0, 1), "n_modes must be >= 1, got 0"),
    (lambda: OccupationBasis(1, -1), "n_photons must be >= 0, got -1"),
    (lambda: evolve(SectoredState.from_occupations(2, {(1, 0): 1.0}), np.ones((2, 3))),
     "matrix shape (2, 3) does not match 2 modes"),
    (lambda: SectoredState(3, {1: [1.0, 0.0]}), "sector 1 needs 3 amplitudes, got shape (2,)"),
    (lambda: SectoredState.from_occupations(3, {(1, 0): 1.0}),
     "occupation (1, 0) does not have 3 modes"),
    (lambda: MeasurementPattern(((-1, 0),)), "mode index -1 is negative"),
    (lambda: MeasurementPattern(((0, -1),)), "photon count -1 is negative"),
    (lambda: nlpsg_closed_form(np.eye(2), _EQUAL_INPUT), "expected a 3x3 matrix, got shape (2, 2)"),
], ids=["no-modes", "negative-photons", "lift-non-square", "sector-length",
        "occupation-modes", "negative-mode", "negative-count", "closed-form-shape"])
def test_fock_rejects_bad_input(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_nlpsg_closed_form_examples():
    s = closed_form_resonant(T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL)
    coeffs, _ = nlpsg_closed_form(s, NlpsgInput(1.0, 0.0, 0.0))
    assert np.isclose(coeffs[0], 0.5, atol=1e-12)
    coeffs, _ = nlpsg_closed_form(s, NlpsgInput(0.0, 0.0, 1.0))
    assert np.isclose(coeffs[2], -0.5, atol=1e-12)


def test_nlpsg_vacuum_success_is_herald_transmission():
    rng = np.random.default_rng(59)
    for _ in range(20):
        s = random_network_matrix(rng)
        coeffs, _ = nlpsg_closed_form(s, NlpsgInput(1.0, 0.0, 0.0))
        assert np.isclose(coeffs[0], s[1, 1], atol=1e-14)


def test_closed_form_matches_full_simulation():
    # Independent oracle: amplitudes from evolve + herald equal the closed
    # form, and success plus failure weight is exhaustive.
    rng = np.random.default_rng(61)
    for _ in range(100):
        s = random_network_matrix(rng)
        inp = random_alpha(rng)
        coeffs, failure_norm = nlpsg_closed_form(s, inp)
        evolved = evolve(inp.state(), s)
        for n in range(3):
            amp = evolved.amplitude_of((n, 1, 0))
            assert abs(amp - coeffs[n]) < 1e-12
        prob, _ = project(evolved, SUCCESS_PATTERN)
        assert np.isclose(prob, float(np.sum(np.abs(coeffs) ** 2)), atol=1e-12)
        assert np.isclose(prob + failure_norm, 1.0, atol=1e-12)
