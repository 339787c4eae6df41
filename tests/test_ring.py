"""Tests for the single-ring coupler and its 2x2 transfer matrix."""

import warnings

import numpy as np
import pytest

from ringsim import (
    CouplerStack,
    DomainError,
    PoleError,
    RingCoupler,
    build_coupler,
    build_couplers,
    effective_coupling,
    invert_effective,
    transfer_matrix,
    transfer_matrix_stack,
)

TWO_PI = 2.0 * np.pi


def test_build_coupler_cross_amplitudes():
    c = build_coupler(0.5, 0.5, TWO_PI)
    assert np.isclose(c.kappa, 1j * 0.8660254, atol=1e-7)
    assert np.isclose(c.gamma, 1j * 0.8660254, atol=1e-7)


def test_build_coupler_full_cross_limit():
    c = build_coupler(0.0, 0.0, 0.0)
    assert np.isclose(c.kappa, 1j)
    assert np.isclose(c.gamma, 1j)


def test_build_coupler_phi_default_uses_given_theta():
    # phi defaults to half the angle as passed, before reduction mod 2*pi.
    c = build_coupler(0.5, 0.8, TWO_PI)
    assert np.isclose(c.phi, np.pi)
    assert np.isclose(c.theta, 0.0)


def test_build_coupler_stores_theta_mod_2pi():
    c = build_coupler(0.3, 0.4, TWO_PI + 0.25)
    assert np.isclose(c.theta, 0.25)
    assert np.isclose(c.phi, 0.5 * (TWO_PI + 0.25))


def test_build_coupler_rejects_out_of_range():
    with pytest.raises(DomainError):
        build_coupler(1.2, 0.5, 0.0)
    with pytest.raises(DomainError):
        build_coupler(0.5, -1.3, 0.0)


def test_build_coupler_pole():
    with pytest.raises(PoleError):
        build_coupler(1.0, 1.0, 0.0)


def test_pole_ring_gets_one_message_by_every_route():
    # The built ring, the ring as given, and either as a member of a stack.
    fields = dict(tau=1.0, eta=1.0, theta=0.3, phi=0.15, kappa=0j, gamma=0j)
    for build in (lambda: build_coupler(1.0, 1.0, 0.3),
                  lambda: RingCoupler(**fields),
                  lambda: build_couplers([0.2, 1.0], [0.2, 1.0], 0.3),
                  lambda: CouplerStack(**{k: [v, v] for k, v in fields.items()})):
        with pytest.raises(PoleError, match=r"^\|tau\*eta\| = 1.0: on-resonance pole$"):
            build()


@pytest.mark.parametrize("theta, phi, name", [
    (np.inf, None, "theta"), (np.nan, None, "theta"), (-np.inf, 0.2, "theta"),
    (0.3, np.nan, "phi"), (0.3, np.inf, "phi"),
])
def test_non_finite_phase_is_a_domain_error_naming_it(theta, phi, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            build_coupler(0.3, 0.7, theta, phi)
        if phi is None:
            with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
                build_couplers([0.3, 0.3], [0.7, 0.7], [1.0, theta])


@pytest.mark.parametrize("field", ["kappa", "gamma"])
def test_ring_coupler_rejects_nan_cross_amplitude(field):
    fields = dict(tau=0.5, eta=0.5, theta=0.0, phi=0.0,
                  kappa=1j * np.sqrt(0.75), gamma=1j * np.sqrt(0.75))
    fields[field] = complex("nan")
    with pytest.raises(DomainError):
        RingCoupler(**fields)


def test_flipped_swaps_waveguide_and_loop_sides():
    c = build_coupler(0.3, 0.7, 1.1, 0.2)
    f = c.flipped()
    assert f.tau == c.eta and f.eta == c.tau
    assert f.kappa == c.gamma and f.gamma == c.kappa
    assert f.theta == c.theta and f.phi == c.phi


def test_transfer_swap_example():
    coupler = build_coupler(0.5, 0.5, TWO_PI, np.pi)
    m = transfer_matrix(coupler)
    assert m.shape == (2, 2)
    assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-12)
    # One ring is the N = 1 case of the stacked transfer, bit for bit.
    assert m.tobytes() == transfer_matrix_stack(CouplerStack.of([coupler]))[0].tobytes()


def test_transfer_balanced_through_vanishes():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(0.05, 0.95)
        m = transfer_matrix(build_coupler(t, t, TWO_PI, np.pi))
        assert abs(m[0, 0]) < 1e-12
        assert abs(m[1, 1]) < 1e-12


def test_transfer_effective_form_example():
    m = transfer_matrix(build_coupler(0.5, 0.8, TWO_PI, np.pi))
    assert np.isclose(m[0, 0], 0.5, atol=1e-7)
    assert np.isclose(m[0, 1], 0.8660254, atol=1e-7)
    assert np.isclose(m[1, 0], 0.8660254, atol=1e-7)
    assert np.isclose(m[1, 1], -0.5, atol=1e-7)


def test_transfer_unitary_on_random_draws():
    rng = np.random.default_rng(7)
    eye = np.eye(2)
    for _ in range(1000):
        tau, eta = rng.uniform(-0.99, 0.99, size=2)
        theta = rng.uniform(0.0, TWO_PI)
        m = transfer_matrix(build_coupler(tau, eta, theta))
        assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-12


def test_effective_coupling_example():
    t, r = effective_coupling(0.5, 0.8)
    assert np.isclose(t, 0.5, atol=1e-7)
    assert np.isclose(r, 0.8660254, atol=1e-7)


def test_effective_coupling_trivia():
    t, r = effective_coupling(0.6, 0.6)
    assert np.isclose(t, 0.0) and np.isclose(r, 1.0)
    t, r = effective_coupling(0.0, 0.37)
    assert np.isclose(t, 0.37)


def test_effective_coupling_normalized():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        tau, eta = rng.uniform(-0.99, 0.99, size=2)
        t, r = effective_coupling(tau, eta)
        assert np.isclose(t * t + r * r, 1.0, atol=1e-12)
        assert r >= 0.0


def test_invert_effective_example():
    assert np.isclose(invert_effective(0.9101797, 0.5), 0.9691358, atol=1e-7)


def test_invert_effective_trivia():
    assert np.isclose(invert_effective(0.0, 0.42), 0.42)
    assert np.isclose(invert_effective(0.73, 0.0), 0.73)


def test_invert_effective_round_trip():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        tau = rng.uniform(-0.99, 0.99)
        t = rng.uniform(-0.99, 0.99)
        if abs(t * tau) >= 0.99:
            continue
        count += 1
        eta = invert_effective(t, tau)
        t_back, _ = effective_coupling(tau, eta)
        assert np.isclose(t_back, t, atol=1e-10)


def test_invert_effective_pole():
    with pytest.raises(PoleError):
        invert_effective(1.0, -1.0)
    with pytest.raises(PoleError):
        invert_effective(-1.0, 1.0)


def test_effective_coupling_pole():
    # The 0/0 at the pole raises PoleError and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1.0, -1.0):
            with pytest.raises(PoleError):
                effective_coupling(tau, tau)


_BELOW_ONE = 1.0 - 2.0 ** -53


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_valid_input_next_to_the_pole_is_exact(sign):
    # With |t|, |tau| <= 1 the denominators 1 + t tau and 1 - eta tau are
    # exact next to the corners (Sterbenz), so only the corner is a pole.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invert_effective(-sign, sign * _BELOW_ONE) == -sign
        assert effective_coupling(sign * _BELOW_ONE, sign) == (sign, 0.0)


def test_on_resonance_consistency_with_full_transfer():
    # On resonance a ring is the beam splitter [[t, r], [r, -t]] of its
    # effective transmission t, r = sqrt(1 - t^2); the flipped coupler, as
    # mounted in slot 2, is [[-t, r], [r, t]].
    rng = np.random.default_rng(41)
    for _ in range(200):
        tau = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.05, 0.95)
        t, _ = effective_coupling(tau, eta)
        coupler = build_coupler(tau, eta, TWO_PI)
        r = np.sqrt(1.0 - t * t)
        m = transfer_matrix(coupler)
        assert np.max(np.abs(m - [[t, r], [r, -t]])) < 1e-12
        m_flip = transfer_matrix(coupler.flipped())
        assert np.max(np.abs(m_flip - [[-t, r], [r, t]])) < 1e-12


@pytest.mark.parametrize("call, message", [
    # |kappa|^2 + tau^2 = 1 holds, but a real kappa breaks the phase condition.
    (lambda: RingCoupler(tau=0.6, eta=0.6, theta=0.0, phi=0.0, kappa=0.8 + 0j, gamma=0.8 + 0j),
     "kappa violates the reciprocity phase condition"),
    (lambda: CouplerStack(tau=[0.1, 0.2], eta=[0.1], theta=[0.0], phi=[0.0],
                          kappa=[1j], gamma=[1j]),
     "coupler fields must be 1-D arrays of one length, got shapes [(1,), (2,)]"),
    (lambda: effective_coupling(1.5, 0.5), "transmissions must lie in [-1, 1]"),
    (lambda: effective_coupling(0.5, -1.5), "transmissions must lie in [-1, 1]"),
    (lambda: invert_effective(1.5, 0.5), "arguments must lie in [-1, 1]"),
    (lambda: invert_effective(0.5, -1.5), "arguments must lie in [-1, 1]"),
], ids=["reciprocity-phase", "stack-shapes", "effective-tau", "effective-eta",
        "invert-t", "invert-tau"])
def test_ring_rejects_bad_input(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
