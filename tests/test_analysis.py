"""Tests for the heralded-gate constraint analysis and its optimal manifolds."""

import cmath
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringsim import (
    CouplerStack,
    NlpsgInput,
    SUCCESS_PATTERN,
    T1_OPTIMAL,
    T2_OPTIMAL,
    beta_sq_of_t1,
    build_coupler,
    closed_form_resonant,
    compose_scattering_stack,
    curve_ring,
    curve_stack,
    evolve,
    intersect_delta2,
    intersect_stack,
    invert_effective,
    off_resonance_check,
    optimize_t1,
    project,
    surface_stack,
    surface_theta,
    surface_theta_stack,
    t2_from_equality,
    t3_of_t1,
    transfer_matrix,
    verdict,
    verdict_stack,
    wrap_angle,
)
from ringsim import analysis as analysis_module
from ringsim.analysis import _intersect, _slot_transmission
from ringsim.errors import DomainError

SQRT2 = np.sqrt(2.0)


def surface_ring(slot, tau, eta, branch=0):
    thetas = surface_theta(T1_OPTIMAL if slot != 2 else T2_OPTIMAL, eta, tau)
    assert thetas, f"no detuning solution at tau={tau}, eta={eta}"
    return build_coupler(tau, eta, thetas[branch])


def test_wrap_angle_edges():
    assert np.isclose(wrap_angle(0.1 + 2.0 * np.pi), 0.1, atol=1e-12)
    assert np.isclose(wrap_angle(np.pi), np.pi)
    assert np.isclose(wrap_angle(-np.pi), np.pi)
    assert np.isclose(wrap_angle(-0.3), -0.3, atol=1e-12)


def test_wrap_angle_zero_is_positive():
    for x in (0.0, -0.0, 2.0 * np.pi, -2.0 * np.pi):
        assert math.copysign(1.0, wrap_angle(x)) == 1.0
    # Away from zero the value is the plain modular reduction's.
    for x in np.linspace(-20.0, 20.0, 401):
        if x != 0.0:
            assert wrap_angle(x) == -((-x + math.pi) % (2.0 * math.pi) - math.pi)


# Angles where the wrap is decided by one rounding: pi + 2 pi k and one float
# either side of it, with the zeros and +-pi below.
_CUT_ANGLES = st.builds(lambda k, step: step(math.pi + 2.0 * math.pi * k),
                        st.integers(-1000, 1000),
                        st.sampled_from([lambda x: x,
                                         lambda x: math.nextafter(x, math.inf),
                                         lambda x: math.nextafter(x, -math.inf)]))
_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), _CUT_ANGLES,
                    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(_ANGLES, min_size=1, max_size=16))
def test_wrap_angle_of_an_array_is_the_scalar_wrap_of_each_angle(angles):
    scalar = [wrap_angle(x) for x in angles]
    assert all(type(w) is float and -math.pi < w <= math.pi for w in scalar)
    wrapped = wrap_angle(np.array(angles))
    assert wrapped.dtype == float and wrapped.shape == (len(angles),)
    # Compared as bits, so that -0.0 and +0.0 differ.
    assert wrapped.tobytes() == np.array(scalar).tobytes()


def test_optimal_point_constants():
    assert np.isclose(T1_OPTIMAL, np.sqrt(2.0 * (SQRT2 - 1.0)), atol=1e-15)
    assert np.isclose(T2_OPTIMAL, (1.0 + 2.0 * SQRT2) / 7.0, atol=1e-15)
    # Slots 1, 2 and 3 take t1, t2 and t3 = t1.
    assert [_slot_transmission(s) for s in (1, 2, 3)] == [T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL]
    assert np.isclose(T1_OPTIMAL, 0.9101797, atol=1e-7)
    assert np.isclose(T2_OPTIMAL, 0.5469182, atol=1e-7)


def test_verdict_at_optimum():
    v = verdict(closed_form_resonant(T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL))
    assert v.residual < 1e-12
    assert v.s11_residual < 1e-12
    assert np.isclose(v.beta0, 0.5, atol=1e-12)
    assert np.isclose(v.success_probability, 0.25, atol=1e-12)
    assert v.satisfied()


def test_verdict_identity_matrix():
    v = verdict(np.eye(3))
    assert np.isclose(v.beta0, 1.0)
    assert np.isclose(v.beta1, 1.0)
    assert np.isclose(v.beta2, -1.0)
    assert np.isclose(v.residual, 2.0)
    assert not v.satisfied()


def test_verdict_along_curve_keeps_constraints():
    # The one-parameter family keeps the amplitudes equal while their
    # shared magnitude moves with t1.
    v = verdict(closed_form_resonant(0.8, T2_OPTIMAL, t3_of_t1(0.8)))
    assert v.residual < 1e-12
    assert v.s11_residual < 1e-12
    assert np.isclose(abs(v.beta0), 0.4626810, atol=1e-7)
    assert np.isclose(v.success_probability, 0.2140742, atol=1e-7)


def test_t3_of_t1_values():
    assert np.isclose(t3_of_t1(0.8), 0.9582434, atol=1e-7)
    assert np.isclose(t3_of_t1(T1_OPTIMAL), T1_OPTIMAL, atol=1e-12)
    with pytest.raises(DomainError):
        t3_of_t1(0.99)


@pytest.mark.parametrize("t1", [math.nan, math.inf])
def test_optimal_curve_rejects_non_finite_t1(t1):
    # A NaN t1 fails both domain checks, not neither.
    for f in (t3_of_t1, beta_sq_of_t1):
        with pytest.raises(DomainError):
            f(t1)


def test_t3_of_t1_product_invariant():
    # The reflectivity product is constant along the curve; its square
    # root 3 - 2*sqrt(2) is the value either factor takes at the optimum.
    for t1 in np.linspace(0.05, 0.97, 41):
        t3 = t3_of_t1(t1)
        product = (1.0 - t1 * t1) * (1.0 - t3 * t3)
        assert abs(product - (3.0 - 2.0 * SQRT2) ** 2) < 1e-12


def test_beta_sq_variants():
    assert np.isclose(beta_sq_of_t1(T1_OPTIMAL, "corrected"), 0.25, atol=1e-12)
    assert np.isclose(beta_sq_of_t1(T1_OPTIMAL, "printed"),
                      (SQRT2 - 1.0) / 4.0, atol=1e-12)
    assert np.isclose(beta_sq_of_t1(T1_OPTIMAL, "printed"), 0.1035534, atol=1e-7)
    with pytest.raises(DomainError):
        beta_sq_of_t1(0.5, "florid")


def test_beta_sq_variants_differ_by_constant_factor():
    for t1 in np.linspace(0.05, 0.97, 41):
        printed = beta_sq_of_t1(t1, "printed")
        corrected = beta_sq_of_t1(t1, "corrected")
        assert abs(corrected - (1.0 + SQRT2) * printed) < 1e-12


def test_beta_sq_corrected_matches_matrix():
    for t1 in np.linspace(0.1, 0.95, 30):
        v = verdict(closed_form_resonant(t1, T2_OPTIMAL, t3_of_t1(t1)))
        assert abs(beta_sq_of_t1(t1, "corrected") - v.success_probability) < 1e-10


def test_optimize_t1_both_variants():
    t1_star, peak = optimize_t1("corrected")
    assert abs(t1_star - T1_OPTIMAL) < 1e-10
    assert abs(peak - 0.25) < 1e-10
    t1_printed, peak_printed = optimize_t1("printed")
    assert abs(t1_printed - T1_OPTIMAL) < 1e-9
    assert abs(peak_printed - (SQRT2 - 1.0) / 4.0) < 1e-10


def test_gradient_vanishes_at_optimum():
    t1_star, _ = optimize_t1("corrected")
    h = 1e-5
    grad = (beta_sq_of_t1(t1_star + h) - beta_sq_of_t1(t1_star - h)) / (2.0 * h)
    assert abs(grad) < 1e-6


def test_t2_from_equality_recovers_optimum():
    t2 = t2_from_equality(T1_OPTIMAL, T1_OPTIMAL)
    assert abs(t2 - T2_OPTIMAL) < 1e-10


@pytest.mark.parametrize("t", [1e-5, 1e-6, 1e-7])
def test_t2_from_equality_finds_a_root_next_to_one(t):
    # The root, near 1 - t^2, lies above 1 - 1e-9 but below the pole.
    assert abs(t2_from_equality(t, t) - (1.0 - t * t)) <= 1e-12


@pytest.mark.parametrize("t1, t3", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0), (1e-8, 1e-8)])
def test_t2_from_equality_without_a_sign_change_is_a_domain_error(t1, t3):
    # t1 t3 = 0 gives beta0 = beta1 = 0 for every t2; at t1 = t3 = 1e-8, as at
    # 1e-9 (test_analysis_rejects_bad_input), the bracket's end is on the
    # pole. Neither is a root or a PoleError.
    with pytest.raises(DomainError) as info:
        t2_from_equality(t1, t3)
    assert str(info.value) == "heralded-amplitude equality does not bracket in (0, 1)"


def test_t2_from_equality_at_the_optimum_keeps_its_bits():
    assert t2_from_equality(T1_OPTIMAL, T1_OPTIMAL) == 0.5469181606780271


@pytest.mark.parametrize("call, message", [
    (lambda: verdict_stack(np.eye(3)), "expected an (N, 3, 3) stack, got shape (3, 3)"),
    (lambda: verdict(np.eye(2)), "expected a 3x3 matrix, got shape (2, 2)"),
    (lambda: surface_theta_stack(1.0, [0.5], [0.5]), "|transmission| < 1 required, got 1.0"),
    (lambda: surface_theta_stack(0.5, [1.0], [0.5]), "eta and tau must lie in (-1, 1)"),
    (lambda: surface_theta_stack(0.5, [0.5], [-1.0]), "eta and tau must lie in (-1, 1)"),
    (lambda: surface_stack(0, [0.5], [0.5]), "slot must be 1, 2 or 3, got 0"),
    (lambda: surface_stack(4, [0.5], [0.5]), "slot must be 1, 2 or 3, got 4"),
    # For small t1 = t3 = t the gap Re(beta0 - beta1) changes sign near
    # t2 = 1 - t^2, which at t = 1e-9 lies on the network's pole.
    (lambda: t2_from_equality(1e-9, 1e-9),
     "heralded-amplitude equality does not bracket in (0, 1)"),
], ids=["verdict_stack-shape", "verdict-shape", "transmission", "eta", "tau",
        "slot-0", "slot-4", "t2-no-bracket"])
def test_analysis_rejects_bad_input(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def curve_matrices(taus, ring):
    """The curve networks of one ring slot, composed in one stacked call."""
    return compose_scattering_stack(curve_stack(taus, ring))


def test_curve_examples():
    networks = curve_stack([0.0], ring=2)
    assert np.isclose(networks.rings[1].eta[0], 0.5469182, atol=1e-7)
    networks = curve_stack([0.5], ring=1)
    assert np.isclose(networks.rings[0].eta[0], 0.9691358, atol=1e-7)
    assert np.isclose(invert_effective(T1_OPTIMAL, 1.0), 1.0, atol=1e-15)


def test_curve_skips_pole_points():
    assert len(curve_stack([0.0, 0.5, 1.0], ring=1)) == 2


def test_curve_skip_messages_are_logged_at_info_only(caplog, monkeypatch):
    grid = [-1.5, 0.0, 0.5, 1.0, 1.5]
    with caplog.at_level(logging.INFO, logger="ringsim.analysis"):
        assert len(curve_stack(grid, ring=1)) == 2
    assert [r.getMessage() for r in caplog.records] == [
        *(f"curve point tau={tau} skipped: inversion pole or coupler outside its domain"
          for tau in (-1.5, 1.0, 1.5)),
        "curve trace skipped 3 of 5 grid points"]
    caplog.clear()

    # With INFO off, no message is logged, nor even formed.
    def forbidden(*args, **kwargs):
        raise AssertionError("log.info called with INFO off")

    monkeypatch.setattr(analysis_module.log, "info", forbidden)
    with caplog.at_level(logging.WARNING, logger="ringsim.analysis"):
        assert len(curve_stack(grid, ring=1)) == 2
    assert caplog.records == []


def test_curve_rejects_bad_ring():
    with pytest.raises(DomainError):
        curve_stack([0.1], ring=4)


def test_curve_samples_stay_optimal():
    rng = np.random.default_rng(71)
    for ring in (1, 2, 3):
        taus = rng.uniform(0.0, 0.95, size=20)
        v = verdict_stack(curve_matrices(taus, ring))
        assert np.all(v.residual < 1e-9)
        assert np.all(np.abs(v.success_probability - 0.25) < 1e-9)
        assert np.all(v.satisfied(1e-9))


def test_success_probability_equals_offdiagonal_product():
    # |beta0|^2 = |S21 S12|^2 / 2 everywhere on the curve.
    rng = np.random.default_rng(73)
    taus = rng.uniform(0.0, 0.9, size=20)
    s = curve_matrices(taus, 1)
    offdiag = 0.5 * np.abs(s[:, 1, 0]) ** 2 * np.abs(s[:, 0, 1]) ** 2
    assert np.all(np.abs(verdict_stack(s).success_probability - offdiag) < 1e-10)


def test_herald_transmission_locked_to_offdiagonals():
    rng = np.random.default_rng(79)
    taus = rng.uniform(0.0, 0.9, size=20)
    s = curve_matrices(taus, 3)
    assert np.all(np.abs(s[:, 0, 1] * s[:, 1, 0] / SQRT2 - s[:, 1, 1]) < 1e-10)


def test_surface_theta_examples():
    # Branch pair sums to 2*pi; the magnitude identity below pins the
    # angles far tighter than these four-digit spot values.
    sols = surface_theta(T2_OPTIMAL, 0.9, 0.9)
    assert len(sols) == 2
    assert np.isclose(sols[0], 0.138, atol=2e-4)
    assert np.isclose(sols[0] + sols[1], 2.0 * np.pi, atol=1e-12)
    assert surface_theta(0.99, 0.1, 0.1) == ()


def test_surface_theta_contains_resonance_on_curve():
    tau = 0.35
    eta = invert_effective(T1_OPTIMAL, tau)
    sols = surface_theta(T1_OPTIMAL, eta, tau)
    assert sols and np.isclose(sols[0], 0.0, atol=1e-7)


def test_surface_theta_solutions_hit_target_magnitude():
    rng = np.random.default_rng(83)
    found = 0
    while found < 50:
        tau = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.05, 0.95)
        for theta in surface_theta(T1_OPTIMAL, eta, tau):
            a = transfer_matrix(build_coupler(tau, eta, theta))[0, 0]
            assert abs(abs(a) - T1_OPTIMAL) < 1e-10
            found += 1


def test_surface_theta_degenerate_coupler():
    match = surface_theta(0.6, 0.6, 0.0)
    assert match == (0.0, np.pi)
    assert surface_theta(0.6, 0.2, 0.0) == ()


def through_phase(eta, tau, theta):
    """Phase of a ring's through amplitude (eta - tau e^{-i theta}) /
    (1 - eta tau e^{-i theta}), written out here as an oracle that does
    not read the package's transfer matrices."""
    z = cmath.exp(-1j * theta)
    return cmath.phase((eta - tau * z) / (1.0 - eta * tau * z))


def test_through_phase_of_transfer_matrix_matches_formula():
    rng = np.random.default_rng(89)
    for _ in range(100):
        tau = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        a = transfer_matrix(build_coupler(tau, eta, theta))[0, 0]
        if abs(a) < 1e-6:
            continue
        assert np.isclose(through_phase(eta, tau, theta), np.angle(a), atol=1e-12)


def test_off_resonance_check_resonant_limit():
    report = off_resonance_check(CouplerStack.of([curve_ring(1, 0.3)]),
                                 CouplerStack.of([curve_ring(3, 0.6)]))
    assert report.verdict.satisfied(1e-9).all()
    assert np.all(np.abs(report.heralded_phase) < 1e-9)
    assert np.isclose(report.verdict.beta0, 0.5, atol=1e-12).all()


def test_off_resonance_check_detuned():
    report = off_resonance_check(CouplerStack.of([surface_ring(1, 0.3, 0.95)]),
                                 CouplerStack.of([surface_ring(3, 0.6, 0.97, branch=1)]),
                                 tau2=0.4)
    assert report.verdict.magnitudes_satisfied(1e-9).all()
    assert np.all(np.abs(np.abs(report.verdict.beta0) - 0.5) < 1e-9)
    assert np.all(report.phase_residual < 1e-9)
    assert np.all(np.abs(report.verdict.success_probability - 0.25) < 1e-9)


def test_off_resonance_full_simulation_success():
    report = off_resonance_check(CouplerStack.of([surface_ring(1, 0.2, 0.93)]),
                                 CouplerStack.of([surface_ring(3, 0.5, 0.96)]))
    s = compose_scattering_stack(report.networks)[0]
    alpha = np.ones(3) / np.sqrt(3.0)
    inp = NlpsgInput(alpha0=alpha[0], alpha1=alpha[1], alpha2=alpha[2])
    prob, _ = project(evolve(inp.state(), s), SUCCESS_PATTERN)
    assert abs(prob - 0.25) < 1e-9


def test_off_resonance_check_stack_is_its_members():
    # One call over a stack, with length-1 stacks broadcast, reports what a
    # call per network reports, and the ring phases are the formula's.
    ring1 = [surface_ring(1, 0.2, 0.93), surface_ring(1, 0.3, 0.95, branch=1),
             curve_ring(1, 0.4)]
    ring3 = surface_ring(3, 0.5, 0.96)
    tau2 = np.array([0.0, 0.4, 0.7])
    report = off_resonance_check(CouplerStack.of(ring1), CouplerStack.of([ring3]), tau2)
    assert report.ring_phases.shape == (3, 3)
    for i in range(3):
        one = off_resonance_check(CouplerStack.of([ring1[i]]), CouplerStack.of([ring3]),
                                  tau2[i])
        for name in ("ring_phases", "heralded_phase", "phase_residual"):
            assert np.array_equal(getattr(one, name)[0], getattr(report, name)[i])
        assert np.array_equal(one.verdict.beta0[0], report.verdict.beta0[i])
        rings = (ring1[i], curve_ring(2, tau2[i]), ring3)
        assert np.allclose(report.ring_phases[i],
                           [through_phase(r.eta, r.tau, r.theta) for r in rings],
                           atol=1e-12)
    assert np.all(report.phase_residual < 1e-9)


def test_off_resonance_check_vanishing_through_amplitude_has_phase_zero():
    # A balanced resonant ring (eta = tau) passes nothing straight through.
    report = off_resonance_check(CouplerStack.of([build_coupler(0.5, 0.5, 0.0)]),
                                 CouplerStack.of([curve_ring(3, 0.0)]))
    assert report.ring_phases[0, 0] == 0.0
    assert report.verdict.beta0[0] == 0.0


def test_intersect_nonzero_line_phase():
    grid = np.linspace(0.0, 0.96, 25)
    networks = intersect_delta2(np.pi / 30.0, tau2_grid=grid)
    assert len(networks)
    # The tau2 = 0 grid point carries a fixed through phase and cannot
    # meet the nonzero target, so at least one point is skipped.
    assert len(networks) < 25
    _, _, _, solver_mag, solver_arg = intersect_stack(np.pi / 30.0, grid)
    assert np.all(solver_mag < 1e-9)
    assert np.all(solver_arg < 1e-9)
    v = verdict_stack(compose_scattering_stack(networks))
    assert np.all(np.abs(v.success_probability - 0.25) < 1e-9)
    assert np.all(v.magnitudes_satisfied(1e-9))
    ring2 = networks.rings[1]
    for eta, tau, theta in zip(ring2.eta, ring2.tau, ring2.theta):
        assert abs(wrap_angle(through_phase(eta, tau, theta) - np.pi / 30.0)) < 1e-9


def test_intersect_zero_line_phase_reduces_to_curve():
    grid = np.linspace(0.0, 0.9, 10)
    ring2 = intersect_delta2(0.0, tau2_grid=grid).rings[1]
    assert len(ring2) == len(grid)
    assert ring2.tau.tolist() == grid.tolist()
    for eta, theta, tau2 in zip(ring2.eta, ring2.theta, grid):
        assert abs(eta - invert_effective(T2_OPTIMAL, tau2)) < 1e-9
        assert abs(wrap_angle(theta)) < 1e-9


def test_intersect_at_zero_lower_coupler():
    # At tau2 = 0 the through amplitude is eta for every theta.
    tau, eta, theta, residual_mag, residual_arg = intersect_stack(0.0, [0.0])
    assert tau.tolist() == [0.0] and eta.tolist() == [T2_OPTIMAL]
    assert theta.tolist() == [0.0]
    assert residual_mag.tolist() == [0.0] and residual_arg.tolist() == [0.0]
    assert all(x.size == 0 for x in intersect_stack(np.pi / 30.0, [0.0]))


def test_intersect_drops_rows_that_miss_the_target_near_unit_coupler():
    # Near tau2 = 1 no ring of doubles meets the target, so those rows are
    # dropped; every returned row, re-evaluated here, is within 1e-9.
    delta2, t = -0.538, 0.0813
    body = np.linspace(0.0, 0.999, 1000)
    tail = 1.0 - np.logspace(-4, -12, 200)
    tau, eta, theta, residual_mag, residual_arg = _intersect(
        delta2, np.concatenate([body, tail]), t)
    assert np.all(residual_mag <= 1e-9) and np.all(residual_arg <= 1e-9)
    z = np.exp(-1j * theta)
    a = (eta - tau * z) / (1.0 - eta * tau * z)
    assert np.all(np.abs(np.abs(a) - t) <= 1e-9)
    assert np.all(np.abs(np.angle(a * np.exp(-1j * delta2))) <= 1e-9)
    # The well-conditioned body keeps all 958 of its roots; only tail points
    # within 1e-5 of tau2 = 1 are dropped, and the tail keeps some rows.
    assert np.count_nonzero(tau <= 0.999) == 958
    assert np.all(1.0 - np.setdiff1d(tail, tau) < 1e-5)
    assert 0 < np.count_nonzero(tau > 0.999) < tail.size

