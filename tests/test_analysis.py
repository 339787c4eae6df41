"""Tests for the heralded-gate constraint analysis and its optimal manifolds."""

import numpy as np
import pytest

from ringsim import (
    NlpsgInput,
    PoleError,
    S11_FIXED,
    SUCCESS_PATTERN,
    T1_OPTIMAL,
    T2_OPTIMAL,
    UndefinedPhaseError,
    align_line_phases,
    beta_sq_of_t1,
    build_coupler,
    closed_form_resonant,
    compose_scattering,
    curve_eta_of_tau,
    curve_network,
    curve_ring,
    evolve,
    intersect_delta2,
    intersect_stack,
    invert_effective,
    off_resonance_check,
    optimal_point,
    optimize_t1,
    project,
    ring_phase_arg,
    surface_theta,
    t2_from_equality,
    t3_of_t1,
    transfer_matrix,
    verdict,
    wrap_angle,
)
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


def test_optimal_point_constants():
    pt = optimal_point()
    assert np.isclose(pt.t1, np.sqrt(2.0 * (SQRT2 - 1.0)), atol=1e-15)
    assert np.isclose(pt.t2, (1.0 + 2.0 * SQRT2) / 7.0, atol=1e-15)
    assert pt.t3 == pt.t1
    assert np.isclose(pt.t1, 0.9101797, atol=1e-7)
    assert np.isclose(pt.t2, 0.5469182, atol=1e-7)


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


def test_curve_examples():
    samples = curve_eta_of_tau(T2_OPTIMAL, [0.0], ring=2)
    assert np.isclose(samples[0].network.rings[1].eta, 0.5469182, atol=1e-7)
    samples = curve_eta_of_tau(T1_OPTIMAL, [0.5], ring=1)
    assert np.isclose(samples[0].network.rings[0].eta, 0.9691358, atol=1e-7)
    assert np.isclose(invert_effective(T1_OPTIMAL, 1.0), 1.0, atol=1e-15)


def test_curve_skips_pole_points():
    samples = curve_eta_of_tau(T1_OPTIMAL, [0.0, 0.5, 1.0], ring=1)
    assert len(samples) == 2


def test_curve_rejects_bad_ring():
    with pytest.raises(DomainError):
        curve_eta_of_tau(T1_OPTIMAL, [0.1], ring=4)


def test_curve_samples_stay_optimal():
    rng = np.random.default_rng(71)
    for ring in (1, 2, 3):
        transmission = T2_OPTIMAL if ring == 2 else T1_OPTIMAL
        taus = rng.uniform(0.0, 0.95, size=20)
        for sample in curve_eta_of_tau(transmission, taus, ring=ring):
            assert sample.residuals.constraint < 1e-9
            assert sample.residuals.beta_sq_dev < 1e-9
            v = verdict(compose_scattering(sample.network))
            assert v.satisfied(1e-9)


def test_success_probability_equals_offdiagonal_product():
    # |beta0|^2 = |S21 S12|^2 / 2 everywhere on the curve.
    rng = np.random.default_rng(73)
    taus = rng.uniform(0.0, 0.9, size=20)
    for sample in curve_eta_of_tau(T1_OPTIMAL, taus, ring=1):
        v = verdict(compose_scattering(sample.network))
        assert abs(v.success_probability - v.offdiag_probability) < 1e-10


def test_herald_transmission_locked_to_offdiagonals():
    rng = np.random.default_rng(79)
    taus = rng.uniform(0.0, 0.9, size=20)
    for sample in curve_eta_of_tau(T1_OPTIMAL, taus, ring=3):
        s = compose_scattering(sample.network)
        assert abs(s[0, 1] * s[1, 0] / SQRT2 - s[1, 1]) < 1e-10


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
            a = transfer_matrix(build_coupler(tau, eta, theta)).a
            assert abs(abs(a) - T1_OPTIMAL) < 1e-10
            found += 1


def test_surface_theta_degenerate_coupler():
    match = surface_theta(0.6, 0.6, 0.0)
    assert match == (0.0, np.pi)
    assert surface_theta(0.6, 0.2, 0.0) == ()


def test_ring_phase_arg_cases():
    assert np.isclose(ring_phase_arg(0.8, 0.3, 0.0), 0.0)
    assert np.isclose(ring_phase_arg(0.3, 0.8, 0.0), np.pi)
    with pytest.raises(UndefinedPhaseError):
        ring_phase_arg(0.5, 0.5, 0.0)
    with pytest.raises(PoleError):
        ring_phase_arg(1.0, 1.0, 0.3)


def test_ring_phase_arg_matches_transfer_matrix():
    rng = np.random.default_rng(89)
    for _ in range(100):
        tau = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        a = transfer_matrix(build_coupler(tau, eta, theta)).a
        if abs(a) < 1e-6:
            continue
        assert np.isclose(ring_phase_arg(eta, tau, theta), np.angle(a), atol=1e-12)


def test_off_resonance_check_resonant_limit():
    report = off_resonance_check(curve_ring(1, 0.3), curve_ring(3, 0.6))
    assert report.verdict.satisfied(1e-9)
    assert abs(report.heralded_phase) < 1e-9
    assert np.isclose(report.verdict.beta0, 0.5, atol=1e-12)


def test_off_resonance_check_detuned():
    report = off_resonance_check(surface_ring(1, 0.3, 0.95),
                                 surface_ring(3, 0.6, 0.97, branch=1),
                                 tau2=0.4)
    assert report.verdict.magnitudes_satisfied(1e-9)
    assert abs(abs(report.verdict.beta0) - 0.5) < 1e-9
    assert report.phase_residual < 1e-9
    assert report.sample.residuals.beta_sq_dev < 1e-9


def test_off_resonance_full_simulation_success():
    report = off_resonance_check(surface_ring(1, 0.2, 0.93),
                                 surface_ring(3, 0.5, 0.96))
    s = compose_scattering(report.sample.network)
    alpha = np.ones(3) / np.sqrt(3.0)
    inp = NlpsgInput(alpha0=alpha[0], alpha1=alpha[1], alpha2=alpha[2])
    prob, _ = project(evolve(inp.state(), s), SUCCESS_PATTERN)
    assert abs(prob - 0.25) < 1e-9


def test_intersect_nonzero_line_phase():
    samples = intersect_delta2(np.pi / 30.0, tau2_grid=np.linspace(0.0, 0.96, 25))
    assert samples
    # The tau2 = 0 grid point carries a fixed through phase and cannot
    # meet the nonzero target, so at least one point is skipped.
    assert len(samples) < 25
    for sample in samples:
        assert sample.residuals.solver_mag < 1e-9
        assert sample.residuals.solver_arg < 1e-9
        assert sample.residuals.beta_sq_dev < 1e-9
        v = verdict(compose_scattering(sample.network))
        assert v.magnitudes_satisfied(1e-9)
        ring2 = sample.network.rings[1]
        assert abs(wrap_angle(ring_phase_arg(ring2.eta, ring2.tau, ring2.theta)
                              - np.pi / 30.0)) < 1e-9


def test_intersect_zero_line_phase_reduces_to_curve():
    grid = np.linspace(0.0, 0.9, 10)
    samples = intersect_delta2(0.0, tau2_grid=grid)
    assert len(samples) == len(grid)
    for sample, tau2 in zip(samples, grid):
        ring2 = sample.network.rings[1]
        assert abs(ring2.eta - invert_effective(T2_OPTIMAL, tau2)) < 1e-9
        assert abs(wrap_angle(ring2.theta)) < 1e-9


def test_intersect_at_zero_lower_coupler():
    # At tau2 = 0 the through amplitude is eta for every theta.
    tau, eta, theta, residual_mag, residual_arg = intersect_stack(0.0, [0.0])
    assert tau.tolist() == [0.0] and eta.tolist() == [T2_OPTIMAL]
    assert theta.tolist() == [0.0]
    assert residual_mag.tolist() == [0.0] and residual_arg.tolist() == [0.0]
    assert all(x.size == 0 for x in intersect_stack(np.pi / 30.0, [0.0]))


def test_align_line_phases_restores_equality():
    params = curve_network(deltas=(0.4, 0.0, 0.7))
    assert verdict(compose_scattering(params)).residual > 0.1
    aligned, v = align_line_phases(params)
    assert v.residual < 1e-9
    assert aligned.deltas[1] == 0.0
