"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Every criterion recomputes its quantities from scratch through the public
API, or an independent oracle of tests/oracles.py, and checks them at the
stated tolerance. Run with -s to see the lines
on success; pytest prints them on failure regardless.
"""

import math

import numpy as np

from ringsim import (
    CouplerStack,
    NetworkParams,
    NlpsgInput,
    RESONANT_THETA,
    SUCCESS_PATTERN,
    T1_OPTIMAL,
    T2_OPTIMAL,
    build_cnot,
    build_coupler,
    closed_form_resonant,
    compose_scattering,
    compose_scattering_stack,
    conditional_logical_matrix,
    curve_network,
    evolve,
    intersect_delta2,
    intersect_stack,
    invert_effective,
    nlpsg_closed_form,
    normalize_global_phase,
    off_resonance_check,
    optimize_t1,
    project,
    surface_theta,
    t2_from_equality,
    verdict,
    verdict_stack,
    verify_coherence,
    verify_truth_table,
    wrap_angle,
)

from oracles import mode_swap3

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def _report(n: int, ok: bool) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_alpha(rng) -> NlpsgInput:
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    return NlpsgInput(alpha0=a[0], alpha1=a[1], alpha2=a[2])


def _simulate(s, inp):
    return project(evolve(inp.state(), s), SUCCESS_PATTERN)


def _surface_coupler(rng, transmission):
    while True:
        tau = rng.uniform(0.05, 0.98)
        eta = rng.uniform(0.05, 0.98)
        thetas = surface_theta(transmission, eta, tau)
        thetas = [th for th in thetas if abs(th) > 1e-6]
        if thetas:
            return build_coupler(tau, eta, thetas[rng.integers(len(thetas))])


def _curve_coupler(rng, t):
    """Resonant ring of effective transmission t at a random lower coupler."""
    tau = rng.uniform(0.0, 0.9)
    return build_coupler(tau, invert_effective(t, tau), RESONANT_THETA)


def test_acceptance_1_optimal_transmissions():
    t1_closed = math.sqrt(2.0 * (SQRT2 - 1.0))
    t2_closed = (1.0 + 2.0 * SQRT2) / 7.0
    t1_numeric, _ = optimize_t1("corrected")
    t2_numeric = t2_from_equality(t1_closed, t1_closed)
    ok = (
        abs(T1_OPTIMAL - t1_closed) < 1e-10
        and abs(T2_OPTIMAL - t2_closed) < 1e-10
        and abs(t1_numeric - t1_closed) < 1e-10
        and abs(t2_numeric - t2_closed) < 1e-10
    )
    _report(1, ok)


def test_acceptance_2_full_simulation_at_optimum():
    s = compose_scattering(curve_network())
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(20):
        inp = _random_alpha(rng)
        prob, cond = _simulate(s, inp)
        ok = ok and abs(prob - 0.25) < 1e-10
        expected = np.array([inp.alpha0, inp.alpha1, -inp.alpha2])
        got = np.array([cond.amplitude_of((n,)) for n in range(3)])
        # Align the global phase on the largest expected component.
        k = int(np.argmax(np.abs(expected)))
        phase = got[k] / expected[k]
        ok = ok and abs(abs(phase) - 1.0) < 1e-10
        ok = ok and np.max(np.abs(got / phase - expected)) < 1e-10
    _report(2, ok)


def test_acceptance_3_resonant_curve_success():
    rng = np.random.default_rng(3)
    alpha = NlpsgInput(*(np.ones(3) / math.sqrt(3.0)))
    ok = True
    for _ in range(100):
        taus = rng.uniform(0.0, 0.95, size=3)
        s = compose_scattering(curve_network(*taus))
        prob, _ = _simulate(s, alpha)
        ok = ok and abs(prob - 0.25) < 1e-9
    _report(3, ok)


def test_acceptance_4_detuned_surfaces_success_and_phase():
    rng = np.random.default_rng(4)
    alpha = NlpsgInput(*(np.ones(3) / math.sqrt(3.0)))
    ok = True
    for _ in range(50):
        ring1 = _surface_coupler(rng, T1_OPTIMAL)
        ring3 = _surface_coupler(rng, T1_OPTIMAL)
        report = off_resonance_check(CouplerStack.of([ring1]), CouplerStack.of([ring3]),
                                     tau2=rng.uniform(0.0, 0.9))
        prob, _ = _simulate(compose_scattering_stack(report.networks)[0], alpha)
        ok = ok and abs(prob - 0.25) < 1e-9
        ok = ok and abs(abs(report.verdict.beta0[0]) - 0.5) < 1e-9
        # Heralded phase equals the sum of the ring through-phases mod 2*pi.
        predicted = sum(report.ring_phases[0])
        ok = ok and abs(wrap_angle(report.heralded_phase[0] - predicted)) < 1e-9
    _report(4, ok)


def test_acceptance_5_fixed_line_phase_intersection():
    grid = np.linspace(0.0, 0.999, 401)
    networks = intersect_delta2(math.pi / 30.0, grid)
    _, _, _, solver_mag, solver_arg = intersect_stack(math.pi / 30.0, grid)
    success = verdict_stack(compose_scattering_stack(networks)).success_probability
    ok = len(networks.deltas) > 0
    for i in range(len(networks.deltas)):
        ok = ok and solver_mag[i] < 1e-9
        ok = ok and solver_arg[i] < 1e-9
        ok = ok and abs(success[i] - 0.25) < 1e-9
    zero = intersect_delta2(0.0, np.linspace(0.0, 0.99, 45)).rings[1]
    ok = ok and len(zero) == 45
    for eta, tau, theta in zip(zero.eta, zero.tau, zero.theta):
        ok = ok and abs(eta - invert_effective(T2_OPTIMAL, tau)) < 1e-9
        ok = ok and abs(wrap_angle(theta)) < 1e-9
    _report(5, ok)


def test_acceptance_6_composition_against_closed_form():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(200):
        ts = rng.uniform(0.05, 0.95, size=3)
        net = NetworkParams(rings=tuple(_curve_coupler(rng, t) for t in ts))
        s = compose_scattering(net)
        ref = closed_form_resonant(*ts)
        ok = ok and np.max(np.abs(s - ref)) < 1e-12
        ok = ok and abs(np.linalg.det(s) + 1.0) < 1e-12
        ok = ok and np.max(np.abs(s.conj().T @ s - np.eye(3))) < 1e-12
    for _ in range(200):
        net = NetworkParams(
            rings=tuple(build_coupler(rng.uniform(0.05, 0.95),
                                      rng.uniform(0.05, 0.95),
                                      rng.uniform(0.0, TWO_PI))
                        for _ in range(3)),
            deltas=tuple(rng.uniform(0.0, TWO_PI, 3)))
        s = compose_scattering(net)
        ok = ok and np.max(np.abs(s.conj().T @ s - np.eye(3))) < 1e-12
    _report(6, ok)


def test_acceptance_7_oracles():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        net = NetworkParams(
            rings=tuple(build_coupler(rng.uniform(0.05, 0.95),
                                      rng.uniform(0.05, 0.95),
                                      rng.uniform(0.0, TWO_PI))
                        for _ in range(3)),
            deltas=tuple(rng.uniform(0.0, TWO_PI, 3)))
        s = compose_scattering(net)
        inp = _random_alpha(rng)
        coeffs, _ = nlpsg_closed_form(s, inp)
        evolved = evolve(inp.state(), s)
        for n in range(3):
            ok = ok and abs(evolved.amplitude_of((n, 1, 0)) - coeffs[n]) < 1e-12
    count = 0
    while count < 1000:
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if np.min(np.abs(np.diag(g))) <= 0.1:
            continue
        count += 1
        j = int(rng.integers(1, 4))
        back = mode_swap3(mode_swap3(g, j), j)
        ok = ok and np.max(np.abs(back - g)) < 1e-10 * max(1.0, np.max(np.abs(g)))
    _report(7, ok)


def test_acceptance_8_success_profile_variants():
    t1_corrected, peak_corrected = optimize_t1("corrected")
    t1_printed, peak_printed = optimize_t1("printed")
    matrix_peak = verdict(
        closed_form_resonant(T1_OPTIMAL, T2_OPTIMAL, T1_OPTIMAL)).success_probability
    ok = (
        abs(peak_printed - (SQRT2 - 1.0) / 4.0) < 1e-10
        and abs(peak_corrected - matrix_peak) < 1e-10
        and abs(t1_printed - T1_OPTIMAL) < 1e-10
        and abs(t1_corrected - T1_OPTIMAL) < 1e-10
    )
    _report(8, ok)


def test_acceptance_9_cnot():
    net = build_cnot(curve_network(), curve_network())
    ok = True
    for row in verify_truth_table(net):
        ok = ok and abs(row.probability - 1.0 / 16.0) < 1e-9
        ok = ok and row.control_out == row.control_in
        ok = ok and row.target_out == row.target_in ^ row.control_in
        ok = ok and row.fidelity > 1.0 - 1e-9
        ok = ok and row.leakage < 1e-9
    ok = ok and verify_coherence(net).overlap >= 1.0 - 1e-9
    other = build_cnot(curve_network(0.45, 0.25, 0.65),
                       curve_network(0.15, 0.55, 0.8))
    m_a = normalize_global_phase(conditional_logical_matrix(net))
    m_b = normalize_global_phase(conditional_logical_matrix(other))
    ok = ok and np.max(np.abs(m_a - m_b)) < 1e-8
    _report(9, ok)
