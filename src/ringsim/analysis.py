"""Success constraints of the heralded phase gate and the parameter
manifolds on which the network attains its optimal operating point.

The resonant-curve, detuned-surface and fixed-line-phase sweeps each have
one stacked core (``curve_stack``, ``surface_stack``, ``intersect_stack``)
that solves every point of a grid in one numpy pass; the per-point
functions are wrappers over them."""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, UndefinedPhaseError
from .network import (NetworkParams, NetworkStack, closed_form_resonant,
                      compose_scattering, compose_scattering_stack)
from .ring import (RESONANT_THETA, TWO_PI, CouplerStack, RingCoupler, build_coupler,
                   build_couplers, invert_effective, transfer_matrix_stack)

log = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

# Fixed through amplitude demanded of the network's first diagonal entry.
S11_FIXED = 1.0 - SQRT2

# Optimal effective transmissions of the outer and middle rings.
T1_OPTIMAL = math.sqrt(2.0 * (SQRT2 - 1.0))
T2_OPTIMAL = (1.0 + 2.0 * SQRT2) / 7.0

# Largest t1^2 for which the companion outer transmission stays real.
_T1_SQ_LIMIT = 12.0 * SQRT2 - 16.0


def wrap_angle(x: float) -> float:
    """Map an angle to (-pi, pi]."""
    w = -((-x + math.pi) % TWO_PI - math.pi)
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class OptimalPoint:
    """Effective transmissions of the fully optimal resonant network."""

    t1: float
    t2: float
    t3: float


def optimal_point() -> OptimalPoint:
    return OptimalPoint(t1=T1_OPTIMAL, t2=T2_OPTIMAL, t3=T1_OPTIMAL)


@dataclass(frozen=True)
class NlpsgVerdict:
    """Success-constraint diagnostics of one scattering matrix.

    The three beta candidates must coincide for the heralded gate to act
    uniformly on every photon-number component; ``residual`` is their
    largest pairwise distance. Off resonance the candidates pick up a
    common phase, so magnitude-based residuals are reported alongside the
    complex ones.
    """

    beta0: complex
    beta1: complex
    beta2: complex
    residual: float
    s11_residual: float
    success_probability: float
    magnitude_residual: float
    s11_magnitude_residual: float
    offdiag_probability: float

    def satisfied(self, tol: float = 1e-9) -> bool:
        """Strict (complex) success criterion."""
        return self.residual < tol and self.s11_residual < tol

    def magnitudes_satisfied(self, tol: float = 1e-9) -> bool:
        """Phase-blind criterion appropriate for detuned networks."""
        return self.magnitude_residual < tol and self.s11_magnitude_residual < tol


def verdict(s: np.ndarray) -> NlpsgVerdict:
    """Evaluate the success constraints on a 3x3 scattering matrix."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {s.shape}")
    pair = s[0, 0] * s[1, 1] + s[1, 0] * s[0, 1]
    beta0 = complex(s[1, 1])
    beta1 = complex(pair)
    beta2 = complex(-s[0, 0] * (pair + s[1, 0] * s[0, 1]))
    residual = max(abs(beta0 - beta1), abs(beta0 - beta2), abs(beta1 - beta2))
    half = 0.5
    return NlpsgVerdict(
        beta0=beta0,
        beta1=beta1,
        beta2=beta2,
        residual=float(residual),
        s11_residual=float(abs(s[0, 0] - S11_FIXED)),
        success_probability=float(abs(beta0) ** 2),
        magnitude_residual=float(max(abs(abs(beta0) - half),
                                     abs(abs(beta1) - half),
                                     abs(abs(beta2) - half))),
        s11_magnitude_residual=float(abs(abs(s[0, 0]) - (SQRT2 - 1.0))),
        offdiag_probability=float(0.5 * abs(s[1, 0]) ** 2 * abs(s[0, 1]) ** 2),
    )


def t3_of_t1(t1: float) -> float:
    """Companion outer transmission keeping the resonant network optimal.

    Satisfies (1 - t1^2) * (1 - t3^2) = 3 - 2*sqrt(2).

    Raises
    ------
    DomainError
        If t1^2 exceeds 12*sqrt(2) - 16 or |t1| >= 1.
    """
    u = t1 * t1
    if u >= 1.0:
        raise DomainError(f"|t1| must be < 1, got {t1}")
    radicand = (_T1_SQ_LIMIT - u) / (1.0 - u)
    if radicand < 0.0:
        raise DomainError(
            f"t1^2 = {u} exceeds the optimal-curve limit {_T1_SQ_LIMIT}")
    return math.sqrt(radicand)


def beta_sq_of_t1(t1: float, formula: str = "corrected") -> float:
    """Success probability along the optimal t3(t1) relationship.

    ``corrected`` (default) matches the scattering-matrix computation and
    peaks at 1/4. ``printed`` is a legacy normalization smaller by exactly
    the factor 1 + sqrt(2); it is retained for cross-checking and peaks at
    (sqrt(2) - 1)/4.
    """
    if formula not in ("printed", "corrected"):
        raise DomainError(f"formula must be 'printed' or 'corrected', got {formula!r}")
    u = t1 * t1
    if u >= 1.0:
        raise DomainError(f"|t1| must be < 1, got {t1}")
    if u > _T1_SQ_LIMIT:
        raise DomainError(
            f"t1^2 = {u} exceeds the optimal-curve limit {_T1_SQ_LIMIT}")
    value = (1.0 + SQRT2) * u * (_T1_SQ_LIMIT - u) / (16.0 * (1.0 - u))
    if formula == "corrected":
        value *= 1.0 + SQRT2
    return value


def _central_derivative(f, x: float, h: float = 1e-4) -> float:
    """Richardson-extrapolated central difference."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def optimize_t1(formula: str = "corrected") -> tuple[float, float]:
    """Numerically maximize beta_sq_of_t1 without using the closed form.

    Golden-section search brackets the peak; bisection on the numerical
    derivative then refines the location to ~1e-12.
    """
    lo, hi = 1e-6, math.sqrt(_T1_SQ_LIMIT) - 1e-12
    f = lambda t: beta_sq_of_t1(t, formula)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)

    # The derivative changes sign across the peak; bisect on it.
    a = max(lo, a - 1e-4)
    b = min(hi, b + 1e-4)
    ga = _central_derivative(f, a)
    gb = _central_derivative(f, b)
    if ga > 0.0 > gb:
        for _ in range(80):
            mid = 0.5 * (a + b)
            gm = _central_derivative(f, mid)
            if gm > 0.0:
                a = mid
            else:
                b = mid
    t1_star = 0.5 * (a + b)
    return t1_star, f(t1_star)


def t2_from_equality(t1: float, t3: float) -> float:
    """Middle transmission equating the zero- and one-photon heralded
    amplitudes of the resonant network, found by bisection."""
    def gap(t2: float) -> float:
        v = verdict(closed_form_resonant(t1, t2, t3))
        return (v.beta0 - v.beta1).real

    a, b = 1e-6, 1.0 - 1e-9
    ga, gb = gap(a), gap(b)
    if ga * gb > 0.0:
        raise DomainError("heralded-amplitude equality does not bracket in (0, 1)")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if gap(mid) * ga > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@dataclass(frozen=True)
class SampleResiduals:
    """Numerical health record attached to a manifold sample."""

    constraint: float
    beta_sq_dev: float
    ring_phases: tuple[float, float, float]
    solver_mag: float = 0.0
    solver_arg: float = 0.0


@dataclass(frozen=True)
class ManifoldSample:
    """One point on an optimal-operation manifold, embedded in a full
    three-ring network so it can be composed and simulated directly."""

    network: NetworkParams
    ring_index: int
    residuals: SampleResiduals


def _slot_transmission(slot: int) -> float:
    return T2_OPTIMAL if slot == 2 else T1_OPTIMAL


def curve_ring(slot: int, tau: float, transmission: float | None = None) -> RingCoupler:
    """Resonant ring on the slot's optimal one-parameter curve."""
    t = _slot_transmission(slot) if transmission is None else transmission
    return build_coupler(tau, invert_effective(t, tau), RESONANT_THETA)


def curve_network(tau1: float = 0.0, tau2: float = 0.0, tau3: float = 0.0,
                  deltas: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> NetworkParams:
    """Fully resonant optimal network with free lower-coupler draws."""
    return NetworkParams(
        rings=(curve_ring(1, tau1), curve_ring(2, tau2), curve_ring(3, tau3)),
        deltas=deltas,
    )


def ring_phase_arg(eta: float, tau: float, theta: float) -> float:
    """Phase of the ring's through amplitude (eta - tau e^{-i theta}) /
    (1 - eta tau e^{-i theta}).

    Raises
    ------
    UndefinedPhaseError
        If the through amplitude vanishes (eta = tau on resonance).
    PoleError
        If |eta * tau| >= 1.
    """
    if abs(eta * tau) >= 1.0:
        raise PoleError(f"|eta*tau| = {abs(eta * tau)} >= 1")
    z = cmath.exp(-1j * theta)
    a = (eta - tau * z) / (1.0 - eta * tau * z)
    if abs(a) < 1e-14:
        raise UndefinedPhaseError(
            "through amplitude vanishes; its phase is undefined")
    return math.atan2(a.imag, a.real)


def surface_theta(transmission: float, eta: float, tau: float) -> tuple[float, ...]:
    """Round-trip phases at which the ring's through magnitude equals the
    target transmission.

    Returns the pair {+theta, -theta mod 2*pi} when a solution exists, a
    single angle when the branches coincide, and an empty tuple when the
    magnitude is unreachable. Cosines within 1e-12 beyond the unit
    interval are clamped (rounding at manifold edges). When eta*tau = 0
    the magnitude is phase-independent, so a match returns the
    representatives (0, pi) and a mismatch returns nothing. This is the
    one-point case of ``surface_theta_stack``.

    Raises
    ------
    DomainError
        If |transmission| >= 1 or either coupler amplitude is outside (-1, 1).
    """
    _, theta = surface_theta_stack(transmission, [eta], [tau])
    return tuple(theta.tolist())


def surface_theta_stack(transmission: float, eta, tau) -> tuple[np.ndarray, np.ndarray]:
    """``surface_theta`` over parallel 1-D arrays of eta and tau.

    Returns (point, theta): every branch angle, in point order and with
    each pair ascending, and the index of the grid point it belongs to.

    Raises
    ------
    DomainError
        If |transmission| >= 1 or any coupler amplitude is outside (-1, 1).
    """
    eta, tau = np.broadcast_arrays(np.atleast_1d(np.asarray(eta, dtype=float)),
                                   np.atleast_1d(np.asarray(tau, dtype=float)))
    if not abs(transmission) < 1.0:
        raise DomainError(f"|transmission| < 1 required, got {transmission}")
    if not (np.all(np.abs(eta) < 1.0) and np.all(np.abs(tau) < 1.0)):
        raise DomainError("eta and tau must lie in (-1, 1)")
    t_sq = transmission * transmission
    degenerate = eta * tau == 0.0
    reachable = (eta * eta + tau * tau) / (1.0 + eta * eta * tau * tau)
    matched = degenerate & (np.abs(reachable - t_sq) <= 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = (eta * eta + tau * tau - t_sq - t_sq * eta * eta * tau * tau) \
            / (2.0 * eta * tau * (1.0 - t_sq))
    solved = ~degenerate & (np.abs(cos_theta) <= 1.0 + 1e-12)
    theta = np.arccos(np.clip(np.where(solved, cos_theta, 1.0), -1.0, 1.0))
    branches = np.stack([np.where(matched, 0.0, theta),
                         np.where(matched, math.pi, TWO_PI - theta)], axis=1)
    keep = np.stack([matched | solved,
                     matched | (solved & (theta != 0.0) & (theta != math.pi))], axis=1)
    point = np.repeat(np.arange(len(eta)), 2).reshape(-1, 2)
    return point[keep], branches[keep]


def compensated_network(ring1: RingCoupler, ring2: RingCoupler,
                        ring3: RingCoupler,
                        deltas13: tuple[float, float] = (0.0, 0.0)) -> NetworkParams:
    """Assemble the network with the middle line phase that cancels the
    internal loop phase: the one-network case of
    ``compensated_network_stack``."""
    stack = compensated_network_stack(
        tuple(CouplerStack.of([r]) for r in (ring1, ring2, ring3)), deltas13)
    return NetworkParams(rings=(ring1, ring2, ring3),
                         deltas=tuple(stack.deltas[0].tolist()))


def compensated_network_stack(rings: tuple[CouplerStack, CouplerStack, CouplerStack],
                              deltas13: tuple[float, float] = (0.0, 0.0)) -> NetworkStack:
    """Stack of networks with the middle line phase that cancels the
    internal loop phase of each.

    The three blocks enclose one feedback loop (outer rings' cross legs
    plus the middle ring's through leg). Detuned rings give those legs
    nonzero phases; setting the middle in-line phase to their sum makes
    the loop constructive again, which is what restores the heralded
    amplitude to magnitude 1/2 on the detuned manifolds. Ring stacks of
    length 1 broadcast against the others.
    """
    m1 = transfer_matrix_stack(rings[0])
    m2 = transfer_matrix_stack(rings[1].flipped())
    m3 = transfer_matrix_stack(rings[2])
    delta2 = (np.angle(m1[:, 1, 0]) + np.angle(m2[:, 1, 1])
              + np.angle(m3[:, 0, 1])) % TWO_PI
    deltas = np.stack(np.broadcast_arrays(deltas13[0], delta2, deltas13[1]), axis=1)
    return NetworkStack(rings=rings, deltas=deltas)


def surface_stack(slot: int, eta, tau) -> tuple[np.ndarray, NetworkStack]:
    """Detuned-surface branches of one ring slot over a grid of couplers.

    For every (eta, tau) pair the swept ring in ``slot`` (1, 2 or 3) takes
    each round-trip phase of ``surface_theta`` for the slot's optimal
    transmission; the other slots hold their resonant optimal rings at
    tau = 0, and the middle line phase cancels the loop phase. Returns the
    branch angles, in grid order with each pair ascending, and their
    networks; the swept ring's couplers are in ``networks.rings[slot - 1]``.
    """
    if slot not in (1, 2, 3):
        raise DomainError(f"slot must be 1, 2 or 3, got {slot}")
    eta, tau = np.broadcast_arrays(np.atleast_1d(np.asarray(eta, dtype=float)),
                                   np.atleast_1d(np.asarray(tau, dtype=float)))
    point, theta = surface_theta_stack(_slot_transmission(slot), eta, tau)
    swept = build_couplers(tau[point], eta[point], theta)
    return theta, compensated_network_stack(_optimal_rings_with(slot, swept))


def _optimal_rings_with(slot: int, swept: CouplerStack) -> tuple[CouplerStack, ...]:
    """The resonant optimal rings at tau = 0, with ``swept`` in ``slot``."""
    return tuple(swept if s == slot else CouplerStack.of([curve_ring(s, 0.0)])
                 for s in (1, 2, 3))


def _sample_from_network(net: NetworkParams, ring_index: int, s: np.ndarray,
                         solver_mag: float = 0.0,
                         solver_arg: float = 0.0) -> ManifoldSample:
    """Sample of a network whose scattering matrix s is already composed."""
    v = verdict(s)
    phases = []
    for c in net.rings:
        try:
            phases.append(ring_phase_arg(c.eta, c.tau, c.theta))
        except UndefinedPhaseError:
            phases.append(0.0)
    return ManifoldSample(
        network=net,
        ring_index=ring_index,
        residuals=SampleResiduals(
            constraint=v.residual,
            beta_sq_dev=abs(v.success_probability - 0.25),
            ring_phases=tuple(phases),
            solver_mag=solver_mag,
            solver_arg=solver_arg,
        ),
    )


def curve_eta_of_tau(transmission: float, tau_grid,
                     ring: int = 1) -> list[ManifoldSample]:
    """Trace the resonant one-parameter curve of one ring slot.

    Each grid point fixes the slot's lower coupler and solves the upper
    one so the effective transmission stays at the target; the other two
    slots sit at their canonical optimal points. Grid points at the
    inversion pole or outside the coupler domain are skipped and logged.
    A wrapper over ``curve_stack``.
    """
    networks = curve_stack(transmission, tau_grid, ring)
    matrices = compose_scattering_stack(networks)
    return [_sample_from_network(networks.member(i), ring, matrices[i])
            for i in range(len(networks))]


def curve_stack(transmission: float, tau_grid, ring: int = 1) -> NetworkStack:
    """Networks of the resonant curve of one ring slot, one per usable grid
    point: ``invert_effective`` and ``build_coupler`` over the whole grid,
    with the points either would reject left out and logged.

    Raises
    ------
    DomainError
        If ring is not 1, 2 or 3.
    """
    if ring not in (1, 2, 3):
        raise DomainError(f"ring must be 1, 2 or 3, got {ring}")
    tau = np.asarray(tau_grid, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 1.0 + transmission * tau
        eta = (transmission + tau) / den
    usable = ((abs(transmission) <= 1.0) & (np.abs(tau) <= 1.0)
              & (np.abs(den) >= 1e-15) & (np.abs(eta) <= 1.0)
              & (np.abs(tau * eta) < 1.0))
    skipped = np.flatnonzero(~usable)
    for i in skipped:
        log.info("curve point tau=%s skipped: inversion pole or coupler "
                 "outside its domain", tau[i])
    if skipped.size:
        log.info("curve trace skipped %d of %d grid points", skipped.size, tau.size)
    swept = build_couplers(tau[usable], eta[usable], RESONANT_THETA)
    return NetworkStack(rings=_optimal_rings_with(ring, swept),
                        deltas=np.zeros((len(swept), 3)))


def surface_network(ring1: RingCoupler, ring3: RingCoupler,
                    tau2: float = 0.0) -> NetworkParams:
    """Embed detuned outer rings over a resonant middle-curve ring, with
    the loop-phase-cancelling middle line phase."""
    return compensated_network(ring1, curve_ring(2, tau2), ring3)


@dataclass(frozen=True)
class OffResonanceReport:
    """Detuned-network health: constraint verdict plus the heralded phase
    measured against the summed ring through-phases."""

    sample: ManifoldSample
    verdict: NlpsgVerdict
    heralded_phase: float
    phase_residual: float


def off_resonance_check(ring1: RingCoupler, ring3: RingCoupler,
                        tau2: float = 0.0) -> OffResonanceReport:
    """Verify optimal operation of a network with detuned outer rings.

    The outer rings may sit anywhere on their equal-magnitude surfaces;
    the middle ring stays on its resonant curve. The heralded amplitude
    keeps magnitude 1/2 and its phase equals the sum of the rings'
    through phases (the resonant middle ring contributes zero).
    """
    net = surface_network(ring1, ring3, tau2)
    s = compose_scattering(net)
    sample = _sample_from_network(net, 0, s)
    v = verdict(s)
    heralded = math.atan2(v.beta0.imag, v.beta0.real)
    predicted = sum(sample.residuals.ring_phases)
    return OffResonanceReport(
        sample=sample,
        verdict=v,
        heralded_phase=heralded,
        phase_residual=abs(wrap_angle(heralded - predicted)),
    )


def intersect_delta2(delta2: float, tau2_grid=None,
                     transmission: float = T2_OPTIMAL) -> list[ManifoldSample]:
    """Middle-ring samples compatible with a fixed middle line phase.

    The rings of ``intersect_stack`` sit between the resonant optimal outer
    rings at tau = 0, with the middle line phase set to delta2. The solved
    ring cancels the internal loop phase, so every sample composes to a
    network with heralded amplitude 1/2; delta2 = 0 degenerates to the
    resonant curve. The networks are composed in one stacked call.
    """
    if tau2_grid is None:
        tau2_grid = np.linspace(0.0, 0.999, 401)
    tau2, eta2, theta2, residual_mag, residual_arg = intersect_stack(
        delta2, tau2_grid, transmission)
    networks = NetworkStack(
        rings=_optimal_rings_with(2, build_couplers(tau2, eta2, theta2)),
        deltas=np.tile([0.0, float(delta2), 0.0], (len(tau2), 1)))
    matrices = compose_scattering_stack(networks)
    return [_sample_from_network(networks.member(i), 2, matrices[i],
                                 solver_mag=float(residual_mag[i]),
                                 solver_arg=float(residual_arg[i]))
            for i in range(len(networks))]


def intersect_stack(delta2: float, tau2_grid,
                    transmission: float = T2_OPTIMAL) -> tuple[np.ndarray, ...]:
    """Middle rings whose through amplitude is A = t e^{i delta2}, with
    t = transmission, solved in closed form over a grid of lower couplers.

    Solving A = (eta - tau z) / (1 - eta tau z) for z = e^{-i theta} gives
    z = (A - eta) / (tau (A eta - 1)), and |z| = 1 is the real quadratic
    (1 - tau^2 t^2) eta^2 - 2 t cos(delta2) (1 - tau^2) eta + t^2 - tau^2 = 0.
    A grid point is kept when |tau| < 1 and the larger root lies in (0, 1);
    the smaller root is a second real branch and is not returned. At
    tau = 0 the through amplitude is eta for every theta, so that point is
    kept, with eta = t and theta = 0, only when delta2 wraps to 0. Skipped
    points are counted in the log.

    Returns (tau2, eta2, theta2, residual_mag, residual_arg) over the kept
    points in grid order, with theta2 in (-pi, pi]. The residuals are
    ||A| - t| and |arg A - delta2| (mod 2 pi) of A re-evaluated from the
    returned ring.

    Raises
    ------
    DomainError
        If transmission is outside (0, 1).
    """
    if not 0.0 < transmission < 1.0:
        raise DomainError(f"transmission must lie in (0, 1), got {transmission}")
    tau = np.asarray(tau2_grid, dtype=float).reshape(-1)
    t = transmission
    target = wrap_angle(delta2)
    a = t * cmath.exp(1j * target)
    # The quadratic as q eta^2 - 2 b eta + c = 0, with every coefficient and
    # the quarter discriminant b^2 - q c = lo^2 - hi^2 written as products,
    # which keep their precision as tau approaches t or 1.
    rest = (1.0 - tau) * (1.0 + tau)
    q = (1.0 - tau * t) * (1.0 + tau * t)
    b = a.real * rest
    c = (t - tau) * (t + tau)
    lo, hi = tau * (1.0 - t) * (1.0 + t), abs(a.imag) * rest
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt((lo - hi) * (lo + hi))
        # The larger root, in the form without cancellation for either sign of b.
        eta = np.where(b >= 0.0, (b + root) / q, c / (b - root))
    # e^{-i theta} = (a - eta) / (tau (a eta - 1)); theta is free where that
    # is 0/0, as at tau = 0, whose only root is eta = t on resonance.
    w = (a - eta) * np.conj(a * eta - 1.0) * np.sign(tau)
    at_zero = tau == 0.0
    eta = np.where(at_zero, t, eta)
    keep = (eta > 0.0) & (eta < 1.0) & (np.abs(tau) < 1.0) & (~at_zero | (target == 0.0))
    tau, eta = tau[keep], eta[keep]
    # theta = -arg z, mapped to (-pi, pi] as wrap_angle does.
    theta = -((np.angle(np.where(w == 0.0, 1.0, w)[keep]) + math.pi) % TWO_PI - math.pi)
    z = np.exp(-1j * theta)
    through = (eta - tau * z) / (1.0 - eta * tau * z)
    skipped = keep.size - tau.size
    if skipped:
        log.info("intersection trace skipped %d of %d grid points: no root "
                 "with eta in (0, 1)", skipped, keep.size)
    return (tau, eta, theta, np.abs(np.abs(through) - t),
            np.abs(np.angle(through / a)))


def align_line_phases(params: NetworkParams,
                      grid: int = 720) -> tuple[NetworkParams, NlpsgVerdict]:
    """Scan the outer line phases for the setting that makes the three
    heralded amplitudes complex-equal, and report the re-composed verdict.

    Only the sum of the two outer phases matters: it rotates the one- and
    two-photon amplitudes once and twice respectively while leaving the
    zero-photon one fixed. The scan reports the best setting without
    asserting any closed-form compensation law.
    """
    v = verdict(compose_scattering(params))

    def residual_at(sigma: float) -> float:
        rot = cmath.exp(-1j * sigma)
        b1 = v.beta1 * rot
        b2 = v.beta2 * rot * rot
        return max(abs(v.beta0 - b1), abs(v.beta0 - b2), abs(b1 - b2))

    sigmas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    best = min(sigmas, key=residual_at)
    width = TWO_PI / grid
    a, b = best - width, best + width
    for _ in range(80):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if residual_at(m1) < residual_at(m2):
            b = m2
        else:
            a = m1
    sigma = 0.5 * (a + b)
    aligned = NetworkParams(
        rings=params.rings,
        deltas=(params.deltas[0] + sigma, params.deltas[1], params.deltas[2]),
    )
    return aligned, verdict(compose_scattering(aligned))
