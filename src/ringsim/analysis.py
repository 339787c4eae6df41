"""Success constraints of the heralded phase gate and the parameter
manifolds on which the network attains its optimal operating point.

The resonant-curve, detuned-surface and fixed-line-phase sweeps each have
one stacked core (``curve_stack``, ``surface_stack``, ``intersect_stack``)
that solves every point of a grid in one numpy pass; the per-point
functions are wrappers over them."""

from __future__ import annotations

import cmath
import functools
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, PoleError
from .fock import _betas, _corners
from .network import NetworkParams, NetworkStack, closed_form_resonant, compose_scattering_stack
from .ring import (_COUPLER_DTYPES, RESONANT_THETA, TWO_PI, CouplerStack, RingCoupler,
                   _coupler_fields, _inverse, _passes, _through, build_coupler,
                   build_couplers, invert_effective)

log = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

# Fixed through amplitude demanded of the network's first diagonal entry.
S11_FIXED = 1.0 - SQRT2

# Optimal effective transmissions of the outer and middle rings.
T1_OPTIMAL = math.sqrt(2.0 * (SQRT2 - 1.0))
T2_OPTIMAL = (1.0 + 2.0 * SQRT2) / 7.0

# Largest t1^2 for which the companion outer transmission stays real.
_T1_SQ_LIMIT = 12.0 * SQRT2 - 16.0

# Largest re-evaluated residual of a ring that intersect_stack returns.
INTERSECT_RESIDUAL_TOL = 1e-9


def wrap_angle(x):
    """Map an angle, or each angle of an array, to (-pi, pi]. Zero maps to
    +0.0, never -0.0. A float gives a float."""
    w = -((-x + math.pi) % TWO_PI - math.pi) + 0.0
    return w + TWO_PI * (w == -math.pi)


@dataclass(frozen=True)
class NlpsgVerdict:
    """Success-constraint diagnostics of a scattering matrix or a stack.

    The three beta candidates must coincide for the heralded gate to act
    uniformly on every photon-number component; ``residual`` is their
    largest pairwise distance. Off resonance the candidates pick up a
    common phase, so magnitude-based residuals are reported alongside the
    complex ones. Fields are scalars from ``verdict`` and (N,) arrays from
    ``verdict_stack``; both criteria work on either.
    """

    beta0: complex | np.ndarray
    beta1: complex | np.ndarray
    beta2: complex | np.ndarray
    residual: float | np.ndarray
    s11_residual: float | np.ndarray
    success_probability: float | np.ndarray
    magnitude_residual: float | np.ndarray
    s11_magnitude_residual: float | np.ndarray

    def satisfied(self, tol: float = 1e-9) -> bool | np.ndarray:
        """Strict (complex) success criterion."""
        return (self.residual < tol) & (self.s11_residual < tol)

    def magnitudes_satisfied(self, tol: float = 1e-9) -> bool | np.ndarray:
        """Phase-blind criterion appropriate for detuned networks."""
        return (self.magnitude_residual < tol) & (self.s11_magnitude_residual < tol)


def verdict_stack(s) -> NlpsgVerdict:
    """Evaluate the success constraints on every matrix of an (N, 3, 3)
    stack in one numpy pass; any other shape raises DomainError. Every field
    is an (N,) array, and member i is the verdict of s[i:i + 1] to the bit."""
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1:] != (3, 3):
        raise DomainError(f"expected an (N, 3, 3) stack, got shape {s.shape}")
    s00, s01, s10, s11 = _corners(s)
    beta = np.stack(_betas(s00, s01, s10, s11), axis=-1)
    magnitude = np.abs(beta)
    return NlpsgVerdict(
        *beta.T,
        residual=np.abs(beta[:, :, None] - beta[:, None, :]).max(axis=(1, 2)),
        s11_residual=np.abs(s00 - S11_FIXED),
        success_probability=magnitude[:, 0] ** 2,
        magnitude_residual=np.abs(magnitude - 0.5).max(axis=1),
        s11_magnitude_residual=np.abs(np.abs(s00) - (SQRT2 - 1.0)),
    )


def _member(v: NlpsgVerdict, i: int) -> NlpsgVerdict:
    """Member i of a stacked verdict, with Python scalar fields."""
    return NlpsgVerdict(*(getattr(v, f.name).tolist()[i] for f in fields(v)))


def verdict(s: np.ndarray) -> NlpsgVerdict:
    """Evaluate the success constraints on a 3x3 scattering matrix: the
    one-matrix case of ``verdict_stack``."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {s.shape}")
    return _member(verdict_stack(s[np.newaxis]), 0)


def _t1_sq(t1: float) -> float:
    """t1^2, checked against the domain of the optimal curve
    (1 - t1^2)(1 - t3^2) = (3 - 2 sqrt(2))^2, on which t3 is real."""
    u = t1 * t1
    # Written so that a NaN t1 fails both checks.
    if not u < 1.0:
        raise DomainError(f"|t1| must be < 1, got {t1}")
    if not u <= _T1_SQ_LIMIT:
        raise DomainError(f"t1^2 = {u} exceeds the optimal-curve limit {_T1_SQ_LIMIT}")
    return u


def beta_sq_of_t1(t1: float, formula: str = "corrected") -> float:
    """Success probability along the optimal curve of t1 and t3.

    ``corrected`` (default) matches the scattering-matrix computation and
    peaks at 1/4. ``printed`` is a legacy normalization smaller by exactly
    the factor 1 + sqrt(2); it is retained for cross-checking and peaks at
    (sqrt(2) - 1)/4.
    """
    if formula not in ("printed", "corrected"):
        raise DomainError(f"formula must be 'printed' or 'corrected', got {formula!r}")
    u = _t1_sq(t1)
    value = (1.0 + SQRT2) * u * (_T1_SQ_LIMIT - u) / (16.0 * (1.0 - u))
    if formula == "corrected":
        value *= 1.0 + SQRT2
    return value


# Step of the Richardson central difference.
_DERIVATIVE_STEP = 1e-4


def _central_derivative(f, x: float) -> float:
    """Richardson-extrapolated central difference."""
    h = _DERIVATIVE_STEP
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _bisect(f, a: float, b: float) -> float:
    """A sign change of f in [a, b], where f(a) and f(b) differ in sign:
    the bracket is halved until its ends are adjacent floats."""
    fa = f(a)
    mid = 0.5 * (a + b)
    while a < mid < b:
        if f(mid) * fa > 0.0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid


def optimize_t1(formula: str = "corrected") -> tuple[float, float]:
    """Numerically maximize beta_sq_of_t1 without using the closed form:
    bisection on the numerical derivative, which falls through zero once,
    at the peak, over the whole optimal curve."""
    f = lambda t: beta_sq_of_t1(t, formula)
    h = _DERIVATIVE_STEP
    t1_star = _bisect(lambda t: _central_derivative(f, t),
                      1e-6 + h, math.sqrt(_T1_SQ_LIMIT) - 1e-12 - h)
    return t1_star, f(t1_star)


def t2_from_equality(t1: float, t3: float) -> float:
    """Middle transmission equating the zero- and one-photon heralded
    amplitudes of the resonant network, found by bisection on t2 in
    [1e-6, nextafter(1, 0)].

    Raises
    ------
    DomainError
        If Re(beta0 - beta1) does not change sign strictly across that
        bracket: for t1 t3 = 0, where beta0 = beta1 = 0 for every t2, and
        where the bracket's end lies on the network's pole.
    """
    def gap(t2: float) -> float:
        beta = _betas(*_corners(closed_form_resonant(t1, t2, t3)))
        return (beta[0] - beta[1]).real

    a, b = 1e-6, math.nextafter(1.0, 0.0)
    try:
        brackets = gap(a) * gap(b) < 0.0
    except PoleError:
        # b is within 1e-15 of the pole t2 c1 c3 = 1, so 1 - c1 c3 is below
        # about 1e-15, and the root, near t2 = c1 c3, lies on the pole too.
        brackets = False
    if not brackets:
        raise DomainError("heralded-amplitude equality does not bracket in (0, 1)")
    return _bisect(gap, a, b)


def _slot_transmission(slot: int) -> float:
    """The optimal effective transmission of a ring slot (1, 2 or 3)."""
    return T2_OPTIMAL if slot == 2 else T1_OPTIMAL


def curve_ring(slot: int, tau: float) -> RingCoupler:
    """Resonant ring on the slot's optimal one-parameter curve."""
    return build_coupler(tau, invert_effective(_slot_transmission(slot), tau), RESONANT_THETA)


def curve_network(tau1: float = 0.0, tau2: float = 0.0, tau3: float = 0.0) -> NetworkParams:
    """Fully resonant optimal network with free lower-coupler draws."""
    return NetworkParams(
        rings=(curve_ring(1, tau1), curve_ring(2, tau2), curve_ring(3, tau3)),
    )


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


def compensated_network_stack(
        rings: tuple[CouplerStack, CouplerStack, CouplerStack]) -> NetworkStack:
    """Stack of networks with the middle line phase that cancels the
    internal loop phase of each.

    The three blocks enclose one feedback loop (outer rings' cross legs
    plus the middle ring's through leg). Detuned rings give those legs
    nonzero phases; setting the middle in-line phase to their sum makes
    the loop constructive again, which is what restores the heralded
    amplitude to magnitude 1/2 on the detuned manifolds. The outer line
    phases are 0. Ring stacks of length 1 broadcast against the others.
    """
    shape = np.broadcast_shapes(*((len(r),) for r in rings))
    return _compensated(NetworkStack(rings=rings, deltas=np.zeros(shape + (3,))))


def _compensated(networks: NetworkStack) -> NetworkStack:
    """``networks``, of zero line phases, with the middle line phase of
    ``compensated_network_stack`` written in place: the stack keeps the
    transfers it uses."""
    _, (c1, d2, b3) = networks.legs()
    networks.deltas[:, 1] = (np.angle(c1) + np.angle(d2) + np.angle(b3)) % TWO_PI
    return networks


def surface_stack(slot: int, eta, tau) -> tuple[np.ndarray, np.ndarray, NetworkStack]:
    """Detuned-surface branches of one ring slot over a grid of couplers.

    For every (eta, tau) pair the swept ring in ``slot`` (1, 2 or 3) takes
    each round-trip phase of ``surface_theta`` for the slot's optimal
    transmission; the other slots hold their resonant optimal rings at
    tau = 0, and the middle line phase cancels the loop phase. Returns
    (point, theta, networks): as ``surface_theta_stack``, every branch angle,
    in grid order with each pair ascending, and the index of the (eta, tau)
    pair it belongs to; then the branches' networks, whose swept ring's
    couplers are in ``networks.rings[slot - 1]``.
    """
    if slot not in (1, 2, 3):
        raise DomainError(f"slot must be 1, 2 or 3, got {slot}")
    eta, tau = np.broadcast_arrays(np.atleast_1d(np.asarray(eta, dtype=float)),
                                   np.atleast_1d(np.asarray(tau, dtype=float)))
    point, theta = surface_theta_stack(_slot_transmission(slot), eta, tau)
    swept = build_couplers(tau[point], eta[point], theta)
    return point, theta, _compensated(_optimal_networks(slot, swept))


def _optimal_networks(slot: int, swept: CouplerStack, delta2: float = 0.0) -> NetworkStack:
    """Networks of ``swept`` in ``slot`` between the resonant optimal rings
    at tau = 0, with the middle line phase delta2 and outer ones 0."""
    deltas = np.zeros((len(swept), 3))
    deltas[:, 1] = delta2
    return NetworkStack(rings=tuple(swept if s == slot else _optimal_ring(s) for s in (1, 2, 3)),
                        deltas=deltas)


@functools.cache
def _optimal_ring(slot: int) -> CouplerStack:
    """The slot's resonant optimal ring at tau = 0, as a read-only stack of
    one, built once per process."""
    return CouplerStack.of([curve_ring(slot, 0.0)])


def curve_stack(tau_grid, ring: int = 1) -> NetworkStack:
    """Networks of the resonant curve of one ring slot, at the slot's
    optimal effective transmission, one per usable grid point of lower
    couplers tau: ``curve_ring`` over the whole grid, with the points
    ``invert_effective`` or ``build_coupler`` would reject left out and
    logged.

    Raises
    ------
    DomainError
        If ring is not 1, 2 or 3.
    """
    if ring not in (1, 2, 3):
        raise DomainError(f"ring must be 1, 2 or 3, got {ring}")
    tau = np.asarray(tau_grid, dtype=float).reshape(-1)
    # Points off the inversion's or the couplers' domain give inf or NaN
    # fields here, unwarned: the pole flag and the ring mask leave them out.
    # tau * tau overflows beyond |tau| = 1.34e154.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta, pole = _inverse(_slot_transmission(ring), tau)
        couplers = _coupler_fields(tau, eta, np.full(tau.shape, RESONANT_THETA), None, np.sqrt)
    usable = ~pole & _passes(*couplers)
    skipped = np.flatnonzero(~usable)
    if skipped.size and log.isEnabledFor(logging.INFO):
        for i in skipped:
            log.info("curve point tau=%s skipped: inversion pole or coupler "
                     "outside its domain", tau[i])
        log.info("curve trace skipped %d of %d grid points", skipped.size, tau.size)
    swept = CouplerStack._checked_already(
        **{name: field[usable] for name, field in zip(_COUPLER_DTYPES, couplers)})
    return _optimal_networks(ring, swept)


@dataclass(frozen=True, eq=False)
class OffResonanceReport:
    """Verdict, ring through-phases (N, 3) and heralded phase of N networks."""

    networks: NetworkStack
    verdict: NlpsgVerdict
    ring_phases: np.ndarray
    heralded_phase: np.ndarray
    phase_residual: np.ndarray


def off_resonance_check(ring1: CouplerStack, ring3: CouplerStack,
                        tau2=0.0) -> OffResonanceReport:
    """Verify optimal operation of networks with detuned outer rings.

    The outer rings may sit anywhere on their equal-magnitude surfaces; the
    middle ring stays on its resonant curve at lower coupler tau2, and the
    middle line phase cancels the loop phase. The heralded amplitude keeps
    magnitude 1/2 and its phase equals the sum of the rings' through phases
    (the resonant middle ring contributes zero, as does a ring whose through
    amplitude vanishes). Stacks, and tau2, of length 1 broadcast.
    """
    tau2 = np.atleast_1d(np.asarray(tau2, dtype=float))
    middle = build_couplers(tau2, _inverse(T2_OPTIMAL, tau2)[0], RESONANT_THETA)
    networks = compensated_network_stack((ring1, middle, ring3))
    v = verdict_stack(compose_scattering_stack(networks))
    through = np.stack(np.broadcast_arrays(*networks.legs()[0]), axis=1)
    phases = np.where(np.abs(through) < 1e-14, 0.0, np.angle(through))
    heralded = np.angle(v.beta0)
    residual = np.abs((phases.sum(axis=1) - heralded + math.pi) % TWO_PI - math.pi)
    return OffResonanceReport(networks, v, phases, heralded, residual)


def intersect_delta2(delta2: float, tau2_grid) -> NetworkStack:
    """Networks of the middle rings of ``intersect_stack`` (whose solver
    residuals stay there) between the resonant optimal outer rings at tau = 0,
    with the middle line phase delta2. Each composes to a heralded amplitude
    of magnitude 1/2; delta2 = 0 degenerates to the resonant curve."""
    tau2, eta2, theta2, _, _ = intersect_stack(delta2, tau2_grid)
    return _optimal_networks(2, build_couplers(tau2, eta2, theta2), delta2)


def intersect_stack(delta2: float, tau2_grid) -> tuple[np.ndarray, ...]:
    """Middle rings whose through amplitude is A = t e^{i delta2}, with
    t = T2_OPTIMAL, solved in closed form over a grid of lower couplers.

    Solving A = (eta - tau z) / (1 - eta tau z) for z = e^{-i theta} gives
    z = (A - eta) / (tau (A eta - 1)), and |z| = 1 is the real quadratic
    (1 - tau^2 t^2) eta^2 - 2 t cos(delta2) (1 - tau^2) eta + t^2 - tau^2 = 0.
    A grid point is kept when |tau| < 1, the larger root lies in (0, 1)
    and the ring meets the target: both residuals below are at most
    INTERSECT_RESIDUAL_TOL. The smaller root is a second real branch and is
    not returned. At tau = 0 the through amplitude is eta for every theta,
    so that point is kept, with eta = t and theta = 0, only when delta2
    wraps to 0. As tau approaches 1 the through amplitude's sensitivity to
    eta and theta grows like 1/(1 - tau), and within about 1e-6 of tau = 1
    no ring of doubles meets the target; such points are dropped. Skipped
    points are counted by reason in the log.

    Returns (tau2, eta2, theta2, residual_mag, residual_arg) over the kept
    points in grid order, with theta2 in (-pi, pi]. The residuals are
    ||A| - t| and |arg A - delta2| (mod 2 pi) of A re-evaluated from the
    returned ring.
    """
    return _intersect(delta2, tau2_grid, T2_OPTIMAL)


def _intersect(delta2: float, tau2_grid, t: float) -> tuple[np.ndarray, ...]:
    """``intersect_stack`` at the target magnitude t in (0, 1)."""
    tau = np.asarray(tau2_grid, dtype=float).reshape(-1)
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
    theta = wrap_angle(-np.angle(np.where(w == 0.0, 1.0, w)[keep]))
    through, _ = _through(eta, tau, np.exp(-1j * theta))
    residual_mag = np.abs(np.abs(through) - t)
    residual_arg = np.abs(np.angle(through / a))
    hit = (residual_mag <= INTERSECT_RESIDUAL_TOL) & (residual_arg <= INTERSECT_RESIDUAL_TOL)
    no_root, missed = keep.size - tau.size, tau.size - int(hit.sum())
    if no_root or missed:
        log.info("intersection trace skipped %d of %d grid points: %d with no "
                 "root with eta in (0, 1), %d missing the target by more than "
                 "%.0e", no_root + missed, keep.size, no_root, missed,
                 INTERSECT_RESIDUAL_TOL)
    return tau[hit], eta[hit], theta[hit], residual_mag[hit], residual_arg[hit]
