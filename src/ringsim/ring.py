"""Single double-bus microring resonator: couplers, 2x2 transfer matrix,
and the effective transmission/reflection picture valid on resonance.

Couplers and transfer matrices also come in a stacked form over N rings
(``CouplerStack``, ``transfer_matrix_stack``), which the manifold sweeps
evaluate in one numpy pass."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError

TWO_PI = 2.0 * math.pi

# Canonical on-resonance round trip. Reduces to theta = 0 in storage but
# fixes the default phase partition at phi = pi, which makes the composed
# network real entrywise and lets it match the resonant closed form.
RESONANT_THETA = TWO_PI

_RECIPROCITY_TOL = 1e-12

_COUPLER_DTYPES = {"tau": float, "eta": float, "theta": float, "phi": float,
                   "kappa": complex, "gamma": complex}

# Field -> the field it is read from when the ring is mounted mirror-imaged
# and its two buses trade roles, as the network's middle slot is; the map
# is its own inverse.
_FLIPPED = {"tau": "eta", "eta": "tau", "theta": "theta", "phi": "phi",
            "kappa": "gamma", "gamma": "kappa"}


@dataclass(frozen=True)
class RingCoupler:
    """Physical parameters of one double-bus ring.

    tau and eta are the real direct transmission amplitudes of the lower
    and upper couplers; kappa and gamma are the matching cross-coupling
    amplitudes. theta is the round-trip phase and phi the phase partition
    between the two half-trips. Construction stores each of them in
    (-2*pi, 2*pi), reduced by fmod where its magnitude is 2*pi or more.
    fmod is exact, so the half-trip phases theta - phi and phi keep every
    digit whatever representative of the angle was given.

    Construction checks, in this order, that tau and eta lie in [-1, 1]
    (DomainError), that |tau * eta| < 1 (PoleError: the on-resonance
    pole), that theta and phi are finite, and that each cross coupling
    meets reciprocity with its transmission (DomainError). These are the
    checks, and the messages, of every ring the package builds.
    """

    tau: float
    eta: float
    theta: float
    phi: float
    kappa: complex
    gamma: complex

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("eta", self.eta)):
            if not -1.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [-1, 1], got {value}")
        if abs(self.tau * self.eta) >= 1.0:
            raise PoleError(f"|tau*eta| = {abs(self.tau * self.eta)}: on-resonance pole")
        for name, value in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if abs(value) >= TWO_PI:
                object.__setattr__(self, name, math.fmod(value, TWO_PI))
        for t, k, label in ((self.tau, self.kappa, "kappa"),
                            (self.eta, self.gamma, "gamma")):
            if not abs(abs(k) ** 2 + t * t - 1.0) <= _RECIPROCITY_TOL:
                raise DomainError(f"|{label}|^2 + transmission^2 != 1")
            if not abs(k * t + k.conjugate() * t) <= _RECIPROCITY_TOL:
                raise DomainError(f"{label} violates the reciprocity phase condition")


class EffectiveCoupling(NamedTuple):
    """On-resonance beam-splitter equivalent of a ring: t^2 + r^2 = 1."""

    t: float
    r: float


def _coupler_fields(tau, eta, theta, phi, sqrt) -> tuple:
    """The fields of the ring ``build_coupler`` makes, in field order, from
    floats (with ``sqrt = cmath.sqrt``) or arrays (``np.sqrt``): the cross
    couplings fixed by reciprocity, theta reduced mod 2*pi, and phi, which
    defaults to half the unreduced theta. A transmission outside [-1, 1]
    gives a coupling the construction check rejects, not an error here."""
    return (tau, eta, theta % TWO_PI, 0.5 * theta if phi is None else phi,
            1j * sqrt(1.0 - tau * tau), 1j * sqrt(1.0 - eta * eta))


def build_coupler(tau: float, eta: float, theta: float,
                  phi: float | None = None) -> RingCoupler:
    """Construct a ring from real coupler transmissions and a round-trip phase.

    Cross couplings are fixed by reciprocity to kappa = i*sqrt(1 - tau^2)
    and gamma = i*sqrt(1 - eta^2). When phi is omitted it defaults to half
    the given (unreduced) round trip; theta itself is stored mod 2*pi, and
    phi reduced as RingCoupler reduces it.

    Raises
    ------
    DomainError
        If tau or eta falls outside [-1, 1], or theta or phi is not finite.
    PoleError
        If |tau * eta| = 1, which collapses the resonance denominator.
    """
    return RingCoupler(*_coupler_fields(float(tau), float(eta), float(theta),
                                        None if phi is None else float(phi), cmath.sqrt))


def _passes(tau, eta, theta, phi, kappa, gamma) -> np.ndarray:
    """(N,) mask of the rings, given as 1-D field arrays, that pass the
    checks of RingCoupler. A NaN or infinite field fails, unwarned."""
    with np.errstate(invalid="ignore", over="ignore"):
        passes = ((np.abs(tau) <= 1.0) & (np.abs(eta) <= 1.0) & (np.abs(tau * eta) < 1.0)
                  & np.isfinite(theta) & np.isfinite(phi))
        for t, k in ((tau, kappa), (eta, gamma)):
            passes &= np.abs(np.abs(k) ** 2 + t * t - 1.0) <= _RECIPROCITY_TOL
            passes &= np.abs(k * t + k.conj() * t) <= _RECIPROCITY_TOL
    return passes


@dataclass(frozen=True, eq=False)
class CouplerStack:
    """N rings as parallel 1-D arrays: the stacked form of RingCoupler.

    Every member passes the checks of RingCoupler on construction, and a
    stack with a failing member raises RingCoupler's error for the first
    one; a NaN field fails. theta and phi are reduced as RingCoupler
    reduces them. The field arrays are read-only views. ``NetworkStack.of``
    mounts a network stack's three slots in one CouplerStack, evaluated in
    one call.
    """

    tau: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    kappa: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name, dtype in _COUPLER_DTYPES.items():
            object.__setattr__(self, name,
                               _read_only(np.asarray(getattr(self, name), dtype=dtype)))
        shapes = {getattr(self, name).shape for name in _COUPLER_DTYPES}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise DomainError(f"coupler fields must be 1-D arrays of one length, "
                              f"got shapes {sorted(shapes)}")
        # Below 2 pi fmod is the identity, so the sweeps' angles, all in
        # (-2 pi, 2 pi), are neither copied nor touched.
        for name in ("theta", "phi"):
            x = getattr(self, name)
            big = np.flatnonzero((np.abs(x) >= TWO_PI) & np.isfinite(x))
            if big.size:
                x = x.copy()
                x[big] = np.fmod(x[big], TWO_PI)
                object.__setattr__(self, name, _read_only(x))
        # RingCoupler's check raises, and names the failure: the mask only
        # finds the members to put to it.
        for i in np.flatnonzero(~_passes(*(getattr(self, name) for name in _COUPLER_DTYPES))):
            RingCoupler(**{name: getattr(self, name)[i].item() for name in _COUPLER_DTYPES})

    @classmethod
    def _checked_already(cls, **fields) -> "CouplerStack":
        """Stack from 1-D arrays whose members are known to pass the checks."""
        stack = object.__new__(cls)
        stack.__dict__.update({name: _read_only(fields[name]) for name in _COUPLER_DTYPES})
        return stack

    @classmethod
    def of(cls, couplers) -> "CouplerStack":
        """Stack a sequence of RingCoupler instances, which have each passed
        the checks on construction."""
        couplers = list(couplers)
        return cls._checked_already(**{
            name: np.array([getattr(c, name) for c in couplers], dtype=dtype)
            for name, dtype in _COUPLER_DTYPES.items()})

    def __len__(self) -> int:
        return len(self.tau)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` if it is read-only (as a read-only array's slices are), else a read-only view."""
    if not a.flags.writeable:
        return a
    view = a.view()
    view.flags.writeable = False
    return view


def build_couplers(tau, eta, theta) -> CouplerStack:
    """Stacked build_coupler, with the default phase partition phi = theta/2,
    over arrays that broadcast to one 1-D shape.

    Raises the errors of build_coupler for the first failing member.
    """
    tau, eta, theta = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (tau, eta, theta)))
    # Out-of-domain or non-finite members give NaN here and are rejected by
    # CouplerStack; tau * tau overflows beyond |tau| = 1.34e154.
    with np.errstate(invalid="ignore", over="ignore"):
        fields = _coupler_fields(tau, eta, theta, None, np.sqrt)
    return CouplerStack(*fields)


def _through(eta, tau, z, den=None):
    """Through amplitude (eta - tau z) / (1 - eta tau z) of rings with
    transmissions eta and tau and round-trip phasor z = e^{-i theta}, and
    its denominator. A ring's transfer [0, 0] is (eta, tau) and its [1, 1]
    (tau, eta), with the same den: eta tau and tau eta round the same. At
    z = 1 it is the ring's effective transmission on resonance."""
    if den is None:
        den = 1.0 - eta * tau * z
    return (eta - tau * z) / den, den


def transfer_matrix_stack(couplers: CouplerStack) -> np.ndarray:
    """Bus-to-bus transfer matrices of N rings, shape (N, 2, 2).

    The through amplitudes interpolate between the coupler transmissions
    with the round-trip phasor; the cross amplitudes share the ring loss
    factor and split the round trip according to the phase partition.
    """
    tau, eta, theta, phi = couplers.tau, couplers.eta, couplers.theta, couplers.phi
    z = np.exp(-1j * theta)
    cross = couplers.gamma * couplers.kappa.conj()
    out = np.empty((len(couplers), 2, 2), dtype=complex)
    out[:, 0, 0], den = _through(eta, tau, z)
    out[:, 0, 1] = -cross * np.exp(-1j * phi) / den
    out[:, 1, 0] = -couplers.kappa * couplers.gamma.conj() * np.exp(-1j * (theta - phi)) / den
    out[:, 1, 1], _ = _through(tau, eta, z, den)
    return out


def effective_coupling(tau: float, eta: float) -> EffectiveCoupling:
    """Collapse an on-resonance ring to its equivalent beam splitter.

    Raises
    ------
    PoleError
        If tau * eta = 1.
    DomainError
        If either transmission falls outside [-1, 1].
    """
    if not -1.0 <= tau <= 1.0 or not -1.0 <= eta <= 1.0:
        raise DomainError("transmissions must lie in [-1, 1]")
    # The on-resonance through amplitude. With tau and eta in [-1, 1] its
    # denominator is exact near the pole (Sterbenz), so it is 0 only at
    # tau * eta = 1; the 0/0 there is checked after, not raised.
    with np.errstate(divide="ignore", invalid="ignore"):
        t, den = _through(np.float64(eta), tau, 1.0)
    if den == 0.0:
        raise PoleError("tau * eta = 1: effective coupling undefined")
    r = math.sqrt(max((1.0 - tau * tau) * (1.0 - eta * eta), 0.0)) / den
    return EffectiveCoupling(t=float(t), r=float(r))


def _inverse(t, tau):
    """Upper transmission eta = (t + tau) / (1 + t tau) of the ring with
    effective transmission t and lower transmission tau, over numpy floats
    or arrays, and whether (t, tau) is on the pole, where the denominator
    is 0 and eta inf or NaN. With t and tau in [-1, 1] the denominator is
    exact near the pole (Sterbenz), so it is 0 only at t tau = -1."""
    den = 1.0 + t * tau
    return (t + tau) / den, den == 0.0


def invert_effective(t: float, tau: float) -> float:
    """Upper transmission eta that realizes effective transmission t given tau.

    Inverse of ``effective_coupling`` in its first argument:
    eta = (t + tau) / (1 + t*tau).

    Raises
    ------
    PoleError
        If t * tau = -1.
    DomainError
        If |t| > 1 or |tau| > 1.
    """
    if not -1.0 <= t <= 1.0 or not -1.0 <= tau <= 1.0:
        raise DomainError("arguments must lie in [-1, 1]")
    # At the pole the quotient is inf or NaN: it is checked after, not raised.
    with np.errstate(divide="ignore", invalid="ignore"):
        eta, pole = _inverse(np.float64(t), tau)
    if pole:
        raise PoleError("t * tau = -1: inversion undefined")
    return float(eta)
