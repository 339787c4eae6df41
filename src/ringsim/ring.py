"""Single double-bus microring resonator: couplers, 2x2 transfer matrix,
and the effective transmission/reflection picture valid on resonance.

Couplers and transfer matrices also come in a stacked form over N rings
(``CouplerStack``, ``transfer_matrix_stack``), which the manifold sweeps
evaluate in one numpy pass."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError

TWO_PI = 2.0 * math.pi

# Canonical on-resonance round trip. Reduces to theta = 0 in storage but
# fixes the default phase partition at phi = pi, which makes the composed
# network real entrywise and lets it match the resonant closed form.
RESONANT_THETA = TWO_PI

_RECIPROCITY_TOL = 1e-12


@dataclass(frozen=True)
class RingCoupler:
    """Physical parameters of one double-bus ring.

    tau and eta are the real direct transmission amplitudes of the lower
    and upper couplers; kappa and gamma are the matching cross-coupling
    amplitudes. theta is the round-trip phase (stored reduced mod 2*pi)
    and phi the phase partition between the two half-trips.
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
            raise PoleError(
                f"|tau*eta| = {abs(self.tau * self.eta)} puts the resonance "
                "denominator at zero"
            )
        for t, k, label in ((self.tau, self.kappa, "kappa"),
                            (self.eta, self.gamma, "gamma")):
            if not abs(abs(k) ** 2 + t * t - 1.0) <= _RECIPROCITY_TOL:
                raise DomainError(f"|{label}|^2 + transmission^2 != 1")
            if not abs(k * t + k.conjugate() * t) <= _RECIPROCITY_TOL:
                raise DomainError(f"{label} violates the reciprocity phase condition")

    def flipped(self) -> "RingCoupler":
        """Same ring mounted mirror-imaged: the two buses trade roles."""
        return replace(self, tau=self.eta, eta=self.tau,
                       kappa=self.gamma, gamma=self.kappa)


@dataclass(frozen=True)
class RingTransfer:
    """Entries of the 2x2 bus-to-bus transfer matrix [[a, b], [c, d]]."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


class EffectiveCoupling(NamedTuple):
    """On-resonance beam-splitter equivalent of a ring: t^2 + r^2 = 1."""

    t: float
    r: float


def build_coupler(tau: float, eta: float, theta: float,
                  phi: float | None = None) -> RingCoupler:
    """Construct a ring from real coupler transmissions and a round-trip phase.

    Cross couplings are fixed by reciprocity to kappa = i*sqrt(1 - tau^2)
    and gamma = i*sqrt(1 - eta^2). When phi is omitted it defaults to half
    the given (unreduced) round trip; theta itself is stored mod 2*pi.

    Raises
    ------
    DomainError
        If tau or eta falls outside [-1, 1].
    PoleError
        If |tau * eta| = 1, which collapses the resonance denominator.
    """
    if not -1.0 <= tau <= 1.0:
        raise DomainError(f"tau must lie in [-1, 1], got {tau}")
    if not -1.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [-1, 1], got {eta}")
    if abs(tau * eta) >= 1.0:
        raise PoleError(f"|tau*eta| = {abs(tau * eta)}: on-resonance pole")
    if phi is None:
        phi = 0.5 * theta
    return RingCoupler(
        tau=float(tau),
        eta=float(eta),
        theta=float(theta) % TWO_PI,
        phi=float(phi),
        kappa=1j * math.sqrt(1.0 - tau * tau),
        gamma=1j * math.sqrt(1.0 - eta * eta),
    )


_COUPLER_DTYPES = {"tau": float, "eta": float, "theta": float, "phi": float,
                   "kappa": complex, "gamma": complex}


@dataclass(frozen=True, eq=False)
class CouplerStack:
    """N rings as parallel 1-D arrays: the stacked form of RingCoupler.

    Every member passes the checks of RingCoupler on construction (domain,
    pole, reciprocity); the error names the first failing value, and NaN
    fails every check. The field arrays are read-only views. A NetworkStack
    mounts its three slots in one CouplerStack, evaluated in one call.
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
        for name, value in (("tau", self.tau), ("eta", self.eta)):
            bad = ~(np.abs(value) <= 1.0)
            if bad.any():
                raise DomainError(f"{name} must lie in [-1, 1], got {value[bad][0]}")
        product = np.abs(self.tau * self.eta)
        bad = ~(product < 1.0)
        if bad.any():
            raise PoleError(f"|tau*eta| = {product[bad][0]} puts the resonance "
                            "denominator at zero")
        for t, k, label in ((self.tau, self.kappa, "kappa"),
                            (self.eta, self.gamma, "gamma")):
            if not np.all(np.abs(np.abs(k) ** 2 + t * t - 1.0) <= _RECIPROCITY_TOL):
                raise DomainError(f"|{label}|^2 + transmission^2 != 1")
            if not np.all(np.abs(k * t + k.conj() * t) <= _RECIPROCITY_TOL):
                raise DomainError(f"{label} violates the reciprocity phase condition")

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

    def member(self, i: int) -> RingCoupler:
        """The i-th ring as a RingCoupler."""
        return RingCoupler(tau=float(self.tau[i]), eta=float(self.eta[i]),
                           theta=float(self.theta[i]), phi=float(self.phi[i]),
                           kappa=complex(self.kappa[i]), gamma=complex(self.gamma[i]))

    def flipped(self) -> "CouplerStack":
        """Every ring mounted mirror-imaged, as RingCoupler.flipped."""
        # The checks are symmetric under the swap, so they are not repeated.
        return self._checked_already(tau=self.eta, eta=self.tau, theta=self.theta,
                                     phi=self.phi, kappa=self.gamma, gamma=self.kappa)


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
    # Out-of-domain members give NaN here and are rejected by CouplerStack.
    with np.errstate(invalid="ignore"):
        kappa = 1j * np.sqrt(1.0 - tau * tau)
        gamma = 1j * np.sqrt(1.0 - eta * eta)
    return CouplerStack(tau=tau, eta=eta, theta=theta % TWO_PI, phi=0.5 * theta,
                        kappa=kappa, gamma=gamma)


def transfer_matrix_stack(couplers: CouplerStack) -> np.ndarray:
    """Bus-to-bus transfer matrices of N rings, shape (N, 2, 2).

    The through amplitudes interpolate between the coupler transmissions
    with the round-trip phasor; the cross amplitudes share the ring loss
    factor and split the round trip according to the phase partition.
    """
    tau, eta, theta, phi = couplers.tau, couplers.eta, couplers.theta, couplers.phi
    z = np.exp(-1j * theta)
    den = 1.0 - eta * tau * z
    cross = couplers.gamma * couplers.kappa.conj()
    out = np.empty((len(couplers), 2, 2), dtype=complex)
    out[:, 0, 0] = (eta - tau * z) / den
    out[:, 0, 1] = -cross * np.exp(-1j * phi) / den
    out[:, 1, 0] = -couplers.kappa * couplers.gamma.conj() * np.exp(-1j * (theta - phi)) / den
    out[:, 1, 1] = (tau - eta * z) / den
    return out


def transfer_matrix(coupler: RingCoupler) -> RingTransfer:
    """Bus-to-bus transfer matrix of one ring: the N = 1 case of
    ``transfer_matrix_stack``."""
    m = transfer_matrix_stack(CouplerStack.of([coupler]))[0]
    return RingTransfer(a=complex(m[0, 0]), b=complex(m[0, 1]),
                        c=complex(m[1, 0]), d=complex(m[1, 1]))


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
    den = 1.0 - eta * tau
    if abs(den) < 1e-15:
        raise PoleError("tau * eta = 1: effective coupling undefined")
    t = (eta - tau) / den
    r = math.sqrt(max((1.0 - tau * tau) * (1.0 - eta * eta), 0.0)) / den
    return EffectiveCoupling(t=t, r=r)


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
    den = 1.0 + t * tau
    if abs(den) < 1e-15:
        raise PoleError("t * tau = -1: inversion undefined")
    return (t + tau) / den


def on_resonance_transfer(t: float, slot: int) -> RingTransfer:
    """Resonant transfer matrix expressed through the effective transmission.

    Slots 1 and 3 give [[t, r], [r, -t]]; slot 2 is the mirror-mounted ring
    and gives [[-t, r], [r, t]], with r = sqrt(1 - t^2).
    """
    if slot not in (1, 2, 3):
        raise DomainError(f"slot must be 1, 2 or 3, got {slot}")
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"|t| <= 1 required, got {t}")
    r = math.sqrt(1.0 - t * t)
    if slot == 2:
        return RingTransfer(a=-t, b=r, c=r, d=t)
    return RingTransfer(a=t, b=r, c=r, d=-t)
