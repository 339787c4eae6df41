"""Post-selected linear-optical CNOT built from two heralded phase gates
acting on a dual-rail interferometer.

The CNOT is one fixed circuit: the control on rails 0, 1 and the target
on rails 2, 3, gate A on the control one-rail with ancillas 4, 5 and gate
B on the target zero-rail with ancillas 6, 7, between fixed 50/50
interferometers. The CNOT's record is its heralded block, which
build_cnot reads from the two gates' heralded amplitudes beta between two
fixed two-photon interferometers on the rails: no 8-mode matrix is built.
The tests assemble that matrix from its parts and hold the block to its
independent four-photon lift by permanents (tests/oracles.py)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analysis import NlpsgVerdict, _member, verdict_stack
from .errors import ConstraintError, DomainError, PoleError
from .fock import _lift_block, enumerate_basis
from .network import (_LOOP_POLE, NetworkParams, NetworkStack, _require_unitary,
                      compose_scattering_stack, unitarity_residual)
from .ring import TWO_PI, _read_only

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Computational basis inputs (control, target), in the order 00, 01, 10, 11.
_COMPUTATIONAL = ((0, 0), (0, 1), (1, 0), (1, 1))

# Once both ancilla pairs herald (1, 0), two of the four photons are left
# on the rails (modes 0-3), so the kept outputs are the rails' two-photon
# states, in enumerate_basis(4, 2) order. _LOGICAL is the index among them
# of each computational state |control, target>, (1-c, c, 1-t, t) in
# _COMPUTATIONAL order: the kept block's input columns, and its logical
# output rows. Written out, so that importing the package builds no basis.
_LOGICAL = _read_only(np.array([2, 3, 5, 6]))


@dataclass(frozen=True, eq=False)
class CnotNetwork:
    """The CNOT's heralded block: the amplitudes of the herald-consistent
    four-photon outputs, one row per two-photon state of the rails, one
    column per computational input in _COMPUTATIONAL order. Every check
    reads this one block; build_cnot fills it (see _heralded_block)."""

    kept_block: np.ndarray


@dataclass(frozen=True)
class TruthTableRow:
    control_in: int
    target_in: int
    probability: float
    control_out: int
    target_out: int
    fidelity: float
    leakage: float


@dataclass(frozen=True)
class CoherenceReport:
    """Bell-state preparation check on a control superposition input."""

    overlap: float
    probability: float


# Real symmetric 50/50 splitter.
_SPLITTER = _read_only(np.array([[_INV_SQRT2, _INV_SQRT2],
                                 [_INV_SQRT2, -_INV_SQRT2]], dtype=complex))


def _mixer(a: int, b: int) -> np.ndarray:
    """The 50/50 splitter on rails a and b, identity on the other two."""
    out = np.eye(4, dtype=complex)
    out[np.ix_((a, b), (a, b))] = _SPLITTER
    return _read_only(out)


# The fixed parts of build_cnot's network, which act on the rails (modes
# 0-3) only: the 50/50 mixer on the target rails, the inner splitter
# between the control one-rail and the target zero-rail, and the pi phase
# on the control one-rail.
_TARGET_MIX = _mixer(2, 3)
_INNER = _mixer(1, 2)
_CONTROL_FLIP = _read_only(np.diag([1, -1, 1, 1]).astype(complex))


class _Interferometers(NamedTuple):
    """build_cnot's fixed networks before and after the gates, lifted to
    the rails' two-photon states, enumerate_basis(4, 2): ``post_lift`` and
    ``pre_cols``, the latter cut to the computational inputs; and
    ``arm_photons``, the photons on modes 1 and 2 of each two-photon state."""

    post_lift: np.ndarray
    pre_cols: np.ndarray
    arm_photons: np.ndarray


@lru_cache(maxsize=None)
def _interferometers() -> _Interferometers:
    """Built on first use, not at import: only the CNOT reads them."""
    rails = enumerate_basis(4, 2)
    return _Interferometers(
        _read_only(_lift_block(_CONTROL_FLIP @ _TARGET_MIX @ _INNER, rails)),
        _read_only(_lift_block(_INNER @ _TARGET_MIX, rails, cols=_LOGICAL)),
        _read_only(rails.occupancy[:, 1:3].T.copy()))


def _heralded_block(heralded: np.ndarray, probe_phase: float) -> np.ndarray:
    """The kept block of the CNOT network, from the gates' heralded
    amplitudes: row g of the (2, 3) array ``heralded`` is what gate g's
    herald leaves of 0, 1 and 2 photons on its signal mode, which is
    (beta0, beta1, -beta2) of _betas.

    Once both ancilla pairs herald, each gate acts on its arm's photon
    number n as n -> h[n] n, so the block is post · diag(d) · pre over the
    rails' two-photon states y, with d[y] = hA[y1] hB[y2] e^{i probe_phase
    y1} and y1, y2 the photons on modes 1 and 2. That holds for any gates,
    on the manifold or not; the tests' 8-mode lift is the oracle."""
    fixed = _interferometers()
    on_a, on_b = fixed.arm_photons
    d = heralded[0, on_a] * heralded[1, on_b] * np.exp(1j * probe_phase * on_a)
    return (fixed.post_lift * d) @ fixed.pre_cols


def _checked_verdicts(networks: NetworkStack, matrices: np.ndarray,
                     tol: float) -> NlpsgVerdict:
    """The stacked verdict of the gates that ``networks`` composed into
    ``matrices``, checked gate by gate, A first: each gate must be unitary
    within 1e-10 (else PoleError, from the one-matrix unitarity_residual
    that smatrix prints), then meet the success constraints and herald
    (else ConstraintError, with the gate's own verdict)."""
    labels = "AB"[:len(matrices)]
    names, residuals = [f"gate {x}" for x in labels], [unitarity_residual(m) for m in matrices]
    verdicts = verdict_stack(matrices)
    for i, label in enumerate(labels):
        _require_unitary(networks, residuals[:i + 1], names)
        if not verdicts.residual[i] < tol:
            raise ConstraintError(
                f"gate {label} violates the success constraints "
                f"(residual {verdicts.residual[i]:.3e} >= {tol:.1e})",
                verdict=_member(verdicts, i))
        if not abs(verdicts.beta0[i]) > tol:
            raise ConstraintError(
                f"gate {label} never heralds (|beta0| {abs(verdicts.beta0[i]):.3e} "
                f"<= {tol:.1e})", verdict=_member(verdicts, i))
    return verdicts


def build_cnot(gate_a: NetworkParams, gate_b: NetworkParams,
               tol: float = 1e-9, probe_phase: float = 0.0) -> CnotNetwork:
    """Assemble the CNOT from two validated heralded-gate networks.

    The control one-rail and target zero-rail are mixed on a 50/50
    splitter, one heralded gate acts on each resulting arm with its own
    ancilla pair, and the splitter is undone. 50/50 mixers on the target
    rails before and after convert the central controlled sign flip into
    a controlled NOT. A final pi phase on the control one-rail absorbs
    the sign the two-photon branch picks up, making the post-selected map
    exactly CNOT.

    ``probe_phase`` inserts a diagnostic phase on arm A between the inner
    splitters; nonzero values deliberately break the interference (see
    verify_coherence). It is reduced by the exact fmod mod 2*pi, as ring
    angles are, so every representative of the phase gives the same block.

    The record is the network's heralded block, read from the two gates'
    verdict amplitudes beta between the two fixed two-photon
    interferometers (see _heralded_block), with no 8-mode matrix or Fock
    lift. The fixed parts are exact splitters and a sign, so the gates are
    what is checked, where they are composed.

    Raises
    ------
    DomainError
        If ``probe_phase`` is not finite.
    PoleError
        If either gate's network sits on its loop pole, or composes to a
        matrix that is not unitary within 1e-10 near it; the message names
        the gate. Gate B's pole, and its unitarity, are checked after gate
        A's checks.
    ConstraintError
        If either gate's success constraints fail at ``tol``, or its
        heralded amplitude beta0 is at most ``tol`` so it never heralds;
        gate A is checked first and the verdict rides along on the exception.
    """
    if not math.isfinite(probe_phase):
        raise DomainError(f"probe_phase must be finite, got {probe_phase}")
    # Unreduced, a phase beyond 8.99e307 overflows at two photons on arm A.
    probe_phase = math.fmod(probe_phase, TWO_PI)
    networks = NetworkStack.of((gate_a, gate_b))
    try:
        # One stacked call: composing each gate alone costs about 0.15 ms
        # more, nearly all of it fixed per-call work, or 9% of a cnot call.
        matrices = compose_scattering_stack(networks)
    except PoleError as err:
        # A stack member composes bit for bit as it does alone, so gate A
        # composed alone tells whose pole it is; gate B's pole is reported
        # only after gate A's checks.
        alone = NetworkStack.of([gate_a])
        try:
            matrix_a = compose_scattering_stack(alone)
        except PoleError as err_a:
            raise PoleError(f"gate A: {_LOOP_POLE}") from err_a
        _checked_verdicts(alone, matrix_a, tol)
        raise PoleError(f"gate B: {_LOOP_POLE}") from err
    verdicts = _checked_verdicts(networks, matrices, tol)
    heralded = np.array([verdicts.beta0, verdicts.beta1, -verdicts.beta2]).T
    return CnotNetwork(kept_block=_read_only(_heralded_block(heralded, probe_phase)))


def _post_selected(amps: np.ndarray):
    """Herald probability of a column of kept amplitudes, and the conditional
    amplitudes of the logical outputs, as project gives them: the
    probability sums |amp|^2 over the nonzero entries in row order, which
    fixes the order of the sum."""
    nz = np.flatnonzero(np.abs(amps) > 0.0)
    prob = float(np.sum(np.abs(amps[nz]) ** 2))
    if prob <= 0.0:
        return 0.0, [0j] * len(_LOGICAL)
    return prob, (amps[_LOGICAL] * (1.0 / np.sqrt(prob))).tolist()


# Outputs whose weight is within this of the largest tie, and the tie goes
# to the first of them in _COMPUTATIONAL order. At probe phases such as
# pi/2 and pi two outputs weigh exactly the same, and the last bits of
# whichever algebra computed the block must not pick the printed one.
_TIE = 1e-12


def verify_truth_table(net: CnotNetwork) -> list[TruthTableRow]:
    """Evolve all four computational inputs and herald both ancilla pairs.

    Each row reports the herald probability, the dominant logical output
    (of the outputs tied within _TIE for the largest weight, the first),
    its fidelity within the post-selected state, and the leakage outside
    the dual-rail computational subspace.
    """
    rows = []
    for (c_in, t_in), column in zip(_COMPUTATIONAL, net.kept_block.T):
        prob, logical = _post_selected(column)
        weights = dict(zip(_COMPUTATIONAL, (abs(a) ** 2 for a in logical)))
        top = max(weights.values())
        dominant = next(b for b, w in weights.items() if w >= top - _TIE)
        comp_weight = sum(weights.values())
        rows.append(TruthTableRow(
            control_in=c_in,
            target_in=t_in,
            probability=prob,
            control_out=dominant[0],
            target_out=dominant[1],
            fidelity=weights[dominant],
            leakage=1.0 - comp_weight,
        ))
    return rows


def verify_coherence(net: CnotNetwork) -> CoherenceReport:
    """Feed (|0> + |1>)_control |0>_target and compare the heralded output
    against the maximally entangled (|00> + |11>)/sqrt(2).

    By linearity the heralded amplitudes are those of the inputs 00 and 10
    from the truth table's block, summed with weight 1/sqrt(2) each."""
    inputs = [_COMPUTATIONAL.index((0, 0)), _COMPUTATIONAL.index((1, 0))]
    weights = np.full(2, _INV_SQRT2, dtype=complex)
    prob, (a00, _, _, a11) = _post_selected(net.kept_block[:, inputs] @ weights)
    return CoherenceReport(overlap=abs(_INV_SQRT2 * (a00 + a11)), probability=prob)


def conditional_logical_matrix(net: CnotNetwork) -> np.ndarray:
    """Unnormalized post-selected map on the computational subspace.

    Entry [out, in] is the heralded amplitude from computational input to
    computational output, with basis order 00, 01, 10, 11.
    """
    return net.kept_block[_LOGICAL]


def normalize_global_phase(m: np.ndarray) -> np.ndarray:
    """Divide by the largest-magnitude entry, removing scale and phase."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise DomainError("cannot phase-normalize a non-finite matrix")
    pivot = m.flat[int(np.argmax(np.abs(m)))]
    if abs(pivot) == 0.0:
        raise DomainError("cannot phase-normalize a zero matrix")
    return m / pivot
