"""Post-selected linear-optical CNOT built from two heralded phase gates
acting on a dual-rail interferometer.

build_cnot reads the heralded block from the two gates' heralded
amplitudes beta between two fixed two-photon interferometers. The full
8-mode, four-photon lift serves networks a caller builds from their own
matrix, and is the tests' oracle for build_cnot's block."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .analysis import NlpsgVerdict, _member, verdict_stack
from .errors import ConstraintError, DomainError, PoleError
from .fock import (MeasurementPattern, _herald_table, _lift_block,
                   _require_unitary, _whole, enumerate_basis)
from .network import (_LOOP_POLE, NetworkParams, NetworkStack,
                      compose_scattering, compose_scattering_stack, unitarity_residual)
from .ring import _read_only

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Computational basis inputs (control, target), in the order 00, 01, 10, 11.
_COMPUTATIONAL = ((0, 0), (0, 1), (1, 0), (1, 1))

# Photons of every input: one per qubit and one per ancilla pair.
_PHOTONS = 4


# Real symmetric 50/50 splitter.
_SPLITTER = _read_only(np.array([[_INV_SQRT2, _INV_SQRT2],
                                 [_INV_SQRT2, -_INV_SQRT2]], dtype=complex))


@dataclass(frozen=True)
class DualRailQubit:
    """Mode indices carrying the logical 0 and 1 of one photonic qubit."""

    zero_rail: int
    one_rail: int

    def __post_init__(self):
        for name in ("zero_rail", "one_rail"):
            object.__setattr__(self, name, _whole(getattr(self, name), "rail mode"))
        if self.zero_rail == self.one_rail:
            raise DomainError("dual-rail modes must be distinct")
        if min(self.zero_rail, self.one_rail) < 0:
            raise DomainError("mode indices must be non-negative")

    def rail(self, bit: int) -> int:
        return self.one_rail if bit else self.zero_rail


def _herald_pattern(ancillas) -> MeasurementPattern:
    (a_occ, a_vac), (b_occ, b_vac) = ancillas
    return MeasurementPattern(((a_occ, 1), (a_vac, 0), (b_occ, 1), (b_vac, 0)))


class _Register(NamedTuple):
    """Where the CNOT's four-photon register sits in the Fock space.

    ``cols`` is the basis index of each computational input, ``rows`` the
    herald table's kept rows, and ``outputs`` the position among those rows
    of each logical output; inputs and outputs in _COMPUTATIONAL order.
    ``targets`` is the index of each kept row in the basis of the
    unheralded modes' two photons, and ``inputs`` that of each
    computational input, less its ancilla photons."""

    cols: np.ndarray
    rows: np.ndarray
    outputs: np.ndarray
    targets: np.ndarray
    inputs: np.ndarray


@lru_cache(maxsize=None)
def _register_table(n_modes: int, control: DualRailQubit, target: DualRailQubit,
                    ancillas) -> _Register:
    """Cached register table of one mode assignment. Each logical output is
    read among the unheralded modes, wherever the rails sit."""
    basis = enumerate_basis(n_modes, _PHOTONS)
    rows, targets, remaining = _herald_table(n_modes, _PHOTONS,
                                             _herald_pattern(ancillas))
    heralded = {m for pair in ancillas for m in pair}
    unheralded = [m for m in range(n_modes) if m not in heralded]
    lands = targets.tolist()
    cols, outputs, inputs = [], [], []
    for c, t in _COMPUTATIONAL:
        occ = [0] * n_modes
        occ[control.rail(c)] = occ[target.rail(t)] = 1
        inputs.append(remaining.index_of([occ[m] for m in unheralded]))
        outputs.append(lands.index(inputs[-1]))
        for occupied, _ in ancillas:
            occ[occupied] = 1
        cols.append(basis.index_of(occ))
    return _Register(_read_only(np.array(cols)), rows, _read_only(np.array(outputs)),
                     targets, _read_only(np.array(inputs)))


@dataclass(frozen=True, eq=False)
class CnotNetwork:
    """Global 8-mode unitary with its rail and ancilla assignments.

    Each ancilla pair must herald exactly (1, 0) photons for the gate to
    have acted.

    Raises
    ------
    DomainError
        If the matrix is not square, or the eight assigned modes are not
        distinct integer modes of it.
    """

    matrix: np.ndarray
    control: DualRailQubit
    target: DualRailQubit
    ancillas: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"expected a square matrix, got shape {shape}")
        object.__setattr__(self, "ancillas", tuple(
            tuple(_whole(m, "ancilla mode") for m in pair) for pair in self.ancillas))
        modes = [*(q.rail(bit) for q in (self.control, self.target) for bit in (0, 1)),
                 *(m for pair in self.ancillas for m in pair)]
        if len(modes) != 8 or len(set(modes)) != 8:
            raise DomainError(f"CNOT modes {modes} are not eight distinct modes")
        if not all(0 <= m < shape[0] for m in modes):
            raise DomainError(f"CNOT modes {modes} outside 0..{shape[0] - 1}")

    @cached_property
    def herald_pattern(self) -> MeasurementPattern:
        return _herald_pattern(self.ancillas)

    @property
    def _register(self) -> _Register:
        return _register_table(len(self.matrix), self.control, self.target,
                               self.ancillas)

    @cached_property
    def _kept_block(self) -> np.ndarray:
        """Amplitudes of the herald-consistent four-photon outputs, one row
        per row of the herald table, one column per computational input in
        _COMPUTATIONAL order. Every check reads this one block.

        Here it is the generic 8-mode lift of the matrix: a block of
        permanents. build_cnot hands its network the block read from the
        gates' heralded amplitudes instead (see _heralded_block)."""
        s = np.asarray(self.matrix, dtype=complex)
        _require_unitary(unitarity_residual(s))
        reg = self._register
        return _lift_block(s, enumerate_basis(len(s), _PHOTONS),
                           rows=reg.rows, cols=reg.cols)


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


def embed(s: np.ndarray, mode_map, n_total: int) -> np.ndarray:
    """Place a small unitary on the listed global modes, identity elsewhere.

    Raises
    ------
    DomainError
        On index collisions, out-of-range indices, or a size mismatch.
    """
    s = np.asarray(s, dtype=complex)
    modes = [int(m) for m in mode_map]
    if len(set(modes)) != len(modes):
        raise DomainError(f"mode map {modes} has a collision")
    if any(m < 0 or m >= n_total for m in modes):
        raise DomainError(f"mode map {modes} outside 0..{n_total - 1}")
    if s.shape != (len(modes), len(modes)):
        raise DomainError(
            f"matrix shape {s.shape} does not match {len(modes)} mapped modes")
    out = np.eye(n_total, dtype=complex)
    out[np.ix_(modes, modes)] = s
    return out


# The fixed parts of build_cnot's network: the 50/50 mixer on the target
# rails, the inner splitter between the control one-rail and the target
# zero-rail, and the pi phase on the control one-rail.
_TARGET_MIX = _read_only(embed(_SPLITTER, (2, 3), 8))
_INNER = _read_only(embed(_SPLITTER, (1, 2), 8))
_CONTROL_FLIP = _read_only(np.diag([1, -1, 1, 1, 1, 1, 1, 1]).astype(complex))

# build_cnot's mode assignment: the rails on modes 0-3, gate A on the control
# one-rail (mode 1) with ancillas 4, 5, gate B on the target zero-rail
# (mode 2) with ancillas 6, 7. _GATE_ROWS and _GATE_COLS place each entry
# of the (2, 3, 3) gate stack in the 8x8 network.
_CONTROL = DualRailQubit(0, 1)
_TARGET = DualRailQubit(2, 3)
_ANCILLAS = ((4, 5), (6, 7))
_ARMS = ((1, 4, 5), (2, 6, 7))
_GATE_ROWS = _read_only(np.repeat(_ARMS, 3))
_GATE_COLS = _read_only(np.tile(_ARMS, 3).ravel())


class _Interferometers(NamedTuple):
    """build_cnot's fixed networks, which act on the rails (modes 0-3) only.

    ``pre`` and ``post`` are the 8x8 networks before and after the gates.
    ``post_rows`` and ``pre_cols`` are their two-photon lifts over
    enumerate_basis(4, 2), cut to the register's kept rows and
    computational inputs, and ``arm_photons`` the photons on modes 1 and 2
    of each of those two-photon states."""

    pre: np.ndarray
    post: np.ndarray
    post_rows: np.ndarray
    pre_cols: np.ndarray
    arm_photons: np.ndarray


@lru_cache(maxsize=None)
def _interferometers() -> _Interferometers:
    """Built on first use, not at import: only the CNOT reads them."""
    pre = _read_only(_INNER @ _TARGET_MIX)
    post = _read_only(_CONTROL_FLIP @ _TARGET_MIX @ _INNER)
    rails = enumerate_basis(4, 2)
    reg = _register_table(8, _CONTROL, _TARGET, _ANCILLAS)
    return _Interferometers(
        pre, post,
        _read_only(_lift_block(post[:4, :4], rails, rows=reg.targets)),
        _read_only(_lift_block(pre[:4, :4], rails, cols=reg.inputs)),
        _read_only(rails.occupancy[:, 1:3].T.copy()))


def _network_matrix(gates: np.ndarray, probe_phase: float) -> np.ndarray:
    """build_cnot's 8x8 unitary from its (2, 3, 3) gate stack: one matrix
    holding both gates and the probe phase, between the fixed networks."""
    fixed = _interferometers()
    middle = np.eye(8, dtype=complex)
    middle[_GATE_ROWS, _GATE_COLS] = gates.reshape(-1)
    middle[:, 1] *= np.exp(1j * probe_phase)  # the probe acts before gate A
    # Read-only: the network caches what it computes from its matrix.
    return _read_only(fixed.post @ middle @ fixed.pre)


def _heralded_block(heralded: np.ndarray, probe_phase: float) -> np.ndarray:
    """The kept block of _network_matrix's network, from the gates'
    heralded amplitudes: row g of the (2, 3) array ``heralded`` is what
    gate g's herald leaves of 0, 1 and 2 photons on its signal mode, which
    is (beta0, beta1, -beta2) of _betas.

    Once both ancilla pairs herald, each gate acts on its arm's photon
    number n as n -> h[n] n, so the block is post · diag(d) · pre over the
    rails' two-photon states y, with d[y] = hA[y1] hB[y2] e^{i probe_phase
    y1} and y1, y2 the photons on modes 1 and 2. That holds for any gates,
    on the manifold or not; the generic lift is the oracle."""
    fixed = _interferometers()
    on_a, on_b = fixed.arm_photons
    d = heralded[0, on_a] * heralded[1, on_b] * np.exp(1j * probe_phase * on_a)
    return (fixed.post_rows * d) @ fixed.pre_cols


def _judge(label: str, verdicts: NlpsgVerdict, i: int, tol: float) -> None:
    """Raise ConstraintError, with the gate's own verdict, unless member i of
    a stacked verdict meets the success constraints and heralds."""
    if not verdicts.residual[i] < tol:
        raise ConstraintError(
            f"gate {label} violates the success constraints "
            f"(residual {verdicts.residual[i]:.3e} >= {tol:.1e})",
            verdict=_member(verdicts, i))
    if not abs(verdicts.beta0[i]) > tol:
        raise ConstraintError(
            f"gate {label} never heralds (|beta0| {abs(verdicts.beta0[i]):.3e} "
            f"<= {tol:.1e})", verdict=_member(verdicts, i))


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
    verify_coherence).

    The checks read the network's heralded block from the two gates'
    verdict amplitudes beta between the two fixed two-photon
    interferometers (see _heralded_block), with no 8-mode Fock lift.

    Raises
    ------
    ConstraintError
        If either gate's success constraints fail at ``tol``, or its
        heralded amplitude beta0 is at most ``tol`` so it never heralds;
        gate A is checked first and the verdict rides along on the exception.
    PoleError
        If either gate's network sits on its loop pole; the message names
        the gate, and gate A's verdict comes before gate B's pole.
    DomainError
        If the assembled network is not unitary within 1e-10.
    """
    try:
        # One stacked call: composing each gate alone costs about 0.15 ms
        # more, nearly all of it fixed per-call work, or 9% of a cnot call.
        matrices = compose_scattering_stack(NetworkStack.of((gate_a, gate_b)))
    except PoleError as err:
        # A stack member composes bit for bit as it does alone, so gate A
        # composed alone tells whose pole it is; gate B's pole is reported
        # only after gate A's verdict.
        try:
            matrix_a = compose_scattering(gate_a)
        except PoleError as err_a:
            raise PoleError(f"gate A: {_LOOP_POLE}") from err_a
        _judge("A", verdict_stack(matrix_a[np.newaxis]), 0, tol)
        raise PoleError(f"gate B: {_LOOP_POLE}") from err
    verdicts = verdict_stack(matrices)
    for i, label in enumerate("AB"):
        _judge(label, verdicts, i, tol)

    net = CnotNetwork(matrix=_network_matrix(matrices, probe_phase),
                      control=_CONTROL, target=_TARGET, ancillas=_ANCILLAS)
    _require_unitary(unitarity_residual(net.matrix))
    heralded = np.array([verdicts.beta0, verdicts.beta1, -verdicts.beta2]).T
    # A cached_property keeps its value in the instance dict: hand the
    # factorized block over there, in place of the generic lift.
    net.__dict__["_kept_block"] = _heralded_block(heralded, probe_phase)
    return net


def _post_selected(amps: np.ndarray, outputs: np.ndarray):
    """Herald probability of a column of kept amplitudes, and the conditional
    amplitudes of the logical outputs, as project gives them: the
    probability sums |amp|^2 over the nonzero entries in row order, which
    fixes the order of the sum."""
    nz = np.flatnonzero(np.abs(amps) > 0.0)
    prob = float(np.sum(np.abs(amps[nz]) ** 2))
    if prob <= 0.0:
        return 0.0, [0j] * len(outputs)
    return prob, (amps[outputs] * (1.0 / np.sqrt(prob))).tolist()


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
    outputs = net._register.outputs
    rows = []
    for (c_in, t_in), column in zip(_COMPUTATIONAL, net._kept_block.T):
        prob, logical = _post_selected(column, outputs)
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
    prob, (a00, _, _, a11) = _post_selected(net._kept_block[:, inputs] @ weights,
                                            net._register.outputs)
    return CoherenceReport(overlap=abs(_INV_SQRT2 * (a00 + a11)), probability=prob)


def conditional_logical_matrix(net: CnotNetwork) -> np.ndarray:
    """Unnormalized post-selected map on the computational subspace.

    Entry [out, in] is the heralded amplitude from computational input to
    computational output, with basis order 00, 01, 10, 11.
    """
    return net._kept_block[net._register.outputs]


def normalize_global_phase(m: np.ndarray) -> np.ndarray:
    """Divide by the largest-magnitude entry, removing scale and phase."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise DomainError("cannot phase-normalize a non-finite matrix")
    pivot = m.flat[int(np.argmax(np.abs(m)))]
    if abs(pivot) == 0.0:
        raise DomainError("cannot phase-normalize a zero matrix")
    return m / pivot
