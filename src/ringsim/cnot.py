"""Post-selected linear-optical CNOT built from two heralded phase gates
acting on a dual-rail interferometer, verified by full 8-mode simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import verdict
from .errors import ConstraintError, DomainError, PoleError
from .fock import (MeasurementPattern, SectoredState, _evolve_kept,
                   _herald_table, _post_select)
from .network import (_LOOP_POLE, NetworkParams, NetworkStack,
                      compose_scattering, compose_scattering_stack)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Computational basis inputs (control, target), in the order 00, 01, 10, 11.
_COMPUTATIONAL = ((0, 0), (0, 1), (1, 0), (1, 1))

# Photons of every input: one per qubit and one per ancilla pair.
_PHOTONS = 4

# Real symmetric 50/50 splitter.
_SPLITTER = np.array([[_INV_SQRT2, _INV_SQRT2],
                      [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)


@dataclass(frozen=True)
class DualRailQubit:
    """Mode indices carrying the logical 0 and 1 of one photonic qubit."""

    zero_rail: int
    one_rail: int

    def __post_init__(self):
        if self.zero_rail == self.one_rail:
            raise DomainError("dual-rail modes must be distinct")
        if min(self.zero_rail, self.one_rail) < 0:
            raise DomainError("mode indices must be non-negative")

    def rail(self, bit: int) -> int:
        return self.one_rail if bit else self.zero_rail


@dataclass(frozen=True, eq=False)
class CnotNetwork:
    """Global 8-mode unitary with its rail and ancilla assignments.

    Each ancilla pair must herald exactly (1, 0) photons for the gate to
    have acted.
    """

    matrix: np.ndarray
    control: DualRailQubit
    target: DualRailQubit
    ancillas: tuple[tuple[int, int], tuple[int, int]]

    @cached_property
    def herald_pattern(self) -> MeasurementPattern:
        (a_occ, a_vac), (b_occ, b_vac) = self.ancillas
        return MeasurementPattern(((a_occ, 1), (a_vac, 0), (b_occ, 1), (b_vac, 0)))

    @cached_property
    def _kept_block(self) -> np.ndarray:
        """Amplitudes of the herald-consistent four-photon outputs, one row
        per row of the herald table, one column per computational input in
        _COMPUTATIONAL order. Every check reads this one block."""
        inputs = [_computational_input(self, c, t) for c, t in _COMPUTATIONAL]
        kept = _evolve_kept(inputs, self.matrix, self.herald_pattern)
        return np.column_stack([k[_PHOTONS] for k in kept])

    def _heralded(self, amps: np.ndarray):
        """(probability, conditional) of kept amplitudes, as project gives it."""
        return _post_select(self.matrix.shape[0], self.herald_pattern, {_PHOTONS: amps})


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


def _compose_gate(label: str, gate: NetworkParams) -> np.ndarray:
    """One gate's scattering matrix; a loop pole is reported under its name."""
    try:
        return compose_scattering(gate)
    except PoleError as err:
        raise PoleError(f"gate {label}: {_LOOP_POLE}") from err


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

    Raises
    ------
    ConstraintError
        If either gate's success constraints fail at ``tol``, or its
        heralded amplitude beta0 is at most ``tol`` so it never heralds;
        gate A is checked first and the verdict rides along on the exception.
    PoleError
        If either gate's network sits on its loop pole; the message names
        the gate, and gate A's verdict comes before gate B's pole.
    """
    gates = (gate_a, gate_b)
    try:
        # One stacked call: composing each gate alone costs about 0.15 ms
        # more, nearly all of it fixed per-call work, or 9% of a cnot call.
        matrices = compose_scattering_stack(NetworkStack.of(gates))
    except PoleError:
        # Composed lazily, gate B is reached only after gate A's verdict.
        matrices = map(_compose_gate, "AB", gates)
    judged = []
    for label, s in zip("AB", matrices):
        v = verdict(s)
        if not v.residual < tol:
            raise ConstraintError(
                f"gate {label} violates the success constraints "
                f"(residual {v.residual:.3e} >= {tol:.1e})", verdict=v)
        if not abs(v.beta0) > tol:
            raise ConstraintError(
                f"gate {label} never heralds (|beta0| {abs(v.beta0):.3e} "
                f"<= {tol:.1e})", verdict=v)
        judged.append(s)

    n = 8
    target_mix = embed(_SPLITTER, (2, 3), n)
    inner = embed(_SPLITTER, (1, 2), n)
    gate_on_a = embed(judged[0], (1, 4, 5), n)
    gate_on_b = embed(judged[1], (2, 6, 7), n)
    control_flip = np.diag([1, -1, 1, 1, 1, 1, 1, 1]).astype(complex)
    probe = np.diag([1, np.exp(1j * probe_phase), 1, 1, 1, 1, 1, 1]).astype(complex)

    u = control_flip @ target_mix @ inner @ gate_on_b @ gate_on_a \
        @ probe @ inner @ target_mix
    u.flags.writeable = False  # the network caches what it computes from u
    return CnotNetwork(
        matrix=u,
        control=DualRailQubit(0, 1),
        target=DualRailQubit(2, 3),
        ancillas=((4, 5), (6, 7)),
    )


def _computational_input(net: CnotNetwork, control: int, target: int) -> SectoredState:
    occ = [0] * net.matrix.shape[0]
    occ[net.control.rail(control)] = 1
    occ[net.target.rail(target)] = 1
    for occupied, _ in net.ancillas:
        occ[occupied] = 1
    return SectoredState.from_occupations(len(occ), {tuple(occ): 1.0})


def _logical_occupations(net: CnotNetwork) -> dict[tuple[int, int], tuple[int, ...]]:
    """Dual-rail occupations of the post-selected 4-mode register,
    assuming rails come first and in order (they do by construction)."""
    out = {}
    for c in (0, 1):
        for t in (0, 1):
            occ = [0, 0, 0, 0]
            occ[net.control.rail(c)] = 1
            occ[net.target.rail(t)] = 1
            out[(c, t)] = tuple(occ)
    return out


def verify_truth_table(net: CnotNetwork) -> list[TruthTableRow]:
    """Evolve all four computational inputs and herald both ancilla pairs.

    Each row reports the herald probability, the dominant logical output,
    its fidelity within the post-selected state, and the leakage outside
    the dual-rail computational subspace.
    """
    logical = _logical_occupations(net)
    rows = []
    for (c_in, t_in), column in zip(_COMPUTATIONAL, net._kept_block.T):
        prob, cond = net._heralded(column)
        amps = {bits: cond.amplitude_of(occ) for bits, occ in logical.items()}
        dominant = max(amps, key=lambda b: abs(amps[b]))
        comp_weight = sum(abs(a) ** 2 for a in amps.values())
        rows.append(TruthTableRow(
            control_in=c_in,
            target_in=t_in,
            probability=prob,
            control_out=dominant[0],
            target_out=dominant[1],
            fidelity=abs(amps[dominant]) ** 2,
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
    prob, cond = net._heralded(net._kept_block[:, inputs] @ weights)
    if prob == 0.0:
        return CoherenceReport(overlap=0.0, probability=0.0)
    logical = _logical_occupations(net)
    bell = _INV_SQRT2 * (cond.amplitude_of(logical[(0, 0)])
                         + cond.amplitude_of(logical[(1, 1)]))
    return CoherenceReport(overlap=abs(bell), probability=prob)


def conditional_logical_matrix(net: CnotNetwork) -> np.ndarray:
    """Unnormalized post-selected map on the computational subspace.

    Entry [out, in] is the heralded amplitude from computational input to
    computational output, with basis order 00, 01, 10, 11.
    """
    _, targets, remaining = _herald_table(net.matrix.shape[0], _PHOTONS,
                                          net.herald_pattern)
    logical = _logical_occupations(net)
    lands = targets.tolist()
    return net._kept_block[[lands.index(remaining.index_of(logical[bits]))
                            for bits in _COMPUTATIONAL]]


def normalize_global_phase(m: np.ndarray) -> np.ndarray:
    """Divide by the largest-magnitude entry, removing scale and phase."""
    m = np.asarray(m, dtype=complex)
    pivot = m.flat[int(np.argmax(np.abs(m)))]
    if abs(pivot) == 0.0:
        raise DomainError("cannot phase-normalize a zero matrix")
    return m / pivot
