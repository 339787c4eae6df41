"""Multi-photon Fock-space evolution of a scattering matrix.

States are stored per total-photon-number sector; a unitary acts on each
sector through matrix permanents of its sub-matrices, which evolve lifts
only on the occupied input states and the CNOT on its fixed two-photon
interferometers. Includes projective post-selection and the heralded
gate's success amplitudes in closed form. Which rows survive a
measurement pattern, and where each lands among the remaining modes, is
one cached herald table per (modes, photons, pattern), which project
reads."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .network import _entry_residual, unitarity_residual
from .ring import _read_only

LIFT_UNITARITY_TOL = 1e-10


def _whole(x, what: str) -> int:
    """x as a Python int. Python and numpy integers pass; a float or any
    other type raises DomainError instead of being truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


class OccupationBasis:
    """Ordered occupation-number basis for fixed mode and photon counts.

    States are ordered descending lexicographically, so the first state
    piles every photon into the first mode. The ordering is deterministic
    across runs.

    Besides ``occupancy`` (one row of photon counts per state), each basis
    carries the index tables that the permanent lift reads: ``mode_indices``
    repeats each mode by its occupation, one sorted row of ``n_photons``
    modes per state, and ``norms`` is the product of the occupation
    factorials.
    """

    __slots__ = ("n_modes", "n_photons", "states", "_index", "occupancy",
                 "mode_indices", "norms")

    def __init__(self, n_modes: int, n_photons: int):
        n_modes = _whole(n_modes, "n_modes")
        n_photons = _whole(n_photons, "n_photons")
        if n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {n_modes}")
        if n_photons < 0:
            raise DomainError(f"n_photons must be >= 0, got {n_photons}")
        self.n_modes = n_modes
        self.n_photons = n_photons
        # The sorted mode tuples, in order, list the occupations in
        # descending lexicographic order.
        self.mode_indices = _read_only(np.array(
            list(combinations_with_replacement(range(n_modes), n_photons)), dtype=np.int64))
        self.occupancy = _read_only(
            (self.mode_indices[:, :, None] == np.arange(n_modes)).sum(axis=1))
        self.states = tuple(map(tuple, self.occupancy.tolist()))
        self._index = {occ: i for i, occ in enumerate(self.states)}
        factorials = np.array([factorial(k) for k in range(n_photons + 1)], dtype=float)
        self.norms = _read_only(np.prod(factorials[self.occupancy], axis=1))

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, occ) -> int:
        key = tuple(int(x) for x in occ)
        if key not in self._index:
            raise DomainError(f"occupation {key} not in basis "
                              f"({self.n_modes} modes, {self.n_photons} photons)")
        return self._index[key]


@lru_cache(maxsize=None)
def enumerate_basis(n_modes: int, n_photons: int) -> OccupationBasis:
    """Cached occupation basis; see OccupationBasis for the ordering."""
    return OccupationBasis(n_modes, n_photons)


def _permanent_batch(stack: np.ndarray) -> np.ndarray:
    """Ryser permanents of a (B, k, k) stack, one Gray-code sweep for all.
    Step i flips column j, the lowest set bit of i, into the subset when
    bit j + 1 of i is clear and out of it when set; every step flips the
    subset size's parity, and so the sign."""
    b, k, _ = stack.shape
    if k == 0:
        return np.ones(b, dtype=complex)
    row = np.zeros((b, k), dtype=complex)
    total = np.zeros(b, dtype=complex)
    sign = 1.0
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        if i >> (j + 1) & 1:
            row -= stack[:, :, j]
        else:
            row += stack[:, :, j]
        sign = -sign
        total += sign * row.prod(axis=1)
    return total if k % 2 == 0 else -total


def _lift_block(s: np.ndarray, basis: OccupationBasis,
                cols: np.ndarray | None = None) -> np.ndarray:
    """Sector matrix of the unitary mode map s over ``basis``, restricted to
    the given input-state columns (all of them where None).

    Entry [out, in] is the permanent of the sub-matrix of s built by
    repeating each output row and input column by its occupation, divided
    by sqrt of the occupation factorials."""
    n = basis.n_photons
    idx, norms = basis.mode_indices, basis.norms
    cols_idx, col_norms = (idx, norms) if cols is None else (idx[cols], norms[cols])
    subs = s[idx[:, None, :, None], cols_idx[None, :, None, :]]
    lead = subs.shape[:-2]
    perms = _permanent_batch(subs.reshape(prod(lead), n, n)).reshape(lead)
    return perms / np.sqrt(np.outer(norms, col_norms))


def _require_unitary(residual) -> None:
    """Raise DomainError unless a unitarity residual, or every one of an
    array of them, is within LIFT_UNITARITY_TOL. A NaN residual fails."""
    if not np.all(residual <= LIFT_UNITARITY_TOL):
        raise DomainError("scattering matrix is not unitary within 1e-10")


class SectoredState:
    """Pure multi-mode state keyed by total photon number.

    ``sectors`` maps a photon count to its amplitude vector over
    ``enumerate_basis(n_modes, count)``.
    """

    __slots__ = ("n_modes", "sectors")

    def __init__(self, n_modes: int, sectors):
        self.n_modes = _whole(n_modes, "n_modes")
        clean = {}
        for n, vec in sectors.items():
            n = _whole(n, "photon count")
            v = np.asarray(vec, dtype=complex)
            expected = enumerate_basis(self.n_modes, n).size
            if v.shape != (expected,):
                raise DomainError(
                    f"sector {n} needs {expected} amplitudes, got shape {v.shape}")
            clean[n] = v
        self.sectors = clean

    @classmethod
    def from_occupations(cls, n_modes: int, amplitudes) -> "SectoredState":
        """Build from a mapping of occupation tuples to amplitudes."""
        sectors: dict[int, np.ndarray] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(_whole(x, "occupation") for x in occ)
            if len(occ) != n_modes:
                raise DomainError(f"occupation {occ} does not have {n_modes} modes")
            basis = enumerate_basis(n_modes, sum(occ))
            vec = sectors.setdefault(sum(occ), np.zeros(basis.size, dtype=complex))
            vec[basis.index_of(occ)] += amp
        return cls(n_modes, sectors)

    def amplitude_of(self, occ) -> complex:
        occ = tuple(_whole(x, "occupation") for x in occ)
        n = sum(occ)
        if n not in self.sectors:
            return 0.0 + 0.0j
        return complex(self.sectors[n][enumerate_basis(self.n_modes, n).index_of(occ)])


@dataclass(frozen=True)
class MeasurementPattern:
    """Exact photon counts demanded on a subset of modes.

    Unconstrained modes keep their (renormalized) state after projection.
    """

    constraints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "constraints",
            tuple((_whole(m, "mode index"), _whole(c, "photon count"))
                  for m, c in self.constraints))
        modes = [m for m, _ in self.constraints]
        if len(set(modes)) != len(modes):
            raise DomainError("constrained modes must be distinct")
        for m, c in self.constraints:
            if m < 0:
                raise DomainError(f"mode index {m} is negative")
            if c < 0:
                raise DomainError(f"photon count {c} is negative")


def evolve(state: SectoredState, s: np.ndarray) -> SectoredState:
    """Apply a unitary mode map to every photon-number sector.

    Each sector's output is the lift restricted to the input states the
    sector occupies, applied to their amplitudes. That is never more
    permanents than the full lift, exactly the full lift when every state
    is occupied, and zeros when none is.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (state.n_modes, state.n_modes):
        raise DomainError(
            f"matrix shape {s.shape} does not match {state.n_modes} modes")
    _require_unitary(unitarity_residual(s))
    out = {}
    for n, vec in state.sectors.items():
        nz = np.flatnonzero(np.abs(vec) > 0.0)
        out[n] = _lift_block(s, enumerate_basis(state.n_modes, n), cols=nz) @ vec[nz]
    return SectoredState(state.n_modes, out)


def _pattern_arrays(pattern: MeasurementPattern, n_modes: int):
    """The pattern's constrained modes and their counts, checked against
    the number of modes."""
    modes = [m for m, _ in pattern.constraints]
    for m in modes:
        if m >= n_modes:
            raise DomainError(f"constrained mode {m} outside 0..{n_modes - 1}")
    return modes, np.array([c for _, c in pattern.constraints], dtype=np.int64)


class _HeraldTable(NamedTuple):
    """The rows of one sector that a pattern keeps, ascending, and the index
    of each in ``remaining``, the basis of the unconstrained modes (None
    where the pattern asks for more photons than the sector holds)."""

    rows: np.ndarray
    targets: np.ndarray
    remaining: OccupationBasis | None


@lru_cache(maxsize=None)
def _herald_table(n_modes: int, n_photons: int,
                  pattern: MeasurementPattern) -> _HeraldTable:
    """Cached herald table of one sector. With every mode constrained, the
    remaining basis is the one-mode vacuum (0,)."""
    modes, counts = _pattern_arrays(pattern, n_modes)
    occ = enumerate_basis(n_modes, n_photons).occupancy
    rows = _read_only(np.flatnonzero(np.all(occ[:, modes] == counts, axis=1)))
    rest = n_photons - int(counts.sum())
    if rest < 0:  # then no row is kept
        return _HeraldTable(rows, rows, None)
    keep = [m for m in range(n_modes) if m not in modes]
    remaining = enumerate_basis(max(len(keep), 1), rest)
    targets = np.array([remaining.index_of(occ[i, keep].tolist() or [0]) for i in rows],
                       dtype=np.int64)
    return _HeraldTable(rows, _read_only(targets), remaining)


def project(state: SectoredState, pattern: MeasurementPattern):
    """Post-select on exact photon counts.

    The probability sums |amplitude|^2 over each sector's nonzero kept
    amplitudes, in row order and in the state's sector order.

    Returns
    -------
    (probability, conditional) : (float, SectoredState)
        Probability of observing the pattern and the renormalized state of
        the unconstrained modes. Zero probability yields an explicitly
        empty conditional state rather than an error.
    """
    modes, _ = _pattern_arrays(pattern, state.n_modes)
    prob = 0.0
    cond: dict[int, np.ndarray] = {}
    for n, vec in state.sectors.items():
        rows, targets, remaining = _herald_table(state.n_modes, n, pattern)
        amps = vec[rows]
        nz = np.flatnonzero(np.abs(amps) > 0.0)
        if nz.size == 0:
            continue
        prob += float(np.sum(np.abs(amps[nz]) ** 2))
        target = cond.setdefault(remaining.n_photons,
                                 np.zeros(remaining.size, dtype=complex))
        target[targets[nz]] += amps[nz]

    n_keep = max(state.n_modes - len(modes), 1)
    if prob <= 0.0:
        return 0.0, SectoredState(n_keep, {})
    scale = 1.0 / np.sqrt(prob)
    return prob, SectoredState(n_keep, {n: v * scale for n, v in cond.items()})


@dataclass(frozen=True)
class NlpsgInput:
    """Signal-mode superposition amplitudes over zero, one and two photons."""

    alpha0: complex
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        norm = abs(self.alpha0) ** 2 + abs(self.alpha1) ** 2 + abs(self.alpha2) ** 2
        if not abs(norm - 1.0) <= 1e-9:
            raise DomainError(f"amplitudes must be normalized, |alpha|^2 = {norm}")

    def state(self) -> SectoredState:
        """Three-mode input: the signal superposition in mode 1, one herald
        photon in mode 2, vacuum in mode 3."""
        return SectoredState.from_occupations(3, {
            (0, 1, 0): self.alpha0,
            (1, 1, 0): self.alpha1,
            (2, 1, 0): self.alpha2,
        })


# Success pattern of the heralded gate: one photon on mode 2, none on mode 3.
SUCCESS_PATTERN = MeasurementPattern(((1, 1), (2, 0)))


def _corners(s) -> tuple:
    """S00, S01, S10 and S11 of a matrix or of each matrix of a stack: all
    of S that the heralded amplitudes read."""
    return s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]


def _betas(s00, s01, s10, s11) -> tuple:
    """The heralded amplitudes beta0, beta1, beta2 from S00, S01, S10 and
    S11 (arrays or scalars): what the herald leaves of the signal's zero-,
    one- and two-photon components, the last with the sign the gate flips.
    The one place the success-branch algebra is written; the verdict reads
    it too."""
    cross = s10 * s01
    pair = s00 * s11 + cross
    return s11, pair, -s00 * (pair + cross)


def _success_amplitudes(s00, s01, s10, s11, inp: NlpsgInput) -> tuple:
    """The success-branch amplitudes alpha_n beta_n, with the gate's sign
    on the two-photon one, from S00, S01, S10 and S11."""
    beta0, beta1, beta2 = _betas(s00, s01, s10, s11)
    return inp.alpha0 * beta0, inp.alpha1 * beta1, -inp.alpha2 * beta2


def _probability(amplitudes) -> np.ndarray:
    """|c0|^2 + |c1|^2 + |c2|^2 of the success amplitudes (c0, c1, c2),
    added left to right."""
    c0, c1, c2 = amplitudes
    return np.abs(c0) ** 2 + np.abs(c1) ** 2 + np.abs(c2) ** 2


def _heralded_success(entries, inp: NlpsgInput) -> np.ndarray:
    """Heralded-gate success probability of N 3x3 matrices given as their
    nine row-major entries S_ij, each an (N,) array: the one unitarity
    guard and sum of the success probability, which the manifold sweeps
    hand the composition's entries. Per matrix, the squared norm of
    nlpsg_closed_form's amplitudes, bit for bit; the reference is
    project(evolve(inp.state(), s), SUCCESS_PATTERN)[0].

    Raises
    ------
    DomainError
        If any matrix is not unitary within LIFT_UNITARITY_TOL.
    """
    _require_unitary(_entry_residual(entries))
    s00, s01, _, s10, s11 = entries[:5]
    return _probability(_success_amplitudes(s00, s01, s10, s11, inp))


def nlpsg_closed_form(s: np.ndarray, inp: NlpsgInput):
    """Success-branch amplitudes of the heralded gate, in closed form.

    Returns the three amplitudes of the signal mode's zero-, one- and
    two-photon components after a successful herald, plus the total norm
    of the failure branch. The one-matrix case of _heralded_success's
    closed form; evolve + project is its independent check.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {s.shape}")
    amplitudes = _success_amplitudes(*_corners(s[np.newaxis]), inp)
    return np.concatenate(amplitudes), 1.0 - float(_probability(amplitudes)[0])
