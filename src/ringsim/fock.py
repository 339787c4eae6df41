"""Multi-photon Fock-space evolution of a scattering matrix.

States are stored per total-photon-number sector; a unitary acts on each
sector through matrix permanents of its sub-matrices. Includes projective
post-selection and the closed-form heralded-gate output used as an
independent oracle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .errors import DomainError
from .network import unitarity_residual

LIFT_UNITARITY_TOL = 1e-10


class OccupationBasis:
    """Ordered occupation-number basis for fixed mode and photon counts.

    States are ordered descending lexicographically, so the first state
    piles every photon into the first mode. The ordering is deterministic
    across runs.
    """

    __slots__ = ("n_modes", "n_photons", "states", "_index", "occupancy")

    def __init__(self, n_modes: int, n_photons: int):
        if n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {n_modes}")
        if n_photons < 0:
            raise DomainError(f"n_photons must be >= 0, got {n_photons}")
        self.n_modes = n_modes
        self.n_photons = n_photons
        states: list[tuple[int, ...]] = []

        def fill(prefix: tuple[int, ...], left: int, slots: int):
            if slots == 1:
                states.append(prefix + (left,))
                return
            for k in range(left, -1, -1):
                fill(prefix + (k,), left - k, slots - 1)

        fill((), n_photons, n_modes)
        self.states = tuple(states)
        self._index = {occ: i for i, occ in enumerate(self.states)}
        self.occupancy = np.array(self.states, dtype=np.int64)

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


def permanent(m: np.ndarray, method: str = "ryser") -> complex:
    """Permanent of a square complex matrix.

    ``ryser`` uses Gray-code inclusion-exclusion (O(2^k k)); ``naive`` sums
    over permutations and is kept as an independent cross-check.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"permanent needs a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    if method == "naive":
        return complex(sum(np.prod([a[i, p[i]] for i in range(k)])
                           for p in permutations(range(k))))
    if method != "ryser":
        raise DomainError(f"unknown permanent method {method!r}")
    return complex(_permanent_batch(a[np.newaxis])[0])


def _permanent_batch(stack: np.ndarray) -> np.ndarray:
    """Ryser permanents of a (B, k, k) stack, one Gray-code sweep for all."""
    b, k, _ = stack.shape
    if k == 0:
        return np.ones(b, dtype=complex)
    row = np.zeros((b, k), dtype=complex)
    total = np.zeros(b, dtype=complex)
    gray = 0
    for idx in range(1, 1 << k):
        g = idx ^ (idx >> 1)
        bit = (g ^ gray).bit_length() - 1
        if g & (g ^ gray):
            row += stack[:, :, bit]
        else:
            row -= stack[:, :, bit]
        gray = g
        sign = -1.0 if bin(g).count("1") % 2 else 1.0
        total += sign * row.prod(axis=1)
    return total if k % 2 == 0 else -total


def _mode_indices(basis: OccupationBasis) -> np.ndarray:
    """(size, n_photons) array of repeated mode indices per basis state."""
    out = np.empty((basis.size, basis.n_photons), dtype=np.int64)
    for i, occ in enumerate(basis.states):
        pos = 0
        for mode, count in enumerate(occ):
            out[i, pos:pos + count] = mode
            pos += count
    return out


def _factorial_norms(basis: OccupationBasis) -> np.ndarray:
    return np.array([np.prod([factorial(c) for c in occ]) for occ in basis.states],
                    dtype=float)


def _lift_block(s: np.ndarray, basis: OccupationBasis,
                cols: np.ndarray | None = None) -> np.ndarray:
    """Sector matrix restricted to the given input-state columns."""
    n = basis.n_photons
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    rows_idx = _mode_indices(basis)
    cols_idx = rows_idx if cols is None else rows_idx[cols]
    subs = s[rows_idx[:, None, :, None], cols_idx[None, :, None, :]]
    m_out, m_in = subs.shape[:2]
    perms = _permanent_batch(subs.reshape(-1, n, n)).reshape(m_out, m_in)
    norms = _factorial_norms(basis)
    col_norms = norms if cols is None else norms[cols]
    return perms / np.sqrt(np.outer(norms, col_norms))


def lift_unitary(s: np.ndarray, n_photons: int) -> np.ndarray:
    """Lift a unitary mode map to the n-photon sector.

    Entry [out, in] is the permanent of the sub-matrix of S built by
    repeating each output row and input column by its occupation, divided
    by sqrt of the occupation factorials. The one-photon sector returns S
    itself.

    Raises
    ------
    DomainError
        If S is not unitary within 1e-10.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {s.shape}")
    _require_unitary(s)
    return _lift_block(s, enumerate_basis(s.shape[0], n_photons))


def _require_unitary(s: np.ndarray) -> None:
    """Raise DomainError unless s, or every matrix of an (N, n, n) stack,
    is unitary within LIFT_UNITARITY_TOL. A NaN residual fails."""
    if not np.all(unitarity_residual(s) <= LIFT_UNITARITY_TOL):
        raise DomainError("scattering matrix is not unitary within 1e-10")


class SectoredState:
    """Pure multi-mode state keyed by total photon number.

    ``sectors`` maps a photon count to its amplitude vector over
    ``enumerate_basis(n_modes, count)``.
    """

    __slots__ = ("n_modes", "sectors")

    def __init__(self, n_modes: int, sectors):
        self.n_modes = int(n_modes)
        clean = {}
        for n, vec in sectors.items():
            v = np.asarray(vec, dtype=complex)
            expected = enumerate_basis(self.n_modes, int(n)).size
            if v.shape != (expected,):
                raise DomainError(
                    f"sector {n} needs {expected} amplitudes, got shape {v.shape}")
            clean[int(n)] = v
        self.sectors = clean

    @classmethod
    def from_occupations(cls, n_modes: int, amplitudes) -> "SectoredState":
        """Build from a mapping of occupation tuples to amplitudes."""
        sectors: dict[int, np.ndarray] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(x) for x in occ)
            if len(occ) != n_modes:
                raise DomainError(f"occupation {occ} does not have {n_modes} modes")
            basis = enumerate_basis(n_modes, sum(occ))
            vec = sectors.setdefault(sum(occ), np.zeros(basis.size, dtype=complex))
            vec[basis.index_of(occ)] += amp
        return cls(n_modes, sectors)

    def amplitude_of(self, occ) -> complex:
        occ = tuple(int(x) for x in occ)
        n = sum(occ)
        if n not in self.sectors:
            return 0.0 + 0.0j
        return complex(self.sectors[n][enumerate_basis(self.n_modes, n).index_of(occ)])

    def norm_sq(self) -> float:
        return float(sum(np.sum(np.abs(v) ** 2) for v in self.sectors.values()))

    def normalized(self) -> "SectoredState":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise DomainError("cannot normalize a zero state")
        scale = 1.0 / np.sqrt(n2)
        return SectoredState(self.n_modes,
                             {n: v * scale for n, v in self.sectors.items()})

    @property
    def is_empty(self) -> bool:
        return self.norm_sq() == 0.0


@dataclass(frozen=True)
class MeasurementPattern:
    """Exact photon counts demanded on a subset of modes.

    Unconstrained modes keep their (renormalized) state after projection.
    """

    constraints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "constraints",
            tuple((int(m), int(c)) for m, c in self.constraints))
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

    Sparse sectors are evolved column by column so that only the needed
    permanents are computed.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (state.n_modes, state.n_modes):
        raise DomainError(
            f"matrix shape {s.shape} does not match {state.n_modes} modes")
    _require_unitary(s)
    out = {}
    for n, vec in state.sectors.items():
        basis = enumerate_basis(state.n_modes, n)
        nz = np.flatnonzero(np.abs(vec) > 0.0)
        if nz.size == 0:
            out[n] = np.zeros_like(vec)
        elif nz.size <= basis.size // 4:
            out[n] = _lift_block(s, basis, cols=nz) @ vec[nz]
        else:
            out[n] = _lift_block(s, basis) @ vec
    return SectoredState(state.n_modes, out)


def project(state: SectoredState, pattern: MeasurementPattern):
    """Post-select on exact photon counts.

    Returns
    -------
    (probability, conditional) : (float, SectoredState)
        Probability of observing the pattern and the renormalized state of
        the unconstrained modes. Zero probability yields an explicitly
        empty conditional state rather than an error.
    """
    modes = [m for m, _ in pattern.constraints]
    for m in modes:
        if m >= state.n_modes:
            raise DomainError(f"constrained mode {m} outside 0..{state.n_modes - 1}")
    counts = np.array([c for _, c in pattern.constraints], dtype=np.int64)
    keep = [m for m in range(state.n_modes) if m not in set(modes)]
    removed = int(counts.sum())

    prob = 0.0
    cond: dict[int, np.ndarray] = {}
    for n, vec in state.sectors.items():
        if n < removed:
            continue
        basis = enumerate_basis(state.n_modes, n)
        occ = basis.occupancy
        mask = np.ones(basis.size, dtype=bool) if not modes else \
            np.all(occ[:, modes] == counts, axis=1)
        idx = np.flatnonzero(mask & (np.abs(vec) > 0.0))
        if idx.size == 0:
            continue
        prob += float(np.sum(np.abs(vec[idx]) ** 2))
        rem_basis = enumerate_basis(max(len(keep), 1), n - removed)
        target = cond.setdefault(n - removed,
                                 np.zeros(rem_basis.size, dtype=complex))
        for i in idx:
            rem_occ = tuple(int(occ[i, k]) for k in keep) if keep else (0,)
            target[rem_basis.index_of(rem_occ)] += vec[i]

    n_keep = max(len(keep), 1)
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

# The herald-consistent output rows (k, 1, 0) of the 1-, 2- and 3-photon
# sectors as repeated mode indices. They are also the input states that
# carry alpha_k, so each sector contributes one permanent.
_HERALD_MODES = ((1,), (0, 1), (0, 0, 1))


def heralded_success_stack(s: np.ndarray, inp: NlpsgInput) -> np.ndarray:
    """Heralded-gate success probability of each matrix in an (N, 3, 3) stack.

    Per matrix this is project(evolve(inp.state(), s), SUCCESS_PATTERN)[0],
    summed over the sectors in the same order, but only the permanents of
    the herald-consistent rows are evaluated.

    Raises
    ------
    DomainError
        If the stack has the wrong shape or any matrix is not unitary
        within LIFT_UNITARITY_TOL.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1:] != (3, 3):
        raise DomainError(f"expected an (N, 3, 3) stack, got shape {s.shape}")
    _require_unitary(s)
    prob = np.zeros(len(s))
    for k, (alpha, modes) in enumerate(zip((inp.alpha0, inp.alpha1, inp.alpha2),
                                           _HERALD_MODES)):
        sub = s[:, modes][:, :, modes]
        # The row and column state (k, 1, 0) both carry the norm sqrt(k!).
        amp = _permanent_batch(sub) / factorial(k) * alpha
        prob += np.abs(amp) ** 2
    return prob


def nlpsg_closed_form(s: np.ndarray, inp: NlpsgInput):
    """Success-branch amplitudes of the heralded gate, in closed form.

    Returns the three amplitudes of the signal mode's zero-, one- and
    two-photon components after a successful herald, plus the total norm
    of the failure branch. Serves as the independent oracle for
    evolve + project.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {s.shape}")
    pair = s[0, 0] * s[1, 1] + s[1, 0] * s[0, 1]
    coeffs = np.array([
        inp.alpha0 * s[1, 1],
        inp.alpha1 * pair,
        inp.alpha2 * s[0, 0] * (pair + s[1, 0] * s[0, 1]),
    ], dtype=complex)
    failure_norm = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    return coeffs, failure_norm
