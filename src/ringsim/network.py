"""Compose three rings into the global 3x3 scattering matrix.

The rings enclose one feedback loop, so the composition is a closed form
over that loop. The paper's mode-swap algebra, which exchanges dependent
and independent variables of each block, gives the same matrix; the tests
keep it as an oracle (tests/oracles.py).

Composition acts on stacks of N networks; the single-network function is
the N = 1 case."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PoleError
from .ring import (_COUPLER_DTYPES, _FLIPPED, CouplerStack, RingCoupler, _read_only,
                   transfer_matrix_stack)

_LOOP_POLE = "loop gain b3 c1 d2 e^(-i delta2) = 1"

# Largest unitarity residual of a matrix that the Fock layer lifts, and of a
# composed network that a command goes on with.
UNITARITY_TOL = 1e-10

# Ring field -> mounted field per slot: the middle ring is flipped, a self-inverse swap.
_SAME = {name: name for name in _COUPLER_DTYPES}
_MOUNTED = (_SAME, _FLIPPED, _SAME)


def _finite_line_phases(bad) -> None:
    """Raise DomainError naming the first of the non-finite line phases ``bad``, if any."""
    if len(bad):
        raise DomainError(f"line phases must be finite, got {bad[0]}")


@dataclass(frozen=True)
class NetworkParams:
    """Three rings (slots 1..3) plus the in-line waveguide phases."""

    rings: tuple[RingCoupler, RingCoupler, RingCoupler]
    deltas: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "rings", tuple(self.rings))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if len(self.rings) != 3:
            raise DomainError(f"exactly 3 rings required, got {len(self.rings)}")
        if len(self.deltas) != 3:
            raise DomainError(f"exactly 3 line phases required, got {len(self.deltas)}")
        _finite_line_phases([d for d in self.deltas if not math.isfinite(d)])
        for r in self.rings:
            if not isinstance(r, RingCoupler):
                raise DomainError("rings must be RingCoupler instances")


@dataclass(frozen=True, eq=False)
class NetworkStack:
    """N three-ring networks: the stacked form of NetworkParams.

    ``rings`` holds one CouplerStack per slot and ``deltas`` the (N, 3) line
    phases. A ring stack of length 1 stands for the same ring in all N
    networks. The constructor, which the sweeps call, keeps the caller's
    slots with no copy. ``of`` lays the configured networks' slots end to
    end in one ``mounted`` stack, the middle ring flipped, for one transfer
    evaluation, and gives each slot as a view into it.
    """

    rings: tuple[CouplerStack, CouplerStack, CouplerStack]
    deltas: np.ndarray

    def __post_init__(self):
        rings = tuple(self.rings)
        deltas = np.asarray(self.deltas, dtype=float)
        if len(rings) != 3:
            raise DomainError(f"exactly 3 ring stacks required, got {len(rings)}")
        if deltas.ndim != 2 or deltas.shape[1] != 3:
            raise DomainError(f"line phases must have shape (N, 3), got {deltas.shape}")
        _finite_line_phases(deltas[~np.isfinite(deltas)])
        for r in rings:
            if not isinstance(r, CouplerStack):
                raise DomainError("rings must be CouplerStack instances")
            if len(r) not in (1, len(deltas)):
                raise DomainError(f"ring stack of length {len(r)} does not match "
                                  f"{len(deltas)} networks")
        object.__setattr__(self, "rings", rings)
        object.__setattr__(self, "deltas", deltas)

    @classmethod
    def of(cls, networks) -> "NetworkStack":
        """Stack NetworkParams, whose rings passed their checks on construction."""
        networks = list(networks)
        mounted = CouplerStack._checked_already(**{
            name: np.array([getattr(net.rings[s], _MOUNTED[s][name])
                            for s in range(3) for net in networks], dtype=dtype)
            for name, dtype in _COUPLER_DTYPES.items()})
        stack = object.__new__(cls)
        stack.__dict__.update(mounted=mounted, rings=tuple(CouplerStack._checked_already(**{
            name: getattr(mounted, _MOUNTED[s][name]).reshape(3, -1)[s]
            for name in _COUPLER_DTYPES}) for s in range(3)),
            deltas=np.array([net.deltas for net in networks], dtype=float).reshape(-1, 3))
        return stack

    @cached_property
    def transfers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each slot's (n_k, 2, 2) transfers, the middle ring's flipped, read-only:
        views of one ``transfer_matrix_stack`` call on ``mounted`` for a stack
        from ``of``, else one call per slot on its own fields."""
        mounted = getattr(self, "mounted", None)
        if mounted is None:
            a, b, c = self.rings
            flipped = CouplerStack._checked_already(
                **{name: getattr(b, _FLIPPED[name]) for name in _COUPLER_DTYPES})
            return tuple(_read_only(transfer_matrix_stack(r)) for r in (a, flipped, c))
        m = _read_only(transfer_matrix_stack(mounted))
        n1, n2 = len(self.rings[0]), len(self.rings[1])
        return m[:n1], m[n1:n1 + n2], m[n1 + n2:]

    def legs(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Each ring's through amplitude, its own [0, 0] (the flipped middle's [1, 1]),
        and its leg of the loop, c1, d2 and b3 of ``_entries``: views of ``transfers``."""
        a, b, c = self.transfers
        return (a[:, 0, 0], b[:, 1, 1], c[:, 0, 0]), (a[:, 1, 0], b[:, 1, 1], c[:, 0, 1])


def compose_scattering(params: NetworkParams) -> np.ndarray:
    """Global 3x3 scattering matrix of the three-ring network: the N = 1
    case of ``compose_scattering_stack``, which documents the errors."""
    return compose_scattering_stack(NetworkStack.of([params]))[0]


def compose_scattering_stack(networks: NetworkStack) -> np.ndarray:
    """Global scattering matrices of N three-ring networks, shape (N, 3, 3).

    With ring transfers [[a_k, b_k], [c_k, d_k]] and line phasors
    p_k = e^{-i delta_k}, the one internal loop runs through the legs c1, d2
    and b3: every entry that crosses it carries g = 1 / (1 - L), with loop
    gain L = b3 c1 d2 p2. The paper's mode-swap elimination of the internal
    lines gives the same functions.

    Raises
    ------
    PoleError
        If |1 - L| < 1e-15, or is NaN, for any network; the message names
        the first such network.
    """
    return np.stack(_entries(networks), axis=-1).reshape(-1, 3, 3)


def _entries(networks: NetworkStack) -> list[np.ndarray]:
    """The nine entries S_ij of the networks' global matrices, in row-major
    order, each an (N,) array: the one place the closed form over the loop
    is written. A line-phase column whose phases all have the same bits
    gives one phasor, which broadcasts; every entry carries g, which has
    the networks' length. Raises the PoleError of
    ``compose_scattering_stack``."""
    (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = (
        m.reshape(-1, 4).T for m in networks.transfers)
    deltas = networks.deltas
    bits = deltas.view(np.int64).T
    # Laid out column by column, so that each column's test reads one
    # contiguous row: across the (N, 3) layout the test is ten times slower.
    shared = np.equal(bits, bits[:, :1], order="C").all(axis=1).tolist()
    first = np.exp(-1j * deltas[:1])
    # A shared column's phasor is the first network's, as a 0-d array: on a
    # small stack it broadcasts as fast as a column, and twice as fast as an
    # array of length 1.
    p1, p2, p3 = (first[0, k, ...] if same and len(deltas) else np.exp(-1j * deltas[:, k])
                  for k, same in enumerate(shared))
    den = 1.0 - b3 * c1 * d2 * p2
    if len(den) < len(deltas):
        # Every slot and the middle line phase are shared.
        den = np.broadcast_to(den, len(deltas))
    bad = np.flatnonzero(~(np.abs(den) >= 1e-15))
    if bad.size:
        raise PoleError(f"network {bad[0]}: {_LOOP_POLE}")
    g = 1.0 / den
    return [
        a2 * p1 * p3 + b2 * c2 * b3 * c1 * p1 * p2 * p3 * g,
        a3 * b2 * p3 * g, b2 * b3 * d1 * p2 * p3 * g,
        a1 * c2 * p1 * g, a1 * a3 * d2 * g, b1 + a1 * b3 * d1 * d2 * p2 * g,
        c1 * c2 * d3 * p1 * p2 * g, c3 + a3 * c1 * d2 * d3 * p2 * g, d1 * d3 * p2 * g,
    ]


def closed_form_resonant(t1: float, t2: float, t3: float) -> np.ndarray:
    """Scattering matrix of the fully resonant network in closed form.

    Valid when every ring sits on resonance with zero line phases; the
    matrix depends only on the effective transmissions. det = -1.

    Raises
    ------
    DomainError
        If any |t_i| > 1.
    PoleError
        If t2 * sqrt(1 - t1^2) * sqrt(1 - t3^2) = 1.
    """
    for name, t in (("t1", t1), ("t2", t2), ("t3", t3)):
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"{name} must lie in [-1, 1], got {t}")
    c1 = math.sqrt(1.0 - t1 * t1)
    c2 = math.sqrt(1.0 - t2 * t2)
    c3 = math.sqrt(1.0 - t3 * t3)
    den = t2 * c1 * c3 - 1.0
    if abs(den) < 1e-15:
        raise PoleError("t2 * sqrt(1-t1^2) * sqrt(1-t3^2) = 1: network is singular")
    s = np.array([
        [t2 - c1 * c3, -t3 * c2, t1 * c2 * c3],
        [-t1 * c2, -t1 * t2 * t3, t2 * c3 - c1],
        [t3 * c1 * c2, t2 * c1 - c3, -t1 * t3],
    ], dtype=complex)
    s /= den
    # den < 0 turns +0.0 parts into -0.0; adding 0.0 makes them +0.0.
    s += 0.0
    return s


def unitarity_residual(s: np.ndarray):
    """Max-norm deviation of S†S from the identity: a float for one matrix,
    an (N,) array for an (N, n, n) stack.

    One matrix takes the matrix product ``s.conj().T @ s``; its value is the
    one ``smatrix`` prints. A stack goes through ``_gram_residual``, because
    numpy's stacked matrix product makes one BLAS call per small matrix. The
    two forms sum in different orders, so they agree to rounding, not bit
    for bit. A NaN or infinite entry gives its matrix a non-finite residual.

    Raises
    ------
    DomainError
        If the input is neither a square matrix nor an (N, n, n) stack.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim not in (2, 3) or s.shape[-1] != s.shape[-2]:
        raise DomainError(f"expected a square matrix or an (N, n, n) stack, "
                          f"got shape {s.shape}")
    if s.ndim == 2:
        return float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[-1])), initial=0.0))
    # columns[j, k] = s[:, k, j]
    return _gram_residual(np.ascontiguousarray(s.transpose(2, 1, 0)), len(s))


def _require_unitary(networks: NetworkStack, residual, names=None) -> None:
    """Raise PoleError unless each of the composed ``networks`` has its
    unitarity ``residual`` within UNITARITY_TOL; a NaN residual fails.

    A network of valid rings loses unitarity only near its loop pole, where
    g = 1 / (1 - L) magnifies the entries' rounding. The message names the
    first failing network (``names[i]``, else "network i") and gives its
    residual and |1 - L|, which is computed only here."""
    bad = np.flatnonzero(~(np.asarray(residual) <= UNITARITY_TOL))
    if bad.size:
        i = bad[0]
        # A slot's stack of one ring stands for the same ring in every network.
        c1, d2, b3 = (leg[min(i, len(leg) - 1)] for leg in networks.legs()[1])
        gap = abs(1.0 - b3 * c1 * d2 * np.exp(-1j * networks.deltas[i, 1]))
        raise PoleError(f"{f'network {i}' if names is None else names[i]}: scattering "
                        f"matrix is not unitary within 1e-10 (residual {residual[i]:.3e}) "
                        f"near the loop pole, |1 - L| = {gap:.3e}")


def _entry_residual(entries) -> np.ndarray:
    """``unitarity_residual`` of the (N, 3, 3) stack whose nine row-major
    entries are ``entries``, as ``_entries`` gives them, bit for bit, with
    no stack built."""
    return _gram_residual((entries[0::3], entries[1::3], entries[2::3]), len(entries[0]))


def _gram_residual(columns, count: int) -> np.ndarray:
    """Max-norm deviation of S†S from the identity for each of ``count``
    n x n matrices, given their columns: ``columns[j][k]`` is the (N,) array
    of entries S_kj. Each entry of the Hermitian upper triangle of S†S is
    formed elementwise, G_ij = conj(S_0i) S_0j + conj(S_1i) S_1j + ...,
    added left to right. A non-finite member keeps a non-finite residual."""
    worst = np.zeros(count)
    n = len(columns)
    # A non-finite member shows in its residual; it needs no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n):
            conj = [np.conj(entry) for entry in columns[i]]
            for j in range(i, n):
                g = conj[0] * columns[j][0]
                for k in range(1, n):
                    g += conj[k] * columns[j][k]
                if i == j:
                    g -= 1.0
                # np.maximum, not fmax: a NaN member keeps a NaN residual.
                np.maximum(worst, np.abs(g), out=worst)
    return worst
