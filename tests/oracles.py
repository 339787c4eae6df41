"""Independent oracles the tests check the package against.

Nothing here imports ``ringsim``: each oracle computes its quantity by a
route the package does not take, so a fault in the package cannot hide in
a shared helper.

- ``block_transfer`` and ``mode_swap3``: the paper's mode-swap algebra,
  which composes the three-ring network by exchanging the dependent and
  independent variables of each 3x3 block. The package composes in closed
  form over the network's one feedback loop instead.
- ``naive_permanent``: the permanent as a sum over permutations, against
  the package's Gray-code Ryser formula.
- ``fock_lift`` and ``cnot_kept_block``: photon-number amplitudes of a
  mode map as permanents of its repeated rows and columns, and the CNOT's
  heralded block as the full 8-mode, four-photon lift. The package reads
  that block from the two gates' heralded amplitudes between two
  two-photon interferometers instead.
- ``embed``: a small unitary placed on listed modes of a larger network,
  from which the tests assemble the CNOT's 8-mode matrix part by part.
- ``t3_of_t1``: the companion outer transmission of the paper's optimal
  curve, which the package does not compute.
- ``reversed_network``: the network run backwards, which by reciprocity
  composes to the transpose of the original's scattering matrix.

Bad input raises ``ValueError``; a vanishing swap pivot raises the local
``SingularPivotError``, also a ``ValueError``.
"""

import math
from itertools import permutations, product

import numpy as np

SWAP_PIVOT_TOL = 1e-12


class SingularPivotError(ValueError):
    """A mode-swap pivot is too small for the algebra to be meaningful.

    Attributes
    ----------
    mode : int
        1-based index of the mode whose pivot vanished.
    pivot : complex
        The offending pivot value.
    """

    def __init__(self, message, mode, pivot):
        super().__init__(message)
        self.mode = mode
        self.pivot = pivot


def mode_swap3(g, j: int) -> np.ndarray:
    """Exchange the roles of input j and output j of a 3x3 linear relation.

    Given y = G x, returns G' such that y' = G' x' where x' carries y_j in
    slot j and x_j moves to the output side. Entries are ratios of 2x2
    minors to the pivot g_jj; the operation is an involution.

    Parameters
    ----------
    g : (3, 3) complex array, or an (N, 3, 3) stack swapped matrix by matrix
    j : int
        1-based mode index to swap.

    Raises
    ------
    SingularPivotError
        If |g_jj| <= SWAP_PIVOT_TOL, or is NaN, for any matrix; the error carries
        the first such pivot.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got shape {g.shape}")
    if j not in (1, 2, 3):
        raise ValueError(f"mode index must be 1, 2 or 3, got {j}")
    p = j - 1
    pivot = g[..., p:p + 1, p:p + 1]
    bad = ~(np.abs(pivot) > SWAP_PIVOT_TOL)
    if bad.any():
        first = complex(pivot[bad][0])
        raise SingularPivotError(
            f"mode-{j} pivot magnitude {abs(first):.3e} below {SWAP_PIVOT_TOL:.1e}",
            mode=j, pivot=first,
        )
    col = g[..., :, p:p + 1]
    row = g[..., p:p + 1, :]
    out = g * pivot
    out -= col * row
    out[..., p, :] = -row[..., 0, :]
    out[..., :, p] = col[..., :, 0]
    out[..., p, p] = 1.0
    out /= pivot
    return out


def block_transfer(block: int, m, delta) -> np.ndarray:
    """Embed ring transfers into their 3x3 network blocks.

    Blocks 1 and 3 put the in-line phase e^{-i delta} on the first slot and
    the ring on slots 2..3; block 2 puts the ring on slots 1..2 and the
    phase on slot 3. ``m`` is a (2, 2) transfer matrix or an (N, 2, 2)
    stack and ``delta`` a phase or N phases; a stack gives (N, 3, 3) blocks.
    """
    if block not in (1, 2, 3):
        raise ValueError(f"block must be 1, 2 or 3, got {block}")
    m = np.asarray(m, dtype=complex)
    phase = np.exp(-1j * np.asarray(delta, dtype=float))
    out = np.zeros(np.broadcast_shapes(m.shape[:-2], phase.shape) + (3, 3),
                   dtype=complex)
    if block == 2:
        out[..., 0:2, 0:2] = m
        out[..., 2, 2] = phase
    else:
        out[..., 0, 0] = phase
        out[..., 1:3, 1:3] = m
    return out


def naive_permanent(m) -> complex:
    """Permanent of a square complex matrix as the sum over permutations of
    the products a[0, p0] a[1, p1] ...; 1 for the empty matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    k = a.shape[0]
    return complex(sum(np.prod([a[i, p[i]] for i in range(k)])
                       for p in permutations(range(k))))


def reversed_network(rings, deltas):
    """The rings (tau, eta, theta, phi) and line phases of the network
    traversed from the other end: the rings in slot order 3, 2, 1, each
    with its phase partition phi -> theta - phi, and the line phases in
    reverse order."""
    return ([(tau, eta, theta, theta - phi) for tau, eta, theta, phi in reversed(rings)],
            list(reversed(deltas)))


def fock_lift(u, outputs, inputs) -> np.ndarray:
    """Amplitudes <out|U|in> of the unitary mode map u between occupations
    (tuples of photon counts, one per mode): the permanent of u with row m
    repeated out[m] times and column m repeated in[m] times, divided by
    the square root of the product of both occupations' factorials. One
    row per output, one column per input."""
    u = np.asarray(u, dtype=complex)

    def modes(occ):
        return [m for m, count in enumerate(occ) for _ in range(count)]

    def factorials(occ):
        return math.prod(math.factorial(count) for count in occ)

    out = np.empty((len(outputs), len(inputs)), dtype=complex)
    for i, o in enumerate(outputs):
        for j, n in enumerate(inputs):
            out[i, j] = (naive_permanent(u[np.ix_(modes(o), modes(n))])
                         / math.sqrt(factorials(o) * factorials(n)))
    return out


# The CNOT's modes: the control on rails 0, 1, the target on rails 2, 3,
# and ancilla pairs (4, 5) and (6, 7), each heralding one photon on its
# first mode and none on its second.
CNOT_HERALD = (1, 0, 1, 0)


def cnot_kept_block(u) -> np.ndarray:
    """The CNOT's heralded block of the 8-mode unitary u by the full
    four-photon lift. Columns: the computational inputs |control, target>
    in the order 00, 01, 10, 11, each with one photon in each ancilla
    pair's first mode. Rows: the outputs the heralds keep, which leave two
    photons on the rails, in descending lexicographic order of the rails'
    occupations."""
    rails = sorted((occ for occ in product(range(3), repeat=4) if sum(occ) == 2),
                   reverse=True)
    inputs = [(1 - c, c, 1 - t, t) + CNOT_HERALD for c, t in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return fock_lift(u, [occ + CNOT_HERALD for occ in rails], inputs)


def embed(s, modes, n_total: int) -> np.ndarray:
    """The n_total-mode network that acts as the small unitary s on the
    listed modes, in order, and as the identity elsewhere."""
    s = np.asarray(s, dtype=complex)
    modes = [int(m) for m in modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode map {modes} has a collision")
    if any(m < 0 or m >= n_total for m in modes):
        raise ValueError(f"mode map {modes} outside 0..{n_total - 1}")
    if s.shape != (len(modes), len(modes)):
        raise ValueError(f"matrix shape {s.shape} does not match {len(modes)} mapped modes")
    out = np.eye(n_total, dtype=complex)
    out[np.ix_(modes, modes)] = s
    return out


def t3_of_t1(t1: float) -> float:
    """The outer transmission t3 that keeps the resonant network optimal
    beside t1: the paper's curve (1 - t1^2)(1 - t3^2) = (3 - 2 sqrt 2)^2,
    solved for t3 >= 0. Raises ValueError where no real t3 exists."""
    return math.sqrt(1.0 - (3.0 - 2.0 * math.sqrt(2.0)) ** 2 / (1.0 - t1 * t1))
