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

Bad input raises ``ValueError``; a vanishing swap pivot raises the local
``SingularPivotError``, also a ``ValueError``.
"""

from itertools import permutations

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
