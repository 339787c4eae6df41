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
- ``post_selected_checks``: the CNOT's truth table and Bell check of a
  heralded block, post-selected one column at a time by the per-column
  rule the package restates as one array pass.
- ``embed`` and ``cnot_network``: a small unitary placed on listed modes
  of a larger network, and the CNOT's 8-mode matrix assembled from such
  parts. The package builds no 8-mode matrix.
- ``t3_of_t1``: the companion outer transmission of the paper's optimal
  curve, which the package does not compute.
- ``reversed_network``: the network run backwards, which by reciprocity
  composes to the transpose of the original's scattering matrix.
- ``exact_scattering``: a config's 3x3 scattering matrix in mpmath at 60
  digits, from the config's float inputs, by the mode-swap chain: the
  reference that a printed digit is rounding of, or noise. It and
  ``exact_cnot_block`` need mpmath, a test dependency that they import
  when called, so the other oracles load without it.
- ``exact_cnot_block``: the CNOT's heralded block at 60 digits from two
  gate configs, with exact 50/50 splitters; ``is_physical`` judges a
  printed 9-digit number against such an exact value.

Bad input raises ``ValueError``; a vanishing swap pivot raises the local
``SingularPivotError``, also a ``ValueError``.
"""

import cmath
import math
from decimal import ROUND_HALF_EVEN, Decimal
from itertools import permutations, product

import numpy as np

SWAP_PIVOT_TOL = 1e-12

# The float 2 pi by which a ring's angles are reduced.
TWO_PI = 2.0 * math.pi


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


# The computational states |control, target> in the order 00, 01, 10, 11,
# and the two-photon occupations of the rails (modes 0-3) that the CNOT's
# heralds keep, in descending lexicographic order.
CNOT_INPUTS = ((0, 0), (0, 1), (1, 0), (1, 1))
_RAILS = sorted((occ for occ in product(range(3), repeat=4) if sum(occ) == 2), reverse=True)


def _rails_of(c: int, t: int) -> tuple:
    """The rails' occupation of the computational state |c, t>."""
    return (1 - c, c, 1 - t, t)


def cnot_kept_block(u) -> np.ndarray:
    """The CNOT's heralded block of the 8-mode unitary u by the full
    four-photon lift. Columns: the computational inputs in CNOT_INPUTS
    order, each with one photon in each ancilla pair's first mode. Rows:
    the outputs the heralds keep, which leave two photons on the rails, in
    descending lexicographic order of the rails' occupations."""
    inputs = [_rails_of(c, t) + CNOT_HERALD for c, t in CNOT_INPUTS]
    return fock_lift(u, [occ + CNOT_HERALD for occ in _RAILS], inputs)


def _post_select(amps):
    """Herald probability of one column of kept amplitudes and the
    conditional amplitudes of the logical outputs, as Python complex
    numbers: the probability is numpy's sum of |amp|^2 over the nonzero
    entries, taken in row order; a column of probability 0 leaves zeros."""
    nz = np.flatnonzero(np.abs(amps) > 0.0)
    prob = float(np.sum(np.abs(amps[nz]) ** 2))
    if prob <= 0.0:
        return 0.0, [0j] * len(CNOT_INPUTS)
    logical = [_RAILS.index(_rails_of(c, t)) for c, t in CNOT_INPUTS]
    return prob, (amps[logical] * (1.0 / np.sqrt(prob))).tolist()


def post_selected_checks(block):
    """The CNOT's checks of its heralded (10, 4) block, one column at a
    time: the truth table as tuples (control_in, target_in, probability,
    control_out, target_out, fidelity, leakage) in CNOT_INPUTS order, and
    the Bell check (overlap, probability) of the input
    (|00> + |10>) / sqrt(2).

    Each logical output weighs abs(a) * abs(a) of its conditional amplitude;
    the dominant output is the first whose weight is within 1e-12 of the
    largest, its weight the fidelity, and the leakage 1 minus the sum of
    the four weights."""
    block = np.asarray(block, dtype=complex)
    rows = []
    for j, (c_in, t_in) in enumerate(CNOT_INPUTS):
        prob, logical = _post_select(block[:, j])
        weights = [abs(a) * abs(a) for a in logical]
        top = max(weights)
        k = next(i for i, w in enumerate(weights) if w >= top - 1e-12)
        rows.append((c_in, t_in, prob, *CNOT_INPUTS[k], weights[k], 1.0 - sum(weights)))
    w = 1.0 / math.sqrt(2.0)
    prob, (a00, _, _, a11) = _post_select(block[:, [0, 2]] @ np.full(2, w, dtype=complex))
    return rows, (abs(w * (a00 + a11)) if prob > 0.0 else 0.0, prob)


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


def cnot_network(gate_a, gate_b, probe_phase: float) -> np.ndarray:
    """The CNOT's 8-mode unitary around the 3x3 gates gate_a and gate_b,
    from embedded parts: a 50/50 mixer on the target rails (2, 3), then one
    between the control one-rail and the target zero-rail (1, 2); the
    probe phase on mode 1; gate A on arm 1 with ancillas 4, 5 and gate B on
    arm 2 with ancillas 6, 7; the two mixers again, in reverse order; and
    a pi phase on the control one-rail."""
    splitter = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    target_mix, inner = embed(splitter, (2, 3), 8), embed(splitter, (1, 2), 8)
    probe = embed([[cmath.exp(1j * probe_phase)]], (1,), 8)
    control_flip = embed([[-1.0]], (1,), 8)
    return (control_flip @ target_mix @ inner @ embed(gate_b, (2, 6, 7), 8)
            @ embed(gate_a, (1, 4, 5), 8) @ probe @ inner @ target_mix)


def t3_of_t1(t1: float) -> float:
    """The outer transmission t3 that keeps the resonant network optimal
    beside t1: the paper's curve (1 - t1^2)(1 - t3^2) = (3 - 2 sqrt 2)^2,
    solved for t3 >= 0. Raises ValueError where no real t3 exists."""
    return math.sqrt(1.0 - (3.0 - 2.0 * math.sqrt(2.0)) ** 2 / (1.0 - t1 * t1))


def _exact_swap(g, p: int):
    """mode_swap3 of the mpmath 3x3 matrix g on the 0-based mode p."""
    pivot = g[p, p]
    if pivot == 0:
        raise ValueError(f"mode-{p + 1} pivot is exactly 0")
    out = g.copy()
    for i in range(3):
        for j in range(3):
            if i == p and j == p:
                out[i, j] = 1 / pivot
            elif i == p:
                out[i, j] = -g[p, j] / pivot
            elif j == p:
                out[i, j] = g[i, p] / pivot
            else:
                out[i, j] = g[i, j] - g[i, p] * g[p, j] / pivot
    return out


def exact_scattering(config, digits: int = 60):
    """The 3x3 scattering matrix (an mpmath matrix) of a config
    {"rings": [ring, ring, ring]}, computed at ``digits`` digits from the
    config's float inputs, with the command line's conventions:

    - a ring {tau, eta, theta, phi?, delta?} has cross couplings
      kappa = i sqrt(1 - tau^2) and gamma = i sqrt(1 - eta^2); theta is
      taken mod the float 2 pi (Python's float %, which is fmod plus 2 pi
      for a negative remainder); phi defaults to half of that theta, or
      to half of 2 pi where it is 0, and a given phi of magnitude 2 pi or
      more is reduced by fmod; delta defaults to 0;
    - with z = e^{-i theta} and den = 1 - eta tau z, the ring's transfer is
      [[(eta - tau z), -gamma conj(kappa) e^{-i phi}],
       [-kappa conj(gamma) e^{-i (theta - phi)}, (tau - eta z)]] / den;
    - the middle ring is mounted flipped, tau with eta and kappa with gamma
      exchanged;
    - ring k's line phasor e^{-i delta_k} sits on slot 1 of blocks 1 and 3,
      beside the ring on slots 2, 3, and on slot 3 of block 2, beside the
      ring on slots 1, 2; each block is swapped on mode 2, the chain
      multiplied in slot order 3, 2, 1 and swapped on mode 2 again.

    Raises ValueError where a swap pivot is exactly 0."""
    import mpmath

    with mpmath.workdps(digits):
        chain = mpmath.eye(3)
        for slot, ring in enumerate(config["rings"]):
            tau, eta = mpmath.mpf(ring["tau"]), mpmath.mpf(ring["eta"])
            theta = ring["theta"] % TWO_PI
            phi = ring.get("phi")
            if phi is None:
                phi = 0.5 * (theta or TWO_PI)
            elif abs(phi) >= TWO_PI:
                phi = math.fmod(phi, TWO_PI)
            if slot == 1:
                tau, eta = eta, tau
            kappa, gamma = 1j * mpmath.sqrt(1 - tau ** 2), 1j * mpmath.sqrt(1 - eta ** 2)
            z = mpmath.expj(-mpmath.mpf(theta))
            den = 1 - eta * tau * z
            m = [[(eta - tau * z) / den,
                  -gamma * mpmath.conj(kappa) * mpmath.expj(-mpmath.mpf(phi)) / den],
                 [-kappa * mpmath.conj(gamma)
                  * mpmath.expj(-(mpmath.mpf(theta) - mpmath.mpf(phi))) / den,
                  (tau - eta * z) / den]]
            block = mpmath.matrix(3, 3)
            ring_at, line_at = ((0, 1), 2) if slot == 1 else ((1, 2), 0)
            for i in range(2):
                for j in range(2):
                    block[ring_at[i], ring_at[j]] = m[i][j]
            block[line_at, line_at] = mpmath.expj(-mpmath.mpf(ring.get("delta", 0.0)))
            chain = _exact_swap(block, 1) * chain
        return _exact_swap(chain, 1)


def exact_cnot_block(gate_a, gate_b, probe_phase: float, digits: int = 60):
    """The CNOT's heralded block, an mpmath 10 x 4 matrix with the rows and
    columns of cnot_kept_block, for the gate configs gate_a and gate_b
    (each {"rings": [...]}, read as exact_scattering reads it) and a probe
    phase taken as given, at ``digits`` digits.

    Once both ancilla pairs herald, each gate acts on its arm's photon
    number n as n -> h[n] n, with h = (S11, S00 S11 + S10 S01,
    S00 (S00 S11 + 2 S10 S01)) of the gate's exact matrix S. So the block
    is post · diag(d) · pre over the rails' two-photon states y, with
    d[y] = hA[y1] hB[y2] e^{i probe_phase y1}, y1 and y2 the photons on
    modes 1 and 2, and post and pre the two-photon lifts (2 x 2
    permanents) of cnot_network's fixed rails parts, built from exact
    50/50 splitters."""
    import mpmath

    with mpmath.workdps(digits):
        h = []
        for config in (gate_a, gate_b):
            s = exact_scattering(config, digits)
            cross = s[1, 0] * s[0, 1]
            pair = s[0, 0] * s[1, 1] + cross
            h.append((s[1, 1], pair, s[0, 0] * (pair + cross)))
        half = 1 / mpmath.sqrt(2)

        def mixer(a, b):
            m = mpmath.eye(4)
            m[a, a] = m[a, b] = m[b, a] = half
            m[b, b] = -half
            return m

        def lift(u, occ_out, occ_in):
            (i, j), (k, m) = ([mode for mode, n in enumerate(occ) for _ in range(n)]
                              for occ in (occ_out, occ_in))
            norm = math.prod(math.factorial(n) for n in occ_out + occ_in)
            return (u[i, k] * u[j, m] + u[i, m] * u[j, k]) / mpmath.sqrt(norm)

        post = mpmath.diag([1, -1, 1, 1]) * mixer(2, 3) * mixer(1, 2)
        pre = mixer(1, 2) * mixer(2, 3)
        phase = mpmath.expj(mpmath.mpf(probe_phase))
        d = [h[0][y[1]] * h[1][y[2]] * phase ** y[1] for y in _RAILS]
        block = mpmath.matrix(len(_RAILS), len(CNOT_INPUTS))
        for col, (c, t) in enumerate(CNOT_INPUTS):
            pre_col = [lift(pre, y, _rails_of(c, t)) for y in _RAILS]
            for row, out in enumerate(_RAILS):
                block[row, col] = mpmath.fsum(lift(post, out, y) * d[k] * pre_col[k]
                                              for k, y in enumerate(_RAILS))
        return block


def is_physical(printed: Decimal, x: Decimal) -> bool:
    """Whether ``printed`` is the exact value x rounded to 9 significant
    digits, or the other neighbour of a rounding tie: one unit of the 9th
    digit away, with x within 1e-6 of a unit of the midpoint (the float
    that was rounded lies within about 1e-7 units of it)."""
    if x == 0:
        return printed == 0
    unit = Decimal(1).scaleb(x.adjusted() - 8)
    rounded = x.quantize(unit, rounding=ROUND_HALF_EVEN)
    return printed == rounded or (abs(printed - rounded) == unit
                                  and abs(x - (printed + rounded) / 2) <= unit / 10 ** 6)
