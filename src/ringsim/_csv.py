"""CSV rows of float tables, every float byte-identical to ``NUM % x``.

The manifold sweeps print thousands of floats a pass, and ``%`` on each of
them costs more than the physics that computed them. ``rows`` formats a
whole table with numpy instead:

- the decimal exponent is guessed from ``log10``;
- the mantissa |x| * 10**(8 - e) is a double-double (Dekker 1971) made with
  correctly rounded + - * only, and is rounded half to even, which puts a
  guess moved by the last bit of ``log10`` (it differs between CPUs) back
  on the right exponent;
- digits come from tables of 4-byte words, one cell of words per field;
- non-finite values, exponents beyond +-289 and near-ties go through ``%``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

NUM = "%.8e"  # the format of every printed float: 9 significant digits

# Each field is a cell of five 4-byte words: sign, lead digit and point;
# four digits; four digits; "e+dd" or "e+ddd" and the separator. NUL bytes
# pad the words and are deleted from the finished rows.
_CELL = 20
# Decimal exponents formatted in numpy: 10**(8 - e) and the Dekker split of
# a value stay finite within them.
_MAX_EXPONENT = 289
_POW_RANGE = 300  # the tables cover the exponents -300 .. 300
# A mantissa this close to a rounding tie goes through NUM, which breaks
# the tie on the exact binary value.
_TIE = 1e-12


class _Tables(NamedTuple):
    # 10**k, k = -300 .. 300, as hi + lo: hi is correctly rounded and kept
    # as its Dekker split pow_hi_h + pow_hi_l, lo is 10**k - hi correctly
    # rounded.
    pow_hi_h: np.ndarray
    pow_hi_l: np.ndarray
    pow_lo: np.ndarray
    lead: np.ndarray    # words "\0d.\0", then "-d.\0", d = 0 .. 9
    quad: np.ndarray    # words "dddd", 0 .. 9999
    exp: np.ndarray     # rows of the first and second words of
                        # "e+dd\0\0\0," or "e+ddd\0\0,", e = -300 .. 300


def _words(text: list[bytes], size: int) -> np.ndarray:
    """ASCII strings NUL-padded to size bytes, as rows of uint32 words."""
    data = b"".join(t.ljust(size, b"\0") for t in text)
    return np.frombuffer(data, np.uint32).reshape(len(text), -1)


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use. The powers of ten come from
    integer arithmetic, as int / int and int -> float round correctly."""
    pow_hi, pow_lo = [], []
    for k in range(-_POW_RANGE, _POW_RANGE + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8)
    quad = np.empty((100, 100, 4), np.uint8)
    quad[..., :2] = pairs.reshape(100, 1, 2)
    quad[..., 2:] = pairs.reshape(1, 100, 2)
    pow_hi_h, pow_hi_l = _split(np.array(pow_hi))
    return _Tables(
        pow_hi_h=pow_hi_h, pow_hi_l=pow_hi_l, pow_lo=np.array(pow_lo),
        lead=_words([b"%s%d." % (sign, d) for sign in (b"\0", b"-")
                     for d in range(10)], 4).ravel(),
        quad=quad.view(np.uint32).ravel(),
        exp=_words([(b"e%+03d" % e).ljust(7, b"\0") + b","
                    for e in range(-_POW_RANGE, _POW_RANGE + 1)], 8).T.copy())


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into 26- and 27-bit halves."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as an unnormalized double-double hi + lo: hi is the product
    with the table's hi, lo its rounding error plus a times the table's lo."""
    tables = _tables()
    row = k + _POW_RANGE
    p_h, p_l = tables.pow_hi_h[row], tables.pow_hi_l[row]
    hi = a * (p_h + p_l)  # the sum is exact
    a_h, a_l = _split(a)
    lo = ((a_h * p_h - hi) + a_h * p_l + a_l * p_h) + a_l * p_l
    lo += a * tables.pow_lo[row]
    return hi, lo


def _cells(x: np.ndarray, cell: np.ndarray) -> None:
    """Write ``NUM % x`` and a "," separator for each float of x into the
    rows of cell, a (len(x), _CELL // 4) uint32 array of NUL-padded words."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    native = np.abs(e) <= _MAX_EXPONENT  # False for 0, inf and NaN
    a[~native] = 1.0
    e[~native] = 0.0
    e = e.astype(np.int64)
    # The mantissa |x| * 10**(8 - e), rounded half to even. Its fraction is
    # within about 1e-16 of the exact one, so only a near-tie needs NUM.
    hi, lo = _scaled(a, 8 - e)
    whole = np.floor(hi)
    frac = (hi - whole) + lo
    n = whole.astype(np.int64) + (frac > 0.5)
    # The rounded mantissa lies in [1e8, 1e9] for the right e. The last bit
    # of log10 only moves the guess where |x| is within a few ulps of a
    # power of ten: one too high leaves a mantissa just under 1e8, which
    # rounds up to 1e8, and one too low gives 1e9, as 9.9999999995e5 does,
    # which carries into the exponent. A mantissa outside goes through NUM.
    carry = n == 10 ** 9
    n[carry] = 10 ** 8
    e += carry
    zero = x == 0.0
    n[zero] = 0
    e[zero] = 0
    text = (~(native | zero) | (np.abs(frac - 0.5) < _TIE)
            | (n >= 10 ** 9) | ((n < 10 ** 8) & ~zero))
    # A text cell takes its first four words from NUM; with e = 0 the fifth
    # is "\0\0\0,". n = 0 keeps its table rows in range.
    n[text] = 0
    e[text] = 0

    tables = _tables()
    lead, rest = np.divmod(n, 10 ** 8)
    cell[:, 0] = tables.lead[lead + 10 * np.signbit(x)]
    cell[:, 1] = tables.quad[rest // 10 ** 4]
    cell[:, 2] = tables.quad[rest % 10 ** 4]
    cell[:, 3] = tables.exp[0, e + _POW_RANGE]
    cell[:, 4] = tables.exp[1, e + _POW_RANGE]
    if text.any():
        cell[text, :4] = _words([(NUM % v).encode("ascii") for v in x[text].tolist()],
                                16)


def rows(columns, label: str | None = None) -> bytes:
    """The CSV rows of equal-length float columns as ASCII bytes, every float
    as ``NUM % x``, each row led by the label field if one is given.

    Each distinct float is formatted once. Floats are told apart by their
    bits, so 0.0 and -0.0, and NaNs of different payloads, each keep their
    own text."""
    # The cell table is freed before its bytes are compacted.
    return _table(columns, label).tobytes().translate(None, b"\0")


def _table(columns, label: str | None) -> np.ndarray:
    """The cells of the CSV rows, as a (rows, fields) array of _CELL-byte
    items, the last field of each row ending in a newline."""
    values = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    index = index.reshape(values.shape)
    # One cell per distinct float, and a last cell for the label.
    cell = np.empty((len(bits) + 1, _CELL // 4), np.uint32)
    _cells(bits.view(float), cell[:-1])
    if label is not None:
        cell[-1] = _words([label.encode("ascii").ljust(_CELL - 1, b"\0") + b","],
                          _CELL)
        index = np.concatenate([np.full((len(index), 1), len(bits)), index], axis=1)
    table = cell.view(f"V{_CELL}").ravel().take(index)
    table.view(np.uint8).reshape(*index.shape, _CELL)[:, -1, -1] = ord("\n")
    return table
