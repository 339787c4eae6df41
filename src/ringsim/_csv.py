"""CSV rows of float tables, every float byte-identical to ``NUM % x``.

The manifold sweeps print thousands of floats a pass, and ``%`` on each of
them costs more than the physics that computed them. ``rows`` formats a
whole table with numpy instead, writing each float straight into its cell
of the table:

- the decimal exponent is guessed from ``log10``;
- the mantissa |x| * 10**(8 - e) is one product with a correctly rounded
  power of ten, rounded to nearest, which puts a guess moved by the last
  bit of ``log10`` (it differs between CPUs) back on the right exponent;
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
# Decimal exponents formatted in numpy: 10**(8 - e) stays a normal double
# within them.
_MAX_EXPONENT = 289
_POW_RANGE = 300  # the tables cover the exponents -300 .. 300
# A mantissa this close to a rounding tie goes through NUM, which breaks
# the tie on the exact binary value. The product that gives the mantissa
# is off by at most two roundings of a value below 2**30 (the table's
# 2**-53 relative and half an ulp of 2**-23): 1.8e-7, far inside the band.
_TIE = 1e-6


class _Tables(NamedTuple):
    pow10: np.ndarray   # 10**k, k = -300 .. 300, correctly rounded
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
    """The formatter's tables, built on first use. The powers of ten are
    int / int, which Python rounds correctly."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8)
    quad = np.empty((100, 100, 4), np.uint8)
    quad[..., :2] = pairs.reshape(100, 1, 2)
    quad[..., 2:] = pairs.reshape(1, 100, 2)
    return _Tables(
        pow10=np.array([10 ** max(k, 0) / 10 ** max(-k, 0)
                        for k in range(-_POW_RANGE, _POW_RANGE + 1)]),
        lead=_words([b"%s%d." % (sign, d) for sign in (b"\0", b"-")
                     for d in range(10)], 4).ravel(),
        quad=quad.view(np.uint32).ravel(),
        exp=_words([(b"e%+03d" % e).ljust(7, b"\0") + b","
                    for e in range(-_POW_RANGE, _POW_RANGE + 1)], 8).T.copy())


def _cells(x: np.ndarray, cell: np.ndarray) -> None:
    """Write ``NUM % x`` and a "," separator for each float of x into cell,
    a writable uint32 array (or view) of shape x.shape + (_CELL // 4,)."""
    tables = _tables()
    m = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(m))
    native = np.abs(e) <= _MAX_EXPONENT  # False for 0, inf and NaN
    m[~native] = 1.0
    e[~native] = 0.0
    e = e.astype(np.int64)
    # The mantissa |x| * 10**(8 - e) as one product, rounded to nearest. m
    # is then cut to its fraction, which is exact, so only the product's
    # error (see _TIE) sends a near-tie to NUM.
    m *= tables.pow10[_POW_RANGE + 8 - e]
    n = np.floor(m)
    m -= n
    n += m > 0.5
    # The rounded mantissa lies in [1e8, 1e9] for the right e. The last bit
    # of log10 only moves the guess where |x| is within a few ulps of a
    # power of ten: one too high leaves a mantissa just under 1e8, which
    # rounds up to 1e8, and one too low gives 1e9, as 9.9999999995e5 does,
    # which carries into the exponent. A mantissa outside goes through NUM.
    carry = n == 1e9
    n[carry] = 1e8
    e += carry
    zero = x == 0.0
    n[zero] = 0.0
    e[zero] = 0
    text = (~(native | zero) | (np.abs(m - 0.5) < _TIE)
            | (n >= 1e9) | ((n < 1e8) & ~zero))
    # A text cell takes its first four words from NUM; with e = 0 the fifth
    # is "\0\0\0,". n = 0 keeps its table rows in range.
    n[text] = 0.0
    e[text] = 0
    del m

    lead, rest = np.divmod(n.astype(np.int64), 10 ** 8)
    cell[..., 0] = tables.lead[lead + 10 * np.signbit(x)]
    cell[..., 1] = tables.quad[rest // 10 ** 4]
    cell[..., 2] = tables.quad[rest % 10 ** 4]
    cell[..., 3] = tables.exp[0, e + _POW_RANGE]
    cell[..., 4] = tables.exp[1, e + _POW_RANGE]
    if text.any():
        cell[text, :4] = _words([(NUM % v).encode("ascii") for v in x[text].tolist()],
                                16)


def rows(columns, label: str | None = None) -> bytes:
    """The CSV rows of equal-length float columns as ASCII bytes, every float
    as ``NUM % x``, each row led by the label field if one is given.

    A column is a sequence of floats, or a tuple (values, index) that stands
    for values[index], whose values are formatted once each."""
    # The cell table is freed before its bytes are compacted.
    return _table(columns, label).tobytes().translate(None, b"\0")


def _table(columns, label: str | None) -> np.ndarray:
    """The cells of the CSV rows, as a (rows, fields, _CELL // 4) uint32
    array, the last field of each row ending in a newline."""
    lengths = {len(c[1] if isinstance(c, tuple) else c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    lead = label is not None
    table = np.empty((lengths.pop(), lead + len(columns), _CELL // 4), np.uint32)
    if lead:
        table[:, 0] = _words([label.encode("ascii").ljust(_CELL - 1, b"\0") + b","],
                             _CELL)
    # The plain columns are formatted in one call, straight into the span of
    # fields from the first to the last of them; an indexed column inside
    # that span is formatted there as 0 and overwritten below.
    plain = [j for j, c in enumerate(columns, lead) if not isinstance(c, tuple)]
    if plain:
        x = np.zeros((len(table), plain[-1] + 1 - plain[0]))
        for j in plain:
            x[:, j - plain[0]] = columns[j - lead]
        _cells(x, table[:, plain[0]:plain[-1] + 1])
    for j, column in enumerate(columns, lead):
        if isinstance(column, tuple):
            values, index = column
            cell = np.empty((len(values), _CELL // 4), np.uint32)
            _cells(np.asarray(values, dtype=float), cell)
            table[:, j] = cell[index]
    table.view(np.uint8)[:, -1, -1] = ord("\n")
    return table
