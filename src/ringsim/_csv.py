"""CSV rows of float tables, every float byte-identical to ``NUM % x``.

The manifold sweeps print thousands of floats a pass, and ``%`` on each of
them costs more than the physics that computed them. ``rows`` formats a
whole table with numpy instead:

- the decimal exponent is guessed from ``log10``;
- the mantissa |x| * 10**(8 - e) is one product with a correctly rounded
  power of ten, rounded to nearest, which puts a guess moved by the last
  bit of ``log10`` (it differs between CPUs) back on the right exponent;
- digits come from tables of 4-byte words, five aligned words a number;
- non-finite values, exponents beyond +-289 and near-ties go through ``%``.

Each column is laid out at its printed width: the widest ``NUM % x`` of its
cells, plus the separator. A number's cell is a sign slot if some number of
the column is negative, then "d.", eight digits, "e+dd", a third exponent
digit if some number of the column has one, and the separator; one copy a
column puts the cells' bytes into the rows. A cell narrower than its column
(a positive number beside a negative one, a two-digit exponent beside a
three-digit one, or a ``%`` text cell) is padded with NUL bytes, which are
deleted from the finished rows. Only a table with a sign slot, a third
exponent digit or a text cell can hold such a cell, so no other table is
scanned for NUL bytes. The curve and surface tables (non-negative values,
two-digit exponents and a one-character label) are such other tables: they
are written straight into their final bytes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

NUM = "%.8e"  # the format of every printed float: 9 significant digits

# Decimal exponents formatted in numpy: 10**(8 - e) stays a normal double
# within them.
_MAX_EXPONENT = 289
_POW_RANGE = 300  # the tables cover the exponents -300 .. 300
# A mantissa this close to a rounding tie goes through NUM, which breaks
# the tie on the exact binary value. The product that gives the mantissa
# is off by at most two roundings of a value below 2**30 (the table's
# 2**-53 relative and half an ulp of 2**-23): 1.8e-7, far inside the band.
_TIE = 1e-6
# Printed width of a number with no sign and a two-digit exponent.
_NARROWEST = len(NUM % 1.0)


class _Tables(NamedTuple):
    pow10: np.ndarray   # 10**k, k = -300 .. 300, correctly rounded
    lead: np.ndarray    # words "\0\0d.", then "\0-d.", d = 0 .. 9
    quad: np.ndarray    # words "dddd", 0 .. 9999
    exp: np.ndarray     # words "e+dd", the first four bytes of "e%+03d",
                        # e = -300 .. 300
    tail: np.ndarray    # words of the rest and the separator, "d,\0\0" after
                        # "e+dd" of a three-digit exponent, else "\0,\0\0"
    comma: np.uint32    # the word ",\0\0\0", a separator right after "e+dd"


def _packed(text: list[bytes], dtype) -> np.ndarray:
    """ASCII strings NUL-padded to the dtype's size, as an array of it."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.ljust(size, b"\0") for t in text), dtype)


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use. The powers of ten are
    int / int, which Python rounds correctly."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8)
    quad = np.empty((100, 100, 4), np.uint8)
    quad[..., :2] = pairs.reshape(100, 1, 2)
    quad[..., 2:] = pairs.reshape(1, 100, 2)
    exponents = [b"e%+03d" % e for e in range(-_POW_RANGE, _POW_RANGE + 1)]
    return _Tables(
        pow10=np.array([10 ** max(k, 0) / 10 ** max(-k, 0)
                        for k in range(-_POW_RANGE, _POW_RANGE + 1)]),
        lead=_packed([b"\0%s%d." % (sign, d) for sign in (b"\0", b"-")
                      for d in range(10)], np.uint32),
        quad=quad.view(np.uint32).ravel(),
        exp=_packed([e[:4] for e in exponents], np.uint32),
        tail=_packed([e[4:].rjust(1, b"\0") + b"," for e in exponents], np.uint32),
        comma=_packed([b","], np.uint32)[0])


class _Digits(NamedTuple):
    """The fields of ``NUM % x`` for each float of x, an array with a table
    column in each row, and a summary of each column."""

    lead: np.ndarray  # the lead digit, plus 10 for a negative number
    hi: np.ndarray    # the next four digits
    lo: np.ndarray    # the last four digits
    e: np.ndarray     # the decimal exponent's row of the exponent tables
    sign: list        # per column, some number of it has a sign
    long: list        # per column, some number has a three-digit exponent
    texts: list       # (column, row, NUM % x as bytes) of the cells that
                      # NUM prints, not the fields


def _digits(x: np.ndarray) -> _Digits:
    """The digit fields of ``NUM % x`` for each float of x, a 2-D array."""
    tables = _tables()
    m = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(m))
    native = np.abs(e) <= _MAX_EXPONENT  # False for 0, inf and NaN
    zero = None
    if not native.all():
        # A zero prints from the fields of n = 0 and e = 0; any other value
        # that is not native, as a mantissa of 0, goes through NUM.
        zero = x == 0.0
        m[~native] = 0.0
        e[~native] = 0.0
    e = e.astype(np.intp)
    # The mantissa |x| * 10**(8 - e) as one product, rounded to nearest. The
    # remainder m - n is exact, so only the product's error (see _TIE) sends
    # a near-tie to NUM.
    m *= tables.pow10[_POW_RANGE + 8 - e]
    n = np.rint(m)
    m -= n
    # The rounded mantissa lies in [1e8, 1e9] for the right e. The last bit
    # of log10 only moves the guess where |x| is within a few ulps of a
    # power of ten: one too high leaves a mantissa just under 1e8, which
    # rounds up to 1e8, and one too low gives 1e9, as 9.9999999995e5 does,
    # which carries into the exponent. A mantissa outside goes through NUM.
    carry = n == 1e9
    if carry.any():
        n[carry] = 1e8
        e += carry
    text = (np.abs(m) > 0.5 - _TIE) | (np.abs(n - 549999999.5) > 449999999.5)
    del m
    if zero is not None:
        text &= ~zero
    n = n.astype(np.intp)
    negative = np.signbit(x)
    texts = []
    if text.any():
        # A text cell is written over its fields from NUM; n = 0 and e = 0
        # keep its table rows in range, and it has neither flag.
        where = np.nonzero(text)
        texts = [(c, r, (NUM % v).encode("ascii"))
                 for c, r, v in zip(*where, x[where].tolist())]
        n[text] = 0
        e[text] = 0
        negative &= ~text
    long = np.abs(e) >= 100

    # The digit groups of n, below 1e9.
    q = n // 10000
    lo = n - q * 10000
    lead = q // 10000
    hi = q - lead * 10000
    lead += 10 * negative
    return _Digits(lead, hi, lo, e + _POW_RANGE, negative.any(axis=1).tolist(),
                   long.any(axis=1).tolist(), texts)


class _Layout(NamedTuple):
    """The cells of a column."""

    width: int  # of each cell, the separator included
    sign: bool  # a number's cell starts with a sign slot
    long: bool  # a number's cell holds a third exponent digit


def _layouts(digits: _Digits) -> list[_Layout]:
    """The layout of each column of ``digits``. A number's cell has a sign
    slot if some number of the column is negative, and a third exponent
    digit if some number has one; a text cell wider than that (a negative
    near-tie) adds the sign slot, then the digit. A column of text cells
    alone is as wide as its widest text."""
    rows = digits.e.shape[1]
    texts = {}
    for c, _, t in digits.texts:
        texts.setdefault(c, []).append(len(t))
    layouts = []
    for c, (sign, long) in enumerate(zip(digits.sign, digits.long)):
        widths = texts.get(c, [])
        widest = max(widths, default=0)
        if len(widths) == rows:  # no numbers
            layouts.append(_Layout(widest + 1, False, False))
        else:
            sign = sign or widest > _NARROWEST + long
            long = long or widest > _NARROWEST + sign
            layouts.append(_Layout(_NARROWEST + sign + long + 1, sign, long))
    return layouts


# The words of a number's cell: "\0\0d." or "\0-d.", four digits, four
# digits, "e+dd", and the rest of the exponent with the separator. Its
# printed bytes start at byte 2, or at byte 1 in a column with a sign slot.
_WORDS = 5


def _cells(digits: _Digits, layouts: list[_Layout]) -> np.ndarray:
    """The cells of ``digits``, laid out in ``layouts``, one per column, as a
    (columns, rows, _WORDS) uint32 array: the numbers' words, and the text
    cells' bytes over them, NUL-padded to the column's width."""
    tables = _tables()
    cells = np.empty(digits.e.shape + (_WORDS,), np.uint32)
    cells[..., 0] = tables.lead[digits.lead]
    cells[..., 1] = tables.quad[digits.hi]
    cells[..., 2] = tables.quad[digits.lo]
    cells[..., 3] = tables.exp[digits.e]
    long = [layout.long for layout in layouts]
    if any(long):
        cells[..., 4] = tables.tail[digits.e]
        cells[np.logical_not(long), :, 4] = tables.comma
    else:
        cells[..., 4] = tables.comma
    for c, r, t in digits.texts:
        start, width = 2 - layouts[c].sign, layouts[c].width
        cells[c, r].view(np.uint8)[start:start + width] = np.frombuffer(
            t.ljust(width - 1, b"\0") + b",", np.uint8)
    return cells


def _printed(cells: np.ndarray, c: int, k: int, layout: _Layout) -> np.ndarray:
    """The printed bytes of the cells of columns c to c + k - 1 of ``cells``,
    each an item of a (rows, k) array."""
    column = cells[0].nbytes
    return np.ndarray((cells.shape[1], k), f"V{layout.width}", cells,
                      c * column + 2 - layout.sign, (4 * _WORDS, column))


def rows(columns, label: str | None = None) -> bytes:
    """The CSV rows of equal-length float columns as ASCII bytes, every float
    as ``NUM % x``, each row led by the label field if one is given.

    A column is a sequence of floats, or a tuple (values, index) that stands
    for values[index], whose values are formatted once each; its width is
    that of its widest value."""
    table, padded = _table(columns, label)
    data = table.tobytes()
    del table  # freed before the bytes are compacted
    return data.replace(b"\0", b"") if padded else data


def _table(columns, label: str | None) -> tuple[np.ndarray, bool]:
    """The CSV rows as a (rows, row width) uint8 array, each row ending in a
    newline, and whether a cell can be narrower than its column: such a cell
    is padded with NUL bytes."""
    lengths = {len(c[1] if isinstance(c, tuple) else c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    count = lengths.pop()
    if not count:
        return np.empty(0, np.uint8), False
    lead = b"" if label is None else label.encode("ascii") + b","
    # The plain columns are formatted in one group, a row of x each; each
    # indexed column's values are a group of their own. Field j is column
    # c of group g, taken at ``index`` if that is not None.
    plain = [j for j, c in enumerate(columns) if not isinstance(c, tuple)]
    x = np.empty((len(plain), count))
    for c, j in enumerate(plain):
        x[c] = columns[j]
    groups, fields = [_digits(x)], {j: (0, c, None) for c, j in enumerate(plain)}
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            values, index = column
            fields[j] = (len(groups), 0, index)
            groups.append(_digits(np.array(values, dtype=float).reshape(1, -1)))
    layouts = [_layouts(digits) for digits in groups]
    cells = [_cells(digits, group) for digits, group in zip(groups, layouts)]
    offsets = [len(lead)]
    for j in range(len(columns)):
        g, c, _ = fields[j]
        offsets.append(offsets[-1] + layouts[g][c].width)

    table = np.empty((count, offsets[-1]), np.uint8)
    table[:, :len(lead)] = np.frombuffer(lead, np.uint8)
    j = 0
    while j < len(columns):
        g, c, index = fields[j]
        layout = layouts[g][c]
        # Adjacent plain columns of one layout are copied together.
        k = 1
        while fields.get(j + k) == (g, c + k, None) and layouts[g][c + k] == layout:
            k += 1
        printed = _printed(cells[g], c, k, layout)
        np.ndarray((count, k), printed.dtype, table, offsets[j],
                   (offsets[-1], layout.width))[...] = \
            printed if index is None else printed[index]
        j += k
    table[:, -1] = ord("\n")
    padded = any(digits.texts for digits in groups) or any(
        layout.sign or layout.long for group in layouts for layout in group)
    return table, padded
