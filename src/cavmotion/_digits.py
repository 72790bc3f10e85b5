"""Decimal text of float64 arrays, the same bytes as Python's `%` cell by cell.

`scientific` writes `'%.12e' % v` and `fixed` writes `'%.2f' % v` for every
value of an array at once, as rows of ASCII bytes filled out with `PAD`, a
byte that no UTF-8 text holds; `lines` joins such cells into the text of a
document, the one place where byte rows become text, by dropping every
`PAD` byte.  `reread` gives the value each `scientific` cell reads as, from
the same digits.

A value is scaled to 13 digits before the point (`fixed`: to cents) by one
product with a correctly rounded power of ten.  That product is within
(2u + u^2) of the exact one, relatively (u = 2^-53; `fixed` multiplies by
an exact 100, so within u).  Where it lies more than twice that bound from
a rounding boundary, its nearest integer is the correctly rounded digit
string (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", AT&T Numerical Analysis Manuscript 90-10, 1990), cut into
ASCII from small tables of 4-byte words.  Every other cell goes through
Python's own conversion (`formatted`): those near a boundary, among them
every exact decimal tie; nan and +-inf; for `scientific` 0, subnormals
and values beyond 1e+-290, for `fixed` -0.0 and every value outside
[0, 1000), which holds the plot box's coordinates.
"""

import functools
import types

import numpy as np

PAD = 0xFF
_PAD_BYTE = bytes([PAD])
SCIENTIFIC, FIXED = "%.12e", "%.2f"
POWER_RANGE = 330


def _words(table):
    """The rows of a uint8 table of 4 (8) columns as uint32 (uint64) words."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    return table.view(f"u{table.shape[1]}").ravel()


@functools.cache
def _tables():
    """The writers' tables, built at their first call rather than at import:
    powers of ten, and ASCII words in which "_" stands for PAD.  The 4-digit
    words are put together from the 100 pairs of digits, so that no
    temporary outgrows the tables (building them from 10000 integers took
    0.6 MiB more peak memory)."""
    pair = np.arange(100)[:, None]
    pairs = (48 + np.hstack([pair // 10, pair % 10])).astype(np.uint8)  # "00" .. "99"
    leading_pairs = np.where((pair < 10) & [True, False], np.uint8(PAD), pairs)  # "_0" .. "99"
    blank_pair = np.full((1, 2), PAD, np.uint8)
    lead = np.arange(20)[:, None]  # sign bit * 10 + leading digit
    exponent = np.arange(-POWER_RANGE, POWER_RANGE + 1)[:, None]
    magnitude = np.abs(exponent)
    return types.SimpleNamespace(
        # 1e-330 .. 1e330, correctly rounded as Python's parser reads them
        pow10=np.array([float(f"1e{k}") for k in range(-POWER_RANGE, POWER_RANGE + 1)]),
        quads=_words(np.hstack([np.repeat(pairs, 100, axis=0),
                                np.tile(pairs, (100, 1))])),  # "0000" .. "9999"
        leading_quads=_words(np.hstack([  # "___0" .. "9999"
            np.repeat(np.vstack([blank_pair, leading_pairs[1:]]), 100, axis=0),
            np.vstack([leading_pairs, np.tile(pairs, (99, 1))])])),
        heads=_words(np.hstack([np.where(lead >= 10, 45, PAD), 48 + lead % 10,
                                np.full_like(lead, 46), np.full_like(lead, PAD)])),  # "-d._"
        exponents=_words(np.hstack([  # "e+dd____" or "e-ddd___"
            np.full_like(exponent, ord("e")), np.where(exponent < 0, 45, 43),
            np.where(magnitude < 100, PAD, 48 + magnitude // 100),
            48 + magnitude // 10 % 10, 48 + magnitude % 10,
            np.full((len(exponent), 3), PAD)])),
        cents=_words(np.hstack([np.full((100, 1), 46), pairs,
                                np.full((100, 1), PAD)])),  # ".00_" .. ".99_"
    )


def formatted(spec, values):
    """[spec % v for v in values]: Python's correctly rounded conversion, the
    one fallback of both writers."""
    return [spec % v for v in values]


def padded(strings, width=0):
    """Rows of at least `width` bytes holding the UTF-8 bytes of each string, PAD after."""
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    width = max([width, *map(len, encoded)])
    rows = np.frombuffer(b"".join(b.ljust(width, _PAD_BYTE) for b in encoded), np.uint8)
    return rows.reshape(len(encoded), width)


def lines(columns, separator, end):
    """The text of the lines of `columns` (2-D arrays of byte-row cells, all of one
    row count): each row's cells joined by `separator` and closed by `end`, every
    PAD byte dropped.  The separator and the end are padded once for all columns."""
    separator, end = padded([separator, end])
    parts = [part for column in columns for part in (column, separator)]
    parts[-1] = end
    ends = np.cumsum([part.shape[-1] for part in parts]).tolist()
    table = np.empty((len(columns[0]), ends[-1]), np.uint8)
    for part, start, stop in zip(parts, [0, *ends], ends):
        table[:, start:stop] = part
    return table.tobytes().translate(None, _PAD_BYTE).decode("utf-8", "surrogatepass")


def _with_fallback(rows, values, fast, spec):
    """Byte rows of `rows` (a word array), each cell outside `fast` rewritten by
    Python's `spec`."""
    rows = rows.view(np.uint8).reshape(len(rows), rows.shape[1] * rows.itemsize)
    slow = np.flatnonzero(~fast)
    if slow.size == 0:
        return rows
    cells = padded(formatted(spec, values[slow].tolist()), rows.shape[1])
    if cells.shape[1] > rows.shape[1]:
        rows = np.hstack([rows, np.full((len(rows), cells.shape[1] - rows.shape[1]), PAD,
                                        np.uint8)])
    rows[slow] = cells
    return rows


def _nearest(scaled, error, fast):
    """The nearest integers to `scaled`, clearing `fast` where an error of at
    most `error` could put the exact value on the other side of a half."""
    whole = np.floor(scaled)
    frac = scaled - whole
    fast &= np.abs(frac - 0.5) > error
    return whole + (frac > 0.5)


def _split(units, step):
    """Nonnegative integers in float64, below 1e13, as their quotient by
    step**2 and the two groups of step below it.  Each division is exact
    after floor: a quotient is an integer or at least 1e-13 of itself from
    the next one, far beyond the division's rounding."""
    top = np.floor(units / step ** 2)
    rest = units - top * step ** 2
    middle = np.floor(rest / step)
    return top, middle.astype(np.intp), (rest - middle * step).astype(np.intp)


def _significands(x):
    """(exponent, digits, fast) of a float64 array: where `fast`, '%.12e' % v is the
    13-digit integer `digits` times 10^(exponent - 12), with the sign of v."""
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)
    a = np.where(fast, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.intp)  # off by at most one
    scaled = a * _tables().pow10[POWER_RANGE + 12 - exponent]
    error = scaled * 2.0 ** -51
    # the mask alone decides which cells the tables write: scaled rounds into
    # [1e12, 1e13), or lies within 0.05 below 1e12, where an exact value below
    # 1e12 takes one more digit that carries it to 1e13, "1.000000000000"; a
    # cell whose exponent is one off lies outside and takes Python's `%`
    fast &= (scaled - error > 1e12 - 0.05) & (scaled + error < 1e13 - 0.5)
    digits = np.minimum(_nearest(scaled, error, fast), 1e13 - 1)  # in range off `fast` too
    return exponent, digits, fast


def scientific(values):
    """'%.12e' % v of every value (a float64 array), as rows of 24 bytes."""
    t = _tables()
    x = np.ravel(values)
    exponent, digits, fast = _significands(x)
    top, middle, low = _split(digits, 1e4)
    first = np.floor(top / 1e4)  # the leading digit
    rows = np.empty((x.size, 3), np.uint64)
    words = rows.view(np.uint32)
    words[:, 0] = t.heads[(np.signbit(x) * 10 + first).astype(np.intp)]
    words[:, 1] = t.quads[(top - first * 1e4).astype(np.intp)]
    words[:, 2] = t.quads[middle]
    words[:, 3] = t.quads[low]
    rows[:, 2] = t.exponents[POWER_RANGE + exponent]
    return _with_fallback(rows, x, fast, SCIENTIFIC)


def reread(values):
    """float('%.12e' % v) of every value (a float64 array): where the cell's exponent e is
    within 22 of 12, its 13 digits times (or over) the exact 10^|e - 12|, one correctly
    rounded operation (Clinger, PLDI 1990); elsewhere Python's parser."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    exponent, digits, fast = _significands(x)
    shift = np.abs(exponent - 12)
    power = _tables().pow10[POWER_RANGE + np.minimum(shift, 22)]  # no overflow off `fast`
    read = np.copysign(np.where(exponent >= 12, digits * power, digits / power), x)
    slow = np.flatnonzero(~fast | (shift > 22))
    read[slow] = [float(SCIENTIFIC % v) for v in x[slow].tolist()]
    return read


def fixed(values):
    """'%.2f' % v of every value (a float64 array), as rows of at least 8 bytes:
    from the tables in [0, 1000), the plot box's coordinates, and by Python's
    `%` for every other value, -0.0 among them."""
    t = _tables()
    x = np.ravel(values)
    fast = ~np.signbit(x) & (x < 1000)
    scaled = np.where(fast, x, 0.0) * 100.0
    cents = _nearest(scaled, scaled * 2.0 ** -52, fast)
    units = np.floor(cents / 100.0)
    rows = np.empty((x.size, 2), np.uint32)
    rows[:, 0] = t.leading_quads[units.astype(np.intp)]
    rows[:, 1] = t.cents[(cents - units * 100.0).astype(np.intp)]
    return _with_fallback(rows, x, fast, FIXED)
