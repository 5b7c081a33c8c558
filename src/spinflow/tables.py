"""CSV and JSON tables, written as they come; ``%.17g`` and ``repr`` of many floats at once.

Digits.  A float x with 1e-4 <= |x| < 1e17 has the decimal exponent e and the
17 correctly rounded significant digits d = round_half_even(X), where
X = |x| * 10**(16 - e) and 10**16 <= d < 10**17.  X is split exactly into
float64s as X = p + err: x * 2**n is exact, and Dekker's two-product (Numer.
Math. 18, 1971) splits (x * 2**n) * 5**n into the float p, an even integer
here, and its exact error err, with 5**n exact for n <= 22.

Shortest digits.  ``repr`` prints the fewest digits that read back as x,
and of those the ones nearest to x (Steele and White, PLDI 1990).  For
1e-4 <= |x| < 1e16, where repr prints fixed-point digits, the numbers that
read back as x form the interval X +- h, h = ulp(x)/2 * 10**(16 - e), an
exact float between 0.55 and 11.1, so at most one multiple of 100 lies in
it.  The digits are that multiple if it fits, else the nearest multiple of
10 if it fits, else d.  Each distance X - m = (p - m) + err is computed to
within 1e-14.  A value is left to ``repr`` where this cannot decide it: where
x's significand is a power of two (its interval is only h/2 wide below),
where a candidate lies within 1e-9 of an end of the interval (which reads
back as x only for an even significand), and where X is within 1e-9 of
halfway between two multiples of 10, or of two integers (a tie).

Layout.  Each value gets a 40-byte template, five words:

    sep "-" "0.000" d0 | "." d1 "." d2 "." d3 "." d4 | ... | "." d16

Digit k sits at byte 7 + 2k and the byte after it is a slot for the decimal
point.  One mask row per (e, significant digits, sign) keeps the bytes of
the text and turns the others to NUL, which are then deleted.  There is a
mask table for each layout: ``%.17g`` prints an integral value without a
point, ``repr`` with ".0".  Zero, non-finite values, values outside the
window and values left to ``repr`` get a placeholder instead and are
formatted by ``%``: ``%.17g`` or ``%r``, and "null" for a non-finite value
in the ``repr`` layout, as JSON tables print it.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

FORMATS = ("csv", "json")
#: rows of a float table formatted and written per step: the formatting
#: memory is set by this, not by the size of the table
TABLE_CHUNK = 4096
#: values formatted per call: their work arrays, 40 bytes of text per value
#: and less for the rest, stay in cache and below malloc's mmap threshold
BLOCK = 2048
SEPARATORS = ",\n"

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant
#: slack of the shortest-digit interval test: a distance within this of a
#: decision boundary leaves the value to repr
_SLACK = 1e-9


def _halves(a):
    """a = hi + lo with at most 26 significant bits in each part."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), "<u8")


_POW2 = np.ldexp(1.0, np.arange(21))
_POW5 = np.array([5**n for n in range(21)], dtype=float)  # exact: 5**20 < 2**53
_POW5_HI, _POW5_LO = _halves(_POW5)
#: word 0 of a value: its separator, "-", "0.000" and its leading digit
_HEADS = _words(f"{sep}-0.000{d}" for sep in SEPARATORS for d in range(10))
#: word 0 of a value that ``%`` formats as %.17g and as repr, and of a
#: non-finite value in the repr layout, after each separator
_PLACEHOLDERS = _words(
    f"{sep}{word}" for word in ("%.17g\0\0", "%r\0\0\0\0\0", "null\0\0\0") for sep in SEPARATORS
)


@functools.cache
def _tables():
    """The digit-group words, last nonzero digits and masks of format_fields.

    Built at its first call, so a process that writes no float table never
    pays for them.  masks[shortest] is the mask table of a layout.
    """
    k = np.arange(10000)  # the groups of four digits
    digits = k[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = np.full((10000, 8), ord("."), np.uint8)
    quad[:, 1::2] = digits + ord("0")
    # position (1..4) of the last nonzero digit of a group of four, 0 for 0000,
    # and for the j-th group that position plus 4 j among the sixteen digits
    last = ((digits > 0) * np.arange(1, 5)).max(axis=1)
    last = np.where(k > 0, last + np.arange(0, 16, 4)[:, None], 0).astype(np.int8)
    e = np.arange(-4, 17)[:, None, None, None]
    sig = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    col = np.arange(40)
    digit, dot = (col - 7) // 2, (col - 8) // 2
    head = (col == 0) | ((col == 1) & (neg == 1)) | ((col >= 2) & (col < 3 - e) & (e < 0))
    digits_at = (col >= 7) & (col % 2 == 1)
    dot_at = (col >= 8) & (col % 2 == 0) & (dot == e)
    masks = []
    for keep in (
        # %.17g: an integral value is printed without its point
        head | (digits_at & (digit < np.maximum(sig, e + 1))) | (dot_at & (sig > e + 1)),
        # repr: an integral value keeps its point and one zero after it
        head | (digits_at & (digit < np.maximum(sig, e + 2))) | dot_at,
    ):
        rows = np.vstack([keep.reshape(-1, 40), col < 8])  # last row: a placeholder
        masks.append((rows * np.uint8(0xFF)).view("<u8"))
    return quad.view("<u8").ravel(), last, masks


def _scaled(ax: np.ndarray, e: np.ndarray):
    """(p, err) with ax * 10**(16 - e) == p + err exactly, for 0 <= 16 - e <= 20.

    p is the float product, an even integer when p >= 2**53.
    """
    n = 16 - e
    y = ax * _POW2.take(n)
    p = y * _POW5.take(n)
    y_hi, y_lo = _halves(y)
    five_hi, five_lo = _POW5_HI.take(n), _POW5_LO.take(n)
    err = ((y_hi * five_hi - p) + y_hi * five_lo + y_lo * five_hi) + y_lo * five_lo
    return p, err


def _round(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """round_half_even(p + err) as int64.

    Exact when p >= 2**53; below that only good enough to tell that the
    result is below 10**16.
    """
    whole = np.rint(p)
    return whole.astype(np.int64) + np.rint((p - whole) + err).astype(np.int64)


def _exponents(ax: np.ndarray):
    """(e, p, err, d) of each ax in [1e-4, 1e17): its decimal exponent e,
    ax * 10**(16 - e) == p + err exactly, and its rounding d, 17 digits."""
    e = np.log10(ax)
    e = np.floor(e, out=e).astype(np.int64)
    np.minimum(e, 16, out=e)
    np.maximum(e, -4, out=e)
    p, err = _scaled(ax, e)
    d = _round(p, err)
    # log10 may be one off next to a power of ten: correct e, and scale ax
    # again, not d, which would round twice
    off = (d < 10**16) | (d >= 10**17)
    if off.any():
        e[off] += np.where(d[off] < 10**16, -1, 1)
        p[off], err[off] = _scaled(ax[off], e[off])
        d[off] = _round(p[off], err[off])
    return e, p, err, d


def _shortest(ax, e, p, err, d):
    """(d, undecided): the shortest round-trip digits of each ax, as a
    17-digit integer padded with zeros, and where the interval test cannot
    decide them (see the module docstring); d is the rounding of p + err."""
    whole = p.astype(np.int64)
    mantissa, exponent = np.frexp(ax)
    n = 16 - e
    h = np.ldexp(_POW5.take(n), exponent - 54 + n)

    def nearest(unit):
        """The multiple m of unit nearest to X, whether it fits in the
        interval, and where it may lie on an end of it or X halfway between
        two multiples."""
        m = (d + unit // 2) // unit * unit
        dist = (whole - m) + err  # X - m, within unit / 2 + 1/2 of 0
        step = np.where(dist > unit / 2, unit, np.where(dist < -unit / 2, -unit, 0))
        tie = np.abs(np.abs(dist) - unit / 2) <= _SLACK
        m, dist = m + step, dist - step
        return m, np.abs(dist) < h, np.abs(np.abs(dist) - h) <= _SLACK, tie

    m100, fit100, edge100, _ = nearest(100)
    m10, fit10, edge10, tie10 = nearest(10)
    tie1 = np.abs(np.abs((whole - d) + err) - 0.5) <= _SLACK
    d = np.where(fit100, m100, np.where(fit10, m10, d))
    undecided = (mantissa == 0.5) | edge100
    undecided |= np.where(fit100, False, edge10 | np.where(fit10, tie10, tie1))
    # the multiple 10**17 would take one digit more; it never fits, since in
    # the window the double nearest a power of ten is never below it, but repr
    # would decide one that did
    return d, undecided | (d >= 10**17)


def format_fields(values: np.ndarray, newline: np.ndarray, shortest: bool = False) -> str:
    """``"".join(SEPARATORS[n] + f(v) for n, v in zip(newline, values))``.

    f is ``"%.17g".__mod__``, or with shortest ``repr`` and "null" for a
    non-finite value.  values is a 1-D float64 array, newline a 0/1 integer
    array of the same length: 1 where a value starts a line.
    """
    quad_words, last_digit, masks = _tables()
    ax = np.abs(values)
    placeholder = ~((ax >= 1e-4) & (ax < (1e16 if shortest else 1e17)))
    ax[placeholder] = 1.0
    e, p, err, d = _exponents(ax)
    if shortest:
        d, undecided = _shortest(ax, e, p, err, d)
        placeholder |= undecided
    # d's leading digit and its four groups of four; floor division of a
    # contiguous array by a constant is several times faster than divmod
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    first, third = high // 10**4, low // 10**4
    quads = (first, high - first * 10**4, third, low - third * 10**4)
    text = np.empty((len(values), 5), "<u8")
    text[:, 0] = _HEADS.take(newline * 10 + lead)
    for j, quad in enumerate(quads):
        text[:, j + 1] = quad_words.take(quad)
    # index of the last nonzero digit, 0 for the leading one: in the last
    # group unless that group is 0000
    last = last_digit[3].take(quads[3])
    zero = quads[3] == 0
    if zero.any():
        earlier = [last_digit[j].take(quads[j][zero]) for j in range(3)]
        last[zero] = np.maximum(np.maximum(earlier[0], earlier[1]), earlier[2])
    row = ((e + 4) * 17 + last) * 2 + np.signbit(values)
    formatted = placeholder & np.isfinite(values) if shortest else placeholder
    if placeholder.any():
        row[placeholder] = -1  # the mask row that keeps word 0 alone
        kind = np.where(formatted[placeholder], int(shortest), 2)
        text[placeholder, 0] = _PLACEHOLDERS.take(kind * 2 + newline[placeholder])
    text &= masks[shortest].take(row, axis=0)
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    return out % tuple(values[formatted].tolist()) if formatted.any() else out


def _fmt(value) -> str:
    """The CSV text of a table value."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, (int, str)) else "%.17g" % value


def _json(value) -> str:
    """The JSON text of a table value, null for a non-finite float."""
    value = value.item() if isinstance(value, np.generic) else value
    return "null" if isinstance(value, float) and not math.isfinite(value) else json.dumps(value)


def _table_pieces(headers, rows, fmt: str, prefix=(), first: bool = True):
    """The text of a table's rows, at most TABLE_CHUNK of them.

    rows is a 2-D float array, or a short list of rows that mix int, bool,
    str and float; prefix holds the values of the first len(prefix) columns
    of headers, the same on every row.  The text of a row starts with its
    separator: a newline in CSV; in JSON "[\n" before the first record of
    the table (first) and ",\n" before any other.  CSV prints floats as
    ``%.17g`` byte for byte, JSON as their shortest round-trip repr and
    non-finite ones as null, in records laid out as by
    ``json.dumps(records, indent=2, sort_keys=True)``; a float array's floats
    are formatted in bulk by format_fields.
    """
    floats, csv = isinstance(rows, np.ndarray), fmt == "csv"
    order = range(len(headers)) if csv else sorted(range(len(headers)), key=headers.__getitem__)
    columns = [c - len(prefix) for c in order if c >= len(prefix)]
    if csv:
        lead = "\n" + "".join(_fmt(v) + "," for v in prefix)
    else:
        # the record template: the JSON text of each prefix value, %s for the others
        fields = [_json(v).replace("%", "%%") for v in prefix]
        fields += ["%s"] * (len(headers) - len(prefix))
        record = ",\n".join(f"    {json.dumps(headers[c])}: {fields[c]}" for c in order)
        record = "  {\n" + record + "\n  }"
    # a float array's rows go in even pieces of about BLOCK floats, each float
    # after its separator, so that a piece's text splits into its rows
    pieces = min(len(rows), -(-len(rows) * max(1, len(columns)) // BLOCK) if floats else 1)
    for piece in range(pieces):
        start = len(rows) * piece // pieces
        part = rows[start : len(rows) * (piece + 1) // pieces]
        if floats:
            values = np.asarray(part if csv else part[:, columns], dtype=float).ravel()
            newline = np.zeros((len(part), len(columns)), np.intp)
            newline[:, :1] = csv  # CSV starts each row on a new line, JSON after a comma
            text = format_fields(values, newline.ravel(), not csv)
        if csv and floats:
            yield text if lead == "\n" else text.replace("\n", lead)
        elif csv:
            yield "".join(lead + ",".join(map(_fmt, row)) for row in part)
        else:
            tokens = text.split(",")[1:] if floats else [_json(r[c]) for r in part for c in columns]
            lead = "[\n" if first and start == 0 else ",\n"
            yield lead + ",\n".join([record] * len(part)) % tuple(tokens)


class _Grid:
    """A float table over a tau grid whose rows are computed as they are sliced.

    rows_of(t) is the 2-D float array of the rows at the taus t, one row per
    tau, each row the same whatever slice of the grid t is; so a table
    written TABLE_CHUNK rows at a time holds the grid and one chunk of rows,
    never the whole table.
    """

    def __init__(self, taus: np.ndarray, rows_of):
        self.taus, self.rows_of = taus, rows_of

    def __len__(self) -> int:
        return len(self.taus)

    def __getitem__(self, part: slice) -> np.ndarray:
        return self.rows_of(self.taus[part])


class _Table:
    """A table written to stream: its header, then rows as they come, then its tail."""

    def __init__(self, stream, headers, fmt: str):
        self.stream, self.headers, self.fmt, self.rows = stream, headers, fmt, 0
        if fmt == "csv":
            stream.write(",".join(headers))

    def write(self, rows, prefix=()) -> None:
        """Write rows TABLE_CHUNK at a time, computing a _Grid's just before; see _table_pieces."""
        for start in range(0, len(rows), TABLE_CHUNK):
            part = rows[start : start + TABLE_CHUNK]
            pieces = _table_pieces(self.headers, part, self.fmt, prefix, not self.rows)
            self.stream.writelines(pieces)
            self.rows += len(part)

    def close(self) -> None:
        self.stream.write("\n" if self.fmt == "csv" else "\n]\n" if self.rows else "[]\n")
