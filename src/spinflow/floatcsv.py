"""``%.17g`` of many floats at once, byte for byte, with numpy.

A float x with 1e-4 <= |x| < 1e17 prints in fixed notation from its 17
correctly rounded significant digits d = round_half_even(|x| * 10**(16 - e)),
10**16 <= d < 10**17, where e is its decimal exponent.  d is computed exactly
in float64: x * 2**n is exact, and Dekker's two-product (Numer. Math. 18,
1971) splits (x * 2**n) * 5**n into a float and its exact error, with 5**n
exact for n <= 22.

Each value gets a 40-byte template, five words:

    sep "-" "0.000" d0 | "." d1 "." d2 "." d3 "." d4 | ... | "." d16

Digit k sits at byte 7 + 2k and the byte after it is a slot for the decimal
point.  One mask row per (e, significant digits, sign) keeps the bytes of
the text and turns the others to NUL, which are then deleted.  Zero,
non-finite values and |x| outside the window get a ``%.17g`` placeholder
instead and are formatted by ``%``.
"""

from __future__ import annotations

import functools

import numpy as np

#: values formatted per call: their work arrays, 40 bytes of text per value
#: and less for the rest, stay in cache and below malloc's mmap threshold
BLOCK = 2048
SEPARATORS = ",\n"

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant


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
#: word 0 of a value that ``%`` formats
_PLACEHOLDERS = _words(f"{sep}%.17g\0\0" for sep in SEPARATORS)


@functools.cache
def _tables():
    """The digit-group words, last nonzero digits and masks of format_fields.

    Built at its first call, so a process that writes no float table never
    pays for them.
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
    keep = (
        (col == 0)
        | ((col == 1) & (neg == 1))
        | ((col >= 2) & (col < 3 - e) & (e < 0))
        | ((col >= 7) & (col % 2 == 1) & (digit < np.maximum(sig, e + 1)))
        | ((col >= 8) & (col % 2 == 0) & (dot == e) & (sig > e + 1))
    )
    masks = np.vstack([keep.reshape(-1, 40), col < 8])  # last row: a placeholder
    return quad.view("<u8").ravel(), last, (masks * np.uint8(0xFF)).view("<u8")


def _round17(ax: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round_half_even(ax * 10**(16 - e)) as int64, for 0 <= 16 - e <= 20.

    Exact when the float product p >= 2**53, where p is an even integer;
    below that only good enough to tell that the result is below 10**16.
    """
    n = 16 - e
    y = ax * _POW2.take(n)
    p = y * _POW5.take(n)
    y_hi, y_lo = _halves(y)
    five_hi, five_lo = _POW5_HI.take(n), _POW5_LO.take(n)
    err = ((y_hi * five_hi - p) + y_hi * five_lo + y_lo * five_hi) + y_lo * five_lo
    whole = np.rint(p)
    return whole.astype(np.int64) + np.rint((p - whole) + err).astype(np.int64)


def _digits(ax: np.ndarray):
    """(e, lead, quads) of each ax in [1e-4, 1e17): its decimal exponent, the
    first of its 17 correctly rounded significant digits, and the other
    sixteen as four groups of four."""
    e = np.log10(ax)
    e = np.clip(np.floor(e, out=e).astype(np.int64), -4, 16)
    d = _round17(ax, e)
    # log10 may be one off next to a power of ten: correct e, and round ax
    # again, not d, which would round twice
    off = (d < 10**16) | (d >= 10**17)
    if off.any():
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _round17(ax[off], e[off])
    lead, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = np.empty((len(d), 4), np.intp)
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10**4, out=(quads[:, 2], quads[:, 3]))
    return e, lead, quads


def format_fields(values: np.ndarray, newline: np.ndarray) -> str:
    """``"".join(SEPARATORS[n] + "%.17g" % v for n, v in zip(newline, values))``.

    values is a 1-D float64 array, newline a 0/1 integer array of the same
    length: 1 where a value starts a line.
    """
    quad_words, last_digit, masks = _tables()
    ax = np.abs(values)
    placeholder = ~((ax >= 1e-4) & (ax < 1e17))
    ax[placeholder] = 1.0
    e, lead, quads = _digits(ax)
    text = np.empty((len(values), 5), "<u8")
    text[:, 0] = _HEADS.take(newline * 10 + lead)
    text[:, 1:] = quad_words.take(quads)
    # index of the last nonzero digit, 0 for the leading one
    last = [last_digit[j].take(quads[:, j]) for j in range(4)]
    last = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    row = ((e + 4) * 17 + last) * 2 + np.signbit(values)
    if placeholder.any():
        row[placeholder] = -1  # the mask row that keeps word 0 alone
        text[placeholder, 0] = _PLACEHOLDERS.take(newline[placeholder])
    text &= masks.take(row, axis=0)
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    return out % tuple(values[placeholder].tolist()) if placeholder.any() else out
