"""CSV text of float rows, the bytes of `%.12g` from array code.

`rows_text(rows)` returns ``(row_fmt * n) % values`` encoded, with
``row_fmt`` the row of ``%.12g`` fields joined by ``,`` and ended by a
newline, without formatting one Python float at a time; `write_rows`
writes a table's text to a file a chunk of rows at a time.

Why it is exact (Clinger, PLDI 1990; Gay, "Correctly rounded binary-decimal
and decimal-binary conversions", 1990, whose ``dtoa`` CPython's `%` runs):
`%.12g` writes x's 12 correctly rounded significant digits D, at the
decimal exponent X of the rounded value.  Take e = floor(log10 |x|) and
v = |x| 10^(11 - e), by one multiply or one divide by 10^|11 - e|.  A power
of ten up to 10^22 is an exact double, so for e in [-11, 33] v is the exact
product correctly rounded, and v < 2^40 puts it within 2^-14 (6.1e-5) of
the exact one.  So when v >= 10^11 and v lies within 0.499 of the integer
r = rint(v), the exact product lies within 0.5 of r, and r is D:

- r in [10^11, 10^12): D = r and X = e;
- r = 10^12, a carry: D = 10^11 and X = e + 1;
- v >= 10^11 with an exact product just under 10^11 (log10 read e one
  too high) gives r = 10^11, X = e, which is what rounding at e - 1
  carries to.

The digits come from a table of 3-digit groups, and the count of trailing
zeros from all four groups.  Each value's source row holds its four
groups, one in each of its first four 4-byte words, its sign (``-`` or
NUL) and separator (``,`` or a newline) in the first two words' spare
bytes, and a few constant bytes.  Its text is a per-class layout of that
row, in one gather; the class is the exponent and the number of
significant digits.  The layout holds the sign, the ``0.000`` lead of X
in [-4, -1], the point, ``e+XX`` outside [-4, 11], and the separator,
padded with NULs that `bytes.translate` drops.

A row with any value off that path is written by the `%`-format itself:
a value near a tie (|v - r| >= 0.499, about 0.2% of values, so about 1% of
rows of six or eight columns), |x| outside [1e-11, 1e34), a subnormal,
+-0, inf or NaN.  So every byte is `%`'s by construction, not by tuning.
The tables are built on first use, not at import.
"""
from __future__ import annotations

import functools

import numpy as np

E_MIN, E_MAX = -11, 33  # exponents e whose scale 10^|11 - e| is exact
TIE_MARGIN = 0.499  # |v - rint(v)| below this fixes the rounding
SLOT = 19  # widest text of a value and its separator: -0.000ddd...d,
# a value's source row: its 3-digit groups in 4-byte words, whose spare
# bytes hold the sign and the separator, then CONSTANTS
SIGN, SEP = 3, 7
CONSTANTS = b"\0.+-e0123456789"
NUL, POINT, PLUS, MINUS, EXP, ZERO = range(16, 22)
ROW = 32
GATHER = 512  # values per gather of their text
CHUNK = 1 << 16  # source-row bytes per chunk of ``write_rows``


def _layout(e: int, sig: int) -> bytes:
    """The source-row bytes of one class's text."""
    d = [4 * (i // 3) + i % 3 for i in range(12)]  # digit i's byte
    out = [SIGN]
    if -4 <= e < 0:
        out += [ZERO, POINT] + [ZERO] * (-e - 1) + d[:sig]
    elif 0 <= e < 12:
        out += d[:e + 1]
        if sig > e + 1:
            out += [POINT] + d[e + 1:sig]
    else:
        out += d[:1] + ([POINT] + d[1:sig] if sig > 1 else [])
        out += [EXP, MINUS if e < 0 else PLUS,
                ZERO + abs(e) // 10, ZERO + abs(e) % 10]
    return bytes(out + [SEP]).ljust(SLOT, bytes([NUL]))


@functools.cache
def _tables():
    """(mul, div, digits, sig, source, layouts): the scale 10^(11 - e) as
    a multiplier and a divisor per e - E_MIN; each 3-digit group's ASCII;
    per place of a group (the first three digits, the next three, ...)
    the significant digits, less one, that its last nonzero digit gives,
    -1 for a zero group; a source row's constants; and each class's
    layout, e - E_MIN major.

    About 20 kB, built without big temporaries or numpy loops the sweep
    does not run, each of which raised the resident set by hundreds of
    kB."""
    mul = np.array([float(10 ** max(11 - e, 0))
                    for e in range(E_MIN, E_MAX + 1)])
    div = np.array([float(10 ** max(e - 11, 0))
                    for e in range(E_MIN, E_MAX + 1)])
    groups = [f"{g:03d}" for g in range(1000)]
    zeros = [3 - len(g.rstrip("0")) for g in groups]
    sig = [np.frombuffer(bytes(255 if z == 3 else 3 * k + 2 - z
                               for z in zeros), np.int8)
           for k in range(4)]
    source = np.frombuffer(bytes(NUL) + CONSTANTS.ljust(ROW - NUL, b"\0"),
                           np.uint8)
    layouts = b"".join(_layout(e, s) for e in range(E_MIN, E_MAX + 2)
                       for s in range(1, 13))  # E_MAX + 1 after a carry
    digits = np.frombuffer("\0".join(groups + [""]).encode(), np.uint32)
    return (mul, div, digits, sig, source,
            np.frombuffer(layouts, f"V{SLOT}"))


def _classes(x, src):
    """Each value's layout class, and whether it takes the fast path;
    writes the digit groups of those that do into the first 16 bytes of
    their row of ``src``."""
    mul, div, digits, sig, _, _ = _tables()
    a = np.abs(x)
    e = np.log10(a)
    np.floor(e, out=e)
    np.fmax(e, E_MIN, out=e)  # also maps NaN, from NaN or 0, to E_MIN
    np.fmin(e, E_MAX, out=e)
    e -= E_MIN
    ix = e.astype(np.intp)
    a *= mul[ix]
    a /= div[ix]
    r = np.rint(a)
    ok = a >= 1e11
    a -= r
    ok &= np.abs(a, out=a) < TIE_MARGIN
    ok &= r <= 1e12
    carry = r == 1e12
    ix += carry
    np.copyto(r, 1e11, where=carry | ~ok)
    q = r.astype(np.intp)
    groups = []
    for place in (10 ** 9, 10 ** 6, 10 ** 3):
        groups.append(q // place)
        q -= groups[-1] * place
    groups.append(q)
    np.ndarray(x.size, "V16", src, strides=src.strides[:1])[...] = \
        digits.take(np.stack(groups, axis=1)).view("V16").ravel()
    within = sig[0].take(groups[0])  # significant digits, less one
    for k in range(1, 4):
        np.maximum(within, sig[k].take(groups[k]), out=within)
    cls = ix
    cls *= 12
    cls += within
    return cls, ok


def rows_text(rows: np.ndarray, nan_rows=None) -> bytes:
    """The CSV bytes of the float rows ``rows[n, c]``: ``(row_fmt * n) %
    values``, encoded.  A row where ``nan_rows`` is set is written as its
    first value and c - 1 ``NaN`` fields.

    It holds about 160 bytes a value at once; ``write_rows`` passes it
    a chunk of 2 048 values or fewer at a time."""
    n, c = rows.shape
    x = np.ascontiguousarray(rows, dtype=float).ravel()
    *_, source, layouts = _tables()
    src = np.tile(source, (x.size, 1))
    with np.errstate(all="ignore"):  # log10(0), and NaN or inf in a cast
        cls, ok = _classes(x, src)
    # after the digit groups, whose words' spare bytes these take
    np.copyto(src[:, SIGN], ord("-"), where=np.signbit(x))
    src[:, SEP] = ord(",")
    src.reshape(n, c, ROW)[:, -1, SEP] = ord("\n")
    slots = layouts.take(cls).view(np.uint8).reshape(x.size, SLOT)
    text = np.empty((x.size, SLOT), np.uint8)
    # each slot's byte in src is its row's start plus the layout's byte;
    # GATHER values at a time, since take's index is 8 bytes a slot
    start = np.arange(0, ROW * x.size, ROW,
                      dtype=np.min_scalar_type(ROW * x.size - 1))[:, None]
    for a in range(0, x.size, GATHER):
        src.ravel().take(slots[a:a + GATHER] + start[a:a + GATHER],
                         out=text[a:a + GATHER])
    text = text.reshape(n, c * SLOT)
    nan = np.zeros(n, bool) if nan_rows is None else nan_rows
    bad = set((np.flatnonzero(~ok) // c).tolist())
    bad.update(np.flatnonzero(nan).tolist())
    if not bad:
        return text.tobytes().translate(None, b"\0")
    x, parts, lo = x.reshape(n, c), [], 0
    for i in sorted(bad):
        parts.append(text[lo:i].tobytes().translate(None, b"\0"))
        parts.append(_percent_row(x[i], nan[i]))
        lo = i + 1
    parts.append(text[lo:].tobytes().translate(None, b"\0"))
    return b"".join(parts)


def write_rows(fh, rows: np.ndarray, nan_rows) -> None:
    """Write ``rows_text(rows, nan_rows)`` to the binary file fh a chunk
    of rows at a time, whose source rows fill at most CHUNK bytes (2 048
    values), so it holds one chunk's text, never the whole table's."""
    step = max(1, CHUNK // (ROW * rows.shape[1]))
    for a in range(0, len(rows), step):
        fh.write(rows_text(rows[a:a + step], nan_rows[a:a + step]))


def _percent_row(row, nan) -> bytes:
    """One row by the %-format itself, or as its first value and NaNs."""
    if nan:
        return ("%.12g" % row[0] + ",NaN" * (len(row) - 1) + "\n").encode()
    return ((",".join(["%.12g"] * len(row)) + "\n")
            % tuple(row.tolist())).encode()
