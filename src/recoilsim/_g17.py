"""``format(v, ".17g")`` for a whole float64 array in a few numpy passes.

CPython formats one float at a time with Gay's correctly rounded
conversion.  Here the 17 digits of every element come at once, from an
exact scaling by a power of ten held to 106 bits (in the spirit of Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019), and the
few elements that scaling cannot settle are formatted one at a time.

``slots(values)`` returns one row of ``WIDTH`` bytes per value.  Each row
holds the value's text in fixed places, and the places a value does not use
hold zero bytes, so the text of a run of rows is the row bytes with the
zeros dropped (``row[row != 0]``).  The places are:

====== ===============================================================
0      ``-`` for a negative value, -0.0 included, and zero otherwise
1-5    ``0.000``, as much of it as a value below 1e-1 needs (``0.`` to
       ``0.000``) in fixed notation
6-23   the 17 digits with the decimal point among them
24-28  ``e``, the exponent's sign and its two or three digits
====== ===============================================================

A value formatted one at a time keeps its sign in place 0 and its text from
place 1 on.  So for every value but NaN, whose text has no sign, negating
it flips place 0 between ``-`` and zero and changes no other byte.

The digits are those of the integer ``N = round(|v| 10^(16 - X))``, with
``X`` the decimal exponent that puts ``N`` in ``[10^16, 10^17)``.  ``N`` is
found from ``|v| = m 2^e`` (``np.frexp``, exact) and a table of
``10^k = (hi + lo) 2^b``, ``hi`` in ``[1, 2]``, built once with integer
arithmetic so that ``hi + lo`` is ``10^k 2^-b`` rounded to 106 bits:

    s = m (hi + lo) 2^(e + b),    k = 16 - X.

Error bound.  Dekker's product gives ``m hi = p + err`` exactly (no
overflow or underflow: ``m`` in ``[0.5, 1)``, ``hi`` in ``[1, 2]``).  The
rest of ``m (hi + lo)`` is ``low = fl(err + fl(m lo))``.  With
``|err| <= ulp(p) / 2 <= 2^-53`` and ``|lo| <= 2^-53``:

* the table's ``hi + lo`` misses ``10^k 2^-b`` by at most ``2^-106``, half
  a unit of ``M``, and ``m < 1`` keeps that so;
* ``fl(m lo)``, below ``2^-53`` in size, is off by at most ``2^-106``;
* the sum, below ``2^-52`` in size, is off by at most ``2^-105``.

So ``p + low`` is within ``2^-104`` of the exact ``m 10^k 2^-b``.  Scaling
by ``2^(e + b)`` is exact, and that factor is at most ``2 s`` since
``m (hi + lo) >= 1/2``: below ``2^58`` for ``s < 10^17``, where ``X`` is
right.  The computed ``s = p 2^(e + b) + low 2^(e + b)`` therefore misses
the exact one by at most ``2^-46``, about 1.4e-14.  ``p 2^(e + b)`` is an
integer once ``s >= 2^53``, so ``s``'s fraction is that of
``low 2^(e + b)``, taken exactly by ``y - floor(y)``.  Rounding the
computed ``s`` gives the correctly rounded ``N`` whenever that fraction is
farther than ``2^-46`` from 1/2.  ``TIE`` = 1e-9 is far wider than that: a
value whose fraction lies within it of 1/2 (exact ties among them, which
``%.17g`` rounds half to even), a value that is not finite, and a value
whose ``X`` two tries of ``floor(log10 |v|)`` did not settle are formatted
one at a time with ``format(v, ".17g")``.

``%.17g`` prints ``X`` in ``[-4, 17)`` in fixed notation and every other
``X`` as ``d.ddde±XX`` (three exponent digits from 100 on), drops trailing
zeros after the point, and drops the point when no digit follows it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["WIDTH", "slots"]

WIDTH = 29
TIE = 1e-9             # half-integer distance below which a value goes one at a time
_DIGITS = 6            # first column of the digits
_EXPONENT = 24         # first column of the exponent
_CHUNK = 1 << 15       # values per pass
_K_MIN, _K_MAX = -293, 342   # k = 16 - X for every finite nonzero double, with slack


@functools.cache
def _power_table():
    """``(hi, hi's two halves, lo, b)`` arrays over ``k`` in
    ``[_K_MIN, _K_MAX]``: ``hi + lo`` is ``10^k / 2^b`` rounded to the
    106-bit integer ``M / 2^105``, with ``2^b <= 10^k < 2^(b + 1)``."""
    hi, lo, b = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        num, den = (num << 105 - e, den) if e <= 105 else (num, den << e - 105)
        m = (2 * num + den) // (2 * den)          # in [2^105, 2^106)
        h = (m + (1 << 52)) >> 53                 # the top 53 bits, rounded
        hi.append(float(h) / 2.0**52)
        lo.append(float(m - (h << 53)) / 2.0**105)
        b.append(e)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo), np.array(b, np.int32))


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits each."""
    c = 134217729.0 * a                           # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(a, x):
    """``floor(s)`` as int64 and ``s - floor(s)`` for ``s = a 10^(16 - x)``,
    exact from ``s >= 2^53`` on.  Below, where ``x`` is one too large, the
    int64 is still below ``10^16``, and :func:`_fill` takes the other ``x``."""
    k = (16 - _K_MIN - x).astype(np.intp)
    hi, hh, hl, lo, b = (np.take(column, k) for column in _power_table())
    m, e = np.frexp(a)
    p = m * hi
    mh, ml = _split(m)
    low = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    shift = e + b
    whole = np.ldexp(p, shift)
    rest = np.ldexp(low, shift)
    below = np.floor(rest)
    return whole.astype(np.int64) + below.astype(np.int64), rest - below


def slots(values, out=None) -> np.ndarray:
    """The ``(size, WIDTH)`` uint8 slots of ``format(v, ".17g")`` for each
    element ``v`` of the float64 array ``values``, in C order, written into
    ``out`` if given: an array of that shape, or a view of one."""
    v = np.asarray(values, dtype=float).ravel()
    if out is None:
        out = np.empty((v.size, WIDTH), np.uint8)
    # In pieces whose temporaries stay in cache: measured a third faster
    # than one pass over 155 043 values.
    for start in range(0, v.size, _CHUNK):
        _fill(v[start:start + _CHUNK], out[start:start + _CHUNK])
    return out


def _fill(v, out):
    """Write the slots of ``v`` into ``out``, every place of every row."""
    finite = np.isfinite(v)
    zero = v == 0.0
    # Zeros and non-finite values go through as 1.0, whose text "1" is
    # patched to "0" below or replaced whole.
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    x = np.floor(np.log10(a)).astype(np.int32)
    n, frac = _scaled(a, x)
    # floor(log10) can miss by one next to a power of ten: take the other
    # exponent once, and leave whatever is still out of range to format().
    off = (n >= 10**17).astype(np.int32) - (n < 10**16)
    retry = np.flatnonzero(off)
    if retry.size:
        x[retry] += off[retry]
        n[retry], frac[retry] = _scaled(a[retry], x[retry])
    n += frac > 0.5
    unsettled = (n < 10**16) | (n > 10**17)
    carry = n == 10**17                           # 99...9.5 and up rounds to 10^17
    n[carry] = 10**16
    x += carry

    # The digits, most significant first, and how many are significant.
    digits = np.empty((17, v.size), np.uint8)
    upper = (n // 10**9).astype(np.uint32)
    halves = [upper, (n - upper.astype(np.int64) * 10**9).astype(np.uint32)]
    for c in range(16, -1, -1):
        part = halves[c > 7]
        tens = part // 10
        digits[c] = part - tens * 10
        halves[c > 7] = tens
    nd = np.full(v.size, 17, np.int8)
    ends = np.flatnonzero(digits[16] == 0)
    trailing = np.ones(ends.size, bool)
    for c in range(16, 0, -1):
        trailing &= digits[c, ends] == 0
        nd[ends] -= trailing
    digits += ord("0")

    fixed = (x >= -4) & (x < 17)
    # The point's column among the 18 digit columns, and how many digits
    # print: the point's column is 18 (none) in fixed notation below 1,
    # whose point is in the prefix, and the digits up to the point always
    # print, after it only the significant ones.
    point = np.where(fixed, np.where(x >= 0, x + 1, 18), 1).astype(np.int8)
    last = np.where(fixed & (x >= 0), np.maximum(nd, point), nd)
    dot = np.where(nd > point, np.uint8(ord(".")), np.uint8(0))
    for c in range(18):
        column = dot * (point == c)
        if c < 17:
            column += digits[c] * ((c < point) & (c < last))
        if c:
            column += digits[c - 1] * ((c > point) & (c <= last))
        out[:, _DIGITS + c] = column
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    small = fixed & (x < 0)
    for c, char in enumerate(b"0.000"):
        out[:, 1 + c] = small * (c <= -x) * np.uint8(char)
    expo = ~fixed
    mag = np.abs(x)
    out[:, _EXPONENT] = expo * np.uint8(ord("e"))
    out[:, _EXPONENT + 1] = expo * np.where(x < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    out[:, _EXPONENT + 2] = (expo & (mag >= 100)) * (ord("0") + mag // 100)
    out[:, _EXPONENT + 3] = expo * (ord("0") + mag // 10 % 10)
    out[:, _EXPONENT + 4] = expo * (ord("0") + mag % 10)
    out[zero, _DIGITS] = ord("0")

    alone = np.flatnonzero(~finite | unsettled | (np.abs(frac - 0.5) < TIE))
    for i in alone.tolist():
        text = format(float(v[i]), ".17g").encode("ascii").removeprefix(b"-")
        out[i, 1:] = 0
        out[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        out[i, 0] *= text != b"nan"
