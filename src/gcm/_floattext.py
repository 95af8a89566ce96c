"""Python's float and int text for whole arrays, as zero-padded byte rows.

:func:`float_text` gives, for each element of a float64 array, the bytes of
``repr(float(v))``: the shortest decimal that reads back as the same double
and, of those, the one closest to it. The digits come from the Schubfach
algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020), run
over ``uint64`` arrays with no Python call per value; zero, subnormal and
non-finite values, which it does not cover, take ``repr`` once per distinct
bit pattern. :func:`int_text` gives ``str(int(v))`` for int64 arrays, and
:func:`csv_lines` packs rows of such fields into CSV lines.

Each text is one run of bytes in a row of a ``uint8`` matrix, the rest of
the row zero bytes, which no text contains, so ``m[m != 0]`` packs the rows
of a matrix into one string. Every ``uint64`` operand is an ``np.uint64``
so that neither wrap-around nor type promotion depends on the numpy
version; the small exponent arithmetic is ``int64``.
"""

from __future__ import annotations

import numpy as np

#: Columns of a float's text row: a sign, 22 for the digits and the point,
#: and 5 for an exponent (the longest text, 24 bytes, fits too).
FLOAT_WIDTH = 28
#: Columns of an int64's text row: a sign and 21 digits (19 are used).
INT_WIDTH = 22

_U0, _U1, _U2, _U4, _U10, _U40 = (np.uint64(v) for v in (0, 1, 2, 4, 10, 40))
_U32, _U52, _U63, _U64 = (np.uint64(v) for v in (32, 52, 63, 64))
_U10_4, _U10_8, _U10_16 = (np.uint64(10 ** e) for e in (4, 8, 16))
_LOW32 = np.uint64(0xFFFFFFFF)
_EXP_MASK = np.uint64(0x7FF)
_FRACTION_MASK = np.uint64((1 << 52) - 1)
_HIDDEN_BIT = np.uint64(1 << 52)
_ZERO, _DOT, _MINUS, _PLUS, _E = (np.uint8(ord(c)) for c in "0.-+e")

#: Digits of a Schubfach significand, which stays below 10**17.
_SIG_DIGITS = 17
_POW10 = np.array([10 ** e for e in range(_SIG_DIGITS + 1)], dtype=np.uint64)
#: '0's before the significand's digits: the text of "0.000ddd" before them.
_PAD = 4
#: Columns of a digit row: the '0's and the 17 digits.
_DIGIT_COLS = _PAD + _SIG_DIGITS
#: The four digit bytes of each number below 10**4, as one uint32 each:
#: every combination of four digit bytes, in counting order.
_QUADS = np.stack(np.meshgrid(
    *[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"),
    axis=-1).reshape(-1, 4).view(np.uint32).ravel()
#: Row a * _SPAN_ROWS + b is 1 in the columns c of [a, b) of a digit row.
_SPAN_ROWS = _DIGIT_COLS + 1
_SPANS = ((np.arange(_SPAN_ROWS)[:, None, None] <= np.arange(_DIGIT_COLS))
          & (np.arange(_DIGIT_COLS) < np.arange(_SPAN_ROWS)[:, None])
          ).astype(np.uint8).reshape(-1, _DIGIT_COLS)
#: Powers 10**e that Schubfach scales by: e = -k for k from
#: floor(log10(2**-1074)) to floor(log10(2**971)).
_E_MIN, _E_MAX = -292, 324


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of g(e) = floor(10**e * 2**-r) + 1, with r such
    that 2**127 <= 10**e * 2**-r < 2**128, for every e in [_E_MIN, _E_MAX]."""
    gs = []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            p = 10 ** e
            shift = 127 - (p.bit_length() - 1)
            beta = p << shift if shift >= 0 else p >> -shift
        else:
            p = 10 ** -e  # no power of 2, so 2**(bit_length - 1) < p
            beta = (1 << (127 + p.bit_length())) // p
        gs.append(beta + 1)
    return (np.array([g >> 64 for g in gs], dtype=np.uint64),
            np.array([g & ((1 << 64) - 1) for g in gs], dtype=np.uint64))


_G_HI, _G_LO = _g_table()


def _mul_hi_lo(a, b):
    """High and low 64 bits of the 128-bit products of two uint64 arrays,
    from their 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return hi, (mid << _U32) | (p00 & _LOW32)


def _shifted(g_hi, g_lo, s):
    """The 64-bit limbs, lowest first, of g << s for 0 < s < 64."""
    return g_lo << s, (g_hi << s) | (g_lo >> (_U64 - s)), g_hi >> (_U64 - s)


def _shortest(bits):
    """Schubfach on the bits of finite normal doubles: ``s, k`` such that
    ``s * 10**k`` is each magnitude's shortest closest round-trip decimal.

    With c the significand and 2**q the unit, it scales 4c and the interval
    ends 4c - 2 and 4c + 2 (4c - 1 where c is a power of two, whose lower
    neighbour is half as far) by 2**q * 10**-k into vb, lower and upper.
    Each is the 192-bit product p of g(-k) and the end shifted left by h,
    rounded to odd: floor(p / 2**128), its lowest bit set if p has a bit set
    from 2**65 to 2**127. The ends' products are vb's plus or minus g shifted
    left, so one multiplication serves all three.
    """
    biased = ((bits >> _U52) & _EXP_MASK).astype(np.int64)
    fraction = bits & _FRACTION_MASK
    c = fraction | _HIDDEN_BIT
    q = biased - 1075
    closer = (fraction == _U0) & (biased > 1)
    # floor(log10(2**q)), or of 3/4 * 2**q where c is a power of two
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # 1..4
    g_hi, g_lo = _G_HI[-k - _E_MIN], _G_LO[-k - _E_MIN]
    cp = c << (h + _U2)
    x_hi, p0 = _mul_hi_lo(g_lo, cp)
    p2, p1 = _mul_hi_lo(g_hi, cp)
    p1 += x_hi
    p2 += p1 < x_hi
    vb = p2 | (p1 > _U1)
    d0, d1, d2 = _shifted(g_hi, g_lo, h + _U1)  # g * (2 << h)
    t = p1 + d1
    r1 = t + (p0 + d0 < d0)
    upper = (p2 + d2 + ((t < d1) | (r1 < t))) | (r1 > _U1)
    d0, d1, d2 = _shifted(g_hi, g_lo, h + _U1 - closer)
    t = p1 - d1
    r1 = t - (p0 < d0)
    lower = (p2 - d2 - ((p1 < d1) | (t < r1))) | (r1 > _U1)
    odd = c & _U1  # an even significand's interval keeps its ends
    lower += odd
    upper -= odd
    # a multiple of 40 in [lower, upper] is a decimal one digit shorter than
    # s = vb // 4; at most one lies there
    s = vb >> _U2
    sp = vb // _U40
    sp_up = sp * _U40 + _U40 <= upper
    short = (s >= _U10) & ((lower <= sp * _U40) != sp_up)
    # else s or s + 1, whichever alone is inside, or the closer, ties to even
    s4 = s << _U2
    u_in, w_in = lower <= s4, s4 + _U4 <= upper
    mid = s4 + _U2
    near_up = (vb > mid) | ((vb == mid) & (s & _U1 == _U1))
    long = s + ((u_in != w_in) & w_in | (u_in == w_in) & near_up)
    return long + short * (sp + sp_up - long), k + short


def _digit_text(u):
    """Digit bytes of uint64 values below 10**20, right-aligned in 24
    columns and padded with '0', four at a time from :data:`_QUADS`."""
    out = np.empty((len(u), 6), dtype=np.uint32)
    out[:, 0] = _QUADS[0]
    top = u // _U10_16
    out[:, 1] = _QUADS[top]
    rest = u - top * _U10_16
    for j, v in ((2, rest // _U10_8), (4, rest % _U10_8)):
        hi = v // _U10_4
        out[:, j] = _QUADS[hi]
        out[:, j + 1] = _QUADS[v - hi * _U10_4]
    return out.view(np.uint8)


def _normal_text(bits):
    """Rows of ``repr`` text for finite normal doubles, given their bits.

    The digits are written with the point inserted into columns 1 to 22, the
    sign just before them and an exponent just after, so a row's text is one
    run of nonzero bytes.
    """
    s, k = _shortest(bits)
    length = np.searchsorted(_POW10, s, side="right")  # digits in s
    # the 17 digits of s * 10**(17 - length), after _PAD '0's: digit i of
    # the value sits in column _PAD + i
    digits = _digit_text(s * _POW10[_SIG_DIGITS - length])[:, -_DIGIT_COLS:]
    nd = _SIG_DIGITS - (digits[:, :_PAD - 1:-1] != _ZERO).argmax(axis=1)
    decpt = k + length  # value = 0.d1d2... * 10**decpt
    fixed = (decpt > -4) & (decpt <= 16)
    # the text is the digit columns [start, end), the point before column
    # `point`: one digit before it in scientific notation; in fixed notation
    # the trailing '0's to it and one after it, or, below 1, the "0" and the
    # -decpt '0's that lead the digits
    point = _PAD + 1 + fixed * (decpt - 1)
    start = np.minimum(point - 1, _PAD)
    end = _PAD + np.maximum(nd, fixed * (decpt + 1))
    dotted = fixed | (nd > 1)
    out = np.zeros((len(bits), FLOAT_WIDTH), dtype=np.uint8)
    np.multiply(digits, _SPANS[start * _SPAN_ROWS + point],
                out=out[:, 1:1 + _DIGIT_COLS])
    out[:, 2:2 + _DIGIT_COLS] += digits * _SPANS[point * _SPAN_ROWS + end]
    flat = out.reshape(-1)
    rows = np.arange(0, out.size, FLOAT_WIDTH)
    flat[rows + 1 + point] = dotted * _DOT
    flat[rows + start] = (bits >> _U63) * _MINUS
    sci = np.flatnonzero(~fixed)
    if len(sci):
        exp = decpt[sci] - 1
        mag = np.abs(exp)
        at = rows[sci] + (1 + end + dotted)[sci]
        flat[at] = _E
        flat[at + 1] = np.where(exp < 0, _MINUS, _PLUS)
        wide = mag >= 100  # two exponent digits at least
        flat[at[wide] + 2] = mag[wide] // 100 + _ZERO
        at += wide
        flat[at + 2] = mag // 10 % 10 + _ZERO
        flat[at + 3] = mag % 10 + _ZERO
    return out


def _repr_text(values):
    """Rows of ``repr`` text, one ``repr`` call per distinct bit pattern
    (so 0.0 and -0.0 stay apart)."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([repr(v).encode() for v in bits.view(np.float64).tolist()],
                    dtype=f"S{FLOAT_WIDTH}")
    return text.view(np.uint8).reshape(-1, FLOAT_WIDTH)[inverse.ravel()]


def float_text(x) -> np.ndarray:
    """``repr(float(v))`` of each element of ``x`` as a row of
    :data:`FLOAT_WIDTH` bytes, one run of text among zero bytes."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    biased = (bits >> _U52) & _EXP_MASK
    special = (biased == _U0) | (biased == _EXP_MASK)
    if not special.any():
        return _normal_text(bits)
    out = np.empty((len(x), FLOAT_WIDTH), dtype=np.uint8)
    out[special] = _repr_text(x[special])
    out[~special] = _normal_text(bits[~special])
    return out


def int_text(x) -> np.ndarray:
    """``str(int(v))`` of each element of ``x`` (cast to int64) as a row of
    :data:`INT_WIDTH` bytes, one run of text among zero bytes."""
    x = np.ascontiguousarray(x, dtype=np.int64).ravel()
    u = x.view(np.uint64)
    sign = u >> _U63
    # |x|, -2**63 included, in the last _DIGIT_COLS of its digit row
    digits = _digit_text((u ^ (_U0 - sign)) + sign)[:, -_DIGIT_COLS:]
    nonzero = digits != _ZERO
    nonzero[:, -1] = True  # 0 keeps its one digit
    first = nonzero.argmax(axis=1)
    out = np.zeros((len(x), INT_WIDTH), dtype=np.uint8)
    np.multiply(digits, _SPANS[first * _SPAN_ROWS + _DIGIT_COLS],
                out=out[:, 1:])
    out.reshape(-1)[np.arange(0, out.size, INT_WIDTH) + first] = sign * _MINUS
    return out


def csv_lines(fields) -> bytes:
    """Join rows of fields into CSV lines, each ended by a newline.

    Each field is a matrix of zero-padded text rows, one per line, or
    ``bytes`` shared by every line.
    """
    n = min(len(f) for f in fields if not isinstance(f, bytes))
    fields = [np.frombuffer(f, dtype=np.uint8)[None] if isinstance(f, bytes)
              else f for f in fields]
    out = np.empty((n, sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    col = 0
    for f in fields:
        out[:, col:col + f.shape[1]] = f
        col += f.shape[1] + 1
        out[:, col - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes()
