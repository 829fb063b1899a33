"""Float64 arrays as text, byte for byte, in numpy: one digit stage, two layouts.

``format_e16`` writes ``"%.16e" % x`` and ``format_repr`` writes
``float.__repr__(x)``.  Both start from the same digit stage.  A finite
nonzero |x| with decimal exponent E has the 17-digit integer
N = round(|x| * 10**(16 - E)), half to even.  The power of ten is held as a
double-double (hi + lo, exact to about 2**-106), built from exact integers
the first time a cell needs its E and kept: all 635 take about 4 ms, more
than a short table needs.  Dekker's error-free product splits |x| * hi
into its rounded value p and exact error t, so p + t carries
|x| * 10**(16 - E) to about 1e-14 units of N: enough to round every cell
except those within ``_TIE_GUARD`` of a half-way point.  Values
beyond 1e+-250 are pre-scaled by 2**-+200, which is exact, so that no
intermediate overflows or underflows.

``%.16e`` prints N.  ``repr`` prints the shortest digits that read back as
x, and of those the nearest to x.  In units of N, half an ulp of a normal x
is 0.55 to 11.1, so its rounding interval holds at most one multiple of 100.
If that one reads back, no candidate of 15 digits or fewer other than it
does, and its trailing zeros give the length.  Otherwise the nearest
multiple of 10 is tested; for a power of two, whose interval below is half
as wide as above, so is the next one up.  If neither reads back, N is the
answer.  Its layout is fixed notation for 1e-4 <= |x| < 1e16 and
``d[.ddd]e+-XX`` otherwise.

Both layouts are built in 64-bit words, eight digits to a word by
multiply-and-shift division, and return rows of ``WIDTH`` bytes whose
nonzero bytes, in order, are the text.  Cells within the guard of a step of
E, a tie or an interval's edge, and subnormals, whose wide intervals hold
many candidates, are formatted by Python instead.  Every cell must be finite.

References: T. J. Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18 (1971); G. L. Steele and J. L. White,
"How to print floating-point numbers accurately", PLDI 1990; U. Adams,
"Ryu: fast float-to-string conversion", PLDI 2018, and "Ryu revisited:
printf floating point conversion", OOPSLA 2019.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # "-d.dddddddddddddddde-ddd", the longest cell

_TIE_GUARD = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1
_E_MIN, _E_MAX = -325, 309  # decimal exponents of float64, plus one each way
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 1)
_SCALE = np.where(_EXPONENTS < -250, 2.0**200, np.where(_EXPONENTS > 250, 2.0**-200, 1.0))
_TINY = 2.2250738585072014e-308  # the smallest normal float64
_ZERO, _DOT, _E, _PLUS, _MINUS = (ord(c) for c in "0.e+-")
_ZEROS = 0x3030303030303030  # "0" in every byte of a word
_LEADING = 0x3030302E30  # "0.000", little-endian


def _power(e: int, scale: float) -> tuple[float, float]:
    """10**(16 - e) / scale as hi + lo, from exact integers."""
    k = 16 - e
    s_num, s_den = scale.as_integer_ratio()
    num, den = 10 ** max(k, 0) * s_den, 10 ** max(-k, 0) * s_num
    hi = num / den  # int / int rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


# hi and lo of each E, NaN until _scaled first needs them
_HI, _LO = np.full((2, _EXPONENTS.size), np.nan)
# "e", the sign and two or three digits of each exponent, as a little-endian word
_EXPONENT_WORDS = np.array([int.from_bytes(b"e%+03d" % e, "little") for e in _EXPONENTS],
                           dtype=np.uint64)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + t = a * 10**(16 - e): p the rounded product, t what it left out."""
    index = e - _E_MIN
    hi = _HI[index]
    if np.isnan(hi).any():
        needed = np.bincount(index, minlength=_HI.size) > 0
        for i in np.flatnonzero(needed & np.isnan(_HI)).tolist():
            high, low = _power(i + _E_MIN, float(_SCALE[i]))
            _LO[i] = low  # before hi, which marks the entry as filled
            _HI[i] = high
        hi = _HI[index]
    lo = _LO[index]
    x = a * _SCALE[index]
    p = x * hi
    x_hi, x_lo = _split(x)
    h_hi, h_lo = _split(hi)
    error = ((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo
    return p, error + x * lo


def _digit_stage(flat: np.ndarray):
    """|x| = a (1 for a zero cell), decimal exponents E and p + t =
    a * 10**(16 - E) in [1e16 - 0.05, 1e17 - 0.5), with p a whole number;
    N = p + t rounded half to even; and the cells within the guard of a step
    of E or a tie of N.  A zero cell has N = 0 and E = 0."""
    a = np.abs(flat)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e)
    while True:
        # Step E on the unrounded value: below 1e16 - 0.05 it prints one digit
        # further down; from 1e16 - 0.05 to 1e16 both exponents round to the
        # same digits, and taking E there stops the exact powers of ten, whose
        # scaled value sits within round-off of 1e16, from flipping E.
        below = (p - 1e16) + t + 0.05
        near = np.abs(below) < _TIE_GUARD
        step = ((p - 1e17) + t + 0.5 >= 0.0).astype(np.int64) - (below < 0.0)
        moved = np.flatnonzero(step * ~near)
        if not moved.size:
            break
        e[moved] += step[moved]
        p[moved], t[moved] = _scaled(a[moved], e[moved])
    floor = np.floor(t)
    frac = t - floor
    n = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    n[zero], e[zero] = 0, 0
    return a, e, p, t, n, np.flatnonzero(near | (np.abs(frac - 0.5) < _TIE_GUARD))


def _digit_words(n: np.ndarray) -> list[np.ndarray]:
    """The 17 decimal digits of each 0 <= n < 1e17, as ASCII in bytes 0-16
    of three little-endian uint64 words, one array per word."""
    n = n.astype(np.uint64)
    high = n // 10**8
    first = high * 720575941 >> 56  # // 10**8, exact below 10**9
    x = np.stack([high - first * 10**8, n - high * 10**8])
    # each step splits every lane in two by a multiply-and-shift division
    quotient = x * 109951163 >> 40  # // 10000, exact below 10**8
    x = quotient | (x - quotient * 10000) << 32
    quotient = (x * 5243 >> 19) & 0x0000007F0000007F  # // 100 in each lane
    x = quotient | (x - quotient * 100) << 16
    quotient = (x * 103 >> 10) & 0x000F000F000F000F  # // 10 in each lane
    x = quotient | (x - quotient * 10) << 8 | _ZEROS
    return [first + _ZERO | x[0] << 8, x[0] >> 56 | x[1] << 8, x[1] >> 56]


def _rows(words: list[np.ndarray], negative: np.ndarray) -> np.ndarray:
    """Three words per row as bytes, with the sign put in byte 0."""
    words[0] |= negative.astype(np.uint64) * _MINUS
    return np.stack(words, axis=1).astype("<u8", copy=False).view(np.uint8)


def _by_python(out: np.ndarray, flat: np.ndarray, slow: np.ndarray, form) -> None:
    for i in slow:
        text = form(float(flat[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def format_e16(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.16e" % v`` for every finite v, as uint8 of shape
    ``values.shape + (WIDTH,)``: each cell's nonzero bytes, in order."""
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    _, e, _, _, n, slow = _digit_stage(flat)
    low, mid, high = _digit_words(n)
    # d0 and the dot in bytes 1-2, then 16 digits and the exponent
    words = [(low & 0xFF) << 8 | _DOT << 16 | low >> 8 << 24, low >> 48 | mid << 16,
             mid >> 48 | high << 16 | _EXPONENT_WORDS[e - _E_MIN] << 24]
    out = _rows(words, np.signbit(flat))
    _by_python(out, flat, slow, "%.16e".__mod__)
    return out.reshape(np.shape(values) + (WIDTH,))


# Byte c of a row is byte c - 8k of word k.  Per word k and c = 0..WIDTH:
# the mask of the bytes before c, and a dot at c (none at 0).
_START = np.arange(WIDTH + 1) - 8 * np.arange(WIDTH // 8)[:, None]
_BELOW = (np.uint64(1) << (8 * np.clip(_START, 0, 8)).astype(np.uint64)) - np.uint64(1)
_POINT = np.where((_START >= 0) & (_START < 8) & (np.arange(WIDTH + 1) > 0),
                  _DOT << 8 * np.clip(_START, 0, 7), 0).astype(np.uint64)


def _later(words: list[np.ndarray], count: np.ndarray) -> list[np.ndarray]:
    """Each row's bytes ``count`` < 8 places later, with zeros before
    (a shift by 64 bits gives 0)."""
    bits = (8 * count).astype(np.uint64)
    carry = np.uint64(64) - bits
    return [words[0] << bits] + [word << bits | before >> carry
                                 for before, word in zip(words, words[1:])]


def format_repr(values: np.ndarray) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for every finite v, as uint8 of shape
    ``values.shape + (WIDTH,)``: each cell's nonzero bytes, in order."""
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    a, e, p, t, n, slow = _digit_stage(flat)
    # half an ulp of a in units of N, and below a power of two half of that
    fraction = np.frexp(a)[0]
    half = p / fraction * 2.0**-54
    below = np.where((fraction == 0.5) & (a > _TINY), 0.5 * half, half)
    # c - (p + t) for the multiples c of 100 and of 10 nearest to p + t, and
    # for the next multiple of 10 up
    whole = p.astype(np.int64)
    rest = whole % 100 + t
    d10 = 10.0 * np.rint(rest / 10.0) - rest
    shifts = np.stack([100.0 * np.rint(rest / 100.0) - rest, d10, d10 + 10.0])
    lower, upper = shifts + below, half - shifts
    undecided = ((np.minimum(np.abs(lower), np.abs(upper)) < _TIE_GUARD).any(axis=0)
                 | (np.abs(np.abs(d10) - 5.0) < _TIE_GUARD) | (a < _TINY))
    slow = np.concatenate([slow, np.flatnonzero(undecided)])
    inside = (lower > 0.0) & (upper > 0.0)
    shift = np.where(inside[0], shifts[0],
                     np.where(inside[1], d10, np.where(inside[2], shifts[2], 0.0)))
    n = np.where(n > 0, whole + np.rint(t + shift).astype(np.int64), 0)
    carry = n == 10**17
    n[carry] = 10**16
    exponent = e + carry
    digits = _digit_words(n)  # zeros print as 0.0
    # the bytes up to the last nonzero digit of a word: each nonzero digit
    # sets the top bit of its byte, and the highest one sets the exponent
    last = [np.frexp(((word ^ _ZEROS) + 0x7F7F7F7F7F7F7F7F & 0x8080808080808080)
                     .astype(float))[1] >> 3 for word in digits[:2]]
    significant = np.where((digits[2] & 0xFF) != _ZERO, 17,
                           np.where(last[1] > 0, 8 + last[1], np.maximum(last[0], 1)))
    fixed = (exponent >= -4) & (exponent < 16)
    point = fixed & (exponent >= 0)  # the dot after digit E
    leading = fixed & ~point  # "0.000" in bytes 1-5, the digits after it
    printed = np.where(point, np.maximum(significant, exponent + 2), significant)
    digits = [word & mask[printed] for word, mask in zip(digits, _BELOW)]
    dot = np.where(point, exponent + 1, ~fixed & (significant > 1))
    start = np.where(leading, 6, 1)
    before = [word & mask[dot] for word, mask in zip(digits, _BELOW)]
    mark = np.where(dot > 0, dot + start, 0)
    words = [low | high | point_at[mark] for low, high, point_at in zip(
        _later(before, start),
        _later([word ^ low for word, low in zip(digits, before)], start + (dot > 0)),
        _POINT)]
    words[0] |= (_LEADING & _BELOW[0][np.where(leading, 1 - exponent, 0)]) << 8
    # bytes 19-23 hold the exponent, after at most a sign, 17 digits and a dot
    words[2] |= np.where(fixed, 0, _EXPONENT_WORDS[exponent - _E_MIN]) << 24
    out = _rows(words, np.signbit(flat))
    _by_python(out, flat, slow, repr)
    return out.reshape(np.shape(values) + (WIDTH,))
