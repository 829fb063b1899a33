"""``"%.16e" % x`` for whole float64 arrays, byte for byte, in numpy.

A finite nonzero |x| with decimal exponent E prints the 17-digit integer
N = round(|x| * 10**(16 - E)), half to even.  The power of ten is held as a
double-double (hi + lo, exact to about 2**-106; the table of all 635 is
built at import from exact integers, about 2 ms), and Dekker's error-free
product splits |x| * hi into its rounded value p and exact error, so
p + t carries |x| * 10**(16 - E) to about 1e-14 units of N: enough to round
every cell except those within ``_TIE_GUARD`` of a half-way point.  Those
cells, and the non-finite ones, are formatted by Python's ``%`` instead.
Values beyond 1e+-250 are pre-scaled by 2**-+200, which is exact, so that no
intermediate overflows or underflows.

References: T. J. Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18 (1971); U. Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # "-d.dddddddddddddddde-ddd", the longest cell; shorter ones pad with 0

_TIE_GUARD = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1
_E_MIN, _E_MAX = -325, 309  # decimal exponents of float64, plus one each way
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 1)
_SHIFT = np.where(_EXPONENTS < -250, 200, np.where(_EXPONENTS > 250, -200, 0))
_ZERO, _DOT, _E, _PLUS, _MINUS = (ord(c) for c in "0.e+-")


def _power(e: int, shift: int) -> tuple[float, float]:
    """10**(16 - e) * 2**-shift as hi + lo, from exact integers."""
    k = 16 - e
    num = 10 ** max(k, 0) << max(-shift, 0)
    den = 10 ** max(-k, 0) << max(shift, 0)
    hi = num / den  # int / int rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


_HI, _LO = np.array([_power(int(e), int(s))
                     for e, s in zip(_EXPONENTS, _SHIFT)]).T


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + t = a * 10**(16 - e): p the rounded product, t what it left out."""
    index = e - _E_MIN
    hi, lo = _HI[index], _LO[index]
    x = np.ldexp(a, _SHIFT[index])
    p = x * hi
    x_hi, x_lo = _split(x)
    h_hi, h_lo = _split(hi)
    error = ((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo
    return p, error + x * lo


def format_e16(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.16e" % v`` for every v, as uint8 of shape
    ``values.shape + (WIDTH,)``, each cell padded with zero bytes."""
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    size = flat.size
    mag = np.abs(flat)
    cells = np.flatnonzero(np.isfinite(mag) & (mag > 0.0))
    a = mag[cells]
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = np.zeros_like(a), np.zeros_like(a)
    slow = [np.flatnonzero(~np.isfinite(mag))]
    todo = np.arange(cells.size)
    while todo.size:
        p_todo, t_todo = _scaled(a[todo], e[todo])
        # Step E on the unrounded value: below 1e16 - 0.05 it prints one digit
        # further down; from 1e16 - 0.05 to 1e16 both exponents round to the
        # same digits, and taking E there stops the exact powers of ten, whose
        # scaled value sits within round-off of 1e16, from flipping E.
        below = (p_todo - 1e16) + t_todo + 0.05
        above = (p_todo - 1e17) + t_todo + 0.5
        near = np.abs(below) < _TIE_GUARD
        down, up = (below < 0.0) & ~near, (above >= 0.0) & ~near
        done = ~(near | down | up)
        p[todo[done]], t[todo[done]] = p_todo[done], t_todo[done]
        slow.append(cells[todo[near]])
        e[todo[down]] -= 1
        e[todo[up]] += 1
        todo = todo[down | up]
    floor = np.floor(t)
    frac = t - floor
    tie = np.abs(frac - 0.5) < _TIE_GUARD
    slow.append(cells[tie])

    n_digits = np.zeros(size, dtype=np.int64)  # zeros print as 0.000...e+00
    n_digits[cells] = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    exponent = np.zeros(size, dtype=np.int64)
    exponent[cells] = e
    # nine and eight digits of N, by scalar division of uint32 halves
    quotient = np.stack(np.divmod(n_digits, 10**8), axis=1).astype(np.uint32)
    digits = np.empty((size, 2, 9), dtype=np.uint8)
    for place in range(8, -1, -1):
        quotient, digits[:, :, place] = np.divmod(quotient, np.uint32(10))
    digits += _ZERO
    out = np.zeros((size, WIDTH), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(flat), _MINUS, 0)
    out[:, 1] = digits[:, 0, 0]
    out[:, 2] = _DOT
    out[:, 3:11] = digits[:, 0, 1:]
    out[:, 11:19] = digits[:, 1, 1:]
    out[:, 19] = _E
    out[:, 20] = np.where(exponent < 0, _MINUS, _PLUS)
    magnitude = np.abs(exponent)
    out[:, 21] = np.where(magnitude >= 100, magnitude // 100 + _ZERO, 0)
    out[:, 22] = magnitude // 10 % 10 + _ZERO
    out[:, 23] = magnitude % 10 + _ZERO
    for i in np.concatenate(slow):
        text = ("%.16e" % float(flat[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(np.shape(values) + (WIDTH,))
