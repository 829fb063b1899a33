"""The array formatters against Python's own, cell by cell."""

import math
import subprocess
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import child_env
from qdetnoise._format import WIDTH, format_e16, format_repr


def texts(formatter, cells):
    rows = formatter(np.array(cells, dtype=float))
    assert rows.shape == (len(cells), WIDTH)
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


def assert_like_python(cells):
    cells = [float(c) for c in cells]
    assert texts(format_repr, cells) == [repr(c) for c in cells]
    assert texts(format_e16, cells) == ["%.16e" % c for c in cells]


def around(value, ulps):
    """``value`` and its ``ulps`` neighbours either side, in both signs."""
    cells, below, above = [value], value, value
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        cells += [below, above]
    return cells + [-c for c in cells]


def test_every_power_of_two_and_its_neighbours():
    # the interval below a power of two is half as wide as above it
    assert_like_python([c for k in range(-1074, 1024) for c in around(2.0**k, 1)])


def test_every_power_of_ten_two_ulps_either_side():
    assert_like_python([c for k in range(-323, 309) for c in around(float(f"1e{k}"), 2)])


def test_layout_edges_two_ulps_either_side():
    # fixed notation for 1e-4 <= |x| < 1e16, d[.ddd]e+-XX beyond
    cells = [c for edge in (1e-5, 1e-4, 1e15, 1e16, 1e17) for c in around(edge, 2)]
    assert_like_python(cells + [0.0, -0.0])


def test_subnormals_and_the_smallest_normal():
    tiny = 2.2250738585072014e-308
    assert_like_python(around(5e-324, 2) + around(tiny, 2) + around(tiny / 2, 2))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    cells = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_like_python(cells[np.isfinite(cells)])


@given(st.lists(st.integers(1, 2**52 - 1), min_size=1, max_size=32))
def test_random_subnormals(patterns):
    assert_like_python(np.array(patterns, dtype=np.uint64).view(np.float64))


@given(st.lists(st.integers(0, 2**53), min_size=1, max_size=32))
def test_integers_up_to_two_to_the_53_and_their_neighbours(integers):
    assert_like_python([c for i in integers for c in around(float(i), 1)])


def test_powers_of_ten_are_built_when_first_needed():
    # a fresh import builds none; a cell builds the power of its own exponent
    code = ("import numpy as np\n"
            "from qdetnoise import _format\n"
            "assert np.isnan(_format._HI).all()\n"
            "cells = [1.5, -2e300]\n"
            "rows = _format.format_e16(np.array(cells))\n"
            "assert [bytes(r[r != 0]) for r in rows] == [b'%.16e' % c for c in cells]\n"
            "built = np.flatnonzero(~np.isnan(_format._HI)) + _format._E_MIN\n"
            "assert built.tolist() == [0, 300], built\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
