"""Byte oracle for the CSV text helper: per-line f-strings joined with \\r\\n."""

import math

import numpy as np

from fluxsense import _csvtext

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 123456789.5, 1e16]


def _oracle(header, rows):
    return "".join(line + "\r\n" for line in [header, *rows])


def test_special_values_match_fstrings():
    text = _csvtext.table("x", "%.9g", [SPECIAL])
    assert text == _oracle("x", [f"{v:.9g}" for v in SPECIAL])


def test_random_bit_patterns_match_fstrings():
    # every float64 bit pattern is fair game: NaN payloads, infinities, subnormals
    bits = np.random.default_rng(20241019).integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    half = len(values) // 2
    columns = [values[:half], values[half:]]
    text = _csvtext.table("a,b", "%.9g,%.9g", columns)
    assert text == _oracle("a,b", [f"{a:.9g},{b:.9g}" for a, b in zip(*columns)])


def test_int_column_matches_fstrings():
    ints = [0, 1, -1, 9, 10**9 + 7, -(2**62), 2**63 - 1, 10**30]
    text = _csvtext.table("n,x", "%d,%.9g", [ints, [0.5] * len(ints)])
    assert text == _oracle("n,x", [f"{n},{0.5:.9g}" for n in ints])


def test_one_row_and_zero_row_tables():
    assert _csvtext.table("a,b", "%d,%.9g", [[3], [0.1]]) == "a,b\r\n3,0.1\r\n"
    assert _csvtext.table("a,b", "%d,%.9g", [[], []]) == "a,b\r\n"
    assert _csvtext.fill("a", "", []) == "a\r\n"


def test_fill_takes_a_prebuilt_row_template():
    body = "".join(f"{label},%.9g\r\n" for label in ("p", "q", "r"))
    text = _csvtext.fill("label,x", body, SPECIAL[:3])
    assert text == _oracle("label,x", [f"{label},{v:.9g}" for label, v in zip("pqr", SPECIAL)])
