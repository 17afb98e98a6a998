import math
import random
from fractions import Fraction

import pytest

from antibidiag import TolerancePolicy, float64, rational
from antibidiag.errors import BackendUnsupported

from oracles import frac_equal, rational_op_oracle


def test_policy_rejects_nonpositive_tolerances():
    with pytest.raises(ValueError):
        TolerancePolicy(eq_abs=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(root_tol=-1e-3)
    for bad in (math.nan, math.inf):
        for field in ("eq_abs", "eq_rel", "root_tol"):
            with pytest.raises(ValueError):
                TolerancePolicy(**{field: bad})


def test_approx_equal_identity_and_band(fb):
    assert fb.approx_equal(1.0, 1.0)
    assert fb.approx_equal(0.0, fb.policy.eq_abs / 2)
    assert not fb.approx_equal(0.0, 1.0)


def test_approx_equal_symmetric_reflexive(fb):
    rng = random.Random(7)
    for _ in range(200):
        x = rng.uniform(-10, 10)
        y = x + rng.uniform(-1e-9, 1e-9)
        assert fb.approx_equal(x, x)
        assert fb.approx_equal(x, y) == fb.approx_equal(y, x)


def test_rational_truncation_is_unequal(rb):
    third = Fraction(1, 3)
    truncated = Fraction(333_333_333, 1_000_000_000)
    assert not rb.approx_equal(third, truncated)
    assert rb.approx_equal(third, Fraction(2, 6))


def test_rational_ops_match_cross_multiplication_oracle(rb):
    rng = random.Random(123)
    ops = "+-*/"
    for _ in range(1000):
        a, c = rng.randint(-500, 500), rng.randint(-500, 500)
        b, d = rng.randint(1, 500), rng.randint(1, 500)
        op = rng.choice(ops)
        if op == "/" and c == 0:
            op = "+"
        x, y = Fraction(a, b), Fraction(c, d)
        got = {"+": x + y, "-": x - y, "*": x * y, "/": x / y if c else None}[op]
        num, den = rational_op_oracle(a, b, c, d, op)
        assert frac_equal(num, den, got)
        # canonical form: gcd-reduced, sign on the numerator
        from math import gcd

        assert gcd(abs(got.numerator), got.denominator) == 1
        assert got.denominator > 0


def test_sqrt_only_in_float_backend(fb, rb):
    assert fb.sqrt(4.0) == 2.0
    with pytest.raises(BackendUnsupported):
        rb.sqrt(Fraction(4))


def test_convert(fb, rb):
    assert fb.convert(Fraction(1, 2)) == 0.5
    assert rb.convert(0.5) == Fraction(1, 2)
    assert rb.convert("2/3") == Fraction(2, 3)
