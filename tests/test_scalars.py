import math
import random
from fractions import Fraction
from functools import cached_property, partial
from types import SimpleNamespace

import pytest

from antibidiag import (
    Backend,
    CoefficientVector,
    PositiveTuple,
    TolerancePolicy,
    float64,
    poly_eval,
    rational,
    roots_bracketed,
    solve,
    validate_spectrum,
)
from antibidiag.errors import BackendUnsupported, EmptyInput, NotDecreasing
from antibidiag.poly import MonicPoly
from antibidiag.scalars import Record
from antibidiag.spectral import OrderVerdict

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
    with pytest.raises(ValueError):
        fb.sqrt(-1.0)


def test_convert(fb, rb):
    assert fb.convert(Fraction(1, 2)) == 0.5
    assert rb.convert(0.5) == Fraction(1, 2)
    assert rb.convert("2/3") == Fraction(2, 3)


# --- the frozen record ---


class _Pair(Record):
    first: int
    second: tuple = ()

    def __post_init__(self):
        if self.first < 0:
            raise ValueError("first must be >= 0")

    @cached_property
    def total(self):
        self.calls.append(1)
        return self.first + sum(self.second)

    calls = []  # not annotated, so not a field


class _Twin(Record):
    first: int
    second: tuple = ()


def _records():
    """Records with and without defaults and __post_init__ checks, among them
    the two that a request builds most often."""
    return (
        _Pair(1, (2, 3)),
        TolerancePolicy(),
        float64(),
        MonicPoly((-2.0, 1.0)),
        OrderVerdict(2, True, False, True, witness_value=-1.0, witness_rows=(1, 2), witness_cols=(2, 3)),
    )


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_refuses_assignment_and_deletion(record):
    field = next(iter(record.__annotations__))
    before = repr(record)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_compare_and_hash_field_by_field(record):
    values = tuple(getattr(record, f) for f in record.__annotations__)
    twin = type(record)(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert not twin != record
    assert record != values


def test_records_of_another_class_are_never_equal():
    assert _Pair(1) != _Twin(1) and _Twin(1) != _Pair(1)
    assert _Pair(1) != _Pair(2) and _Pair(1, (2,)) != _Pair(1, (3,))
    assert TolerancePolicy(eq_abs=1e-9) != TolerancePolicy()
    assert float64() != rational() and float64() == float64(TolerancePolicy())


def test_a_record_repr_shows_each_field():
    assert repr(_Pair(1, (2,))) == "_Pair(first=1, second=(2,))"
    assert repr(TolerancePolicy()) == "TolerancePolicy(eq_abs=1e-10, eq_rel=1e-10, root_tol=1e-13)"
    assert repr(MonicPoly((0.5, 1.0))) == "MonicPoly(coeffs=(0.5, 1.0))"  # parity is not a field
    assert repr(OrderVerdict(1, True, True, True)) == (
        "OrderVerdict(order=1, conforming=True, strict=True, principal_conforming=True, "
        "witness_value=None, witness_rows=None, witness_cols=None)"
    )


def test_a_record_takes_its_defaults_from_the_class():
    assert _Pair(4).second == () and _Pair(first=4) == _Pair(4, ())
    assert TolerancePolicy(1e-3) == TolerancePolicy(1e-3, 1e-10, 1e-13)
    assert Backend("float64", False).policy == TolerancePolicy()
    assert Backend("float64", False).policy is Backend("rational", True).policy  # shared: immutable
    assert MonicPoly((1,)).parity == "even"  # read from the coefficients, as q_0's
    assert OrderVerdict(1, True, True, True).witness_cols is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: _Pair(),  # a field without a default missing
        lambda: _Pair(second=(1,)),
        lambda: _Pair(1, third=3),  # an unknown keyword
        lambda: _Pair(1, (), 3),  # too many positionals
        lambda: _Pair(1, first=1),  # one field twice
        lambda: TolerancePolicy(tol=1e-3),
        lambda: MonicPoly(),
        lambda: MonicPoly((1,), "even"),  # parity is not a field
        lambda: OrderVerdict(1, True),
        lambda: OrderVerdict(1, True, True, True, witness=None),
    ],
)
def test_a_record_rejects_a_wrong_field_list(build):
    with pytest.raises(TypeError):
        build()


def test_a_record_runs_its_post_init_check():
    with pytest.raises(ValueError):
        _Pair(-1)
    with pytest.raises(ValueError):
        TolerancePolicy(eq_rel=0.0)
    with pytest.raises(EmptyInput):
        CoefficientVector(())
    with pytest.raises(NotDecreasing):
        PositiveTuple((1.0, 2.0))
    for coeffs in ((), (1.0, 2.0)):
        with pytest.raises(ValueError):
            MonicPoly(coeffs)


def test_a_cached_property_caches_on_a_record():
    _Pair.calls.clear()
    pair = _Pair(1, (2, 3))
    assert pair.total == 6 and pair.total == 6 and _Pair.calls == [1]
    assert vars(pair)["total"] == 6 and pair == _Pair(1, (2, 3))  # not a field
    p = MonicPoly((-2.0, 0.0, 1.0))
    assert p.evaluate is p.evaluate and p.evaluate(3.0) == 7.0
    assert p.parity == "even" and vars(p)["parity"] == "even" and p == MonicPoly((-2.0, 0.0, 1.0))


# --- the bisection of roots_bracketed ---


def _probed(f, limit=math.inf):
    """f as a polynomial, of which ``roots_bracketed`` reads only ``evaluate``,
    logging every (x, f(x)) it asks for: the two bracket ends first, then the
    probes.  Past limit calls it fails, so a bisection that loses its bound
    fails rather than runs on."""
    log = []

    def g(x):
        log.append((x, f(x)))
        assert len(log) <= limit, f"more than {limit} evaluations"
        return log[-1][1]

    return SimpleNamespace(evaluate=g), log


def _root(p, lo, hi, tol):
    """The root that ``roots_bracketed`` bisects [lo, hi] to at width tol."""
    (r,) = roots_bracketed(p, [(lo, hi)], float64(TolerancePolicy(root_tol=tol)))
    return r


def _assert_root_contract(f, lo, hi, tol):
    """Bisect [lo, hi] to tol; the root lies within tol of a sign change among
    the ends and the probes, and it took the two end evaluations plus at most
    ceil(log2(width/tol)) probes, one per halving."""
    flo, fhi = f(lo), f(hi)
    # log2 of the width and of tol apart: width/tol overflows past about 1e295
    p, log = _probed(f, 2 + max(0, math.ceil(math.log2(hi - lo) - math.log2(tol))))
    r = _root(p, lo, hi, tol)
    assert sorted(log[:2]) == [(lo, flo), (hi, fhi)]
    assert all(lo < x < hi for x, _ in log[2:])
    if (r, 0.0) in log:
        return r
    points = sorted(log)
    below = max(p for p in points if p[0] <= r)
    above = min(p for p in points if p[0] >= r)
    assert (below[1] > 0) != (above[1] > 0)
    assert above[0] - below[0] <= tol
    return r


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_finds_rising_and_falling_crossings(sign):
    rng = random.Random(11)
    for _ in range(50):
        c = rng.uniform(-3.0, 3.0)
        r = _assert_root_contract(lambda x: sign * (x - c) * (1.0 + x * x), -4.0, 5.0, 1e-13)
        assert abs(r - c) <= 1e-13


@pytest.mark.parametrize("tol", [1e-13, 1e-3, 0.5, 9 / 16])
def test_kernel_collapses_a_bracket_that_reaches_tol(tol):
    # width 9/2**h <= tol after h halvings, the least such h, 4 at exactly 9/16,
    # one evaluation each after the two ends
    rng = random.Random(12)
    h = math.ceil(math.log2(9.0 / tol))
    for _ in range(50):
        c = rng.uniform(-3.0, 3.0)
        p, log = _probed(lambda x: (x - c) * (1.0 + x * x) ** 2)
        m = _root(p, -4.0, 5.0, tol)
        assert len(log) == 2 + h
        assert abs(m - c) <= tol / 2


def test_kernel_returns_a_probe_where_f_is_exactly_zero():
    # the first midpoint of [0, 1] is the root of x - 0.5
    p, log = _probed(lambda x: x - 0.5)
    assert _root(p, 0.0, 1.0, 1e-13) == 0.5
    assert log[2:] == [(0.5, 0.0)]


def test_kernel_takes_no_step_on_a_bracket_already_within_tol():
    p, log = _probed(lambda x: x - 1.0)
    lo, hi = 1.0 - 2e-14, 1.0 + 3e-14
    assert _root(p, lo, hi, 1e-13) == 0.5 * (lo + hi)
    assert log[2:] == []


@pytest.mark.parametrize("top", [1e20, 1.2e308, 1.5e308, 1.7e308])
def test_kernel_closes_the_wide_bracket_of_a_chain_level(fb, top):
    # level 2 of the chain of top,-1,0.5 is bracketed by (0.5, top); at 1e20
    # and root_tol 1e-13, ceil(log2(w/tol)) is 110.  Past 1e154, q_2 = x^2 - 0.5
    # is inf at top, and near the float range the midpoint must not overflow
    q2 = solve(validate_spectrum((top, -1.0, 0.5)), fb).qs[2]
    r = _assert_root_contract(partial(poly_eval, q2), 0.5, top, fb.policy.root_tol)
    assert abs(r - 0.5**0.5) <= 1e-13


def test_kernel_keeps_its_bound_on_a_bracket_wider_than_the_float_range():
    # hi - lo is inf, but the midpoint 0.5*lo + 0.5*hi of opposite-sign ends
    # stays finite, and each step halves the true width, whose log2 is taken
    # from its halves
    f = lambda x: math.inf if x > 1.0 else -1.0
    p, _ = _probed(f, 2 + math.ceil(math.log2(1.5e308 / 2 + 1e308 / 2) + 1 - math.log2(1e-13)))
    assert abs(_root(p, -1e308, 1.5e308, 1e-13) - 1.0) <= 1e-13


def test_a_chain_with_an_inf_bracket_end_returns(fb):
    trace = solve(validate_spectrum((1.5e308, -1.0, 0.5)), fb)
    assert len(trace.warnings) == 1 and trace.warnings[0].startswith("minimum modulus gap")
    assert trace.certificates[0][1] == pytest.approx((-(0.5**0.5), 0.5**0.5), abs=1e-13)


@pytest.mark.parametrize("c", [0.1, 1 / 3, 0.5, 0.77, 0.999])
def test_kernel_bisects_its_way_through_a_step_function(c):
    r = _assert_root_contract(lambda x: -1.0 if x < c else 1.0, 0.0, 1.0, 1e-13)
    assert abs(r - c) <= 1e-13


@pytest.mark.parametrize("lo, hi", [(-1.0, 3.0), (-3.0, 1.0), (-0.7, 2.9)])
def test_kernel_stays_within_its_bound_on_a_flat_root(lo, hi):
    # x^21 is flat at its root and underflows to 0.0 near it, so a probe
    # there is an exact zero that ends the search early
    _assert_root_contract(lambda x: x**21, lo, hi, 1e-13)


def test_kernel_on_a_polynomial_with_rounding_noise():
    # (x - 1)^7 expanded: around x = 1 its float64 values are rounding noise
    # with many sign changes; the result need only sit at one of them
    p = MonicPoly(tuple(float(math.comb(7, k) * (-1) ** (7 - k)) for k in range(8)))
    for lo, hi in ((0.5, 1.7), (0.9, 1.02), (-1.0, 3.0)):
        r = _assert_root_contract(partial(poly_eval, p), lo, hi, 1e-13)
        assert abs(r - 1.0) <= 0.05
