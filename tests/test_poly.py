import math
import random
import struct
from fractions import Fraction

import pytest

from antibidiag import (
    MonicPoly,
    elementary_symmetric,
    from_roots,
    poly_eval,
    roots_bracketed,
)
from antibidiag.errors import (
    BackendUnsupported,
    DuplicateRoots,
    IndexOutOfRange,
    NoSignChange,
)
from antibidiag import poly
from antibidiag.sampling import random_spectrum

from oracles import brute_sigma, expand_roots, horner_reference


def test_from_roots_worked_example(fb):
    p = from_roots((3.0, -2.0, 1.0), fb)
    assert p.coeffs == (6.0, -5.0, -2.0, 1.0)
    assert p.coeffs == tuple(float(c) for c in expand_roots([3, -2, 1]))


def test_from_roots_degree_one_and_empty(fb):
    assert from_roots((2.5,), fb).coeffs == (-2.5, 1.0)
    assert from_roots((), fb).coeffs == (1.0,)


@pytest.mark.parametrize("coeffs", [(), (1.0, 2.0)])
def test_monic_poly_rejects_a_malformed_polynomial(coeffs):
    # no coefficients, a leading coefficient other than 1
    with pytest.raises(ValueError):
        MonicPoly(coeffs)


@pytest.mark.parametrize(
    "coeffs, parity",
    [
        ((1,), "even"),  # degree 0: no odd-index coefficient
        ((1.0,), "even"),
        ((Fraction(1),), "even"),
        ((0.0, 1.0), "odd"),
        ((-0.0, 1.0), "odd"),
        ((0, 1), "odd"),
        ((-4.0, -0.0, 1.0), "even"),
        ((-4.0, 0, 1.0), "even"),
        ((0.0, 0.0, 1.0), "even"),  # x^2: even is read first
        ((Fraction(-4), Fraction(0), Fraction(3, 7), Fraction(0), Fraction(1)), "even"),
        ((0.0, -2.5, -0.0, 1.0), "odd"),
        ((Fraction(0), Fraction(-3, 7), 0, Fraction(1)), "odd"),
        ((0.5, 1.0), None),  # mixed
        ((-4.0, 1e-300, 1.0), None),
        ((Fraction(1, 3), Fraction(0), Fraction(-1, 9), Fraction(1)), None),
        ((math.nan, 0.0, 1.0), "even"),  # nan is not zero
        ((-4.0, math.nan, 1.0), None),
    ],
)
def test_parity_is_read_from_the_coefficients(coeffs, parity):
    p = MonicPoly(coeffs)
    assert p.parity == parity
    # a parity skips only zeros, so the value is plain Horner's
    assert repr(p.evaluate(2.0)) == repr(_plain_horner(coeffs, 2.0))


def test_a_mixed_polynomial_evaluates_every_coefficient():
    # no parity to read, so the 0.5 is not dropped: x + 0.5, not x
    assert MonicPoly((0.5, 1.0)).evaluate(2.0) == 2.5


def test_from_roots_duplicate_rejection(fb, rb):
    with pytest.raises(DuplicateRoots):
        from_roots((1.0, 1.0 + 1e-15), fb)
    with pytest.raises(DuplicateRoots):
        from_roots((Fraction(1), Fraction(1)), rb)


def test_coefficients_are_signed_symmetric_functions(rb):
    rng = random.Random(5)
    for n in range(1, 11):
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
        if len(set(roots)) < n:
            continue
        p = from_roots(roots, rb)
        for k in range(n + 1):
            assert p.coeffs[k] == (-1) ** (n - k) * brute_sigma(roots, n - k)


def test_elementary_symmetric_examples():
    assert elementary_symmetric((3, -2, 1), 1) == 2
    assert elementary_symmetric((3, -2, 1), 2) == -5
    assert elementary_symmetric((3, -2, 1), 3) == -6
    assert elementary_symmetric((3, -2, 1), 0) == 1
    assert elementary_symmetric((5,), 1) == 5
    with pytest.raises(IndexOutOfRange):
        elementary_symmetric((1, 2), 3)


def test_elementary_symmetric_matches_brute_force():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
        for j in range(n + 1):
            assert elementary_symmetric(vals, j) == brute_sigma(vals, j)


def test_eval_examples(fb):
    p = from_roots((3.0, -2.0, 1.0), fb)
    assert poly_eval(p, 0.0) == 6.0
    assert poly_eval(p, 1.0) == 0.0
    assert poly_eval(MonicPoly((1.0,)), 7.0) == 1.0


def test_from_roots_then_eval_vanishes(fb, rb):
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 9)
        roots = random_spectrum(rng, n)
        p = from_roots(roots, fb)
        scale = max(abs(c) for c in p.coeffs)
        for r in roots:
            assert abs(poly_eval(p, r)) <= fb.policy.eq_abs * scale
        fr = [Fraction(x).limit_denominator(1000) for x in roots]
        q = from_roots(fr, rb)
        for r in fr:
            assert poly_eval(q, r) == 0


def test_roots_bracketed_examples(fb):
    p = MonicPoly((-3.0, 0.0, 1.0))  # x^2 - 3
    roots = roots_bracketed(p, [(-2.0, 0.0), (0.0, 2.0)], fb)
    assert roots[0] == pytest.approx(-(3**0.5), abs=fb.policy.root_tol)
    assert roots[1] == pytest.approx(3**0.5, abs=fb.policy.root_tol)
    lin = MonicPoly((-2.5, 1.0))
    assert roots_bracketed(lin, [(1.5, 3.5)], fb)[0] == pytest.approx(2.5, abs=1e-13)
    with pytest.raises(NoSignChange):
        roots_bracketed(p, [(1.0, 1.5)], fb)


def test_roots_bracketed_rational_unsupported(rb):
    with pytest.raises(BackendUnsupported):
        roots_bracketed(MonicPoly((Fraction(-3), Fraction(0), Fraction(1))), [], rb)


def test_roots_bracketed_recovers_spectrum(fb):
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 12)
        lam = sorted(random_spectrum(rng, n))
        p = from_roots(lam, fb)
        # brackets from the midpoints between sorted roots, padded by the
        # Gershgorin-style outer bound max|root| + 1
        edges = (
            [min(lam) - 1.0]
            + [(lam[i] + lam[i + 1]) / 2 for i in range(n - 1)]
            + [max(lam) + 1.0]
        )
        brackets = list(zip(edges[:-1], edges[1:]))
        got = roots_bracketed(p, brackets, fb)
        for g, want in zip(got, lam):
            assert abs(g - want) <= 10 * fb.policy.root_tol * max(1.0, abs(want))


def test_roots_bracketed_evaluates_each_shared_end_once(fb, monkeypatch):
    # adjacent brackets share an end, as the interlacing chain's do
    rng = random.Random(18)
    lam = sorted(random_spectrum(rng, 9))
    p = from_roots(lam, fb)
    edges = [lam[0] - 1.0] + [(u + v) / 2 for u, v in zip(lam, lam[1:])] + [lam[-1] + 1.0]
    brackets = list(zip(edges[:-1], edges[1:]))
    brackets[3] = brackets[3][::-1]
    one_by_one = tuple(sorted(roots_bracketed(p, [b], fb)[0] for b in brackets))
    seen = []
    real = poly.poly_eval
    monkeypatch.setattr(poly, "poly_eval", lambda q, x: seen.append(x) or real(q, x))
    assert roots_bracketed(p, brackets, fb) == one_by_one
    assert all(seen.count(x) == 1 for x in edges)


def _plain_horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def test_parity_eval_agrees_with_plain_horner(fb):
    rng = random.Random(2024)
    for deg in range(0, 25):
        roots = [rng.uniform(0.1, 10.0) for _ in range(deg // 2)]
        sym = roots + [-r for r in roots] + [0.0] * (deg % 2)
        # the forbidden coefficients zeroed, as a stored q-system level has them
        coeffs = tuple(0.0 if (deg - k) % 2 else c for k, c in enumerate(from_roots(sym, fb).coeffs))
        p = MonicPoly(coeffs)
        assert p.parity == _parity_of_degree(deg) and p.degree == deg
        for _ in range(20):
            x = rng.uniform(-12.0, 12.0)
            scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))
            assert abs(poly_eval(p, x) - _plain_horner(p.coeffs, x)) <= 1e-12 * scale
            sign = 1.0 if deg % 2 == 0 else -1.0
            assert poly_eval(p, -x) == sign * poly_eval(p, x)
    q = MonicPoly((Fraction(-4), Fraction(0), Fraction(3, 7), Fraction(0), Fraction(1)))
    assert q.parity == "even"
    for x in (Fraction(1, 3), Fraction(-5, 2), Fraction(0)):
        assert poly_eval(q, x) == _plain_horner(q.coeffs, x)


def _parity_of_degree(deg):
    return "even" if deg % 2 == 0 else "odd"


def _with_parity(coeffs, parity, zeros):
    """The coefficients with each one the parity forbids replaced by the zeros
    in turn; None keeps them all."""
    if parity is None:
        return coeffs
    deg = len(coeffs) - 1
    return tuple(zeros[k // 2 % len(zeros)] if (deg - k) % 2 else c for k, c in enumerate(coeffs))


def _sliced_horner(p, x):
    # the evaluator before each polynomial cached its slices: plain Horner in
    # x*x over the coefficients its parity allows, times x when odd
    if p.parity is None:
        return _plain_horner(p.coeffs, x)
    if p.parity == "even":
        return _plain_horner(p.coeffs[::2], x * x)
    return _plain_horner(p.coeffs[1::2], x * x) * x


def test_eval_is_sliced_plain_horner_bit_for_bit():
    # random coefficients, and the same with the ones the parity of the degree
    # forbids zeroed (0.0 and -0.0 in float, 0 and Fraction(0) exact)
    rng = random.Random(2025)
    xs = [0.0, -0.0, 1e-200, -3e-170, 1e200, -7e150]
    xs += [rng.uniform(-12.0, 12.0) for _ in range(30)]
    for deg in range(0, 30):
        floats = tuple(rng.uniform(-5.0, 5.0) for _ in range(deg)) + (1.0,)
        fracs = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 9)) for _ in range(deg)) + (1,)
        for parity in (None, _parity_of_degree(deg)) if deg else ("even",):
            p = MonicPoly(_with_parity(floats, parity, (0.0, -0.0)))
            q = MonicPoly(_with_parity(fracs, parity, (0, Fraction(0))))
            assert p.parity == q.parity == parity
            for _ in range(2):  # the second pass reads the cached slices
                for x in xs:
                    assert repr(poly_eval(p, x)) == repr(_sliced_horner(p, x))
                for x in (Fraction(1, 3), Fraction(-5, 2), Fraction(0)):
                    assert poly_eval(q, x) == _sliced_horner(q, x)


def _bits(v):
    return struct.pack("<d", v)


def test_evaluate_is_the_module_level_horner_bit_for_bit():
    # the closure against the evaluator it replaced, on random coefficients and
    # on the same with the ones the parity of the degree forbids zeroed; the
    # values include signed zeros, subnormals, overflow and nan
    rng = random.Random(2026)
    tiny = math.ulp(0.0)
    xs = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320, 1e200, -1e200, math.nan]
    xs += [math.inf, -math.inf] + [rng.uniform(-12.0, 12.0) for _ in range(20)]
    for deg in range(0, 30):
        coeffs = tuple(rng.uniform(-5.0, 5.0) for _ in range(deg)) + (1.0,)
        for parity in (None, _parity_of_degree(deg)) if deg else ("even",):
            p = MonicPoly(_with_parity(coeffs, parity, (0.0, -0.0)))
            assert p.parity == parity
            for x in xs:
                want = horner_reference(p, x)
                assert _bits(p.evaluate(x)) == _bits(want), (deg, parity, x)
                assert _bits(poly_eval(p, x)) == _bits(want), (deg, parity, x)


def test_untagged_eval_is_plain_horner(fb):
    p = from_roots((3.0, -2.0, 1.0, 0.5), fb)
    assert p.parity is None
    for x in (-3.3, 0.1, 2.7):
        assert poly_eval(p, x) == _plain_horner(p.coeffs, x)
