"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured figure.  Shared randomized batches are session-scoped so the
interlacing criterion audits exactly the traces the roundtrip criterion ran.
"""

import io
import json
import random
import time
from fractions import Fraction

import pytest

from antibidiag import (
    CoefficientVector,
    PositiveTuple,
    build_antibidiagonal,
    build_antidiagonal_unit,
    cauchy_binet_check,
    check_class_plus,
    check_sigma_inequality,
    classify_sign_regular,
    eigensolve_tridiagonal,
    float64,
    forward_p,
    forward_q,
    forward_q_squared,
    from_roots,
    interlaces,
    jacobi_sqrt,
    matmul,
    rational,
    signature_sequence,
    solve,
    solve_roundtrip,
    validate_spectrum,
)
from antibidiag.cli import main as cli_main
from antibidiag.sampling import (
    random_positive_tuple,
    random_rational_coefficients,
    random_rational_spectrum,
    random_spectrum,
)

from oracles import charpoly_cofactor

FB = float64()
RB = rational()


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS  ({detail})")


@pytest.fixture(scope="session")
def roundtrip_batch():
    """500 random valid spectra, n in 1..12, gaps >= 0.1, moduli in [0.1, 10]."""
    rng = random.Random(20260824)
    results = []
    start = time.perf_counter()
    for i in range(500):
        n = 1 + i % 12
        spec = validate_spectrum(random_spectrum(rng, n, min_gap=0.1, lo=0.1, hi=10.0))
        results.append(solve_roundtrip(spec, FB))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_worked_instance():
    spec = validate_spectrum((3.0, -2.0, 1.0))
    solve(spec, FB)  # warmup
    start = time.perf_counter()
    trace = solve(spec, FB)
    elapsed = time.perf_counter() - start
    assert abs(trace.a1 - 2.0) <= 1e-12
    assert abs(trace.a_squared[0] - 2.0) <= 1e-12
    assert abs(trace.a_squared[1] - 3.0) <= 1e-12
    exact = solve(validate_spectrum((Fraction(3), Fraction(-2), Fraction(1))), RB)
    assert exact.a1 == 2 and exact.a_squared == (Fraction(2), Fraction(3))
    assert elapsed < 1e-3
    _report(1, f"a=(2, sqrt2, sqrt3) exact and float, solve took {elapsed * 1e6:.0f} us")


def test_criterion_2_roundtrip_500(roundtrip_batch):
    results, elapsed = roundtrip_batch
    worst = max(r.max_error for r in results)
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(2, f"500 spectra, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_exact_uniqueness_surrogate():
    rng = random.Random(3003)
    start = time.perf_counter()
    for i in range(100):
        n = 1 + i % 16
        lam = random_rational_spectrum(rng, n)
        trace = solve(validate_spectrum(lam), RB)
        rebuilt = forward_q_squared(trace.a1, trace.a_squared, RB).top
        assert rebuilt.coeffs == from_roots(lam, RB).coeffs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"100 rational spectra up to n=16 bit-exact, {elapsed:.2f}s")


def test_criterion_4_recurrence_equivalence():
    rng = random.Random(4004)
    for i in range(200):
        n = 1 + i % 12
        a = CoefficientVector(random_rational_coefficients(rng, n))
        assert forward_p(a, RB).top.coeffs == forward_q(a, RB).top.coeffs
    for n in range(1, 7):
        a = CoefficientVector(random_rational_coefficients(rng, n))
        A = build_antibidiagonal(a, RB)
        want = charpoly_cofactor(A.entries)
        assert list(forward_p(a, RB).top.coeffs) == want
        assert list(forward_q(a, RB).top.coeffs) == want
    _report(4, "200 exact p/q matches; cofactor oracle agrees for n<=6")


def test_criterion_5_sign_regularity():
    rng = random.Random(5005)
    for i in range(50):
        n = 2 + i % 4  # n in 2..5
        spec = validate_spectrum(random_spectrum(rng, n))
        trace = solve(spec, FB)
        A = build_antibidiagonal(trace.coefficient_vector, FB)
        rep = classify_sign_regular(A, n, signature_sequence(n), FB)
        assert rep.all_conforming
        if n <= 4:
            m = check_class_plus(A, 2 * n, FB)
            assert m is not None and m <= max(1, n - 1)
    # exact spot checks on rational coefficient matrices (solved vectors have
    # irrational entries, so the exact route classifies the forward family)
    for i in range(10):
        n = 2 + i % 4
        a = CoefficientVector(random_rational_coefficients(rng, n))
        A = build_antibidiagonal(a, RB)
        rep = classify_sign_regular(A, n, signature_sequence(n), RB)
        assert rep.all_conforming
    _report(5, "50 reconstructions conform at all orders; 10 exact spot checks")


def test_criterion_6_interlacing_chain(roundtrip_batch):
    results, _ = roundtrip_batch
    checked = violations = 0
    for r in results:
        trace = r.trace
        n = trace.spectrum.n
        assert trace.certificates is not None
        assert len(trace.certificates) == max(0, n - 1)
        for _, inner, outer in trace.certificates:
            checked += 1
            if not interlaces(inner, outer):
                violations += 1
    assert violations == 0
    _report(6, f"{checked} adjacent-level certificates, zero violations")


def test_criterion_7_sigma_inequality():
    rng = random.Random(7007)
    for i in range(1000):
        n = 3 + i % 10  # n in 3..12
        spec = validate_spectrum(random_spectrum(rng, n))
        assert check_sigma_inequality(spec).holds
    boundary = check_sigma_inequality((Fraction(2), Fraction(-2), Fraction(1)))
    assert boundary.sigma3 == boundary.sigma1 * boundary.sigma2 == -4
    assert not boundary.holds
    _report(7, "1000 random spectra hold; boundary instance exactly equal at -4")


def test_criterion_8_square_root():
    rng = random.Random(8008)
    for i in range(100):
        n = 1 + i % 10
        mus = random_positive_tuple(rng, n)
        res = jacobi_sqrt(PositiveTuple(mus), FB)
        B = res.jacobi
        scale = B.maxnorm()
        for r in range(n):
            for c in range(n):
                if abs(r - c) > 1:
                    assert abs(B.entries[r][c]) <= 1e-10 * scale
        for r in range(n - 1):
            assert B.entries[r][r + 1] > 0
        eig = eigensolve_tridiagonal(B, FB)
        for e, m in zip(eig, sorted(mus)):
            assert abs(e - m) <= 1e-8 * m
    res = jacobi_sqrt(PositiveTuple((9.0, 4.0, 1.0)), FB)
    want = (
        (3.0, 6**0.5, 0.0),
        (6**0.5, 6.0, 2 * 2**0.5),
        (0.0, 2 * 2**0.5, 5.0),
    )
    for got_r, want_r in zip(res.jacobi.entries, want):
        for g, w in zip(got_r, want_r):
            assert abs(g - w) <= 1e-12
    _report(8, "100 random square roots verified; (9,4,1) entrywise to 1e-12")


def test_criterion_9_rejections():
    cases = {
        "1,2": "NotAlternating",
        "2,-2": "NotStrictlyDecreasingModulus",
        "-1": "NonPositiveLead",
        "": "EmptyInput",
    }
    for text, name in cases.items():
        out = io.StringIO()
        code = cli_main(["solve", "--spectrum", text], out=out)
        assert code == 1, f"{text!r} gave exit {code}"
        assert out.getvalue() == ""  # no partial output
        spec_err = None
        try:
            validate_spectrum(
                tuple(float(t) for t in text.split(",") if t.strip())
            )
        except Exception as exc:  # noqa: BLE001 - inspecting the class is the point
            spec_err = type(exc).__name__
        assert spec_err == name
    _report(9, "all four invalid inputs rejected with exit 1 and the documented class")


def test_criterion_10_cauchy_binet():
    rng = random.Random(1010)
    for i in range(200):
        n = rng.randint(2, 5)
        a = CoefficientVector(random_rational_coefficients(rng, n))
        J = build_antidiagonal_unit(n, RB)
        A = build_antibidiagonal(a, RB)
        B = matmul(J, A, RB)  # nonnegative bidiagonal factor of A = J*B
        k = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
        lhs, rhs, equal = cauchy_binet_check(J, B, rows, cols, RB)
        assert equal and lhs == rhs
        # the product J*B is A itself, so the identity decomposes A's minors
        from antibidiag import minor

        assert lhs == minor(A, rows, cols, RB)
    _report(10, "200 exact decompositions of anti-bidiagonal minors")
