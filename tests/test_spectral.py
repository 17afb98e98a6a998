import math
import random
import re
from fractions import Fraction

import pytest

from antibidiag import (
    CoefficientVector,
    build_antibidiagonal,
    build_antidiagonal_unit,
    build_jacobi_special,
    cauchy_binet_check,
    check_class_plus,
    classify_sign_regular,
    eigensolve_tridiagonal,
    forward_p,
    interlaces,
    matmul,
    poly_eval,
    signature_sequence,
    solve,
    solve_roundtrip,
    validate_spectrum,
)
from antibidiag.errors import (
    AntibidiagError,
    BackendUnsupported,
    NonPositiveEntry,
    NotTridiagonal,
    SizeMismatch,
    SquareOutOfRange,
    TooLarge,
)
from antibidiag.matrixkit import StructuredMatrix, conjugate_signs, jacobi_tridiagonal
from antibidiag.sampling import (
    case_rng,
    random_coefficients,
    random_rational_coefficients,
    random_spectrum,
)
from antibidiag import spectral
from antibidiag.spectral import gershgorin_bounds, sturm_count, tridiagonal_eigenvalues

from oracles import (
    check_class_plus_reference,
    classify_sign_regular_reference,
    plain_sturm_bisection,
    sparse_grid,
    totally_positive_reference,
)

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def _squares(off):
    """The squared codiagonal both Sturm kernels take: (0.0, off_1**2, ...)."""
    return (0.0, *(b * b for b in off))


def _count_passes(monkeypatch):
    """Record the point of every pivot pass of the eigensolve, in a list of
    ("count", x) for a Sturm count and ("newton", x) for a Newton step."""
    calls = []
    for kind, name in (("count", "sturm_count"), ("newton", "_newton_step")):
        real = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda d, e2, x, k=kind, f=real: calls.append((k, x)) or f(d, e2, x))
    return calls


def test_eigensolve_worked_examples(fb):
    B3 = build_jacobi_special(CoefficientVector((2.0, SQ2, SQ3)), fb)
    eig = eigensolve_tridiagonal(B3, fb)
    for g, w in zip(eig, (-2.0, 1.0, 3.0)):
        assert g == pytest.approx(w, abs=1e-12)
    assert eigensolve_tridiagonal(
        StructuredMatrix(1, ((7.5,),)), fb
    )[0] == pytest.approx(7.5, abs=1e-12)
    B2 = StructuredMatrix(2, ((2.0, SQ2), (SQ2, 3.0)))
    for g, w in zip(eigensolve_tridiagonal(B2, fb), (1.0, 4.0)):
        assert g == pytest.approx(w, abs=1e-12)


def test_eigensolve_rejects(fb, rb):
    dense = StructuredMatrix(3, tuple(tuple(float(i + j) for j in range(3)) for i in range(3)))
    with pytest.raises(NotTridiagonal):
        eigensolve_tridiagonal(dense, fb)
    with pytest.raises(BackendUnsupported):
        eigensolve_tridiagonal(StructuredMatrix(1, ((Fraction(1),),)), rb)


@pytest.mark.parametrize(
    "i, j, v, message",
    [
        (0, 2, 1e-300, "entry (1,3) is nonzero"),
        (2, 0, 5e-324, "entry (3,1) is nonzero"),
        (1, 0, math.nextafter(1.0, 2.0), "matrix is not symmetric"),
    ],
)
def test_eigensolve_reads_an_exact_band(fb, i, j, v, message):
    # nothing is rounded away: a tiny off-band entry, or a codiagonal entry
    # one ulp off its mirror, is refused
    rows = [list(r) for r in _tridiagonal([1.0, 2.0, 3.0], [1.0, 1.0]).entries]
    rows[i][j] = v
    with pytest.raises(NotTridiagonal, match=re.escape(message)):
        eigensolve_tridiagonal(StructuredMatrix(3, tuple(map(tuple, rows))), fb)


def test_band_is_read_as_stored(fb):
    # -0.0 off the band is exactly zero, and a codiagonal near the largest
    # float is read as it is (an average of the two mirrors would overflow)
    T = StructuredMatrix(3, ((1.0, 1e308, -0.0), (1e308, 0.0, 0.0), (-0.0, 0.0, 2.0)))
    assert spectral._extract_tridiagonal(T) == ([1.0, 0.0, 2.0], [1e308, 0.0])


def test_eigensolve_refuses_a_codiagonal_whose_square_underflows(fb):
    # b * b = 1e-320 is subnormal, so the Sturm pivots lose their precision
    with pytest.raises(SquareOutOfRange):
        eigensolve_tridiagonal(StructuredMatrix(2, ((1e-160, 1e-160), (1e-160, 0.0))), fb)
    # an exactly zero codiagonal decouples the matrix and is not refused
    assert eigensolve_tridiagonal(StructuredMatrix(2, ((1e-160, 0.0), (0.0, 0.0))), fb) == (
        pytest.approx(0.0, abs=1e-172),
        pytest.approx(1e-160, rel=1e-12),
    )


def test_eigensolve_refuses_a_codiagonal_whose_square_overflows(fb):
    # b * b = 1e400 is beyond float64, so the Sturm pivots would overflow
    with pytest.raises(SquareOutOfRange):
        eigensolve_tridiagonal(StructuredMatrix(2, ((1.0, 1e200), (1e200, 0.0))), fb)


@pytest.mark.parametrize(
    "diag, off, width",
    [((1.7e308, -1.7e308, -1.0), (1.0, 1e150), "inf"), ((1.7e308, -1.7e308), (0.0,), "inf"),
     ((math.nan, 1.0), (1.0,), "nan")],
)
def test_eigensolve_refuses_a_band_whose_gershgorin_width_is_not_finite(fb, monkeypatch, diag, off, width):
    # a - x overflows to -inf at some x in the interval, and after an exactly
    # zero pivot -inf - (-inf) is a NaN pivot, which counts as nonnegative: the
    # first band counts 2, 1, 3 at the float below 1.7e308, at it and above it
    passes = _count_passes(monkeypatch)
    with pytest.raises(SquareOutOfRange, match=f"Gershgorin width {width} "):
        tridiagonal_eigenvalues(list(diag), list(off), fb, near=diag)
    assert passes == []


@pytest.mark.parametrize(
    "diag, off", [((1.5e308, 0.0, 0.0), (8.660254037844386e153, 0.5**0.5)), ((1e308, 0.0), (1e149,))]
)
def test_eigensolve_midpoint_stays_finite_near_the_float_range(fb, diag, off):
    # the Gershgorin ends lie near the largest float, where a + b overflows
    eig = eigensolve_tridiagonal(_tridiagonal(list(diag), list(off)), fb)
    assert all(map(math.isfinite, eig)) and eig[-1] == pytest.approx(diag[0], rel=1e-15)


@pytest.mark.parametrize("ulps", [1, 3, 5, 2**40 + 1])
@pytest.mark.parametrize("n", [1, 3])
def test_eigensolve_returns_a_point_gershgorin_interval_as_it_is(fb, ulps, n):
    # c*I has the Gershgorin interval [c, c], and at c below about 2.5e-311 the
    # width root_tol * c underflows to 0.0, so c is every eigenvalue; the
    # midpoint 0.5*c + 0.5*c would round an odd multiple of the least subnormal
    c = ulps * math.ulp(0.0)
    assert eigensolve_tridiagonal(_tridiagonal([c] * n, [0.0] * (n - 1)), fb) == (c,) * n


def test_a_subnormal_spectrum_round_trips_exactly(fb):
    for lam in (5e-324, 1.5e-323):
        assert solve_roundtrip(validate_spectrum((lam,)), fb).max_error == 0.0


def test_eigensolve_roots_kill_charpoly(fb):
    rng = random.Random(31)
    for n in range(1, 11):
        a = CoefficientVector(random_coefficients(rng, n))
        B = build_jacobi_special(a, fb)
        p = forward_p(a, fb).top
        scale = 1.0 + max(abs(c) for c in p.coeffs)
        for lam in eigensolve_tridiagonal(B, fb):
            assert abs(poly_eval(p, lam)) <= 1e-8 * scale


def test_sturm_count_monotone_and_bounds():
    rng = random.Random(32)
    diag = [rng.uniform(-3, 3) for _ in range(8)]
    off = [rng.uniform(0.1, 2.0) for _ in range(7)]
    lo, hi = gershgorin_bounds(diag, off)
    e2 = _squares(off)
    assert sturm_count(diag, e2, lo - 1e-9) == 0
    assert sturm_count(diag, e2, hi + 1e-9) == 8
    xs = sorted(rng.uniform(lo, hi) for _ in range(40))
    counts = [sturm_count(diag, e2, x) for x in xs]
    assert counts == sorted(counts)


def test_sturm_count_counts_an_eigenvalue_at_x_on_an_exactly_zero_pivot():
    # the tie rule: x at an eigenvalue whose pivot comes out exactly 0.0 counts it
    assert sturm_count((0.0,), (0.0,), 0.0) == 1
    assert sturm_count((1.0, 1.0), (0.0, 0.0), 1.0) == 2
    assert sturm_count((1.0, 1.0), (0.0, 0.0), math.nextafter(1.0, 0.0)) == 0


def test_interlaces_examples():
    assert interlaces((-SQ3, SQ3), (-2.0, 1.0, 3.0))
    assert interlaces((0.0,), (-SQ3, SQ3))
    assert not interlaces((2.0,), (-1.0, 1.0))
    with pytest.raises(SizeMismatch):
        interlaces((1.0, 2.0), (0.0, 3.0))


def test_cauchy_interlacing_of_trailing_blocks(fb):
    rng = random.Random(33)
    for n in range(2, 9):
        a = CoefficientVector(random_coefficients(rng, n))
        B = build_jacobi_special(a, fb)
        for j in range(1, n):
            outer_entries = tuple(row[j - 1 :] for row in B.entries[j - 1 :])
            inner_entries = tuple(row[j:] for row in B.entries[j:])
            outer = eigensolve_tridiagonal(StructuredMatrix(n - j + 1, outer_entries), fb)
            inner = eigensolve_tridiagonal(StructuredMatrix(n - j, inner_entries), fb)
            assert interlaces(inner, outer)


def test_signature_sequence_pattern():
    assert signature_sequence(5) == (1, -1, -1, 1, 1)
    assert signature_sequence(1) == (1,)
    assert signature_sequence(4) == (1, -1, -1, 1)
    assert signature_sequence(9) == (1, -1, -1, 1, 1, -1, -1, 1, 1)


def test_classify_antidiagonal_unit(fb):
    J3 = build_antidiagonal_unit(3, fb)
    rep = classify_sign_regular(J3, 3, signature_sequence(3), fb)
    assert rep.all_conforming and rep.achieved_class == 3
    assert rep.principal_conforming


def test_classify_worked_antibidiagonal(fb):
    A = build_antibidiagonal(CoefficientVector((2.0, SQ2, SQ3)), fb)
    rep = classify_sign_regular(A, 3, signature_sequence(3), fb)
    assert rep.all_conforming


def test_classify_identity_nonstrict(fb):
    eye = StructuredMatrix(3, tuple(tuple(1.0 if i == j else 0.0 for j in range(3)) for i in range(3)))
    rep = classify_sign_regular(eye, 3, (1, 1, 1), fb)
    assert rep.all_conforming and not rep.strict


def test_classify_reports_violation_witness(fb):
    M = StructuredMatrix(2, ((1.0, 0.0), (0.0, -5.0)))
    rep = classify_sign_regular(M, 1, (1, 1), fb)
    v = rep.verdicts[0]
    assert not v.conforming and v.witness_value == -5.0
    assert v.witness_rows == (2,) and v.witness_cols == (2,)


def test_classify_guard(fb):
    M = StructuredMatrix(40, tuple(tuple(0.0 for _ in range(40)) for _ in range(40)))
    with pytest.raises(TooLarge):
        classify_sign_regular(M, 40, tuple(1 for _ in range(40)), fb)
    with pytest.raises(SizeMismatch):  # an order above n
        classify_sign_regular(build_antidiagonal_unit(2, fb), 3, (1, 1, 1), fb)


def test_reconstructed_matrices_are_sign_regular(fb):
    rng = random.Random(34)
    for n in range(2, 6):
        for _ in range(4):
            spec = validate_spectrum(random_spectrum(rng, n))
            trace = solve(spec, fb)
            A = build_antibidiagonal(trace.coefficient_vector, fb)
            rep = classify_sign_regular(A, n, signature_sequence(n), fb)
            assert rep.all_conforming


def test_check_class_plus_examples(fb):
    A = build_antibidiagonal(CoefficientVector((2.0, SQ2, SQ3)), fb)
    m = check_class_plus(A, 4, fb)
    assert m is not None and m <= 2
    A1 = build_antibidiagonal(CoefficientVector((3.0,)), fb)
    assert check_class_plus(A1, 4, fb) == 1
    assert check_class_plus(A, 0, fb) is None


def test_cauchy_binet_examples(fb, rb):
    a = CoefficientVector((2.0, SQ2, SQ3))
    J = build_antidiagonal_unit(3, fb)
    A = build_antibidiagonal(a, fb)
    B = matmul(J, A, fb)
    lhs, rhs, equal = cauchy_binet_check(J, B, (1, 2), (1, 2), fb)
    assert equal
    lhs, rhs, equal = cauchy_binet_check(
        StructuredMatrix(3, tuple(tuple(1.0 if i == j else 0.0 for j in range(3)) for i in range(3))),
        B,
        (1, 3),
        (2, 3),
        fb,
    )
    assert equal and lhs == pytest.approx(minor_of(B, (1, 3), (2, 3), fb))
    one = cauchy_binet_check(J, B, (2,), (3,), fb)
    assert one[2] and one[0] == pytest.approx(matmul(J, B, fb).entries[1][2])


@pytest.mark.parametrize(
    "nx, ny, rows, cols, error",
    [
        (3, 2, (1,), (1,), SizeMismatch),  # factor dimensions differ
        (3, 3, (1, 2), (3,), SizeMismatch),  # index set sizes differ
        (30, 30, tuple(range(1, 16)), tuple(range(1, 16)), TooLarge),  # C(30, 15) * 15^3 terms
    ],
)
def test_cauchy_binet_rejects(fb, nx, ny, rows, cols, error):
    with pytest.raises(error):
        cauchy_binet_check(build_antidiagonal_unit(nx, fb), build_antidiagonal_unit(ny, fb), rows, cols, fb)


def minor_of(M, rows, cols, backend):
    from antibidiag import minor

    return minor(M, rows, cols, backend)


def test_cauchy_binet_exact_random(rb):
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(2, 5)
        a = CoefficientVector(random_rational_coefficients(rng, n))
        J = build_antidiagonal_unit(n, rb)
        A = build_antibidiagonal(a, rb)
        B = matmul(J, A, rb)
        k = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
        lhs, rhs, equal = cauchy_binet_check(J, B, rows, cols, rb)
        assert equal and lhs == rhs


# --- shared-bracket eigensolve against plain per-eigenvalue bisection ---


def _tridiagonal(diag, off):
    n = len(diag)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = off[i]
    return StructuredMatrix(n, tuple(tuple(r) for r in rows))


def _random_jacobi(rng, n):
    return [rng.uniform(-5.0, 5.0) for _ in range(n)], [rng.uniform(0.05, 3.0) for _ in range(n - 1)]


def _canonical(diag, off):
    """Plain bisection at width 0: each eigenvalue bisected down to the adjacent
    floats where the Sturm count steps (a point interval, c*I, gives c)."""
    return plain_sturm_bisection(diag, off, 0.0, max_iter=5000)


def _assert_plain(diag, off, fb):
    want, _ = _canonical(diag, off)
    assert eigensolve_tridiagonal(_tridiagonal(diag, off), fb) == want


@pytest.mark.parametrize("n", [1, 2, 8, 48])
def test_shared_brackets_match_plain_bisection_exactly(fb, n):
    rng = random.Random(4100 + n)
    for _ in range(4):
        _assert_plain(*_random_jacobi(rng, n), fb)


def test_seeded_and_unseeded_searches_match_plain_bisection_at_n96(fb):
    # the Newton steps, the ulp walk and the bisection end on the same pair
    # of floats from any start
    rng = random.Random(9600)
    for _ in range(2):
        diag, off = _random_jacobi(rng, 96)
        want, _ = _canonical(diag, off)
        for seeds in ((), want, [v * (1 + 1e-7) for v in want], [rng.uniform(-5.0, 5.0) for _ in want]):
            assert tridiagonal_eigenvalues(diag, off, fb, near=seeds) == want


def test_shared_brackets_match_plain_bisection_on_repeated_eigenvalues(fb):
    _assert_plain([2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0], [0.0] * 6, fb)
    _assert_plain([0.0] * 5, [0.0] * 4, fb)
    # decoupled blocks with equal spectra
    _assert_plain([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [0.5, 0.0, 0.5, 0.0, 0.5], fb)


def test_shared_brackets_match_plain_bisection_at_both_ends_of_the_float_range(fb):
    # a decoupled subnormal entry, where 0.5*(lo + hi) would round, and a point
    # Gershgorin interval near the largest float, where lo + hi overflows
    _assert_plain([1e-310, 0.0, -1.0], [0.0, 1e-20], fb)
    _assert_plain([1.7e308, 1.7e308], [1e150], fb)


def test_shared_brackets_match_plain_bisection_on_wilkinson_w21(fb):
    # W21+: eigenvalues in pairs that agree to many digits at the top
    diag = [float(abs(10 - i)) for i in range(21)]
    _assert_plain(diag, [1.0] * 20, fb)


def test_shared_brackets_count_each_midpoint_once(fb, monkeypatch):
    """With no seeds, the count memory never counts twice at one point, and the
    168 eigenvalues take 1434 pivot passes, 599 of them Sturm counts (8.5 and
    3.6 per eigenvalue); the plain bisection paths took 8491 counts (50.5)."""
    calls = _count_passes(monkeypatch)
    rng = random.Random(4848)
    eigenvalues = passes = counts = 0
    for n in (8, 48):
        for _ in range(3):
            lam = validate_spectrum(random_spectrum(rng, n))
            B = build_jacobi_special(solve(lam, fb).coefficient_vector, fb)
            calls.clear()
            eigensolve_tridiagonal(B, fb)
            points = [x for kind, x in calls if kind == "count"]
            assert len(points) == len(set(points))
            eigenvalues, passes, counts = eigenvalues + n, passes + len(calls), counts + len(points)
    assert passes <= 8.54 * eigenvalues and counts <= 3.57 * eigenvalues


# --- count memory: seeded eigensolve against plain bisection ---


def _integer_jacobi(rng, n):
    # a zero diagonal makes the Gershgorin interval symmetric, so its first
    # midpoint is exactly 0.0 and the first pivot exactly zero
    diag = [0.0] * n if rng.random() < 0.5 else [float(rng.randint(-2, 2)) for _ in range(n)]
    return diag, [float(rng.randint(1, 3)) for _ in range(n - 1)]


def _seedings(diag, off, want, tol, rng):
    """Seed lists for a matrix with eigenvalues ``want``: none, exact, off by
    +-10 tol, random, outside Gershgorin, integers and zeros, and unsorted
    lists with duplicates, too short or too long."""
    glo, ghi = gershgorin_bounds(diag, off)
    n, w = len(want), ghi - glo + 1.0
    yield ()
    yield want
    yield [v + 10 * tol for v in want]
    yield [v - 10 * tol * (-1) ** i for i, v in enumerate(want)]
    yield [rng.uniform(glo, ghi) for _ in want]
    yield [glo - w] * (n // 2) + [ghi + w] * (n - n // 2)
    yield [float(rng.randint(int(glo) - 1, int(ghi) + 1)) for _ in want]
    yield [0.0] * n
    yield list(reversed(want)) + list(want[:2])
    yield [want[-1]] * n
    yield rng.sample(list(want), n // 2)


def _count_memory_families():
    rng = random.Random(4600)
    for n in (1, 2, 8, 48):
        for _ in range(3):
            yield f"random{n}", _random_jacobi(rng, n)
    yield "repeated", ([2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0], [0.0] * 6)
    yield "zero", ([0.0] * 5, [0.0] * 4)
    yield "decoupled", ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [0.5, 0.0, 0.5, 0.0, 0.5])
    yield "w21", ([float(abs(10 - i)) for i in range(21)], [1.0] * 20)
    for n in (2, 3, 5, 8, 13):
        for _ in range(4):
            yield f"integer{n}", _integer_jacobi(rng, n)
    for scale in (1e-8, 1e8):
        d, o = _random_jacobi(rng, 8)
        yield f"scaled{scale:g}", ([v * scale for v in d], [v * scale for v in o])


def test_count_memory_matches_plain_bisection_under_any_seeds(fb):
    rng = random.Random(4700)
    for name, (diag, off) in _count_memory_families():
        glo, ghi = gershgorin_bounds(diag, off)
        tol = fb.policy.root_tol * min(1.0, max(-glo, ghi))  # the seeds' offsets
        want, _ = _canonical(diag, off)
        T = _tridiagonal(diag, off)
        for seeds in _seedings(diag, off, want, tol, rng):
            assert eigensolve_tridiagonal(T, fb, near=seeds) == want, (name, seeds)


def test_count_memory_families_reach_exact_zero_pivots(fb, monkeypatch):
    # the integer matrices must exercise the zero-pivot rule on the seeded path,
    # in Sturm counts and in Newton steps: each pass's pivots are replayed (the
    # Newton step's as e2_i * (1/d_{i-1})) and every exactly-zero one is
    # recorded.  The 248 eigenvalues take 6628 pivot passes (26.7 each); the
    # counted Newton passes and the ladder took 23148 (93.3).
    hits = {"sturm_count": [], "_newton_step": []}
    passes = [0]

    def replaying(name, quotient):
        real = getattr(spectral, name)

        def replayed(diag, e2, x):
            passes[0] += 1
            d = 1.0
            for a, b2 in zip(diag, e2):
                d = (a - x) - quotient(b2, d)
                if d == 0.0:
                    hits[name].append(x)
                    d = spectral._ZERO_PIVOT
            return real(diag, e2, x)

        monkeypatch.setattr(spectral, name, replayed)

    replaying("sturm_count", lambda b2, d: b2 / d)
    replaying("_newton_step", lambda b2, d: b2 * (1.0 / d))
    eigenvalues = 0
    for name, (diag, off) in _count_memory_families():
        if name.startswith("integer"):
            eigensolve_tridiagonal(_tridiagonal(diag, off), fb, near=[0.0] * len(diag))
            eigensolve_tridiagonal(_tridiagonal(diag, off), fb, near=_zero_pivot_points(diag, off))
            eigenvalues += 2 * len(diag)
    assert hits["sturm_count"] and hits["_newton_step"]
    assert passes[0] <= 26.73 * eigenvalues


def _assert_monotone_around(diag, off, x, steps=64):
    xs = [x]
    for _ in range(steps):
        xs = [math.nextafter(xs[0], -math.inf)] + xs + [math.nextafter(xs[-1], math.inf)]
    e2 = _squares(off)
    counts = [sturm_count(diag, e2, v) for v in xs]
    assert counts == sorted(counts), (diag, off, x)


def test_sturm_count_is_monotone_across_consecutive_floats(fb):
    """The premise of the count memory: the float64 count never decreases
    from one float to the next, near each eigenvalue and near the points
    where a pivot is exactly zero (x = 0 on a zero diagonal, x = diag[0])."""
    for name, (diag, off) in _count_memory_families():
        glo, ghi = gershgorin_bounds(diag, off)
        tol = fb.policy.root_tol * min(1.0, max(-glo, ghi))
        points = set(plain_sturm_bisection(diag, off, tol)[0]) | {0.0, diag[0]}
        if name.startswith("integer"):
            points |= set(diag) | {float(v) for v in range(int(glo) - 1, int(ghi) + 2)}
        for x in sorted(points):
            _assert_monotone_around(diag, off, x)


def test_seeds_cut_the_sturm_counts_of_the_roundtrip(fb, monkeypatch):
    # the f64-roundtrip workload's spectra at n = 24, seed 1: pivot passes,
    # Sturm counts and Newton steps alike, per eigenvalue 8.79 unseeded and
    # 3.03 seeded (51.2 and 3.31 with counted Newton passes and the ladder)
    calls = _count_passes(monkeypatch)
    counts = {False: 0, True: 0}
    for i in range(2, 100, 5):
        lam = validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), 24))
        B = build_jacobi_special(solve(lam, fb).coefficient_vector, fb)
        for seeded in counts:
            calls.clear()
            eig = eigensolve_tridiagonal(B, fb, near=lam.lambdas if seeded else ())
            counts[seeded] += len(calls)
        assert eig == eigensolve_tridiagonal(B, fb)
    assert counts[False] <= 8.79 * 24 * 20 and counts[True] <= 3.03 * 24 * 20


def test_seeds_cut_the_sturm_counts_of_the_roundtrip_at_n48(fb, monkeypatch):
    # the f64-roundtrip workload's spectra at n = 48, seed 1, where the
    # coefficient pass's J misses its target by up to 1e-5: pivot passes, Sturm
    # counts and Newton steps alike
    calls = _count_passes(monkeypatch)
    counts, sturm = {False: 0, True: 0}, 0
    for i in range(4, 100, 10):
        lam = validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), 48))
        B = build_jacobi_special(solve(lam, fb).coefficient_vector, fb)
        eigs = {}
        for seeded in counts:
            calls.clear()
            eigs[seeded] = eigensolve_tridiagonal(B, fb, near=lam.lambdas if seeded else ())
            counts[seeded] += len(calls)
            sturm += seeded * sum(kind == "count" for kind, _ in calls)
        assert eigs[True] == eigs[False]
    # unseeded, 8.83 passes per eigenvalue (50.3 by bisection alone); seeded,
    # under 3.71: about two Newton steps take the seed's miss of 1e-5 below an
    # ulp, and about two Sturm counts, at the Newton point and an ulp off it,
    # split the pair (3.92, of them 1.46 counts, with counted Newton passes)
    assert counts[False] <= 8.83 * 48 * 10
    assert counts[True] <= 3.71 * 48 * 10 and sturm <= 2.03 * 48 * 10


# --- the kernel on the band of J, with no dense matrix ---


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except AntibidiagError as exc:
        return type(exc), str(exc)


def _roundtrip_spectra():
    """The f64-roundtrip workload's spectra at seeds 1-3, then the scaled
    corpus random_spectrum(case_rng(5, f"scaled{n}", i), n) * 10**e, e = -16..5."""
    for seed in (1, 2, 3):
        for i in range(10):
            n = (8, 16, 24, 32, 48)[i % 5]
            yield random_spectrum(case_rng(seed, "f64-roundtrip", i), n)
    for n in (8, 16, 24, 32):
        for i in range(2):
            base = random_spectrum(case_rng(5, f"scaled{n}", i), n)
            for e in range(-16, 6):
                yield tuple(v * 10.0**e for v in base)


def test_kernel_on_the_band_equals_the_dense_eigensolve(fb):
    solved = 0
    for lam in _roundtrip_spectra():
        try:
            a = solve(validate_spectrum(lam), fb).coefficient_vector
        except AntibidiagError:
            continue
        solved += 1
        diag, off = jacobi_tridiagonal(a, fb)
        B = build_jacobi_special(a, fb)
        for near in ((), lam):
            want = _outcome(eigensolve_tridiagonal, B, fb, near=near)
            assert _outcome(tridiagonal_eigenvalues, diag, off, fb, near=near) == want, lam
    assert solved >= 150


def test_roundtrip_sturm_counts_are_pinned(fb, monkeypatch):
    """The seeded eigensolves of the f64-roundtrip workload's first 100
    spectra at seed 1 (2560 eigenvalues) take 8456 pivot passes, 5208 Sturm
    counts and 3248 Newton steps: a kernel change that adds any to either
    shows.  Counted Newton passes, each followed by a ladder of counts, took
    3781 counts and 5216 passes (8997); two uncounted Newton steps per seed
    before that ladder took 6501 counts and 5120 steps (11621); a bisection to
    width root_tol took 5591 counts."""
    calls = _count_passes(monkeypatch)
    for i in range(100):
        n = (8, 16, 24, 32, 48)[i % 5]
        solve_roundtrip(validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), n)), fb)
    counts = sum(kind == "count" for kind, _ in calls)
    assert (len(calls), counts, len(calls) - counts) == (8456, 5208, 3248)


# --- what each eigenvalue is, with no oracle ---


def _assert_count_steps(diag, off, eig):
    # the float below e_k counts at most k eigenvalues, the float above more,
    # with the count read as 0 at the Gershgorin interval's lower end and below
    # and as n at its upper end and above
    glo, ghi = gershgorin_bounds(diag, off)
    e2 = _squares(off)

    def count(x):
        return 0 if x <= glo else len(diag) if x >= ghi else sturm_count(diag, e2, x)

    for k, e in enumerate(eig):
        below, above = count(math.nextafter(e, -math.inf)), count(math.nextafter(e, math.inf))
        assert below <= k < above, (diag, off, k, e)


def _step_bands(fb):
    """Random bands, the count-memory families and the band of every
    f64-roundtrip workload J, each with its seed lists: none, random ones and,
    for a workload J, the prescribed spectrum."""
    rng = random.Random(4900)
    bands = [_random_jacobi(rng, n) for n in (1, 2, 3, 8, 21, 48) for _ in range(2)]
    bands += [band for _, band in _count_memory_families()]
    # eigenvalues 0.5 and 1.5 are the Gershgorin ends, and the float count
    # steps below 0.5: count(0.5) is 1, and so is count(nextafter(0.5, 0))
    bands.append(([1.0, 1.0], [0.5]))
    for diag, off in bands:
        glo, ghi = gershgorin_bounds(diag, off)
        yield diag, off, ((), [rng.uniform(glo, ghi) for _ in diag], [0.0] * len(diag))
    for lam in _roundtrip_spectra():
        try:
            a = solve(validate_spectrum(lam), fb).coefficient_vector
        except AntibidiagError:
            continue
        diag, off = jacobi_tridiagonal(a, fb)
        yield diag, off, ((), lam)


def test_each_eigenvalue_is_where_its_sturm_count_steps(fb):
    for diag, off, seedings in _step_bands(fb):
        for seeds in seedings:
            _assert_count_steps(diag, off, tridiagonal_eigenvalues(diag, off, fb, near=seeds))


def test_an_exactly_zero_eigenvalue_bisects_through_the_subnormals(fb, monkeypatch):
    # eigenvalues -sqrt(2), 0, sqrt(2): from -0.5 the middle one's Newton step
    # crosses its bracket's upper end 0.0, so the float next to it, -5e-324, is
    # counted and closes the pair in three passes, where a bisection through the
    # subnormals took about 1100 counts; the largest, started at 1.0 where a
    # pivot is exactly zero, walks and bisects: 117 passes in all (1181 before)
    calls = _count_passes(monkeypatch)
    eig = tridiagonal_eigenvalues([0.0] * 3, [1.0] * 2, fb)
    assert repr(eig[1]) == "0.0" and len(calls) <= 117
    _assert_count_steps([0.0] * 3, [1.0] * 2, eig)


def test_a_negative_zero_seed_leaves_an_exact_zero_eigenvalue_at_0_0(fb):
    # -0.0 counts as 0.0 does; stored as a bound it made the midpoint
    # 0.5*(-5e-324) + 0.5*(-0.0) = -0.0, so a -0.0 seed changed the sign
    for seeds in ((), [-1.5, -0.0, 1.5], [-0.0] * 3):
        assert repr(tridiagonal_eigenvalues([0.0] * 3, [1.0] * 2, fb, near=seeds)[1]) == "0.0"


@pytest.mark.parametrize("spectrum", ["1,-1e-5,1e-10", "1,-0.5,1e-9", "1,-1e-4,1e-8,-1e-12"])
def test_a_graded_spectrum_reports_its_true_round_trip_error(fb, spectrum):
    # a is right to about 1e-16 here, and so is the float J's spectrum; the
    # report must not add an error of its own on the smallest eigenvalue
    lam = validate_spectrum(tuple(map(float, spectrum.split(","))))
    assert solve_roundtrip(lam, fb).max_error <= 1e-15


# --- the zero-pivot rule: a monotone count, and eigenvalues no seed changes ---

# entries that make exactly-zero pivots meet tiny and huge codiagonal squares;
# every codiagonal square lies in the normal float64 range
_WIDE_DIAG = (0.0, 1.0, -1.0, 0.5, 2.0, 1e-150, -1e-150, 1e154, -1e154, 1e-300)
_WIDE_OFF = (1.0, 0.5, 1e-150, 1e-17, 1e150, 3e-152, 1e-100, 1e154, 1.3e154)


def _wide_bands(draws):
    rng = random.Random(11)
    for _ in range(draws):
        n = rng.randint(2, 5)
        yield [rng.choice(_WIDE_DIAG) for _ in range(n)], [rng.choice(_WIDE_OFF) for _ in range(n - 1)]


def test_sturm_count_is_monotone_on_bands_of_tiny_and_huge_entries():
    # the 7 consecutive floats around 0.0, each Gershgorin end and each
    # diagonal entry, where exactly-zero pivots fall
    for diag, off in _wide_bands(20000):
        for x in (0.0, *gershgorin_bounds(diag, off), *diag):
            _assert_monotone_around(diag, off, x, steps=3)


def test_no_seed_changes_an_eigenvalue_on_bands_of_tiny_and_huge_entries(fb):
    for diag, off in _wide_bands(300):
        want = tridiagonal_eigenvalues(diag, off, fb)
        for seeds in ([v * (1 + 1e-9) for v in want], [v * (1 - 1e-6) for v in want], [0.0] * len(diag)):
            assert tridiagonal_eigenvalues(diag, off, fb, near=seeds) == want, (diag, off, seeds)


def _exact_count(diag, off, x):
    """Eigenvalues of (diag, off) strictly below x, from the signs of the LDL^T
    pivots of T - xI in rational arithmetic; no pivot may be exactly zero."""
    x, count = Fraction(x), 0
    for i, a in enumerate(diag):
        d = Fraction(a) - x - (Fraction(off[i - 1]) ** 2 / d if i else 0)
        assert d != 0, (diag, off, x)
        count += d < 0
    return count


def test_eigenvalues_lie_within_two_ulps_of_an_exact_count_step(fb):
    # a count that falls across 0.0 returns 0.0 for the eigenvalue near 1e-300
    # (for J of a, near 1.5e-302), unseeded or seeded with zeros
    J = jacobi_tridiagonal(CoefficientVector((1e150, 3e-152, 0.5, 1e150, 3e-152)), fb)
    for (diag, off), rough in (
        (([0.0, -1.0, 1.0], [1e-150, 1e-17]), [-1.0, 1e-300, 1.0]),
        (J, [-1e150, -1.5e-302, 1.5e-302, 1e150, 1e150]),
    ):
        for seeds in ((), rough, [0.0] * len(diag)):
            for k, e in enumerate(tridiagonal_eigenvalues(diag, off, fb, near=seeds)):
                below = above = e
                for _ in range(2):
                    below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                assert _exact_count(diag, off, below) <= k < _exact_count(diag, off, above), (diag, seeds, k, e)


# --- Newton-polished seeds: they never raise and never change a result ---


def _assert_seeded(diag, off, fb, seeds):
    want, _ = _canonical(diag, off)
    assert eigensolve_tridiagonal(_tridiagonal(diag, off), fb, near=seeds) == want, (diag, seeds)


def test_newton_step_survives_a_pivot_whose_square_underflows(fb):
    # the first pivot 1e-150 - t is one ulp of 1e-150, whose square is 0.0
    T = build_jacobi_special(CoefficientVector((1e-150, 1e-150)), fb)
    diag, off = [T.entries[0][0], T.entries[1][1]], [T.entries[0][1]]
    t = math.nextafter(1e-150, 1.0)
    assert (diag[0] - t) * (diag[0] - t) == 0.0
    assert math.isfinite(spectral._newton_step(diag, _squares(off), t))
    _assert_seeded(diag, off, fb, (t, t))


@pytest.mark.parametrize("seed", [math.inf, -math.inf, math.nan, 0.0])
def test_non_finite_and_zero_seeds_change_nothing(fb, seed):
    # from a non-finite seed the Newton step is nan, a point in no bracket,
    # and from 0.0 it is nan (at a zero pivot) or finite
    for _, (diag, off) in _count_memory_families():
        x = spectral._newton_step(diag, _squares(off), seed)
        assert not math.isinf(x) if math.isfinite(seed) else math.isnan(x)
        _assert_seeded(diag, off, fb, [seed] * len(diag))
    _assert_seeded([1.0, 3.0, 2.0], [1.0, 0.5], fb, [math.inf, math.nan, 0.0, -math.inf])


def _zero_pivot_points(diag, off):
    """The half-integers around the Gershgorin interval where a pivot of the
    Sturm recurrence is exactly 0.0."""
    glo, ghi = gershgorin_bounds(diag, off)
    out = []
    for x in (v / 2 for v in range(2 * math.floor(glo) - 2, 2 * math.ceil(ghi) + 3)):
        d = diag[0] - x
        for a, b in zip(diag[1:], off):
            if d == 0.0:
                break
            d = (a - x) - b * b / d
        if d == 0.0:
            out.append(x)
    return out


def test_seeds_at_exact_zero_pivots_take_no_step_and_change_nothing(fb):
    # the Newton step from a point where a Sturm pivot is exactly 0.0 leaves
    # it in place (an infinite sum) or is nan
    hits = 0
    for name, (diag, off) in _count_memory_families():
        if not name.startswith("integer"):
            continue
        points = _zero_pivot_points(diag, off)
        hits += len(points)
        e2 = _squares(off)
        for x in points:
            step = spectral._newton_step(diag, e2, x)
            assert step == x or math.isnan(step), (diag, off, x)
            _assert_seeded(diag, off, fb, [x] * len(diag))
        _assert_seeded(diag, off, fb, points)
    assert hits > 20


def test_seeds_at_the_gershgorin_ends_change_nothing(fb):
    for _, (diag, off) in _count_memory_families():
        glo, ghi = gershgorin_bounds(diag, off)
        n = len(diag)
        for seeds in ([glo] * n, [ghi] * n, [glo, ghi] * n):
            _assert_seeded(diag, off, fb, seeds)


def test_newton_step_where_the_determinant_is_flat_or_the_step_long():
    # det(T - xI) = x^2 - 4x + 2, with roots 2 -+ sqrt(2): its derivative is
    # exactly 0.0 at x = 2, where the step is nan; from 2.001 it goes about 1000
    # away and from 3.5 about 0.08 (the search, not the step, refuses a point
    # outside its bracket); from 3.415 it lands near 2 + sqrt(2)
    e2 = (0.0, 1.0)
    assert math.isnan(spectral._newton_step([1.0, 3.0], e2, 2.0))
    assert spectral._newton_step([1.0, 3.0], e2, 2.001) == pytest.approx(1002.0, rel=1e-6)
    assert spectral._newton_step([1.0, 3.0], e2, 3.5) == pytest.approx(3.5 - 1 / 12, rel=1e-12)
    assert abs(spectral._newton_step([1.0, 3.0], e2, 3.415) - (2.0 + SQ2)) <= 1e-6


def test_two_newton_steps_land_the_targets_on_the_eigenvalues(fb):
    # the f64-roundtrip workload's spectra at n = 48, seed 1: the targets miss
    # the eigenvalues of the coefficient pass's J by up to about 1e-5
    miss = polished = 0.0
    for i in range(4, 100, 10):
        lam = validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), 48))
        B = build_jacobi_special(solve(lam, fb).coefficient_vector, fb)
        diag, off = [B.entries[k][k] for k in range(48)], [B.entries[k][k + 1] for k in range(47)]
        e2 = _squares(off)
        for t, v in zip(sorted(lam.lambdas), eigensolve_tridiagonal(B, fb)):
            miss = max(miss, abs(t - v) / abs(v))
            t = spectral._newton_step(diag, e2, spectral._newton_step(diag, e2, t))
            polished = max(polished, abs(t - v) / abs(v))
    assert miss > 1e-6 and polished <= 1e-12


@pytest.mark.parametrize("scale", [1e0, 1e-3, 1e-6, 1e-9])
def test_roundtrip_precision_does_not_depend_on_units(fb, scale):
    # moduli within a factor of 10, so root_tol relative to the largest
    # eigenvalue is within 1e-12 of every one
    rng = random.Random(4900)
    spectra = [(3.0, -2.0, 1.0)] + [
        random_spectrum(rng, n, lo=1.0) for n in (2, 5, 8) for _ in range(3)
    ]
    for lam in spectra:
        spec = validate_spectrum(tuple(v * scale for v in lam))
        assert solve_roundtrip(spec, fb).max_error <= 1e-12


# --- the one-loop Sturm kernels against their two-step form ---


def _two_step_sturm_count(diag, e2, x):
    """``sturm_count`` with its first pivot, diag[0] - x, written out before the loop."""
    count = 0
    d = diag[0] - x
    if d == 0.0:
        d = spectral._ZERO_PIVOT
    if d < 0:
        count += 1
    for a, b2 in zip(diag[1:], e2[1:]):
        d = (a - x) - b2 / d
        if d == 0.0:
            d = spectral._ZERO_PIVOT
        if d < 0:
            count += 1
    return count


def _two_step_newton(diag, e2, t):
    """``_newton_step`` with its first pivot and ratio written out before the
    loop; an exactly-zero first pivot takes no step."""
    d = diag[0] - t
    if d == 0.0:
        return math.nan
    inv = 1.0 / d
    r = s = -inv
    for a, b2 in zip(diag[1:], e2[1:]):
        q = b2 * inv
        d = (a - t) - q
        inv = 1.0 / (spectral._ZERO_PIVOT if d == 0.0 else d)
        r = q * inv * r - inv
        s += r
    return t - 1.0 / s if s != 0.0 else math.nan


def _two_step_cases(fb):
    """(diag, off, points): random bands n = 1..48 at their eigenvalues, off
    them by 1e-6 and at random points; exactly zero first pivots, a -0.0
    diagonal, codiagonals whose squares lie near the ends of the normal range,
    and the 1e-150 band whose first Newton pivot squares to 0.0."""
    rng = random.Random(5100)
    for n in range(1, 49):
        diag, off = _random_jacobi(rng, n)
        glo, ghi = gershgorin_bounds(diag, off)
        eigs = tridiagonal_eigenvalues(diag, off, fb)
        yield diag, off, [*eigs, *(v * (1 + 1e-6) for v in eigs), *(rng.uniform(glo, ghi) for _ in eigs)]
    for diag, off in (([2.0, 1.0, 3.0], [1.0, 0.5]), ([0.0, 0.0], [1.0]), ([-0.0, 1.0, -0.0], [2.0, 1.0])):
        yield diag, off, [diag[0], 0.0, -0.0, 1.0, -1.0]
    for b in (1.5e-154, 2e-154, 1e154, 1.3e154):
        diag = [b, -b, 0.5 * b, 2 * b]
        yield diag, [b] * 3, [*tridiagonal_eigenvalues(diag, [b] * 3, fb), b, 1e-3 * b]
    T = build_jacobi_special(CoefficientVector((1e-150, 1e-150)), fb)
    t = math.nextafter(1e-150, 1.0)
    yield [T.entries[0][0], T.entries[1][1]], [T.entries[0][1]], [t, 1e-150, 2e-150]


def test_one_loop_kernels_equal_their_two_step_form_bit_for_bit(fb):
    moved = 0
    for diag, off, points in _two_step_cases(fb):
        e2 = _squares(off)
        for x in [*points, math.inf, -math.inf, math.nan]:
            got, want = sturm_count(diag, e2, x), _two_step_sturm_count(diag, e2, x)
            assert repr(got) == repr(want), (diag, off, x)
            got, want = spectral._newton_step(diag, e2, x), _two_step_newton(diag, e2, x)
            assert repr(got) == repr(want), (diag, off, x)
            moved += repr(got) != repr(x)
    assert moved > 1000  # most Newton steps are taken, not refused


# --- class-plus power from the theorem against power-by-power enumeration ---


def _identity(n, backend):
    return StructuredMatrix(n, tuple(tuple(backend.convert(int(i == j)) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_plus_power_matches_enumeration_on_fractions(rb, n):
    rng = random.Random(4200 + n)
    A = build_antibidiagonal(CoefficientVector(random_rational_coefficients(rng, n)), rb)
    for max_power in sorted({0, n - 2, n - 1, 2 * n}):
        assert check_class_plus(A, max_power, rb) == check_class_plus_reference(A, max_power, rb)


def test_totally_positive_matches_early_exit_enumeration(fb, rb):
    rng = random.Random(4300)
    for backend in (fb, rb):
        c = backend.convert
        matrices = [_identity(3, backend), StructuredMatrix(2, ((c(1), c(0)), (c(0), c(-5))))]
        for n in range(1, 6):
            A = build_antibidiagonal(CoefficientVector(random_rational_coefficients(rng, n)), backend)
            S = P = matmul(A, A, backend)
            for _ in range(n):
                matrices.append(P)
                P = matmul(P, S, backend)
        for M in matrices:
            assert spectral.totally_positive(M, backend) == totally_positive_reference(M, backend)


def test_check_class_plus_checks_the_theorem_hypotheses(fb, rb):
    for backend in (fb, rb):
        with pytest.raises(SizeMismatch):
            check_class_plus(_identity(3, backend), 6, backend)
        A = build_antibidiagonal(CoefficientVector((2, 1, 3)), backend)
        with pytest.raises(NonPositiveEntry):
            check_class_plus(conjugate_signs(A, (1, -1, 1), backend), 6, backend)


def test_check_class_plus_enumerates_nothing(fb, monkeypatch):
    def forbidden(*args):
        raise AssertionError("check_class_plus enumerated")

    monkeypatch.setattr(spectral, "minor", forbidden)
    monkeypatch.setattr(spectral, "matmul", forbidden)
    A = build_antibidiagonal(CoefficientVector((1.0, 2.0, 3.0, 4.0, 5.0, 6.0)), fb)
    assert check_class_plus(A, 12, fb) == 5
    assert check_class_plus(A, 4, fb) is None


# --- sign-regularity verdicts with the pattern's zero minors skipped ---


def _random_signs(rng, n):
    return tuple(rng.choice((1, -1)) for _ in range(n))


def _sign_regularity_cases(rng, n, backend):
    a = CoefficientVector(
        random_rational_coefficients(rng, n) if backend.exact else random_coefficients(rng, n)
    )
    A = build_antibidiagonal(a, backend)
    yield A
    yield conjugate_signs(A, _random_signs(rng, n), backend)  # -0.0 off the pattern in float64
    yield build_jacobi_special(a, backend)
    S = P = matmul(A, A, backend)
    for _ in range(max(1, n - 1)):
        yield P  # (A^2)^m, banded below m = n - 1 and dense from there
        P = matmul(P, S, backend)
    for _ in range(4):
        yield StructuredMatrix(n, tuple(map(tuple, sparse_grid(rng, n, backend))))
    yield StructuredMatrix(n, tuple(
        tuple(backend.convert(rng.randint(-3, 5)) for _ in range(n)) for _ in range(n)
    ))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_classify_sign_regular_matches_full_enumeration(fb, rb, n):
    """The whole report, witnesses included, equals the one every minor gives."""
    rng = random.Random(1400 + n)
    witnesses = 0
    for backend in (fb, rb):
        for M in _sign_regularity_cases(rng, n, backend):
            for d, sig in ((n, signature_sequence(n)), (rng.randint(1, n), _random_signs(rng, n))):
                got = classify_sign_regular(M, d, sig, backend)
                want = classify_sign_regular_reference(M, d, sig, backend)
                assert got == want and repr(got) == repr(want), (M, d, sig)
                witnesses += sum(v.witness_value is not None for v in got.verdicts)
    assert witnesses > 0


@pytest.mark.parametrize("n, evaluated", [(4, 34), (6, 267)])
def test_classify_sign_regular_skips_the_zero_minors_of_the_pattern(fb, monkeypatch, n, evaluated):
    calls = [0]
    minor = spectral.minor

    def counting(*args):
        calls[0] += 1
        return minor(*args)

    monkeypatch.setattr(spectral, "minor", counting)
    A = build_antibidiagonal(CoefficientVector(tuple(random_coefficients(random.Random(n), n))), fb)
    classify_sign_regular(A, n, signature_sequence(n), fb)
    assert calls[0] == evaluated  # of comb(2n, n) - 1 = 69 and 923
    calls[0] = 0
    classify_sign_regular(StructuredMatrix(n, ((1.0,) * n,) * n), n, (1,) * n, fb)
    assert calls[0] == math.comb(2 * n, n) - 1  # a dense matrix has no zero minor to skip
