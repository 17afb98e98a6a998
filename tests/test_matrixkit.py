import csv
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from antibidiag import (
    CoefficientVector,
    build_antibidiagonal,
    build_antidiagonal_unit,
    build_jacobi_special,
    cli,
    matmul,
    minor,
    sign_normalize,
)
from antibidiag.errors import (
    EmptyInput,
    NonFiniteEntry,
    NonFiniteResult,
    NonPositiveEntry,
    SizeMismatch,
    StructuralZero,
)
from antibidiag.matrixkit import (
    RowWindows,
    StructuredMatrix,
    antibidiagonal_windows,
    conjugate_signs,
    determinant,
    jacobi_tridiagonal,
    jacobi_windows,
)
from antibidiag.sampling import random_coefficients, random_rational_coefficients

from oracles import (
    build_antibidiagonal_reference,
    build_antidiagonal_unit_reference,
    build_jacobi_special_reference,
    charpoly_cofactor,
    determinant_reference,
    sign_normalize_reference,
    sparse_grid,
)

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def cv(*vals):
    return CoefficientVector(tuple(vals))


def assert_jacobi(M):
    """Tridiagonal and symmetric with a positive codiagonal."""
    for i in range(M.n):
        for j in range(M.n):
            assert M.entries[i][j] == M.entries[j][i]
            if abs(i - j) > 1:
                assert M.entries[i][j] == 0
    assert all(M.entries[i][i + 1] > 0 for i in range(M.n - 1))


def test_build_antibidiagonal_worked(fb):
    A = build_antibidiagonal(cv(2.0, SQ2, SQ3), fb)
    assert A.entries == (
        (0.0, 0.0, SQ3),
        (0.0, 2.0, SQ2),
        (SQ3, SQ2, 0.0),
    )


def test_build_antibidiagonal_small(fb):
    assert build_antibidiagonal(cv(5.0), fb).entries == ((5.0,),)
    A2 = build_antibidiagonal(cv(1.5, 2.5), fb)
    assert A2.entries == ((0.0, 2.5), (2.5, 1.5))


def test_build_jacobi_worked(fb):
    B = build_jacobi_special(cv(2.0, SQ2, SQ3), fb)
    assert B.entries == (
        (2.0, SQ2, 0.0),
        (SQ2, 0.0, SQ3),
        (0.0, SQ3, 0.0),
    )
    assert build_jacobi_special(cv(4.0), fb).entries == ((4.0,),)
    assert build_jacobi_special(cv(1.0, 2.0), fb).entries == ((1.0, 2.0), (2.0, 0.0))


def test_builders_exactly_symmetric(fb):
    rng = random.Random(1)
    for n in range(1, 11):
        a = cv(*random_coefficients(rng, n))
        for M in (build_antibidiagonal(a, fb), build_jacobi_special(a, fb)):
            assert M.entries == tuple(zip(*M.entries))


def test_builders_match_the_slot_map_reference(fb, rb):
    rng = random.Random(30)
    for n in range(1, 41):
        for backend, values in (
            (fb, random_coefficients(rng, n)),
            (rb, random_rational_coefficients(rng, n)),
        ):
            a = cv(*values)
            pairs = (
                (build_antibidiagonal(a, backend), build_antibidiagonal_reference(a.a, backend)),
                (build_jacobi_special(a, backend), build_jacobi_special_reference(a.a, backend)),
                (build_antidiagonal_unit(n, backend), build_antidiagonal_unit_reference(n, backend)),
            )
            for M, want in pairs:
                assert M.n == n and repr(M.entries) == repr(want), n
            # the band of the Jacobi matrix, read off a without the dense grid
            J = build_jacobi_special_reference(a.a, backend)
            band = [J[i][i] for i in range(n)], [J[i][i + 1] for i in range(n - 1)]
            assert repr(jacobi_tridiagonal(a, backend)) == repr(band), n


def test_positive_entries_enforced():
    with pytest.raises(NonPositiveEntry):
        cv(1.0, -2.0)
    with pytest.raises(NonPositiveEntry):
        cv(0.0)
    with pytest.raises(EmptyInput):
        CoefficientVector(())


def test_antidiagonal_unit(fb):
    with pytest.raises(EmptyInput):
        build_antidiagonal_unit(0, fb)
    assert build_antidiagonal_unit(1, fb).entries == ((1.0,),)
    assert build_antidiagonal_unit(2, fb).entries == ((0.0, 1.0), (1.0, 0.0))
    assert build_antidiagonal_unit(3, fb).entries == (
        (0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
    )


def test_minor_examples(fb):
    J3 = build_antidiagonal_unit(3, fb)
    assert minor(J3, (1, 2), (2, 3), fb) == -1.0
    assert minor(J3, (1, 2, 3), (1, 2, 3), fb) == -1.0
    A = build_antibidiagonal(cv(2.0, SQ2, SQ3), fb)
    assert minor(A, (2,), (3,), fb) == SQ2
    with pytest.raises(SizeMismatch):
        minor(J3, (1, 2), (3,), fb)
    with pytest.raises(SizeMismatch):
        minor(J3, (2, 1), (1, 2), fb)
    with pytest.raises(SizeMismatch):
        minor(J3, (), (), fb)


def test_determinant_bareiss_vs_cofactor_oracle():
    rng = random.Random(9)
    for n in range(1, 6):
        grid = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        exact = determinant(grid)
        # constant term of charpoly_cofactor(-M) equals det(M) since
        # det(x*I + M) at x=0 is det(M)
        neg = [[-v for v in row] for row in grid]
        assert exact == charpoly_cofactor(neg)[0]
        approx = determinant([[float(v) for v in row] for row in grid])
        assert approx == pytest.approx(float(exact), abs=1e-9)


def _index_sets(n):
    for k in range(1, n + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                yield rows, cols


def test_determinant_matches_both_reference_algorithms_on_every_minor(fb, rb):
    """Partial pivoting gives the first form's float determinant bit for bit
    and its Bareiss determinant exactly on Fractions, zero minors included
    (the sign-conjugated matrix holds -0.0 entries)."""
    rng = random.Random(31)
    for n in range(1, 7):
        for backend, values in (
            (fb, random_coefficients(rng, n)),
            (rb, random_rational_coefficients(rng, n)),
        ):
            a = cv(*values)
            A = build_antibidiagonal(a, backend)
            eps = tuple(rng.choice((1, -1)) for _ in range(n))
            dense = [
                StructuredMatrix(n, tuple(
                    tuple(backend.convert(draw()) for _ in range(n)) for _ in range(n)
                ))
                for draw in (lambda: rng.uniform(-2, 2), lambda: rng.randint(-2, 2))
            ]
            matrices = [A, conjugate_signs(A, eps, backend), build_jacobi_special(a, backend)]
            for M in matrices + dense:
                for rows, cols in _index_sets(n):
                    got = minor(M, rows, cols, backend)
                    sub = [[M.entries[i - 1][j - 1] for j in cols] for i in rows]
                    want = determinant_reference(sub, backend.exact)
                    if backend.exact:
                        assert got == want, (n, rows, cols)
                    else:
                        assert repr(got) == repr(want), (n, rows, cols)


def test_determinant_matches_the_first_form_bit_for_bit_on_sparse_grids(fb, rb):
    """Rows skipped for a zero pivot-column entry leave the determinant as the
    first form computes it, on grids with zero rows and columns, single-entry
    rows and -0.0 entries, and on each of their square sub-grids."""
    rng = random.Random(1401)
    zeros = 0
    for backend in (fb, rb):
        for n in range(1, 7):
            for _ in range(12):
                grid = sparse_grid(rng, n, backend)
                for rows, cols in _index_sets(n):
                    sub = [[grid[i - 1][j - 1] for j in cols] for i in rows]
                    got = determinant(sub)
                    assert repr(got) == repr(determinant_reference(sub, backend.exact)), sub
                    zeros += got == 0
    assert zeros > 10000  # singular sub-grids, whose zero must be +0.0, are common


def test_matmul_examples(fb):
    a = cv(2.0, SQ2, SQ3)
    A = build_antibidiagonal(a, fb)
    J = build_antidiagonal_unit(3, fb)
    JA = matmul(J, A, fb)
    assert JA.entries == ((SQ3, SQ2, 0.0), (0.0, 2.0, SQ2), (0.0, 0.0, SQ3))
    eye = StructuredMatrix(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert matmul(eye, A, fb).entries == A.entries
    A2 = matmul(A, A, fb)
    want = (
        (3.0, math.sqrt(6.0), 0.0),
        (math.sqrt(6.0), 6.0, 2 * SQ2),
        (0.0, 2 * SQ2, 5.0),
    )
    for got_r, want_r in zip(A2.entries, want):
        for g, w in zip(got_r, want_r):
            assert g == pytest.approx(w, abs=1e-12)
    assert_jacobi(A2)
    with pytest.raises(SizeMismatch):
        matmul(A, build_antidiagonal_unit(2, fb), fb)


def test_flip_product_nonnegative_bidiagonal(fb):
    rng = random.Random(2)
    for n in range(1, 13):
        a = cv(*random_coefficients(rng, n))
        A = build_antibidiagonal(a, fb)
        J = build_antidiagonal_unit(n, fb)
        B = matmul(J, A, fb)
        for i in range(n):
            for j in range(n):
                v = B.entries[i][j]
                assert v >= 0.0
                if j - i not in (0, 1):
                    assert v == 0.0


def test_square_is_jacobi(fb):
    rng = random.Random(4)
    for n in range(1, 13):
        a = cv(*random_coefficients(rng, n))
        A = build_antibidiagonal(a, fb)
        S = matmul(A, A, fb)
        assert_jacobi(S)
        for i in range(n):
            assert S.entries[i][i] > 0


def test_sign_normalize_identity_and_global(fb):
    a = cv(2.0, SQ2, SQ3)
    A = build_antibidiagonal(a, fb)
    got, eps, neg = sign_normalize(A, fb)
    assert got.a == a.a and eps == (1, 1, 1) and not neg
    negA = StructuredMatrix(3, tuple(tuple(-v for v in row) for row in A.entries))
    got, eps, neg = sign_normalize(negA, fb)
    assert got.a == a.a and eps == (1, 1, 1) and neg


def test_sign_normalize_single_flip_matches_brute_force(fb):
    a = cv(2.0, SQ2, SQ3)
    A = build_antibidiagonal(a, fb)
    # flip a_3 (entries (1,3) and (3,1))
    grid = [list(r) for r in A.entries]
    grid[0][2] = -grid[0][2]
    grid[2][0] = -grid[2][0]
    M = StructuredMatrix(3, tuple(tuple(r) for r in grid))
    got, eps, neg = sign_normalize(M, fb)
    assert not neg and got.a == a.a
    # the returned eps must actually renormalize M; confirm against the
    # exhaustive search over all 2^3 sign vectors
    assert conjugate_signs(M, eps, fb).entries == A.entries
    found = [
        e
        for e in product((1, -1), repeat=3)
        if conjugate_signs(M, e, fb).entries == A.entries
    ]
    assert eps in found


def test_sign_normalize_random_conjugations(fb, rb):
    rng = random.Random(8)
    for n in range(1, 25):
        af = cv(*random_coefficients(rng, n))
        Af = build_antibidiagonal(af, fb)
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        Mf = conjugate_signs(Af, eps, fb)
        gf, ef, negf = sign_normalize(Mf, fb)
        assert not negf
        for x, y in zip(gf.a, af.a):
            assert fb.approx_equal(x, y)
        ar = cv(*random_rational_coefficients(rng, n))
        Ar = build_antibidiagonal(ar, rb)
        Mr = conjugate_signs(Ar, eps, rb)
        gr, er, negr = sign_normalize(Mr, rb)
        assert gr.a == ar.a and not negr
        assert conjugate_signs(conjugate_signs(Ar, eps, rb), er, rb).entries == Ar.entries
        # The path walk agrees with the graph search bit for bit, with and
        # without a global negation.
        for M, backend in ((Mf, fb), (Mr, rb)):
            negM = StructuredMatrix(n, tuple(tuple(-v for v in row) for row in M.entries))
            for X in (M, negM):
                got, e, neg = sign_normalize(X, backend)
                want_a, want_e, want_neg = sign_normalize_reference(X, backend)
                assert (repr(got.a), e, neg) == (repr(want_a), want_e, want_neg), n


def test_conjugate_signs_needs_one_sign_per_row(fb):
    with pytest.raises(SizeMismatch):
        conjugate_signs(build_antidiagonal_unit(3, fb), (1, -1), fb)


def test_sign_normalize_structural_zero(fb):
    M = StructuredMatrix(2, ((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(StructuralZero):
        sign_normalize(M, fb)


def test_sign_normalize_rejects_wrong_sparsity(fb):
    M = StructuredMatrix(3, tuple(tuple(1.0 for _ in range(3)) for _ in range(3)))
    with pytest.raises(SizeMismatch):
        sign_normalize(M, fb)


def test_non_finite_entries_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteEntry):
            cv(bad, 1.0)
        with pytest.raises(NonFiniteEntry):
            cv(1.0, bad)
    assert CoefficientVector((Fraction(1, 3), Fraction(10**400))).n == 2


def _window_vectors(rng):
    """a for n = 1..64, each entry 10**e for e uniform in [-300, 300] or a subnormal."""
    for n in range(1, 65):
        yield tuple(rng.choice((5e-324, 1e-310)) if rng.random() < 0.1 else 10 ** rng.uniform(-300, 300)
                    for _ in range(n))


def _dense_text(matrices: dict, fmt: str) -> str:
    """The report of ``matrices`` (key -> RowWindows) as its dense rows make it,
    cell by cell: JSON by ``json.dumps``, CSV by the csv module's writer, and
    pretty as every cell's .12g right-aligned to the widest."""
    dense = {key: m.rows for key, m in matrices.items()}
    if fmt == "json":
        return json.dumps(dense) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for key, rows in dense.items():
            writer.writerows([f"{key}.row{i}", *map(str, row)] for i, row in enumerate(rows, start=1))
        return out.getvalue()
    lines = []
    for key, rows in dense.items():
        cells = [[cli._pretty(c) for c in row] for row in rows]
        width = max(len(c) for row in cells for c in row)
        lines += [f"{key}:", *("  [ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)]
    return "\n".join(lines) + "\n"


def _emitted(report: dict, fmt: str) -> str:
    out = io.StringIO()
    cli._emit(report, fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
def test_row_windows_expand_to_the_slot_map_and_write_the_json_of_their_rows(fb, seed):
    for a in _window_vectors(random.Random(seed)):
        A, B = antibidiagonal_windows(cv(*a), fb), jacobi_windows(cv(*a), fb)
        assert A.rows == build_antibidiagonal_reference(a, fb)
        assert B.rows == build_jacobi_special_reference(a, fb)
        assert all(1 <= len(cells) <= 3 for M in (A, B) for _, cells in M.windows)
        report = {"a": a, "antibidiagonal": A, "jacobi": B, "diagnostics": {"max_residual": 0.5}}
        dense = {**report, "antibidiagonal": A.rows, "jacobi": B.rows}
        assert cli._windows_json(A) == json.dumps(A.rows)
        assert _emitted(report, "json") == json.dumps(dense) + "\n"
        for fmt in ("csv", "pretty"):  # the windows against the dense rows, and against each cell's text
            assert _emitted(report, fmt) == _emitted(dense, fmt)
            assert _emitted({"antibidiagonal": A, "jacobi": B}, fmt) == _dense_text({"antibidiagonal": A, "jacobi": B}, fmt)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_row_windows_keep_the_text_of_each_cell(fmt, zero):
    # 0.0 == -0.0 and 1 == 1.0, but each is written as itself; 5e-324 and 1e300 are the extremes
    m = RowWindows(5, ((4, (1e300,)), (0, (-0.0, 0.0, 5e-324)), (1, (0.0, -0.0)), (2, (5e-324, 1, 1.0)),
                       (0, (1.0, 1, -0.0, zero, 1e300))), zero)
    one = RowWindows(1, ((0, (-0.0,)),), 0.0)  # no row has room for the zero, so it is never written
    matrices = {"m": m, "one": one}
    assert _emitted(matrices, fmt) == _dense_text(matrices, fmt)
    assert cli._windows_json(m) == json.dumps(m.rows)


def test_a_nan_in_a_windowed_matrix_is_named_in_every_format(fb):
    A = antibidiagonal_windows(cv(1.0, 2.0, 3.0), fb)
    bad = RowWindows(3, ((0, (1.0, 2.0)), (0, (2.0, 0.0, math.nan)), (1, (3.0, 0.0))), 0.0)
    report = {"a": (1.0,), "antibidiagonal": A, "jacobi": bad, "warnings": [math.inf]}
    for fmt in ("json", "csv", "pretty"):
        with pytest.raises(NonFiniteResult, match=r"^jacobi holds inf or NaN in float64$"):
            cli._emit(report, fmt, io.StringIO())
