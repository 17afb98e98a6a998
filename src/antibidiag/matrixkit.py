"""Structured matrices: anti-bidiagonal, the special Jacobi subclass, the
antidiagonal unit, plus dense minors, products, and sign normalization.

Each structured matrix is built from its index rule.  The anti-bidiagonal
matrix and the special Jacobi matrix read theirs off as row windows
(``RowWindows``: per row its leading zeros and its 1-3 stored entries), which
their dense builders expand and the command line renders.  In the
anti-bidiagonal matrix the nonzeros sit where i + j is n + 1 or n + 2
(1-based) and the entry there is a_{|i-j|+1}; its flip J*A by the
antidiagonal unit J is therefore upper bidiagonal, nonzero exactly where
j - i is 0 or 1.

Index sets and the rules are 1-based, matching the a_1..a_n labelling of the
structures; storage is 0-based tuples.
"""

from __future__ import annotations

import math

from .errors import EmptyInput, NonFiniteEntry, NonPositiveEntry, SizeMismatch, StructuralZero
from .scalars import Backend, Record

class CoefficientVector(Record):
    """Strictly positive finite entries a_1..a_n defining both structured families."""

    a: tuple

    def __post_init__(self):
        if len(self.a) == 0:
            raise EmptyInput("coefficient vector must have n >= 1 entries")
        for k, v in enumerate(self.a, start=1):
            if not -math.inf < v < math.inf:
                raise NonFiniteEntry(f"a_{k} = {v} is not finite")
            if not v > 0:
                raise NonPositiveEntry(f"a_{k} = {v} is not strictly positive")

    @property
    def n(self) -> int:
        return len(self.a)


class StructuredMatrix(Record):
    n: int
    entries: tuple  # tuple of n row-tuples

    def maxnorm(self):
        return max(abs(v) for row in self.entries for v in row)

    def row_norms(self):
        return [sum(v * v for v in row) ** 0.5 for row in self.entries]


class RowWindows(Record):
    """An n x n matrix by rows: row i is ``windows[i] = (lead, cells)``, that is
    ``lead`` zeros, the stored entries ``cells``, then zeros to width n."""

    n: int
    windows: tuple
    zero: object

    @property
    def rows(self) -> tuple:
        """The dense row tuples."""
        z, n = self.zero, self.n
        return tuple((z,) * lead + cells + (z,) * (n - lead - len(cells)) for lead, cells in self.windows)


def antibidiagonal_windows(a: CoefficientVector, backend: Backend) -> RowWindows:
    """The symmetric matrix whose nonzeros fill the two central antidiagonals:
    entry (i, j), 1-based, is a_{|i-j|+1} where i + j is n + 1 or n + 2, so
    row 1 = (0,..,0,a_n), row 2 = (0,..,0,a_{n-2},a_{n-1}), ..."""
    n = a.n
    v = [backend.convert(x) for x in a.a]  # 0-based: row i holds j = n-1-i and n-i
    rest = ((n - 1 - i, (v[abs(2 * i - n + 1)], v[abs(2 * i - n)])) for i in range(1, n))
    return RowWindows(n, ((n - 1, (v[n - 1],)), *rest), backend.zero)


def build_antibidiagonal(a: CoefficientVector, backend: Backend) -> StructuredMatrix:
    """``antibidiagonal_windows`` as dense rows."""
    return StructuredMatrix(a.n, antibidiagonal_windows(a, backend).rows)


def jacobi_tridiagonal(a: CoefficientVector, backend: Backend):
    """(diag, off) of the special Jacobi matrix: diagonal (a_1, 0, ..., 0) and
    codiagonal a_2..a_n, as lists of backend scalars."""
    v = [backend.convert(x) for x in a.a]
    return v[:1] + [backend.zero] * (a.n - 1), v[1:]


def jacobi_windows(a: CoefficientVector, backend: Backend) -> RowWindows:
    """Tridiagonal matrix with diagonal (a_1, 0, ..., 0) and codiagonal a_2..a_n:
    entry (i, j), 1-based, is a_{max(i,j)} where |i - j| = 1 or i = j = 1."""
    diag, off = jacobi_tridiagonal(a, backend)
    windows = ((max(i - 1, 0), (*off[i - 1 : i], d, *off[i : i + 1])) for i, d in enumerate(diag))
    return RowWindows(a.n, tuple(windows), backend.zero)


def build_jacobi_special(a: CoefficientVector, backend: Backend) -> StructuredMatrix:
    """``jacobi_windows`` as dense rows."""
    return StructuredMatrix(a.n, jacobi_windows(a, backend).rows)


def build_antidiagonal_unit(n: int, backend: Backend) -> StructuredMatrix:
    if n < 1:
        raise EmptyInput("n must be >= 1")
    one, zero = backend.one, backend.zero
    rows = (tuple([one if i + j == n - 1 else zero for j in range(n)]) for i in range(n))
    return StructuredMatrix(n, tuple(rows))


def check_index_set(idx, n: int):
    idx = tuple(idx)
    if not idx:
        raise SizeMismatch("index set must be nonempty")
    prev = 0
    for i in idx:
        if not (1 <= i <= n) or i <= prev:
            raise SizeMismatch(f"index set {idx} is not strictly increasing in 1..{n}")
        prev = i
    return idx


def determinant(rows):
    """Determinant of a small dense square array (list of row lists), by
    Gaussian elimination with partial pivoting on the first largest entry; exact
    on Fractions.  Rows with a zero pivot-column entry are skipped: 0*x is 0 for finite x."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for k in range(n):
        p, big = k, abs(m[k][k])
        for r in range(k + 1, n):
            if abs(m[r][k]) > big:
                p, big = r, abs(m[r][k])
        if big == 0:
            return big  # a zero of the entries' type, never -0.0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            if row[k] != 0:
                f = row[k] / m[k][k]
                for j in range(k + 1, n):
                    row[j] -= f * m[k][j]
    return det


def minor(M: StructuredMatrix, rows, cols, backend: Backend):
    """Determinant of the submatrix selected by 1-based index sets."""
    rows = check_index_set(rows, M.n)
    cols = check_index_set(cols, M.n)
    if len(rows) != len(cols):
        raise SizeMismatch(f"{len(rows)} rows vs {len(cols)} cols")
    sub = [[M.entries[i - 1][j - 1] for j in cols] for i in rows]
    return determinant(sub)


def matmul(X: StructuredMatrix, Y: StructuredMatrix, backend: Backend) -> StructuredMatrix:
    if X.n != Y.n:
        raise SizeMismatch(f"{X.n}x{X.n} times {Y.n}x{Y.n}")
    n = X.n
    yt = list(zip(*Y.entries))
    grid = [
        tuple(sum(a * b for a, b in zip(xrow, ycol)) for ycol in yt)
        for xrow in X.entries
    ]
    return StructuredMatrix(n, tuple(grid))


def conjugate_signs(M: StructuredMatrix, eps, backend: Backend) -> StructuredMatrix:
    """diag(eps) * M * diag(eps) for eps in {+-1}^n; preserves the sparsity."""
    if len(eps) != M.n:
        raise SizeMismatch("sign vector length must equal dimension")
    grid = tuple(
        tuple(eps[i] * eps[j] * M.entries[i][j] for j in range(M.n))
        for i in range(M.n)
    )
    return StructuredMatrix(M.n, grid)


def sign_normalize(M: StructuredMatrix, backend: Backend):
    """Recover (a, eps, global_negate) with (+-1)*diag(eps)*M*diag(eps) equal to
    the positive anti-bidiagonal matrix built from a.

    The structural slots couple the indices into the single path
    1, n, 2, n-1, ... (1-based): the next vertex is n+1-v after an even step
    and n+2-v after an odd one.  The walk crosses the slots of a_n, ..., a_2
    in turn and ends on the diagonal slot of a_1, which only the global
    negation can fix; each step fixes the sign of the vertex it reaches.
    """
    n = M.n
    scale = M.maxnorm()
    for i, row in enumerate(M.entries, start=1):
        for j, v in enumerate(row, start=1):
            if i + j in (n + 1, n + 2):
                if backend.is_zero(v, scale):
                    raise StructuralZero(f"structural entry ({i},{j}) is zero")
            elif not backend.is_zero(v, scale):
                raise SizeMismatch(f"entry ({i},{j}) breaks the anti-bidiagonal pattern")
    centre = M.entries[n // 2][n // 2]  # a_1, up to the global sign
    negate = centre < 0
    eps = [1] * n
    walked = []  # |a_n|, |a_{n-1}|, ..., |a_2|
    v = 0  # 0-based
    for step in range(n - 1):
        w = n - 1 - v + step % 2
        x = M.entries[min(v, w)][max(v, w)]
        walked.append(abs(x))
        eps[w] = eps[v] if (x > 0) != negate else -eps[v]
        v = w
    a = CoefficientVector((abs(centre),) + tuple(reversed(walked)))
    return a, tuple(eps), negate
