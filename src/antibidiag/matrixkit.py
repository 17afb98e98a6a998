"""Structured matrices: anti-bidiagonal, the special Jacobi subclass, the
antidiagonal unit, plus dense minors, products, and sign normalization.

Index convention is 1-based throughout the public surface (``entry``, index
sets), matching the a_1..a_n labelling of the structures; internal storage is
0-based tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput, NonFiniteEntry, NonPositiveEntry, SizeMismatch, StructuralZero
from .scalars import Backend

@dataclass(frozen=True)
class CoefficientVector:
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


@dataclass(frozen=True)
class StructuredMatrix:
    n: int
    entries: tuple  # tuple of n row-tuples

    def entry(self, i: int, j: int):
        """1-based access."""
        return self.entries[i - 1][j - 1]

    def maxnorm(self):
        return max(abs(v) for row in self.entries for v in row)

    def row_norms(self):
        return [sum(v * v for v in row) ** 0.5 for row in self.entries]


def _grid(n, zero):
    return [[zero] * n for _ in range(n)]


def _freeze(grid):
    return tuple(tuple(row) for row in grid)


def antibidiagonal_positions(n: int):
    """Map a-index -> canonical (i, j), i <= j, 1-based, of its structural slot."""
    pos = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        idx = n + 2 - 2 * i
        if 1 <= idx <= n:
            pos[idx] = (min(i, j), max(i, j))
        j = n + 2 - i
        idx = n + 3 - 2 * i
        if i >= 2 and j <= n and 1 <= idx <= n:
            pos[idx] = (min(i, j), max(i, j))
    return pos


def build_antibidiagonal(a: CoefficientVector, backend: Backend) -> StructuredMatrix:
    """The symmetric matrix whose nonzeros fill the two central antidiagonals:
    row 1 = (0,..,0,a_n), row 2 = (0,..,0,a_{n-2},a_{n-1}), ..."""
    n = a.n
    grid = _grid(n, backend.zero)
    for idx, (i, j) in antibidiagonal_positions(n).items():
        v = backend.convert(a.a[idx - 1])
        grid[i - 1][j - 1] = v
        grid[j - 1][i - 1] = v
    return StructuredMatrix(n, _freeze(grid))


def build_jacobi_special(a: CoefficientVector, backend: Backend) -> StructuredMatrix:
    """Tridiagonal matrix with diagonal (a_1, 0, ..., 0) and codiagonal a_2..a_n."""
    n = a.n
    grid = _grid(n, backend.zero)
    grid[0][0] = backend.convert(a.a[0])
    for k in range(2, n + 1):
        v = backend.convert(a.a[k - 1])
        grid[k - 2][k - 1] = v
        grid[k - 1][k - 2] = v
    return StructuredMatrix(n, _freeze(grid))


def build_antidiagonal_unit(n: int, backend: Backend) -> StructuredMatrix:
    if n < 1:
        raise EmptyInput("n must be >= 1")
    grid = _grid(n, backend.zero)
    for i in range(n):
        grid[i][n - 1 - i] = backend.one
    return StructuredMatrix(n, _freeze(grid))


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


def determinant(rows, exact: bool):
    """Determinant of a small dense square array (list of row lists).

    Exact scalars: fraction-free Bareiss elimination (all divisions exact).
    Floats: Gaussian elimination with partial pivoting.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    if n == 0:
        return 1
    if exact:
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return m[0][0] * 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
                m[i][k] = m[i][k] * 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[p][k] == 0:
            return 0.0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return det


def minor(M: StructuredMatrix, rows, cols, backend: Backend):
    """Determinant of the submatrix selected by 1-based index sets."""
    rows = check_index_set(rows, M.n)
    cols = check_index_set(cols, M.n)
    if len(rows) != len(cols):
        raise SizeMismatch(f"{len(rows)} rows vs {len(cols)} cols")
    sub = [[M.entries[i - 1][j - 1] for j in cols] for i in rows]
    return determinant(sub, backend.exact)


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

    The structural slots couple the indices into a single path, so a consistent
    sign vector always exists; a_1 sits on the diagonal and can only be fixed by
    the global negation.
    """
    n = M.n
    pos = antibidiagonal_positions(n)
    slots = set(pos.values())
    scale = M.maxnorm()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            structural = (min(i, j), max(i, j)) in slots
            v = M.entry(i, j)
            if structural:
                if backend.is_zero(v, scale):
                    raise StructuralZero(f"structural entry ({i},{j}) is zero")
            elif not backend.is_zero(v, scale):
                raise SizeMismatch(f"entry ({i},{j}) breaks the anti-bidiagonal pattern")
    vals = {idx: M.entry(i, j) for idx, (i, j) in pos.items()}
    negate = vals[1] < 0
    if negate:
        vals = {k: -v for k, v in vals.items()}
    # Propagate signs along the index-coupling edges.
    eps = [0] * (n + 1)  # 1-based
    adj = {i: [] for i in range(1, n + 1)}
    for idx, (i, j) in pos.items():
        if i != j:
            want = 1 if vals[idx] > 0 else -1
            adj[i].append((j, want))
            adj[j].append((i, want))
    for start in range(1, n + 1):
        if eps[start]:
            continue
        eps[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j, want in adj[i]:
                need = want * eps[i]
                if eps[j] == 0:
                    eps[j] = need
                    stack.append(j)
                elif eps[j] != need:
                    raise ArithmeticError("inconsistent sign pattern")  # unreachable
    a = CoefficientVector(tuple(abs(vals[k]) for k in range(1, n + 1)))
    return a, tuple(eps[1:]), negate
