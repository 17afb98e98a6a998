"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own code paths: symmetric
functions by subset enumeration, polynomial expansion by pairwise products,
determinants by Laplace cofactor expansion, and dense symmetric eigenvalues by
cyclic Jacobi rotations.
"""

from fractions import Fraction
from itertools import combinations


def brute_sigma(values, j):
    """Elementary symmetric function by explicit subset enumeration."""
    values = tuple(values)
    if j == 0:
        return 1
    total = 0
    for sub in combinations(values, j):
        prod = 1
        for v in sub:
            prod = prod * v
        total = total + prod
    return total


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expand_roots(roots):
    """Coefficients (constant first) of prod (x - r), by pairwise products."""
    polys = [[-r, 1] for r in roots] or [[1]]
    while len(polys) > 1:
        nxt = []
        for k in range(0, len(polys) - 1, 2):
            nxt.append(poly_mul(polys[k], polys[k + 1]))
        if len(polys) % 2:
            nxt.append(polys[-1])
        polys = nxt
    return polys[0]


def charpoly_cofactor(entries):
    """Coefficients of det(x*I - M) by Laplace expansion over polynomial entries.

    ``entries`` is a square grid of scalars; returned list is constant-first.
    """
    n = len(entries)
    grid = [
        [([-entries[i][j], 1] if i == j else [-entries[i][j]]) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        acc = [0]
        r = rows[0]
        for k, c in enumerate(cols):
            term = poly_mul(grid[r][c], det(rows[1:], cols[:k] + cols[k + 1 :]))
            if k % 2:
                term = [-t for t in term]
            m = max(len(acc), len(term))
            acc = [
                (acc[i] if i < len(acc) else 0) + (term[i] if i < len(term) else 0)
                for i in range(m)
            ]
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def dense_symmetric_eigs(entries, sweeps=60):
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations."""
    import math

    n = len(entries)
    a = [[float(v) for v in row] for row in entries]
    for _ in range(sweeps):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off < 1e-28:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2 * a[p][q], a[q][q] - a[p][p])
                c, s = math.cos(theta), math.sin(theta)
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def rational_op_oracle(a, b, c, d, op):
    """Field operation on a/b and c/d by big-integer cross multiplication,
    returned as an unreduced (num, den) pair."""
    if op == "+":
        return a * d + c * b, b * d
    if op == "-":
        return a * d - c * b, b * d
    if op == "*":
        return a * c, b * d
    if op == "/":
        if c == 0:
            raise ZeroDivisionError
        return a * d, b * c
    raise ValueError(op)


def frac_equal(num, den, f: Fraction) -> bool:
    return num * f.denominator == den * f.numerator


def plain_sturm_bisection(diag, off, tol, max_iter=200):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal ``diag``
    and codiagonal ``off``, ascending, each bisected on its own from the
    Gershgorin interval to width <= tol, with no bracket shared between
    eigenvalues.  The Sturm count, the zero-pivot rule and the midpoints use
    the same float64 operations as the library's, so the results are
    comparable bit for bit.  Returns the eigenvalues and the list of every
    midpoint a count was taken at."""
    n = len(diag)
    scale = max(1.0, max(abs(d) for d in diag), max((abs(e) for e in off), default=0.0))

    def count(x):
        c = 0
        d = diag[0] - x
        for i in range(n):
            if i:
                d = (diag[i] - x) - off[i - 1] * off[i - 1] / d
            if d == 0.0:
                d = -1e-300 * scale
            if d < 0:
                c += 1
        return c

    glo = ghi = diag[0]
    for i in range(n):
        r = (abs(off[i - 1]) if i > 0 else 0.0) + (abs(off[i]) if i < n - 1 else 0.0)
        glo = min(glo, diag[i] - r)
        ghi = max(ghi, diag[i] + r)
    eigs, mids = [], []
    for k in range(1, n + 1):
        lo, hi = glo - tol, ghi + tol
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol or mid == lo or mid == hi:
                break
            mids.append(mid)
            if count(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return tuple(eigs), mids
