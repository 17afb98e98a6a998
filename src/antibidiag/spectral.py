"""Independent verification machinery: Sturm-bisection tridiagonal eigenvalues,
strict interlacing, sign-regularity verdicts from the minors the zero pattern leaves,
the class-plus power by the Gantmacher-Krein theorem, and a Cauchy-Binet check.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import combinations
from math import comb, inf, nan, nextafter, ulp
from operator import add, sub

from .errors import (
    BackendUnsupported,
    NonPositiveEntry,
    NotTridiagonal,
    SizeMismatch,
    SquareOutOfRange,
    TooLarge,
)
from .matrixkit import StructuredMatrix, check_index_set, matmul, minor
from .scalars import Backend, Record

MINOR_ENUM_GUARD = 10**7

# An exactly-zero Sturm pivot becomes the nearest negative float, the limit d -> 0-.
_ZERO_PIVOT = -ulp(0.0)


def _extract_tridiagonal(T: StructuredMatrix):
    """T's band (diag, off) as stored; T must be exactly tridiagonal and symmetric."""
    M, n = T.entries, T.n
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and M[i][j] != 0:
                raise NotTridiagonal(f"entry ({i + 1},{j + 1}) is nonzero")
    if any(M[i + 1][i] != M[i][i + 1] for i in range(n - 1)):
        raise NotTridiagonal("matrix is not symmetric")
    return [float(M[i][i]) for i in range(n)], [float(M[i][i + 1]) for i in range(n - 1)]


def sturm_count(diag, e2, x: float) -> int:
    """Number of eigenvalues below x, from the signs of the shifted LDL^T pivots,
    on the squared codiagonal e2 = (0.0, off_1**2, ..., off_{n-1}**2), as LAPACK's
    dstebz takes E2.  Ties: where x makes a pivot exactly zero the count is its
    limit from above, so an eigenvalue at x counts as below it (diag (0.0,) counts
    1 at 0.0, diag (1.0, 1.0) over a zero codiagonal 2 at 1.0).

    An exactly-zero pivot (+-0.0) is taken as -5e-324, the limit d -> 0- with no
    float between: the stored pivot is nondecreasing in the computed one, so the
    count is monotone in x, unless a - x overflows (diagonal entries near +-1.7e308)."""
    count, d = 0, 1.0  # a sentinel pivot over e2[0] = 0.0: the first is diag[0] - x
    for a, b2 in zip(diag, e2):
        d = (a - x) - b2 / d or _ZERO_PIVOT
        if d < 0:
            count += 1
    return count


def gershgorin_bounds(diag, off):
    """min and max of diag_i -+ (|off_{i-1}| + |off_i|), the missing ends 0.0,
    each fold starting from diag[0]."""
    b = [0.0, *map(abs, off), 0.0]
    r = [*map(add, b, b[1:])]
    return min(diag[0], *map(sub, diag, r)), max(diag[0], *map(add, diag, r))


def _newton_step(diag, e2, t):
    """The Newton point t - 1/sum(d_i'/d_i) on det(T - xI), over the pivots
    d_i = (diag_i - t) - e2_i/d_{i-1}, one division per row: inv = 1/d_i,
    q = e2_i*inv_{i-1} and r_i = d_i'/d_i = (q*inv) r_{i-1} - inv, finite where
    q r_{i-1} would overflow after a tiny pivot.  Its pivots round unlike
    ``sturm_count``'s, so it counts nothing.  An exactly-zero pivot is -5e-324;
    a zero sum (as at t = +-inf) gives nan: no step."""
    inv, r, s = 1.0, 0.0, 0.0  # the sentinel of ``sturm_count``: the first r is -1/d
    for a, b2 in zip(diag, e2):
        q = b2 * inv
        inv = 1.0 / ((a - t) - q or _ZERO_PIVOT)
        r = q * inv * r - inv
        s += r
    return t - 1.0 / s if s else nan


def eigensolve_tridiagonal(T: StructuredMatrix, backend: Backend, near=()):
    """All eigenvalues of an exactly tridiagonal, exactly symmetric dense matrix,
    ascending: its band (``_extract_tridiagonal``) through ``tridiagonal_eigenvalues``."""
    return tridiagonal_eigenvalues(*_extract_tridiagonal(T), backend, near)


def tridiagonal_eigenvalues(diag, off, backend: Backend, near=()):
    """Eigenvalues of the symmetric tridiagonal matrix (diag, off), ascending.  The
    k-th is where the float64 Sturm count steps past k: the adjacent floats a < b
    in the Gershgorin interval [glo, ghi] with count(a) <= k < count(b), the count
    read as 0 at glo and n at ghi (rounding can put a step just outside, as for
    diag (1, 1), off (0.5,), whose eigenvalues are glo and ghi), returned as
    0.5*a + 0.5*b (as a, if a == b: c*I returns c).  With an exactly-zero pivot
    taken as -5e-324 the float64 count is monotone in x (Kahan 1966; Demmel,
    Dhillon & Ren, ETNA 3, 1995), so this is a property of the float band alone:
    neither the seeds nor ``root_tol`` change it.

    The count memory is one list of probe points xs, ascending from [glo, ghi],
    and their Sturm counts cs, ascending from [0, n] as the count is monotone:
    eigenvalue k lies in its bracket [xs[i-1], xs[i]) for i = bisect_right(cs, k),
    and a count inside that bracket is inserted at i.  Eigenvalue k starts at the
    k-th smallest seed in ``near`` if that lies in its bracket, else at the
    midpoint once bisection leaves no other eigenvalue in it.  Newton
    steps (``_newton_step``) are taken while they land in the bracket and halve
    the last, until one is at most 2**-30 |t| (the next would be below an ulp) or
    none is defined; a step not taken is a count at t and at the float next to
    the end it crossed, then a bisection.  From the Newton point t the count walks
    out t -+ 1, 2, 4, ..., 2**52 ulps until it steps past k, probes the float next
    to the far end, and bisects what is left until no float lies inside it.  Seeded
    by the f64-roundtrip spectra an eigenvalue takes about 1.3 Newton steps and 2
    counts; unseeded at n = 48, 5.1 and 3.7; diag (0, 0, 0), off (1, 1), 117 passes.

    Raises SquareOutOfRange where the Sturm pivots could lose precision or overflow:
    a nonzero codiagonal squares outside the normal range, or the Gershgorin width
    ghi - glo is not finite."""
    if backend.exact:
        raise BackendUnsupported("eigensolver needs the floating backend")
    e2 = [0.0]  # the squared codiagonal both pivot loops take
    for b in off:
        b2 = b * b
        if b != 0.0 and not sys.float_info.min <= b2 <= sys.float_info.max:
            raise SquareOutOfRange(f"codiagonal entry {b} squares to {b2} in float64")
        e2.append(b2)
    glo, ghi = gershgorin_bounds(diag, off)
    if not ghi - glo < inf:  # a finite width keeps each a - x finite: no pivot is -inf - -inf
        raise SquareOutOfRange(f"the band's Gershgorin width {ghi - glo} is not finite in float64")
    n = len(diag)
    xs, cs = [glo, ghi], [0, n]  # probe points and their counts, both ascending

    def count(x):  # a Sturm count at x, where it can narrow the bracket of eigenvalue k
        nonlocal i
        if xs[i - 1] < x < xs[i]:
            c = sturm_count(diag, e2, x)
            xs.insert(i, x or 0.0)  # -0.0 counts as 0.0 does, and is stored as 0.0
            cs.insert(i, c)
            i += c <= k
            return c

    def mid():
        return 0.5 * xs[i - 1] + 0.5 * xs[i]

    seeds, out = sorted(near)[:n], []
    for k in range(n):
        i = bisect_right(cs, k)  # eigenvalue k lies in [xs[i-1], xs[i])
        t = seeds[k] if k < len(seeds) else nan
        if not xs[i - 1] < t < xs[i]:  # no seed: bisect until no other eigenvalue shares k's bracket
            while (cs[i - 1] < k or cs[i] > k + 1) and count(mid()) is not None:
                pass
            t = mid()
        step = inf
        while xs[i - 1] < t < xs[i]:
            x = _newton_step(diag, e2, t)
            if xs[i - 1] < x < xs[i] and abs(x - t) < 0.5 * step:  # Newton converges: take the step
                t, step = x, abs(x - t)
                if step <= 2.0**-30 * abs(t):  # the next step would be below an ulp
                    break
            elif x != x:  # no step from t: finish there
                break
            else:  # count at t, probe the float next to the end the step crossed, bisect
                end = xs[i - 1] if x <= xs[i - 1] else xs[i] if x >= xs[i] else nan
                count(t)
                count(nextafter(end, t))
                t, step = mid(), inf
        c, u = count(t), ulp(t)
        up, top = c is not None and c <= k, 2.0**52 * u
        while c is not None and (c <= k) == up and u <= top:  # walk out until the count steps
            c, u = count(t + u if up else t - u), 2 * u
        count(nextafter(xs[i] if up else xs[i - 1], t))  # the float next to the far end
        while count(m := mid()) is not None:
            pass
        out.append(m if xs[i - 1] < xs[i] else xs[i - 1])  # c*I: 0.5*c + 0.5*c rounds a subnormal
    return tuple(out)


def relative_spectrum_error(eigenvalues, target) -> float:
    """Worst relative error of ascending eigenvalues against the target values."""
    return max(abs(e - x) / abs(x) for e, x in zip(eigenvalues, sorted(target)))


def interlaces(inner, outer) -> bool:
    """Strict interlacing: outer_1 < inner_1 < outer_2 < ... < outer_{k+1}."""
    if len(outer) != len(inner) + 1:
        raise SizeMismatch(f"{len(inner)} inner vs {len(outer)} outer")
    for k in range(len(inner)):
        if not (outer[k] < inner[k] < outer[k + 1]):
            return False
    return True


def signature_sequence(n: int):
    """The pattern 1, -1, -1, 1, 1, ...: epsilon_j = (-1)**(j//2)."""
    return tuple((-1) ** (j // 2) for j in range(1, n + 1))


class OrderVerdict(Record):
    order: int
    conforming: bool
    strict: bool
    principal_conforming: bool
    witness_value: object = None
    witness_rows: tuple | None = None
    witness_cols: tuple | None = None


class SignRegularityReport(Record):
    n: int
    verdicts: tuple
    achieved_class: int
    strict: bool

    @property
    def all_conforming(self) -> bool:
        return all(v.conforming for v in self.verdicts)

    @property
    def principal_conforming(self) -> bool:
        return all(v.principal_conforming for v in self.verdicts)


def _enum_guard(n: int, d: int):
    total = sum(comb(n, j) ** 2 for j in range(1, d + 1))
    if total > MINOR_ENUM_GUARD:
        raise TooLarge(f"{total} minors exceed the enumeration guard")


def _order_scale(M: StructuredMatrix, j: int, backend: Backend) -> float:
    if backend.exact:
        return 0.0
    norms = sorted((float(x) for x in M.row_norms()), reverse=True)
    s = 1.0
    for v in norms[:j]:
        s *= max(v, 1.0)
    return s


def classify_sign_regular(
    M: StructuredMatrix, d: int, sig, backend: Backend
) -> SignRegularityReport:
    """Minor check of sign regularity up to order d.

    Every minor of order j must have sign sig[j-1] or vanish; the
    principal-minors-only verdict is reported alongside.  Floating backend uses
    a tolerance scaled by the product of the j largest row norms.  A minor with a
    zero row or column is exactly zero: it is skipped and makes its order not strict.
    """
    n = M.n
    if d > n or len(sig) < d:
        raise SizeMismatch("need d <= n and a signature of length >= d")
    _enum_guard(n, d)
    nonzero = [(r, c) for r, row in enumerate(M.entries, 1) for c, v in enumerate(row, 1) if v != 0]
    verdicts = []
    for j in range(1, d + 1):
        eps = sig[j - 1]
        tol = backend.policy.eq_abs * _order_scale(M, j, backend)
        conforming = strict = principal = True
        worst = None
        # each index set, with the columns its rows meet and the rows its columns meet
        sets = [
            (s, {c for r, c in nonzero if r in s}, {r for r, c in nonzero if c in s})
            for s in combinations(range(1, n + 1), j)
        ]
        for rows, met_cols, _ in sets:
            for cols, _, met_rows in sets:
                if not met_cols.issuperset(cols) or not met_rows.issuperset(rows):
                    strict = False  # a zero column or row: the minor is exactly 0
                    continue
                v = eps * minor(M, rows, cols, backend)
                if v <= tol:
                    strict = False
                if v < -tol:
                    conforming = False
                    if rows == cols:
                        principal = False
                    if worst is None or v < worst[0]:
                        worst = (v, rows, cols)
        witness = () if worst is None else (worst[0] * eps, *worst[1:])
        verdicts.append(OrderVerdict(j, conforming, strict, principal, *witness))
    achieved = 0
    for v in verdicts:
        if not v.conforming:
            break
        achieved = v.order
    return SignRegularityReport(n, tuple(verdicts), achieved, all(v.strict for v in verdicts))


def totally_positive(M: StructuredMatrix, backend: Backend) -> bool:
    """All minors of all orders strictly positive."""
    return classify_sign_regular(M, M.n, (1,) * M.n, backend).strict


def check_class_plus(A: StructuredMatrix, max_power: int, backend: Backend):
    """Smallest m <= max_power with (A^2)^m totally positive, else None.

    A = J*B with B = J*A positive upper bidiagonal, so A^2 = (J*B*J)*B is an
    oscillatory tridiagonal matrix and (A^2)^m is totally positive from
    m = max(1, n-1) on (Gantmacher & Krein); below, its bandwidth m leaves the
    (1, n) entry zero.  The hypotheses are checked exactly by the index rule."""
    n = A.n
    for i, row in enumerate(A.entries, start=1):
        for j, v in enumerate(row, start=1):
            if i + j not in (n + 1, n + 2):
                if v != 0:
                    raise SizeMismatch(f"entry ({i},{j}) breaks the anti-bidiagonal pattern")
            elif not v > 0:
                raise NonPositiveEntry(f"entry ({i},{j}) = {v} is not positive")
    m = max(1, n - 1)
    return m if m <= max_power else None


def cauchy_binet_check(
    X: StructuredMatrix, Y: StructuredMatrix, rows, cols, backend: Backend
):
    """Minor of the product vs the sum over column-set products of minors."""
    if X.n != Y.n:
        raise SizeMismatch("factor dimensions differ")
    rows = check_index_set(rows, X.n)
    cols = check_index_set(cols, X.n)
    if len(rows) != len(cols):
        raise SizeMismatch("index set sizes differ")
    k = len(rows)
    if comb(X.n, k) * k**3 > MINOR_ENUM_GUARD:
        raise TooLarge("expansion too large")
    lhs = minor(matmul(X, Y, backend), rows, cols, backend)
    rhs = backend.zero
    for beta in combinations(range(1, X.n + 1), k):
        rhs = rhs + minor(X, rows, beta, backend) * minor(Y, beta, cols, backend)
    return lhs, rhs, backend.approx_equal(lhs, rhs)
