"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own code paths: symmetric
functions by subset enumeration, polynomial expansion by pairwise products,
determinants by Laplace cofactor expansion, and dense symmetric eigenvalues by
cyclic Jacobi rotations.  The exceptions are the first forms of library code
kept to compare the current code against bit for bit:
``backward_pass_reference``, the solver's backward pass, which starts from the
library's ``from_roots`` as the solver does, and the slot-map builders, the
two-algorithm ``determinant_reference`` and the graph-search
``sign_normalize_reference`` of ``matrixkit``, and the enumerating
``totally_positive_reference``, ``check_class_plus_reference`` and
``classify_sign_regular_reference`` of ``spectral``, which use the library's
``minor`` and ``matmul``, the bisecting ``roots_bracketed_reference`` of
``poly``, which uses the library's ``poly_eval``, ``interlacing_chain_reference``,
the float64 interlacing chain that took every root to the chain width, and
``horner_reference``, the module-level evaluator that ``poly_eval`` was before
each polynomial built its own Horner closure, and ``forward_q_float_reference``
and ``forward_p_float_reference``, the float64 forward chains by the generic
step (``lin_comb`` of the shifted level, then ``_level``'s division) that the
one-list-update step replaced.
``sparse_grid`` draws the random sparse matrices that the determinant and
sign-regularity tests compare against these oracles.
"""

from fractions import Fraction
from itertools import combinations, zip_longest


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
    eigenvalues.  The Sturm count, the zero-pivot rule and the midpoints
    (0.5*lo + 0.5*hi, and lo itself once lo == hi) use the same float64
    operations as the library's, so the results are comparable bit for bit.
    Returns the eigenvalues and the list of every midpoint a count was taken
    at."""
    n = len(diag)

    def count(x):
        c = 0
        d = diag[0] - x
        for i in range(n):
            if i:
                d = (diag[i] - x) - off[i - 1] * off[i - 1] / d
            if d == 0.0:
                d = -5e-324
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
            mid = 0.5 * lo + 0.5 * hi
            if hi - lo <= tol or mid == lo or mid == hi:
                break
            mids.append(mid)
            if count(mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(lo if lo == hi else 0.5 * lo + 0.5 * hi)
    return tuple(eigs), mids


class TerminalMismatch(Exception):
    """The reference pass did not land on the boundary polynomials."""


def backward_pass_reference(lam, backend):
    """The backward pass as first written, kept to compare the single-step
    pass of ``inversesolver.solve`` against bit for bit.

    The top step reads a_2^2 = sigma_3/a_1 - sigma_2 off the coefficients and
    forms (x - a_1) q_{n-1} - q_n; every level divides its residual, records
    the largest coefficient of the wrong parity (the "parity slack") and then
    zeroes those coefficients; the pass ends with a slack and a boundary check.
    ``lam`` holds the backend's scalars.  Returns (a_1, the squares, the
    positive vector or None, the q_k coefficient tuples by degree)."""
    import math

    from antibidiag.errors import NonFiniteA, NonPositiveA
    from antibidiag.poly import from_roots

    def shift_up(coeffs):
        return (coeffs[0] * 0,) + tuple(coeffs)

    def lin_comb(c1, c2, s):
        n = max(len(c1), len(c2))
        z = c1[0] * 0
        out = []
        for k in range(n):
            a = c1[k] if k < len(c1) else z
            b = c2[k] if k < len(c2) else z
            out.append(a + s * b)
        return tuple(out)

    def with_parity(coeffs, deg):
        forbidden = 1 if deg % 2 == 0 else 0
        coeffs = list(coeffs)
        for k in range(len(coeffs)):
            if k % 2 == forbidden and coeffs[k] != 0:
                if backend.exact:
                    raise ArithmeticError(
                        f"parity-forbidden coefficient {k} is {coeffs[k]} != 0"
                    )
                coeffs[k] = backend.zero
        return tuple(coeffs)

    def descend(r, deg, divisor):
        coeffs = [c / divisor for c in r[: deg + 1]]
        coeffs[deg] = backend.one
        slack = 0.0
        forbidden = 1 if deg % 2 == 0 else 0
        for k in range(deg + 1):
            if k % 2 == forbidden:
                slack = max(slack, abs(float(coeffs[k])))
        return with_parity(coeffs, deg), slack

    n = len(lam)
    qn = from_roots(lam, backend).coeffs
    if n == 1:
        a1 = lam[0]
        return a1, (), None if backend.exact else (a1,), ((backend.one,), qn)

    a1 = -qn[n - 1]
    if not a1 > 0:
        raise NonPositiveA(f"a_1 = sigma_1 = {a1} is not positive")
    qm1 = [backend.zero] * n
    for k in range(n):
        if (n + k) % 2 == 1:
            qm1[k] = -qn[k] / a1
    q_prev = tuple(qm1)

    sigma2 = (-1) ** 2 * qn[n - 2]
    sigma3 = (-1) ** 3 * qn[n - 3] if n >= 3 else backend.zero
    a_sq = [sigma3 / a1 - sigma2]
    if not a_sq[0] > 0:
        raise NonPositiveA(f"a_2^2 = {a_sq[0]} is not positive")
    r = lin_comb(shift_up(q_prev), q_prev, -a1)
    r = lin_comb(r, qn, -backend.one)
    q_cur, slack = descend(r, n - 2, a_sq[0])
    qs = [qn, q_prev, q_cur]

    for j in range(1, n - 1):
        deg = n - j - 2
        r = lin_comb(shift_up(qs[-1]), qs[-2], -backend.one)
        asq = r[deg] if deg < len(r) else backend.zero
        if not asq > 0:
            raise NonPositiveA(f"a_{j + 2}^2 = {asq} is not positive")
        a_sq.append(asq)
        q_next, s = descend(r, deg, asq)
        slack = max(slack, s)
        qs.append(q_next)

    tol = 0.0 if backend.exact else backend.policy.eq_abs * max(
        1.0, max(abs(float(c)) for c in qn)
    )
    if slack > tol:
        raise TerminalMismatch(f"parity slack {slack} exceeds tolerance {tol}")
    if qs[-1] != (backend.one,) or qs[-2][-1] != backend.one:
        raise TerminalMismatch("backward pass did not reach the boundary polynomials")

    a_vec = None
    if not backend.exact:
        if max(a_sq) == math.inf:
            raise NonFiniteA("a squared codiagonal entry overflows float64")
        a_vec = (a1,) + tuple(backend.sqrt(v) for v in a_sq)
    return a1, tuple(a_sq), a_vec, tuple(reversed(qs))


def antibidiagonal_positions_reference(n):
    """Map a-index -> canonical (i, j), i <= j, 1-based, of its structural
    slot in the n x n anti-bidiagonal matrix, as first written."""
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


def build_antibidiagonal_reference(a, backend):
    """Entries of the anti-bidiagonal matrix of the values ``a``, filled from
    the slot map."""
    n = len(a)
    grid = [[backend.zero] * n for _ in range(n)]
    for idx, (i, j) in antibidiagonal_positions_reference(n).items():
        v = backend.convert(a[idx - 1])
        grid[i - 1][j - 1] = v
        grid[j - 1][i - 1] = v
    return tuple(tuple(row) for row in grid)


def build_jacobi_special_reference(a, backend):
    """Entries of the tridiagonal matrix with diagonal (a_1, 0, ..., 0) and
    codiagonal a_2..a_n, filled slot by slot."""
    n = len(a)
    grid = [[backend.zero] * n for _ in range(n)]
    grid[0][0] = backend.convert(a[0])
    for k in range(2, n + 1):
        v = backend.convert(a[k - 1])
        grid[k - 2][k - 1] = v
        grid[k - 1][k - 2] = v
    return tuple(tuple(row) for row in grid)


def build_antidiagonal_unit_reference(n, backend):
    grid = [[backend.zero] * n for _ in range(n)]
    for i in range(n):
        grid[i][n - 1 - i] = backend.one
    return tuple(tuple(row) for row in grid)


def determinant_reference(rows, exact):
    """The determinant as first written: fraction-free Bareiss elimination
    for exact scalars, Gaussian elimination with partial pivoting for floats."""
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


def sign_normalize_reference(M, backend):
    """Sign normalisation as first written: check the slot map, then fix the
    signs by a depth-first search over the index-coupling graph.  Returns
    (the values a_1..a_n, eps, global_negate)."""
    from antibidiag.errors import SizeMismatch, StructuralZero

    n = M.n
    pos = antibidiagonal_positions_reference(n)
    slots = set(pos.values())
    scale = M.maxnorm()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            structural = (min(i, j), max(i, j)) in slots
            v = M.entries[i - 1][j - 1]
            if structural:
                if backend.is_zero(v, scale):
                    raise StructuralZero(f"structural entry ({i},{j}) is zero")
            elif not backend.is_zero(v, scale):
                raise SizeMismatch(f"entry ({i},{j}) breaks the anti-bidiagonal pattern")
    vals = {idx: M.entries[i - 1][j - 1] for idx, (i, j) in pos.items()}
    negate = vals[1] < 0
    if negate:
        vals = {k: -v for k, v in vals.items()}
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
                    raise ArithmeticError("inconsistent sign pattern")
    return tuple(abs(vals[k]) for k in range(1, n + 1)), tuple(eps[1:]), negate


def totally_positive_reference(M, backend):
    """Total positivity as first written: every minor of every order above
    the order's float threshold, stopping at the first that is not."""
    from antibidiag.matrixkit import minor
    from antibidiag.spectral import _enum_guard, _order_scale

    n = M.n
    _enum_guard(n, n)
    for j in range(1, n + 1):
        tol = backend.policy.eq_abs * _order_scale(M, j, backend)
        for rows in combinations(range(1, n + 1), j):
            for cols in combinations(range(1, n + 1), j):
                if minor(M, rows, cols, backend) <= tol:
                    return False
    return True


def check_class_plus_reference(A, max_power, backend):
    """The class-plus power as first written: the smallest m <= max_power with
    (A^2)^m totally positive, found by testing the powers in turn."""
    from antibidiag.matrixkit import matmul

    if max_power < 1:
        return None
    S = matmul(A, A, backend)
    P = S
    for m in range(1, max_power + 1):
        if totally_positive_reference(P, backend):
            return m
        P = matmul(P, S, backend)
    return None


def classify_sign_regular_reference(M, d, sig, backend):
    """Sign regularity as first written: every minor of every order up to d
    through the library's ``minor``, zero minors included."""
    from antibidiag.errors import SizeMismatch
    from antibidiag.matrixkit import minor
    from antibidiag.spectral import (
        OrderVerdict,
        SignRegularityReport,
        _enum_guard,
        _order_scale,
    )

    n = M.n
    if d > n or len(sig) < d:
        raise SizeMismatch("need d <= n and a signature of length >= d")
    _enum_guard(n, d)
    verdicts = []
    for j in range(1, d + 1):
        eps = sig[j - 1]
        tol = backend.policy.eq_abs * _order_scale(M, j, backend)
        conforming = strict = principal = True
        worst = None
        for rows in combinations(range(1, n + 1), j):
            for cols in combinations(range(1, n + 1), j):
                v = eps * minor(M, rows, cols, backend)
                if v <= tol:
                    strict = False
                if v < -tol:
                    conforming = False
                    if rows == cols:
                        principal = False
                    if worst is None or v < worst[0]:
                        worst = (v, rows, cols)
        verdicts.append(
            OrderVerdict(
                j,
                conforming,
                strict,
                principal,
                witness_value=None if worst is None else worst[0] * eps,
                witness_rows=None if worst is None else worst[1],
                witness_cols=None if worst is None else worst[2],
            )
        )
    achieved = 0
    for v in verdicts:
        if not v.conforming:
            break
        achieved = v.order
    return SignRegularityReport(n, tuple(verdicts), achieved, all(v.strict for v in verdicts))


def roots_bracketed_reference(p, brackets, backend):
    """The first ``poly.roots_bracketed``: one root per sign-change bracket,
    ascending, each by plain bisection to width <= root_tol (a midpoint where
    p is exactly 0.0 is the root), with the same signature and errors."""
    from antibidiag.errors import BackendUnsupported, NoSignChange
    from antibidiag.poly import poly_eval

    if backend.exact:
        raise BackendUnsupported("bracketed root extraction needs the floating backend")
    tol = backend.policy.root_tol
    out = []
    for lo, hi in brackets:
        if lo > hi:
            lo, hi = hi, lo
        flo, fhi = poly_eval(p, lo), poly_eval(p, hi)
        if flo == 0.0 or fhi == 0.0:
            out.append(lo if flo == 0.0 else hi)
            continue
        if (flo > 0) == (fhi > 0):
            raise NoSignChange(f"no sign change on [{lo}, {hi}]")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            d = poly_eval(p, mid)
            if d == 0.0:
                lo = hi = mid
                break
            if (d > 0) == (flo < 0):
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return tuple(sorted(out))


def interlacing_chain_reference(trace, finder):
    """The float64 interlacing chain, written out on its own: (certificates,
    warnings).  For k = n-1, ..., 1 the upper floor(k/2) roots of q_k, one in
    each gap between the upper roots of q_{k+1}, are taken to the chain width
    root_tol * min(1, lambda_1) by ``finder(p, brackets, backend)`` (the
    library's ``roots_bracketed``, or ``roots_bracketed_reference``), mirrored
    about 0 with 0.0 for odd k, and checked with ``spectral.interlaces``.  The
    first level without a sign change or interlacing cuts the chain; its
    warning sits between the q_n underflow note and the small-gap note.  With
    ``roots_bracketed`` it is ``ReconstructionTrace._chain``, bit for bit."""
    import math
    import sys

    from antibidiag import Backend, TolerancePolicy
    from antibidiag.errors import NoSignChange
    from antibidiag.inversesolver import GAP_WARN_RATIO
    from antibidiag.spectral import interlaces

    certs, warns = [], []
    lam1, policy = float(trace.spectrum.lambdas[0]), trace.backend.policy
    tol = max(policy.root_tol * min(1.0, lam1), math.ulp(0.0))
    backend = Backend(trace.backend.name, trace.backend.exact, TolerancePolicy(policy.eq_abs, policy.eq_rel, tol))
    n = trace.spectrum.n
    qn = trace.qs[n].coeffs
    j = next((j for j, c in enumerate(qn) if abs(c) < sys.float_info.min), None)
    if j is not None and n > 1:
        warns.append(
            f"q_{n} coefficient {j} = {qn[j]:.3e} is below the normal float64 range; "
            "the reconstruction may have lost precision"
        )
    outer = tuple(sorted(map(float, trace.spectrum.lambdas)))
    for k in range(n - 1, 0, -1):
        brackets = [(outer[i], outer[i + 1]) for i in range(k - k // 2, k)]
        try:
            upper = finder(trace.qs[k], brackets, backend)
        except NoSignChange as exc:
            warns.append(f"level {k}: {exc}")
            break
        inner = tuple(-r for r in reversed(upper)) + (0.0,) * (k % 2) + upper
        if not interlaces(inner, outer):
            warns.append(f"level {k}: interlacing violated")
            break
        certs.append((k, inner, outer))
        outer = inner
    gap = trace.spectrum.min_modulus_gap()
    if gap is not None and float(gap) < GAP_WARN_RATIO * lam1:
        warns.append(
            f"minimum modulus gap {float(gap):.3e} is below {GAP_WARN_RATIO} * lambda_1; "
            "reconstruction is ill-conditioned, consider --backend rational"
        )
    return tuple(certs), tuple(warns)


def _lin_comb_float_reference(c1, c2, v):
    """c2[-1] c1 - v c1[-1] c2, padded with c1's leading coefficient times 0."""
    z, s, t = c1[-1] * 0, -v * c1[-1], c2[-1]
    return tuple(t * a + s * b for a, b in zip_longest(c1, c2, fillvalue=z))


def _level_float_reference(r):
    return (*(c / r[-1] for c in r[:-1]), 1.0)


def float_step_reference(p, u, v):
    """The float64 level x p - v u as first computed: the generic ``lin_comb``
    on p shifted up a degree, then divided by its leading coefficient."""
    return _level_float_reference(_lin_comb_float_reference((p[-1] * 0, *p), u, v))


def forward_q_float_reference(a1, tail_sq):
    """The float64 q-system levels q_0..q_n by the generic step; the top is
    (x - a_1) q_{n-1}, then minus a_2^2 q_{n-2}, then divided."""
    n = 1 + len(tail_sq)
    chain = [(1.0,), (0.0, 1.0)][:n]
    for k in range(2, n):
        chain.append(float_step_reference(chain[k - 1], chain[k - 2], tail_sq[n - k]))
    q = chain[n - 1]
    top = _lin_comb_float_reference((q[-1] * 0, *q), q, a1)
    if n > 1:
        top = _lin_comb_float_reference(top, chain[n - 2], tail_sq[0])
    return chain + [_level_float_reference(top)]


def forward_p_float_reference(a1, tail_sq):
    """The float64 p-system levels p_0..p_n by the generic step."""
    chain = [(1.0,)]
    chain.append(float_step_reference(chain[0], chain[0], a1))
    for v in tail_sq:
        chain.append(float_step_reference(chain[-1], chain[-2], v))
    return chain


def horner_reference(p, x):
    """The module-level ``poly.poly_eval`` before ``MonicPoly.evaluate``: Horner
    over the coefficients a parity tag allows, in x*x when tagged, times x
    when odd, in the same float operations and order."""
    c = p.coeffs if p.parity is None else p.coeffs[p.parity == "odd" :: 2]
    acc, rest = c[-1], c[-2::-1]
    y = x if p.parity is None else x * x
    for c in rest:
        acc = acc * y + c
    return acc * x if p.parity == "odd" else acc


def sparse_grid(rng, n, backend):
    """A random n x n grid (list of row lists) of small fractions, about half
    of them zero, -0.0 for half of the zeros in float64; with probability one
    half each it has a zero row, a zero column and a single-entry row."""

    def zero():
        return -0.0 if not backend.exact and rng.random() < 0.5 else backend.zero

    def value():
        v = Fraction(rng.choice((-9, -4, -2, -1, 1, 3, 5)), rng.choice((1, 2, 3, 7)))
        return backend.convert(v)

    grid = [[value() if rng.random() < 0.5 else zero() for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        grid[rng.randrange(n)] = [zero() for _ in range(n)]
    if rng.random() < 0.5:
        c = rng.randrange(n)
        for row in grid:
            row[c] = zero()
    if rng.random() < 0.5:
        keep = rng.randrange(n)
        grid[rng.randrange(n)] = [value() if c == keep else zero() for c in range(n)]
    return grid
