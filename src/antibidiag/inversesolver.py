"""Reconstruction of the unique positive coefficient vector realizing an
alternating-sign spectrum, together with the Jacobi-subclass restatement and
the anti-bidiagonal square root of a positive-spectrum Jacobi matrix.

The construction runs the q-system backwards: starting from the monic
polynomial with the prescribed roots, it peels off one polynomial per level
with one three-term step.  Each squared codiagonal entry appears as the
leading coefficient of the residual x*q_{k+1} - q_{k+2}, whose two top terms
cancel exactly; this is the sum-of-squares difference of the positive roots
of consecutive levels, so it must be strictly positive for any admissible
spectrum.  At the top, the part of q_n of the parity of n - 1 is -a_1 q_{n-1},
and the rest of q_n takes the place of q_{k+2} in the first step.

Float64 also has the weights pass, ``solve_weights``: J from its eigenvalues
and the first components of its eigenvectors, with no polynomial
coefficients.  The ``solve`` and ``roundtrip`` commands run it, and fall
back to the coefficient pass ``solve`` where it raises ``NotNormalA``.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from operator import truediv

from .errors import (
    BackendUnsupported,
    DuplicateRoots,
    EmptyInput,
    NonFiniteA,
    NonFiniteValue,
    NonPositive,
    NonPositiveA,
    NonPositiveLead,
    NoSignChange,
    NotAlternating,
    NotDecreasing,
    NotNormalA,
    NotStrictlyDecreasingModulus,
    TooSmall,
)
from .matrixkit import (
    CoefficientVector,
    StructuredMatrix,
    build_antibidiagonal,
    jacobi_tridiagonal,
    matmul,
)
from .poly import elementary_symmetric, from_roots, roots_bracketed
from .recurrence import CharPolySequence, _level, _minus
from .scalars import Backend, Record, TolerancePolicy
from .spectral import interlaces, relative_spectrum_error, tridiagonal_eigenvalues

# A modulus gap below this fraction of lambda_1 draws a warning.  Scaling a
# spectrum scales a by the same factor, so the test must be relative.
GAP_WARN_RATIO = 1e-6

# A round trip whose worst relative eigenvalue error exceeds this draws a
# warning; it is also the bound of verify-all's roundtrip battery.
ROUNDTRIP_TOL = 1e-8


class Spectrum(Record):
    """Ordered tuple lambda_1, ..., lambda_n with
    lambda_1 > -lambda_2 > lambda_3 > ... > (-1)**(n-1) lambda_n > 0."""

    lambdas: tuple

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def min_modulus_gap(self):
        mods = [abs(v) for v in self.lambdas]
        if len(mods) < 2:
            return None
        return min(mods[k] - mods[k + 1] for k in range(len(mods) - 1))


def validate_spectrum(values) -> Spectrum:
    """Check the alternating-sign strictly-decreasing-modulus conditions,
    naming the first violated inequality on rejection."""
    values = tuple(values)
    if not values:
        raise EmptyInput("spectrum is empty")
    for k, v in enumerate(values, start=1):
        if not -math.inf < v < math.inf:
            raise NonFiniteValue(f"lambda_{k} = {v} is not finite")
        if v == 0 or (v > 0) != (k % 2 == 1):
            if k == 1:
                raise NonPositiveLead(f"lambda_1 = {v} must be > 0")
            raise NotAlternating(f"lambda_{k} = {v} breaks the sign pattern (-1)**(k-1)")
    for k in range(len(values) - 1):
        if not abs(values[k]) > abs(values[k + 1]):
            raise NotStrictlyDecreasingModulus(
                f"|lambda_{k + 1}| = {abs(values[k])} is not > "
                f"|lambda_{k + 2}| = {abs(values[k + 1])}"
            )
    return Spectrum(values)


class PositiveTuple(Record):
    """mu_1 > mu_2 > ... > mu_n > 0, all strict."""

    mus: tuple

    def __post_init__(self):
        if not self.mus:
            raise EmptyInput("empty tuple")
        for k, v in enumerate(self.mus, start=1):
            if not -math.inf < v < math.inf:
                raise NonFiniteValue(f"mu_{k} = {v} is not finite")
            if not v > 0:
                raise NonPositive(f"{v} is not strictly positive")
        for k in range(len(self.mus) - 1):
            if not self.mus[k] > self.mus[k + 1]:
                raise NotDecreasing(f"mu_{k + 1} <= mu_{k + 2}")


class SigmaCheck(Record):
    sigma1: object
    sigma2: object
    sigma3: object
    holds: bool


def check_sigma_inequality(spectrum) -> SigmaCheck:
    """sigma_3 > sigma_1 * sigma_2 for the spectrum's elements (n >= 3).

    Accepts a Spectrum or any raw sequence, so boundary cases that fail
    validation can still be probed.
    """
    values = spectrum.lambdas if isinstance(spectrum, Spectrum) else tuple(spectrum)
    if len(values) < 3:
        raise TooSmall("sigma_3 needs n >= 3")
    s1 = elementary_symmetric(values, 1)
    s2 = elementary_symmetric(values, 2)
    s3 = elementary_symmetric(values, 3)
    return SigmaCheck(s1, s2, s3, s3 > s1 * s2)


class ReconstructionTrace(Record):
    """Everything the backward pass produced: the q-system chain, a_1 and the
    squared tail.  In float64 the positive coefficient vector ``a``, the
    per-level root interlacing ``certificates`` and the ``warnings`` are
    worked out when first read; the exact backend stops at the squares.
    The weights pass has no chain, so no certificates and only the gap note."""

    spectrum: Spectrum
    chain: CharPolySequence | None  # q_0, ..., q_n
    a1: object
    a_squared: tuple  # (a_2^2, ..., a_n^2)
    backend: Backend
    structural_residual: float | None = None  # weights pass: max_{k>=2} |alpha_k| / x_1
    weight_defect: float | None = None  # weights pass: |sum w - 1|

    @property
    def qs(self) -> tuple:
        """qs[k] = q_k, k = 0..n (built on first access in the exact backend)."""
        return self.chain.polys

    @cached_property
    def a(self) -> tuple | None:
        if self.backend.exact:
            return None
        return (self.a1,) + tuple(map(self.backend.sqrt, self.a_squared))

    @cached_property
    def coefficient_vector(self) -> CoefficientVector:
        """``a`` as a CoefficientVector, built and validated once per trace."""
        if self.a is None:
            raise BackendUnsupported("square roots unavailable in the exact backend")
        return CoefficientVector(self.a)

    @property
    def certificates(self) -> tuple | None:
        """((k, roots_of_q_k, roots_of_q_{k+1}), ...), k descending, at the chain width."""
        return self._chain[0]

    @property
    def warnings(self) -> tuple:
        return self._chain[1]

    def with_notes(self, *middle) -> tuple:
        """The two a-priori warnings around ``middle``, a measured check's warning
        or none: a coefficient of q_n below the normal float64 range (the
        spectrum's products underflowed), then ``middle``, then a minimum
        modulus gap below GAP_WARN_RATIO * lambda_1."""
        n, lam1 = self.spectrum.n, float(self.spectrum.lambdas[0])
        qn, underflow, small_gap = () if self.chain is None else self.chain.top.coeffs, (), ()
        j = next((j for j, c in enumerate(qn) if abs(c) < sys.float_info.min), None)
        if j is not None and n > 1:  # q_1 = x - lambda_1 is read off, not reconstructed
            underflow = (
                f"q_{n} coefficient {j} = {qn[j]:.3e} is below the normal float64 range; "
                "the reconstruction may have lost precision",
            )
        gap = self.spectrum.min_modulus_gap()
        if gap is not None and float(gap) < GAP_WARN_RATIO * lam1:
            small_gap = (
                f"minimum modulus gap {float(gap):.3e} is below {GAP_WARN_RATIO} * lambda_1; "
                "reconstruction is ill-conditioned, consider --backend rational",
            )
        return underflow + middle + small_gap

    @cached_property
    def _chain(self) -> tuple:
        """(certificates, warnings): the interlacing chain at width
        root_tol * min(1, lambda_1), never below the least subnormal, as the
        eigensolver scales its width, and the warning of the level that cuts
        it, if any, ``with_notes``.

        q_k, k < n, has the parity of k, exactly under ``MonicPoly.evaluate``, so
        ``roots_bracketed`` finds only its upper floor(k/2) roots, one in each
        gap between the upper roots of q_{k+1}; the rest are their mirror images
        and, for odd k, 0.0.  A level with no sign change in a gap, or whose
        roots do not interlace strictly with those of q_{k+1}, cuts the chain."""
        if self.backend.exact:
            return None, ()
        if self.chain is None:
            return None, self.with_notes()
        policy, lam1 = self.backend.policy, float(self.spectrum.lambdas[0])
        width = max(policy.root_tol * min(1.0, lam1), math.ulp(0.0))
        backend = Backend(self.backend.name, False, TolerancePolicy(policy.eq_abs, policy.eq_rel, width))
        certs, failed, outer = [], (), tuple(sorted(map(float, self.spectrum.lambdas)))
        for k in range(self.spectrum.n - 1, 0, -1):
            try:
                upper = roots_bracketed(self.qs[k], zip(outer[k - k // 2 : k], outer[k - k // 2 + 1 :]), backend)
            except NoSignChange as exc:
                failed = (f"level {k}: {exc}",)
                break
            inner = tuple(-r for r in reversed(upper)) + (0.0,) * (k % 2) + upper
            if not interlaces(inner, outer):
                failed = (f"level {k}: interlacing violated",)
                break
            certs.append((k, inner, outer))
            outer = inner
        return tuple(certs), self.with_notes(*failed)


def solve(spectrum: Spectrum, backend: Backend) -> ReconstructionTrace:
    """Backward pass from the prescribed spectrum to the coefficient vector.

    q_n = (x - a_1) q_{n-1} - a_2^2 q_{n-2}, and q_{n-1} has the parity of
    n - 1, so the part of q_n of the other parity is -a_1 q_{n-1}: q_{n-1} is
    that part divided by -a_1, and the rest of q_n, x q_{n-1} - a_2^2 q_{n-2},
    is the top of the plain three-term step.  Every level k = n-2, ..., 0 then
    takes the same step: r = x q_{k+1} - (the level above), a_{n-k}^2 = r[k],
    and q_k is r[:k+1] stored as a level (``recurrence._level``).

    The exact backend takes that step on integers.  It scales the spectrum by
    its common denominator D to integers mu, so the pass runs on
    prod (y - mu_i), y = D x, where a' = D a.  It carries Q_k = c_k q_k(y)
    with integer c_k: r = c_u y Q_{k+1} - c_{k+1} U for the level above
    U = c_u q_{k+2}, so r[k] = c_u c_{k+1} a'^2.  Each output is one
    Fraction: a_1 = a_1'/D, a^2 = a'^2/D^2; in float64 D = 1.

    Raises NonPositiveA if a_1 or a squared entry fails to be positive
    (invalid input or catastrophic roundoff) and NonFiniteA if a squared
    entry overflows float64 or comes out NaN from an overflowed coefficient.
    """
    lam = tuple(backend.convert(v) for v in spectrum.lambdas)
    n = len(lam)
    scale, roots, ratio = 1, lam, truediv  # ratio: an output quotient
    if backend.exact:
        import fractions

        scale, ratio = math.lcm(*(v.denominator for v in lam)), fractions.Fraction
        roots = [v.numerator * (scale // v.denominator) for v in lam]
    qn = from_roots(roots, backend).coeffs
    a1 = ratio(-qn[n - 1], scale)  # sigma_1
    if not a1 > 0:
        raise NonPositiveA(f"a_1 = sigma_1 = {a1} is not positive")
    upper = tuple(c if (n - k) % 2 == 0 else 0 for k, c in enumerate(qn))
    q = _level([-c if (n - k) % 2 else 0 for k, c in enumerate(qn[:n])], backend)
    chain = [qn, q]  # descending degree
    a_sq = []
    for k in range(n - 2, -1, -1):
        r = _minus([q[-1] * 0, *q], q[-1], upper, upper[-1])
        asq = ratio(r[k], q[-1] * upper[-1] * scale**2)  # a_{n-k}^2
        if asq != asq:  # NaN, as from inf - inf: a coefficient overflowed
            raise NonFiniteA(f"a_{n - k}^2 = {asq}: a coefficient overflowed float64")
        if not asq > 0:
            raise NonPositiveA(f"a_{n - k}^2 = {asq} is not positive")
        a_sq.append(asq)
        upper, q = q, _level(r[: k + 1], backend)
        chain.append(q)

    chain = CharPolySequence.of_levels(chain[::-1], backend, scale)
    if math.inf in a_sq:
        raise NonFiniteA("a squared codiagonal entry overflows float64")
    return ReconstructionTrace(spectrum, chain, a1, tuple(a_sq), backend)


def solve_weights(spectrum: Spectrum, backend: Backend) -> ReconstructionTrace:
    """Float64 reconstruction from the spectral weights, in O(n^2) and with no
    polynomial coefficients (de Boor & Golub, LAA 21, 1978).

    J is fixed by its eigenvalues and its weights, the squared first
    components of its unit eigenvectors, w_i = q_{n-1}(lambda_i)/q_n'(lambda_i).
    By the top step of ``solve`` that is
    w_i = (lambda_i/sigma_1) prod_{j != i} (lambda_i + lambda_j)/(lambda_i - lambda_j).
    ``_rkpw`` builds J from them: alpha_1 = a_1 and beta_k = a_{k+1}^2.

    It runs on x = 2^-e lambda, e the exponent of ``math.frexp(lambda_1)``, and
    scales a_1 by 2^e and each square by 4^e exactly.  The trace carries the
    structural residual max_{k>=2} |alpha_k|/x_1 and |sum w - 1|, both 0 in
    exact arithmetic.  Raises NotNormalA where the scaled lambda_n, a_1 or a
    square is not a positive normal float64.
    """
    if backend.exact:
        raise BackendUnsupported("the weights pass is float64 only")
    e = math.frexp(spectrum.lambdas[0])[1]
    x = [math.ldexp(v, -e) for v in spectrum.lambdas]
    if abs(x[-1]) < sys.float_info.min:  # it would have lost bits
        raise NotNormalA(f"lambda_{len(x)} scales to the subnormal {x[-1]} beside lambda_1 in [0.5, 1)")
    sigma1 = math.fsum(x)
    w = [xi / sigma1 for xi in x]
    for i, xi in enumerate(x):  # each factor in the order j = 1..n of the product
        wi = w[i]
        for j in range(i + 1, len(x)):
            r = (xi + x[j]) / (xi - x[j])
            wi *= r
            w[j] *= -r  # (x_j + x_i)/(x_j - x_i), exactly
        w[i] = wi
    alpha, beta = _rkpw(x, w)
    try:
        a1, a_sq = math.ldexp(alpha[0], e), tuple(math.ldexp(b, 2 * e) for b in beta[1:])
    except OverflowError:
        raise NotNormalA("a_1 or a square overflows float64 once scaled back") from None
    for k, v in enumerate((a1, *a_sq), start=1):
        if not sys.float_info.min <= v <= sys.float_info.max:
            raise NotNormalA(f"{'a_1' if k == 1 else f'a_{k}^2'} = {v} is not a positive normal float64")
    residual = max(map(abs, alpha[1:]), default=0.0) / x[0]
    return ReconstructionTrace(spectrum, None, a1, a_sq, backend, residual, abs(beta[0] - 1))


def _rkpw(x, w) -> tuple:
    """(alpha, beta) of the Jacobi matrix of the measure sum w_i delta(x_i), beta_0 =
    sum w: Gautschi's ``RKPW`` (Orthogonal Polynomials, OUP 2004), the
    square-root-free update of Gragg & Harrod (Numer. Math. 44, 1984)."""
    n = len(x)
    p0, p1 = [x[0]] + [0.0] * (n - 1), [w[0]] + [0.0] * (n - 1)
    for m in range(1, n):
        pn, gam, sig, t, xlam = w[m], 1.0, 0.0, 0.0, x[m]
        for k in range(m + 1):
            bk = p1[k]
            rho = bk + pn
            p1[k], tsig = gam * rho, sig
            if rho <= 0:
                gam, sig = 1.0, 0.0
            else:
                gam, sig = bk / rho, pn / rho
            tk = sig * (p0[k] - xlam) - gam * t
            p0[k] -= tk - t
            t = tk
            pn = tsig * bk if sig <= 0 else t * t / sig
    return p0, p1


class RoundtripResult(Record):
    trace: ReconstructionTrace
    recovered: tuple
    max_error: float

    @property
    def warnings(self) -> tuple:
        """The trace's two notes around the measured error, in the interlacing
        chain's place: a correct a reproduces the spectrum, so the round trip
        measures the error that the chain only infers from q_k's rounding."""
        err = self.max_error
        measured = () if err <= ROUNDTRIP_TOL else (f"round-trip error {err:.3e} exceeds {ROUNDTRIP_TOL:g}",)
        return self.trace.with_notes(*measured)


def solve_roundtrip(spectrum: Spectrum, backend: Backend) -> RoundtripResult:
    """Solve, then ``roundtrip`` the float64 trace."""
    if backend.exact:
        raise BackendUnsupported("roundtrip eigensolve needs the floating backend")
    return roundtrip(solve(spectrum, backend))


def roundtrip(trace: ReconstructionTrace) -> RoundtripResult:
    """Eigensolve a float64 trace's Jacobi band; report the worst relative error."""
    lam, backend = trace.spectrum.lambdas, trace.backend
    eig = tridiagonal_eigenvalues(*jacobi_tridiagonal(trace.coefficient_vector, backend), backend, near=lam)
    return RoundtripResult(trace, eig, relative_spectrum_error(eig, lam))


class SqrtResult(Record):
    spectrum: Spectrum
    a: CoefficientVector
    antibidiagonal: StructuredMatrix
    jacobi: StructuredMatrix


def jacobi_sqrt(mus: PositiveTuple, backend: Backend) -> SqrtResult:
    """Anti-bidiagonal symmetric square root construction: alternate the signs
    of the square roots of the prescribed positive spectrum, solve, and square."""
    if backend.exact:
        raise BackendUnsupported("square roots need the floating backend")
    lam = tuple((-1) ** j * backend.sqrt(backend.convert(m)) for j, m in enumerate(mus.mus))
    if k := next((k for k in range(1, len(lam)) if lam[k - 1] == -lam[k]), 0):
        raise DuplicateRoots(  # sqrt is monotone: only its rounding ties two roots
            f"mu_{k} = {mus.mus[k - 1]} and mu_{k + 1} = {mus.mus[k]} share one float64 square root"
        )
    spectrum = validate_spectrum(lam)
    trace = solve(spectrum, backend)
    a = trace.coefficient_vector
    A = build_antibidiagonal(a, backend)
    B = matmul(A, A, backend)
    return SqrtResult(spectrum, a, A, B)
