"""Forward three-term recurrences for the characteristic polynomials of the
anti-bidiagonal family and of its Jacobi counterpart.

Two systems produce the same top polynomial:

* p-system: p_0 = 1, p_1 = x - a_1, p_k = x*p_{k-1} - a_k^2 * p_{k-2}.
* q-system: q_0 = 1, q_1 = x, then ascending
  q_k = x*q_{k-1} - a_{n-k+2}^2 * q_{k-2} for 2 <= k <= n-1, and finally
  q_n = (x - a_1)*q_{n-1} - a_2^2 * q_{n-2};
  q_k is the characteristic polynomial of the trailing k x k principal
  submatrix of the Jacobi matrix, hence has the parity of k for k <= n-1.

Both take a positive coefficient vector; the q-system also takes the pair
(a_1, squared tail), so the exact backend never needs square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveEntry, SquareOutOfRange
from .matrixkit import CoefficientVector
from .poly import EVEN, ODD, MonicPoly, lin_comb, parity_of_degree, shift_up, with_parity
from .scalars import Backend


@dataclass(frozen=True)
class CharPolySequence:
    """polys[k] has degree k; polys[n] is the full characteristic polynomial."""

    polys: tuple

    @property
    def n(self) -> int:
        return len(self.polys) - 1

    @property
    def top(self) -> MonicPoly:
        return self.polys[-1]


def _squares(a: CoefficientVector, backend: Backend):
    """a_1 and the squared tail.  The entries are positive, so a square that
    float64 rounds to 0.0 or to inf is a breakdown, not a rejection."""
    a1 = backend.convert(a.a[0])
    tail = []
    for k, v in enumerate(a.a[1:], start=2):
        v = backend.convert(v)
        sq = v * v
        if not 0 < sq < math.inf:
            raise SquareOutOfRange(f"a_{k}^2 = ({v})^2 is {sq} in {backend.name}")
        tail.append(sq)
    return a1, tuple(tail)


def _check_positive(a1, tail_sq):
    if not a1 > 0:
        raise NonPositiveEntry(f"a_1 = {a1} is not strictly positive")
    for k, v in enumerate(tail_sq, start=2):
        if not v > 0:
            raise NonPositiveEntry(f"a_{k}^2 = {v} is not strictly positive")


def forward_p(a: CoefficientVector, backend: Backend) -> CharPolySequence:
    """p-system of a positive coefficient vector."""
    a1, tail_sq = _squares(a, backend)
    one = backend.one
    polys = [MonicPoly((one,)), MonicPoly((-a1, one))]
    for k in range(2, a.n + 1):
        coeffs = lin_comb(shift_up(polys[k - 1].coeffs), polys[k - 2].coeffs, -tail_sq[k - 2])
        polys.append(MonicPoly(coeffs))
    return CharPolySequence(tuple(polys))


def forward_q(a: CoefficientVector, backend: Backend) -> CharPolySequence:
    a1, tail = _squares(a, backend)
    return forward_q_squared(a1, tail, backend)


def forward_q_squared(a1, tail_sq, backend: Backend) -> CharPolySequence:
    """q-system from a_1 and the squared tail (a_2^2, ..., a_n^2)."""
    _check_positive(a1, tail_sq)
    n = 1 + len(tail_sq)
    one = backend.one
    if n == 1:
        return CharPolySequence((MonicPoly((one,), EVEN), MonicPoly((-a1, one))))
    polys = [MonicPoly((one,), EVEN), MonicPoly((backend.zero, one), ODD)]
    for k in range(2, n):
        sq = tail_sq[n - k]  # a_{n-k+2}^2
        coeffs = lin_comb(shift_up(polys[k - 1].coeffs), polys[k - 2].coeffs, -sq)
        polys.append(with_parity(MonicPoly(coeffs), parity_of_degree(k), backend))
    # (x - a_1) q_{n-1} first, then - a_2^2 q_{n-2}: the rounding of this
    # order is what max_residual reports.
    top = lin_comb(shift_up(polys[n - 1].coeffs), polys[n - 1].coeffs, -a1)
    top = lin_comb(top, polys[n - 2].coeffs, -tail_sq[0])
    polys.append(MonicPoly(top))
    return CharPolySequence(tuple(polys))
