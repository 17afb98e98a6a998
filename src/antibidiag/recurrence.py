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

How a level is stored (``_level``), for both forward passes and for the
backward pass of ``inversesolver.solve``, and how an output quotient is formed
(``_ratio``) is decided here; p- and q-system levels take the same step
(``_next``) and are stored alike.  Every three-term step of every pass, on
both backends, is one list update, ``_minus``.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from operator import mul, sub

from .errors import NonPositiveEntry, SquareOutOfRange
from .matrixkit import CoefficientVector
from .poly import MonicPoly
from .scalars import Backend, Record, primitive_part


class CharPolySequence(Record):
    """polys[k] has degree k; polys[n] is the full characteristic polynomial.

    ``chain`` holds the levels as ``_level`` stores them, for the p- and the
    q-system alike: monic coefficient tuples (float64, or Fractions) when
    ``scale`` is None, and on the rational backend integers chain[k] = C_k
    with q_k(x) = C_k(D x) / (C_k[-1] D**k) for D = scale.  ``polys`` builds
    the monic polys on first access, ``top`` only the last.
    """

    chain: tuple
    scale: int | None = None

    @classmethod
    def of_levels(cls, chain, backend: Backend, scale=1) -> CharPolySequence:
        """The levels chain[k], k = 0..n, as ``_level`` stores them; integers carry ``scale``."""
        return cls(tuple(chain), scale if backend.exact else None)

    def _poly(self, k) -> MonicPoly:
        c, d = self.chain[k], self.scale
        if d is not None:
            import fractions

            c = tuple(fractions.Fraction(v, c[-1] * d ** (k - j)) for j, v in enumerate(c))
        return MonicPoly(c)

    @cached_property
    def polys(self) -> tuple:
        return tuple(map(self._poly, range(len(self.chain))))

    @cached_property
    def top(self) -> MonicPoly:
        return self._poly(len(self.chain) - 1)

    def same_top(self, other: CharPolySequence) -> bool:
        """Whether both sequences end in the same polynomial; two integer
        chains are compared by cross-multiplying, without forming a Fraction."""
        if self.scale is None or other.scale is None:
            return self.top.coeffs == other.top.coeffs
        c, d = self.chain[-1], other.chain[-1]
        deg = len(c) - 1
        return len(c) == len(d) and all(
            u * d[-1] * other.scale ** (deg - j) == v * c[-1] * self.scale ** (deg - j)
            for j, (u, v) in enumerate(zip(c, d))
        )


def _level(r, backend: Backend) -> tuple:
    """A step's result r as a stored level: on the rational backend the
    integers without their content; in float64 r[:-1] divided by r[-1] > 0
    under a leading 1.0.  Below q_n, each q-system coefficient the parity of
    its degree forbids comes out 0.0 or -0.0 as computed: both operands of
    the step hold ±0.0 there, and its multipliers are finite (1.0 and -1.0
    backward, 1.0 and -a^2 forward); ``MonicPoly.parity`` reads the parity
    back from those zeros."""
    if backend.exact:
        return primitive_part(r)
    return (*(c / r[-1] for c in r[:-1]), 1.0)


def _ratio(num, den, backend: Backend):
    """num / den as an output scalar: one Fraction on the rational backend."""
    if not backend.exact:
        return num / den
    import fractions

    return fractions.Fraction(num, den)


def _step(r: list, u, v, backend: Backend) -> list:
    """r - v u in place, r a level times x: in float64, where r and u end in
    1.0, the plain update; on the rational backend an integer multiple of
    r/r[-1] - v u/u[-1]."""
    if not backend.exact:
        return _minus(r, v, u)
    s, t = backend.convert(v).as_integer_ratio()
    s, t = s * r[-1], t * u[-1]
    g = math.gcd(s, t)  # two scalars: cheaper than the content it spares
    return _minus(r, s // g, u, t // g)


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
    if math.inf in (a1, *tail_sq):  # the pass would carry NaN
        raise SquareOutOfRange("(a_1, a_2^2, ..., a_n^2) holds inf")


def _minus(r: list, v, u, t=1) -> list:
    """t r - v u in place, u no longer than r: the three-term step of every
    pass.  The t products are skipped when t is 1, which leaves r as t r
    would, 1.0 * c being c."""
    if t != 1:
        r[:] = map(mul, repeat(t), r)
    r[: len(u)] = map(sub, r, map(mul, repeat(v), u))
    return r


def _next(p, u, v, backend: Backend) -> tuple:
    """The level x p - v u after the levels p and u, as ``_level`` stores it.

    In float64, where p and u end in 1.0 and v is finite, it is the update
    alone: the division by the leading 1.0 would leave each c as it is."""
    if backend.exact:
        return _level(_step([0, *p], u, v, backend), backend)
    return tuple(_minus([0.0, *p], v, u))


def forward_p(a: CoefficientVector, backend: Backend) -> CharPolySequence:
    """p-system of a positive coefficient vector, stored as the q-system is:
    p_1 = (x - a_1) p_0 is the step with v = a_1, as the q-system's top step."""
    a1, tail_sq = _squares(a, backend)
    chain = [_level((1,), backend)]
    chain.append(_next(chain[0], chain[0], a1, backend))
    for v in tail_sq:
        chain.append(_next(chain[-1], chain[-2], v, backend))
    return CharPolySequence.of_levels(chain, backend)


def forward_q(a: CoefficientVector, backend: Backend) -> CharPolySequence:
    a1, tail = _squares(a, backend)
    return forward_q_squared(a1, tail, backend)


def forward_q_squared(a1, tail_sq, backend: Backend) -> CharPolySequence:
    """q-system from a_1 and the squared tail (a_2^2, ..., a_n^2).

    The exact backend carries integers P_k with q_k = P_k / P_k[-1], so the
    pass forms no Fraction: with a^2 = s/t the step is
    t P_{k-2}[-1] x P_{k-1} - s P_{k-1}[-1] P_{k-2}."""
    _check_positive(a1, tail_sq)
    n = 1 + len(tail_sq)
    chain = [_level(c, backend) for c in [(1,), (0, 1)][:n]]
    for k in range(2, n):
        chain.append(_next(chain[k - 1], chain[k - 2], tail_sq[n - k], backend))
    # (x - a_1) q_{n-1} first, then - a_2^2 q_{n-2}: in float64 this order
    # fixes the rounding of the forward command's q_coeffs.
    q = chain[n - 1]
    top = _step([q[-1] * 0, *q], q, a1, backend)
    if n > 1:
        top = _step(top, chain[n - 2], tail_sq[0], backend)
    chain.append(_level(top, backend))
    return CharPolySequence.of_levels(chain, backend)
