"""Monic polynomials: construction from roots, symmetric functions, Horner
evaluation, and one root per sign-change bracket.

A ``MonicPoly`` reads its parity from its coefficients, and its one evaluator,
the cached Horner closure ``MonicPoly.evaluate``, runs on it; a q-system level
q_k, k < n, has the parity of k because it holds zeros at its forbidden
coefficients as the step computes them (``recurrence._level``).
``roots_bracketed`` bisects each of its brackets itself; it is the root finder
of the interlacing chain in ``inversesolver``.

Coefficients are stored dense, constant term first.  Degrees run to the
spectrum's size n, which the float64 commands take into the hundreds; every
use of them is a three-term step (``recurrence._minus``), a product of linear
factors or a Horner pass, each O(n) per level or per point, so no sparse or
FFT machinery is warranted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import BackendUnsupported, DuplicateRoots, IndexOutOfRange, NoSignChange
from .scalars import Backend, Record


class MonicPoly(Record):
    """Dense monic polynomial; ``coeffs[k]`` multiplies x**k, leading term 1."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if self.coeffs[-1] != 1:
            raise ValueError("leading coefficient must be exactly 1")

    @cached_property
    def parity(self) -> str | None:
        """What the coefficients show: "even" when every odd-index one is zero
        (0.0, -0.0 or 0), else "odd" when every even-index one is, else None."""
        if not any(self.coeffs[1::2]):
            return "even"
        return None if any(self.coeffs[::2]) else "odd"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def evaluate(self):
        """x -> p(x) by Horner, a closure over the coefficients it runs on.

        A polynomial with a parity is evaluated by Horner in x*x over its
        allowed coefficients (times x when odd), which halves the multiply-adds
        and makes p(-x) = p(x) (even) or -p(x) (odd) hold exactly; the
        forbidden coefficients it skips are zeros.  Any other polynomial takes
        plain Horner in x."""
        plain, odd = self.parity is None, self.parity == "odd"
        cs = self.coeffs if plain else self.coeffs[odd::2]
        lead, rest = cs[-1], cs[-2::-1]

        def evaluate(x):
            acc, y = lead, x if plain else x * x
            for c in rest:
                acc = acc * y + c
            return acc * x if odd else acc

        return evaluate


def from_roots(roots, backend: Backend) -> MonicPoly:
    """Monic polynomial with the given simple finite roots (empty product is 1).

    Floating backend rejects two roots closer than 10*root_tol times the larger
    of their moduli, so the test does not depend on the scale of the roots; the
    rational backend rejects exact duplicates, and multiplies integer roots
    out on integers.  Sorted neighbours tell whether any pair fails: below
    separation 1 only pairs of one sign can, and the end of larger modulus fails
    with its inner neighbour too; from 1 on, any two roots of one sign fail, and
    of three sorted roots two neighbours share a sign.
    """
    roots = list(roots)
    one, zero = backend.one, backend.zero
    if backend.exact and roots and all(type(r) is int for r in roots):
        one, zero = 1, 0
    else:
        roots = [backend.convert(r) for r in roots]
    sep = 0 if backend.exact else 10 * backend.policy.root_tol
    ordered = sorted(roots)
    if any(abs(r - s) <= sep * max(abs(r), abs(s)) for r, s in zip(ordered, ordered[1:])):
        for r, s in combinations(roots, 2):  # name the first pair in input order
            if abs(r - s) <= sep * max(abs(r), abs(s)):
                raise DuplicateRoots(f"roots {r} and {s} are not separated")
    coeffs = [one]
    for r in roots:
        # multiply by (x - r)
        nxt = [zero] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return MonicPoly(tuple(coeffs))


def elementary_symmetric(roots, j: int):
    """j-th elementary symmetric function of the tuple; sigma_0 = 1."""
    roots = tuple(roots)
    if j < 0 or j > len(roots):
        raise IndexOutOfRange(f"sigma_{j} of a {len(roots)}-tuple")
    # Newton-free DP over the defining product; exact for exact scalars.
    e = [1] + [0] * j
    for r in roots:
        for k in range(min(j, len(e) - 1), 0, -1):
            e[k] = e[k] + r * e[k - 1]
    return e[j]


def poly_eval(p: MonicPoly, x):
    """Horner evaluation: ``p.evaluate(x)``."""
    return p.evaluate(x)


def roots_bracketed(p: MonicPoly, brackets, backend: Backend):
    """One root per sign-change bracket, ascending; an end where p is exactly
    0.0 is the root.  Each distinct end is evaluated once, though adjacent
    brackets share it.  Each bracket is bisected at 0.5*lo + 0.5*hi, which
    cannot overflow, to a probe where p is exactly 0.0, adjacent floats or
    width root_tol, and its root is that probe or the last midpoint: at most
    ceil(log2(width/root_tol)) probes, or one more where the rounded midpoints
    leave the bracket a few ulps above root_tol."""
    if backend.exact:
        raise BackendUnsupported("bracketed root extraction needs the floating backend")
    tol = backend.policy.root_tol
    brackets = [sorted(b) for b in brackets]
    ends = {x: poly_eval(p, x) for x in {x for b in brackets for x in b}}
    out = []
    for lo, hi in brackets:
        flo, fhi = ends[lo], ends[hi]
        if flo == 0.0 or fhi == 0.0:
            out.append(lo if flo == 0.0 else hi)
            continue
        if (flo > 0) == (fhi > 0):
            raise NoSignChange(f"no sign change on [{lo}, {hi}]")
        f = p.evaluate
        while hi - lo > tol:
            x = 0.5 * lo + 0.5 * hi
            fx = f(x) if lo < x < hi else 0.0  # adjacent ends: x is one of them
            if fx == 0.0:
                lo = hi = x
            elif (fx > 0) == (fhi > 0):
                hi, fhi = x, fx
            else:
                lo = x
        out.append(lo if lo == hi else 0.5 * lo + 0.5 * hi)
    return tuple(sorted(out))
