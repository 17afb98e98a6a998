"""Seeded request mixes and the benchmark's own output oracles.

Every request is one ``antibidiag`` CLI command, given as an argv list for
``antibidiag.cli.main``.  Inputs come from ``antibidiag.sampling`` with
per-request seeds derived from (seed, label, index), so a seed fixes the whole
mix.  The oracles are independent of the library: NumPy's ``eigvalsh`` for
float64 round trips, a Fraction three-term recurrence for exact solves, and
the report's own verdict fields for sign regularity.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from antibidiag.sampling import case_rng, random_rational_spectrum, random_spectrum

# A float64 result whose worst relative eigenvalue error exceeds this is not
# clean; it is the bound of verify-all's roundtrip battery.
CLEAN_TOL = 1e-8


@dataclass(frozen=True)
class Request:
    n: int
    spectrum: tuple
    argv: tuple


@dataclass(frozen=True)
class Verdict:
    """Oracle result for one exit-0 output.  ``ok`` is False on a wrong
    answer; ``rel_err`` and ``warned`` are set for float64 round trips."""

    ok: bool
    detail: str = ""
    rel_err: float | None = None
    warned: bool = False


def _join(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def roundtrip_request(n: int, spectrum) -> Request:
    return Request(n, spectrum, ("solve", "--roundtrip", "--spectrum=" + _join(spectrum)))


def check_roundtrip(req: Request, text: str) -> Verdict:
    """The reported Jacobi matrix must be the special Jacobi matrix of the
    reported positive ``a``; its NumPy eigenvalues give the relative error."""
    import numpy as np  # here, so the fresh-interpreter memory probe never loads it

    rep = json.loads(text)
    n, a, J = req.n, rep["a"], rep["jacobi"]
    if len(a) != n or len(J) != n or any(len(row) != n for row in J):
        return Verdict(False, "report has the wrong size")
    if any(not v > 0 for v in a):
        return Verdict(False, "a is not positive")
    for i in range(n):
        for j in range(n):
            if i == j:
                want = a[0] if i == 0 else 0.0
            elif abs(i - j) == 1:
                want = a[max(i, j)]
            else:
                want = 0.0
            if J[i][j] != want:
                return Verdict(False, f"jacobi[{i}][{j}] = {J[i][j]}, want {want}")
    eig = np.linalg.eigvalsh(np.array(J, dtype=float))
    rel_err = max(abs(e - x) / abs(x) for e, x in zip(eig.tolist(), sorted(req.spectrum)))
    return Verdict(True, rel_err=rel_err, warned=bool(rep["warnings"]))


def exact_request(n: int, spectrum) -> Request:
    return Request(
        n, spectrum, ("solve", "--backend", "rational", "--spectrum=" + _join(spectrum))
    )


def _poly_mul_linear(coeffs, r):
    """coeffs * (x - r), constant term first."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k + 1] += c
        out[k] -= r * c
    return out


def check_exact(req: Request, text: str) -> Verdict:
    """The three-term recurrence run on the reported a_1 and squares must give
    exactly prod (x - lambda).  It builds q_k = x q_{k-1} - a_{n-k+2}^2 q_{k-2}
    from q_0 = 1, q_1 = x, then q_n = (x - a_1) q_{n-1} - a_2^2 q_{n-2}; q_k
    for k < n has the parity of k, so only every other coefficient is updated.

    The report is parsed with the int-to-str digit limit lifted: a correct
    report may hold integers longer than the interpreter's default limit,
    and the oracle must accept it.  Checks run outside the timed loop, so
    the library never sees the lifted limit while it is measured."""
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _check_exact(req, json.loads(text))
    finally:
        sys.set_int_max_str_digits(old_limit)


def _check_exact(req: Request, rep) -> Verdict:
    n = req.n
    sq = [Fraction(v) for v in rep["a_squared"]]
    if len(sq) != n or any(not v > 0 for v in sq):
        return Verdict(False, "a_squared is not a positive n-vector")
    if n == 1:
        cur = [-sq[0], Fraction(1)]
    else:
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        for k in range(2, n):
            s = sq[n - k + 1]
            nxt = [Fraction(0)] + cur
            for i in range(k % 2, len(prev), 2):
                nxt[i] -= s * prev[i]
            prev, cur = cur, nxt
        top = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            top[i] -= sq[0] * c
        for i, c in enumerate(prev):
            top[i] -= sq[1] * c
        cur = top
    target = [Fraction(1)]
    for lam in req.spectrum:
        target = _poly_mul_linear(target, lam)
    if cur != target:
        return Verdict(False, "recurrence does not reproduce the spectrum")
    return Verdict(True)


def signreg_request(n: int, spectrum) -> Request:
    return Request(n, spectrum, ("signreg", "--spectrum=" + _join(spectrum)))


def check_signreg(req: Request, text: str) -> Verdict:
    rep = json.loads(text)
    if rep["n"] != req.n:
        return Verdict(False, "wrong n")
    if not rep["all_minors_conforming"] or rep["achieved_class"] != req.n:
        return Verdict(False, f"class {rep['achieved_class']} of {req.n}")
    return Verdict(True)


# --- workloads -------------------------------------------------------------

F64_SIZES = (8, 16, 24, 32, 48)
EXACT_SIZES = (16, 32, 48)
SIGNREG_SIZES = (2, 3, 4, 5, 6)


def _f64(seed: int, i: int) -> Request:
    n = F64_SIZES[i % len(F64_SIZES)]
    return roundtrip_request(n, random_spectrum(case_rng(seed, "f64-roundtrip", i), n))


def _exact(seed: int, i: int) -> Request:
    n = EXACT_SIZES[i % len(EXACT_SIZES)]
    return exact_request(n, random_rational_spectrum(case_rng(seed, "exact-solve", i), n))


def _signreg(seed: int, i: int) -> Request:
    n = SIGNREG_SIZES[i % len(SIGNREG_SIZES)]
    return signreg_request(n, random_spectrum(case_rng(seed, "signreg", i), n))


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # requests per full pass over the size mix
    make: object  # (seed, index) -> Request
    check: object  # (Request, stdout text) -> Verdict

    def requests(self, seed: int, count: int):
        return [self.make(seed, i) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("f64-roundtrip", len(F64_SIZES), _f64, check_roundtrip),
        Workload("exact-solve", len(EXACT_SIZES), _exact, check_exact),
        Workload("signreg", len(SIGNREG_SIZES), _signreg, check_signreg),
    )
}
