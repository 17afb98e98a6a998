"""Command-line surface.

Commands: solve, forward, roundtrip, sqrt, signreg, verify-all.  Input comes
from inline comma-separated values or a JSON/CSV file; reports are emitted as
JSON (canonical machine format), CSV, or aligned human-readable text.

Exit statuses: 0 success, 1 input validation rejection, 2 numerical breakdown,
3 usage error.  Each package error carries its own status (see ``errors``); any
other arithmetic or value error escaping the numeric core is a breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import errors as err
from .inversesolver import (
    ROUNDTRIP_TOL,
    PositiveTuple,
    check_sigma_inequality,
    jacobi_sqrt,
    roundtrip,
    solve,
    solve_roundtrip,
    solve_weights,
    validate_spectrum,
)
from .matrixkit import (
    CoefficientVector,
    build_antibidiagonal,
    build_antidiagonal_unit,
    build_jacobi_special,
    jacobi_tridiagonal,
    matmul,
)
from .poly import poly_eval
from .recurrence import forward_p, forward_q, forward_q_squared
from .sampling import (
    MAX_DEFAULT_N,
    case_rng,
    random_positive_tuple,
    random_rational_coefficients,
    random_spectrum,
)
from .scalars import Backend, TolerancePolicy, float64, rational
from .spectral import (
    cauchy_binet_check,
    check_class_plus,
    classify_sign_regular,
    eigensolve_tridiagonal,
    relative_spectrum_error,
    signature_sequence,
    tridiagonal_eigenvalues,
)

EXIT_OK = 0
EXIT_BREAKDOWN = err.NumericalBreakdown.exit_code
EXIT_USAGE = err.UsageError.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antibidiag",
        description="Inverse eigenvalue problem for symmetric anti-bidiagonal "
        "matrices and the associated Jacobi subclass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # the options of every command, built once
    common.add_argument("--backend", choices=["float64", "rational"], default="float64")
    common.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    common.add_argument("--input", type=Path, help="JSON or CSV input file")
    common.add_argument("--tol-abs", type=float, default=1e-10)
    common.add_argument("--tol-rel", type=float, default=1e-10)
    common.add_argument("--root-tol", type=float, default=1e-13)

    p = sub.add_parser("solve", parents=[common], help="spectrum -> positive coefficient vector")
    p.add_argument("--spectrum", help="comma-separated eigenvalues")
    p.add_argument("--roundtrip", action="store_true", help="no effect: float64 solve always round-trips")

    p = sub.add_parser("forward", parents=[common], help="coefficients -> characteristic polynomials")
    p.add_argument("--a", help="comma-separated positive coefficients")
    p.add_argument("--eigs", action="store_true", help="also eigensolve the Jacobi matrix")

    p = sub.add_parser("roundtrip", parents=[common], help="solve then eigensolve, report max error")
    p.add_argument("--spectrum", help="comma-separated eigenvalues")

    p = sub.add_parser("sqrt", parents=[common], help="anti-bidiagonal square root of a Jacobi matrix")
    p.add_argument("--mus", help="strictly decreasing positive eigenvalues")

    p = sub.add_parser("signreg", parents=[common], help="sign-regularity classification")
    p.add_argument("--a", help="coefficients of the matrix to classify")
    p.add_argument("--spectrum", help="solve first, then classify the result")
    p.add_argument("--max-power", type=int, default=None)

    p = sub.add_parser("verify-all", parents=[common], help="run the randomized property batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="1,2,3,4,5,6,7,8", help="comma-separated n values")
    p.add_argument("--cases", type=int, default=20, help="cases per battery per size")

    return parser


def _make_backend(args) -> Backend:
    try:
        policy = TolerancePolicy(args.tol_abs, args.tol_rel, args.root_tol)
    except ValueError as exc:
        raise err.UsageError(str(exc)) from exc
    return rational(policy) if args.backend == "rational" else float64(policy)


def _parse_token(tok: str, backend: Backend):
    tok = tok.strip()
    try:
        if not (backend.exact or "/" in tok):  # a plain float needs no fractions
            return float(tok)
        import fractions

        if backend.exact:  # refuse an exponent e before 10**|e| outgrows the int-to-str digit limit
            exp, limit = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\Z", tok), sys.get_int_max_str_digits()
            if exp and limit and abs(int(exp[1])) >= limit:
                raise ValueError(f"10**{abs(int(exp[1]))} has more digits than the limit {limit}")
            return fractions.Fraction(tok)
        return float(fractions.Fraction(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise err.UsageError(f"cannot read {tok!r} as a number: {exc}") from exc


def _parse_inline(text: str, backend: Backend):
    if text.strip() == "":
        return ()
    return tuple(_parse_token(t, backend) for t in text.split(","))


def _load_input(path: Path, backend: Backend, keys):
    """(key, values) for the first of ``keys`` in a JSON document; CSV reads as the last key."""
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is not data
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            doc = json.loads(text)
            for key in keys:
                if key in doc:
                    if not isinstance(doc[key], list):  # a string would be read per character
                        raise err.UsageError(f"key {key!r} of {path} is not a JSON array")
                    return key, tuple(_parse_token(str(v), backend) for v in doc[key])
            raise err.SizeMismatch(f"input file has no key {' or '.join(map(repr, keys))}")
    except (OSError, ValueError, TypeError) as exc:
        raise err.UsageError(f"cannot read {path}: {exc}") from exc
    return keys[-1], tuple(
        _parse_token(line, backend) for line in text.splitlines() if line.strip()
    )


def _values_from(args, backend, *keys):
    """(key, values) for the first option of ``keys`` given inline, else from --input."""
    for key in keys:
        inline = getattr(args, key)
        if inline is not None:
            return key, _parse_inline(inline, backend)
    if args.input is not None:
        return _load_input(args.input, backend, keys)
    raise err.SizeMismatch(f"provide {' or '.join('--' + k for k in keys + ('input',))}")


# --- report rendering ---


def _walk(report: dict, path=()):
    """(path, value) for every node under a report, depth first; a list of
    dicts reads as a dict keyed "1", "2", ..."""
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = {str(i): v for i, v in enumerate(value, start=1)}
        yield (*path, key), value
        if isinstance(value, dict):
            yield from _walk(value, (*path, key))


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _fraction(x) -> str:
    import fractions
    if isinstance(x, fractions.Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not a report value")


def _pretty(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _emit(report: dict, fmt: str, out) -> None:
    """Write a report of plain values (floats, Fractions, tuples, a matrix as
    its row tuples): as JSON, each Fraction its string; as CSV, keys dotted
    and a matrix one row per row; or as indented text, floats .12g and
    matrices right-aligned.  A float that is inf or NaN is a breakdown."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values outgrow the int-to-str digit limit
    try:
        try:
            text = json.dumps(report, allow_nan=False, default=_fraction)
        except ValueError:
            key = next(".".join(path) for path, v in _walk(report) if not _finite(v))
            raise err.NonFiniteResult(f"{key} holds inf or NaN in float64") from None
        if fmt == "json":
            print(text, file=out)
            return
        lines = []
        for path, v in _walk(report):
            leaf = v if isinstance(v, (list, tuple)) else (v,)
            matrix = leaf and isinstance(leaf[0], (list, tuple))
            if fmt == "csv":
                key = ".".join(path)
                if matrix:
                    lines += ([f"{key}.row{i}", *map(str, row)] for i, row in enumerate(v, start=1))
                elif not isinstance(v, dict):
                    lines.append([key, *map(str, leaf)])
                continue
            pad = "  " * (len(path) - 1)
            if isinstance(v, dict) or matrix:
                lines.append(f"{pad}{path[-1]}:")
            if matrix:
                cells = [[_pretty(c) for c in row] for row in v]
                width = max(len(c) for row in cells for c in row)
                lines += (f"{pad}  [ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)
            elif not isinstance(v, dict):
                lines.append(f"{pad}{path[-1]}: " + ", ".join(map(_pretty, leaf)))
        if fmt == "csv":
            import csv
            csv.writer(out, lineterminator="\n").writerows(lines)
        else:
            print("\n".join(lines), file=out)
    finally:
        sys.set_int_max_str_digits(limit)


# --- commands ---


def _reconstruct(spectrum, backend):
    """The weights pass in float64, or the coefficient pass where it breaks
    down (``NotNormalA``: a value outside the normal float64 range in scaled
    units); the exact backend runs the coefficient pass."""
    if not backend.exact:
        try:
            return solve_weights(spectrum, backend)
        except err.NotNormalA:
            pass
    return solve(spectrum, backend)


def _cmd_solve(args, backend, out) -> int:
    if args.roundtrip and backend.exact:
        raise err.BackendUnsupported("--roundtrip eigensolves the result; use --backend float64")
    _, values = _values_from(args, backend, "spectrum")
    spectrum = validate_spectrum(values)
    trace, warnings = _reconstruct(spectrum, backend), []
    result = A = B = None
    if not backend.exact:
        try:
            result = roundtrip(trace)
            warnings = list(result.warnings)
        except err.SquareOutOfRange as exc:  # J's band cannot be eigensolved; a is still reported
            warnings = list(trace.with_notes(f"the round trip could not run: {exc}"))
    forward = forward_q_squared(trace.a1, trace.a_squared, backend)
    if backend.exact:
        max_residual = "0" if forward.same_top(trace.chain) else "1"
    else:
        cv = trace.coefficient_vector
        A = build_antibidiagonal(cv, backend).entries
        B = build_jacobi_special(cv, backend).entries
        max_residual = max(abs(poly_eval(forward.top, lam)) for lam in spectrum.lambdas)
        if not math.isfinite(max_residual):
            max_residual = None
            warnings.append("the unscaled residual overflowed float64; max_residual is null")
    report = {
        "input": spectrum.lambdas,
        "a": trace.a,
        "a_squared": (trace.a1, *trace.a_squared),
        "antibidiagonal": A,
        "jacobi": B,
        "diagnostics": {
            "max_residual": max_residual,
            "roundtrip_error": None if result is None else result.max_error,
            "min_modulus_gap": spectrum.min_modulus_gap(),
        },
        "warnings": warnings,
    }
    _emit(report, args.format, out)
    return EXIT_OK


def _cmd_forward(args, backend, out) -> int:
    _, values = _values_from(args, backend, "a")
    cv = CoefficientVector(values)
    ps = forward_p(cv, backend)
    qs = forward_q(cv, backend)
    match = all(
        backend.approx_equal(x, y) for x, y in zip(ps.top.coeffs, qs.top.coeffs)
    )
    eig = tridiagonal_eigenvalues(*jacobi_tridiagonal(cv, backend), backend) if args.eigs else None
    report = {
        "a": cv.a,
        "p_coeffs": ps.top.coeffs,
        "q_coeffs": qs.top.coeffs,
        "systems_match": match,
        "eigenvalues": eig,
    }
    _emit(report, args.format, out)
    return EXIT_OK


def _cmd_roundtrip(args, backend, out) -> int:
    if backend.exact:
        raise err.BackendUnsupported(
            "roundtrip eigensolves the result; use --backend float64"
        )
    _, values = _values_from(args, backend, "spectrum")
    spectrum = validate_spectrum(values)
    result = roundtrip(_reconstruct(spectrum, backend))
    report = {
        "input": spectrum.lambdas,
        "a": result.trace.a,
        "recovered": result.recovered,
        "max_error": result.max_error,
        "warnings": result.warnings,
    }
    _emit(report, args.format, out)
    return EXIT_OK


def _cmd_sqrt(args, backend, out) -> int:
    if backend.exact:
        raise err.BackendUnsupported(
            "the square-root construction needs --backend float64"
        )
    _, values = _values_from(args, backend, "mus")
    result = jacobi_sqrt(PositiveTuple(values), backend)
    eig = eigensolve_tridiagonal(result.jacobi, backend, near=values)
    spec_err = relative_spectrum_error(eig, values)
    report = {
        "mus": values,
        "spectrum": result.spectrum.lambdas,
        "a": result.a.a,
        "antibidiagonal": result.antibidiagonal.entries,
        "jacobi": result.jacobi.entries,
        "diagnostics": {"spectrum_error": spec_err},
    }
    _emit(report, args.format, out)
    return EXIT_OK


def _cmd_signreg(args, backend, out) -> int:
    key, values = _values_from(args, backend, "a", "spectrum")
    if key == "a":
        cv = CoefficientVector(values)
    else:
        trace = solve(validate_spectrum(values), backend)
        cv = trace.coefficient_vector
    A = build_antibidiagonal(cv, backend)
    n = A.n
    report_obj = classify_sign_regular(A, n, signature_sequence(n), backend)
    max_power = args.max_power if args.max_power is not None else 2 * n
    m = check_class_plus(A, max_power, backend)
    report = {
        "n": n,
        "signature": signature_sequence(n),
        "orders": [
            {
                "order": v.order,
                "conforming": v.conforming,
                "strict": v.strict,
                "principal_conforming": v.principal_conforming,
            }
            for v in report_obj.verdicts
        ],
        "achieved_class": report_obj.achieved_class,
        "all_minors_conforming": report_obj.all_conforming,
        "principal_conforming": report_obj.principal_conforming,
        "class_plus_power": m,
    }
    _emit(report, args.format, out)
    return EXIT_OK


# --- verify-all batteries ---


def _cases(seed, label, sizes, cases):
    """(n, i, rng) for case i at each size n; the rng is seeded by (seed, label + n, i)."""
    for n in sizes:
        for i in range(cases):
            yield n, i, case_rng(seed, f"{label}{n}", i)


def _battery_roundtrip(seed, sizes, cases, backend):
    worst = 0.0
    for n, i, rng in _cases(seed, "roundtrip", sizes, cases):
        spec = validate_spectrum(random_spectrum(rng, n))
        try:
            res = solve_roundtrip(spec, backend)
        except err.NumericalBreakdown as exc:
            return False, f"breakdown at n={n} case {i}: {type(exc).__name__}: {exc}"
        worst = max(worst, res.max_error)
        if n > 1 and len(res.trace.certificates) != n - 1:
            return False, f"incomplete interlacing chain at n={n}"
    return worst <= ROUNDTRIP_TOL, f"worst relative eigenvalue error {worst:.3e}"


def _battery_recurrence(seed, sizes, cases):
    backend = rational()
    for n, i, rng in _cases(seed, "recur", sizes, cases):
        cv = CoefficientVector(random_rational_coefficients(rng, n))
        if forward_p(cv, backend).top.coeffs != forward_q(cv, backend).top.coeffs:
            return False, f"p/q mismatch at n={n} case {i}"
    return True, "p- and q-systems agree exactly"


def _battery_sigma(seed, sizes, cases):
    for n, i, rng in _cases(seed, "sigma", sizes, cases):
        if not check_sigma_inequality(validate_spectrum(random_spectrum(rng, n))).holds:
            return False, f"sigma inequality failed at n={n} case {i}"
    return True, "sigma_3 > sigma_1*sigma_2 on all samples"


def _battery_signreg(seed, sizes, cases, backend):
    for n, i, rng in _cases(seed, "signreg", sizes, cases):
        spec = validate_spectrum(random_spectrum(rng, n))
        trace = solve(spec, backend)
        A = build_antibidiagonal(trace.coefficient_vector, backend)
        if not classify_sign_regular(A, n, signature_sequence(n), backend).all_conforming:
            return False, f"sign-regularity failed at n={n} case {i}"
    return True, "reconstructed matrices conform to the signature sequence"


def _battery_cauchy_binet(seed, cases):
    backend = rational()
    for i in range(cases):
        rng = case_rng(seed, "cb", i)
        n = rng.randint(2, 5)
        cv = CoefficientVector(random_rational_coefficients(rng, n))
        J = build_antidiagonal_unit(n, backend)
        A = build_antibidiagonal(cv, backend)
        B = matmul(J, A, backend)
        k = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
        _, _, equal = cauchy_binet_check(J, B, rows, cols, backend)
        if not equal:
            return False, f"Cauchy-Binet failed at case {i}"
    return True, "Cauchy-Binet identity exact on all samples"


def _battery_sqrt(seed, sizes, cases, backend):
    for n, i, rng in _cases(seed, "sqrt", sizes, cases):
        mus = random_positive_tuple(rng, n)
        res = jacobi_sqrt(PositiveTuple(mus), backend)
        worst = relative_spectrum_error(eigensolve_tridiagonal(res.jacobi, backend, near=mus), mus)
        if worst > ROUNDTRIP_TOL:
            return False, f"square spectrum error {worst:.3e} at n={n}"
    return True, "squares are Jacobi with the prescribed spectrum"


def _cmd_verify_all(args, backend, out) -> int:
    try:
        sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    except ValueError as exc:
        raise err.UsageError(f"--sizes: {exc}") from exc
    if not sizes:
        raise err.UsageError("--sizes: no size given")
    for n in sizes:
        if not 1 <= n <= MAX_DEFAULT_N:
            raise err.UsageError(f"--sizes: {n} is outside 1..{MAX_DEFAULT_N}")
    seed, cases = args.seed, args.cases
    if cases < 1:
        raise err.UsageError(f"--cases: {cases} is below 1")
    fb = backend if not backend.exact else float64(backend.policy)
    results = [
        ("roundtrip", *_battery_roundtrip(seed, sizes, cases, fb)),
        ("recurrence-equivalence", *_battery_recurrence(seed, [n for n in sizes if n <= 12], cases)),
        ("sigma-inequality", *_battery_sigma(seed, [n for n in sizes if n >= 3], cases)),
        ("sign-regularity", *_battery_signreg(seed, (2, 3, 4), max(1, cases // 4), fb)),
        ("cauchy-binet", *_battery_cauchy_binet(seed, cases)),
        ("jacobi-sqrt", *_battery_sqrt(seed, [n for n in sizes if n <= 10], max(1, cases // 2), fb)),
    ]
    report = {
        "seed": seed,
        "sizes": sizes,
        "results": [
            {"battery": name, "passed": ok, "detail": detail}
            for name, ok, detail in results
        ],
        "passed": all(ok for _, ok, _ in results),
    }
    if args.format == "pretty":
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", file=out)
        print(("all batteries passed" if report["passed"] else "FAILURES present"), file=out)
    else:
        _emit(report, args.format, out)
    return EXIT_OK if report["passed"] else EXIT_BREAKDOWN


_COMMANDS = {
    "solve": _cmd_solve,
    "forward": _cmd_forward,
    "roundtrip": _cmd_roundtrip,
    "sqrt": _cmd_sqrt,
    "signreg": _cmd_signreg,
    "verify-all": _cmd_verify_all,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at first use and kept: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        backend = _make_backend(args)
        return _COMMANDS[args.command](args, backend, out)
    except err.AntibidiagError as exc:
        print(f"{exc.label} [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ArithmeticError, ValueError) as exc:
        print(f"{err.NumericalBreakdown.label} [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
