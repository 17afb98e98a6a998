import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import partial

import pytest

from antibidiag import inversesolver
from antibidiag import (
    CoefficientVector,
    PositiveTuple,
    TolerancePolicy,
    build_antibidiagonal,
    build_jacobi_special,
    check_sigma_inequality,
    eigensolve_tridiagonal,
    float64,
    forward_q_squared,
    from_roots,
    interlaces,
    jacobi_sqrt,
    roots_bracketed,
    solve,
    solve_roundtrip,
    validate_spectrum,
)
from antibidiag.errors import (
    AntibidiagError,
    BackendUnsupported,
    EmptyInput,
    NoSignChange,
    NonFiniteA,
    NonFiniteValue,
    NonPositive,
    NonPositiveA,
    NonPositiveLead,
    NotAlternating,
    NotDecreasing,
    NotNormalA,
    NotStrictlyDecreasingModulus,
    TooSmall,
)
from antibidiag.cli import main
from antibidiag.poly import MonicPoly
from antibidiag.sampling import (
    case_rng,
    random_coefficients,
    random_positive_tuple,
    random_rational_spectrum,
    random_spectrum,
)

from oracles import (
    TerminalMismatch,
    backward_pass_reference,
    dense_symmetric_eigs,
    horner_reference,
    interlacing_chain_reference,
    roots_bracketed_reference,
)

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def _record_evaluations(monkeypatch, record):
    """Call record(p) before each evaluation of a polynomial p through
    ``MonicPoly.evaluate``, where ``roots_bracketed`` evaluates its bracket ends
    and the root kernel its probes, on the interlacing chain's levels too."""
    evaluate = MonicPoly.evaluate.func

    def recorded(p):
        f = evaluate(p)

        def g(x):
            record(p)
            return f(x)

        return g

    monkeypatch.setattr(MonicPoly, "evaluate", property(recorded))


class TestValidateSpectrum:
    def test_accepts_worked_example(self):
        assert validate_spectrum((3.0, -2.0, 1.0)).n == 3

    def test_rejections(self):
        with pytest.raises(NotAlternating):
            validate_spectrum((1.0, 2.0))
        with pytest.raises(NotStrictlyDecreasingModulus):
            validate_spectrum((2.0, -2.0))
        with pytest.raises(NonPositiveLead):
            validate_spectrum((-1.0,))
        with pytest.raises(EmptyInput):
            validate_spectrum(())
        with pytest.raises(NotAlternating):
            validate_spectrum((3.0, -2.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            validate_spectrum((math.inf, -1.0))
        with pytest.raises(NonFiniteValue):
            validate_spectrum((3.0, -math.nan))

    @pytest.mark.parametrize("values", [(math.nan,), (-math.inf,), (math.nan, -1.0)])
    def test_a_non_finite_lambda_1_is_not_finite_before_it_is_not_positive(self, values):
        # nan > 0 and -inf > 0 are both false, but neither is a non-positive lead
        with pytest.raises(NonFiniteValue, match=r"^lambda_1 = (nan|-inf) is not finite$"):
            validate_spectrum(values)


class TestSigmaInequality:
    def test_worked_example(self):
        chk = check_sigma_inequality((3, -2, 1))
        assert (chk.sigma1, chk.sigma2, chk.sigma3) == (2, -5, -6)
        assert chk.holds  # -6 > -10

    def test_boundary_equality_exact(self):
        chk = check_sigma_inequality((Fraction(2), Fraction(-2), Fraction(1)))
        assert chk.sigma3 == chk.sigma1 * chk.sigma2 == -4
        assert not chk.holds

    def test_reciprocal_reformulation_n3(self):
        lam = (Fraction(3), Fraction(-2), Fraction(1))
        lhs = sum(1 / v for v in lam) * sum(lam)
        # equivalent to sigma_1*sigma_2/sigma_3 = 10/6 after dividing the
        # sigma inequality by the (negative) sigma_3
        assert lhs == Fraction(5, 3) and lhs > 1

    def test_too_small(self):
        with pytest.raises(TooSmall):
            check_sigma_inequality((1.0, -0.5))

    def test_holds_on_random_valid_spectra(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(3, 12)
            assert check_sigma_inequality(random_spectrum(rng, n)).holds


class TestSolve:
    def test_worked_example_float(self, fb):
        trace = solve(validate_spectrum((3.0, -2.0, 1.0)), fb)
        assert trace.a1 == pytest.approx(2.0, abs=1e-12)
        assert trace.a_squared[0] == pytest.approx(2.0, abs=1e-12)
        assert trace.a_squared[1] == pytest.approx(3.0, abs=1e-12)
        q2 = trace.qs[2]
        assert q2.coeffs[0] == pytest.approx(-3.0, abs=1e-12) and q2.coeffs[1] == 0.0
        assert trace.qs[1].coeffs == (0.0, 1.0)

    def test_worked_example_exact(self, rb):
        trace = solve(validate_spectrum((Fraction(3), Fraction(-2), Fraction(1))), rb)
        assert trace.a1 == 2
        assert trace.a_squared == (Fraction(2), Fraction(3))
        assert trace.a is None and trace.certificates is None
        with pytest.raises(BackendUnsupported):
            trace.coefficient_vector

    def test_unvalidated_spectrum_with_negative_sigma_1_is_a_breakdown(self, fb):
        # (1, -2) breaks the modulus order; unvalidated, a_1 = sigma_1 = -1
        with pytest.raises(NonPositiveA):
            solve(inversesolver.Spectrum((1.0, -2.0)), fb)

    def test_overflowing_square_is_breakdown(self, fb):
        # a_2^2 = lambda_1 * |lambda_2| = 1e399 is beyond float64.
        with pytest.raises(NonFiniteA):
            solve(validate_spectrum((1e200, -1e199)), fb)

    def test_one_by_one(self, fb):
        trace = solve(validate_spectrum((4.5,)), fb)
        assert trace.a == (4.5,) and trace.a_squared == ()

    def test_two_by_two_closed_form(self, fb):
        trace = solve(validate_spectrum((2.0, -1.0)), fb)
        assert trace.a1 == pytest.approx(1.0, abs=1e-14)
        assert trace.a_squared[0] == pytest.approx(2.0, abs=1e-14)

    def test_positivity_and_determinism(self, fb):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(1, 12)
            spec = validate_spectrum(random_spectrum(rng, n))
            t1 = solve(spec, fb)
            t2 = solve(spec, fb)
            assert t1.a1 > 0 and all(v > 0 for v in t1.a_squared)
            assert t1.a == t2.a and t1.a_squared == t2.a_squared

    def test_distinct_spectra_distinct_coefficients(self, fb):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(2, 8)
            s1 = validate_spectrum(random_spectrum(rng, n))
            s2 = validate_spectrum(random_spectrum(rng, n))
            if max(abs(x - y) for x, y in zip(s1.lambdas, s2.lambdas)) < 1e-6:
                continue
            a1 = solve(s1, fb).a
            a2 = solve(s2, fb).a
            assert max(abs(x - y) for x, y in zip(a1, a2)) > 1e-9

    def test_interlacing_chain(self, fb):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(2, 12)
            spec = validate_spectrum(random_spectrum(rng, n))
            trace = solve(spec, fb)
            assert trace.warnings == ()
            assert len(trace.certificates) == n - 1
            for _, inner, outer in trace.certificates:
                assert interlaces(inner, outer)

    def test_sum_of_squares_route_for_squared_entries(self, fb):
        # the extracted a_{j+2}^2 equals the drop in the sum of squared
        # positive roots between consecutive levels
        rng = random.Random(45)
        spec = validate_spectrum(random_spectrum(rng, 8))
        trace = solve(spec, fb)
        roots = {k: r for k, r, _ in trace.certificates}
        roots[8] = tuple(sorted(spec.lambdas))
        n = 8
        for j in range(1, n - 1):
            hi, lo = roots[n - j], roots[n - j - 1]
            drop = sum(x * x for x in hi if x > 0) - sum(x * x for x in lo if x > 0)
            assert trace.a_squared[j] == pytest.approx(drop, rel=1e-6)

    def test_exact_coefficient_roundtrip(self, rb):
        rng = random.Random(46)
        for _ in range(10):
            n = rng.randint(1, 16)
            lam = random_rational_spectrum(rng, n)
            spec = validate_spectrum(lam)
            trace = solve(spec, rb)
            rebuilt = forward_q_squared(trace.a1, trace.a_squared, rb).top
            assert rebuilt.coeffs == from_roots(lam, rb).coeffs

    def test_parity_exact(self, rb):
        rng = random.Random(47)
        lam = random_rational_spectrum(rng, 9)
        trace = solve(validate_spectrum(lam), rb)
        for k in range(9):
            assert trace.qs[k].parity == ("even" if k % 2 == 0 else "odd")


class TestRoundtrip:
    def test_worked_example(self, fb):
        res = solve_roundtrip(validate_spectrum((3.0, -2.0, 1.0)), fb)
        assert res.max_error <= 1e-10

    def test_single(self, fb):
        res = solve_roundtrip(validate_spectrum((2.0,)), fb)
        assert res.max_error <= 1e-13

    def test_random_n8(self, fb):
        rng = random.Random(48)
        for _ in range(10):
            spec = validate_spectrum(random_spectrum(rng, 8))
            assert solve_roundtrip(spec, fb).max_error <= 1e-8

    def test_rational_unsupported(self, rb):
        with pytest.raises(BackendUnsupported):
            solve_roundtrip(validate_spectrum((Fraction(2), Fraction(-1))), rb)


class TestEquivalenceOfStructures:
    def test_same_spectrum_both_families(self, fb):
        # dense Jacobi-rotation oracle for the anti-bidiagonal side, Sturm
        # bisection for the tridiagonal side
        rng = random.Random(49)
        for n in range(1, 11):
            a = CoefficientVector(random_coefficients(rng, n))
            A = build_antibidiagonal(a, fb)
            B = build_jacobi_special(a, fb)
            ea = dense_symmetric_eigs(A.entries)
            eb = eigensolve_tridiagonal(B, fb)
            for x, y in zip(ea, eb):
                assert abs(x - y) <= 1e-8 * max(1.0, abs(y))


class TestJacobiSqrt:
    def test_worked_example(self, fb):
        res = jacobi_sqrt(PositiveTuple((9.0, 4.0, 1.0)), fb)
        assert res.spectrum.lambdas == pytest.approx((3.0, -2.0, 1.0), abs=1e-12)
        want = (
            (3.0, math.sqrt(6.0), 0.0),
            (math.sqrt(6.0), 6.0, 2 * SQ2),
            (0.0, 2 * SQ2, 5.0),
        )
        for got_r, want_r in zip(res.jacobi.entries, want):
            for g, w in zip(got_r, want_r):
                assert g == pytest.approx(w, abs=1e-12)
        assert sum(res.jacobi.entries[i][i] for i in range(3)) == pytest.approx(14.0)

    def test_scalar(self, fb):
        res = jacobi_sqrt(PositiveTuple((4.0,)), fb)
        assert res.antibidiagonal.entries == ((2.0,),)
        assert res.jacobi.entries == ((4.0,),)

    def test_two_by_two(self, fb):
        res = jacobi_sqrt(PositiveTuple((4.0, 1.0)), fb)
        assert res.a.a[0] == pytest.approx(1.0, abs=1e-12)
        assert res.a.a[1] == pytest.approx(SQ2, abs=1e-12)
        B = res.jacobi.entries
        assert B[0][0] * B[1][1] - B[0][1] * B[1][0] == pytest.approx(4.0, abs=1e-10)
        assert B[0][0] + B[1][1] == pytest.approx(5.0, abs=1e-12)

    def test_input_validation(self, fb, rb):
        with pytest.raises(NotDecreasing):
            PositiveTuple((1.0, 2.0))
        with pytest.raises(NonPositive):
            PositiveTuple((2.0, 0.0))
        with pytest.raises(EmptyInput):
            PositiveTuple(())
        with pytest.raises(BackendUnsupported):
            jacobi_sqrt(PositiveTuple((4.0, 1.0)), rb)

    def test_random_property(self, fb):
        rng = random.Random(50)
        for _ in range(10):
            n = rng.randint(1, 10)
            mus = random_positive_tuple(rng, n)
            res = jacobi_sqrt(PositiveTuple(mus), fb)
            B = res.jacobi
            scale = B.maxnorm()
            for i in range(n):
                for j in range(n):
                    if abs(i - j) > 1:
                        assert abs(B.entries[i][j]) <= 1e-10 * scale
            eig = eigensolve_tridiagonal(B, fb)
            for e, m in zip(eig, sorted(mus)):
                assert abs(e - m) <= 1e-8 * m


class TestParityHalvedCertificates:
    @staticmethod
    def _traces(fb, sizes, per_size=3):
        rng = random.Random(3303)
        for n in sizes:
            for _ in range(per_size):
                yield n, solve(validate_spectrum(random_spectrum(rng, n)), fb)

    def test_roots_are_exactly_symmetric_and_odd_levels_hold_zero(self, fb):
        for n, trace in self._traces(fb, (2, 3, 4, 7, 12, 24, 48)):
            assert [k for k, _, _ in trace.certificates] == list(range(n - 1, 0, -1))
            for k, inner, outer in trace.certificates:
                assert len(inner) == k
                assert inner == tuple(-r for r in reversed(inner))
                if k % 2:
                    assert inner[k // 2] == 0.0
                assert interlaces(inner, outer)

    def test_roots_agree_with_full_bracket_bisection(self, fb):
        for n, trace in self._traces(fb, range(2, 13)):
            for k, inner, outer in trace.certificates:
                brackets = [(outer[i], outer[i + 1]) for i in range(k)]
                full = roots_bracketed(trace.qs[k], brackets, fb)
                assert max(abs(x - y) for x, y in zip(inner, full)) <= 1e-9


class TestSingleStepPass:
    """The backward pass takes the plain three-term step at every level; it
    reproduces the first pass (the sigma top step, the parity slack and the
    boundary checks) bit for bit."""

    @staticmethod
    def _allowed(qs):
        # the coefficients of q_k, k < n, that its parity allows; all of q_n
        n = len(qs) - 1
        return tuple(c[k % 2 :: 2] if k < n else c for k, c in enumerate(qs))

    @classmethod
    def _solve(cls, lam, backend):
        try:
            t = solve(validate_spectrum(lam), backend)
        except (AntibidiagError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return repr((t.a1, t.a_squared, t.a, cls._allowed([q.coeffs for q in t.qs])))

    @classmethod
    def _reference(cls, lam, backend):
        try:
            a1, a_sq, a, qs = backward_pass_reference(lam, backend)
        except (AntibidiagError, ArithmeticError, TerminalMismatch) as exc:
            # the first pass called a NaN square, from an overflowed coefficient,
            # not positive; solve names it NonFiniteA
            nan = re.fullmatch(r"NonPositiveA: (a_\d+\^2 = nan) is not positive", f"{type(exc).__name__}: {exc}")
            return f"NonFiniteA: {nan[1]}: a coefficient overflowed float64" if nan else f"{type(exc).__name__}: {exc}"
        return repr((a1, a_sq, a, cls._allowed(qs)))

    def test_matches_reference_on_float_spectra(self, fb):
        rng = random.Random(5101)
        outcomes = set()
        # moduli within 2e-13 * lambda_1 of each other: float64 cannot separate the roots
        clustered = (1.0000000000002, -1.0000000000001, 1.0)
        for n in range(1, 65):
            for e in (-150, -20, 0, 20, 150, 200, rng.uniform(-150, 150)):
                for base in (random_spectrum(rng, n), clustered):
                    lam = tuple(v * 10.0**e for v in base)
                    got = self._solve(lam, fb)
                    assert got == self._reference(lam, fb), (n, e)
                    outcomes.add(got.split(":")[0] if got[0] != "(" else "solved")
        assert outcomes == {"solved", "NonPositiveA", "NonFiniteA", "DuplicateRoots"}

    def test_matches_reference_on_rational_spectra(self, rb):
        rng = random.Random(5102)
        for n in range(1, 33):
            lam = random_rational_spectrum(rng, n, max_num=rng.choice((64, 400, 4000)))
            got = self._solve(lam, rb)
            assert got[0] == "(" and got == self._reference(lam, rb), n

    def test_spectrum_the_slack_check_refused_solves_with_warnings(self, fb):
        # Clustered moduli: the first pass's top step left a parity slack of
        # 128 here and refused the spectrum as a breakdown.
        lam = (145.84329349754773, -145.84329330657724, 145.84329330539157)
        with pytest.raises(TerminalMismatch, match="parity slack"):
            backward_pass_reference(lam, fb)
        trace = solve(validate_spectrum(lam), fb)
        assert trace.a1 > 0 and all(v > 0 for v in trace.a_squared)
        assert trace.warnings == (
            "level 2: interlacing violated",
            "minimum modulus gap 1.186e-09 is below 1e-06 * lambda_1; "
            "reconstruction is ill-conditioned, consider --backend rational",
        )


class TestChecksOnRead:
    """The float64 interlacing chain and warnings are worked out once, when read."""

    @staticmethod
    def _count_bisections(monkeypatch):
        # the degree of each polynomial the chain evaluates, the first time:
        # the bracket ends and the root kernel's probes all run through
        # MonicPoly.evaluate; q_1 = x has no upper root to find, its root 0.0
        # is placed by parity, so level 1 evaluates nothing
        calls = []
        _record_evaluations(monkeypatch, lambda p: p.degree in calls or calls.append(p.degree))
        return calls

    def test_solve_bisects_nothing_until_the_checks_are_read(self, fb, monkeypatch):
        calls = self._count_bisections(monkeypatch)
        trace = solve(validate_spectrum(random_spectrum(random.Random(46), 6)), fb)
        assert trace.a is not None and calls == []
        assert trace.warnings == () and calls == [5, 4, 3, 2]
        assert len(trace.certificates) == 5 and trace.warnings == ()
        assert calls == [5, 4, 3, 2]

    @pytest.mark.parametrize(
        "args",
        [
            ["signreg", "--spectrum", "3,-2,1"],
            ["sqrt", "--mus", "9,4,1"],
            ["solve", "--backend", "rational", "--spectrum", "3,-2,1"],
        ],
    )
    def test_commands_that_never_read_the_chain_bisect_nothing(self, monkeypatch, args):
        calls = self._count_bisections(monkeypatch)
        assert main(args, out=io.StringIO()) == 0
        assert calls == []

    def test_round_trip_reports_run_no_chain_until_it_is_read(self, fb, monkeypatch):
        # they warn on the error they measure, so they evaluate no level below q_n
        lam = validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", 4), 48))
        degrees = []
        _record_evaluations(monkeypatch, degrees.append)
        for command in (["solve", "--roundtrip"], ["roundtrip"]):
            argv = [*command, "--spectrum=" + ",".join(map(repr, lam.lambdas))]
            assert main(argv, out=io.StringIO()) == 0
        res = solve_roundtrip(lam, fb)
        assert res.warnings == ("round-trip error 6.245e-08 exceeds 1e-08",)
        assert not any(p.degree < 48 for p in degrees)
        assert len(res.trace.certificates) == 47 and res.trace.warnings == ()
        assert {p.degree for p in degrees} >= set(range(2, 48))

    def test_a_level_without_a_sign_change_cuts_the_chain(self, fb, monkeypatch):
        # x^2 + 1 has no real root, so level 2 finds no sign change
        qs = inversesolver.ReconstructionTrace.qs.fget

        def no_root_at_level_2(trace):
            return tuple(MonicPoly((1.0, 0.0, 1.0)) if q.degree == 2 else q for q in qs(trace))

        monkeypatch.setattr(inversesolver.ReconstructionTrace, "qs", property(no_root_at_level_2))
        trace = solve(validate_spectrum((4.0, -3.0, 2.000001, -2.0)), fb)
        [(k, inner, _)] = trace.certificates
        assert k == 3
        assert trace.warnings == (
            f"level 2: no sign change on [{inner[1]}, {inner[2]}]",
            "minimum modulus gap 1.000e-06 is below 1e-06 * lambda_1; "
            "reconstruction is ill-conditioned, consider --backend rational",
        )

    def test_a_root_of_q_k_at_a_root_of_q_k_plus_1_breaks_strict_interlacing(self, fb, monkeypatch):
        # x^2 is 0.0 at the root 0.0 of q_3, where the chain cannot interlace strictly
        qs = inversesolver.ReconstructionTrace.qs.fget

        def double_root_at_0(trace):
            return tuple(MonicPoly((0.0, 0.0, 1.0)) if q.degree == 2 else q for q in qs(trace))

        monkeypatch.setattr(inversesolver.ReconstructionTrace, "qs", property(double_root_at_0))
        trace = solve(validate_spectrum((4.0, -3.0, 2.0, -1.0)), fb)
        assert trace.warnings == ("level 2: interlacing violated",)
        assert [k for k, _, _ in trace.certificates] == [3]
        assert interlacing_chain_reference(trace, roots_bracketed)[1] == trace.warnings


class TestChainAgainstBisection:
    """The chain against the chain that takes every root to the chain width
    by plain bisection (``interlacing_chain_reference``)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_verdicts_on_the_f64_roundtrip_workload_spectra(self, fb, seed):
        # the f64-roundtrip workload's spectra: n cycles 8, 16, 24, 32, 48
        for i in range(15):
            n = (8, 16, 24, 32, 48)[i % 5]
            trace = solve(validate_spectrum(random_spectrum(case_rng(seed, "f64-roundtrip", i), n)), fb)
            warns, certs = trace.warnings, trace.certificates
            want_certs, want_warns = interlacing_chain_reference(trace, roots_bracketed_reference)
            assert warns == want_warns, (seed, i)
            assert [k for k, _, _ in certs] == [k for k, _, _ in want_certs]
            if n <= 24:
                for (_, inner, _), (_, want, _) in zip(certs, want_certs):
                    assert max(abs(x - y) for x, y in zip(inner, want)) <= 1e-9, (seed, i)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_roots_bracketed_is_the_reference_bisection_on_every_level(self, fb, seed):
        # the library's roots_bracketed bisects as the reference does, so every
        # level of the reference chain gets the same roots, bit for bit
        levels = []

        def both(p, brackets, backend):
            try:
                want = roots_bracketed_reference(p, brackets, backend)
            except NoSignChange:
                with pytest.raises(NoSignChange):
                    roots_bracketed(p, brackets, backend)
                raise
            assert roots_bracketed(p, brackets, backend) == want, (seed, p.degree)
            levels.append(want)
            return want

        for i in range(50):
            n = (8, 16, 24, 32, 48)[i % 5]
            trace = solve(validate_spectrum(random_spectrum(case_rng(seed, "f64-roundtrip", i), n)), fb)
            interlacing_chain_reference(trace, both)
        assert len(levels) == 10 * sum(n - 1 for n in (8, 16, 24, 32, 48))


class TestChainIsOnePlainPass:
    """The chain takes each level's upper roots to the chain width with
    ``roots_bracketed`` and checks them with ``interlaces``, in one pass that
    serves both ``certificates`` and ``warnings``: it is
    ``interlacing_chain_reference`` with the library's ``roots_bracketed``,
    bit for bit."""

    @staticmethod
    def _reference(trace):
        return interlacing_chain_reference(trace, roots_bracketed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_chain_on_the_f64_roundtrip_workload_spectra(self, fb, seed):
        for i in range(100):
            n = (8, 16, 24, 32, 48)[i % 5]
            trace = solve(validate_spectrum(random_spectrum(case_rng(seed, "f64-roundtrip", i), n)), fb)
            assert (trace.certificates, trace.warnings) == self._reference(trace), (seed, i)

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_same_chain_on_the_scaled_corpus(self, fb, n):
        # random_spectrum(case_rng(5, f"scaled{n}", i), n) * 10**e, e = -16..5
        solved = 0
        for i in range(10):
            base = random_spectrum(case_rng(5, f"scaled{n}", i), n)
            for e in range(-16, 6):
                try:
                    trace = solve(validate_spectrum(tuple(v * 10.0**e for v in base)), fb)
                except AntibidiagError:
                    continue
                solved += 1
                assert (trace.certificates, trace.warnings) == self._reference(trace), (n, i, e)
        assert solved >= 150

    def test_certificates_read_after_warnings_evaluate_no_polynomial(self, fb, monkeypatch):
        calls = []
        _record_evaluations(monkeypatch, calls.append)
        for i, n in enumerate((8, 16, 24, 32, 48)):
            trace = solve(validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), n)), fb)
            calls.clear()
            assert trace.warnings == () and calls
            calls.clear()
            assert len(trace.certificates) == n - 1 and calls == []

    def test_warnings_read_after_certificates_evaluate_no_polynomial(self, fb, monkeypatch):
        calls = []
        _record_evaluations(monkeypatch, calls.append)
        for i, n in enumerate((8, 16, 24, 32, 48)):
            trace = solve(validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), n)), fb)
            calls.clear()
            assert len(trace.certificates) == n - 1 and calls
            calls.clear()
            assert trace.warnings == () and calls == []

    @pytest.mark.parametrize("n", [5, 8, 24, 48])
    def test_each_level_mirrors_its_upper_roots_about_zero(self, fb, n):
        # level k holds k roots, symmetric about 0 with 0.0 in the middle for
        # odd k, and is the outer set of level k - 1; level n - 1 is checked
        # against the sorted spectrum
        for i in range(10):
            lam = validate_spectrum(random_spectrum(case_rng(n, "mirror", i), n))
            certs = solve(lam, fb).certificates
            assert [k for k, _, _ in certs] == list(range(n - 1, 0, -1)), i
            outer = tuple(sorted(map(float, lam.lambdas)))
            for k, inner, got_outer in certs:
                assert got_outer == outer and len(inner) == k
                assert inner == tuple(-x for x in reversed(inner)) and list(inner) == sorted(inner)
                assert k % 2 == 0 or inner[k // 2] == 0.0
                outer = inner

    def test_each_level_costs_its_bracket_ends_and_one_evaluation_per_halving(self, fb, monkeypatch):
        # the pass finds q_k's upper roots once, each in its own gap of
        # q_{k+1}'s upper roots: one evaluation per distinct gap end, then one
        # probe a halving, ceil(log2(gap / width)) of them and one more where
        # the rounded midpoints leave the bracket a few ulps above the width;
        # nothing is narrowed again
        degrees = []
        _record_evaluations(monkeypatch, lambda p: degrees.append(p.degree))
        for i, n in enumerate((8, 16, 24, 32, 48)):
            trace = solve(validate_spectrum(random_spectrum(case_rng(1, "f64-roundtrip", i), n)), fb)
            lam1 = float(trace.spectrum.lambdas[0])
            width = max(fb.policy.root_tol * min(1.0, lam1), math.ulp(0.0))
            degrees.clear()
            certs = trace.certificates
            assert len(certs) == n - 1 and 1 not in degrees
            for k, _, outer in certs:
                gaps = list(zip(outer[k - k // 2 : k], outer[k - k // 2 + 1 :]))
                ends = {x for gap in gaps for x in gap}
                probes = sum(max(0, math.ceil(math.log2(hi - lo) - math.log2(width))) + 1 for lo, hi in gaps)
                assert len(ends) <= degrees.count(k) <= len(ends) + probes, (n, k)


class TestChainEvaluator:
    """The chain runs on each polynomial's Horner closure; patching in the
    module-level evaluator it replaced gives the same chain bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_certificates_on_the_f64_roundtrip_workload_spectra(self, fb, monkeypatch, seed):
        calls = []

        def counted(p, x):
            calls.append(x)
            return horner_reference(p, x)

        reference = property(lambda p: partial(counted, p))
        for i in range(15):
            n = (8, 16, 24, 32, 48)[i % 5]
            lam = validate_spectrum(random_spectrum(case_rng(seed, "f64-roundtrip", i), n))
            trace = solve(lam, fb)
            got = trace.certificates, trace.warnings
            with monkeypatch.context() as m:
                m.setattr(MonicPoly, "evaluate", reference)
                trace = solve(lam, fb)
                assert (trace.certificates, trace.warnings) == got, (seed, i)
        assert calls


class TestScaledChainWidth:
    """The chain takes its roots to root_tol * min(1, lambda_1), and a q_n
    coefficient below the normal float64 range draws a warning."""

    @staticmethod
    def _scaled(n, i, e):
        return tuple(v * 10.0**e for v in random_spectrum(case_rng(5, f"scaled{n}", i), n))

    def test_an_accurate_tiny_spectrum_draws_no_false_alarm(self, fb):
        lam = self._scaled(8, 0, -16)
        res = solve_roundtrip(validate_spectrum(lam), fb)
        assert res.max_error <= 1e-8
        assert res.trace.warnings == () and len(res.trace.certificates) == 7
        # at the absolute width root_tol the chain called it violated
        absolute = lambda p, brackets, backend: roots_bracketed_reference(p, brackets, fb)
        _, warnings = interlacing_chain_reference(solve(validate_spectrum(lam), fb), absolute)
        assert warnings == ("level 7: interlacing violated",)

    def test_an_inaccurate_result_whose_product_underflowed_still_warns(self, fb):
        res = solve_roundtrip(validate_spectrum(self._scaled(24, 0, -14)), fb)
        assert res.max_error > 1e-8
        c = res.trace.qs[24].coeffs[0]
        assert 0 < abs(c) < sys.float_info.min
        assert res.trace.warnings[0] == (
            f"q_24 coefficient 0 = {c:.3e} is below the normal float64 range; "
            "the reconstruction may have lost precision"
        )

    @pytest.mark.parametrize(
        "lam, warns",
        [
            ((1e-320,), False),  # n = 1: a = (lambda_1,) is read off exactly
            ((1e-150, -1e-155), False),  # product 1e-305 is normal
            ((1e-150, -1e-160), True),  # product 1e-310 is subnormal
            ((1e-155, -5e-156), True),
        ],
    )
    def test_which_tiny_spectra_draw_the_underflow_warning(self, fb, lam, warns):
        # a heuristic on q_n's coefficients, not an accuracy measurement: at
        # n = 2 a^2 is the product itself, so its relative error is at most
        # one subnormal ulp over it
        trace = solve(validate_spectrum(lam), fb)
        assert any(w.startswith(f"q_{len(lam)} ") for w in trace.warnings) is warns

    def test_a_width_that_underflows_stops_at_adjacent_floats(self):
        # 1e-300 * 1e-30 is 0.0 in float64, which no TolerancePolicy accepts
        tiny = float64(TolerancePolicy(root_tol=1e-300))
        trace = solve(validate_spectrum((1e-30, -5e-31)), tiny)
        assert trace.warnings == ()
        assert trace.certificates == ((1, (0.0,), (-5e-31, 1e-30)),)

    def test_unit_scale_spectra_draw_no_underflow_warning(self, fb):
        for n in (8, 16, 24, 32, 40, 48):
            for i in range(4):
                lam = random_spectrum(case_rng(1, f"ladder{n}", i), n)
                assert not any(w.startswith("q_") for w in solve(validate_spectrum(lam), fb).warnings)


@pytest.mark.parametrize("n", [48, 64, 72])
def test_integer_pass_matches_reference_on_wide_rational_spectra(rb, n):
    # The exact ladder's numerators: the numbers run to thousands of digits,
    # past the int-to-str limit that repr would otherwise hit.
    lam = random_rational_spectrum(case_rng(1, f"exact-ladder{n}", 0), n, max_num=4000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got = TestSingleStepPass._solve(lam, rb)
        assert got[0] == "(" and got == TestSingleStepPass._reference(lam, rb)
    finally:
        sys.set_int_max_str_digits(limit)


class TestSolveWeights:
    """The float64 weights pass against the rational backend on the same
    floats: the forward error of a_1 and of the squares a_k^2."""

    EPS = sys.float_info.epsilon
    # moduli clustered within 2 %: kappa, the condition of the map lambda -> a, is 1.9e4
    CLUSTERED_N9 = (
        1.2072398806977585e-24, -1.199225999748773e-24, 1.1931644164887257e-24,
        -1.1903492465520538e-24, 1.188205735016449e-24, -1.1849582329345341e-24,
        1.1848839742476698e-24, -1.1841980306467614e-24, 1.1815996220244675e-24,
    )
    NEAR_TRIPLE = (1.0000000000002, -1.0000000000001, 1.0)
    GRADED = [(1e-2, 10), (1e-2, 20), (1e-4, 10), (1e-4, 20), (1e-8, 10), (1e-8, 20), (0.5, 60)]

    @staticmethod
    def _forward_error(lam, trace, rb):
        exact = solve(validate_spectrum(tuple(map(Fraction, lam))), rb)
        pairs = zip((trace.a1, *trace.a_squared), (exact.a1, *exact.a_squared))
        return max(abs(Fraction(got) - want) / want for got, want in pairs)

    def _check(self, lam, fb, rb, bound, kappa=1):
        trace = inversesolver.solve_weights(validate_spectrum(lam), fb)
        assert self._forward_error(lam, trace, rb) <= bound
        # the rounding checks: alpha_k = 0 for k >= 2 and sum w = 1 in exact arithmetic
        assert trace.structural_residual <= 4 * kappa * len(lam) * self.EPS
        assert trace.weight_defect <= 4 * len(lam) * self.EPS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_spectra(self, fb, rb, seed):
        for n in range(8, 49, 8):
            self._check(random_spectrum(case_rng(seed, f"weights{n}", 0), n), fb, rb, 1e-13)

    @pytest.mark.parametrize("r, n", GRADED)
    def test_graded_spectra(self, fb, rb, r, n):
        # the coefficient pass breaks down on all but the n = 10 ones at r = 1e-2 and 1e-4
        self._check(tuple((-r) ** k for k in range(n)), fb, rb, 1e-13)

    @pytest.mark.parametrize("lam", [CLUSTERED_N9, NEAR_TRIPLE], ids=["clustered9", "near-triple"])
    def test_clustered_spectra_within_kappa_times_eps(self, fb, rb, lam):
        # kappa * 1e-15 and at most 2e-11, with the condition estimate
        # kappa = 2 + max_i sum_{j != i} 2|l_i l_j| / |l_i^2 - l_j^2|: 1.9e4 and 2e13
        kappa = 2 + max(
            sum(2 * abs(x * y) / abs(x * x - y * y) for j, y in enumerate(lam) if j != i)
            for i, x in enumerate(lam)
        )
        self._check(lam, fb, rb, min(kappa * 1e-15, 2e-11), kappa)

    @staticmethod
    def _reference(lam):
        """(a_1, a_2^2, ..., a_n^2): each weight as one product in the order
        j = 1..n, then the RKPW core as Gautschi prints it."""
        e = math.frexp(lam[0])[1]
        x = [math.ldexp(v, -e) for v in lam]
        w = [
            math.prod(((xi + xj) / (xi - xj) for j, xj in enumerate(x) if j != i), start=xi / math.fsum(x))
            for i, xi in enumerate(x)
        ]
        n = len(x)
        p0, p1 = [x[0]] + [0.0] * (n - 1), [w[0]] + [0.0] * (n - 1)
        for m in range(1, n):
            pn, gam, sig, t, xlam = w[m], 1.0, 0.0, 0.0, x[m]
            for k in range(m + 1):
                rho = p1[k] + pn
                tmp, tsig = gam * rho, sig
                gam, sig = (1.0, 0.0) if rho <= 0 else (p1[k] / rho, pn / rho)
                tk = sig * (p0[k] - xlam) - gam * t
                p0[k] -= tk - t
                t = tk
                pn = tsig * p1[k] if sig <= 0 else t * t / sig
                p1[k] = tmp
        return (math.ldexp(p0[0], e), *(math.ldexp(b, 2 * e) for b in p1[1:]))

    def test_the_pass_is_the_reference_bit_for_bit(self, fb):
        spectra = [random_spectrum(case_rng(1, f"weights{n}", 0), n) for n in (1, 2, 3, 8, 48, 128)]
        spectra += [tuple((-r) ** k for k in range(n)) for r, n in self.GRADED]
        for lam in (*spectra, self.CLUSTERED_N9, self.NEAR_TRIPLE):
            trace = inversesolver.solve_weights(validate_spectrum(lam), fb)
            assert (trace.a1, *trace.a_squared) == self._reference(lam)

    @pytest.mark.parametrize("k", [1, -1, 64, -64, 500, -500])
    def test_a_power_of_two_scales_a_exactly(self, fb, k):
        spectra = [random_spectrum(case_rng(1, f"pow2-{n}", 0), n) for n in (1, 2, 8, 24, 48)]
        spectra += [tuple((-r) ** j for j in range(n)) for r, n in self.GRADED]
        tested = 0
        for lam in spectra:
            scaled = tuple(math.ldexp(v, k) for v in lam)
            base = inversesolver.solve_weights(validate_spectrum(lam), fb)
            want = (math.ldexp(base.a1, k), *(math.ldexp(v, 2 * k) for v in base.a_squared))
            if not all(sys.float_info.min <= abs(v) <= sys.float_info.max for v in (*scaled, *want)):
                continue
            got = inversesolver.solve_weights(validate_spectrum(scaled), fb)
            assert (got.a1, *got.a_squared) == want
            tested += 1
        assert tested >= 5  # the random spectra at least

    def test_the_trace_has_no_chain_and_only_the_gap_note(self, fb):
        trace = inversesolver.solve_weights(validate_spectrum((1.0, -1e-4, 1e-8, -1e-12)), fb)
        assert trace.chain is None and trace.certificates is None
        assert len(trace.warnings) == 1 and trace.warnings[0].startswith("minimum modulus gap ")
        assert trace.coefficient_vector.a == trace.a
        assert trace.coefficient_vector is trace.coefficient_vector  # built and validated once
        assert inversesolver.solve_weights(validate_spectrum((3.0, -2.0, 1.0)), fb).warnings == ()
        assert inversesolver.solve_weights(validate_spectrum((2.5,)), fb).a == (2.5,)

    def test_the_rational_backend_is_refused(self, rb):
        with pytest.raises(BackendUnsupported):
            inversesolver.solve_weights(validate_spectrum((3, -2, 1)), rb)

    @pytest.mark.parametrize(
        "lam",
        [(1e200, -1.0, 0.5), (1e308, -1e307, 1.0), (1e-150, -1e-160), (1e300, -1e-20)],
    )
    def test_a_square_outside_the_normal_range_is_a_named_breakdown(self, fb, lam):
        with pytest.raises(NotNormalA):
            inversesolver.solve_weights(validate_spectrum(lam), fb)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_the_command_line_round_trip_is_clean_through_n_256(self, n):
        lam = random_spectrum(case_rng(1, "weights-gate", n), n)
        out = io.StringIO()
        assert main(["roundtrip", "--spectrum=" + ",".join(map(repr, lam))], out=out) == 0
        report = json.loads(out.getvalue())
        assert report["max_error"] <= 1e-14 and report["warnings"] == []
