import math
import random
from fractions import Fraction

import pytest

from antibidiag import (
    CharPolySequence,
    CoefficientVector,
    build_antibidiagonal,
    build_jacobi_special,
    forward_p,
    forward_q,
    forward_q_squared,
    from_roots,
    solve,
    validate_spectrum,
)
from antibidiag.errors import AntibidiagError, NonPositiveEntry, SquareOutOfRange
from antibidiag.recurrence import _minus, _next
from antibidiag.sampling import (
    case_rng,
    random_coefficients,
    random_rational_coefficients,
    random_rational_spectrum,
    random_spectrum,
)

from oracles import (
    charpoly_cofactor,
    float_step_reference,
    forward_p_float_reference,
    forward_q_float_reference,
)

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def test_forward_p_boundary(fb):
    seq = forward_p(CoefficientVector((1.5,)), fb)
    assert seq.polys[0].coeffs == (1.0,)
    assert seq.polys[1].coeffs == (-1.5, 1.0)


def test_forward_p_worked(fb):
    seq = forward_p(CoefficientVector((2.0, SQ2, SQ3)), fb)
    got = seq.top.coeffs
    want = (6.0, -5.0, -2.0, 1.0)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-12)


def test_p_levels_have_no_parity_but_p_0(fb, rb):
    # p_k, k >= 1, carries -a_1 at x**(k-1) beside its leading 1
    for i in range(20):
        n = 1 + i % 12
        for backend, a in (
            (fb, random_coefficients(case_rng(1, "p-parity", i), n)),
            (rb, random_rational_coefficients(case_rng(1, "p-parity", i), n)),
        ):
            ps = forward_p(CoefficientVector(a), backend).polys
            assert [p.parity for p in ps] == ["even"] + [None] * n


def _fraction_p_system(a):
    """The p-system as Fraction coefficient tuples, level by level."""
    one, a1 = Fraction(1), Fraction(a[0])
    ps = [(one,), (-a1, one)]
    for v in a[1:]:
        up, down = (Fraction(0),) + ps[-1], ps[-2] + (Fraction(0),) * 2
        ps.append(tuple(x - Fraction(v) ** 2 * y for x, y in zip(up, down)))
    return ps


def test_exact_p_levels_are_integers_of_the_fraction_recurrence(rb):
    for i in range(50):
        a = random_rational_coefficients(case_rng(2, "p-integers", i), 1 + i % 16)
        seq = forward_p(CoefficientVector(a), rb)
        assert seq.scale == 1 and all(type(c) is int for level in seq.chain for c in level)
        assert [p.coeffs for p in seq.polys] == _fraction_p_system(a)


def test_forward_q_worked(fb):
    seq = forward_q(CoefficientVector((2.0, SQ2, SQ3)), fb)
    assert seq.polys[0].coeffs == (1.0,)
    assert seq.polys[1].coeffs == (0.0, 1.0)
    q2 = seq.polys[2].coeffs
    assert q2[1] == 0.0 and q2[0] == pytest.approx(-3.0, abs=1e-12)
    for g, w in zip(seq.top.coeffs, (6.0, -5.0, -2.0, 1.0)):
        assert g == pytest.approx(w, abs=1e-12)


def test_forward_q_degenerate_n1(fb):
    seq = forward_q(CoefficientVector((1.5,)), fb)
    assert seq.top.coeffs == (-1.5, 1.0)


def test_forward_rejects_nonpositive(fb):
    with pytest.raises(NonPositiveEntry):
        forward_q_squared(-1.0, (2.0,), fb)
    with pytest.raises(NonPositiveEntry):
        forward_q_squared(1.0, (0.0,), fb)


@pytest.mark.parametrize("a1, tail_sq", [(1.0, (math.inf,)), (math.inf, (2.0,)), (math.inf, ())])
def test_forward_refuses_infinite_inputs(fb, a1, tail_sq):
    # the pass would otherwise divide by a NaN leading coefficient and return NaN
    with pytest.raises(SquareOutOfRange):
        forward_q_squared(a1, tail_sq, fb)


def test_p_and_q_systems_agree_exactly(rb):
    rng = random.Random(21)
    for n in range(1, 13):
        a = CoefficientVector(random_rational_coefficients(rng, n))
        assert forward_p(a, rb).top.coeffs == forward_q(a, rb).top.coeffs


def test_p_matches_cofactor_determinant(rb):
    rng = random.Random(22)
    for n in range(1, 7):
        a = CoefficientVector(random_rational_coefficients(rng, n))
        A = build_antibidiagonal(a, rb)
        want = charpoly_cofactor(A.entries)
        assert list(forward_p(a, rb).top.coeffs) == want


def test_q_matches_trailing_submatrix_charpolys(rb):
    rng = random.Random(23)
    for n in range(1, 7):
        a = CoefficientVector(random_rational_coefficients(rng, n))
        B = build_jacobi_special(a, rb)
        qs = forward_q(a, rb).polys
        for k in range(1, n + 1):
            j = n - k + 1  # trailing block rows/cols j..n
            sub = [row[j - 1 :] for row in B.entries[j - 1 :]]
            assert list(qs[k].coeffs) == charpoly_cofactor(sub)


def test_q_parity_is_exact(rb):
    rng = random.Random(24)
    for n in range(2, 10):
        a = CoefficientVector(random_rational_coefficients(rng, n))
        qs = forward_q(a, rb).polys
        for k in range(n):
            forbidden = 1 if k % 2 == 0 else 0
            assert qs[k].parity == ("even" if k % 2 == 0 else "odd")
            for i, c in enumerate(qs[k].coeffs):
                if i % 2 == forbidden:
                    assert c == 0


@pytest.mark.parametrize("a", [(1e300, 1e-300), (1.0, 1e200, 2.0), (1e200, 1e200)])
def test_square_out_of_float_range_is_breakdown(fb, a):
    cv = CoefficientVector(a)
    for forward in (forward_p, forward_q):
        with pytest.raises(SquareOutOfRange):
            forward(cv, fb)


def test_tiny_and_huge_exact_entries_square_exactly(rb):
    cv = CoefficientVector((Fraction(10**300), Fraction(1, 10**300)))
    assert forward_p(cv, rb).top.coeffs[0] == -Fraction(1, 10**600)


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_exact_residual_check_refuses_perturbed_outputs(rb, n):
    lam = random_rational_spectrum(case_rng(0, "residual", n), n)
    trace = solve(validate_spectrum(lam), rb)
    qn = CharPolySequence((from_roots(lam, rb).coeffs,))  # the same q_n, as Fractions

    def matches(a1, a_sq):
        forward = forward_q_squared(a1, a_sq, rb)
        # the integer comparison and the Fraction one agree
        assert forward.same_top(trace.chain) == forward.same_top(qn)
        # and the pass hinted by the backward pass's levels gives the same verdict
        hinted = forward_q_squared(a1, a_sq, rb, like=trace.chain)
        assert hinted.same_top(trace.chain) == forward.same_top(trace.chain)
        return forward.same_top(trace.chain)

    assert matches(trace.a1, trace.a_squared)
    assert not matches(trace.a1 + Fraction(1, 7), trace.a_squared)
    for j in range(n - 1):
        a_sq = list(trace.a_squared)
        a_sq[j] += Fraction(1, 10**9)
        assert not matches(trace.a1, tuple(a_sq)), j


def _hint_case(rb, n):
    """A rational trace of size n and the plain forward pass from its outputs."""
    trace = solve(validate_spectrum(random_rational_spectrum(case_rng(0, "hint", n), n)), rb)
    return trace, forward_q_squared(trace.a1, trace.a_squared, rb)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 48])
def test_the_hinted_forward_pass_takes_the_backward_levels_it_proves(rb, n):
    trace, plain = _hint_case(rb, n)
    hinted = forward_q_squared(trace.a1, trace.a_squared, rb, like=trace.chain)
    assert hinted.scale == trace.chain.scale
    assert all(hinted.chain[k] is trace.chain.chain[k] for k in range(2, n))
    assert hinted.polys == plain.polys and hinted.top == plain.top
    assert hinted.same_top(trace.chain) and plain.same_top(trace.chain)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 48])
def test_a_wrong_hint_changes_no_forward_level(rb, n):
    trace, plain = _hint_case(rb, n)
    levels, scale = trace.chain.chain, trace.chain.scale
    k = min(n, max(2, n // 2))  # a level the pass would take, where n >= 3
    level, j = levels[k], max(k - 2, 0)  # j: the coefficient that g is read from

    def with_level(new):
        return CharPolySequence(levels[:k] + (new,) + levels[k + 1 :], scale)

    other = solve(validate_spectrum(random_rational_spectrum(case_rng(1, "hint", n), n)), rb).chain
    likes = {
        "own": trace.chain,
        "other spectrum": other,
        "coefficient k-2 + 1": with_level(level[:j] + (level[j] + 1,) + level[j + 1 :]),
        "coefficient 0 + 1": with_level((level[0] + 1, *level[1:])),
        "doubled": with_level(tuple(2 * c for c in level)),
        "negated": with_level(tuple(-c for c in level)),
        "two degrees short": with_level(level[2:]),
    }
    for name, like in likes.items():
        hinted = forward_q_squared(trace.a1, trace.a_squared, rb, like=like)
        assert hinted.polys == plain.polys, name
        assert all(c[-1] > 0 for c in hinted.chain), name  # as every pass stores a level
        assert hinted.same_top(trace.chain) == plain.same_top(trace.chain), name
        assert hinted.same_top(other) == plain.same_top(other), name


def test_a_hint_of_another_kind_is_ignored(rb, fb):
    trace, plain = _hint_case(rb, 5)
    float_chain = solve(trace.spectrum, fb).chain  # scale None
    shorter = _hint_case(rb, 4)[0].chain
    for like in (float_chain, shorter, None):
        hinted = forward_q_squared(trace.a1, trace.a_squared, rb, like=like)
        assert hinted.chain == plain.chain and hinted.scale == 1
    a1, tail_sq = float(trace.a1), tuple(map(float, trace.a_squared))
    floats = forward_q_squared(a1, tail_sq, fb)
    assert forward_q_squared(a1, tail_sq, fb, like=trace.chain) == floats


# --- float levels keep their parity as the step computes them ---


def _forbidden(seq):
    """(k, j, c) for each coefficient c = q_k[j], k < n, that the parity of k forbids."""
    return [(k, j, c) for k, q in enumerate(seq.polys[:-1]) for j, c in enumerate(q.coeffs) if (j - k) % 2]


def _assert_parity_clean(seq):
    # 0.0 or -0.0: nothing rounds them back, so a step that broke parity shows
    forbidden = _forbidden(seq)
    assert forbidden and all(type(c) is float and c == 0.0 for _, _, c in forbidden), [
        f for f in forbidden if f[2] != 0.0
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_levels_hold_zeros_where_their_parity_forbids(fb, seed):
    # the f64-roundtrip workload's spectra (n cycles 8, 16, 24, 32, 48), also
    # scaled toward both ends of the float range: the backward levels of solve
    # and the forward levels of the a it returns
    solved = set()
    for i in range(10):
        base = random_spectrum(case_rng(seed, "f64-roundtrip", i), (8, 16, 24, 32, 48)[i % 5])
        for e in (0, 20, -20, 100, -100, 150, -150, 300, -300):
            try:
                trace = solve(validate_spectrum([v * 10.0**e for v in base]), fb)
            except AntibidiagError:
                continue  # the pass broke down: a^2 <= 0 or inf in float64
            _assert_parity_clean(trace.chain)
            _assert_parity_clean(forward_q_squared(trace.a1, trace.a_squared, fb))
            solved.add(e)
    assert {0, 20, -20} <= solved


@pytest.mark.parametrize("e", [50, -50, 150, -150])
def test_forward_levels_hold_zeros_where_their_parity_forbids(fb, e):
    # at 10**150 the allowed coefficients overflow to inf, at 10**-150 they
    # underflow to 0.0; the forbidden ones stay zero
    for i in range(20):
        n = 2 + i % 30
        a = [v * 10.0**e for v in random_coefficients(case_rng(1, "parity", i), n)]
        _assert_parity_clean(forward_q(CoefficientVector(a), fb))


def _hex(chain):
    return [[float.hex(c) for c in level] for level in chain]


_OVERFLOWING = [(1e100,) * n for n in (4, 5, 8, 13)] + [(1e100, 1e100, 1.0, 1e100, 1e100, 1e-3, 1e100)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_chains_take_the_generic_step_bit_for_bit(fb, seed):
    rng = random.Random(seed)
    vectors = [tuple(10 ** rng.uniform(-3, 3) for _ in range(n)) for n in range(1, 49)] + _OVERFLOWING
    for a in vectors:
        a1, tail_sq = a[0], tuple(v * v for v in a[1:])
        q = _hex(forward_q_squared(a1, tail_sq, fb).chain)
        p = _hex(forward_p(CoefficientVector(a), fb).chain)
        assert q == _hex(forward_q_float_reference(a1, tail_sq)), a
        assert p == _hex(forward_p_float_reference(a1, tail_sq)), a


def test_overflowing_chains_reach_inf(fb):
    for a in _OVERFLOWING[1:]:
        a1, tail_sq = a[0], tuple(v * v for v in a[1:])
        for chain in (forward_q_squared(a1, tail_sq, fb).chain, forward_p(CoefficientVector(a), fb).chain):
            assert any(math.isinf(c) for level in chain for c in level), a


def test_minus_updates_the_shifted_level_in_place():
    # t r - v u over u's length, t r past it; an inf low coefficient cannot
    # reach the leading coefficient, which the update leaves as t r[-1]
    r = [0.0, math.inf, 0.0, 1.0]
    assert _minus(r, 2.0, (5.0,)) is r and r == [-10.0, math.inf, 0.0, 1.0]
    assert _minus([0, -3, 0, 1], 2, (5, 0, 1), 3) == [-10, -9, -2, 3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_step_carries_inf_nan_and_signed_zeros_as_the_generic_step(fb, seed):
    rng = random.Random(seed)
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e308, -1e308]

    def coeff():
        return rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-10, 10)

    for _ in range(300):
        k = rng.randint(0, 6)
        p = (*(coeff() for _ in range(k)), 1.0)
        u = p if rng.random() < 0.2 else (*(coeff() for _ in range(k - 1)), 1.0)[-max(k, 1):]
        v = rng.choice([10 ** rng.uniform(-300, 300), 5e-324, 1.7e308])
        assert _hex([_next(p, u, v, fb)]) == _hex([float_step_reference(p, u, v)]), (p, u, v)
