"""Property test of from_roots' separation check against the all-pairs predicate."""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from antibidiag import float64, from_roots, rational  # noqa: E402
from antibidiag.errors import DuplicateRoots  # noqa: E402
from antibidiag.scalars import TolerancePolicy  # noqa: E402

BACKENDS = [float64(TolerancePolicy(root_tol=t)) for t in (1e-13, 0.05, 0.1, 0.2)] + [rational()]

BASE = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
)

# Relative offsets on both sides of each separation 10 * root_tol (1e-12, 0.5, 1, 2).
SHIFTS = st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 2e-12, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])


@st.composite
def root_lists(draw):
    """Roots with near-duplicates: copies of drawn roots, either sign, moved
    by a relative shift, inserted anywhere."""
    roots = draw(st.lists(BASE, max_size=6))
    for _ in range(draw(st.integers(0, 4)) if roots else 0):
        r = draw(st.sampled_from(roots)) * draw(st.sampled_from([1, -1]))
        d = draw(SHIFTS)
        r *= 1 + (d if isinstance(r, float) else Fraction(d))
        roots.insert(draw(st.integers(0, len(roots))), r)
    return roots


def _first_close_pair(roots, backend):
    """The all-pairs predicate: the first pair, in input order, closer than
    the separation, on the roots as from_roots converts them."""
    if not (backend.exact and roots and all(type(r) is int for r in roots)):
        roots = [backend.convert(r) for r in roots]
    sep = 0 if backend.exact else 10 * backend.policy.root_tol
    for r, s in combinations(roots, 2):
        if abs(r - s) <= sep * max(abs(r), abs(s)):
            return r, s
    return None


@settings(deadline=None, max_examples=400)
@given(root_lists(), st.sampled_from(BACKENDS))
def test_separation_check_agrees_with_all_pairs(roots, backend):
    pair = _first_close_pair(roots, backend)
    if pair is None:
        assert from_roots(roots, backend).degree == len(roots)
    else:
        with pytest.raises(DuplicateRoots) as exc:
            from_roots(roots, backend)
        assert str(exc.value) == f"roots {pair[0]} and {pair[1]} are not separated"
