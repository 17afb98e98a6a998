"""Property tests of the command line's exit classes."""

import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from antibidiag.cli import main  # noqa: E402

BACKENDS = st.sampled_from(["float64", "rational"])

TOKENS = st.one_of(
    st.floats().map(repr),
    st.text(max_size=12),
    st.sampled_from(["1/0", "inf", "-inf", "nan", "1e999", "0", "-0", "1/3", "--1"]),
)


def _solve(text, backend):
    return main(["solve", "--backend", backend, "--spectrum=" + text], out=io.StringIO())


@settings(deadline=None)
@given(st.lists(TOKENS, max_size=8).map(",".join), BACKENDS)
def test_any_token_list_gets_a_status(text, backend):
    assert _solve(text, backend) in (0, 1, 2, 3)


MODULI = st.lists(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    min_size=1,
    max_size=8,
    unique=True,
)


@settings(deadline=None)
@given(MODULI, BACKENDS)
def test_admissible_spectra_are_never_rejected(moduli, backend):
    moduli.sort(reverse=True)
    spectrum = [m if k % 2 == 0 else -m for k, m in enumerate(moduli)]
    assert all(math.isfinite(v) for v in spectrum)
    assert _solve(",".join(map(repr, spectrum)), backend) in (0, 2)
