import pytest

from antibidiag import validate_spectrum
from antibidiag.sampling import MAX_DEFAULT_N, case_rng, random_spectrum


@pytest.mark.parametrize("n", [*range(8, 129, 8), 1000])
def test_the_default_gap_fills_every_ladder_size_and_n_1000(n):
    # the benchmark's accuracy ladder runs 8, 16, ..., 128
    spectrum = random_spectrum(case_rng(1, f"ladder{n}", 0), n)
    assert validate_spectrum(spectrum).n == n
    gap = 0.1 if n <= MAX_DEFAULT_N else (10.0 - 0.1) / (2 * n)
    assert min(abs(a) - abs(b) for a, b in zip(spectrum, spectrum[1:])) >= gap * (1 - 1e-9)


@pytest.mark.parametrize("n", [1, 2, 16, 48, MAX_DEFAULT_N])
def test_the_default_gap_up_to_the_old_limit_is_the_old_one(n):
    # so every seeded spectrum at n <= 99 keeps its bits
    assert random_spectrum(case_rng(1, "seeded", n), n) == random_spectrum(case_rng(1, "seeded", n), n, 0.1)
    assert random_spectrum(case_rng(1, "seeded", n), n, lo=1.0, hi=20.0) == random_spectrum(
        case_rng(1, "seeded", n), n, 0.1, lo=1.0, hi=20.0
    )
