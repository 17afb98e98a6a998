"""Seeded random generators for property checks (shared by the CLI's
verify-all command and the test suite).

Per-case seeds are derived deterministically from (seed, label, index) so
batteries are reproducible and order-independent.
"""

from __future__ import annotations

import random


def case_rng(seed: int, label: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{label}:{index}")


# The largest n that random_moduli can fill at its default gaps and range.
MAX_DEFAULT_N = 99


def random_moduli(rng: random.Random, n: int, min_gap=0.1, lo=0.1, hi=10.0):
    """n strictly decreasing moduli in [lo, hi] with pairwise gaps >= min_gap."""
    span = hi - lo - (n - 1) * min_gap
    if span <= 0:
        raise ValueError("range too small for the requested gaps")
    u = sorted(rng.random() for _ in range(n))
    vals = [lo + u[k] * span + k * min_gap for k in range(n)]
    return list(reversed(vals))  # descending


def random_spectrum(rng: random.Random, n: int, min_gap=0.1, lo=0.1, hi=10.0):
    """Valid alternating-sign spectrum with well-separated moduli."""
    mods = random_moduli(rng, n, min_gap, lo, hi)
    return tuple((-1) ** k * m for k, m in enumerate(mods))


def random_rational_spectrum(rng: random.Random, n: int, max_num=400, den=16):
    """Valid spectrum with exact rational entries."""
    import fractions

    nums = rng.sample(range(1, max_num + 1), n)
    nums.sort(reverse=True)
    return tuple((-1) ** k * fractions.Fraction(v, den) for k, v in enumerate(nums))


def random_coefficients(rng: random.Random, n: int, lo=0.2, hi=3.0):
    """Strictly positive float coefficient vector."""
    return tuple(rng.uniform(lo, hi) for _ in range(n))


def random_rational_coefficients(rng: random.Random, n: int, max_num=40, den=8):
    import fractions

    return tuple(fractions.Fraction(rng.randint(1, max_num), den) for _ in range(n))


def random_positive_tuple(rng: random.Random, n: int, min_gap=0.2, lo=0.5, hi=20.0):
    """Strictly decreasing positive tuple."""
    return tuple(random_moduli(rng, n, min_gap, lo, hi))
