"""Scalar backends and tolerance policy.

Two interchangeable backends: hardware float64 and exact rationals
(``fractions.Fraction``, normalized gcd-reduced by construction).  A backend is
chosen once per pipeline; mixing backends inside one solve is an error caught
by the conversion helpers.  Square roots exist only in the floating backend;
the rational backend defers them to reporting time.
"""

from __future__ import annotations

import math

from .errors import BackendUnsupported


class Record:
    """A frozen value whose fields are the names its class annotates, in order;
    ``==``, ``hash`` and ``repr`` go field by field, and setting or deleting an
    attribute raises AttributeError.  ``cached_property`` writes ``__dict__`` itself."""

    def __init_subclass__(cls):
        """Give the class ``__init__(self, <fields>)``: a field's default is the class
        attribute of its name, and ``__post_init__`` runs last.  It is generated code,
        since a generic ``*args`` one costs 2-3 times as much per record; ``_set``
        stores the fields inline, where reads of them are fast."""
        fields = cls.__annotations__
        params = ", ".join(f"{f}=_cls.{f}" if f in vars(cls) else f for f in fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        ns = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}    self.__post_init__()\n", ns)
        cls.__init__ = ns["__init__"]

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__annotations__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self.__annotations__, self._values()))})"


class TolerancePolicy(Record):
    """Comparison and root-bracketing tolerances (floating backend only)."""

    eq_abs: float = 1e-10
    eq_rel: float = 1e-10
    root_tol: float = 1e-13

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.eq_abs, self.eq_rel, self.root_tol)):
            raise ValueError("all tolerances must be strictly positive and finite")


class Backend(Record):
    """A scalar field with a conversion rule and a comparison policy."""

    name: str
    exact: bool
    policy: TolerancePolicy = TolerancePolicy()  # immutable, so one is shared

    def convert(self, x):
        """Coerce a number (or numeric string) into this backend's scalar type."""
        if not self.exact:
            return float(x)
        import fractions

        return fractions.Fraction(x)

    def approx_equal(self, x, y) -> bool:
        """Exact equality (rational) or mixed abs/rel band (floating)."""
        if self.exact:
            return x == y
        return abs(x - y) <= self.policy.eq_abs + self.policy.eq_rel * max(abs(x), abs(y))

    def is_zero(self, x, scale=1) -> bool:
        if self.exact:
            return x == 0
        return abs(x) <= self.policy.eq_abs * max(1.0, abs(scale))

    def sqrt(self, x):
        if self.exact:
            raise BackendUnsupported("rational backend has no square root")
        if x < 0:
            raise ValueError("sqrt of negative value")
        return math.sqrt(x)

    @property
    def zero(self):
        return self.convert(0)

    @property
    def one(self):
        return self.convert(1)


def float64(policy: TolerancePolicy | None = None) -> Backend:
    return Backend("float64", exact=False, policy=policy or TolerancePolicy())


def rational(policy: TolerancePolicy | None = None) -> Backend:
    # Tolerances are carried but ignored: comparisons are exact.
    return Backend("rational", exact=True, policy=policy or TolerancePolicy())


def primitive_part(ints):
    """The integers divided by their gcd, their content; not all may be 0."""
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)
