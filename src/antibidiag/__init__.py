"""Inverse eigenvalue problem for symmetric anti-bidiagonal matrices.

Constructs the unique positive coefficient vector realizing a prescribed
alternating-sign spectrum, the equivalent Jacobi-subclass matrix, and the
anti-bidiagonal square root of a Jacobi matrix with positive spectrum, with
independent verification (Sturm bisection eigensolver, interlacing,
sign-regularity verdicts by minor enumeration, the class-plus power from the
Gantmacher-Krein theorem) in float64 or exact rational arithmetic.
"""

from .errors import AntibidiagError
from .inversesolver import (
    PositiveTuple,
    ReconstructionTrace,
    RoundtripResult,
    Spectrum,
    SqrtResult,
    check_sigma_inequality,
    jacobi_sqrt,
    solve,
    solve_roundtrip,
    solve_weights,
    validate_spectrum,
)
from .matrixkit import (
    CoefficientVector,
    StructuredMatrix,
    build_antibidiagonal,
    build_antidiagonal_unit,
    build_jacobi_special,
    matmul,
    minor,
    sign_normalize,
)
from .poly import (
    MonicPoly,
    elementary_symmetric,
    from_roots,
    poly_eval,
    roots_bracketed,
)
from .recurrence import CharPolySequence, forward_p, forward_q, forward_q_squared
from .scalars import Backend, TolerancePolicy, float64, rational
from .spectral import (
    SignRegularityReport,
    cauchy_binet_check,
    check_class_plus,
    classify_sign_regular,
    eigensolve_tridiagonal,
    interlaces,
    signature_sequence,
)

__all__ = [
    "AntibidiagError",
    "Backend",
    "CharPolySequence",
    "CoefficientVector",
    "MonicPoly",
    "PositiveTuple",
    "ReconstructionTrace",
    "RoundtripResult",
    "SignRegularityReport",
    "Spectrum",
    "SqrtResult",
    "StructuredMatrix",
    "TolerancePolicy",
    "build_antibidiagonal",
    "build_antidiagonal_unit",
    "build_jacobi_special",
    "cauchy_binet_check",
    "check_class_plus",
    "check_sigma_inequality",
    "classify_sign_regular",
    "eigensolve_tridiagonal",
    "elementary_symmetric",
    "float64",
    "forward_p",
    "forward_q",
    "forward_q_squared",
    "from_roots",
    "interlaces",
    "jacobi_sqrt",
    "matmul",
    "minor",
    "poly_eval",
    "rational",
    "roots_bracketed",
    "sign_normalize",
    "signature_sequence",
    "solve",
    "solve_roundtrip",
    "solve_weights",
    "validate_spectrum",
]
