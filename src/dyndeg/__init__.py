"""Certified toolkit for degree growth of plane rational maps g o h_zeta.

Exact degree sequences, a rigorously enclosed dynamical degree, a symbolic
composition oracle, and continued-fraction diagnostics of the rotation number.
"""

from .errors import (
    AdmissibilityError,
    CheckFailed,
    DegenerateMatrix,
    InconsistencyError,
    OracleInconsistency,
    PrecisionError,
    ReductionFailure,
    ResourceExhausted,
)
from .gaussian import (
    GAMMA0,
    GaussianInt,
    IntMatrix2x2,
    d_sequence,
    gamma_argmax,
    gi_pow,
    is_admissible,
    monomial_degree,
    parse_gaussian,
    psi,
)
from .degrees import DegreeSequence, e_sequence, lambda2, series_identity_check

__version__ = "0.1.0"
