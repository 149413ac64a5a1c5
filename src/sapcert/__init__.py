"""Certified spectral-arbitrariness toolkit for structured sign patterns.

Constructs nilpotent realizations of a two-parameter pattern family with
exact-arithmetic certificates, verifies the Jacobian nonsingularity that
makes the family (and every superpattern) spectrally arbitrary, realizes
arbitrary target characteristic polynomials inside the pattern class, and
detects the hereditary obstructions that make the family minimal.
"""

__version__ = "0.1.0"

from .charpoly import (
    CoeffVector,
    char_coeffs,
    char_coeffs_batch,
    char_coeffs_oracle,
    coeff_jacobian,
    coeffs_to_monic,
    monic_to_coeffs,
    spectrum,
)
from .errors import (
    CertificationFailed,
    ConvergenceError,
    DimensionError,
    InvalidInput,
    PreconditionViolated,
    RealizationFailed,
    SapcertError,
    SizeLimitExceeded,
)
from .family import (
    FamilyParams,
    FamilyRealization,
    build_matrix,
    build_pattern,
    coeff_map,
)
from .jacobian import (
    JacobianReport,
    NJCertificate,
    det_A_brute,
    det_A_closed,
    det_B_brute,
    jacobian_det,
    jacobian_matrix,
    nj_verify,
)
from .minimality import (
    MsapReport,
    Obstruction,
    entry_count_obstruction,
    fixed_sign_obstruction,
    obstruction_scan,
    reducibility_obstruction,
    verify_msap,
)
from .nilpotent import (
    NilpotentCertificate,
    nilpotent_realization,
    recurrence_polys,
    verify_min_chain,
)
from .patterns import (
    Sign,
    SignPattern,
    is_irreducible,
    is_superpattern,
    member_of_class,
    member_of_class_tol,
    nonzero_count,
    one_entry_subpatterns,
    sign_of,
)
from .polyroots import IntPolynomial, RootBracket
from .realize import (
    NewtonResult,
    RealizationResult,
    newton_solve,
    realize,
    realize_superpattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
