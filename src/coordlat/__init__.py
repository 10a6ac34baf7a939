"""Coordinator polynomials of root lattices, with exact root location.

Closed-form construction for the classical families, root counting and
isolation certified by sign ladders (types A, C, D), sign ladders plus
exact root discs (type B) or Sturm chains,
trigonometric bracketing for the type D family,
coefficient diagnostics (log-concavity, unimodality, truncated total
positivity), a brute-force word-length enumerator that cross-checks
everything from the generator tables alone, and a word-length count on
Weyl-group orbits that needs only a type's simple roots.
"""
from .coordinator import (
    CoordinatorPolynomial,
    LatticeType,
    UnsupportedTypeError,
    coordinator,
    coordinator_product,
    legendre_identity_check,
    type_b_coefficient_ratios,
)
from .exactpoly import Polynomial, Rational, binom, poly, series_expand
from .latticeenum import (
    ExpensiveLatticeError,
    LatticeSpec,
    LengthCensus,
    MemoryBudgetExceeded,
    OracleReport,
    chamber_lengths,
    enumerate_lengths,
    lattice_spec,
    oracle_verify,
    recover_coordinator,
)
from .realroots import (
    BracketingError,
    Interval,
    RootReport,
    TrigBracket,
    count_real_roots,
    d_type_brackets,
    is_real_rooted,
    isolate_real_roots,
    refine_bracket,
    sturm_chain,
    trig_values,
)
from .seqanalysis import (
    SequenceVerdict,
    check_log_concave,
    check_no_internal_zeros,
    check_unimodal,
    pf_minor_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Polynomial",
    "Rational",
    "binom",
    "poly",
    "series_expand",
    "LatticeType",
    "CoordinatorPolynomial",
    "UnsupportedTypeError",
    "coordinator",
    "coordinator_product",
    "type_b_coefficient_ratios",
    "legendre_identity_check",
    "Interval",
    "RootReport",
    "TrigBracket",
    "BracketingError",
    "sturm_chain",
    "count_real_roots",
    "is_real_rooted",
    "isolate_real_roots",
    "refine_bracket",
    "trig_values",
    "d_type_brackets",
    "SequenceVerdict",
    "check_log_concave",
    "check_unimodal",
    "check_no_internal_zeros",
    "pf_minor_check",
    "LatticeSpec",
    "LengthCensus",
    "OracleReport",
    "MemoryBudgetExceeded",
    "ExpensiveLatticeError",
    "lattice_spec",
    "enumerate_lengths",
    "chamber_lengths",
    "recover_coordinator",
    "oracle_verify",
]
