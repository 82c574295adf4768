"""Exact local degree computations for polynomial maps, with quadratic form
classification over Q and odd prime fields and Weyl-group coset counting."""

from .degree import (
    EKLResult,
    MapSpec,
    NotSupportedAtOriginError,
    ZeroSocleError,
    ekl_degree,
    jacobian_element,
    linear_decompose,
    prepare_quotient,
    socle_element,
)
from .gw import (
    DegenerateFormError,
    GramForm,
    GWClass,
    classify,
    classify_diagonal,
    diagonalize,
    gw_add,
    gw_equal,
    gw_mul,
    hilbert_symbol,
    hyperbolic_class,
    recognize_units,
    unit_class,
)
from .localg import (
    AlgebraElement,
    GroebnerBasis,
    InfiniteQuotientError,
    QuotientPresentation,
    UnitIdealError,
    coordinates,
    groebner,
    normal_form,
    origin_supported,
    poly_det,
    quotient_presentation,
)
from .poly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    format_monomial,
    parse_poly,
)
from .quotmap import (
    QuotientSpec,
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_quotient,
    build_typeA_partial,
    build_typeBC_full,
    expected_gw,
)
from .scalar import (
    GF,
    QQ,
    PrimeField,
    PrimeFieldElement,
    Rational,
    RationalField,
    SquareClass,
    legendre,
    squarefree_part,
)
from .weyl import (
    EnumerationBudgetError,
    ParabolicSpec,
    RootSystem,
    aP_formula_typeA,
    block_parabolic,
    build_root_system,
    compute_aP,
    in_parabolic,
    is_central_longest,
    longest_element,
    min_coset_reps,
)

__version__ = "0.1.0"
