"""Generalized bent functions V_n -> Z_{2^k}: exact spectra, duals, Gray
maps, and constructions.

Everything is exact integer arithmetic: Boolean Walsh spectra are int64,
generalized spectra are coefficient vectors in Z[zeta_{2^k}], and every
verdict (gbent, Z_q-bent, plateaued, relative difference set) is decided
without floating point.
"""

from .analysis import (
    BentSpaceReport,
    GbentReport,
    ZqBentReport,
    bent_space_report,
    carlet_walsh_identity,
    coordinates_span_bent,
    gbent_reports,
    is_gbent,
    is_gbent_direct,
    is_gbent_quadruple,
    is_gbent_spectral,
    is_zq_bent,
    verify_rds,
)
from .boolfn import (
    BooleanFunction,
    SpectralClass,
    WalshSpectrum,
    classify,
    dual,
    wht,
)
from .constructions import (
    LinearTransform,
    Spread,
    apply_equivalence,
    example1,
    identity_transform,
    lift,
    mesnager_secondary,
    mm_bent,
    random_transform,
    regular_spread,
    spread_zqbent,
)
from .cyclotomic import (
    CyclotomicInt,
    Sqrt2Decomposition,
    norm_squared_coeffs,
    sqrt2_decompose,
)
from .duality import (
    GrayImage,
    dual_gbent,
    gray_map,
    gray_walsh_identity,
    verify_gray_plateaued,
)
from .errors import (
    FormatError,
    GbentError,
    InternalInconsistency,
    NotBent,
    NotGbent,
)
from .gbf import (
    GeneralizedBooleanFunction,
    GwhtSpectrum,
    components,
    gwht,
    gwht_via_components,
)
from .gf2m import Field, default_modulus, inverse_exponent
from .hadamard import match_row, quadruple_condition, row, zero_sum_quadruples
from .sweep import SweepResult, search_gbent, sweep_exhaustive, sweep_three_routes

__version__ = "0.1.0"

__all__ = [
    "BentSpaceReport",
    "BooleanFunction",
    "CyclotomicInt",
    "Field",
    "FormatError",
    "GbentError",
    "GbentReport",
    "GeneralizedBooleanFunction",
    "GrayImage",
    "GwhtSpectrum",
    "InternalInconsistency",
    "LinearTransform",
    "NotBent",
    "NotGbent",
    "SpectralClass",
    "Spread",
    "Sqrt2Decomposition",
    "SweepResult",
    "WalshSpectrum",
    "ZqBentReport",
    "apply_equivalence",
    "bent_space_report",
    "carlet_walsh_identity",
    "classify",
    "components",
    "coordinates_span_bent",
    "default_modulus",
    "dual",
    "dual_gbent",
    "example1",
    "gbent_reports",
    "gray_map",
    "gray_walsh_identity",
    "gwht",
    "gwht_via_components",
    "identity_transform",
    "inverse_exponent",
    "is_gbent",
    "is_gbent_direct",
    "is_gbent_quadruple",
    "is_gbent_spectral",
    "is_zq_bent",
    "lift",
    "match_row",
    "mesnager_secondary",
    "mm_bent",
    "norm_squared_coeffs",
    "quadruple_condition",
    "random_transform",
    "regular_spread",
    "row",
    "search_gbent",
    "spread_zqbent",
    "sqrt2_decompose",
    "sweep_exhaustive",
    "sweep_three_routes",
    "verify_gray_plateaued",
    "verify_rds",
    "wht",
    "zero_sum_quadruples",
]
