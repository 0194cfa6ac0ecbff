"""Exact desk-scale Fourier analysis of DNF formulas.

Truth tables, exact dyadic spectra, full-depth restrictions, term covers, and
the injective encode/decode counting argument, plus a battery of exactly
verified combinatorial inequalities over all of them.
"""

from .boolfn import (
    BooleanFunction,
    CapExceededError,
    DimensionMismatchError,
    FourierSpectrum,
    N_CAP,
    fourier_transform,
    hamming_distance_fraction,
    min_coeffs_for_eps,
    one_norm_at_degree,
    weight_above_degree,
    weight_outside_masks,
)
from .covers import (
    FamilyAnalysis,
    FamilyKey,
    FamilyStats,
    budget_lemma_bound,
    check_abs_fourier_u,
    check_onenorm_u,
    check_twonorm_u,
    exact_width_cover_bound,
    read_cover_count_bound,
    st_inequality_check,
)
from .dnf import ContradictoryTermError, Dnf, ParseError, Term
from .dyadic import DyadicRational
from .encoder import (
    CoverRecord,
    DecodeError,
    EncodePreconditionError,
    Encoding,
    EncodingInvariantError,
    EncodingRecord,
    decode,
    decode_records,
    encode,
    extract_cover,
    valid_pairs,
)
from .experiments import (
    ExperimentConfig,
    InstanceSource,
    run_concentration_sweep,
    run_verify,
)
from .generators import GeneratorSpec, SplitMix64, dense_pool, random_read_k, tribes
from .restrictions import (
    DT_CAP,
    RestrictionTables,
    cover_probability_check,
    evasive_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "CapExceededError",
    "ContradictoryTermError",
    "CoverRecord",
    "DecodeError",
    "DimensionMismatchError",
    "Dnf",
    "DT_CAP",
    "DyadicRational",
    "EncodePreconditionError",
    "Encoding",
    "EncodingInvariantError",
    "EncodingRecord",
    "ExperimentConfig",
    "FamilyAnalysis",
    "FamilyKey",
    "FamilyStats",
    "FourierSpectrum",
    "GeneratorSpec",
    "InstanceSource",
    "N_CAP",
    "ParseError",
    "RestrictionTables",
    "SplitMix64",
    "Term",
    "budget_lemma_bound",
    "check_abs_fourier_u",
    "check_onenorm_u",
    "check_twonorm_u",
    "cover_probability_check",
    "decode",
    "decode_records",
    "dense_pool",
    "encode",
    "evasive_bound_check",
    "exact_width_cover_bound",
    "extract_cover",
    "fourier_transform",
    "hamming_distance_fraction",
    "min_coeffs_for_eps",
    "one_norm_at_degree",
    "random_read_k",
    "read_cover_count_bound",
    "run_concentration_sweep",
    "run_verify",
    "st_inequality_check",
    "tribes",
    "valid_pairs",
    "weight_above_degree",
    "weight_outside_masks",
]
