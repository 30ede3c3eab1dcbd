"""Grouped orthogonal arrays: construction, verification and evaluation."""

from .designs import (
    Design,
    GeneratorMatrix,
    Group,
    GroupedDesign,
    check_strength,
    expand_generator,
    max_strength,
    p_of_d,
    pg_points,
    subset_columns,
    verify_claims,
    wlp,
)
from .gf import ExtField, GF, Poly, ext_field, find_primitive_polys, level_field
from .constructions import (
    DifferenceScheme,
    construct_consecutive,
    construct_ebert,
    construct_prop1,
    construct_thm1,
    construct_thm2,
    ds_catalog,
    ds_search,
    kronecker_sum,
    p_bound,
    rank_primitive_polys,
)
from .search import SearchConfig, algorithm_42, survey
from .expand import RealDesign, oa_to_lhd, rotate_columns
from .evalsim import SimModel, clarity_check, model_matrix, run_bias_study

__version__ = "0.1.0"

__all__ = [
    "Design",
    "DifferenceScheme",
    "ExtField",
    "GF",
    "GeneratorMatrix",
    "Group",
    "GroupedDesign",
    "Poly",
    "RealDesign",
    "SearchConfig",
    "SimModel",
    "algorithm_42",
    "check_strength",
    "clarity_check",
    "construct_consecutive",
    "construct_ebert",
    "construct_prop1",
    "construct_thm1",
    "construct_thm2",
    "ds_catalog",
    "ds_search",
    "expand_generator",
    "ext_field",
    "find_primitive_polys",
    "kronecker_sum",
    "level_field",
    "max_strength",
    "model_matrix",
    "oa_to_lhd",
    "p_bound",
    "p_of_d",
    "pg_points",
    "rank_primitive_polys",
    "rotate_columns",
    "run_bias_study",
    "subset_columns",
    "survey",
    "verify_claims",
    "wlp",
]
