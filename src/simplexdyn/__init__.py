"""Exact simplex dynamics on finite group algebras.

Convolution powers of probability vectors on a finite group settle onto a
finite cycle; iterating a probability series in a fixed vector settles onto
a finite set of limit points with an explicit closed form.  This package
computes those objects exactly (rational arithmetic throughout), predicts
whether a plain limit exists, evaluates Cesaro averages when it does not,
and cross-checks every closed form against brute-force float iteration.
"""

from .algebra import (AlgebraElement, ApproxElement, SimplexPoint, add, delta,
                      element_to_map, format_rational, multiply, parse_rational,
                      power, scale, simplex_from_map, sup_distance, support,
                      to_approx, uniform_on)
from .config import ConfigError, ExperimentConfig
from .dynamics import (AccumulationSet, DynamicsProfile, empirical_limit_set,
                       limit_set, match_accumulation_sets, power_rank, profile,
                       reduce, reduce_to_stable)
from .errors import (InconclusiveError, InternalConsistencyError,
                     PurePowerError)
from .groups import (ElementSet, FiniteGroup, direct_product, from_cayley_table,
                     generated_subgroup, make_cyclic, make_dihedral,
                     make_symmetric)
from .modm import (ModMReport, ResidueCycle, cesaro_mod_m, extinction_fraction,
                   iterate_mod_m, regularity_mod_m, residue_cycle, series_group)
from .predict import (LimitReport, analyze, cesaro_limit, empirical_cesaro,
                      iterate_map, pure_power_report, regular_limit)
from .series import (CoeffState, ProbPoly, cesaro_coeffs, compose,
                     composition_sum_check, default_truncation,
                     extinction_value, initial_state, iterate_coeffs,
                     recursion_coeffs)

__version__ = "0.1.0"

__all__ = [
    "AccumulationSet", "AlgebraElement", "ApproxElement", "CoeffState",
    "ConfigError", "DynamicsProfile", "ElementSet", "ExperimentConfig",
    "FiniteGroup", "InconclusiveError", "InternalConsistencyError",
    "LimitReport", "ModMReport", "ProbPoly", "PurePowerError", "ResidueCycle",
    "SimplexPoint", "add", "analyze", "cesaro_coeffs", "cesaro_limit",
    "cesaro_mod_m", "compose", "composition_sum_check", "default_truncation",
    "delta", "direct_product", "element_to_map", "empirical_cesaro",
    "empirical_limit_set", "extinction_fraction", "extinction_value",
    "format_rational", "from_cayley_table", "generated_subgroup",
    "initial_state", "iterate_coeffs", "iterate_map", "iterate_mod_m",
    "limit_set", "make_cyclic", "make_dihedral", "make_symmetric",
    "match_accumulation_sets", "multiply", "parse_rational", "power",
    "power_rank", "profile", "pure_power_report", "recursion_coeffs",
    "reduce", "reduce_to_stable", "regular_limit", "regularity_mod_m",
    "residue_cycle", "scale", "series_group", "simplex_from_map",
    "sup_distance", "support", "to_approx", "uniform_on",
]
