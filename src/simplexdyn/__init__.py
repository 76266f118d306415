"""Exact simplex dynamics on finite group algebras.

Convolution powers of probability vectors on a finite group settle onto a
finite cycle; iterating a probability series in a fixed vector settles onto
a finite set of limit points with an explicit closed form.  This package
computes those objects exactly (rational arithmetic throughout), predicts
whether a plain limit exists, evaluates Cesaro averages when it does not,
and cross-checks every closed form against brute-force float iteration.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a process pays to
compile and import only the modules it reads.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each exported name.
_HOME = {name: module for module, names in {
    "algebra": ("AlgebraElement", "SimplexPoint", "add", "delta",
                "element_to_map", "multiply", "power", "scale",
                "simplex_from_map", "sup_distance", "support", "uniform_on"),
    "config": ("ConfigError", "ExperimentConfig"),
    "dynamics": ("AccumulationSet", "DynamicsProfile", "empirical_limit_set",
                 "limit_set", "power_rank", "profile", "reduce_to_stable"),
    "errors": ("InconclusiveError", "InternalConsistencyError",
               "PurePowerError"),
    "groups": ("ElementSet", "FiniteGroup", "direct_product",
               "from_cayley_table", "generated_subgroup", "make_cyclic",
               "make_dihedral", "make_symmetric"),
    "modm": ("ModMReport", "ResidueCycle", "extinction_fraction",
             "regularity_mod_m", "residue_cycle", "series_group"),
    "predict": ("LimitReport", "analyze", "cesaro_limit", "empirical_cesaro",
                "iterate_map", "pure_power_report", "regular_limit"),
    "poly": ("ProbPoly",),
    "record": ("parse_rational",),
    "series": ("CoeffState", "compose",
               "composition_sum_check", "default_truncation",
               "initial_state", "iterate_coeffs", "recursion_coeffs"),
}.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
