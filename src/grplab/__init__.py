"""grplab: a finite-group counting laboratory.

Build explicit finite groups, measure subset growth, count solutions to
group equations exactly, compute quasirandomness degrees, and run seeded
coloring experiments, all with reproducible reports.

The public names below load their submodule on first use (PEP 562), so
``import grplab`` loads no submodule and a command pays only for the
modules it runs.
"""

import importlib

# submodule -> the public names it lends the package
_EXPORTS = {
    "counting": (
        "ConvolutionIdentityResult",
        "CountReport",
        "FiberFunction",
        "all_nonempty_subsets",
        "convolution_identity_check",
        "count_ap3",
        "count_fiber_equation",
        "count_mixing_tuples",
        "count_power_equation",
        "count_xy_eq_z",
    ),
    "groups": (
        "ConjugacyClasses",
        "Cyclic",
        "DirectProduct",
        "FiniteGroup",
        "GroupSpec",
        "PSL2",
        "Permutation",
        "TableSource",
        "build_group",
        "conjugacy_classes",
        "element_order",
        "parse_group_spec",
        "verify_group_axioms",
    ),
    "lab": ("ExperimentConfig", "load_config", "parse_config_text", "run_recipe", "sweep"),
    "ramsey": (
        "Coloring",
        "Exhausted",
        "FailureTrace",
        "TupleWitness",
        "cip_density_experiment",
        "exhaustive_schur_minimum",
        "hindman_greedy",
        "increasing_products",
        "monochromatic_tuple_search",
        "schur_adversarial_search",
        "schur_counts",
        "validate_witness",
    ),
    "regularity": ("RegularityVerdict", "check_product_rich", "check_regular_position"),
    "reports": ("ExperimentReport", "canonical_json"),
    "rng": ("SplitMix64", "derive"),
    "sets": (
        "GroupSubset",
        "doubling_constant",
        "growth_profile",
        "inverse_set",
        "is_product_free",
        "iterated_product",
        "make_set",
        "parse_set_spec",
        "product_set",
        "symmetrize",
        "tripling_constant",
    ),
    "spectral": (
        "DegreeProfile",
        "abelianization_order",
        "character_degrees",
        "quasirandomness_degree",
        "regular_representation_degrees",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
