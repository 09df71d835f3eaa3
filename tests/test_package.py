"""The package exports each module's ``__all__``, and nothing else."""

import importlib
import importlib.util
import pkgutil

import pytest

import negdep

MODULES = (
    "bitops", "concentration", "coupling", "dependence", "errors", "martingale",
    "measure", "upsets",
)

PUBLIC = sorted([
    "__version__",
    # bitops
    "bits_from_mask", "cap", "mask_from_bits",
    # concentration
    "REL_TOL", "TailReport", "TailRow", "TailSide", "chain_exponential_moment",
    "default_t_grid", "exact_tail", "node_exponential_moment", "theorem_bound",
    "verify_theorem",
    # coupling
    "Coupling", "DominanceCertificate", "DominanceResult", "InfeasibilityCut",
    "build_monotone_coupling", "check_dominance", "covering_cut",
    "down_set_certificate",
    # dependence
    "GeneratingPolynomial", "NOTION_IMPLICATIONS", "Notion", "NotionReport",
    "Verdict", "check_cna", "check_cylinder", "check_neg_association",
    "check_neg_regression", "check_pairwise_nc", "check_stochastic_covering",
    "covariance", "default_rayleigh_grid", "rayleigh_falsify", "upset_indicator_cov",
    # errors
    "BadWidth", "DimensionMismatch", "DominanceFails", "EmptyConditioningEvent",
    "EmptySubset", "IntervalViolation", "InvalidTestFunction", "LemmaViolated",
    "MalformedMeasure", "MassNotOne", "NegativeMass", "NegdepError",
    "NoEligibleIndex", "NodeIsLeaf", "TooLarge", "ZeroProbabilityEvent",
    # martingale
    "MartingaleTree", "PickLemmaReport", "PickResult", "Skeleton", "TreeNode",
    "build_adaptive_tree", "build_skeleton", "fixed_order_tree", "max_step",
    "pick_index", "root_step", "verify_pick_lemma",
    # measure
    "Assignment", "ExplicitMeasure", "TestFunction", "constant_function",
    "family_anti_pair", "family_balls_bins", "family_conditioned_sum",
    "family_hadamard", "family_independent", "family_nand", "family_pos_pair",
    "format_rational", "new_explicit", "parse_rational", "random_lipschitz",
    "random_measure", "sum_function", "xor_function", "zoo",
    # upsets
    "ENUMERABLE_DIM", "is_up_closed", "nontrivial_upsets", "upset_members",
])

# importable from their modules, but not exported
INTERNAL = {
    "coupling": ["transport", "Dinic", "TransportResult", "up_steps", "up_closure",
                 "is_down_closed"],
    "bitops": ["_DEFAULT_CAPS", "refuse_over_cap"],
    "dependence": ["NOTION_RUNNERS"],
    "martingale": ["SkeletonNode", "PickLemmaEntry"],
    "measure": ["parse_family", "FAMILIES", "FAMILY_HELP", "CATALOG"],
    "upsets": ["upset_bitmasks", "upset_matrix", "max_weight_upset"],
}


def test_the_public_names_are_the_modules_lists():
    assert len(PUBLIC) == 88
    assert sorted(negdep.__all__) == PUBLIC
    listed = ["__version__"]
    for name in MODULES:
        listed += importlib.import_module(f"negdep.{name}").__all__
    assert sorted(listed) == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_each_export_is_the_modules_object(module):
    mod = importlib.import_module(f"negdep.{module}")
    for name in mod.__all__:
        assert getattr(negdep, name) is getattr(mod, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from negdep import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_zoo_is_the_catalog_function():
    catalog = negdep.zoo()
    assert len(catalog) == 17
    assert catalog["nand3"] == negdep.family_nand(3)


def test_no_export_shadows_a_submodule():
    for info in pkgutil.iter_modules(negdep.__path__):
        mod = importlib.import_module(f"negdep.{info.name}")
        assert getattr(negdep, info.name) is mod, info.name
    assert importlib.util.find_spec("negdep.zoo") is None


@pytest.mark.parametrize("module", sorted(INTERNAL))
def test_internal_names_stay_importable_but_unexported(module):
    mod = importlib.import_module(f"negdep.{module}")
    for name in INTERNAL[module]:
        assert hasattr(mod, name)
        assert name not in mod.__all__
        assert name not in negdep.__all__
