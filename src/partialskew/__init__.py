"""Exact computer algebra for partial group and Hopf actions.

Constructs partial actions of finite groups (and their group-algebra lifts)
on finite-dimensional structure-constant algebras over exact fields, builds
the twisted group ring and its smash product with the dual group algebra,
and machine-verifies the matrix duality layer: kernel and image formulas,
the corner splitting, separability of the smash over the twisted ring, and
the partial-Hopf analogue.
"""

from .actions import (PartialAction, global_action, make_partial_action,
                      restrict_global, trivial_from_split)
from .algebras import (AlgebraMap, StructureAlgebra,
                       center_basis, direct_product, dual_group_algebra,
                       field_algebra, ideal_basis, is_central_idempotent,
                       make_algebra, product_of_fields)
from .fields import GF, QQ, parse_field
from .groups import FiniteGroup, cyclic, make_group, symmetric
from .linalg import Subspace
from .report import CheckResult, Report, emit_report, parse_structured
from .scenarios import run_scenario
from .skew import SkewGroupRing, build_skew, grading_report, strong_grading_test
from .smash import SmashAlgebra, build_smash, separability_report

__version__ = "0.1.0"

# The modules that only some suites use: the Hopf and duality layers, the
# matrix, tensor and group algebras, and the Lemma 1 report.  Their public
# names are resolved on first access (PEP 562), so a run that never reads
# them never imports them.
_LAZY = {
    **dict.fromkeys(("HopfData", "PartialHopfAction", "build_corner_maps",
                     "build_partial_smash", "build_representations",
                     "group_hopf", "lift_group_action", "make_hopf",
                     "make_partial_hopf_action"), "hopf"),
    **dict.fromkeys(("DualityData", "build_duality", "corner_report",
                     "decomposition_report", "kernel_report",
                     "skew_injectivity_report"), "duality"),
    **dict.fromkeys(("group_algebra", "matrix_algebra", "tensor_algebra"),
                    "constructions"),
    "dot_identities_report": "lemma1",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
