"""Exact computer algebra for partial group and Hopf actions.

Constructs partial actions of finite groups (and their group-algebra lifts)
on finite-dimensional structure-constant algebras over exact fields, builds
the twisted group ring and its smash product with the dual group algebra,
and machine-verifies the matrix duality layer: kernel and image formulas,
the corner splitting, separability of the smash over the twisted ring, and
the partial-Hopf analogue.
"""

from .actions import (PartialAction, dot_identities_report, global_action,
                      make_partial_action, restrict_global, trivial_from_split)
from .algebras import (AlgebraMap, StructureAlgebra,
                       center_basis, direct_product, dual_group_algebra,
                       field_algebra, group_algebra, ideal_basis,
                       is_central_idempotent, make_algebra, matrix_algebra,
                       product_of_fields, tensor_algebra)
from .fields import GF, QQ, parse_field
from .groups import FiniteGroup, cyclic, make_group, symmetric
from .linalg import Subspace
from .report import CheckResult, Report, emit_report, parse_structured
from .scenarios import run_scenario
from .skew import SkewGroupRing, build_skew, grading_report, strong_grading_test
from .smash import SmashAlgebra, build_smash, separability_report

__version__ = "0.1.0"

# The Hopf and duality layers are the two largest modules, and only the
# ``hopf`` and ``duality`` suites use them: their public names are resolved on
# first access (PEP 562), so a run that never reads them never imports them.
_HOPF_NAMES = ("HopfData", "PartialHopfAction", "build_corner_maps",
               "build_partial_smash", "build_representations", "group_hopf",
               "lift_group_action", "make_hopf", "make_partial_hopf_action")
_DUALITY_NAMES = ("DualityData", "build_duality", "corner_report",
                  "decomposition_report", "kernel_report",
                  "skew_injectivity_report")


def __getattr__(name):
    if name in _HOPF_NAMES:
        from . import hopf as layer
    elif name in _DUALITY_NAMES:
        from . import duality as layer
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(layer, name)


def __dir__():
    return sorted(set(globals()) | set(_HOPF_NAMES) | set(_DUALITY_NAMES))
