"""Exact homology and cohomology of finite ample groupoid models."""

from .zlinalg import (ChainComplex, FgAbGroup, IntMatrix, SnfDecomposition,
                      coefficients_via_uct, homology_at,
                      invariant_factors, kernel_basis, rank, snf,
                      solve_in_image)
from .groupoids import (FiniteGroupoid, GModule, GroupoidFunctor, Nerve,
                        bar_boundary_matrix_b, boundary_matrix_d,
                        coinvariants_collapse, nerve, validate_groupoid,
                        validate_module)
from .homology import (homology_groups, induced_homology_map,
                       odometer_homology, z_action_homology)
from .cohomology import (cocycle_coboundary_matrix, cocycle_cohomology,
                         hom_side_cohomology, induced_cohomology_map,
                         pullback_module, theta_rho_check)
from .skew import ZCocycle, les_verify, skew_window, validate_cocycle
from .limits import (BratteliDiagram, ColimitGroup, Tower, af_cohomology_tower,
                     af_homology, colimit_divisible, colimit_equal,
                     dimension_group, limit_and_lim1)
from . import models

__all__ = [
    "FgAbGroup", "IntMatrix", "SnfDecomposition", "snf", "kernel_basis",
    "rank", "invariant_factors", "ChainComplex", "homology_at",
    "solve_in_image", "coefficients_via_uct",
    "FiniteGroupoid", "GModule", "GroupoidFunctor", "Nerve", "nerve",
    "validate_groupoid", "validate_module", "boundary_matrix_d",
    "bar_boundary_matrix_b", "coinvariants_collapse",
    "homology_groups", "induced_homology_map", "z_action_homology",
    "odometer_homology",
    "cocycle_coboundary_matrix", "cocycle_cohomology", "hom_side_cohomology",
    "theta_rho_check", "pullback_module", "induced_cohomology_map",
    "ZCocycle", "validate_cocycle", "skew_window", "les_verify",
    "Tower", "ColimitGroup", "BratteliDiagram", "colimit_equal",
    "colimit_divisible", "dimension_group", "af_homology", "limit_and_lim1",
    "af_cohomology_tower", "models",
]
