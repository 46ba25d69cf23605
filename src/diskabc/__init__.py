"""Local abc-type inequalities for analytic functions on disks.

Computes Blaschke products, Wronskians and the norm quotients controlling
zero counts, verifies the disk inequalities and their exact polynomial
ancestors, and studies the weighted-Dirichlet-space variants.
"""

from .abc_verifier import (AbcCertificate, AbcSystem, build_system,
                           check_divisibility, gapped_monomial_family,
                           lambda_mu_kappa, monomial_family, verify)
from .blaschke import (BlaschkeProduct, DiskDomain, UNIT_DISK, from_zeros, lcm,
                       product, radical)
from .dalpha import (DalphaReport, TruncationSchedule, blaschke_norm_sq,
                     division_monotonicity_check, product_norm_sq, r_alpha,
                     r_alpha_area, truncation_study, verify_theorem_41)
from .errors import (DiskAbcError, DomainViolation, HypothesisFailure,
                     InputError, LinearDependence, NumericalFailure)
from .mason_stothers import (LimitStudy, MasonReport, limit_R_study,
                             verify_theorem_A, verify_theorem_B,
                             wronskian_degree_bound_check)
from .polycore import (CLUSTER_TOL, GaussianRational, PolyC, PolyQ, ZeroList,
                       aberth_roots, gcd_exact, roots_with_multiplicity,
                       squarefree_part, wronskian, zero_table)
from .quadrature import (boundary_extrema, boundary_integral, dalpha_norm_coeff,
                         dirichlet_norm_area, disk_area_mean, inf_boundary,
                         sup_boundary, unit_disk_weighted_mean)

__version__ = "0.1.0"

__all__ = [
    "AbcCertificate", "AbcSystem", "BlaschkeProduct",
    "CLUSTER_TOL", "DalphaReport", "DiskAbcError",
    "DiskDomain", "DomainViolation", "GaussianRational", "HypothesisFailure",
    "InputError", "LimitStudy", "LinearDependence", "MasonReport",
    "NumericalFailure", "PolyC", "PolyQ",
    "TruncationSchedule", "UNIT_DISK", "ZeroList", "aberth_roots",
    "blaschke_norm_sq", "boundary_extrema", "boundary_integral",
    "build_system", "check_divisibility", "dalpha_norm_coeff",
    "dirichlet_norm_area", "disk_area_mean", "division_monotonicity_check",
    "from_zeros", "gapped_monomial_family", "gcd_exact", "inf_boundary",
    "lambda_mu_kappa", "lcm", "limit_R_study",
    "monomial_family", "product", "product_norm_sq", "r_alpha",
    "r_alpha_area", "radical", "roots_with_multiplicity", "squarefree_part",
    "sup_boundary", "truncation_study", "unit_disk_weighted_mean", "verify",
    "verify_theorem_41", "verify_theorem_A", "verify_theorem_B", "wronskian",
    "wronskian_degree_bound_check", "zero_table",
]
