"""Numerical verification toolkit for negatively curved conformal metrics
on planar hyperbolic domains: closed-form densities, finite-difference Gauss
curvature, hyperbolic distances via covering lifts with an independent
geodesic oracle, boundary Harnack/Hopf inequalities, a radial
curvature-equation solver with singularity classification, boundary
rigidity decay-rate fits, and sharpness witnesses."""

from .curvature import curvature_at
from .distances import (DistanceMethod, DistanceResult,
                        comparability_constants, covering_decay_ratio,
                        dist_annulus, dist_disk, dist_halfplane,
                        dist_punctured_disk, dist_strip)
from .domains import DomainModel
from .errors import HypMetricsError
from .inequalities import (HarnackBoundSpec, ahlfors_check, aux_v, aux_v_alpha,
                           beardon_minda_bound, boundary_max_ratio,
                           harnack_bound, harnack_conical_bound,
                           hopf_conical_functional, hopf_functional,
                           radial_solution_space_check)
from .liouville import (RadialProfile, SingularityProfile, classify_singularity,
                        closed_form_family, dichotomy_verify_part_a,
                        integrate_radial, radial_rhs)
from .maps import (HolomorphicMap, example1_map, identity_map, mobius_map,
                   phi_map, square_map)
from .metrics import (MetricDensity, annulus_metric, conical_metric,
                      conical_scaled_metric, density_at, disk_metric,
                      half_plane_metric, log_density_at, pullback,
                      punctured_disk_metric, punctured_disk_metric_r,
                      strip_metric)
from .oracle import geodesic_oracle
from .reports import Check, VerificationReport
from .rigidity import (BoundarySequenceSample, Classification, DecayEstimate,
                       Setting, build_sample, classify_boundary_condition,
                       classify_sample, decay_exponent_fit, dichotomy_report,
                       euclidean_puncture_form, interior_equality_check)
from .suites import SuiteConfig, run_suite, suite_names
from .witnesses import (WitnessLimit, annulus_expected_limit,
                        annulus_sharpness_limit, disk_sharpness_functional,
                        example1_limit, example1_ratio, phi_expansion_check)

__version__ = "0.1.0"
