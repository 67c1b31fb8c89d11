"""Numerical verification toolkit for negatively curved conformal metrics
on planar hyperbolic domains: closed-form densities, finite-difference Gauss
curvature, hyperbolic distances via covering lifts with an independent
geodesic oracle, boundary Harnack/Hopf inequalities, a radial
curvature-equation solver with singularity classification, boundary
rigidity decay-rate fits, and sharpness witnesses.

The package namespace is lazy: `import hypmetrics` loads no submodule (and
so not numpy) until one of the names below is used, and then only the
module that defines it and what that module imports.
"""
from importlib import import_module as _import_module

# each public name, under the submodule that defines it
_EXPORTS = {
    "curvature": ("curvature_at",),
    "distances": ("DistanceMethod", "DistanceResult", "comparability_constants",
                  "covering_decay_ratio", "dist_annulus", "dist_disk", "dist_halfplane",
                  "dist_punctured_disk", "dist_strip"),
    "domains": ("DomainModel",),
    "errors": ("HypMetricsError",),
    "inequalities": ("HarnackBoundSpec", "ahlfors_check", "aux_v", "aux_v_alpha",
                     "beardon_minda_bound", "boundary_max_ratio", "harnack_bound",
                     "harnack_conical_bound", "hopf_conical_functional",
                     "hopf_functional", "radial_solution_space_check"),
    "liouville": ("RadialProfile", "SingularityProfile", "classify_singularity",
                  "closed_form_family", "dichotomy_verify_part_a", "integrate_radial",
                  "radial_rhs"),
    "maps": ("HolomorphicMap", "example1_map", "identity_map", "mobius_map", "phi_map",
             "square_map"),
    "metrics": ("MetricDensity", "annulus_metric", "conical_metric",
                "conical_scaled_metric", "density_at", "disk_metric", "half_plane_metric",
                "log_density_at", "pullback", "punctured_disk_metric",
                "punctured_disk_metric_r", "strip_metric"),
    "oracle": ("geodesic_oracle",),
    "reports": ("Check", "VerificationReport"),
    "rigidity": ("BoundarySequenceSample", "Classification", "DecayEstimate", "Setting",
                 "build_sample", "classify_boundary_condition", "classify_sample",
                 "decay_exponent_fit", "dichotomy_report"),
    "suites": ("SuiteConfig", "run_suite", "suite_names"),
    "witnesses": ("WitnessLimit", "annulus_expected_limit", "annulus_sharpness_limit",
                  "disk_sharpness_functional", "example1_limit", "example1_ratio",
                  "phi_expansion_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
