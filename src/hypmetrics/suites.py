"""Reproducible verification suites.

Each suite evaluates a family of checks against the closed-form constants
and inequalities, on seeded sample sets, and adds them to the
VerificationReport that run_suite builds for it. Identical configurations
(including the seed) produce byte-identical reports.

SUITES, at the end of this module, is the one place a suite is registered:
its runner and the tolerances it reads, with their defaults. A key ending
in ":<r>" takes a number after the colon; lookup is the one place a suite
name is split and checked. The witness computations are imported by the
three runners that use them (phi, example1, annulus-sharpness).

Two suites are expected to fail by design: the phi witness suite compares
against the documented constants -1/12 and -1/3, which are inconsistent
with direct evaluation of the pinned closed forms (the true values are -1/6
and -2/3; the annulus constant -1/3 - pi^2/(6 log(1/r)^2), which the
annulus-sharpness suite reproduces, is consistent only with -1/6). The
failing checks carry notes saying so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import curvature_at
from .distances import (comparability_constants, covering_decay_ratio,
                        dist_disk, dist_punctured_disk)
from .domains import DomainModel
from .errors import UnknownSuite
from .maps import example1_map, mobius_map, phi_map, square_map
from .metrics import (MetricDensity, annulus_metric, conical_metric,
                      conical_scaled_metric, density_at, disk_metric, pullback,
                      punctured_disk_metric, punctured_disk_metric_r)
from .reports import Check, VerificationReport
from .sampling import cartesian_grid, polar_grid, sample_annular, sample_log_annular

MOBIUS_A = complex(0.3, 0.2)


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 42
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        default = lookup(self.suite)[1][name]
        return float(self.tolerances.get(name, default))


def _pull_disk(map_) -> MetricDensity:
    return pullback(disk_metric(), map_, disk_metric().domain)


def _pull_example1() -> MetricDensity:
    pd = punctured_disk_metric()
    return pullback(pd, example1_map(), pd.domain)


# --- curvature --------------------------------------------------------------

def _curvature_cases(seed: int):
    """(metric, seeded sample points) pairs for the curvature suite.

    Sample regions keep the h^2 discretization coefficient of the 5-point
    operator small enough for the 1e-4 gate at h = 1e-3 (the coefficient
    grows like 1/|z|^4 / lambda^2 toward a puncture).
    """
    return [
        (disk_metric(), sample_annular(seed + 1, 100, 0.10, 0.75)),
        (punctured_disk_metric(), sample_annular(seed + 2, 100, 0.30, 0.75)),
        (annulus_metric(0.5), sample_annular(seed + 3, 100, 0.66, 0.86)),
        (conical_metric(0.5), sample_annular(seed + 4, 100, 0.30, 0.75)),
        (punctured_disk_metric_r(math.e), sample_annular(seed + 5, 100, 0.45, 0.85)),
        (_pull_disk(phi_map()), sample_annular(seed + 6, 100, 0.10, 0.50)),
        (_pull_disk(square_map()), sample_annular(seed + 7, 100, 0.40, 0.75)),
        (_pull_disk(mobius_map(MOBIUS_A)), sample_annular(seed + 8, 100, 0.10, 0.60)),
    ]


def suite_curvature(cfg: SuiteConfig, report: VerificationReport) -> None:
    tol = cfg.tol("curvature")
    for metric, pts in _curvature_cases(cfg.seed):
        err_fine = float(np.abs(curvature_at(metric, pts, 1e-3) + 4.0).max())
        err_coarse = float(np.abs(curvature_at(metric, pts, 1e-2) + 4.0).max())
        report.add(Check.at_most(f"kappa+4[{metric.label}]", err_fine, tol, "paper"))
        report.add(Check.h2_order(f"h2-convergence[{metric.label}]", err_coarse, err_fine,
                                  "max-error ratio for h=1e-2 vs h=1e-3"))


# --- ahlfors ----------------------------------------------------------------

def _ahlfors_cases():
    disk = disk_metric()
    pd = punctured_disk_metric()
    disk_grid = cartesian_grid(50, 0.98)
    disk_grid = disk_grid[np.abs(disk_grid) < 0.98]
    polar = polar_grid(50, 1e-3, 0.95)
    return [
        (_pull_disk(phi_map()), disk, disk_grid, False),
        (_pull_disk(square_map()), disk, disk_grid, False),
        (_pull_disk(mobius_map(MOBIUS_A)), disk, disk_grid, True),
        (_pull_example1(), pd, polar, False),
    ]


def suite_ahlfors(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    closed = cartesian_grid(20, 0.9)
    report.add(inequalities.ahlfors_check(disk_metric(), disk_metric(),
                                          closed[np.abs(closed) < 0.98], kind="closed"))
    for metric, reference, grid, isometry in _ahlfors_cases():
        report.add(inequalities.ahlfors_check(metric, reference, grid, kind="pullback"))
        if not isometry:
            center = grid[int(np.argmin(np.abs(grid - grid.mean())))]
            ratio = density_at(metric, center) / density_at(reference, center)
            report.add(Check.at_most(f"strict-ratio-center[{metric.label}]",
                                     ratio, 1.0 - 1e-6, "paper",
                                     note="strict inequality for non-isometries"))


# --- beardon-minda ----------------------------------------------------------

def suite_beardon_minda(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    report.add(Check.close("bound(0.5,0)", inequalities.beardon_minda_bound(0.5, 0.0),
                           0.5, 0.0, "trivial"))
    report.add(Check.close("bound(0,d)=tanh2d", inequalities.beardon_minda_bound(0.0, 0.7),
                           math.tanh(1.4), 1e-15, "trivial"))
    report.add(Check.close("bound(0.5,inf)=1", inequalities.beardon_minda_bound(0.5, 40.0),
                           1.0, 1e-12, "trivial"))

    slack_tol = cfg.tol("beardon-minda")

    cases = [
        ("phi on disk", _pull_disk(phi_map()), disk_metric(), dist_disk,
         sample_annular(cfg.seed + 11, 100, 0.02, 0.9),
         sample_annular(cfg.seed + 12, 100, 0.02, 0.9)),
        ("example1 on pdisk", _pull_example1(), punctured_disk_metric(), dist_punctured_disk,
         sample_log_annular(cfg.seed + 13, 100, 1e-3, 0.8),
         sample_log_annular(cfg.seed + 14, 100, 0.05, 0.8)),
    ]
    for label, metric, reference, dist, zs, qs in cases:
        # distortions lambda/lambda_ref at the sample points z and the base points q
        dz = density_at(metric, zs) / density_at(reference, zs)
        dq = density_at(metric, qs) / density_at(reference, qs)
        slack = min(inequalities.beardon_minda_bound(f_q, dist(z, q).value) - f_z
                    for z, q, f_z, f_q in zip(zs, qs, dz.tolist(), dq.tolist()))
        report.add(Check.at_least(f"min-slack[{label}]", slack, 0.0, slack_tol, "paper"))


# --- harnack ----------------------------------------------------------------

def suite_harnack(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    pd = punctured_disk_metric()
    metric = _pull_example1()
    r = 0.1
    M = inequalities.boundary_max_ratio(metric, pd, r)
    spec = inequalities.HarnackBoundSpec(r=r, boundary_max_ratio=M)
    report.add(Check.close("exponent-at-r", spec.exponent(r * 1j), 1.0, 1e-12, "trivial"))
    report.add(Check.close("exponent-half",
                           inequalities.HarnackBoundSpec(0.1, 0.5).exponent(0.01),
                           0.5, 1e-12, "trivial"))

    pts = polar_grid(25, 1e-6, r * 0.999)[:500]
    lam = density_at(metric, pts)
    bounds = inequalities.harnack_bound(spec, pd, pts)
    rel_slack = float(((bounds - lam) / bounds).min())
    tol = cfg.tol("harnack")
    report.add(Check.at_least("min-rel-slack[example1, r=0.1]", rel_slack, 0.0, tol, "paper",
                              note=f"boundary max ratio {M:.6f} at 500 polar points"))


def suite_harnack_conical(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    alpha, c, r = 0.5, 0.9, 0.5
    lam_a = conical_metric(alpha)
    metric = conical_scaled_metric(alpha, c)
    M = inequalities.boundary_max_ratio(metric, lam_a, r)
    spec = inequalities.HarnackBoundSpec(r=r, boundary_max_ratio=M)
    pts = polar_grid(15, 1e-4, r * 0.999)[:300]
    lam = density_at(metric, pts)
    bounds = inequalities.harnack_conical_bound(alpha, spec, pts)
    rel_slack = float(((bounds - lam) / bounds).min())
    tol = cfg.tol("harnack-conical")
    report.add(Check.at_least(f"min-rel-slack[scaled(alpha={alpha},c={c}), r={r}]",
                              rel_slack, 0.0, tol, "paper",
                              note=f"boundary max ratio {M:.6f} at 300 polar points"))
    report.add(Check.close("exponent-at-r",
                           inequalities.harnack_conical_bound(alpha, spec, r * 0.9999999 * 1j)
                           / density_at(lam_a, r * 0.9999999 * 1j),
                           M, 1e-5, "trivial",
                           note="exponent tends to 1 at |z| = r"))


# --- hopf -------------------------------------------------------------------

def _add_hopf_limit(report: VerificationReport, name: str, metric: MetricDensity,
                    tol: float, provenance: str):
    """Add the limit row of the Hopf functional of metric against pdisk at
    z = 10^-k, k = 2..8, extrapolated in 1/log(1/|z|) toward -1; return the
    estimate."""
    from . import extrapolation, inequalities

    radii = np.array([10.0 ** (-k) for k in range(2, 9)])
    values = inequalities.hopf_functional(metric, punctured_disk_metric(), radii)
    est = extrapolation.extrapolate(values, xs=inequalities.aux_v(radii))
    report.add(Check.close(name, est.value, -1.0, tol, provenance,
                           note=f"raw value at |z|=1e-8: {values[-1]:.6f}; "
                                f"extrapolated ({est.method})"))
    return est


def suite_hopf(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    pd = punctured_disk_metric()
    report.add(Check.close("identity-functional",
                           inequalities.hopf_functional(pd, pd, 0.037), 0.0, 1e-14,
                           "trivial"))
    tol = cfg.tol("hopf")

    fam = punctured_disk_metric_r(math.e)
    est = _add_hopf_limit(report, "limit[pdiskR:e]", fam, tol, "derived")
    inf_bound = inequalities.hopf_functional(fam, pd, np.arange(1, 10) / 10).min()
    report.add(Check.at_most("limsup<=circle-inf[pdiskR:e]", est.value,
                             inf_bound + 5e-2, "paper",
                             note="limsup bounded by inf over circles of "
                                  "(max log ratio) * log(1/r)"))
    _add_hopf_limit(report, "limit[pull:example1:pdisk]", _pull_example1(), tol, "paper")


def suite_hopf_conical(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    alpha = 0.5
    lam_a = conical_metric(alpha)
    report.add(Check.close("identity-functional",
                           inequalities.hopf_conical_functional(lam_a, alpha, 0.2), 0.0,
                           1e-12, "trivial"))
    radii = np.array([10.0 ** (-k) for k in range(1, 7)])
    for metric, label in [(conical_scaled_metric(alpha, 0.9), "scaled(0.5,0.9)"),
                          (conical_metric(0.3), "conical:0.3 vs alpha=0.5")]:
        values = inequalities.hopf_conical_functional(metric, alpha, radii)
        report.add(Check.at_most(f"limsup-negative[{label}]", values.max(), -0.05, "paper",
                                 note="NonconvergentFunctional: values diverge to -inf, "
                                      "limsup < 0 verified on samples"))


def suite_aux_solutions(cfg: SuiteConfig, report: VerificationReport) -> None:
    from . import inequalities

    report.extend(inequalities.radial_solution_space_check(cfg.tol("aux-h")))


# --- witnesses ----------------------------------------------------------------

def _add_witness_limit(report: VerificationReport, name: str, wl, tol: float, series: str,
                       note: str | None = None, trend_note: str | None = None) -> None:
    """Add a witness functional's limit row (its note wl.note unless note is
    given), its trend row when trend_note is given (the row's note, possibly
    empty), and its sample series, each sample as its modulus."""
    report.add(Check.close(name, wl.extrapolated_limit, wl.expected, tol, "paper",
                           note=wl.note if note is None else note))
    if trend_note is not None:
        report.add(Check.at_least("trend", float(wl.trend_ok), 1.0, 0.0, "tool",
                                  note=trend_note))
    report.add_series(series, [abs(s) for s in wl.sample_points], wl.functional_values)


def suite_phi(cfg: SuiteConfig, report: VerificationReport) -> None:
    from .witnesses import disk_sharpness_functional, phi_expansion_check

    phi = phi_map()
    report.add(Check.close("phi(1)=1", abs(complex(phi.value(1.0)) - 1.0), 0.0,
                           1e-15, "trivial"))
    report.add(Check.close("phi(0)=1/12", complex(phi.value(0.0)).real, 1.0 / 12.0,
                           1e-15, "derived"))
    report.add(Check.close("phi'(1)=1", abs(complex(phi.derivative(1.0)) - 1.0), 0.0,
                           1e-15, "trivial"))
    thetas = np.linspace(1e-4, 2.0 * math.pi - 1e-4, 999)
    boundary = 0.999999 * np.exp(1j * thetas)
    report.add(Check.at_most("selfmap-max|phi|", float(np.abs(phi.value(boundary)).max()),
                             1.0, "paper", note="injective self-map spot check"))
    _add_witness_limit(report, "expansion-limit", phi_expansion_check(),
                       cfg.tol("phi-expansion"), "phi-expansion")
    _add_witness_limit(report, "disk-functional-limit", disk_sharpness_functional(),
                       cfg.tol("disk-functional"), "disk-functional")


def suite_example1(cfg: SuiteConfig, report: VerificationReport) -> None:
    from .witnesses import example1_limit

    f = example1_map()
    report.add(Check.close("|f(0.5)|=0.5e^-3", abs(complex(f.value(0.5))),
                           0.5 * math.exp(-3.0), 1e-15, "derived"))
    pts = sample_log_annular(cfg.seed + 21, 200, 1e-4, 0.999)
    images = np.asarray(f.value(pts))
    # membership, not max|f| <= 1: near |z| = 0.999 f(z) can underflow to 0, the puncture
    report.add(Check(name="maps-pdisk-to-pdisk", value=float(np.abs(images).max()),
                     expected=1.0, tol=0.0,
                     passed=bool(DomainModel.punctured_disk().contains(images).all()),
                     provenance="paper", note="spot check on a polar grid"))
    wl = example1_limit()
    _add_witness_limit(report, "limit", wl, cfg.tol("example1"), "example1-functional",
                       f"raw at |z|=1e-8: {wl.functional_values[-1]:.6f}",
                       "consecutive differences shrink")


def suite_annulus_sharpness(cfg: SuiteConfig, report: VerificationReport, r: float) -> None:
    from .witnesses import annulus_sharpness_limit

    _add_witness_limit(report, "limit", annulus_sharpness_limit(r), cfg.tol("annulus"),
                       "annulus-functional", trend_note="")


# --- comparability / decay ratio ---------------------------------------------------

def suite_comparability(cfg: SuiteConfig, report: VerificationReport) -> None:
    q = 0.1
    c1, c2, gamma = comparability_constants(q)
    report.add(Check.close("c2=log10+pi", c2, math.log(10.0) + math.pi, 1e-14, "paper"))
    antipodal = dist_punctured_disk(-q, q).value
    report.add(Check.close("gamma=antipodal-distance", gamma, antipodal, 1e-9,
                           "derived", note="circle sweep maximum at the antipode"))
    radii = np.geomspace(1e-8, q, 50)
    vals = []
    for arg in (0.0, math.pi / 3.0, math.pi):
        for rho in radii:
            z = rho * complex(math.cos(arg), math.sin(arg))
            vals.append(math.log(1.0 / rho)
                        * math.exp(-2.0 * dist_punctured_disk(z, q).value))
    report.add(Check.at_least("sandwich-lower", min(vals), c1, 1e-12, "paper",
                              note=f"c1={c1!r}"))
    report.add(Check.at_most("sandwich-upper", max(vals), c2 + 1e-12, "paper",
                             note=f"c2={c2!r}"))


def suite_decay_ratio(cfg: SuiteConfig, report: VerificationReport) -> None:
    report.add(Check.close("ratio(0)=1", covering_decay_ratio(0.0), 1.0, 1e-15,
                           "trivial"))
    report.add(Check.close("ratio(0.9)=1/1.9", covering_decay_ratio(0.9), 1.0 / 1.9,
                           1e-12, "derived"))
    report.add(Check.close("ratio(0.999)=1/1.999", covering_decay_ratio(0.999),
                           1.0 / 1.999, cfg.tol("decay-ratio"), "derived"))
    seq = [covering_decay_ratio(1.0 - 10.0 ** (-k)) for k in (1, 2, 3)]
    monotone = all(b < a for a, b in zip(seq, seq[1:]))
    # passes on a conjunction: the sequence decreases and its last value is near 1/2
    report.add(Check(name="monotone-to-half", value=seq[-1], expected=0.5, tol=5e-4,
                     passed=monotone and abs(seq[-1] - 0.5) <= 5e-4,
                     provenance="paper"))


# Each suite once: its runner, called as runner(config, report, *parameters),
# and the tolerances it reads with their defaults (the names that
# SuiteConfig.tolerances and `verify --tol NAME=VALUE` may set). A key ending
# in _PARAM names a suite that takes a number, as in annulus-sharpness:0.5.
_PARAM = ":<r>"
SUITES = {
    "curvature": (suite_curvature, {"curvature": 1e-4}),
    "ahlfors": (suite_ahlfors, {}),
    "beardon-minda": (suite_beardon_minda, {"beardon-minda": 1e-10}),
    "harnack": (suite_harnack, {"harnack": 1e-9}),
    "harnack-conical": (suite_harnack_conical, {"harnack-conical": 1e-9}),
    "hopf": (suite_hopf, {"hopf": 2e-2}),
    "hopf-conical": (suite_hopf_conical, {}),
    "aux-solutions": (suite_aux_solutions, {"aux-h": 1e-4}),
    "phi": (suite_phi, {"phi-expansion": 1e-4, "disk-functional": 1e-3}),
    "example1": (suite_example1, {"example1": 2e-2}),
    "lemma44": (suite_comparability, {}),
    "decay-ratio": (suite_decay_ratio, {"decay-ratio": 1e-12}),
    "annulus-sharpness:<r>": (suite_annulus_sharpness, {"annulus": 1e-2}),
}


def suite_names() -> list[str]:
    """The keys of SUITES, plain names sorted first."""
    return sorted(SUITES, key=lambda key: (key.endswith(_PARAM), key))


def lookup(name: str):
    """(runner, tolerances, canonical name, parameters) of a suite name: its
    SUITES entry, the name with its parameter printed as a float
    (annulus-sharpness:0.5 for annulus-sharpness:0.50), and that parameter as
    a tuple, empty for a plain name. UnknownSuite for a name not in the table
    or a parameter that is not a number."""
    head, colon, text = name.partition(":")
    key = head + _PARAM if colon else name
    if key not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    if not colon:
        return (*SUITES[key], name, ())
    try:
        r = float(text)
    except ValueError:
        raise UnknownSuite(f"bad {head} parameter in {name!r}") from None
    return (*SUITES[key], f"{head}:{r}", (r,))


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run one named suite into a report under its canonical name and the
    config's seed; UnknownSuite for a name that lookup refuses."""
    runner, _, name, params = lookup(config.suite)
    report = VerificationReport(name, seed=config.seed)
    runner(config, report, *params)
    return report
