"""The lazy package namespace, and which modules each CLI command loads."""
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hypmetrics
from hypmetrics.suites import suite_names
from test_cli_contracts import files, success_commands  # noqa: F401 (a fixture)

# every name `hypmetrics` exports, under the module that defines it
EXPORTED = {
    "curvature": ["curvature_at"],
    "distances": ["DistanceMethod", "DistanceResult", "comparability_constants",
                  "covering_decay_ratio", "dist_annulus", "dist_disk", "dist_halfplane",
                  "dist_punctured_disk", "dist_strip"],
    "domains": ["DomainModel"],
    "errors": ["HypMetricsError"],
    "inequalities": ["HarnackBoundSpec", "ahlfors_check", "aux_v", "aux_v_alpha",
                     "beardon_minda_bound", "boundary_max_ratio", "harnack_bound",
                     "harnack_conical_bound", "hopf_conical_functional",
                     "hopf_functional", "radial_solution_space_check"],
    "liouville": ["RadialProfile", "SingularityProfile", "classify_singularity",
                  "closed_form_family", "dichotomy_verify_part_a", "integrate_radial",
                  "radial_rhs"],
    "maps": ["HolomorphicMap", "example1_map", "identity_map", "mobius_map", "phi_map",
             "square_map"],
    "metrics": ["MetricDensity", "annulus_metric", "conical_metric",
                "conical_scaled_metric", "density_at", "disk_metric", "half_plane_metric",
                "log_density_at", "pullback", "punctured_disk_metric",
                "punctured_disk_metric_r", "strip_metric"],
    "oracle": ["geodesic_oracle"],
    "reports": ["Check", "VerificationReport"],
    "rigidity": ["BoundarySequenceSample", "Classification", "DecayEstimate", "Setting",
                 "build_sample", "classify_boundary_condition", "classify_sample",
                 "decay_exponent_fit", "dichotomy_report"],
    "suites": ["SuiteConfig", "run_suite", "suite_names"],
    "witnesses": ["WitnessLimit", "annulus_expected_limit", "annulus_sharpness_limit",
                  "disk_sharpness_functional", "example1_limit", "example1_ratio",
                  "phi_expansion_check"],
}
ALL = [name for names in EXPORTED.values() for name in names]


def test_all_lists_every_exported_name():
    assert len(ALL) == len(set(ALL)) == 70
    assert hypmetrics.__all__ == ALL


@pytest.mark.parametrize("module", EXPORTED)
def test_each_name_is_the_object_its_module_defines(module):
    mod = import_module(f"hypmetrics.{module}")
    for name in EXPORTED[module]:
        obj = getattr(hypmetrics, name)
        assert obj is getattr(mod, name)
        assert obj.__module__ == mod.__name__


def test_dir_and_star_import_list_every_name():
    assert set(ALL) <= set(dir(hypmetrics))
    namespace = {}
    exec("from hypmetrics import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ALL)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hypmetrics.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from hypmetrics import no_such_name", {})


# --- what a command loads ------------------------------------------------------

# Runs each argv of argv[1] as `python -m hypmetrics` does, one after another
# in this one process, and prints each exit code with the modules it loaded
# that no earlier command had.
RUN_COMMANDS = """
import contextlib, io, json, runpy, sys
out = []
for argv in json.loads(sys.argv[1]):
    before, code = set(sys.modules), 0
    sys.argv = ["hypmetrics", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("hypmetrics", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    out.append([code, sorted(set(sys.modules) - before)])
print(json.dumps(out))
"""


def _python(*args) -> str:
    src = str(Path(hypmetrics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def _loaded(commands) -> dict:
    """{command line: (exit code, modules it loaded)}, all run in one fresh process."""
    runs = json.loads(_python("-c", RUN_COMMANDS, json.dumps(commands)))
    return {" ".join(argv): (code, mods) for argv, (code, mods) in zip(commands, runs)}


def _among(mods, prefixes) -> list:
    return [m for m in mods if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_import_loads_no_submodule_and_no_numpy():
    out = _python("-c", "import sys, hypmetrics; "
                        "print(sorted(m for m in sys.modules if m.startswith(('hypmetrics.', "
                        "'numpy'))))")
    assert out.strip() == "[]"


def test_verify_loads_no_oracle_liouville_or_rigidity():
    commands = [["verify", name.replace("<r>", "0.5")] for name in suite_names()]
    assert len(commands) == 13
    for command, (code, mods) in _loaded(commands).items():
        assert code == (1 if command == "verify phi" else 0), command
        assert _among(mods, ["hypmetrics.oracle", "hypmetrics.liouville",
                             "hypmetrics.rigidity", "scipy"]) == [], command
        # sampling draws from its own PCG64, not numpy's
        assert _among(mods, ["numpy.random", "secrets"]) == [], command


def test_verify_curvature_loads_no_spec_parser_and_no_witnesses():
    # specparse serves only --tol, witnesses only the phi, example1 and
    # annulus-sharpness suites, and inequalities and extrapolation only the
    # suites that check an inequality or extrapolate a limit
    [(code, mods)] = _loaded([["verify", "curvature"]]).values()
    assert code == 0 and "hypmetrics.suites" in mods
    assert _among(mods, ["hypmetrics.specparse", "hypmetrics.witnesses",
                         "hypmetrics.inequalities", "hypmetrics.extrapolation"]) == []


def test_other_commands_load_no_suite(files):
    # every success row of the CLI contract table that runs no oracle
    commands = [argv for argv in success_commands(files) if "--oracle-grid" not in argv]
    for command, (code, mods) in _loaded(commands).items():
        assert code == 0, command
        assert _among(mods, ["hypmetrics.suites", "hypmetrics.inequalities",
                             "hypmetrics.witnesses", "hypmetrics.oracle", "scipy"]) == [], \
            command
        assert _among(mods, ["numpy.random", "secrets"]) == [], command


def test_only_the_oracle_loads_lapack():
    # the oracle calls LAPACK through numpy's own linalg extension: no scipy
    # module, and no scipy extension such as linalg/_flapack, is loaded
    command = ["distance", "--domain", "disk", "--z1", "0.1,0", "--z2", "0.5,0.2",
               "--oracle-grid", "100"]
    [(code, mods)] = _loaded([command]).values()
    assert code == 0
    assert "hypmetrics.oracle" in mods
    assert _among(mods, ["hypmetrics.suites", "scipy", "_flapack"]) == []


# --- where densities are read unchecked ------------------------------------------

def test_only_metrics_and_the_oracle_read_densities_unchecked():
    # elsewhere every read is density_at or log_density_at, which check the domain
    package = Path(hypmetrics.__file__).parent
    unchecked = re.compile(r"\.(log_)?eval\(|eval_many\(")
    readers = sorted(path.name for path in package.glob("*.py")
                     if unchecked.search(path.read_text()))
    assert readers == ["metrics.py", "oracle.py"]
