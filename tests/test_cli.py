"""CLI surface: commands, exit codes, determinism, round-tripping."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hypmetrics
from hypmetrics.cli import main
from hypmetrics.errors import ParseError
from hypmetrics.specparse import parse_domain, parse_map, parse_metric
from hypmetrics.suites import SUITES, SuiteConfig, run_suite, suite_names


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_single_point(capsys):
    code, out, _ = run(capsys, "density", "--domain", "disk", "--z", "0,0")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "re,im,lambda,log_lambda"
    re_, im, lam, loglam = (float(v) for v in row.split(","))
    assert (re_, im, lam, loglam) == (0.0, 0.0, 1.0, 0.0)


def test_density_conical_hand_value(capsys):
    code, out, _ = run(capsys, "density", "--domain", "conical:0.5", "--z", "0.25,0")
    assert code == 0
    lam = float(out.strip().splitlines()[1].split(",")[2])
    assert lam == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_density_grid_deterministic(capsys):
    args = ("density", "--domain", "pull:phi:disk", "--grid", "polar",
            "--grid-n", "12")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_density_pull_spec_matches_library(capsys):
    from hypmetrics.witnesses import _phi_ratio
    code, out, _ = run(capsys, "density", "--domain", "pull:phi:disk",
                       "--z", "0.99,0")
    lam = float(out.strip().splitlines()[1].split(",")[2])
    assert lam == pytest.approx(_phi_ratio(0.99) / (1.0 - 0.99 ** 2), rel=1e-12)


def test_curvature_command(capsys):
    code, out, _ = run(capsys, "curvature", "--metric", "annulus:0.5",
                       "--z", "0.7,0")
    assert code == 0
    kappa = float(out.strip().splitlines()[1].split(",")[2])
    assert kappa == pytest.approx(-4.0, abs=1e-4)


def test_curvature_nan_stencil_is_an_error(capsys):
    code, out, err = run(capsys, "curvature", "--metric", "disk", "--z", "0.3,0", "--h", "nan")
    assert code == 1
    assert out == ""
    assert err == "error: stencil size must be positive, got h=nan\n"


def test_distance_command_formats(capsys):
    code, out, _ = run(capsys, "distance", "--domain", "disk",
                       "--z1", "0,0", "--z2", "0.5,0")
    assert code == 0
    fields = out.strip().split(",")
    assert fields[0] == "distance"
    assert float(fields[1]) == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
    assert fields[2] == "closed_form"

    code, out, _ = run(capsys, "--output", "json", "distance", "--domain", "pdisk",
                       "--z1", "0.01,0", "--z2", "0.1,0")
    payload = json.loads(out)
    assert payload["method"] == "lift_minimization"
    assert payload["deck_index"] == 0
    assert payload["distance"] == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


def test_distance_deck_index_across_branch_cut(capsys):
    # once refused with "deck minimum attained at |k| = 1" under --winding 1
    code, out, _ = run(capsys, "distance", "--domain", "pdisk",
                       "--z1=-0.5,0.1", "--z2=-0.5,-0.1")
    assert code == 0
    assert out.strip().split(",")[2:] == ["lift_minimization", "1"]
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--domain", "pdisk", "--z1=-0.5,0.1", "--z2=-0.5,-0.1",
              "--winding", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["density", "--domain", "halfplane", "--z", "nan,1"],
    ["density", "--domain", "strip:1", "--z", "inf,0.5"],
    ["curvature", "--metric", "halfplane", "--z", "nan,1"],
    ["distance", "--domain", "disk", "--z1", "nan,0", "--z2", "0,0"],
    ["distance", "--domain", "halfplane", "--z1", "0,1", "--z2", "nan,1"],
    ["distance", "--domain", "strip:1", "--z1", "nan,0.5", "--z2", "0,0.5"],
])
def test_nonfinite_point_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "nan" not in out


@pytest.mark.parametrize("argv, exit_code", [
    (["density", "--domain", "strip:inf", "--z", "0,1"], 2),
    (["distance", "--domain", "strip:inf", "--z1", "0,1", "--z2", "1,1"], 2),
    (["density", "--domain", "pdiskR:inf", "--z", "0.5,0"], 2),
    (["distance", "--domain", "pdiskR:inf", "--z1", "0.5,0", "--z2", "0.1,0"], 2),
    (["density", "--domain", "conical:-inf", "--z", "0.5,0"], 2),
    (["liouville", "classify", "--family", "pdiskR", "--R", "nan"], 1),
    (["liouville", "classify", "--family", "pdiskR", "--R", "inf"], 1),
    (["liouville", "classify", "--family", "conical", "--alpha=-inf"], 1),
    (["liouville", "solve", "--w0", "nan", "--dw0", "1", "--t0", "-2", "--t1", "-1"], 1),
    (["liouville", "solve", "--w0", "0", "--dw0", "1", "--t0", "-2", "--t1", "inf"], 1),
])
def test_nonfinite_parameter_is_an_error(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert err.startswith("error:") and "finite" in err
    assert out == ""



def test_oracle_failure_is_an_error(capsys):
    # heights 1e-9 and 1 across 1e6: the solve stalls under heavy damping
    code, out, err = run(capsys, "distance", "--domain", "halfplane", "--z1", "0,1e-9",
                         "--z2", "1e6,1", "--oracle-grid", "100")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_aux_solutions_stencil_outside_the_disk_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "aux-solutions", "--tol", "aux-h=0.5")
    assert code == 1
    assert err.startswith("error:") and "leaves pdisk" in err
    assert out == ""


# Stencils lost to rounding (a point equal to its centre, or h^2 = 0) and a
# curvature whose lambda^2 overflows printed nan or -0.0 with exit 0, or nan
# rows as a verification failure (the half-plane at Re z = 1e17 printed
# -4.000002, right only because its density ignores Re z); each is now a
# typed error.
@pytest.mark.parametrize("argv", [
    ["verify", "aux-solutions", "--tol", "aux-h=1e-300"],
    ["curvature", "--metric", "disk", "--z", "0.3,0", "--h", "1e-300"],
    ["curvature", "--metric", "disk", "--z", "0.3,0", "--h", "1e-160"],
    ["curvature", "--metric", "pdisk", "--z", "1e-300,0"],
    ["curvature", "--metric", "pdisk", "--z", "1e-160,0"],
    ["curvature", "--metric", "halfplane", "--z", "1e17,1"],
], ids=["aux-h", "disk-h-1e-300", "disk-h-1e-160", "pdisk-1e-300", "pdisk-1e-160",
        "halfplane-1e17"])
def test_degenerate_stencil_is_an_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["density", "--domain", "pdisk", "--z", "5e-324,0"],
     "density of pdisk at z=(5e-324+0j) is not finite in double precision"),
    # the grid printed lambda = inf rows here, with a RuntimeWarning and exit 0
    (["density", "--domain", "pdisk", "--grid", "polar", "--grid-n", "2", "--rmin", "5e-324",
      "--rmax", "0.5"], "density of pdisk at z=(5e-324+0j) is not finite in double precision"),
    (["curvature", "--metric", "disk", "--z", "1.2,0"], "z=(1.2+0j) is not in disk"),
    (["curvature", "--metric", "pdisk", "--z", "0,0"], "z=0j is not in pdisk"),
    # a pullback named its whole grid or stencil here, over several lines
    (["density", "--domain", "pull:mobius:0.3,0:pdisk", "--grid", "cartesian", "--grid-n",
      "3", "--half-width", "0.3"], "mobius:0.3,0.0 maps z=(0.3+0j) outside the domain of pdisk"),
    (["curvature", "--metric", "pull:mobius:0.3,0:pdisk", "--z", "0.3,0"],
     "mobius:0.3,0.0 maps z=(0.3+0j) outside the domain of pdisk"),
    (["distance", "--domain", "strip:1e-300", "--z1", "0,5e-301", "--z2", "1e10,5e-301"],
     "distance from z=5e-301j to z=(10000000000+5e-301j) in strip:1e-300 is not finite "
     "in double precision"),
], ids=["density-overflow", "density-grid-overflow", "curvature-off-disk",
        "curvature-at-puncture", "pullback-grid", "pullback-stencil", "strip-distance-overflow"])
def test_point_errors_name_the_point(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_oracle_overflow_is_an_error_without_warnings():
    # The seed's Simpson lengths, the kernel and the energy sum overflowed
    # here, with five RuntimeWarnings before the error, or a RuntimeWarning
    # traceback under -W error.
    src = str(Path(hypmetrics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hypmetrics", "distance", "--domain", "halfplane",
         "--z1", "0,1e-300", "--z2", "1e300,1", "--oracle-grid", "220"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "Warning" not in done.stderr
    assert done.stdout == ""


def test_oracle_on_nearly_coincident_points(capsys):
    code, out, err = run(capsys, "distance", "--domain", "disk", "--z1", "0.3,0",
                         "--z2", "0.3,1e-13", "--oracle-grid", "100")
    assert code == 0 and err == ""
    (_, exact, method, _), (_, oracle, _, _) = (row.split(",") for row in out.splitlines())
    assert method == "closed_form"
    assert float(oracle) == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("domain,z1,z2,expected", [
    ("disk", "0.999999999999,0", "0,0.999999999999", 27.97761682817283),
    ("halfplane", "0,1e-300", "0,1e300", 300.0 * math.log(10.0)),
], ids=["disk-edge", "halfplane-heights"])
def test_extreme_closed_form_distances(capsys, domain, z1, z2, expected):
    # rho rounds to 1 this near the edge, and |dw|^2 overflows at these heights
    code, out, err = run(capsys, "distance", "--domain", domain, "--z1", z1, "--z2", z2)
    assert code == 0 and err == ""
    assert float(out.split(",")[1]) == pytest.approx(expected, rel=1e-14)


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "decay-ratio")
    assert code == 0
    code, _, err = run(capsys, "verify", "not-a-suite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify", "lemma44")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "lemma44"
    assert payload["pass"] is True
    assert payload["seed"] == 42
    for check in payload["checks"]:
        assert {"name", "value", "expected", "tol", "pass", "provenance"} <= set(check)


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "verify", "beardon-minda", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "beardon-minda", "--seed", "7")
    assert out1 == out2
    _, out3, _ = run(capsys, "verify", "beardon-minda", "--seed", "8")
    assert out1 != out3


def test_verify_tolerance_override(capsys):
    # an absurdly tight override flips the hopf suite to failing
    code, _, _ = run(capsys, "verify", "hopf", "--tol", "hopf=1e-12")
    assert code == 1


def test_tolerance_table_lists_what_each_suite_reads():
    # verify --tol accepts the names in a suite's SUITES entry alone, so the
    # entry must list exactly the tolerances the suite reads
    class Reads(dict):
        def get(self, name, default=None):
            self.setdefault(name, default)
            return default

    assert sorted(suite_names()) == sorted(SUITES)
    for key, (_, names) in SUITES.items():
        reads = Reads()
        run_suite(SuiteConfig(key.replace("<r>", "0.5"), tolerances=reads))
        assert reads == names


_AVAILABLE = ("available: ahlfors, aux-solutions, beardon-minda, curvature, decay-ratio, "
              "example1, harnack, harnack-conical, hopf, hopf-conical, lemma44, phi, "
              "annulus-sharpness:<r>")


# stderr and exit code of each bad suite name, captured from the two-table
# code this table replaced; only the annulus radius message moved, from
# "got 2.0" to "got r=2.0", the wording of the annulus domain's own rule
@pytest.mark.parametrize("argv,code,err", [
    (["annulus-sharpness"], 2, f"unknown suite 'annulus-sharpness'; {_AVAILABLE}"),
    (["annulus-sharpness:abc"], 2,
     "bad annulus-sharpness parameter in 'annulus-sharpness:abc'"),
    (["annulus-sharpness:2"], 1, "annulus requires 0 < r < 1, got r=2.0"),
    (["curvature:0.5"], 2, f"unknown suite 'curvature:0.5'; {_AVAILABLE}"),
    (["lemma44:"], 2, f"unknown suite 'lemma44:'; {_AVAILABLE}"),
    (["nope"], 2, f"unknown suite 'nope'; {_AVAILABLE}"),
    (["curvature:0.5", "--tol", "curvature=1"], 2,
     f"unknown suite 'curvature:0.5'; {_AVAILABLE}"),
    (["annulus-sharpness:0.5", "--tol", "zz=1"], 2,
     "--tol 'zz': suite 'annulus-sharpness:0.5' reads 'annulus'"),
], ids=["annulus-bare", "annulus-abc", "annulus-2", "curvature-param", "lemma44-colon", "nope",
        "curvature-param-tol", "annulus-unknown-tol"])
def test_suite_name_errors_are_pinned(capsys, argv, code, err):
    assert run(capsys, "verify", *argv) == (code, "", f"error: {err}\n")


@pytest.mark.parametrize("suite, seed, drawn", [
    ("curvature", "-5", -4), ("beardon-minda", "-20", -9), ("example1", "-30", -9)])
def test_negative_sampling_seed_is_an_error(capsys, suite, seed, drawn):
    # each suite adds its offset to --seed; numpy's traceback ended these runs
    assert run(capsys, "verify", suite, "--seed", seed) == (
        1, "", f"error: seed must be a non-negative integer, got {drawn}\n")


def test_seed_nonnegative_after_the_offset_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "curvature", "--seed", "-1")
    assert code == 0 and out.startswith("# suite=curvature seed=-1\n")


@pytest.mark.parametrize("name", ["annulus-sharpness:0.50", "annulus-sharpness:5e-1"])
def test_suite_parameter_is_printed_canonically(capsys, name):
    code, out, _ = run(capsys, "verify", name)
    assert code == 0
    assert out.startswith("# suite=annulus-sharpness:0.5 seed=42\n")


def test_phi_suite_reports_inconsistent_targets(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify", "phi")
    assert code == 1
    payload = json.loads(out)
    failing = {c["name"]: c for c in payload["checks"] if not c["pass"]}
    assert set(failing) == {"expansion-limit", "disk-functional-limit"}
    assert failing["expansion-limit"]["value"] == pytest.approx(-1.0 / 6.0, abs=1e-4)
    assert failing["disk-functional-limit"]["value"] == pytest.approx(-2.0 / 3.0,
                                                                      abs=1e-3)
    assert "inconsistent" in failing["expansion-limit"]["note"]


def test_rigidity_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "rigidity", "sample", "--metric",
                       "pull:example1:pdisk", "--reference", "pdisk",
                       "--q", "0.5,0")
    assert code == 0
    csv_path = tmp_path / "sample.csv"
    csv_path.write_text(out)
    code, out, _ = run(capsys, "rigidity", "fit", "--input", str(csv_path))
    assert code == 0
    est = json.loads(out)
    assert est["beta"] == pytest.approx(2.0, abs=0.1)
    code, out, _ = run(capsys, "rigidity", "classify", "--input", str(csv_path),
                       "--setting", "puncture")
    assert code == 0
    assert json.loads(out)["classification"] in ("Inconclusive", "StrictlyBelow")


def test_sample_with_a_ratio_above_one_is_an_error(capsys):
    # the ratios run from 1.05 to 1.25, a sample `rigidity fit` refuses
    code, out, err = run(capsys, "rigidity", "sample", "--metric", "pdisk",
                         "--reference", "pull:example1:pdisk")
    assert (code, out, err) == (1, "", "error: ratios must lie in (0, 1]\n")


def test_liouville_solve_csv(capsys):
    code, out, _ = run(capsys, "liouville", "solve", "--w0",
                       repr(-math.log(2.0)), "--dw0", "1", "--t0", "-1",
                       "--t1", "-5", "--steps", "1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,w,lambda,E"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -5.0
    assert first[1] == pytest.approx(-math.log(10.0), abs=1e-9)
    # E = (w')^2 - 4 e^(2w) = 0 for this profile
    assert abs(first[3]) <= 1e-7


def test_liouville_classify_json(capsys):
    code, out, _ = run(capsys, "liouville", "classify", "--family", "conical",
                       "--alpha", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conical"
    assert payload["alpha"] == pytest.approx(0.3, abs=1e-3)


# the JSON branch of each command prints the numbers of its CSV rows; the
# strip density also runs strip_metric's log_eval
@pytest.mark.parametrize("argv", [
    ["density", "--domain", "strip:1", "--z", "0,0.3"],
    ["curvature", "--metric", "annulus:0.5", "--z", "0.7,0"],
    ["distance", "--domain", "pdisk", "--z1", "0.01,0", "--z2", "0.1,0", "--oracle-grid", "100"],
], ids=["density", "curvature", "distance-oracle"])
def test_json_output_matches_the_csv_rows(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, csv_out, _ = run(capsys, *argv)
        json_code, json_out, _ = run(capsys, "--output", "json", *argv)
    assert code == json_code == 0
    lines = [line.split(",") for line in csv_out.splitlines()]
    payload = json.loads(json_out)
    if argv[0] == "distance":
        (_, value, method, deck), (_, oracle, oracle_method, _) = lines
        assert (float(value), method, deck) == (payload["distance"], payload["method"],
                                                str(payload["deck_index"]))
        assert (float(oracle), oracle_method) == (payload["oracle"]["distance"], "grid_oracle")
        assert payload["oracle"]["grid_n"] == 100
    else:
        (header, row) = lines
        numbers = payload["points"][0] if argv[0] == "density" else payload
        assert [float(v) for v in row] == [numbers[k] for k in header]
        assert payload["metric"] == ("strip:1.0" if argv[0] == "density" else "annulus:0.5")


def test_spec_grammar():
    assert parse_metric("disk").label == "disk"
    assert parse_metric("pdiskR:2.5").label == "pdiskR:2.5"
    assert parse_metric("pull:mobius:0.3,0.2:disk").label == \
        "pull:mobius:0.3,0.2:disk"
    nested = parse_metric("pull:square:pull:phi:disk")
    assert nested.label == "pull:square:pull:phi:disk"
    assert parse_domain("annulus:0.5").kind == "annulus"
    m, dom, rest = parse_map("example1")
    assert m.label == "example1" and dom.kind == "pdisk" and rest == ""
    for bad in ("nope", "annulus:2", "pull:phi", "pull:warp:disk", "strip:-1", "pdiskR:nan",
                "pdiskR:inf", "strip:inf", "strip:nan", "conical:-inf", "conical:nan"):
        with pytest.raises(ParseError):
            parse_metric(bad)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--domain", "disk"])  # missing --z1/--z2
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,named", [
    (["density", "--domain", "warp:9", "--z", "0,0"], "warp:9"),
    (["verify", "curvature", "--tol", "curvature=abc"], "abc"),
    (["rigidity", "classify", "--input", "{dir}/good.csv", "--setting", "conical:abc"], "abc"),
    (["rigidity", "classify", "--input", "{dir}/good.csv", "--setting", "conical"],
     "unknown setting 'conical'"),
    (["rigidity", "classify", "--input", "{dir}/good.csv", "--setting", "general:1"],
     "unknown setting 'general:1'"),
    (["rigidity", "fit", "--input", "{dir}/bad.csv"], "abc"),
    (["rigidity", "fit", "--input", "{dir}/missing.csv"], "missing.csv"),
    (["density", "--domain", "disk", "--grid-n", "-1"], "--grid-n"),
    (["density", "--domain", "disk", "--grid-n", "0"], "--grid-n"),
    (["density", "--domain", "pdisk", "--grid", "polar", "--rmin", "0"], "--rmin"),
    (["density", "--domain", "pdisk", "--rmin", "-1"], "--rmin"),
    (["density", "--domain", "pdisk", "--grid", "polar", "--rmin", "0.5", "--rmax", "0.1"],
     "--rmax"),
    (["density", "--domain", "disk", "--half-width", "0"], "--half-width"),
    (["density", "--domain", "disk", "--half-width", "nan"], "--half-width"),
    # these three printed RuntimeWarnings and a partial table, and exited 0
    (["density", "--domain", "disk", "--grid", "polar", "--grid-n", "3", "--rmin", "0.1",
      "--rmax", "inf"], "--rmax"),
    (["density", "--domain", "disk", "--grid", "cartesian", "--half-width", "inf"],
     "--half-width"),
    (["density", "--domain", "disk", "--grid", "cartesian", "--half-width", "1e308"],
     "--half-width"),
    (["rigidity", "sample", "--metric", "pdisk", "--reference", "pdisk", "--kmin", "5",
      "--kmax", "2"], "--kmin"),
    (["verify", "curvature", "--tol", "nonsense=1"], "--tol 'nonsense'"),
    (["verify", "phi", "--tol", "hopf=1"], "--tol 'hopf'"),
    (["verify", "lemma44", "--tol", "lemma44=1"], "--tol 'lemma44'"),
    (["verify", "curvature", "--tol", "curvature=-1"], "--tol 'curvature'"),
    (["verify", "curvature", "--tol", "curvature=nan"], "--tol 'curvature'"),
    (["verify", "aux-solutions", "--tol", "aux-h=inf"], "--tol 'aux-h'"),
], ids=["spec", "tolerance", "setting", "setting-no-order", "setting-with-order", "csv-cell", "missing-csv", "grid-n-negative",
        "grid-n-zero", "rmin-zero", "rmin-negative", "rmin-above-rmax", "half-width-zero",
        "half-width-nan", "rmax-inf", "half-width-inf", "half-width-span-overflow",
        "kmin-above-kmax", "tolerance-unknown", "tolerance-other-suite",
        "tolerance-none-read", "tolerance-negative", "tolerance-nan", "tolerance-inf"])
def test_parse_error_exit_code(tmp_path, capsys, argv, named):
    (tmp_path / "good.csv").write_text("re,im,ratio,distance\n0.1,0,0.5,1.0\n")
    (tmp_path / "bad.csv").write_text("re,im,ratio,distance\n0.1,0,abc,1.0\n")
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert named in err
    assert out == ""


def test_witness_suite_emits_sample_series(capsys):
    code, out, _ = run(capsys, "verify", "example1")
    assert "# series=example1-functional" in out
    assert "sample,functional_value" in out
    code, out, _ = run(capsys, "--output", "json", "verify", "annulus-sharpness:0.5")
    payload = json.loads(out)
    assert len(payload["series"]["annulus-functional"]) == 4
