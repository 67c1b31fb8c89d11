"""CLI surface: commands, exit codes, determinism, round-tripping."""
import json
import math
import os
import subprocess
import sys
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


def test_oracle_overflow_is_an_error_without_warnings():
    # The seed's Simpson lengths, the kernel and the energy sum overflowed
    # here, with five RuntimeWarnings before the error, or a RuntimeWarning
    # traceback under -W error. The oracle loads LAPACK once per process, so
    # only a fresh process shows a warning from that load; the in-process row
    # is `oracle-overflow` in test_cli_contracts.py.
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


# conical 0.99 and 0.9999 were unclassified and logarithmic before the first
# integral classified them
@pytest.mark.parametrize("alpha", ["0.99", "0.9999"])
def test_liouville_classify_json_near_one(capsys, alpha):
    code, out, _ = run(capsys, "liouville", "classify", "--family", "conical",
                       "--alpha", alpha)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conical"
    assert payload["alpha"] == pytest.approx(float(alpha), abs=1e-3)


# the JSON branch of each command prints the numbers of its CSV rows; the
# strip density also runs strip_metric's log_eval
@pytest.mark.parametrize("argv", [
    ["density", "--domain", "strip:1", "--z", "0,0.3"],
    ["curvature", "--metric", "annulus:0.5", "--z", "0.7,0"],
    ["distance", "--domain", "pdisk", "--z1", "0.01,0", "--z2", "0.1,0", "--oracle-grid", "100"],
], ids=["density", "curvature", "distance-oracle"])
def test_json_output_matches_the_csv_rows(capsys, argv):
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


def test_witness_suite_emits_sample_series(capsys):
    code, out, _ = run(capsys, "verify", "example1")
    assert "# series=example1-functional" in out
    assert "sample,functional_value" in out
    code, out, _ = run(capsys, "--output", "json", "verify", "annulus-sharpness:0.5")
    payload = json.loads(out)
    assert len(payload["series"]["annulus-functional"]) == 4
