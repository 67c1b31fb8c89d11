"""CLI surface: commands, exit codes, determinism, round-tripping."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypmetrics
from hypmetrics.cli import BLOCK_ROWS, main
from hypmetrics.distances import dist_disk, dist_punctured_disk
from hypmetrics.errors import ParseError
from hypmetrics.liouville import integrate_radial
from hypmetrics.metrics import density_at, log_density_at
from hypmetrics.rigidity import build_sample
from hypmetrics.sampling import cartesian_grid, polar_grid
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


@pytest.mark.parametrize("spec", ["conical:0.3", "pull:phi:disk", "pull:example1:pdisk",
                                  "pull:mobius:0.3,0.2:disk"])
def test_density_at_a_point_prints_its_grid_row(capsys, spec):
    # --z evaluates its point as the grid evaluates each of its points
    code, out, _ = run(capsys, "density", "--domain", spec, "--grid-n", "20")
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) > 300
    for row in rows:
        re_, im = row.split(",")[:2]
        code, out, _ = run(capsys, "density", "--domain", spec, f"--z={re_},{im}")
        assert code == 0 and out.splitlines()[1] == row


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


def test_rigidity_sample_measures_in_the_reference_domain(capsys):
    # the distance column was the punctured-disk distance for every reference:
    # 0.6002726829148101 at z = 0.1, where the disk distance is 0.44897079660297934
    code, out, _ = run(capsys, "rigidity", "sample", "--metric", "pull:phi:disk",
                       "--reference", "disk", "--q", "0.5,0", "--kmin", "1", "--kmax", "3")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for re_, im, _, distance in rows:
        assert distance == dist_disk(complex(re_, im), 0.5).value


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


# --- tables --------------------------------------------------------------------

README_SOLVE = ["liouville", "solve", "--w0", "-0.6931471805599453", "--dw0", "1",
                "--t0", "-1", "--t1", "-5"]


def _whole_table(header, columns, meta, output) -> str:
    """A table built whole, as one string, from its columns."""
    rows = list(zip(*(np.atleast_1d(c).tolist() for c in columns)))
    if output == "json":
        points = [dict(zip(header.split(","), row)) for row in rows]
        return json.dumps({**meta, "points": points}, indent=2) + "\n"
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


def _density_table(spec, pts):
    metric = parse_metric(spec)
    pts = pts[metric.domain.contains(pts)] if isinstance(pts, np.ndarray) else pts
    return ("re,im,lambda,log_lambda",
            (np.real(pts), np.imag(pts), density_at(metric, pts), log_density_at(metric, pts)),
            {"metric": metric.label})


def _solve_table(steps):
    profile = integrate_radial(-math.log(2.0), 1.0, -1.0, -5.0, steps)
    return ("t,w,lambda,E",
            (profile.t_grid, profile.w_values, profile.lambda_values(), profile.first_integral()),
            {"w0": -math.log(2.0), "dw0": 1.0, "t0": -1.0, "t1": -5.0, "steps": steps})


def _sample_table():
    sample = build_sample(parse_metric("pull:example1:pdisk"), parse_metric("pdisk"),
                          [complex(10.0 ** -k, 0.0) for k in range(2, 9)], 0.5,
                          lambda z, q: dist_punctured_disk(z, q).value)
    pts = np.asarray(sample.points)
    return ("re,im,ratio,distance", (pts.real, pts.imag, sample.ratios, sample.distances),
            {"metric": "pull:example1:pdisk", "reference": "pdisk"})


# a single point, an empty grid, a table of two whole blocks and one of a part block:
# name -> (argv, its table from the library, rows)
TABLES = {
    "density-point": (["density", "--domain", "conical:0.5", "--z", "0.25,0"],
                      lambda: _density_table("conical:0.5", 0.25 + 0j), 1),
    "density-empty-grid": (["density", "--domain", "disk", "--grid", "polar", "--grid-n", "1",
                            "--rmin", "2", "--rmax", "3"],
                           lambda: _density_table("disk", polar_grid(1, 2.0, 3.0)), 0),
    "density-grid": (["density", "--domain", "disk", "--grid-n", "32", "--half-width", "0.7"],
                     lambda: _density_table("disk", cartesian_grid(32, 0.7)), 1024),
    "solve-two-blocks": ([*README_SOLVE, "--steps", str(2 * BLOCK_ROWS - 1)],
                         lambda: _solve_table(2 * BLOCK_ROWS - 1), 2 * BLOCK_ROWS),
    "solve-1234": ([*README_SOLVE, "--steps", "1234"], lambda: _solve_table(1234), 1235),
    "sample": (["rigidity", "sample", "--metric", "pull:example1:pdisk", "--reference", "pdisk",
                "--q", "0.5,0"], _sample_table, 7),
}


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("name", TABLES)
def test_table_is_its_whole_string_form(capsys, name, output):
    argv, table, rows = TABLES[name]
    code, out, err = run(capsys, "--output", output, *argv)
    assert (code, err) == (0, "")
    assert out == _whole_table(*table(), output)
    assert len(json.loads(out)["points"] if output == "json" else out.splitlines()[1:]) == rows


@pytest.mark.parametrize("output", ["csv", "json"])
def test_a_table_is_written_a_block_at_a_time(monkeypatch, output):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["--output", output, *README_SOLVE, "--steps", "20000"]) == 0
    monkeypatch.undo()
    rows_per_write = [w.count("\n") if output == "csv" else w.count("{") for w in writes]
    assert max(rows_per_write) == BLOCK_ROWS
    assert len(writes) == 1 + math.ceil(20001 / BLOCK_ROWS) + (output == "json")
    assert "".join(writes) == _whole_table(*_solve_table(20000), output)


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


@pytest.mark.parametrize("argv", [["density", "--domain", "disk", "--z", "0,0", "--seed", "3"],
                                  ["--seed", "3", "verify", "lemma44"]])
def test_seed_is_accepted_by_verify_alone(capsys, argv):
    # every command, and the top level, once took a --seed that only verify reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert run(capsys, "verify", "lemma44", "--seed", "3")[1].startswith(
        "# suite=lemma44 seed=3\n")


@pytest.mark.parametrize("argv", [["verify", "lemma44", "--output", "json"],
                                  ["liouville", "--output", "json", "classify", "--family", "pdisk"]])
def test_output_is_accepted_before_the_command_alone(capsys, argv):
    # verify and the other first-level commands also took --output, and the
    # leaf commands of rigidity and liouville did not
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert json.loads(run(capsys, "--output", "json", "verify", "lemma44")[1])["suite"] == "lemma44"


def test_witness_suite_emits_sample_series(capsys):
    code, out, _ = run(capsys, "verify", "example1")
    assert "# series=example1-functional" in out
    assert "sample,functional_value" in out
    code, out, _ = run(capsys, "--output", "json", "verify", "annulus-sharpness:0.5")
    payload = json.loads(out)
    assert len(payload["series"]["annulus-functional"]) == 4
