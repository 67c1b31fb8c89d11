"""`hypmetrics verify` output, byte for byte, against the golden copies in
tests/golden/ (CSV and JSON, seeds 42 and 7, all 13 suites).

The JSON copies also pin the check notes that the CSV drops. A change to any
printed digit must regenerate the affected files and name the changed
values; the `phi` suite exits 1 because its documented-target checks are red
by design. No suite writes to stderr, and warnings are errors
(pyproject.toml), so a suite that warns fails here.
"""
import csv
import itertools
from pathlib import Path

import pytest

from hypmetrics import suites
from hypmetrics.cli import main

GOLDEN = Path(__file__).parent / "golden"
# every suite in the table, parametrized ones at 0.5: a suite added without
# golden files fails here
SUITES = [key.replace("<r>", "0.5") for key in suites.SUITES]


def _check_golden(capsys, suite: str, seed: int, output: str) -> None:
    code = main(["--output", output, "verify", suite, "--seed", str(seed)])
    out = capsys.readouterr()
    golden = GOLDEN / f"{suite.replace(':', '-')}.seed{seed}.{output}"
    assert (out.out, out.err) == (golden.read_text(), "")
    assert code == (1 if suite == "phi" else 0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_verify_matches_golden(capsys, suite, seed):
    _check_golden(capsys, suite, seed, "csv")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_verify_json_matches_golden(capsys, suite, seed):
    _check_golden(capsys, suite, seed, "json")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda path: path.name)
def test_golden_csv_check_rows_have_six_fields(path):
    # names such as kappa+4[pull:mobius:0.3,0.2:disk] were written unquoted, so a
    # CSV reader split their rows into 7 or 8 fields under a 6-field header
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows.index(["name", "value", "expected", "tol", "pass", "provenance"])
    checks = list(itertools.takewhile(lambda row: not row[0].startswith("# series="),
                                      rows[header + 1:]))
    assert checks and all(len(row) == 6 for row in checks)
