"""`hypmetrics verify` output, byte for byte, against the golden copies in
tests/golden/ (CSV and JSON, seeds 42 and 7, all 13 suites).

The JSON copies also pin the check notes that the CSV drops. A change to any
printed digit must regenerate the affected files and name the changed
values; the `phi` suite exits 1 because its documented-target checks are red
by design.
"""
from pathlib import Path

import pytest

from hypmetrics.cli import main

GOLDEN = Path(__file__).parent / "golden"
SUITES = ["curvature", "ahlfors", "beardon-minda", "harnack", "harnack-conical", "hopf",
          "hopf-conical", "aux-solutions", "phi", "example1", "lemma44", "decay-ratio",
          "annulus-sharpness:0.5"]


def _check_golden(capsys, suite: str, seed: int, output: str) -> None:
    code = main(["verify", suite, "--seed", str(seed), "--output", output])
    out = capsys.readouterr().out
    golden = GOLDEN / f"{suite.replace(':', '-')}.seed{seed}.{output}"
    assert out == golden.read_text()
    assert code == (1 if suite == "phi" else 0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_verify_matches_golden(capsys, suite, seed):
    _check_golden(capsys, suite, seed, "csv")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_verify_json_matches_golden(capsys, suite, seed):
    _check_golden(capsys, suite, seed, "json")
