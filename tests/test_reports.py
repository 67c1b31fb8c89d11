"""The pass rules of reports.Check and the serialization of a report."""
import json
import math

import numpy as np
import pytest

from hypmetrics.reports import Check, VerificationReport


@pytest.mark.parametrize("rule, args", [
    ("close", (np.float64(0.5), np.float64(0.5), np.float64(0.0))),
    ("at_most", (np.float64(0.5), 1.0)),
    ("at_least", (np.float64(0.5), 0.0, 0.0)),
], ids=["close", "at_most", "at_least"])
def test_numpy_scalars_store_plain_values_and_serialize(rule, args):
    # a numpy scalar stored a numpy.bool, which json.dumps refused
    check = getattr(Check, rule)("a", *args, "paper")
    assert type(check.passed) is bool and check.passed
    assert all(type(v) is float for v in (check.value, check.expected, check.tol))
    report = VerificationReport("s", [check], seed=1)
    assert json.loads(report.to_json())["checks"][0]["pass"] is True
    assert report.to_csv().splitlines()[-1] == "a,0.5,{!r},{!r},true,paper".format(
        check.expected, check.tol)


def test_at_least_passes_within_its_printed_tolerance():
    below = Check.at_least("a", 1.0 - 1e-12, 1.0, 1e-12, "paper", note="n")
    assert below == Check("a", 1.0 - 1e-12, 1.0, 1e-12, True, "paper", "n")
    assert not Check.at_least("a", 1.0 - 3e-12, 1.0, 1e-12, "paper").passed
    assert Check.at_least("a", 2.0, 1.0, 0.0, "paper").passed
    for value in (math.nan, math.inf, -math.inf):
        assert not Check.at_least("a", value, 1.0, 0.0, "paper").passed
