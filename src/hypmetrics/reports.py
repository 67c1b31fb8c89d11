"""Structured pass/fail verification records.

A Check is one named comparison (computed value vs expected value at a
tolerance, with a provenance tag), decided by one of its rules close, at_most,
at_least or h2_order on float values; a VerificationReport is an ordered
batch of checks for one suite. Serialization is deterministic: floats use the
shortest round-trip representation (repr), and check order is insertion
order.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float
    tol: float
    passed: bool
    provenance: str   # "paper" | "derived" | "trivial" | "tool"
    note: str = ""

    @staticmethod
    def close(name: str, value: float, expected: float, tol: float,
              provenance: str, note: str = "") -> "Check":
        """Passes when |value - expected| <= tol."""
        value, expected, tol = float(value), float(expected), float(tol)
        ok = math.isfinite(value) and abs(value - expected) <= tol
        return Check(name, value, expected, tol, ok, provenance, note)

    @staticmethod
    def at_most(name: str, value: float, bound: float, provenance: str,
                note: str = "") -> "Check":
        """Passes when value <= bound."""
        value, bound = float(value), float(bound)
        return Check(name, value, bound, 0.0, math.isfinite(value) and value <= bound,
                     provenance, note)

    @staticmethod
    def at_least(name: str, value: float, bound: float, tol: float, provenance: str,
                 note: str = "") -> "Check":
        """Passes when value >= bound - tol."""
        value, bound, tol = float(value), float(bound), float(tol)
        return Check(name, value, bound, tol, math.isfinite(value) and value >= bound - tol,
                     provenance, note)

    @staticmethod
    def h2_order(name: str, coarse: float, fine: float, note: str) -> "Check":
        """The O(h^2) rule for errors at steps 10h and h: their ratio (inf
        when the fine error is 0) should be 100, and passes within [50, 200]."""
        ratio = float(coarse / fine) if fine > 0 else math.inf
        return Check(name, ratio, 100.0, 0.0, 50.0 <= ratio <= 200.0, "derived", note)


@dataclass
class VerificationReport:
    suite: str
    checks: List[Check] = field(default_factory=list)
    seed: int | None = None
    # named raw sample series (sample -> functional value), e.g. the points
    # behind an extrapolated witness limit; always emitted alongside
    series: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def add_series(self, name: str, samples, values) -> None:
        self.series[name] = [(float(s), float(v)) for s, v in zip(samples, values)]

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "checks": [
                {"name": c.name, "value": c.value, "expected": c.expected,
                 "tol": c.tol, "pass": c.passed, "provenance": c.provenance,
                 **({"note": c.note} if c.note else {})}
                for c in self.checks
            ],
            "pass": self.passed,
        }
        if self.series:
            out["series"] = {name: [[s, v] for s, v in rows]
                             for name, rows in self.series.items()}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        import csv  # here, so that only CSV output maps the _csv extension (~0.13 MB)
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")  # quotes the names that hold commas
        if self.seed is not None:
            buf.write(f"# suite={self.suite} seed={self.seed}\n")
        rows.writerow(["name", "value", "expected", "tol", "pass", "provenance"])
        rows.writerows([c.name, repr(c.value), repr(c.expected), repr(c.tol),
                        str(c.passed).lower(), c.provenance] for c in self.checks)
        for name, series in self.series.items():
            buf.write(f"# series={name}\n")
            rows.writerow(["sample", "functional_value"])
            rows.writerows([repr(s), repr(v)] for s, v in series)
        return buf.getvalue()
