"""Model hyperbolic domains in the plane.

Every model domain is an open interval lo < c < hi of one coordinate of z,
either c = |z| (radial kinds) or c = Im z (horizontal kinds). KINDS is the
one table of these facts:

    kind        c       lo      hi      parameter
    disk        |z|     -inf    1
    pdisk       |z|     0       1                       (punctured unit disk)
    pdiskR      |z|     0       R       finite R >= 1   (punctured disk of radius R)
    annulus     |z|     r       1       0 < r < 1
    halfplane   Im z    0       inf
    strip       Im z    0       h       finite h > 0

Membership, the Euclidean distance to the edge (min(c - lo, hi - c), used
to shrink finite-difference stencils near the boundary), the singular point
(z = 0 for the radial kinds that exclude it) and the label all follow from
the table. Membership is exact and false for non-finite points; check is
the one test of a given point or array of points, naming the first point
off the domain with the one message "z=... is not in <label>". pointwise is
the one point rule of every checked evaluator: a point is read as an array.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, OutsideDomain, SingularPoint

DISK = "disk"
PUNCTURED_DISK = "pdisk"
PUNCTURED_DISK_R = "pdiskR"
ANNULUS = "annulus"
HALF_PLANE = "halfplane"
STRIP = "strip"


@dataclass(frozen=True)
class Kind:
    """One domain kind: lo < c < hi, with c = |z| when radial, else c = Im z."""
    radial: bool
    bounds: Callable[[float], tuple]  # parameter -> (lo, hi)
    rule: Optional[Callable[[float], bool]] = None  # parameter check; None: no parameter
    message: str = ""  # raised when the rule fails, formatted with the parameter


KINDS = {
    DISK: Kind(True, lambda _: (-math.inf, 1.0)),
    PUNCTURED_DISK: Kind(True, lambda _: (0.0, 1.0)),
    PUNCTURED_DISK_R: Kind(True, lambda R: (0.0, R), lambda R: math.isfinite(R) and R >= 1.0,
                           "punctured disk radius requires finite R >= 1, got R={}"),
    ANNULUS: Kind(True, lambda r: (r, 1.0), lambda r: 0.0 < r < 1.0,
                  "annulus requires 0 < r < 1, got r={}"),
    HALF_PLANE: Kind(False, lambda _: (0.0, math.inf)),
    STRIP: Kind(False, lambda h: (0.0, h), lambda h: math.isfinite(h) and h > 0.0,
                "strip requires finite height h > 0, got h={}"),
}


def pointwise(f):
    """The point rule of an evaluator f(..., z, ...), z given by position: a point goes in as a
    one-element complex array and each value of f (one, or a tuple) comes back as a Python float;
    an array passes through untouched. numpy scalars round powers differently from arrays."""
    at = f.__code__.co_varnames.index("z")

    def rule(*args, **kwargs):
        if np.ndim(args[at]):
            return f(*args, **kwargs)
        out = f(*args[:at], np.array([args[at]], dtype=complex), *args[at + 1:], **kwargs)
        return tuple(float(v[0]) for v in out) if isinstance(out, tuple) else float(out[0])
    return functools.wraps(f)(rule)


@dataclass(frozen=True)
class DomainModel:
    kind: str
    param: float = 0.0
    radial: bool = field(init=False, repr=False, compare=False)
    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = KINDS.get(self.kind)
        if spec is None:
            raise BadParameter(f"unknown domain kind {self.kind!r}")
        if spec.rule is not None and not spec.rule(self.param):
            raise BadParameter(spec.message.format(self.param))
        lo, hi = spec.bounds(self.param)
        object.__setattr__(self, "radial", spec.radial)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # --- constructors -----------------------------------------------------

    @staticmethod
    def disk() -> "DomainModel":
        return DomainModel(DISK)

    @staticmethod
    def punctured_disk() -> "DomainModel":
        return DomainModel(PUNCTURED_DISK)

    @staticmethod
    def punctured_disk_r(R: float) -> "DomainModel":
        return DomainModel(PUNCTURED_DISK_R, float(R))

    @staticmethod
    def annulus(r: float) -> "DomainModel":
        return DomainModel(ANNULUS, float(r))

    @staticmethod
    def half_plane() -> "DomainModel":
        return DomainModel(HALF_PLANE)

    @staticmethod
    def strip(h: float) -> "DomainModel":
        return DomainModel(STRIP, float(h))

    # --- geometry ---------------------------------------------------------

    @property
    def doubly_connected(self) -> bool:
        """True for the radial kinds that exclude z = 0 (punctured disks, annulus)."""
        return self.radial and self.lo >= 0.0

    def contains(self, z):
        """Exact membership predicate. Works on scalars and numpy arrays."""
        z = np.asarray(z, dtype=complex)
        if self.radial:
            c = np.abs(z)  # nan or inf whenever z is not finite
            out = c < self.hi
        else:
            c = z.imag
            out = (c < self.hi) & np.isfinite(z.real)
        if self.lo > -math.inf:  # the disk needs no lower test (hot in the oracle)
            out = out & (c > self.lo)
        return bool(out) if out.ndim == 0 else out

    def check(self, z):
        """z when it lies in the domain, as a complex number or, for a numpy
        array, a complex array. Else the first point off it raises SingularPoint
        at the puncture of a doubly connected kind, OutsideDomain elsewhere."""
        if isinstance(z, np.ndarray) and z.ndim:
            z = np.asarray(z, dtype=complex)
            outside = z[~self.contains(z)]
            if not outside.size:
                return z
            bad = complex(outside[0])
        else:  # the oracle and the distances check one point at a time: keep it cheap
            bad = z = complex(z)
            if self.contains(z):
                return z
        error = SingularPoint if self.doubly_connected and bad == 0.0 else OutsideDomain
        raise error(f"z={bad} is not in {self.label()}")

    @pointwise
    def boundary_distance(self, z):
        """Euclidean distance from z to the domain edge."""
        c = np.abs(z) if self.radial else z.imag
        return np.minimum(c - self.lo, self.hi - c)

    def label(self) -> str:
        if KINDS[self.kind].rule is None:
            return self.kind
        return f"{self.kind}:{self.param}"
