"""The six model domain kinds: membership, edge distance, labels, specs."""
import math
import re

import numpy as np
import pytest

from hypmetrics import inequalities
from hypmetrics.curvature import curvature_at
from hypmetrics.domains import DomainModel
from hypmetrics.errors import BadParameter, OutsideDomain, ParseError, SingularPoint
from hypmetrics.metrics import density_at, log_density_at, punctured_disk_metric
from hypmetrics.sampling import sample_annular
from hypmetrics.specparse import parse_domain, parse_metric

NAN, INF = math.nan, math.inf

# spec -> (domain, points inside, points outside including the edges,
#          (z, Euclidean distance from z to the edge), singular at 0)
CASES = {
    "disk": (DomainModel.disk(), [0j, 0.5j, -0.99, 0.6 + 0.7j],
             [1.0, -1j, 2.0 + 2j], (0.25j, 0.75), False),
    "pdisk": (DomainModel.punctured_disk(), [0.5, -0.99j, 1e-300],
              [0j, 1.0, -1j, 2.0], (0.25, 0.25), True),
    "pdiskR:2.5": (DomainModel.punctured_disk_r(2.5), [0.5, 2.4j, 1e-300],
                   [0j, 2.5, -2.5j, 3.0], (2.0, 0.5), True),
    "annulus:0.5": (DomainModel.annulus(0.5), [0.6j, -0.99, 0.7 + 0.1j],
                    [0j, 0.1, 0.5, -0.5j, 1.0, 2.0], (0.75, 0.25), True),
    "halfplane": (DomainModel.half_plane(), [1j, -5.0 + 1e-9j, 1e6 + 1e6j],
                  [0j, 3.0, -1j], (7.0 + 2j, 2.0), False),
    "strip:2.0": (DomainModel.strip(2.0), [1j, -100.0 + 1.9j, 1e-9j],
                  [0j, 2j, 3.0 + 3j, -1j], (5.0 + 0.5j, 0.5), False),
}
SPECS = list(CASES)

# None of these is a point of any domain; the first three lie in the open
# coordinate interval of the half-plane and the strip.
NONFINITE = [complex(NAN, 0.5), complex(INF, 0.5), complex(-INF, 0.5),
             complex(0.5, NAN), complex(0.5, INF), complex(NAN, NAN), complex(INF, 0.0)]


@pytest.mark.parametrize("spec", SPECS)
def test_contains_scalar_and_array(spec):
    dom, inside, outside, _, _ = CASES[spec]
    for z in inside:
        assert dom.contains(z) is True
    for z in outside:
        assert dom.contains(z) is False
    got = dom.contains(np.array(inside + outside, dtype=complex))
    assert isinstance(got, np.ndarray) and got.dtype == bool
    assert got.tolist() == [True] * len(inside) + [False] * len(outside)


@pytest.mark.parametrize("spec", SPECS)
def test_contains_rejects_nonfinite(spec):
    dom = CASES[spec][0]
    for z in NONFINITE:
        assert dom.contains(z) is False, z
    assert not dom.contains(np.array(NONFINITE)).any()


@pytest.mark.parametrize("spec", SPECS)
def test_boundary_distance_and_singular_point(spec):
    dom, inside, outside, (z, edge), singular = CASES[spec]
    assert dom.boundary_distance(z) == edge
    for p in inside:
        assert dom.check(p) == p and type(dom.check(p)) is complex
    for p in outside + NONFINITE:
        with pytest.raises(OutsideDomain) as info:
            dom.check(p)
        assert str(info.value) == f"z={complex(p)} is not in {spec}"
        assert isinstance(info.value, SingularPoint) is (singular and p == 0.0)


@pytest.mark.parametrize("spec", SPECS)
def test_check_on_an_array_names_the_first_point_outside(spec):
    dom, inside, outside, _, singular = CASES[spec]
    got = dom.check(np.array(inside))  # a real array comes back complex
    assert got.dtype == complex and got.tolist() == inside
    assert dom.check(np.array(inside).reshape(1, -1)).shape == (1, len(inside))
    pts = np.array(inside[:1] + outside + inside[1:] + NONFINITE)
    with pytest.raises(OutsideDomain, match=rf"^z={re.escape(str(complex(outside[0])))} "):
        dom.check(pts)
    if not dom.contains(0j):  # the puncture, or a point of the edge
        with pytest.raises(OutsideDomain, match=r"^z=0j ") as info:
            dom.check(np.array(inside + [0.0] + outside))
        assert isinstance(info.value, SingularPoint) is singular


@pytest.mark.parametrize("spec", SPECS)
def test_label_and_spec_round_trip(spec):
    dom = CASES[spec][0]
    assert dom.label() == spec
    assert parse_domain(spec) == dom
    assert parse_domain(dom.label()) == dom
    metric = parse_metric(spec)
    assert metric.label == spec
    assert parse_metric(metric.label).label == spec


@pytest.mark.parametrize("kind, param, message", [
    ("pdiskR", 0.5, "punctured disk radius requires finite R >= 1, got R=0.5"),
    ("pdiskR", INF, "punctured disk radius requires finite R >= 1, got R=inf"),
    ("pdiskR", NAN, "punctured disk radius requires finite R >= 1, got R=nan"),
    ("annulus", 1.0, "annulus requires 0 < r < 1, got r=1.0"),
    ("annulus", 0.0, "annulus requires 0 < r < 1, got r=0.0"),
    ("annulus", INF, "annulus requires 0 < r < 1, got r=inf"),
    ("annulus", -INF, "annulus requires 0 < r < 1, got r=-inf"),
    ("annulus", NAN, "annulus requires 0 < r < 1, got r=nan"),
    ("strip", -1.0, "strip requires finite height h > 0, got h=-1.0"),
    ("strip", NAN, "strip requires finite height h > 0, got h=nan"),
    ("strip", INF, "strip requires finite height h > 0, got h=inf"),
    ("strip", -INF, "strip requires finite height h > 0, got h=-inf"),
    ("moon", 0.0, "unknown domain kind 'moon'"),
])
def test_parameter_errors(kind, param, message):
    with pytest.raises(BadParameter) as exc:
        DomainModel(kind, param)
    assert str(exc.value) == message
    if kind != "moon":
        with pytest.raises(ParseError) as exc:
            parse_domain(f"{kind}:{param}")
        assert str(exc.value) == message


@pytest.mark.parametrize("bad", ["conical:0.5", "pull:phi:disk", "disk:1", "annulus",
                                 "annulus:x", "strip:", "moon"])
def test_parse_domain_rejects(bad):
    with pytest.raises(ParseError):
        parse_domain(bad)


# The point rule (domains.pointwise), on every checked evaluator: a point read on
# its own gives the bits it gives inside an array, as a Python float. Every point,
# 0.01 <= |z| <= 0.45, lies in pdisk and inside the Harnack radius r = 0.5.
_EXAMPLE1 = parse_metric("pull:example1:pdisk")
_SPEC = inequalities.HarnackBoundSpec(0.5, 0.7)
EVALUATORS = {
    "density_at": lambda z: density_at(_EXAMPLE1, z),
    "log_density_at": lambda z: log_density_at(_EXAMPLE1, z),
    "boundary_distance": DomainModel.punctured_disk().boundary_distance,
    "exponent": _SPEC.exponent,
    "harnack_bound": lambda z: inequalities.harnack_bound(_SPEC, punctured_disk_metric(), z),
    "harnack_conical_bound": lambda z: inequalities.harnack_conical_bound(0.3, _SPEC, z),
    "aux_v": inequalities.aux_v,
    "aux_v_alpha": lambda z: inequalities.aux_v_alpha(0.3, z),
    "hopf_functional": lambda z: inequalities.hopf_functional(
        _EXAMPLE1, punctured_disk_metric(), z),
    "hopf_conical_functional": lambda z: inequalities.hopf_conical_functional(_EXAMPLE1, 0.3, z),
    "curvature_at": lambda z: curvature_at(_EXAMPLE1, z),
}


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_a_point_gives_alone_the_bits_it_gives_in_an_array(name):
    evaluate = EVALUATORS[name]
    pts = sample_annular(7, 2000, 0.01, 0.45)
    in_array = evaluate(pts).tolist()
    alone = [evaluate(z) for z in pts.tolist()]
    assert {type(v) for v in alone} == {float}
    assert [v.hex() for v in alone] == [v.hex() for v in in_array]
