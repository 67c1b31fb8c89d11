"""Parsers for the metric / domain / map specification grammar, and the
table of builtin spec heads.

Metric specs:
    disk | pdisk | pdiskR:<R> | annulus:<r> | conical:<alpha>
    | halfplane | strip:<h> | pull:<map>:<metric>
Map specs (the heads of maps.MAPS):
    identity | phi | example1 | square | mobius:<a_re>,<a_im>
Domain specs (for distance / oracle commands):
    disk | pdisk | pdiskR:<R> | annulus:<r> | halfplane | strip:<h>

BUILTINS maps each builtin head to its parameter name, its density
constructor and, for the heads that are domain kinds, its distance. A
domain's parameter is passed to both, and each density lives on the whole
of its domain, so domain_metric and domain_distance are table lookups.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .distances import (DistanceResult, _dist_punctured, dist_annulus, dist_disk,
                        dist_halfplane, dist_punctured_disk, dist_strip)
from .domains import KINDS, DomainModel
from .errors import BadParameter, ParseError
from .maps import MAPS, HolomorphicMap
from .metrics import (MetricDensity, annulus_metric, conical_metric,
                      disk_metric, half_plane_metric, pullback,
                      punctured_disk_metric, punctured_disk_metric_r,
                      strip_metric)


class Builtin(NamedTuple):
    param: Optional[str]  # name of the ':' parameter in error messages; None: none
    metric: Callable[..., MetricDensity]
    distance: Optional[Callable[..., DistanceResult]] = None  # None: not a domain


BUILTINS = {
    "disk": Builtin(None, disk_metric, dist_disk),
    "pdisk": Builtin(None, punctured_disk_metric, dist_punctured_disk),
    "pdiskR": Builtin("radius", punctured_disk_metric_r,
                      lambda z1, z2, R: _dist_punctured(DomainModel.punctured_disk_r(R), z1, z2)),
    "annulus": Builtin("inner radius", annulus_metric, dist_annulus),
    "conical": Builtin("conical order", conical_metric),
    "halfplane": Builtin(None, half_plane_metric, dist_halfplane),
    "strip": Builtin("strip height", strip_metric, dist_strip),
}


def parse_float(text: str, what: str) -> float:
    """float(text), or ParseError naming what the text was meant to be."""
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {text!r}") from exc


def _params(domain: DomainModel) -> tuple:
    return () if BUILTINS[domain.kind].param is None else (domain.param,)


def domain_metric(domain: DomainModel) -> MetricDensity:
    """The builtin density of a model domain, on the whole domain."""
    return BUILTINS[domain.kind].metric(*_params(domain))


def domain_distance(domain: DomainModel, z1, z2) -> DistanceResult:
    """Closed-form or lift distance between z1 and z2 in a model domain."""
    return BUILTINS[domain.kind].distance(z1, z2, *_params(domain))


def parse_map(spec: str) -> tuple[HolomorphicMap, DomainModel, str]:
    """Parse a map spec; returns (map, source domain, remainder).

    The remainder is whatever follows the map inside a pull spec (a map that
    takes a parameter, mobius, consumes an extra ':'-separated segment).
    """
    head, _, rest = spec.partition(":")
    if head not in MAPS:
        raise ParseError(f"unknown map {head!r}")
    make, source, takes_param = MAPS[head]
    if not takes_param:
        return make(), source, rest
    params, _, rest = rest.partition(":")
    re_s, _, im_s = params.partition(",")
    a = complex(parse_float(re_s, f"{head} parameter"), parse_float(im_s, f"{head} parameter"))
    try:
        return make(a), source, rest
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc


def _builtin(spec: str, what: str) -> tuple[Builtin, tuple]:
    """Split a builtin spec into its table entry and parsed parameters."""
    head, colon, rest = spec.partition(":")
    entry = BUILTINS.get(head)
    if entry is None or (entry.param is None and colon):
        raise ParseError(f"unknown {what} spec {spec!r}")
    return entry, () if entry.param is None else (parse_float(rest, entry.param),)


def parse_metric(spec: str) -> MetricDensity:
    """Parse a metric spec string into a MetricDensity."""
    try:
        head, _, rest = spec.partition(":")
        if head == "pull":
            m, source, remainder = parse_map(rest)
            if not remainder:
                raise ParseError(f"pull spec {spec!r} is missing a target metric")
            return pullback(parse_metric(remainder), m, source)
        entry, params = _builtin(spec, "metric")
        return entry.metric(*params)
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc


def parse_domain(spec: str) -> DomainModel:
    """Parse a domain spec string into a DomainModel."""
    head = spec.partition(":")[0]
    if head not in KINDS:
        raise ParseError(f"unknown domain spec {spec!r}")
    _, params = _builtin(spec, "domain")
    try:
        return DomainModel(head, *params)
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc
