"""Command-line front end.

Subcommands:

    density    evaluate a metric density at a point or on a grid (CSV/JSON)
    curvature  discrete Gauss curvature at a point
    distance   hyperbolic distance in a model domain (closed form / lift /
               optional geodesic-oracle cross-check)
    verify     run a named verification suite; exit 0 iff all checks pass
    rigidity   fit/classify boundary decay exponents from CSV samples
    liouville  integrate the radial curvature ODE / classify singularities

`--output csv|json` goes before the command. `rigidity fit`, `rigidity
classify` and `liouville classify` print JSON under either value.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 usage or
parse error. Output is deterministic: floats are serialized with their
shortest round-trip representation and all sampling is seeded.

The three tables (`density`, `liouville solve`, `rigidity sample`) go through
one writer, as CSV or, under `--output json`, as {..., "points": [{column:
value}, ...]}. It formats and writes BLOCK_ROWS rows at a time from the
column arrays, so a table's memory is its arrays and one block of text, and
it starts only once every value is computed, so an error leaves stdout empty.

Each handler imports the modules it calls, so a command loads only what it
runs: `verify` loads no oracle, liouville or rigidity module, the other
commands load no suite, and only `distance --oracle-grid` loads the oracle.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import BadParameter, HypMetricsError, ParseError, UnknownSuite

BLOCK_ROWS = 512  # table rows formatted and written at a time


def _parse_complex(text: str) -> complex:
    try:
        re_s, _, im_s = text.partition(",")
        return complex(float(re_s), float(im_s or "0"))
    except ValueError as exc:
        raise ParseError(f"bad point {text!r}, expected <re>,<im>") from exc


def _parse_tols(items, suite: str) -> dict:
    """--tol NAME=VALUE overrides: names the suite reads, finite values >= 0."""
    from .suites import lookup

    known = lookup(suite)[1]
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad --tol override {item!r}, expected name=value")
        if name not in known:
            raise ParseError(f"--tol {name!r}: suite {suite!r} reads "
                             + (", ".join(map(repr, known)) or "no tolerance"))
        from .specparse import parse_float

        tol = parse_float(value, f"--tol value for {name!r}")
        if not 0.0 <= tol < math.inf:
            raise ParseError(f"--tol {name!r} must be finite and >= 0, got {value!r}")
        out[name] = tol
    return out


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _write_table(output: str, names: str, columns, meta: dict) -> None:
    """Write equal-length 1-d float arrays as a table with the comma-separated
    column `names`, BLOCK_ROWS rows per write: CSV (a header, then one line of
    shortest round-trip floats per row), or the bytes of json.dumps({**meta,
    "points": [{name: value, ...}, ...]}, indent=2)."""
    write, n = sys.stdout.write, len(columns[0])
    if output == "json":
        head, tail = json.dumps({**meta, "points": []}, indent=2).rsplit("[]", 1)
        write(head + "[")
        row = (",\n    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in names.split(","))
               + "\n    }")
        fmt = _json_float
    else:
        write(names + "\n")
        row, fmt = ",".join(["%s"] * len(columns)) + "\n", repr
    for start in range(0, n, BLOCK_ROWS):
        cells = zip(*(map(fmt, c[start:start + BLOCK_ROWS].tolist()) for c in columns))
        text = "".join(row % r for r in cells)
        write(text[1:] if output == "json" and not start else text)  # no comma before row 0
    if output == "json":
        write(("\n  ]" if n else "]") + tail + "\n")


# --- subcommand handlers ----------------------------------------------------

def _cmd_density(args) -> int:
    import numpy as np

    from .metrics import density_at, log_density_at
    from .sampling import cartesian_grid, polar_grid
    from .specparse import parse_metric

    metric = parse_metric(args.domain)
    if args.z is not None:  # a --z point off the domain is an error
        pts = _parse_complex(args.z)
    else:  # grid points off the domain are skipped
        if args.grid_n < 1:
            raise ParseError(f"--grid-n must be at least 1, got {args.grid_n}")
        if not 0.0 < args.rmin < args.rmax < math.inf:
            raise ParseError(f"need 0 < --rmin < --rmax < inf, got {args.rmin} and {args.rmax}")
        if not 0.0 < 2.0 * args.half_width < math.inf:  # the grid spans 2 --half-width
            raise ParseError(f"--half-width must be positive and at most half the double "
                             f"range, got {args.half_width}")
        if args.grid == "polar":
            pts = polar_grid(args.grid_n, args.rmin, args.rmax)
        else:
            pts = cartesian_grid(args.grid_n, args.half_width)
        pts = pts[metric.domain.contains(pts)]
    columns = (np.real(pts), np.imag(pts), density_at(metric, pts), log_density_at(metric, pts))
    _write_table(args.output, "re,im,lambda,log_lambda", [np.atleast_1d(c) for c in columns],
                 {"metric": metric.label})
    return 0


def _cmd_curvature(args) -> int:
    from .curvature import curvature_at
    from .specparse import parse_metric

    metric = parse_metric(args.metric)
    z = _parse_complex(args.z)
    kappa, h_used = curvature_at(metric, z, args.h, full_output=True)
    if args.output == "json":
        _emit(json.dumps({"metric": metric.label, "re": z.real, "im": z.imag,
                          "kappa": kappa, "h_used": h_used}, indent=2))
    else:
        _emit("re,im,kappa,h_used\n" + ",".join(map(repr, (z.real, z.imag, kappa, h_used))))
    return 0


def _cmd_distance(args) -> int:
    from .specparse import domain_distance, parse_domain

    domain = parse_domain(args.domain)
    z1, z2 = _parse_complex(args.z1), _parse_complex(args.z2)
    res = domain_distance(domain, z1, z2)
    deck = "" if res.deck_index is None else str(res.deck_index)
    lines = [f"distance,{res.value!r},{res.method.value},{deck}"]
    if args.oracle_grid:
        from .oracle import geodesic_oracle

        try:
            oracle = geodesic_oracle(domain, z1, z2, grid_n=args.oracle_grid)
        except BadParameter as exc:  # the oracle's own check of grid_n
            raise ParseError(f"--oracle-grid: {exc}") from exc
        lines.append(f"distance,{oracle.value!r},{oracle.method.value},")
    if args.output == "json":
        out = {"distance": res.value, "method": res.method.value,
               "deck_index": res.deck_index}
        if args.oracle_grid:
            out["oracle"] = {"distance": oracle.value, "grid_n": args.oracle_grid}
        _emit(json.dumps(out, indent=2))
    else:
        _emit("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from .suites import SuiteConfig, run_suite

    config = SuiteConfig(suite=args.suite, seed=args.seed,
                         tolerances=_parse_tols(args.tol, args.suite))
    report = run_suite(config)
    _emit(report.to_json() if args.output == "json" else report.to_csv())
    return 0 if report.passed else 1


def _read_sample_csv(path: str) -> BoundarySequenceSample:
    import csv as _csv

    from .rigidity import BoundarySequenceSample
    from .specparse import parse_float

    try:
        with open(path, newline="") as fh:
            reader = _csv.DictReader(fh)
            cols = {"re", "im", "ratio", "distance"}
            if reader.fieldnames is None or not cols.issubset(set(reader.fieldnames)):
                raise ParseError(f"CSV must have header columns {sorted(cols)}")
            points, ratios, distances = [], [], []
            for row in reader:
                re_, im, ratio, dist = (
                    parse_float(row[c], f"{c} value on line {reader.line_num} of {path}")
                    for c in ("re", "im", "ratio", "distance"))
                points.append(complex(re_, im))
                ratios.append(ratio)
                distances.append(dist)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    if not points:
        raise ParseError("CSV contains no data rows")
    return BoundarySequenceSample(tuple(points), tuple(ratios),
                                  tuple(distances)).sorted_by_distance()


def _estimate_json(est, classification=None) -> str:
    out = {"beta": est.beta, "c": est.c, "r2": est.r2, "regressor": est.regressor,
           "n_used": est.n_used, "n_equality": est.n_equality}
    if classification is not None:
        out["classification"] = classification.value
    return json.dumps(out, indent=2)


def _cmd_rigidity(args) -> int:
    import numpy as np

    from .rigidity import Setting, build_sample, classify_sample, decay_exponent_fit
    from .specparse import domain_distance, parse_float, parse_metric

    if args.action == "fit":
        est = decay_exponent_fit(_read_sample_csv(args.input))
        _emit(_estimate_json(est))
        return 0
    if args.action == "classify":
        name, colon, order = args.setting.partition(":")
        settings = {"general": Setting.general, "puncture": Setting.puncture,
                    "conical:": lambda: Setting.conical(parse_float(order, "conical order"))}
        if name + colon not in settings:
            raise ParseError(f"unknown setting {args.setting!r}")
        est = classify_sample(_read_sample_csv(args.input), settings[name + colon](),
                              margin=args.margin)
        _emit(_estimate_json(est, est.classification))
        return 0
    # sample: emit a fit-ready CSV for a metric/reference pair at |z| = 10^-k
    metric = parse_metric(args.metric)
    reference = parse_metric(args.reference)
    q = _parse_complex(args.q)
    if args.kmin > args.kmax:
        raise ParseError(f"need --kmin <= --kmax, got {args.kmin} and {args.kmax}")
    if args.kmin < -308:  # |z| = 10^-kmin past the double range
        raise ParseError(f"--kmin must be at least -308, got {args.kmin}")
    sample = build_sample(metric, reference,
                          [complex(10.0 ** (-k), 0.0) for k in range(args.kmin, args.kmax + 1)],
                          q, lambda z, q: domain_distance(reference.domain, z, q).value)
    pts = np.asarray(sample.points)
    _write_table(args.output, "re,im,ratio,distance",
                 (pts.real, pts.imag, np.asarray(sample.ratios), np.asarray(sample.distances)),
                 {"metric": metric.label, "reference": reference.label})
    return 0


def _cmd_liouville(args) -> int:
    from .liouville import classify_singularity, closed_form_family, integrate_radial

    if args.action == "solve":
        profile = integrate_radial(args.w0, args.dw0, args.t0, args.t1, args.steps)
        _write_table(args.output, "t,w,lambda,E",
                     (profile.t_grid, profile.w_values, profile.lambda_values(),
                      profile.first_integral()),
                     {"w0": args.w0, "dw0": args.dw0, "t0": args.t0, "t1": args.t1,
                      "steps": args.steps})
        return 0
    # classify; each family reads only its own parameters
    profile = closed_form_family(args.family, R=args.R, alpha=args.alpha, c=args.c)
    prof = classify_singularity(profile)
    out = {"family": profile.derivation, "kind": prof.kind,
           "remainder_bound": prof.remainder_bound}
    if prof.alpha is not None:
        out["alpha"] = prof.alpha
    _emit(json.dumps(out, indent=2))
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser. `--output` is an option of the program, so it goes before the command."""
    p = argparse.ArgumentParser(prog="hypmetrics",
                                description="verification toolkit for negatively "
                                            "curved conformal metrics")
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="evaluate a metric density")
    d.add_argument("--domain", required=True, help="metric spec (e.g. disk, pull:phi:disk)")
    d.add_argument("--z", help="single point <re>,<im>")
    d.add_argument("--grid", choices=("cartesian", "polar"), default="cartesian")
    d.add_argument("--grid-n", type=int, default=20)
    d.add_argument("--rmin", type=float, default=1e-3)
    d.add_argument("--rmax", type=float, default=0.95)
    d.add_argument("--half-width", type=float, default=0.95)
    d.set_defaults(func=_cmd_density)

    c = sub.add_parser("curvature", help="discrete Gauss curvature at a point")
    c.add_argument("--metric", required=True)
    c.add_argument("--z", required=True)
    c.add_argument("--h", type=float, default=1e-3)
    c.set_defaults(func=_cmd_curvature)

    t = sub.add_parser("distance", help="hyperbolic distance in a model domain")
    t.add_argument("--domain", required=True)
    t.add_argument("--z1", required=True)
    t.add_argument("--z2", required=True)
    t.add_argument("--oracle-grid", type=int, default=0,
                   help="also run the geodesic oracle with this many path points")
    t.set_defaults(func=_cmd_distance)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="tolerance override (repeatable)")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("rigidity", help="boundary decay-rate fitting")
    rsub = r.add_subparsers(dest="action", required=True)
    rf = rsub.add_parser("fit")
    rf.add_argument("--input", required=True, help="CSV with re,im,ratio,distance")
    rc = rsub.add_parser("classify")
    rc.add_argument("--input", required=True)
    rc.add_argument("--setting", required=True,
                    help="general | puncture | conical:<alpha>")
    rc.add_argument("--margin", type=float, default=0.1)
    rs = rsub.add_parser("sample")
    rs.add_argument("--metric", required=True)
    rs.add_argument("--reference", required=True)
    rs.add_argument("--q", default="0.5,0")
    rs.add_argument("--kmin", type=int, default=2)
    rs.add_argument("--kmax", type=int, default=8)
    r.set_defaults(func=_cmd_rigidity)

    l = sub.add_parser("liouville", help="radial curvature ODE")
    lsub = l.add_subparsers(dest="action", required=True)
    ls = lsub.add_parser("solve")
    ls.add_argument("--w0", type=float, required=True)
    ls.add_argument("--dw0", type=float, required=True)
    ls.add_argument("--t0", type=float, required=True)
    ls.add_argument("--t1", type=float, required=True)
    ls.add_argument("--steps", type=int, default=10000)
    lc = lsub.add_parser("classify")
    lc.add_argument("--family", required=True,
                    choices=("pdisk", "pdiskR", "conical", "conical-scaled"))
    lc.add_argument("--R", type=float, default=1.0)
    lc.add_argument("--alpha", type=float, default=0.0)
    lc.add_argument("--c", type=float, default=1.0)
    l.set_defaults(func=_cmd_liouville)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
