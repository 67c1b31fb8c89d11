"""The CLI's contracts, one row per command, each run through `cli.main`.

A row is (id, argv, exit code, message):
- an error row (exit 1 or 2) prints exactly `error: <message>` on stderr and
  nothing on stdout;
- a success row (exit 0, message None) runs with `--output csv` and with
  `--output json`; each exits 0 with nothing on stderr, and the JSON run
  prints one JSON value, with no `Infinity` and no `NaN`.

Warnings are errors in every test (pyproject.toml), so a command that warns
fails its row. `{dir}` in an argv or a message is a directory holding
good.csv, bad.csv, one_distance.csv and sample.csv, the last written by
SAMPLE_ARGV, the README's `rigidity sample`. A new command, or a new input
the CLI must refuse, is added here as a row.
"""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from hypmetrics.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
SAMPLE_ARGV = "rigidity sample --metric pull:example1:pdisk --reference pdisk --q 0.5,0"
_AVAILABLE = ("available: ahlfors, aux-solutions, beardon-minda, curvature, decay-ratio, "
              "example1, harnack, harnack-conical, hopf, hopf-conical, lemma44, phi, "
              "annulus-sharpness:<r>")

ROWS = [
    # --- commands that succeed -------------------------------------------------
    ("density-conical", "density --domain conical:0.5 --z 0.25,0", 0, None),
    # pdisk's density at the subnormal |z| = 1e-310 was 0.0 with a RuntimeWarning,
    # and 1e-13 from the circle it was 1.1e-3 off
    ("density-pdisk-subnormal", "density --domain pdisk --z 1e-310,0", 0, None),
    ("density-pdisk-near-circle", "density --domain pdisk --z 0.9999999999999,0", 0, None),
    ("density-pullback-grid", "density --domain pull:phi:disk --grid polar --grid-n 40", 0, None),
    ("curvature-annulus", "curvature --metric annulus:0.5 --z 0.7,0", 0, None),
    # each --oracle-grid command loads LAPACK; two 220-point pairs end their
    # Newton solves on kept LU factors (a near-antipodal annulus pair, and a disk
    # pair near the edge); a pdisk pair an ulp apart gets its chord's length, and
    # an annulus pair whose principal logs differ by more than pi is seeded the
    # short way round, across the branch cut
    ("oracle-pdisk", "distance --domain pdisk --z1 0.01,0 --z2 0.1,0 --oracle-grid 100", 0, None),
    ("oracle-pdisk-220", "distance --domain pdisk --z1 0.01,0 --z2 0.1,0 --oracle-grid 220", 0,
     None),
    ("oracle-annulus-near-antipodal",
     "distance --domain annulus:0.5 --z1 0.1961910991772045,-0.5822504249846683 "
     "--z2=-0.2258646008444965,0.7213989910691383 --oracle-grid 220", 0, None),
    ("oracle-disk-near-edge",
     "distance --domain disk --z1 0.99999,0 --z2 0,-0.99999 --oracle-grid 220", 0, None),
    ("oracle-pdisk-ulp-apart",
     "distance --domain pdisk --z1 0.0010000000000000002,-1.2e-41 --z2 0.001,6.3e-155 "
     "--oracle-grid 100", 0, None),
    ("oracle-annulus-across-branch-cut",
     "distance --domain annulus:0.5 --z1=-0.6,0.2 --z2=-0.6,-0.2 --oracle-grid 220", 0, None),
    # a point at 1e-300 is lifted without dividing it by R, which underflowed to 0
    ("distance-pdiskR-huge-radius", "distance --domain pdiskR:1e300 --z1 1e-300,0 --z2 0.1,0",
     0, None),
    # pdiskR:2's density lived on the unit punctured disk: these refused z=1.5
    # with "is not in pdisk"
    ("density-pdiskR-past-the-unit-circle", "density --domain pdiskR:2 --z 1.5,0", 0, None),
    ("curvature-pdiskR-past-the-unit-circle", "curvature --metric pdiskR:2 --z 1.5,0", 0, None),
    ("rigidity-sample", SAMPLE_ARGV, 0, None),
    ("rigidity-fit", "rigidity fit --input {dir}/sample.csv", 0, None),
    ("rigidity-classify-puncture",
     "rigidity classify --input {dir}/sample.csv --setting puncture", 0, None),
    ("rigidity-classify-general", "rigidity classify --input {dir}/sample.csv --setting general",
     0, None),
    ("rigidity-classify-conical",
     "rigidity classify --input {dir}/sample.csv --setting conical:0.5", 0, None),
    ("liouville-solve", "liouville solve --w0 -0.6931471805599453 --dw0 1 --t0 -1 --t1 -5", 0,
     None),
    # the first integral classifies pdiskR:2 and pdiskR:1e300 (once unclassified
    # and conical), the steep conical:-20 tail, and conical:0.99 and 0.9999 (once
    # unclassified and logarithmic; test_cli.py checks their kind)
    ("classify-conical-0.3", "liouville classify --family conical --alpha 0.3", 0, None),
    ("classify-pdiskR-2", "liouville classify --family pdiskR --R 2", 0, None),
    ("classify-pdiskR-1e300", "liouville classify --family pdiskR --R 1e300", 0, None),
    ("classify-conical-minus-20", "liouville classify --family conical --alpha -20", 0, None),
    ("classify-conical-0.99", "liouville classify --family conical --alpha 0.99", 0, None),
    ("classify-conical-0.9999", "liouville classify --family conical --alpha 0.9999", 0, None),
    # half-plane and strip values whose differences, quotients, sine products or
    # pi Im z leave the double range, and densities where 2 Im z or 2h overflows:
    # each printed inf, a silent 0 or digits lost below the normal range, or
    # raised ZeroDivisionError, ValueError or NumericOverflow
    ("halfplane-far-apart", "distance --domain halfplane --z1 0,1 --z2 1e308,1e-308", 0, None),
    ("halfplane-subnormal-far", "distance --domain halfplane --z1 0,5e-324 --z2 1e10,5e-324", 0,
     None),
    ("halfplane-difference-overflows", "distance --domain halfplane --z1=-1e308,1 --z2 1e308,1",
     0, None),
    ("halfplane-subnormal-heights", "distance --domain halfplane --z1 0,1e-320 --z2 0,2e-320", 0,
     None),
    ("strip-far-apart", "distance --domain strip:1 --z1 0,0.5 --z2 1e308,0.5", 0, None),
    ("strip-tiny-heights", "distance --domain strip:1 --z1 0,1e-300 --z2 1,1e-300", 0, None),
    ("strip-tiny-heights-far", "distance --domain strip:1 --z1 0,1e-300 --z2 1000,1e-300", 0,
     None),
    ("strip-subnormal-heights", "distance --domain strip:1 --z1 0,1e-320 --z2 0,2e-320", 0, None),
    ("strip-heights-underflow", "distance --domain strip:10 --z1 0,5e-324 --z2 1,5e-324", 0,
     None),
    ("strip-nearly-coincident", "distance --domain strip:1 --z1 0,0.5 --z2 1e-170,0.5", 0, None),
    ("strip-pi-im-z-overflows",
     "distance --domain strip:1.5e308 --z1 0,1e308 --z2 1,1e308", 0, None),
    ("density-halfplane-huge-height", "density --domain halfplane --z 0,1e308", 0, None),
    ("density-strip-2h-overflows", "density --domain strip:1e308 --z 0,1", 0, None),
    ("density-strip-pi-im-z-overflows", "density --domain strip:1.5e308 --z 0,1e308", 0, None),
    # pi Im z / h below the normal range: its sine was 0 and lambda NumericOverflow
    ("density-strip-sine-underflows", "density --domain strip:1e308 --z 0,1e-307", 0, None),
    ("density-strip-sine-underflows-1e-300", "density --domain strip:1e308 --z 0,1e-300", 0,
     None),
    # Re(z1 - z2) overflows at subnormal heights: halving the points took the
    # heights to 0, and the log of a zero sine raised ValueError
    ("strip-10-far-subnormal-heights",
     "distance --domain strip:10 --z1=-1e308,5e-324 --z2 1e308,5e-324", 0, None),
    ("strip-1e10-far-subnormal-heights",
     "distance --domain strip:1e10 --z1=-1e308,5e-324 --z2 1e308,5e-324", 0, None),
    # |z1 - z2| overflows while both parts are finite: abs() raised OverflowError
    ("halfplane-modulus-overflows",
     "distance --domain halfplane --z1 0,1 --z2 1.5e308,1.5e308", 0, None),
    ("halfplane-modulus-overflows-1e-300",
     "distance --domain halfplane --z1 0,1e-300 --z2 1.5e308,1.5e308", 0, None),
    # pi Re(z1 - z2) overflows before the division by h: 1454.06..., 3e-5 off
    ("strip-pi-gap-overflows",
     "distance --domain strip:1e308 --z1=-5e307,5e-324 --z2 5e307,5e-324", 0, None),
    # --- typed errors --------------------------------------------------------------
    # stencils lost to rounding (a point equal to its centre, or h^2 = 0) and a
    # curvature whose lambda^2 overflows printed nan or -0.0 with exit 0, or nan
    # rows as a verification failure (the half-plane at Re z = 1e17 printed
    # -4.000002, right only because its density ignores Re z)
    ("aux-h", "verify aux-solutions --tol aux-h=1e-300", 1,
     "stencil of step 1e-300 at z=(0.25+0j) is lost to rounding"),
    ("disk-h-1e-300", "curvature --metric disk --z 0.3,0 --h 1e-300", 1,
     "stencil of step 1e-300 at z=(0.3+0j) is lost to rounding"),
    ("disk-h-1e-160", "curvature --metric disk --z 0.3,0 --h 1e-160", 1,
     "stencil of step 1e-160 at z=(0.3+0j) is lost to rounding"),
    ("pdisk-1e-300", "curvature --metric pdisk --z 1e-300,0", 1,
     "stencil of step 5e-301 at z=(1e-300+0j) is lost to rounding"),
    ("pdisk-1e-160", "curvature --metric pdisk --z 1e-160,0", 1,
     "curvature of pdisk at z=(1e-160+0j) is not finite in double precision"),
    ("halfplane-1e17", "curvature --metric halfplane --z 1e17,1", 1,
     "stencil of step 0.001 at z=(1e+17+1j) is lost to rounding"),
    # an oracle path whose length overflows; test_cli.py also runs it in a fresh
    # `python -W error` process, where the oracle first loads LAPACK
    ("oracle-overflow",
     "distance --domain halfplane --z1 0,1e-300 --z2 1e300,1 --oracle-grid 220",
     1, "non-finite seed length in halfplane"),
    # points off their domain (pdiskR:2 checks 2.5 itself, not 2.5/2) or at the
    # puncture, and densities past the double range; the grid printed
    # lambda = inf rows, with a RuntimeWarning and exit 0
    ("distance-off-strip", "distance --domain strip:1 --z1 0,2 --z2 0,0.5", 1,
     "z=2j is not in strip:1.0"),
    ("distance-off-pdiskR", "distance --domain pdiskR:2 --z1 2.5,0 --z2 0.1,0", 1,
     "z=(2.5+0j) is not in pdiskR:2.0"),
    ("density-off-pdiskR", "density --domain pdiskR:2 --z 2.5,0", 1,
     "z=(2.5+0j) is not in pdiskR:2.0"),
    ("density-at-puncture", "density --domain pdisk --z 0,0", 1, "z=0j is not in pdisk"),
    ("density-overflow", "density --domain pdisk --z 5e-324,0", 1,
     "density of pdisk at z=(5e-324+0j) is not finite in double precision"),
    ("density-grid-overflow",
     "density --domain pdisk --grid polar --grid-n 2 --rmin 5e-324 --rmax 0.5",
     1, "density of pdisk at z=(5e-324+0j) is not finite in double precision"),
    ("curvature-off-disk", "curvature --metric disk --z 1.2,0", 1, "z=(1.2+0j) is not in disk"),
    ("curvature-at-puncture", "curvature --metric pdisk --z 0,0", 1, "z=0j is not in pdisk"),
    # a density that is 0 on the stencil (its log is -inf), and a non-finite
    # curvature (the density underflows to 0 at 1e-17, but its log is finite)
    ("pullback-curvature-at-puncture", "curvature --metric pull:square:disk --z 0,0", 1,
     "pull:square:disk is not positive on the stencil at z=0j"),
    ("conical-curvature-not-finite", "curvature --metric conical:-20 --z 1e-17,0", 1,
     "curvature of conical:-20.0 at z=(1e-17+0j) is not finite in double precision"),
    # a pullback named its whole grid or stencil here, over several lines
    ("pullback-grid",
     "density --domain pull:mobius:0.3,0:pdisk --grid cartesian --grid-n 3 --half-width 0.3",
     1, "mobius:0.3,0.0 maps z=(0.3+0j) outside the domain of pdisk"),
    ("pullback-stencil", "curvature --metric pull:mobius:0.3,0:pdisk --z 0.3,0", 1,
     "mobius:0.3,0.0 maps z=(0.3+0j) outside the domain of pdisk"),
    # the ratios run from 1.05 to 1.25: it wrote a CSV that `rigidity fit` refused
    ("sample-with-a-ratio-above-one",
     "rigidity sample --metric pdisk --reference pull:example1:pdisk",
     1, "ratios must lie in (0, 1]"),
    # each suite adds its offset to --seed; numpy's traceback ended these runs
    ("curvature--5--4", "verify curvature --seed -5", 1,
     "seed must be a non-negative integer, got -4"),
    ("beardon-minda--20--9", "verify beardon-minda --seed -20", 1,
     "seed must be a non-negative integer, got -9"),
    ("example1--30--9", "verify example1 --seed -30", 1,
     "seed must be a non-negative integer, got -9"),
    # a strip distance past the double range printed inf
    ("strip-distance-overflow", "distance --domain strip:1e-300 --z1 0,5e-301 --z2 1e10,5e-301", 1,
     "distance from z=5e-301j to z=(10000000000+5e-301j) in strip:1e-300 is not finite "
     "in double precision"),
    # 3.14e308; it raised an untyped ValueError
    ("strip-1-far-subnormal-heights",
     "distance --domain strip:1 --z1=-1e308,5e-324 --z2 1e308,5e-324", 1,
     "distance from z=(-1e+308+5e-324j) to z=(1e+308+5e-324j) in strip:1.0 is not finite "
     "in double precision"),
    # a slope needs two distances: np.polyfit warned and printed r2 = 0.0 with exit 0
    ("fit-one-distance", "rigidity fit --input {dir}/one_distance.csv", 1,
     "fit needs two distinct distance values"),
    ("curvature-nan-stencil", "curvature --metric disk --z 0.3,0 --h nan", 1,
     "stencil size must be positive, got h=nan"),
    # heights 1e-9 and 1 across 1e6: the solve stalls under heavy damping
    ("oracle-failure", "distance --domain halfplane --z1 0,1e-9 --z2 1e6,1 --oracle-grid 100", 1,
     "geodesic solve did not converge in halfplane"),
    ("aux-solutions-stencil-outside-the-disk", "verify aux-solutions --tol aux-h=0.5", 1,
     "stencil at z=(0.5000218535235252+0j) leaves pdisk"),
    # non-finite points and parameters
    ("nan-point-density", "density --domain halfplane --z nan,1", 1,
     "z=(nan+1j) is not in halfplane"),
    ("inf-point-density", "density --domain strip:1 --z inf,0.5", 1,
     "z=(inf+0.5j) is not in strip:1.0"),
    ("nan-point-curvature", "curvature --metric halfplane --z nan,1", 1,
     "z=(nan+1j) is not in halfplane"),
    ("nan-point-distance-disk", "distance --domain disk --z1 nan,0 --z2 0,0", 1,
     "z=(nan+0j) is not in disk"),
    ("nan-point-distance-halfplane", "distance --domain halfplane --z1 0,1 --z2 nan,1", 1,
     "z=(nan+1j) is not in halfplane"),
    ("nan-point-distance-strip", "distance --domain strip:1 --z1 nan,0.5 --z2 0,0.5", 1,
     "z=(nan+0.5j) is not in strip:1.0"),
    ("strip-inf-density", "density --domain strip:inf --z 0,1", 2,
     "strip requires finite height h > 0, got h=inf"),
    ("strip-inf-distance", "distance --domain strip:inf --z1 0,1 --z2 1,1", 2,
     "strip requires finite height h > 0, got h=inf"),
    ("pdiskR-inf-density", "density --domain pdiskR:inf --z 0.5,0", 2,
     "punctured disk radius requires finite R >= 1, got R=inf"),
    ("pdiskR-inf-distance", "distance --domain pdiskR:inf --z1 0.5,0 --z2 0.1,0", 2,
     "punctured disk radius requires finite R >= 1, got R=inf"),
    ("conical-minus-inf-density", "density --domain conical:-inf --z 0.5,0", 2,
     "conical order requires finite alpha < 1, got -inf"),
    ("classify-pdiskR-nan", "liouville classify --family pdiskR --R nan", 1,
     "punctured disk radius requires finite R >= 1, got R=nan"),
    ("classify-pdiskR-inf", "liouville classify --family pdiskR --R inf", 1,
     "punctured disk radius requires finite R >= 1, got R=inf"),
    ("classify-conical-minus-inf", "liouville classify --family conical --alpha=-inf", 1,
     "conical order requires finite alpha < 1, got -inf"),
    ("solve-w0-nan", "liouville solve --w0 nan --dw0 1 --t0 -2 --t1 -1", 1,
     "initial data must be finite, got w0=nan, dw0=1.0, t0=-2.0, t1=-1.0"),
    ("solve-t1-inf", "liouville solve --w0 0 --dw0 1 --t0 -2 --t1 inf", 1,
     "initial data must be finite, got w0=0.0, dw0=1.0, t0=-2.0, t1=inf"),
    # e^(w - t) overflows: lambda printed inf (Infinity in JSON) with a RuntimeWarning
    ("solve-lambda-overflows", "liouville solve --w0 -5 --dw0 0 --t0 -800 --t1 -799 --steps 10",
     1, "density e^(w - t) at t=-800.0 is not finite in double precision"),
    # bad suite names; only the annulus radius message moved when one table of
    # suites replaced two, from "got 2.0" to "got r=2.0", the annulus's own rule
    ("annulus-bare", "verify annulus-sharpness", 2,
     f"unknown suite 'annulus-sharpness'; {_AVAILABLE}"),
    ("annulus-abc", "verify annulus-sharpness:abc", 2,
     "bad annulus-sharpness parameter in 'annulus-sharpness:abc'"),
    ("annulus-2", "verify annulus-sharpness:2", 1, "annulus requires 0 < r < 1, got r=2.0"),
    ("curvature-param", "verify curvature:0.5", 2, f"unknown suite 'curvature:0.5'; {_AVAILABLE}"),
    ("lemma44-colon", "verify lemma44:", 2, f"unknown suite 'lemma44:'; {_AVAILABLE}"),
    ("nope", "verify nope", 2, f"unknown suite 'nope'; {_AVAILABLE}"),
    ("curvature-param-tol", "verify curvature:0.5 --tol curvature=1", 2,
     f"unknown suite 'curvature:0.5'; {_AVAILABLE}"),
    ("annulus-unknown-tol", "verify annulus-sharpness:0.5 --tol zz=1", 2,
     "--tol 'zz': suite 'annulus-sharpness:0.5' reads 'annulus'"),
    # parse errors exit 2 and name what they refuse
    ("spec", "density --domain warp:9 --z 0,0", 2, "unknown metric spec 'warp:9'"),
    ("tolerance", "verify curvature --tol curvature=abc", 2,
     "bad --tol value for 'curvature': 'abc'"),
    ("setting", "rigidity classify --input {dir}/good.csv --setting conical:abc", 2,
     "bad conical order: 'abc'"),
    ("setting-no-order", "rigidity classify --input {dir}/good.csv --setting conical", 2,
     "unknown setting 'conical'"),
    ("setting-with-order", "rigidity classify --input {dir}/good.csv --setting general:1", 2,
     "unknown setting 'general:1'"),
    ("csv-cell", "rigidity fit --input {dir}/bad.csv", 2,
     "bad ratio value on line 2 of {dir}/bad.csv: 'abc'"),
    ("missing-csv", "rigidity fit --input {dir}/missing.csv", 2,
     "cannot read {dir}/missing.csv: No such file or directory"),
    ("grid-n-negative", "density --domain disk --grid-n -1", 2,
     "--grid-n must be at least 1, got -1"),
    ("grid-n-zero", "density --domain disk --grid-n 0", 2, "--grid-n must be at least 1, got 0"),
    ("rmin-zero", "density --domain pdisk --grid polar --rmin 0", 2,
     "need 0 < --rmin < --rmax < inf, got 0.0 and 0.95"),
    ("rmin-negative", "density --domain pdisk --rmin -1", 2,
     "need 0 < --rmin < --rmax < inf, got -1.0 and 0.95"),
    ("rmin-above-rmax", "density --domain pdisk --grid polar --rmin 0.5 --rmax 0.1", 2,
     "need 0 < --rmin < --rmax < inf, got 0.5 and 0.1"),
    ("half-width-zero", "density --domain disk --half-width 0", 2,
     "--half-width must be positive and at most half the double range, got 0.0"),
    ("half-width-nan", "density --domain disk --half-width nan", 2,
     "--half-width must be positive and at most half the double range, got nan"),
    # these three printed RuntimeWarnings and a partial table, and exited 0
    ("rmax-inf", "density --domain disk --grid polar --grid-n 3 --rmin 0.1 --rmax inf", 2,
     "need 0 < --rmin < --rmax < inf, got 0.1 and inf"),
    ("half-width-inf", "density --domain disk --grid cartesian --half-width inf", 2,
     "--half-width must be positive and at most half the double range, got inf"),
    ("half-width-span-overflow", "density --domain disk --grid cartesian --half-width 1e308", 2,
     "--half-width must be positive and at most half the double range, got 1e+308"),
    ("kmin-above-kmax", "rigidity sample --metric pdisk --reference pdisk --kmin 5 --kmax 2", 2,
     "need --kmin <= --kmax, got 5 and 2"),
    ("tolerance-unknown", "verify curvature --tol nonsense=1", 2,
     "--tol 'nonsense': suite 'curvature' reads 'curvature'"),
    ("tolerance-other-suite", "verify phi --tol hopf=1", 2,
     "--tol 'hopf': suite 'phi' reads 'phi-expansion', 'disk-functional'"),
    ("tolerance-none-read", "verify lemma44 --tol lemma44=1", 2,
     "--tol 'lemma44': suite 'lemma44' reads no tolerance"),
    ("tolerance-negative", "verify curvature --tol curvature=-1", 2,
     "--tol 'curvature' must be finite and >= 0, got '-1'"),
    ("tolerance-nan", "verify curvature --tol curvature=nan", 2,
     "--tol 'curvature' must be finite and >= 0, got 'nan'"),
    ("tolerance-inf", "verify aux-solutions --tol aux-h=inf", 2,
     "--tol 'aux-h' must be finite and >= 0, got 'inf'"),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Path:
    """The `{dir}` of the rows."""
    path = tmp_path_factory.mktemp("cli")
    (path / "good.csv").write_text("re,im,ratio,distance\n0.1,0,0.5,1.0\n")
    (path / "bad.csv").write_text("re,im,ratio,distance\n0.1,0,abc,1.0\n")
    (path / "one_distance.csv").write_text(
        "re,im,ratio,distance\n" + "".join(f"0.1,0,0.{k},1.0\n" for k in range(5, 10)))
    sample = io.StringIO()
    with contextlib.redirect_stdout(sample):
        assert main(SAMPLE_ARGV.split()) == 0
    (path / "sample.csv").write_text(sample.getvalue())
    return path


def success_commands(files: Path) -> list:
    """The argv of each success row."""
    return [argv.replace("{dir}", str(files)).split() for _, argv, code, _ in ROWS if not code]


@pytest.mark.parametrize("argv, code, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_cli_contract(capsys, files, argv, code, message):
    argv = argv.replace("{dir}", str(files)).split()
    if code:
        message = message.replace("{dir}", str(files))
        assert (main(argv), *capsys.readouterr()) == (code, "", f"error: {message}\n")
        return
    for output in ("csv", "json"):
        assert main(["--output", output, *argv]) == 0
        out = capsys.readouterr()
        assert out.err == ""
    assert "Infinity" not in out.out and "NaN" not in out.out
    json.loads(out.out)


def test_readme_cli_block_is_in_the_table():
    # each command of the README parses; each verify command passes, and each
    # other command runs as a success row
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    success = {argv for _, argv, code, _ in ROWS if not code}
    lines = block.replace("\\\n", " ").splitlines()
    for line in lines:
        command, _, redirect = line.partition(" > ")
        argv = command.split()
        assert argv[0] == "hypmetrics", line
        if build_parser().parse_args(argv[1:]).command == "verify":
            assert main(argv[1:]) == 0, line
            continue
        command = " ".join(argv[1:])
        if redirect:  # the sample that the README's rigidity commands read
            assert (command, redirect) == (SAMPLE_ARGV, "sample.csv")
        assert command.replace("sample.csv", "{dir}/sample.csv") in success, line
