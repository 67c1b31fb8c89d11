"""One benchmark process: set up a workload, warm it up, run it, check it.

Started by run.py with PYTHONPATH pointing at the checkout's src/. It prints
"ready" when warm-up has ended (run.py times spawn to "ready" as set-up),
then, unless --setup-only, runs the timed phase and prints one JSON object
with the samples as its last line. With --trace 1 it then runs a second,
instrumented phase and adds the per-layer numbers.

Every workload is closed-loop with a single client: the next op starts when
the previous one has returned. Ops cycle through a fixed list made from the
seed; one pass of that list is the unit the per-layer counts refer to.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hypmetrics
from hypmetrics import (cli, distances, domains, liouville, maps, metrics, oracle,
                        rigidity, sampling, suites)

from spans import WRAPPED, Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 40  # latency_p75_ms needs ten samples above it
SWEEPS = 3  # in-process verify sweeps traced in the cli run, after one untimed sweep
ORACLE_GRID = 220
ORACLE_GATE = 2e-2  # criterion 11
PAIRS_PER_DOMAIN = 8
DOMAINS = ("disk", "pdisk", "annulus")
SUITES = ["curvature", "ahlfors", "beardon-minda", "harnack", "harnack-conical", "hopf",
          "hopf-conical", "aux-solutions", "phi", "example1", "lemma44", "decay-ratio",
          "annulus-sharpness:0.5"]
# Red by design (documented targets -1/12 and -1/3 vs computed -1/6 and -2/3);
# they must stay red, and are reported, not counted as failures.
KNOWN_RED = {("phi", "expansion-limit"), ("phi", "disk-functional-limit")}


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _fail(detail: list, msg: str) -> bool:
    if len(detail) < 20:
        detail.append(msg)
    return False


class OracleXval:
    """Grid oracle against the lift distances, on criterion-11-shaped pairs."""

    name = "oracle-xval"
    warmup_ops = 3  # one pair per domain

    def __init__(self, seed: int):
        k = PAIRS_PER_DOMAIN
        kinds = [
            ("disk", domains.DomainModel.disk(),
             sampling.sample_annular(seed + 59, 2 * k, 0.05, 0.75), "dist_disk", ()),
            ("pdisk", domains.DomainModel.punctured_disk(),
             sampling.sample_log_annular(seed + 60, 2 * k, 0.02, 0.75),
             "dist_punctured_disk", ()),
            ("annulus", domains.DomainModel.annulus(0.5),
             sampling.sample_annular(seed + 61, 2 * k, 0.56, 0.94), "dist_annulus", (0.5,)),
        ]
        # interleaved, so any three consecutive ops cover the three domains
        self.pairs = [(label, dom, complex(pts[j]), complex(pts[k + j]), lift, extra)
                      for j in range(k) for label, dom, pts, lift, extra in kinds]
        self.pass_len = len(self.pairs)
        self.errors: dict[int, float] = {}
        self.detail: list[str] = []

    def op(self, i: int, tracer: Tracer | None) -> bool:
        label, dom, z1, z2, lift, extra = self.pairs[i]
        try:
            with _span(tracer, f"oracle.{label}"):
                got = oracle.geodesic_oracle(dom, z1, z2, ORACLE_GRID).value
            want = getattr(distances, lift)(z1, z2, *extra).value
        except Exception as exc:  # a raising call is a failed op
            return _fail(self.detail, f"pair {i} ({label}): {exc!r}")
        err = abs(got - want)
        self.errors[i] = err
        if not err <= ORACLE_GATE:
            return _fail(self.detail, f"pair {i} ({label}): |oracle - lift| = {err!r}")
        return True

    def raw_pass(self) -> dict:
        """Median ms per domain of every pair once more with refine=False,
        which is graph build plus Dijkstra."""
        ms: dict[str, list] = {}
        for label, dom, z1, z2, _, _ in self.pairs:
            t = time.perf_counter()
            oracle.geodesic_oracle(dom, z1, z2, ORACLE_GRID, refine=False)
            ms.setdefault(label, []).append((time.perf_counter() - t) * 1e3)
        return {label: statistics.median(v) for label, v in ms.items()}

    def extra(self) -> dict:
        return {"max_abs_err": max(self.errors.values(), default=None)}


class VerifySweep:
    """All 13 suites through run_suite and both serializations, plus the
    library-only paths of criteria 8-10. One op is one sweep.

    Not a workload of its own: the traced cli run runs it in-process to
    record the layers that the `verify`, `liouville` and `rigidity`
    subprocesses use, which spans in this process cannot see.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.reference_csv: dict[str, str] = {}
        self.known_red: set[str] = set()
        self.detail: list[str] = []

    def op(self, i: int, tracer: Tracer | None) -> bool:
        ok = True
        for name in SUITES:
            try:
                ok = self._suite(name, tracer) and ok
            except Exception as exc:
                ok = _fail(self.detail, f"suite {name}: {exc!r}")
        try:
            ok = self._library_paths() and ok
        except Exception as exc:
            ok = _fail(self.detail, f"library paths: {exc!r}")
        return ok

    def _suite(self, name: str, tracer: Tracer | None) -> bool:
        with _span(tracer, f"suites.{name.split(':')[0]}"):
            report = suites.run_suite(suites.SuiteConfig(name, seed=self.seed))
        with _span(tracer, "reports.to_csv"):
            csv = report.to_csv()
        with _span(tracer, "reports.to_json"):
            js = report.to_json()
        ok = bool(js)
        for check in report.checks:
            red = (name, check.name) in KNOWN_RED
            if red and not check.passed:
                self.known_red.add(f"{name}:{check.name}")
            elif red or not check.passed:
                ok = _fail(self.detail, f"{name}:{check.name} passed={check.passed}")
        ref = self.reference_csv.setdefault(name, csv)
        if csv != ref:
            ok = _fail(self.detail, f"{name}: CSV differs from warm-up")
        return ok

    def _library_paths(self) -> bool:
        ok = True
        prof = liouville.integrate_radial(-math.log(2.0), 1.0, -1.0, -5.0, 10 ** 4)
        drift = prof.first_integral()
        if not (abs(prof.w_values[0] + math.log(10.0)) <= 1e-8
                and abs(drift[-1] - drift[0]) <= 1e-8):
            ok = _fail(self.detail, "integrate_radial: terminal error or drift > 1e-8")
        if liouville.classify_singularity(liouville.closed_form_family("pdisk")).kind \
                != "logarithmic":
            ok = _fail(self.detail, "classify_singularity(pdisk) is not logarithmic")
        for alpha in (-0.5, 0.3, 0.7):
            got = liouville.classify_singularity(
                liouville.closed_form_family("conical", alpha=alpha))
            if got.kind != "conical" or not abs(got.alpha - alpha) <= 1e-3:
                ok = _fail(self.detail, f"classify_singularity(conical {alpha}) = {got}")
        if not liouville.dichotomy_verify_part_a(math.e).passed:
            ok = _fail(self.detail, "dichotomy_verify_part_a(e) failed")
        pd = metrics.punctured_disk_metric()
        pts = [complex(10.0 ** (-k), 0.0) for k in range(2, 9)]
        rep = rigidity.dichotomy_report(pd, pts)
        if not [c for c in rep.checks if c.name.startswith("part-b")][0].passed:
            ok = _fail(self.detail, "dichotomy_report(pdisk): part (b) did not fire")
        pulled = metrics.pullback(pd, maps.example1_map(), pd.domain)
        sample = rigidity.build_sample(
            pulled, pd, pts, q=0.5 + 0j,
            dist_fn=lambda z, q: distances.dist_punctured_disk(z, q).value)
        est = rigidity.decay_exponent_fit(sample,
                                          regressor=rigidity.Setting.puncture().regressor)
        if not abs(est.beta - 2.0) <= 0.1:
            ok = _fail(self.detail, f"decay_exponent_fit beta = {est.beta!r}")
        return ok

    def extra(self) -> dict:
        return {"known_red": sorted(self.known_red)}


class CliCalls:
    """`python -m hypmetrics` invoked over a fixed, cycled command mix."""

    name = "cli"
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "sample.csv"
        self.mix = [["verify", s, "--seed", str(seed)] for s in SUITES] + [
            ["density", "--domain", "pull:phi:disk", "--grid", "polar", "--grid-n", "40"],
            ["curvature", "--metric", "annulus:0.5", "--z", "0.7,0"],
            ["distance", "--domain", "pdisk", "--z1", "0.01,0", "--z2", "0.1,0"],
            ["liouville", "solve", "--w0", "-0.6931471805599453", "--dw0", "1",
             "--t0", "-1", "--t1", "-5"],
            ["liouville", "classify", "--family", "conical", "--alpha", "0.3"],
            ["rigidity", "sample", "--metric", "pull:example1:pdisk",
             "--reference", "pdisk", "--q", "0.5,0"],
            ["rigidity", "fit", "--input", str(self.csv)],
        ]
        self.pass_len = len(self.mix)
        self.detail: list[str] = []
        self.expected = [(1 if argv[:2] == ["verify", "phi"] else 0, self._in_process(argv))
                         for argv in self.mix]

    def _in_process(self, argv: list[str]) -> bytes:
        """The command's stdout from hypmetrics.cli.main in this process."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        if argv[:2] == ["rigidity", "sample"]:
            self.csv.write_text(out.getvalue())
        return out.getvalue().encode()

    def op(self, i: int, tracer: Tracer | None) -> bool:
        argv = self.mix[i]
        with _span(tracer, f"cli.{argv[0]}"):
            proc = subprocess.run([sys.executable, "-m", "hypmetrics", *argv],
                                  cwd=ROOT, capture_output=True)
        if argv[:2] == ["rigidity", "sample"]:
            self.csv.write_bytes(proc.stdout)
        code, stdout = self.expected[i]
        if proc.returncode != code:
            return _fail(self.detail, f"{' '.join(argv)}: exit {proc.returncode}, want {code}: "
                                      f"{proc.stderr.decode()[-300:]}")
        if proc.stdout != stdout:
            return _fail(self.detail, f"{' '.join(argv)}: stdout differs from warm-up")
        return True

    def extra(self) -> dict:
        return {}


def timed_phase(wl, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops back to back: whole passes, at least `seconds` and MIN_OPS ops."""
    latencies, failed, i = [], 0, 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.op = i
        t = time.perf_counter()
        ok = wl.op(i % wl.pass_len, tracer)
        latencies.append(time.perf_counter() - t)
        failed += not ok
        i += 1
        if (time.perf_counter() - start >= seconds and i >= MIN_OPS
                and i % wl.pass_len == 0):
            break
    return {"latencies_s": latencies, "failed": failed,
            "elapsed_s": time.perf_counter() - start}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass numbers from the traced phase, keyed by BENCHMARK.json name.

    `_ms` of a function or step is the time inside it per pass; the layer
    totals distances_ms and inequalities_ms are self time, so nested calls
    in one layer count once. A metric whose functions no longer exist is
    left out, and the names are listed in the result as missing.
    """
    self_ns = tracer.self_ns()
    calls, self_ms, incl_ms, samples = {}, {}, {}, {}
    for idx, (name, start, end, _, _) in enumerate(tracer.spans):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + self_ns[idx] / 1e6
        incl_ms[name] = incl_ms.get(name, 0.0) + (end - start) / 1e6
        samples.setdefault(name, []).append((end - start) / 1e6)

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix)) / passes

    def fn(name, table):
        return table.get(name, 0) / passes

    rows = [  # (metric, wrapped function or layer prefix it comes from, value)
        ("metrics.eval_many.calls", "metrics.eval_many", fn("metrics.eval_many", calls)),
        ("metrics.eval_many.points", "metrics.eval_many",
         tracer.counts.get("metrics.eval_many.points", 0) / passes),
        ("metrics.eval_many_ms", "metrics.eval_many", fn("metrics.eval_many", incl_ms)),
        ("distances.calls", "distances.", layer("distances.", calls)),
        ("distances_ms", "distances.", layer("distances.", self_ms)),
        ("distances.comparability_constants_ms", "distances.comparability_constants",
         fn("distances.comparability_constants", incl_ms)),
        ("curvature.curvature_at.calls", "curvature.curvature_at",
         fn("curvature.curvature_at", calls)),
        ("curvature.curvature_at_ms", "curvature.curvature_at",
         fn("curvature.curvature_at", incl_ms)),
        ("inequalities.calls", "inequalities.", layer("inequalities.", calls)),
        ("inequalities_ms", "inequalities.", layer("inequalities.", self_ms)),
        ("extrapolation.extrapolate.calls", "extrapolation.extrapolate",
         fn("extrapolation.extrapolate", calls)),
        ("extrapolation.extrapolate_ms", "extrapolation.extrapolate",
         fn("extrapolation.extrapolate", incl_ms)),
        ("liouville.integrate_radial_ms", "liouville.integrate_radial",
         fn("liouville.integrate_radial", incl_ms)),
        ("liouville.classify_singularity_ms", "liouville.classify_singularity",
         fn("liouville.classify_singularity", incl_ms)),
        ("rigidity.dichotomy_report_ms", "rigidity.dichotomy_report",
         fn("rigidity.dichotomy_report", incl_ms)),
        ("rigidity.decay_exponent_fit_ms", "rigidity.decay_exponent_fit",
         fn("rigidity.decay_exponent_fit", incl_ms)),
        ("reports.to_csv_ms", None, fn("reports.to_csv", incl_ms)),
        ("reports.to_json_ms", None, fn("reports.to_json", incl_ms)),
        ("oracle.calls", None, layer("oracle.", calls)),
    ]
    rows += [(f"suites.{s.split(':')[0]}_ms", None, fn(f"suites.{s.split(':')[0]}", incl_ms))
             for s in SUITES]
    rows += [(f"oracle.{d}_ms", None, _median(samples.get(f"oracle.{d}", [])))
             for d in DOMAINS]
    rows += [(f"cli.{sub}_ms", None, _median(samples.get(f"cli.{sub}", [])))
             for sub in ("verify", "density", "curvature", "distance", "liouville", "rigidity")]

    wrapped = [f"{mod}.{f}" for mod, names in WRAPPED.items() for f in names]

    def gone(source):
        return source is not None and all(
            n in tracer.missing for n in wrapped if n.startswith(source))

    return {metric: value for metric, source, value in rows if not gone(source)}


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)")


def import_times() -> dict:
    """import.* metrics, median of 3 runs of `python -X importtime -c "import hypmetrics"`.

    numpy and scipy are the self time of all their modules; hypmetrics and
    hypmetrics.oracle are cumulative, so they include what they pull in.
    """
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypmetrics"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        self_us = {"numpy": 0, "scipy": 0}
        cumulative = {}
        for m in IMPORT_LINE.finditer(proc.stderr):
            own, cum, mod = int(m.group(1)), int(m.group(2)), m.group(3)
            top = mod.split(".")[0]
            if top in self_us:
                self_us[top] += own
            cumulative.setdefault(mod, cum)
        runs.append({"import.numpy_ms": self_us["numpy"] / 1e3,
                     "import.scipy_ms": self_us["scipy"] / 1e3,
                     "import.hypmetrics_ms": cumulative.get("hypmetrics", 0) / 1e3,
                     "import.hypmetrics.oracle_ms":
                         cumulative.get("hypmetrics.oracle", 0) / 1e3})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def traced_phase(wl, seconds: float, untraced_latencies: list, spans_out: str | None) -> dict:
    """The instrumented phase: whole passes, then the per-layer numbers."""
    tracer = Tracer()
    with instrument(tracer):
        traced = timed_phase(wl, seconds, tracer)
    passes = len(traced["latencies_s"]) // wl.pass_len
    layers = layer_metrics(tracer, passes)
    ops, failed, spans = len(traced["latencies_s"]), traced["failed"], {"spans": tracer.spans}
    extra = {}
    if isinstance(wl, CliCalls):
        # spans cannot see inside the subprocesses: run the suites and library
        # paths behind their commands in-process, and take those layers per sweep
        sweep, sweep_tracer = VerifySweep(wl.seed), Tracer()
        oks = [sweep.op(0, None)]  # fills caches and the reference CSV
        with instrument(sweep_tracer):
            for i in range(SWEEPS):
                sweep_tracer.op = i
                oks.append(sweep.op(i, sweep_tracer))
        layers.update({k: v for k, v in layer_metrics(sweep_tracer, SWEEPS).items()
                       if not k.startswith("cli.")})
        ops, failed = ops + len(oks), failed + oks.count(False)
        wl.detail += sweep.detail
        spans["sweep_spans"] = sweep_tracer.spans
        extra = sweep.extra()
    layers["trace.overhead_ratio"] = (
        (len(traced["latencies_s"]) / sum(traced["latencies_s"]))
        / (len(untraced_latencies) / sum(untraced_latencies)))
    if isinstance(wl, OracleXval):
        with instrument(Tracer()):  # the same wrapper overhead as the refined calls
            raw = wl.raw_pass()
        refined = sum(layers[f"oracle.{d}_ms"] for d in DOMAINS)
        layers.update({f"oracle.raw_{d}_ms": raw[d] for d in DOMAINS})
        layers["oracle.refine_share"] = 1.0 - sum(raw.values()) / refined
        layers["oracle.max_abs_err"] = max(wl.errors.values())
    else:
        layers.update({f"oracle.raw_{d}_ms": 0.0 for d in DOMAINS})
        layers.update({"oracle.refine_share": 0.0, "oracle.max_abs_err": 0.0})
    layers.update(import_times())
    if spans_out:
        with gzip.open(spans_out, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], **spans}, fh)
    return {"layers": layers, "missing": sorted(set(tracer.missing)), **extra,
            "traced": {"ops": ops, "passes": passes, "failed": failed,
                       "elapsed_s": traced["elapsed_s"]}}


def make_workload(name: str, seed: int, workdir: Path):
    if name == "oracle-xval":
        return OracleXval(seed)
    if name == "cli":
        return CliCalls(seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True, help="scratch directory for this run")
    p.add_argument("--spans-out", help="where the traced run writes its spans")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if not Path(hypmetrics.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hypmetrics imported from {hypmetrics.__file__}, not {src}")
    workdir = Path(args.workdir)
    wl = make_workload(args.workload, args.seed, workdir)
    warm_ok = all([wl.op(i, None) for i in range(wl.warmup_ops)])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # a traced run splits --seconds between its untraced and its traced phase
    phase_s = args.seconds / 2 if args.trace else args.seconds
    result = timed_phase(wl, phase_s)
    result["warmup_ok"] = warm_ok
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result.update(wl.extra())
    if args.trace:
        result.update(traced_phase(wl, phase_s, result["latencies_s"], args.spans_out))
    result["detail"] = wl.detail
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
