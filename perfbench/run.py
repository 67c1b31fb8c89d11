"""hypmetrics benchmark: two closed-loop, single-client workloads.

    python3 perfbench/run.py --workload oracle-xval --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Run from the root of a checkout. Each run spawns worker.py (PYTHONPATH=src,
one thread) several times to time set-up, lets the last one run the
workload, checks its outputs, writes a result file with provenance under
perfbench/results/ and prints one JSON object as the last line of stdout:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. It exits 1 without a result when the program cannot
be run or set up. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 3  # set-up is timed this often per run and reported as the median
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn_worker(args, workdir: Path, deadline: float, setup_only: bool,
                 spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Start worker.py; return (spawn-to-ready seconds, its final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"worker exited with code {code} before finishing "
                       f"({'killed at the deadline' if code == -9 else 'see stderr'})")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def provenance(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "seed": args.seed, "thread_env": THREAD_ENV,
            "started_at": datetime.now(timezone.utc).isoformat()}


def end_to_end(setups: list[float], res: dict) -> dict:
    lat_ms = [x * 1e3 for x in res["latencies_s"]]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat_ms) / res["elapsed_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p75_ms": statistics.quantiles(lat_ms, n=4, method="inclusive")[2],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RunError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    spans_out = RESULTS / f"{stem}.spans.json.gz" if args.trace else None
    prov = provenance(args)

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        reps = 1 if args.trace else SETUP_REPS
        setups = [spawn_worker(args, workdir, deadline, setup_only=True)[0]
                  for _ in range(reps - 1)]
        setup, res = spawn_worker(args, workdir, deadline, False, spans_out)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = res["layers"] if args.trace else end_to_end(setups, res)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    attempted = len(res["latencies_s"]) + res.get("traced", {}).get("ops", 0)
    failed = res["failed"] + res.get("traced", {}).get("failed", 0)
    correct = failed == 0 and res["warmup_ok"]
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "result": out,
              "failed_ratio": failed / attempted, "latency_samples": len(res["latencies_s"]),
              "setup_samples_s": setups, "missing_metrics": missing,
              "missing_functions": res.get("missing", []),
              **{k: v for k, v in res.items() if k not in ("layers", "missing")}}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}", file=sys.stderr)
    print(f"latency samples: {len(res['latencies_s'])}; failed {failed}/{attempted}; "
          f"missing metrics: {missing or 'none'}", file=sys.stderr)
    for line in res.get("detail", []):
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hypmetrics benchmark runner")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                   help="compare two directories of result files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*map(Path, args.compare), ROOT / "BENCHMARK.json")
    if not args.workload:
        p.error("--workload is required")
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
