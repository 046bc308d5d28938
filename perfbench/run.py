"""Seeded end-to-end benchmark of the isk4plus CLI.

    python3 perfbench/run.py --workload detect-free --seed 1 --seconds 36 \\
        --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn and prints each metric by name with its unit.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass.  A run
record (host, seed, digests, every metric) lands in perfbench/out/.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up launches before the worker and again after it, so that they
# sample the host at two moments of the run
SETUP_LAUNCHES = 4
# every request runs at least this often, and its latency is the median of
# its runs, so a pass that hit a burst of load from other tenants of the
# host does not set the tail
MIN_PASSES = 3
RUN_TIMEOUT = 160.0

# runs cli.main once per argv in the JSON list it is given
CLI_LAUNCH = ("import json, sys; from isk4plus.cli import main; "
              "sys.exit(max([main(a) for a in json.loads(sys.argv[1])]))")

PER_LAYER_FUNCS = (
    "detect.find_isk4plus", "detect.find_induced_biclique",
    "detect.clique_number", "detect.chromatic_number_exact",
    "detect.find_isk4plus_oracle", "detect.verify_subdivision_witness",
    "graph.induced_subgraph", "graph.components", "graph.components_within",
    "graph.Graph",
    "formats.parse_graph6", "formats.write_graph6",
    "formats.iter_graph6_lines",
    "structure.grow_maximal_multipartite", "structure.find_structural_cutset",
    "structure.check_claim1", "structure.check_claim2",
    "structure.check_claim3",
    "coloring.color_isk4plus_free", "coloring.greedy_extend",
    "coloring.merge_on_clique", "coloring.coloring_to_json",
    "harness.survey_chi_vs_omega", "harness.verify_claims_campaign",
    "harness.passes_filters",
    "cli.main",
)


PERCENTILES = (Fraction(50), Fraction(90), Fraction(99), Fraction(999, 10))


def _rank(samples: int, p: Fraction) -> int:
    return max(1, math.ceil(samples * p / 100))


def highest_percentile(samples: int, beyond: int = 10) -> float | None:
    """The highest of p50, p90, p99, p99.9 that leaves at least ``beyond``
    samples above it, or None when even p50 does not."""
    best = None
    for p in PERCENTILES:
        if samples - _rank(samples, p) >= beyond:
            best = float(p)
    return best


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    return sorted(values)[_rank(len(values), Fraction(p)) - 1]


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _setup_seconds(minimal: list[dict], warm: bool) -> list[float]:
    """Cold launches of a fresh interpreter running each of the workload's
    CLI subcommands on its minimal input; with ``warm`` one launch more
    runs first and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_LAUNCHES + warm):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCH,
             json.dumps([req["argv"] for req in minimal])],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise workloads.CheckError(
                f"set-up launch exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}")
        if i or not warm:
            times.append(dt)
    return times


def host_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "commit": commit, "seed": seed}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Build inputs, time set-up, run the worker, check outputs; returns
    the run record.  Raises CheckError on a wrong output."""
    wdir = OUT / name
    inputs = wdir / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    t_start = perf_counter()
    wl = workloads.BUILDERS[name](seed, inputs, inputs / "report.out")
    build_s = perf_counter() - t_start

    setup = [] if trace else _setup_seconds(wl.minimal, warm=True)

    job = {"src": str(SRC), "requests": wl.requests, "warmup": wl.minimal,
           "seconds": seconds, "min_passes": MIN_PASSES, "trace": trace,
           "spans": str(wdir / f"seed{seed}.spans.tsv")}
    job_path, result_path = inputs / "job.json", inputs / "result.json"
    job_path.write_text(json.dumps(job))
    remaining = RUN_TIMEOUT - (perf_counter() - t_start)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path),
         str(result_path)], cwd=ROOT, timeout=max(remaining, 1.0))
    if proc.returncode != 0:
        raise workloads.CheckError(f"worker exited {proc.returncode}")
    if not trace:
        setup += _setup_seconds(wl.minimal, warm=False)
    result = json.loads(result_path.read_text())
    record = result["record"]
    checked = wl.check(record)

    graphs_per_pass = sum(r["graphs"] for r in wl.requests)
    passes = result["passes"]
    lat = [statistics.median(runs) for runs in zip(*passes)]
    attempted = graphs_per_pass * len(passes)
    out_digest = hashlib.sha256(
        "\n".join(record["outputs"]).encode()).hexdigest()
    rec = {
        "workload": name, "host": host_record(seed), "seconds": seconds,
        "trace": trace, "input_digest": wl.input_digest,
        "output_digest": out_digest, "requests_per_pass": len(wl.requests),
        "graphs_per_pass": graphs_per_pass, "passes": len(passes),
        "attempted": attempted,
        "answered_per_pass": checked["answered"],
        "input_build_s": build_s, "check": checked,
    }
    if trace:
        rec["metrics"] = per_layer_metrics(result["trace"], checked)
        rec["trace"] = result["trace"]
        if result["trace"]["self_sum_error"] > 0.01:
            raise workloads.CheckError(
                "span self times do not add up to request wall time "
                f"(worst relative error {result['trace']['self_sum_error']})")
        return rec
    top = highest_percentile(len(lat))
    if top is None or top < 90.0:
        raise workloads.CheckError(
            f"{len(lat)} latency samples leave fewer than 10 beyond p90")
    rec["latency_samples"] = len(lat)
    rec["host_probe_ms"] = result["probe_ms"]
    rec["pass_latencies_s"] = passes
    rec["highest_percentile"] = top
    rec["fail_ratio"] = 1.0 - checked["answered"] / graphs_per_pass
    rec["setup_launches"] = setup
    rec["metrics"] = end_to_end_metrics(
        setup, lat, graphs_per_pass, checked["answered"] / graphs_per_pass,
        result["peak_rss_kb"])
    return rec


def end_to_end_metrics(setup: list, lat: list, graphs: int,
                       answered_ratio: float, rss_kb: int) -> dict:
    """``lat`` holds each request's median time over the passes;
    ``graphs`` is the number of graphs one pass carries."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "graphs_per_s": (graphs / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "answered_ratio": (answered_ratio, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer_metrics(trace: dict, checked: dict) -> dict:
    funcs = trace["functions"]
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    m = {}
    for f in PER_LAYER_FUNCS:
        row = funcs.get(f, zero)
        m[f"{f}.calls"] = (row["calls"], "count")
        m[f"{f}.ms"] = (row["ms"], "ms")
        m[f"{f}.self_ms"] = (row["self_ms"], "ms")
    for status in ("none", "found", "budget"):
        row = funcs.get(f"detect.find_isk4plus.{status}", zero)
        m[f"detect.find_isk4plus.{status}.calls"] = (row["calls"], "count")
        m[f"detect.find_isk4plus.{status}.ms"] = (row["ms"], "ms")
    calls = funcs.get("detect.find_induced_biclique", zero)["calls"]
    hits = funcs.get("detect.find_induced_biclique.hit", zero)["calls"]
    m["detect.find_induced_biclique.hit_ratio"] = (
        hits / calls if calls else 0.0, "ratio")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = (sum(
            row["self_ms"] for f, row in funcs.items()
            if f.startswith(layer + ".") and f.count(".") == 1), "ms")
    kinds = checked.get("trace_kinds", {})
    for kind in (*workloads.TRACE_KINDS, "fallback"):
        m[f"coloring.trace.{kind.replace('-', '_')}"] = (
            kinds.get(kind, 0), "count")
    m["coloring.palette_mean"] = (checked.get("palette_mean", 0.0), "colors")
    m["trace.overhead_ratio"] = (trace["overhead_ratio"], "ratio")
    return m


def _result_line(rec: dict | None, correct: bool) -> str:
    metrics = {} if rec is None else {
        k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()}
    return json.dumps({
        "correct": correct,
        "attempted": rec["attempted"] if rec else 1,
        "failed": 0 if correct else 1,
        "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.BUILDERS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "isk4plus" / "cli.py").is_file():
        return _fail(f"package source not found under {SRC}")
    if args.workload == "all":
        return _run_all(args)
    try:
        rec = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (workloads.CheckError, subprocess.TimeoutExpired) as exc:
        _fail(f"{args.workload} seed {args.seed}: {exc}")
        print(_result_line(None, False))
        return 1
    suffix = "traced" if args.trace else "untraced"
    path = OUT / args.workload / f"seed{args.seed}.{suffix}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True))
    for k, (v, u) in rec["metrics"].items():
        print(f"{args.workload} {k} {v:.6g} {u}", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload} {rec['passes']} passes, "
              f"{rec['latency_samples']} latency samples, "
              f"fail_ratio {rec['fail_ratio']:.4f}", file=sys.stderr)
    print(_result_line(rec, True))
    return 0


def _run_all(args) -> int:
    status = 0
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
            continue
        res = json.loads(lines[-1])
        for k, m in res["metrics"].items():
            print(f"{name:13s} {k:45s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
