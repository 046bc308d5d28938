"""Runs one workload's CLI requests in a fresh process and reports timings.

Usage: python3 worker.py JOB.json RESULT.json

The job lists requests, each an argv for ``isk4plus.cli.main`` that writes
its report with ``--output``.  The worker runs one untimed warm-up request
per CLI subcommand, then whole passes over the requests, at least
``min_passes`` of them, and stops at the pass boundary nearest to
``seconds``: one closed-loop client, one request at a time.  Only the
``cli.main`` call sits inside the timer.  With ``trace`` set it makes one
pass that runs each request untraced and then traced.
The result holds per-request latencies, exit codes, the first pass's
outputs, and the process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing


def probe_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop.  It does not depend on the
    package, so it shows how fast the host ran when the run was made."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i & 7
        times.append((perf_counter() - t0) * 1e3)
    return sorted(times)[rounds // 2]


def _run(cli, req: dict, tracer=None, rid: int = -1
         ) -> tuple[float, int, bytes, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if tracer is not None:
            span = tracer.begin_request(rid)
        t0 = perf_counter()
        # looked up at call time, so that the tracer's wrapper is called
        code = cli.main(req["argv"])
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_request(span)
    return t1 - t0, code, Path(req["output"]).read_bytes(), err.getvalue()


def run_pass(cli, requests, record: dict | None, digests: list,
             tracer=None) -> tuple[list, list]:
    """One pass; fills ``record`` with outputs on the first pass, else
    checks each output against the first pass's digest.  With a tracer,
    each request runs once more right away with the tracer installed, so
    both runs see the same host load; returns both latency lists."""
    lat, traced = [], []
    for i, req in enumerate(requests):
        dt, code, out, err = _run(cli, req)
        lat.append(dt)
        digest = hashlib.sha256(out).hexdigest()
        if record is not None:
            record["codes"].append(code)
            record["outputs"].append(out.decode("ascii"))
            record["stderr"].append(err)
            digests.append(digest)
        elif digest != digests[i]:
            raise SystemExit(f"request {i}: output differs between passes")
        if tracer is not None:
            tracer.install()
            try:
                dt, _, out, _ = _run(cli, req, tracer, i)
            finally:
                tracer.uninstall()
            traced.append(dt)
            if hashlib.sha256(out).hexdigest() != digest:
                raise SystemExit(f"request {i}: traced output differs")
    return lat, traced


def summarize(tracer, lat: list) -> dict:
    """Per-function calls, inclusive ms and self ms, plus the per-request
    check that self times add up to the request's wall time."""
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    names, tags = tracer.names, tracer.tags
    funcs: dict[str, dict] = {}
    per_request = [0.0] * len(lat)
    for i in range(len(tracer.name)):
        name = names[tracer.name[i]]
        if tracer.request[i] >= 0:
            per_request[tracer.request[i]] += selfs[i]
        if name == "request":
            continue
        keys = [name]
        if tracer.tag[i]:
            keys.append(f"{name}.{tags[tracer.tag[i]]}")
        dur = tracer.end[i] - tracer.start[i]
        for key in keys:
            f = funcs.setdefault(key, {"calls": 0, "ms": 0.0,
                                       "self_ms": 0.0})
            if not tracer.resumed[i]:
                f["calls"] += 1
            if not tracer.nested[i]:
                f["ms"] += dur * 1e3
            f["self_ms"] += selfs[i] * 1e3
    # the request span adds two clock reads around the timed call
    worst = max(abs(wall - total) / wall
                for wall, total in zip(lat, per_request))
    return {"functions": funcs, "self_sum_error": worst,
            "spans": len(tracer.name)}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    from isk4plus import cli

    requests = job["requests"]
    probe = [probe_ms()]
    for req in job["warmup"]:
        _run(cli, req)
    record = {"codes": [], "outputs": [], "stderr": []}
    digests: list[str] = []
    tracer = tracing.Tracer() if job["trace"] else None
    start = perf_counter()
    lat, traced = run_pass(cli, requests, record, digests, tracer)
    passes = [lat]
    result = {"record": record}
    if tracer is not None:
        result["trace"] = summarize(tracer, traced)
        result["trace"]["overhead_ratio"] = sum(traced) / sum(lat)
        tracer.dump(job["spans"])
    else:
        # stop at the pass boundary nearest to ``seconds``
        while True:
            elapsed = perf_counter() - start
            if (len(passes) >= job["min_passes"] and elapsed
                    + (elapsed / len(passes)) / 2 > job["seconds"]):
                break
            passes.append(run_pass(cli, requests, None, digests)[0])
    probe.append(probe_ms())
    result["passes"] = passes
    result["probe_ms"] = probe
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
