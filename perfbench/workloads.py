"""The three workloads: seeded inputs, CLI requests and output checks.

Each builder writes its inputs as graph6 files under ``inputs`` and
returns a Workload.  ``check`` reads the outputs of the first pass (later
passes are byte-identical, which the worker enforces) and raises
CheckError naming the input on any wrong answer.  It returns how many
graphs got an answer rather than a ``budget`` verdict, plus the figures the
traced run reports from the outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import gen

# core part sizes for the planted-clean graphs, cycled by target size so
# every seed gets the same mix of cores and only trees and labels vary
CLEAN_CORES = ((4, 4), (4, 5), (5, 5), (4, 4, 1), (4, 5, 2), (4, 4, 2, 1),
               (5, 5, 3), (4, 4, 3, 2))

# complete multipartite inputs, the same for every seed.  These seven are
# the costliest inputs (K_{s,s,s,s} for s >= 6 exhaust the default
# detector budget).  P90_BLOCK fixed relabelings of K_{4,4,4,4} come next
# (90-115 ms each on a 2-vCPU Xeon; the seeded graphs stay below 80 ms).
# They are ranks 8 to 14 of 105 by cost, so the p90 latency falls inside a
# block of seven like inputs rather than on the time of a single one.
MULTIPARTITE = ((5, 5, 5, 5), (6, 6, 6, 6), (7, 7, 7, 7), (8, 8, 8, 8),
                (4, 4, 5, 5), (5, 5, 5, 3), (4, 4, 4, 4, 2))
P90_BLOCK = 7
# ten chordal graphs per entry; the 40 with n = 12 put the median latency
# inside one cluster of similar cost
CHORDAL_SIZES = (10, 11, 12, 12, 12, 12, 13, 14)

# (n, p, model, count) for color-sparse.  COLOR_FIXED is drawn from one
# stream, the same for every seed: its seven graphs on 128 vertices are the
# costliest inputs and carry about 40% of a pass, so graphs_per_s does not
# move with the seed.  The seven G(96, 0.07) come next, ranks 8 to 14 of
# 100, so the p90 latency falls inside a block of seven like inputs.  The 54
# graphs of G(64, 0.1) hold the median, with 28 cheaper inputs below them.
COLOR_FIXED = ((128, 0.10, "gnp", 4), (128, 0.07, "gnp", 3))
COLOR_STRATA = ((96, 0.07, "gnp", 7), (96, 0.05, "k44", 4),
                (64, 0.05, "k44", 8), (64, 0.10, "gnp", 54),
                (64, 0.04, "gnp", 4))

# campaigns: the 136 survey batches (250 graphs, about 32 ms each) hold the
# median latency and the 50 verify-claims batches (40 graphs, about 65 ms)
# the p90
SURVEY_MAX_N = 6
SURVEY_CHUNK = 250
CLAIMS_GRAPHS = 2000
CLAIMS_CHUNK = 40
CLAIMS_P = 0.5


class CheckError(Exception):
    """A request produced a wrong answer."""


@dataclass
class Workload:
    name: str
    requests: list[dict]
    # the smallest inputs that reach the same code, one request per CLI
    # subcommand: the set-up launches and the worker's warm-up use them
    minimal: list[dict]
    # graphs[i] is the list of (label, graph) pairs behind request i
    graphs: list[list[tuple[str, tuple]]]
    expect: list = field(default_factory=list)
    input_digest: str = ""

    def check(self, record: dict) -> dict:
        return CHECKS[self.name](self, record)


def _json(name: str, text: str):
    try:
        return json.loads(text)
    except ValueError:
        raise CheckError(f"{name}: output is not JSON: {text[:80]!r}") from None


def _write(path: Path, graphs) -> bytes:
    data = b"".join(gen.graph6(*g) + b"\n" for g in graphs)
    path.write_bytes(data)
    return data


def _assemble(name: str, inputs: Path, out: Path, batches, minimal,
              expect) -> Workload:
    """One request per (command, batch of (label, graph) pairs); ``minimal``
    holds (command, graphs) pairs."""
    digest = hashlib.sha256()
    requests = []
    for i, (command, batch) in enumerate(batches):
        path = inputs / f"{i:04d}.g6"
        digest.update(_write(path, [g for _, g in batch]))
        requests.append(_request(command, path, out, len(batch)))
    warm = []
    for i, (command, graphs) in enumerate(minimal):
        path = inputs / f"minimal{i}.g6"
        _write(path, graphs)
        warm.append(_request(command, path, out, len(graphs)))
    return Workload(name, requests, warm, [b for _, b in batches], expect,
                    digest.hexdigest())


def _request(command: list[str], path: Path, out: Path, graphs: int
             ) -> dict:
    if command[0] in ("survey", "verify-claims"):
        argv = [*command, "--input", str(path)]
    else:
        argv = [command[0], str(path), *command[1:]]
    return {"argv": [*argv, "--output", str(out)], "output": str(out),
            "graphs": graphs}


# ---------------------------------------------------------------------------
# detect-free: detector must prove "none"

def build_detect_free(seed: int, inputs: Path, out: Path) -> Workload:
    rng = gen.rng_for("detect-free", seed)
    items = [(f"K{sizes}", gen.complete_multipartite(sizes))
             for sizes in MULTIPARTITE]
    k4444 = gen.complete_multipartite((4, 4, 4, 4))
    fixed = gen.rng_for("detect-free-k4444", 0)
    items.append(("K(4, 4, 4, 4)", k4444))
    for k in range(1, P90_BLOCK):
        items.append((f"K(4, 4, 4, 4) relabeling {k}",
                      gen.relabel(k4444, fixed)))
    for n in range(10, 21):
        fits = [c for c in CLEAN_CORES if sum(c) <= n - 2]
        core = fits[n % len(fits)]
        items.append((f"planted-clean n={n} core={core}",
                      gen.planted_clean(rng, core, n)))
    for n in CHORDAL_SIZES:
        for _ in range(10):
            items.append((f"chordal n={n}", gen.chordal(rng, n)))
    rng.shuffle(items)
    # every input is ISK4+-free by construction; the subset oracle
    # confirms it wherever it can run (n <= 16)
    from isk4plus import detect, formats
    for label, g in items:
        if g[0] <= detect.ORACLE_CEILING:
            G = formats.parse_graph6(gen.graph6(*g))
            if detect.find_isk4plus_oracle(G) is not None:
                raise CheckError(f"generator bug: {label} graph6 "
                                 f"{gen.graph6(*g).decode()} is not free")
    minimal = gen.complete_multipartite([1, 1, 1, 2])
    return _assemble("detect-free", inputs, out,
                     [(["detect"], [it]) for it in items],
                     [(["detect"], [minimal])], ["none"] * len(items))


def check_detect_free(wl: Workload, record: dict) -> dict:
    from isk4plus import detect, formats
    answered = 0
    statuses = {"none": 0, "found": 0, "budget": 0}
    for i, ((label, g), expected, code, out) in enumerate(
            zip((b[0] for b in wl.graphs), wl.expect, record["codes"],
                record["outputs"])):
        name = f"request {i} ({label}, graph6 {gen.graph6(*g).decode()})"
        lines = out.splitlines()
        if len(lines) != 1:
            raise CheckError(f"{name}: expected one JSON line")
        doc = _json(name, lines[0])
        verdict = doc.get("verdict")
        statuses[verdict] = statuses.get(verdict, 0) + 1
        if verdict == expected and code == 0:
            answered += 1
        elif verdict == "budget" and code == 3:
            pass
        elif verdict == "found":
            w = doc["witness"]
            wit = detect.SubdivisionWitness(
                tuple(w["branch"]), tuple(tuple(p) for p in w["paths"]),
                sum(1 << v for v in w["vertices"]))
            ok = detect.verify_subdivision_witness(
                formats.parse_graph6(gen.graph6(*g)), wit)
            raise CheckError(f"{name}: verdict found (witness "
                             f"{'verifies' if ok else 'fails'}), expected "
                             f"{expected}")
        else:
            raise CheckError(f"{name}: verdict {verdict!r} with exit {code}")
    return {"answered": answered, "verdicts": statuses}


# ---------------------------------------------------------------------------
# color-sparse: long low-degree chains plus structural steps

def _color_items(rng, strata) -> list:
    items = []
    for n, p, kind, count in strata:
        for _ in range(count):
            if kind == "gnp":
                items.append((f"G({n},{p})", gen.gnp(rng, n, p)))
            else:
                items.append((f"planted-K4,4 n={n} p={p}", gen.relabel(
                    gen.planted_k44(rng, n, p), rng)))
    return items


def build_color_sparse(seed: int, inputs: Path, out: Path) -> Workload:
    rng = gen.rng_for("color-sparse", seed)
    items = _color_items(gen.rng_for("color-sparse-n128", 0), COLOR_FIXED)
    items += _color_items(rng, COLOR_STRATA)
    for k, n in enumerate(range(16, 64, 3)):
        core = CLEAN_CORES[k % len(CLEAN_CORES)]
        items.append((f"planted-clean n={n} core={core}",
                      gen.planted_clean(rng, core, n)))
    rng.shuffle(items)
    minimal = gen.planted_clean(gen.rng_for("minimal", 0), (4, 4), 10)
    return _assemble("color-sparse", inputs, out,
                     [(["color"], [it]) for it in items],
                     [(["color"], [minimal])],
                     [gen.clique_number(g) for _, g in items])


TRACE_KINDS = ("base", "low-degree", "component-split", "structural-split",
               "multipartite-direct")


def check_color_sparse(wl: Workload, record: dict) -> dict:
    kinds = dict.fromkeys(TRACE_KINDS, 0)
    kinds["fallback"] = 0
    palettes = []
    for i, ((label, g), omega, code, out) in enumerate(
            zip((b[0] for b in wl.graphs), wl.expect, record["codes"],
                record["outputs"])):
        name = f"request {i} ({label}, graph6 {gen.graph6(*g).decode()})"
        if code != 0:
            raise CheckError(f"{name}: exit {code}")
        doc = _json(name, out)
        colors = doc["colors"]
        if len(colors) != g[0]:
            raise CheckError(f"{name}: {len(colors)} colors for {g[0]} "
                             f"vertices")
        bad = gen.proper_violation(g, colors)
        if bad is not None:
            raise CheckError(f"{name}: edge {bad} is monochromatic")
        if doc["palette"] != max(colors) + 1:
            raise CheckError(f"{name}: palette {doc['palette']} does not "
                             f"match the colors used")
        if doc["palette"] < omega:
            raise CheckError(f"{name}: palette {doc['palette']} below "
                             f"clique number {omega}")
        palettes.append(doc["palette"])
        stack = [doc["trace"]]
        while stack:
            node = stack.pop()
            kinds[node["kind"]] = kinds.get(node["kind"], 0) + 1
            kinds["fallback"] += "fallback" in node
            stack.extend(node["children"])
    return {"answered": len(palettes), "trace_kinds": kinds,
            "palette_mean": sum(palettes) / len(palettes)}


# ---------------------------------------------------------------------------
# campaigns: the labeled sweep n <= 6 through survey, and the structural
# claims on random graphs with an induced K4,4 through verify-claims

SURVEY_CMD = ["survey", "--source", "graph6", "--filter", "isk4p-free",
              "--jobs", "1"]
CLAIMS_CMD = ["verify-claims", "--source", "graph6", "--jobs", "1"]


def build_campaigns(seed: int, inputs: Path, out: Path) -> Workload:
    from isk4plus import detect, formats
    rng = gen.rng_for("campaigns", seed)
    # survey: all labeled graphs on n <= 6, shuffled by the seed; the
    # ground truth is the subset oracle's count of ISK4+-free graphs per
    # batch
    items = [(f"labeled n={g[0]}", g)
             for g in gen.labeled_graphs(SURVEY_MAX_N)]
    rng.shuffle(items)
    batches, expect = [], []
    for i in range(0, len(items), SURVEY_CHUNK):
        batch = items[i:i + SURVEY_CHUNK]
        free = sum(detect.find_isk4plus_oracle(
            formats.parse_graph6(gen.graph6(*g))) is None for _, g in batch)
        batches.append((SURVEY_CMD, batch))
        expect.append(free)
    # verify-claims: random graphs (n = 8..14) with an induced K4,4 on 0..7
    items = []
    for _ in range(CLAIMS_GRAPHS):
        n = rng.randint(8, 14)
        items.append((f"planted-K4,4 n={n}",
                      gen.planted_k44(rng, n, CLAIMS_P)))
    for i in range(0, len(items), CLAIMS_CHUNK):
        batches.append((CLAIMS_CMD, items[i:i + CLAIMS_CHUNK]))
        expect.append(None)
    order = list(range(len(batches)))
    rng.shuffle(order)
    # K4,4,3 keeps every claim and reaches the oracle's vectorized path
    minimal = [(SURVEY_CMD, [gen.complete_multipartite([1, 1, 1, 2]),
                             gen.complete_multipartite([1, 2])]),
               (CLAIMS_CMD, [gen.complete_multipartite([4, 4, 3])])]
    return _assemble("campaigns", inputs, out, [batches[i] for i in order],
                     minimal, [expect[i] for i in order])


def check_campaigns(wl: Workload, record: dict) -> dict:
    answered = 0
    free_total = 0
    tally = {"claims_ok": 0, "violations": 0, "no_k44": 0}
    for i, (req, batch, free, code, out, err) in enumerate(
            zip(wl.requests, wl.graphs, wl.expect, record["codes"],
                record["outputs"], record["stderr"])):
        if req["argv"][0] == "survey":
            answered += _check_survey(i, batch, free, code, out, err)
            free_total += free
        else:
            answered += _check_claims(i, batch, code, out, tally)
    return {"answered": answered, "free_total": free_total, "tally": tally}


def _check_survey(i: int, batch, free: int, code: int, out: str,
                  err: str) -> int:
    header = "n,omega,max_chi_observed,count_graphs,example_graph6"
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"request {i}: bad CSV header")
    passed = 0
    for row in lines[1:]:
        try:
            n, omega, chi, count, example = row.split(",")
            omega, chi, count = int(omega), int(chi), int(count)
        except ValueError:
            raise CheckError(f"request {i}: bad CSV row {row!r}") from None
        if chi < omega:
            raise CheckError(f"request {i}: row {row!r} has max chi "
                             f"below omega")
        passed += count
    stats = dict(kv.split("=") for kv in err.split()
                 if kv.startswith(("graphs=", "passed=", "budget_hits=")))
    if int(stats.get("graphs", -1)) != len(batch):
        raise CheckError(f"request {i}: survey saw {stats.get('graphs')}"
                         f" graphs, sent {len(batch)}")
    budget = int(stats["budget_hits"])
    if code != (3 if budget else 0):
        raise CheckError(f"request {i}: exit {code}")
    if budget == 0 and passed != free:
        raise CheckError(f"request {i}: {passed} passed, oracle counts "
                         f"{free} free; {_survey_culprit(batch)}")
    return len(batch) - budget


def _survey_culprit(batch) -> str:
    """The first graph on which the survey's filter and the oracle
    disagree."""
    from isk4plus import detect, formats, harness
    for label, g in batch:
        G = formats.parse_graph6(gen.graph6(*g))
        passed, _ = harness.passes_filters(G, ("isk4p-free",),
                                           detect.DEFAULT_NODE_BUDGET)
        free = detect.find_isk4plus_oracle(G) is None
        if passed != free:
            return (f"{label} graph6 {gen.graph6(*g).decode()}: filter "
                    f"{'passes' if passed else 'rejects'} it, oracle says "
                    f"{'free' if free else 'not free'}")
    return "no single graph disagrees"


def _check_claims(i: int, batch, code: int, out: str, tally: dict) -> int:
    rep = _json(f"request {i}", out)
    if rep["consistency_failures"]:
        first = rep["consistency_failures"][0]
        raise CheckError(f"request {i}: graph6 {first['graph6']}: "
                         f"{first['reason']}")
    if rep["graphs"] != len(batch):
        raise CheckError(f"request {i}: report covers {rep['graphs']} "
                         f"graphs, sent {len(batch)}")
    budget = rep["budget_hits"]
    if code != (3 if budget else 0):
        raise CheckError(f"request {i}: exit {code}")
    tally["claims_ok"] += rep["claims_ok"]
    tally["violations"] += sum(rep["violations"].values())
    tally["no_k44"] += rep["no_k44"]
    return len(batch) - budget


BUILDERS = {
    "detect-free": build_detect_free,
    "color-sparse": build_color_sparse,
    "campaigns": build_campaigns,
}

CHECKS = {
    "detect-free": check_detect_free,
    "color-sparse": check_color_sparse,
    "campaigns": check_campaigns,
}
