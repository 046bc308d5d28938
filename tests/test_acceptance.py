"""Acceptance criteria, one test per criterion.

Criterion 1/2 and the exhaustive parts of 3/4/7 share one full sweep over
every labeled graph on up to 7 vertices (2,131,019 graphs), so the sweep
fixture is computed once per module.  Each test prints a PASS line with
the measured numbers.
"""

import json
import random
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from isk4plus import detect, structure
from isk4plus.coloring import color_isk4plus_free, verify_proper
from isk4plus.detect import (find_induced_biclique, find_isk4plus,
                             find_isk4plus_oracle,
                             verify_subdivision_witness)
from isk4plus.formats import parse_graph6, write_graph6
from isk4plus.harness import (CampaignConfig, gnp_graph,
                              graph_from_edge_mask, has_triangle,
                              iter_config_graphs, pair_index_list,
                              passes_filters, planted_k44_graph,
                              planted_structured_graph)

pytestmark = pytest.mark.acceptance


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def sweep():
    """One pass over every labeled graph with n <= 7.

    Per graph: both detectors (criterion 1), witness re-verification
    (criterion 2); on ISK4+-free graphs exact chi, the recursive coloring,
    and the palette gap (criteria 3, 4, 6, 7).  The isk4-free verdict uses
    the exact equivalence "ISK4+-free and no K4 subgraph", cross-validated
    against the real detector on a sample.
    """
    s = {
        "graphs": 0, "found": 0, "budget": 0, "disagreements": [],
        "witnesses": 0, "witness_failures": 0, "detector_seconds": 0.0,
        "free": 0, "improper": 0, "fallback_nodes": 0,
        "gap": defaultdict(lambda: [0, 0, 0]),  # n -> [count, sum, max]
        "tri_isk4_count": 0, "tri_chi_max": 0, "tri_violations": [],
        "isk4_count": 0, "isk4_chi_max": 0, "isk4_chi_max_g6": "",
        "isk4_violations": [],
        "shortcut_checks": 0, "shortcut_mismatches": 0,
    }
    t_start = time.perf_counter()
    t_det = 0.0
    for n in range(1, 8):
        pairs = pair_index_list(n)
        for mask in range(1 << len(pairs)):
            if n == 7 and mask % 262144 == 0:
                _progress(f"sweep n=7 mask {mask}/{1 << 21} "
                          f"({time.perf_counter() - t_start:.0f}s)")
            G = graph_from_edge_mask(n, mask, pairs)
            t0 = time.perf_counter()
            det = find_isk4plus(G)
            oracle = find_isk4plus_oracle(G)
            t_det += time.perf_counter() - t0
            s["graphs"] += 1
            if det.status == detect.BUDGET:
                s["budget"] += 1
                continue
            if det.found != (oracle is not None):
                s["disagreements"].append((n, mask))
                continue
            if det.found:
                s["found"] += 1
                for w in (det.witness, oracle):
                    s["witnesses"] += 1
                    if not verify_subdivision_witness(G, w):
                        s["witness_failures"] += 1
            free = not det.found
            if mask % 512 == 0:
                s["shortcut_checks"] += 1
                real = passes_filters(G, ("isk4-free",), None)[0]
                if real != (free and detect.clique_number(G) < 4):
                    s["shortcut_mismatches"] += 1
            if not free:
                continue
            s["free"] += 1
            omega = detect.clique_number(G)
            chi = detect.chromatic_number_exact(G, omega=omega)
            col, trace = color_isk4plus_free(G)
            if verify_proper(G, col) is not None:
                s["improper"] += 1
            if any(node.fallback for node in trace.walk()):
                s["fallback_nodes"] += 1
            gap = col.palette_size - chi
            row = s["gap"][n]
            row[0] += 1
            row[1] += gap
            row[2] = max(row[2], gap)
            if omega < 4:
                s["isk4_count"] += 1
                g6 = ""
                if chi > s["isk4_chi_max"]:
                    s["isk4_chi_max"] = chi
                    s["isk4_chi_max_g6"] = write_graph6(G).decode()
                if chi > 24:
                    s["isk4_violations"].append(write_graph6(G).decode())
                if not has_triangle(G):
                    s["tri_isk4_count"] += 1
                    s["tri_chi_max"] = max(s["tri_chi_max"], chi)
                    if chi > 3:
                        s["tri_violations"].append(write_graph6(G).decode())
    s["detector_seconds"] = t_det
    s["total_seconds"] = time.perf_counter() - t_start
    _progress(f"sweep done in {s['total_seconds']:.0f}s "
              f"(detectors {t_det:.0f}s)")
    return s


def test_criterion_1_oracle_equivalence(sweep):
    assert sweep["graphs"] == 75 + 1024 + 32768 + (1 << 21)
    assert sweep["disagreements"] == []
    assert sweep["budget"] == 0
    print(f"\nACCEPTANCE 1 PASS: find_isk4plus and the subset oracle agree "
          f"on all {sweep['graphs']} labeled graphs with n <= 7 "
          f"({sweep['found']} contain the pattern); zero budget outcomes; "
          f"detector time {sweep['detector_seconds']:.0f}s "
          f"(target 600s)")


def test_criterion_2_witness_soundness(sweep):
    assert sweep["witnesses"] >= 100_000
    assert sweep["witness_failures"] == 0
    print(f"\nACCEPTANCE 2 PASS: {sweep['witnesses']} subdivision witnesses "
          f"re-verified independently, zero failures")


def test_criterion_3_triangle_free_chi_3(sweep):
    # exhaustive part: every triangle-free isk4-free graph on <= 7 vertices
    assert sweep["shortcut_mismatches"] == 0
    assert sweep["tri_violations"] == []
    assert sweep["tri_chi_max"] <= 3
    # random part: 100k seeded triangle-free graphs on 8..14 vertices
    cfg = CampaignConfig(source="triangle-free", count=100_000, min_n=8,
                         max_n=14, seed=20250809)
    checked = 0
    chi_max = 0
    violations = []
    t0 = time.perf_counter()
    for i, G in enumerate(iter_config_graphs(cfg)):
        if i % 20000 == 0:
            _progress(f"criterion 3 random corpus {i}/100000")
        det = find_isk4plus(G, min_total=4)
        assert det.status != detect.BUDGET
        if det.found:
            continue
        checked += 1
        chi = detect.chromatic_number_exact(G)
        chi_max = max(chi_max, chi)
        if chi > 3:
            violations.append(write_graph6(G).decode())
    assert violations == []
    assert checked >= 10_000
    print(f"\nACCEPTANCE 3 PASS: chi <= 3 on all "
          f"{sweep['tri_isk4_count']} triangle-free isk4-free labeled "
          f"graphs n <= 7 (max chi {sweep['tri_chi_max']}) and on "
          f"{checked} of 100000 random graphs n in [8,14] passing the "
          f"filter (max chi {chi_max}; "
          f"{time.perf_counter() - t0:.0f}s)")


def test_criterion_4_isk4_free_chi_24(sweep):
    assert sweep["isk4_violations"] == []
    assert sweep["isk4_chi_max"] <= 24
    print(f"\nACCEPTANCE 4 PASS: chi <= 24 on all {sweep['isk4_count']} "
          f"isk4-free labeled graphs n <= 7; max chi observed "
          f"{sweep['isk4_chi_max']} (graph6 {sweep['isk4_chi_max_g6']!r}); "
          f"the random corpus of criterion 3 is covered by its chi <= 3 "
          f"assertion")


def _process_claims_graph(G, stats, failures):
    seed = find_induced_biclique(G, 4)
    if seed is None:
        stats["no_k44"] += 1
        return
    M = structure.grow_maximal_multipartite(G, seed)
    violation = structure.check_claim1(G, M)
    if violation is None:
        res = structure.check_claim2(G, M)
        if isinstance(res, structure.MaximalityBreach):
            failures.append((write_graph6(G).decode(),
                             f"breach at {res.vertex} on grown M"))
            return
        violation = res
    if violation is None:
        violation = structure.check_claim3(G, M)
    if violation is not None:
        stats["violations"] += 1
        stats["witnesses"] += 1
        if not verify_subdivision_witness(G, violation.constructed):
            stats["witness_failures"] += 1
            failures.append((write_graph6(G).decode(),
                             "violation witness invalid"))
        det = find_isk4plus(G)
        if not det.found:
            failures.append((write_graph6(G).decode(),
                             "violation without detector confirmation"))
        else:
            stats["witnesses"] += 1
            if not verify_subdivision_witness(G, det.witness):
                stats["witness_failures"] += 1
                failures.append((write_graph6(G).decode(),
                                 "detector witness invalid"))
        return
    stats["claims_ok"] += 1
    if M.members != G.vertex_mask:
        try:
            split = structure.find_structural_cutset(G, M)
        except structure.NotACliqueError as exc:
            failures.append((write_graph6(G).decode(),
                             f"claims pass, cutset broken at {exc.pair}"))
            return
        if (split is None or not split.component
                or split.component | split.clique == G.vertex_mask):
            failures.append((write_graph6(G).decode(), "bad cutset split"))
            return
        stats["splits"] += 1
    if G.n <= detect.ORACLE_CEILING:
        if find_isk4plus_oracle(G) is None:
            stats["free_confirmed"] += 1


def test_criterion_5_claims_contrapositive():
    rng = random.Random(515151)
    stats = defaultdict(int)
    failures = []
    t0 = time.perf_counter()
    planted = 0
    while planted < 10_000:
        kind = rng.choice(("clean", "clean", "claim1", "claim2", "claim3"))
        G = planted_structured_graph(rng, kind)
        if G.n > detect.ORACLE_CEILING:
            continue
        planted += 1
        if planted % 2000 == 0:
            _progress(f"criterion 5 planted {planted}/10000")
        _process_claims_graph(G, stats, failures)
    for i in range(10_000):
        if i % 2000 == 0:
            _progress(f"criterion 5 random-k44 {i}/10000")
        n = rng.randint(9, 14)
        G = planted_k44_graph(n, rng.choice((0.15, 0.3, 0.45)), rng)
        _process_claims_graph(G, stats, failures)
    assert failures == []
    assert stats["witness_failures"] == 0
    assert stats["violations"] >= 3000
    assert stats["free_confirmed"] >= 3000
    assert stats["splits"] >= 1000
    print(f"\nACCEPTANCE 5 PASS: 20000 structured graphs; "
          f"{stats['violations']} claim violations all detector-confirmed "
          f"({stats['witnesses']} witnesses verified), "
          f"{stats['free_confirmed']} oracle-confirmed free instances all "
          f"pass the claims, {stats['splits']} cutset splits well-formed; "
          f"zero exceptions ({time.perf_counter() - t0:.0f}s)")


def test_criterion_6_coloring_totality(sweep):
    assert sweep["improper"] == 0
    assert sweep["fallback_nodes"] == 0
    rng = random.Random(606060)
    improper = 0
    free_checked = 0
    fallback = 0
    structural_nodes = 0
    t0 = time.perf_counter()
    for i in range(10_000):
        if i % 2000 == 0:
            _progress(f"criterion 6 corpus {i}/10000")
        n = rng.randint(1, 20)
        G = gnp_graph(n, rng.choice((0.1, 0.25, 0.4, 0.6, 0.8)), rng)
        col, trace = color_isk4plus_free(G)
        if verify_proper(G, col) is not None:
            improper += 1
        if G.n <= 14 and find_isk4plus_oracle(G) is None:
            free_checked += 1
            if any(node.fallback for node in trace.walk()):
                fallback += 1
    # planted cores drive the structural-split branch as well
    planted = 0
    while planted < 1000:
        G = planted_structured_graph(rng, "clean")
        if G.n > 14:
            continue
        planted += 1
        col, trace = color_isk4plus_free(G)
        if verify_proper(G, col) is not None:
            improper += 1
        if find_isk4plus_oracle(G) is None:
            free_checked += 1
            if any(node.fallback for node in trace.walk()):
                fallback += 1
            structural_nodes += sum(
                1 for node in trace.walk()
                if node.kind == "structural-split")
    assert improper == 0
    assert fallback == 0
    assert free_checked >= 5000
    assert structural_nodes >= 200
    print(f"\nACCEPTANCE 6 PASS: 11000 colorings all proper (plus "
          f"{sweep['free']} from the exhaustive sweep); "
          f"{free_checked} oracle-verified free instances show zero "
          f"fallback steps; {structural_nodes} structural splits exercised "
          f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_7_quality_report(sweep):
    rng = random.Random(707070)
    sampled = [0, 0, 0]
    t0 = time.perf_counter()
    for _ in range(20_000):
        G = gnp_graph(8, rng.choice((0.15, 0.3, 0.45, 0.6)), rng)
        if find_isk4plus(G).found:
            continue
        chi = detect.chromatic_number_exact(G)
        col, _ = color_isk4plus_free(G)
        gap = col.palette_size - chi
        sampled[0] += 1
        sampled[1] += gap
        sampled[2] = max(sampled[2], gap)
    lines = ["", "ACCEPTANCE 7 (report, not asserted): palette - chi on "
             "ISK4+-free graphs",
             "n,corpus,count,mean_gap,max_gap"]
    for n in sorted(sweep["gap"]):
        count, total, worst = sweep["gap"][n]
        lines.append(f"{n},exhaustive,{count},{total / count:.4f},{worst}")
    lines.append(f"8,sampled,{sampled[0]},{sampled[1] / sampled[0]:.4f},"
                 f"{sampled[2]}")
    lines.append(f"(n=8 block sampled: labeled exhaustion at n=8 is 2^28 "
                 f"graphs; {time.perf_counter() - t0:.0f}s)")
    print("\n".join(lines))
    # sanity only: the recursion never beats the exact chromatic number
    assert all(row[1] >= 0 for row in sweep["gap"].values())


def _run_cli(*argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "isk4plus.cli", *argv],
        capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_8_campaign_determinism():
    t0 = time.perf_counter()
    survey_args = ("survey", "--source", "gnp", "--count", "150",
                   "--min-n", "4", "--max-n", "11", "--p", "0.4",
                   "--seed", "99", "--filter", "isk4p-free")
    out1 = _run_cli(*survey_args, "--jobs", "1")
    out2 = _run_cli(*survey_args, "--jobs", "1")
    out8 = _run_cli(*survey_args, "--jobs", "8")
    assert out1 == out2 == out8 and out1
    claims_args = ("verify-claims", "--source", "planted", "--count", "100",
                   "--seed", "5")
    c1 = _run_cli(*claims_args, "--jobs", "1")
    c8 = _run_cli(*claims_args, "--jobs", "8")
    assert c1 == c8
    assert json.loads(c1)["consistency_failures"] == []
    bounds_args = ("check-bounds", "--source", "triangle-free", "--count",
                   "300", "--min-n", "8", "--max-n", "12", "--seed", "17",
                   "--filter", "triangle-free", "--filter", "isk4-free")
    b1 = _run_cli(*bounds_args, "--jobs", "1")
    b8 = _run_cli(*bounds_args, "--jobs", "8")
    assert b1 == b8
    assert json.loads(b1)["violations"] == []
    print(f"\nACCEPTANCE 8 PASS: survey, verify-claims, and check-bounds "
          f"reruns are byte-identical, --jobs 8 matches --jobs 1 "
          f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_9_graph6_round_trip():
    rng = random.Random(909090)
    for i in range(1000):
        n = rng.randint(0, 100)
        G = gnp_graph(n, rng.choice((0.05, 0.2, 0.5, 0.8)), rng)
        rec = write_graph6(G)
        assert parse_graph6(rec) == G
        assert write_graph6(parse_graph6(rec)) == rec
    import pathlib
    fixture = pathlib.Path(__file__).parent / "data" / "records.g6"
    records = [r for r in fixture.read_bytes().splitlines() if r]
    for raw in records:
        assert write_graph6(parse_graph6(raw)) == raw
    print(f"\nACCEPTANCE 9 PASS: graph6 byte-exact on 1000 random graphs "
          f"n <= 100 and {len(records)} hand-written fixture records")
