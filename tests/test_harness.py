"""Enumeration, random models, filters, and the three campaigns."""

import random

import pytest

from isk4plus import detect
from isk4plus.formats import write_graph6
from isk4plus.graph import UsageError, edge_count, graph_from_edges
from isk4plus.harness import (CampaignConfig, check_cited_bounds,
                              complete_multipartite, cycle_graph,
                              enumerate_labeled, gnp_graph, has_triangle,
                              iter_config_graphs, passes_filters,
                              petersen_graph, planted_k44_graph,
                              planted_structured_graph,
                              random_triangle_free_graph, survey_chi_vs_omega,
                              survey_to_csv, verify_claims_campaign)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_counts():
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4)) == 64


def test_enumerate_order_and_extremes():
    graphs = list(enumerate_labeled(3))
    assert edge_count(graphs[0]) == 0
    assert edge_count(graphs[-1]) == 3
    # ascending by edge bitmask means edge counts follow popcount order
    assert [edge_count(g) for g in graphs[:4]] == [0, 1, 1, 2]


def test_enumerate_ceiling():
    with pytest.raises(ValueError):
        next(enumerate_labeled(8))


# ---------------------------------------------------------------------------
# random models

def test_gnp_seeded_reproducible():
    a = [write_graph6(gnp_graph(10, 0.5, random.Random(5))) for _ in range(3)]
    b = [write_graph6(gnp_graph(10, 0.5, random.Random(5))) for _ in range(3)]
    assert a[0] == b[0]


def test_random_triangle_free():
    rng = random.Random(13)
    for _ in range(30):
        g = random_triangle_free_graph(rng.randint(4, 14), rng)
        assert not has_triangle(g)
        assert edge_count(g) > 0


def test_planted_k44_contains_induced_core():
    rng = random.Random(17)
    for _ in range(20):
        g = planted_k44_graph(rng.randint(8, 14), 0.5, rng)
        assert detect.find_induced_biclique(g, 4) is not None


def test_planted_structured_kinds():
    rng = random.Random(19)
    for kind in ("clean", "claim1", "claim2", "claim3"):
        g = planted_structured_graph(rng, kind)
        assert detect.find_induced_biclique(g, 4) is not None
    with pytest.raises(ValueError):
        planted_structured_graph(rng, "nope")


def test_has_triangle_and_k4():
    assert not has_triangle(cycle_graph(5))
    assert has_triangle(complete_multipartite(1, 1, 1))
    assert detect.clique_number(complete_multipartite(2, 2, 2)) < 4
    assert detect.clique_number(complete_multipartite(1, 1, 1, 1, 2)) >= 4


# ---------------------------------------------------------------------------
# filters

def test_filter_semantics():
    c5 = cycle_graph(5)
    assert passes_filters(c5, ("triangle-free", "isk4-free"), None) == \
        (True, False)
    k4 = complete_multipartite(1, 1, 1, 1)
    assert passes_filters(k4, ("isk4-free",), None)[0] is False
    assert passes_filters(k4, ("isk4p-free",), None)[0] is True
    with pytest.raises(ValueError):
        passes_filters(c5, ("bogus",), None)


def test_filter_coherence_isk4_implies_isk4p():
    rng = random.Random(23)
    for _ in range(80):
        g = gnp_graph(rng.randint(4, 10), rng.choice([0.3, 0.6]), rng)
        if passes_filters(g, ("isk4-free",), None)[0]:
            assert passes_filters(g, ("isk4p-free",), None)[0]


def test_filter_budget_exclusion():
    g = planted_k44_graph(14, 0.5, random.Random(29))
    passed, hit = passes_filters(g, ("isk4p-free",), 2)
    assert passed is False and hit is True


# ---------------------------------------------------------------------------
# survey

def test_survey_exhaustive_small():
    cfg = CampaignConfig(source="enumerate", max_n=5,
                         filters=("isk4p-free",))
    rows, stats = survey_chi_vs_omega(cfg)
    by_key = {(r.n, r.omega): r for r in rows}
    # the odd cycle C5 realizes chi=3 at omega=2
    assert by_key[(5, 2)].max_chi_observed == 3
    assert stats["budget_hits"] == 0
    # every graph on <= 5 vertices is ISK4+-free: the witness needs 5
    # vertices and the only candidate, K4+, appears at bitmask order 30
    assert stats["passed"] == stats["graphs"] - 30


def test_survey_multipartite_family_stream():
    lines = [write_graph6(complete_multipartite(4, 4)),
             write_graph6(complete_multipartite(4, 4, 4))]
    cfg = CampaignConfig(source="graph6", lines=lines,
                         filters=("isk4p-free",))
    rows, stats = survey_chi_vs_omega(cfg)
    assert stats["passed"] == 2
    assert {(r.n, r.omega): r.max_chi_observed for r in rows} == {
        (8, 2): 2, (12, 3): 3}


def test_survey_empty_stream():
    cfg = CampaignConfig(source="graph6", lines=[])
    rows, stats = survey_chi_vs_omega(cfg)
    assert rows == [] and stats["graphs"] == 0


def test_survey_row_invariant_and_csv():
    cfg = CampaignConfig(source="gnp", count=40, min_n=4, max_n=9, p=0.4,
                         seed=3)
    rows, _ = survey_chi_vs_omega(cfg)
    assert rows
    for r in rows:
        assert r.max_chi_observed >= r.omega
        assert r.count_graphs > 0
    csv = survey_to_csv(rows)
    head = csv.splitlines()[0]
    assert head == "n,omega,max_chi_observed,count_graphs,example_graph6"


def test_survey_deterministic_across_jobs():
    base = dict(source="gnp", count=60, min_n=4, max_n=9, p=0.5, seed=11,
                filters=("isk4p-free",))
    rows1, s1 = survey_chi_vs_omega(CampaignConfig(jobs=1, **base))
    rows2, s2 = survey_chi_vs_omega(CampaignConfig(jobs=2, **base))
    assert survey_to_csv(rows1) == survey_to_csv(rows2)
    assert s1 == s2


# ---------------------------------------------------------------------------
# claims campaign

def test_claims_campaign_planted_fixtures():
    lines = []
    rng = random.Random(31)
    for kind in ("clean", "claim1", "claim2", "claim3"):
        for _ in range(5):
            lines.append(write_graph6(planted_structured_graph(rng, kind)))
    cfg = CampaignConfig(source="graph6", lines=lines)
    report = verify_claims_campaign(cfg)
    assert report["graphs"] == 20
    assert report["consistency_failures"] == []
    assert report["violations"]["1"] >= 5
    assert report["violations"]["2"] >= 5
    assert report["violations"]["3"] >= 5
    assert report["claims_ok"] >= 5
    assert report["breaches"] == 0


def test_claims_campaign_random_k44():
    cfg = CampaignConfig(source="k44-random", count=60, min_n=9, max_n=12,
                         p=0.3, seed=37)
    report = verify_claims_campaign(cfg)
    assert report["graphs"] == 60
    assert report["consistency_failures"] == []
    assert report["budget_hits"] == 0


def test_claims_campaign_checks_cutset_of_disconnected_graph():
    # K4,4 on 0..7 plus the path 8-9-10: the claims hold, and the component
    # outside M is a component of G, cut off by the empty clique
    k44 = [(u, v) for u in range(4) for v in range(4, 8)]
    g = graph_from_edges(11, k44 + [(8, 9), (9, 10)])
    report = verify_claims_campaign(
        CampaignConfig(source="graph6", lines=[write_graph6(g)]))
    assert report["claims_ok"] == 1
    assert report["splits"] == 1
    assert report["consistency_failures"] == []


def test_claims_campaign_deterministic():
    base = dict(source="planted", count=30, seed=41)
    r1 = verify_claims_campaign(CampaignConfig(jobs=1, **base))
    r2 = verify_claims_campaign(CampaignConfig(jobs=2, **base))
    assert r1 == r2


# ---------------------------------------------------------------------------
# cited bounds

def test_bounds_exhaustive_n6_triangle_free():
    cfg = CampaignConfig(source="enumerate", max_n=6,
                         filters=("triangle-free", "isk4-free"))
    report = check_cited_bounds(cfg)
    assert report["bound"] == 3
    assert report["violations"] == []
    assert report["max_chi"] == 3
    assert report["checked"] > 0


def test_bounds_c5_meets_three():
    cfg = CampaignConfig(source="graph6",
                         lines=[write_graph6(cycle_graph(5))],
                         filters=("triangle-free", "isk4-free"))
    report = check_cited_bounds(cfg)
    assert report["checked"] == 1
    assert report["max_chi"] == 3 and report["violations"] == []


def test_bounds_petersen_consistent_either_way():
    g = petersen_graph()
    cfg = CampaignConfig(source="graph6", lines=[write_graph6(g)],
                         filters=("triangle-free", "isk4-free"))
    report = check_cited_bounds(cfg)
    verdict = detect.find_isk4plus(g, min_total=4)
    if verdict.found:
        assert report["checked"] == 0
    else:
        assert report["checked"] == 1
        assert report["max_chi"] == 3
    assert report["violations"] == []


def test_bounds_requires_isk4_filter():
    with pytest.raises(ValueError):
        check_cited_bounds(CampaignConfig(filters=("triangle-free",)))


def test_bounds_chi24_small():
    cfg = CampaignConfig(source="enumerate", max_n=5, filters=("isk4-free",))
    report = check_cited_bounds(cfg)
    assert report["bound"] == 24
    assert report["violations"] == []
    assert report["max_chi"] <= 5


# ---------------------------------------------------------------------------
# config plumbing

def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(source="enumerate", max_n=9).validate()
    with pytest.raises(ValueError):
        CampaignConfig(filters=("nope",)).validate()
    # a usage error, not the graph constructor's internal ValueError
    with pytest.raises(UsageError, match="min_n >= 0, got -1"):
        CampaignConfig(source="enumerate", min_n=-1, max_n=2).validate()
    with pytest.raises(ValueError):
        list(iter_config_graphs(CampaignConfig(source="bogus")))


def test_sources_deterministic():
    for source in ("gnp", "triangle-free", "planted", "k44-random"):
        cfg = CampaignConfig(source=source, count=5, min_n=8, max_n=10,
                             seed=43)
        a = [write_graph6(g) for g in iter_config_graphs(cfg)]
        b = [write_graph6(g) for g in iter_config_graphs(cfg)]
        assert a == b and len(a) == 5
