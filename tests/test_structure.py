"""Multipartite growth, the three structural claims, and clique cutsets."""

import json
import random
from itertools import combinations

import pytest

from isk4plus.detect import (BicliqueWitness, SearchBudgetExceeded,
                             find_biclique_subgraph, find_induced_biclique,
                             find_isk4plus, find_isk4plus_oracle,
                             verify_subdivision_witness)
from isk4plus.graph import (bit_list, edge_list, graph_from_edges,
                            induced_subgraph, is_connected, mask_of)
from isk4plus.harness import (complete_multipartite, cycle_graph,
                              gnp_graph, path_graph, planted_k44_graph,
                              planted_structured_graph)
from isk4plus.structure import (ClaimViolation, MaximalityBreach,
                                MultipartiteWitness, NotACliqueError,
                                check_claim1, check_claim2, check_claim3,
                                find_structural_cutset,
                                grow_maximal_multipartite, multipartite_ok,
                                multipartite_is_maximal)

from util_exhaustive import find_any_clique_cutset

K44_EDGES = [(u, v) for u in range(4) for v in range(4, 8)]
A = mask_of(range(4))
B = mask_of(range(4, 8))


def k44_seed():
    return BicliqueWitness(A, B, induced=True)


def k44_plus(extra_edges, n=9):
    return graph_from_edges(n, K44_EDGES + extra_edges)


# ---------------------------------------------------------------------------
# growth

def test_grow_k44_covers_everything():
    g = graph_from_edges(8, K44_EDGES)
    m = grow_maximal_multipartite(g, k44_seed())
    assert m.parts == (A, B)
    assert m.members == g.vertex_mask
    assert m.big_parts == (0, 1)
    assert multipartite_ok(g, m) and multipartite_is_maximal(g, m)


def test_grow_k441_adds_singleton_part():
    g = complete_multipartite(4, 4, 1)
    m = grow_maximal_multipartite(g, k44_seed())
    assert len(m.parts) == 3
    assert m.parts[2] == 1 << 8
    assert m.members == g.vertex_mask


def test_grow_pendant_stays_out():
    g = k44_plus([(8, 0)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert m.members == A | B
    assert multipartite_is_maximal(g, m)


def test_grow_prefers_joining_over_new_part():
    # vertex 8 anticomplete to side A and complete to side B joins A
    g = graph_from_edges(9, K44_EDGES + [(8, v) for v in range(4, 8)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert m.parts[0] == A | (1 << 8)
    assert len(m.parts) == 2


def test_grow_validates_seed():
    g = graph_from_edges(8, K44_EDGES + [(0, 1)])
    with pytest.raises(ValueError, match="stable"):
        grow_maximal_multipartite(g, k44_seed())
    with pytest.raises(ValueError):
        grow_maximal_multipartite(graph_from_edges(8, K44_EDGES[:-1]),
                                  k44_seed())


def test_grow_random_outputs_valid_and_maximal():
    rng = random.Random(7)
    for _ in range(30):
        g = planted_k44_graph(rng.randint(8, 13), 0.4, rng)
        seed = find_induced_biclique(g, 4)
        assert seed is not None
        m = grow_maximal_multipartite(g, seed)
        assert multipartite_ok(g, m)
        assert multipartite_is_maximal(g, m)


# ---------------------------------------------------------------------------
# claim 1

def test_claim1_mixed_vertex_violation():
    g = k44_plus([(8, 0), (8, 1), (8, 4)])
    m = grow_maximal_multipartite(g, k44_seed())
    v = check_claim1(g, m)
    assert isinstance(v, ClaimViolation)
    assert v.claim_id == 1
    assert v.actors == (8, 0, 1, 4, 5)
    assert verify_subdivision_witness(g, v.constructed)
    assert find_isk4plus_oracle(g) is not None


def test_claim1_complete_to_far_side_ok():
    g = k44_plus([(8, v) for v in range(4, 8)])
    m = MultipartiteWitness((A, B))
    assert check_claim1(g, m) is None


def test_claim1_vacuous_ok():
    g = graph_from_edges(8, K44_EDGES)
    assert check_claim1(g, grow_maximal_multipartite(g, k44_seed())) is None


# ---------------------------------------------------------------------------
# claim 2

def test_claim2_two_anticomplete_parts():
    # K4,4,4 plus v adjacent to exactly two vertices of the first part
    g = graph_from_edges(13, [(u, v) for u, v in
                              combinations(range(12), 2)
                              if u // 4 != v // 4] + [(12, 0), (12, 1)])
    m = grow_maximal_multipartite(g, BicliqueWitness(A, B, True))
    assert len(m.parts) == 3
    assert check_claim1(g, m) is None
    v = check_claim2(g, m)
    assert isinstance(v, ClaimViolation) and v.claim_id == 2
    assert v.actors == (12, 0, 1, 4, 8)
    assert v.constructed.total == mask_of([12, 0, 1, 4, 8])
    assert verify_subdivision_witness(g, v.constructed)
    assert find_isk4plus(g).found


def test_claim2_six_vertex_witness():
    # only two parts: v mixed to its home part, anticomplete to the other
    g = k44_plus([(8, 0), (8, 1)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert check_claim1(g, m) is None
    v = check_claim2(g, m)
    assert isinstance(v, ClaimViolation) and v.claim_id == 2
    assert v.actors == (8, 0, 1, 2, 4, 5)
    assert verify_subdivision_witness(g, v.constructed)
    assert v.constructed.total.bit_count() == 6
    assert find_isk4plus(g).found


def test_claim2_one_neighbor_per_side_ok():
    g = k44_plus([(8, 0), (8, 4)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert check_claim1(g, m) is None
    assert check_claim2(g, m) is None


def test_claim2_maximality_breach():
    # v complete to M cannot appear after a proper growth, so feed the
    # ungrown M directly
    g = k44_plus([(8, v) for v in range(8)])
    m = MultipartiteWitness((A, B))
    res = check_claim2(g, m)
    assert isinstance(res, MaximalityBreach)
    assert res.vertex == 8
    # the grown M absorbs the vertex and the claim passes
    grown = grow_maximal_multipartite(g, k44_seed())
    assert check_claim2(g, grown) is None


def test_claim2_handles_unmet_preconditions_soundly():
    # claim 1 actually fails here (v mixed to B with two A-neighbors);
    # check_claim2 must still hand back a sound witness rather than raise
    g = k44_plus([(8, 0), (8, 1), (8, 4)])
    m = MultipartiteWitness((A, B))
    v = check_claim2(g, m)
    assert isinstance(v, ClaimViolation) and v.claim_id == 2
    # the same actors that check_claim1 picks on this graph
    assert v.actors == (8, 0, 1, 4, 5)
    assert verify_subdivision_witness(g, v.constructed)


def test_claim2_complete_big_part_case():
    # v complete to one 4-part and mixed to its 2-neighbor home part
    g = graph_from_edges(9, K44_EDGES + [(8, 0), (8, 1)]
                         + [(8, v) for v in range(4, 8)])
    m = MultipartiteWitness((A, B))
    v = check_claim2(g, m)
    assert isinstance(v, ClaimViolation)
    assert verify_subdivision_witness(g, v.constructed)


def test_claim2_breach_when_joinable_to_part():
    # v complete to side B and with two neighbors inside A, none missing:
    # impossible; instead v complete to A and anticomplete to B joins B
    g = k44_plus([(8, v) for v in range(4)])
    m = MultipartiteWitness((A, B))
    res = check_claim2(g, m)
    assert isinstance(res, MaximalityBreach)


# ---------------------------------------------------------------------------
# claim 3

def test_claim3_path_violation_big_home_part():
    g = graph_from_edges(10, K44_EDGES + [(0, 8), (8, 9), (9, 1)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert check_claim1(g, m) is None and check_claim2(g, m) is None
    v = check_claim3(g, m)
    assert isinstance(v, ClaimViolation) and v.claim_id == 3
    # path 0-8-9-1 plus a third A-vertex and two B-vertices
    assert v.actors == (0, 8, 9, 1, 2, 4, 5)
    assert verify_subdivision_witness(g, v.constructed)
    assert find_isk4plus_oracle(g) is not None
    assert find_isk4plus(g).found


def test_claim3_small_home_part_uses_second_big_part():
    # parts sized 2,4,4; the path endpoints sit in the 2-part
    g0 = complete_multipartite(2, 4, 4)
    g = graph_from_edges(12, [(u, v) for u in range(10)
                              for v in range(u + 1, 10)
                              if (g0.adj[u] >> v) & 1]
                         + [(0, 10), (10, 11), (11, 1)])
    seed = BicliqueWitness(mask_of(range(2, 6)), mask_of(range(6, 10)), True)
    m = grow_maximal_multipartite(g, seed)
    assert sorted(p.bit_count() for p in m.parts) == [2, 4, 4]
    assert check_claim1(g, m) is None and check_claim2(g, m) is None
    v = check_claim3(g, m)
    assert isinstance(v, ClaimViolation) and v.claim_id == 3
    assert verify_subdivision_witness(g, v.constructed)
    assert v.constructed.total.bit_count() == 6


def test_claim3_pendants_ok():
    g = k44_plus([(8, 0)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert check_claim3(g, m) is None
    g = k44_plus([(8, 0), (9, 4)], n=10)
    m = grow_maximal_multipartite(g, k44_seed())
    assert check_claim3(g, m) is None


def test_claim3_requires_claim2():
    # a 2-edge path between two A-vertices is a claim-2 violation
    g = k44_plus([(0, 8), (8, 1)])
    m = grow_maximal_multipartite(g, k44_seed())
    assert isinstance(check_claim2(g, m), ClaimViolation)
    with pytest.raises(ValueError, match="claim 2"):
        check_claim3(g, m)


def test_violation_json_layout():
    g = k44_plus([(8, 0), (8, 1), (8, 4)])
    m = grow_maximal_multipartite(g, k44_seed())
    doc = check_claim1(g, m).to_json_dict()
    assert list(doc.keys()) == ["claim", "actors", "witness_vertices",
                                "witness_paths"]
    text = json.dumps(doc)
    assert json.loads(text) == doc


# ---------------------------------------------------------------------------
# structural cutset

def test_cutset_pendant():
    g = k44_plus([(8, 0)])
    m = grow_maximal_multipartite(g, k44_seed())
    split = find_structural_cutset(g, m)
    assert split.clique == 1 << 0
    assert split.component == 1 << 8
    _assert_split_wellformed(g, split)


def test_cutset_two_anchor_vertex():
    g = k44_plus([(8, 0), (8, 4)])
    m = grow_maximal_multipartite(g, k44_seed())
    split = find_structural_cutset(g, m)
    assert split.clique == mask_of([0, 4])
    assert split.component == 1 << 8
    _assert_split_wellformed(g, split)


def test_cutset_none_when_m_covers():
    g = graph_from_edges(8, K44_EDGES)
    m = grow_maximal_multipartite(g, k44_seed())
    assert find_structural_cutset(g, m) is None


def test_cutset_not_a_clique_signals_violated_claims():
    g = graph_from_edges(10, K44_EDGES + [(0, 8), (8, 9), (9, 1)])
    m = grow_maximal_multipartite(g, k44_seed())
    with pytest.raises(NotACliqueError) as exc:
        find_structural_cutset(g, m)
    assert exc.value.pair == (0, 1)


def test_cutset_disconnected_uses_empty_clique():
    g = graph_from_edges(9, K44_EDGES)  # vertex 8 isolated
    m = grow_maximal_multipartite(g, k44_seed())
    split = find_structural_cutset(g, m)
    assert split.clique == 0
    assert split.component == 1 << 8
    _assert_split_wellformed(g, split)


def _assert_split_wellformed(g, split):
    side1 = g.vertex_mask & ~split.component
    side2 = split.component | split.clique
    assert side1 != g.vertex_mask and side2 != g.vertex_mask
    assert side1 | side2 == g.vertex_mask
    assert side1 & side2 == split.clique
    for x, y in combinations(bit_list(split.clique), 2):
        assert (g.adj[x] >> y) & 1
    beyond = g.vertex_mask & ~side2
    for v in bit_list(split.component):
        assert g.adj[v] & beyond == 0


# ---------------------------------------------------------------------------
# generic cutset oracle

def test_any_cutset_shared_vertex():
    edges = list(combinations(range(4), 2)) + \
        [(u, v) for u, v in combinations(range(3, 7), 2)]
    g = graph_from_edges(7, edges)
    split = find_any_clique_cutset(g)
    assert split.clique == 1 << 3
    _assert_split_wellformed(g, split)


def test_any_cutset_c5_none():
    assert find_any_clique_cutset(cycle_graph(5)) is None


def test_any_cutset_path():
    split = find_any_clique_cutset(path_graph(4))
    assert split.clique == 1 << 1
    assert split.component == 1 << 0


def test_any_cutset_disconnected_uses_empty_clique():
    g = graph_from_edges(5, [(0, 1), (2, 3)])
    split = find_any_clique_cutset(g)
    assert split.clique == 0
    _assert_split_wellformed(g, split)


def test_any_cutset_ceiling():
    with pytest.raises(ValueError, match="ceiling"):
        find_any_clique_cutset(gnp_graph(25, 0.4, random.Random(0)))


def _with_disjoint_path(g, k):
    # g plus a path on k new vertices, anticomplete to g
    return graph_from_edges(g.n + k, edge_list(g) + [
        (v, v + 1) for v in range(g.n, g.n + k - 1)])


def test_structural_cutset_matches_oracle_existence():
    rng = random.Random(71)
    graphs = [planted_structured_graph(rng, "clean") for _ in range(20)]
    # seed 71 draws only connected graphs: add an isolated vertex to one
    # and a disjoint P3 to another
    graphs += [_with_disjoint_path(planted_structured_graph(rng, "clean"), k)
               for k in (1, 3)]
    hits = disconnected = 0
    for g in graphs:
        seed = find_induced_biclique(g, 4)
        assert seed is not None
        m = grow_maximal_multipartite(g, seed)
        if m.members == g.vertex_mask:
            continue
        split = find_structural_cutset(g, m)
        _assert_split_wellformed(g, split)
        oracle_split = find_any_clique_cutset(g)
        assert oracle_split is not None
        hits += 1
        disconnected += not is_connected(g)
    assert hits >= 5 and disconnected >= 1


# ---------------------------------------------------------------------------
# vertex-mask arguments

def _lift(vmap, mask):
    return mask_of(vmap[v] for v in bit_list(mask))


def _lift_biclique(vmap, w):
    if w is None:
        return None
    return (_lift(vmap, w.side_a), _lift(vmap, w.side_b), w.induced)


def _biclique_tuple(w):
    return None if w is None else (w.side_a, w.side_b, w.induced)


def _cutset_outcome(g, m, members=None):
    try:
        split = find_structural_cutset(g, m, members=members)
    except NotACliqueError as exc:
        return "not-a-clique", exc.pair, exc.neighborhood
    if split is None:
        return None
    return "split", split.clique, split.component


def _budget_outcomes(g, members=None):
    out = []
    for budget in range(51):
        try:
            find_induced_biclique(g, 4, budget, members=members)
            out.append(False)
        except SearchBudgetExceeded:
            out.append(True)
    return out


def test_mask_arguments_match_induced_subgraph():
    """Each search on (G, mask) equals the same search on the induced
    subgraph, lifted back to G's indices."""
    rng = random.Random(4041)
    seen = {"seed": 0, "none": 0, "direct": 0, "split": 0,
            "not-a-clique": 0, "budget-mixed": 0}
    for i in range(48):
        n = rng.randint(8, 40)
        if i % 2:
            g = planted_k44_graph(n, rng.choice([0.1, 0.2, 0.3]), rng)
        else:
            g = gnp_graph(n, rng.choice([0.2, 0.35, 0.5]), rng)
        for j in range(3):
            keep = rng.choice([0.6, 0.8, 0.95])
            if i % 2 and j == 1:
                keep = 0.1  # little beyond the core: M may cover the mask
            m = mask_of(v for v in range(n) if rng.random() < keep)
            if i % 2 and j < 2:
                m |= mask_of(range(8))  # keep the planted K4,4
            h, vmap = induced_subgraph(g, m)

            for s in (2, 4):
                assert _biclique_tuple(find_biclique_subgraph(
                    g, s, members=m)) == _lift_biclique(
                    vmap, find_biclique_subgraph(h, s))
            outcomes = _budget_outcomes(g, m)
            assert outcomes == _budget_outcomes(h)
            if any(outcomes) and not all(outcomes):
                seen["budget-mixed"] += 1

            seed_h = find_induced_biclique(h, 4)
            seed = find_induced_biclique(g, 4, members=m)
            assert _biclique_tuple(seed) == _lift_biclique(vmap, seed_h)
            if seed is None:
                seen["none"] += 1
                continue
            seen["seed"] += 1

            grown_h = grow_maximal_multipartite(h, seed_h)
            grown = grow_maximal_multipartite(g, seed, members=m)
            assert grown.parts == tuple(_lift(vmap, p)
                                        for p in grown_h.parts)

            cut_h = _cutset_outcome(h, grown_h)
            cut = _cutset_outcome(g, grown, m)
            if cut_h is None:
                assert cut is None and grown.members == m
                seen["direct"] += 1
            elif cut_h[0] == "split":
                assert cut == ("split", _lift(vmap, cut_h[1]),
                               _lift(vmap, cut_h[2]))
                seen["split"] += 1
            else:
                x, y = cut_h[1]
                assert cut == ("not-a-clique", (vmap[x], vmap[y]),
                               _lift(vmap, cut_h[2]))
                seen["not-a-clique"] += 1
    assert all(count >= 3 for count in seen.values()), seen


def test_mask_arguments_reject_bits_outside_the_graph():
    g = k44_plus([(8, 0)])
    outside = g.vertex_mask | 1 << g.n
    with pytest.raises(ValueError):
        find_induced_biclique(g, 4, members=outside)
    with pytest.raises(ValueError):
        find_biclique_subgraph(g, 4, members=outside)
    m = grow_maximal_multipartite(g, k44_seed())
    with pytest.raises(ValueError):
        grow_maximal_multipartite(g, k44_seed(), members=outside)
    with pytest.raises(ValueError):
        find_structural_cutset(g, m, members=outside)
    with pytest.raises(ValueError, match="members"):
        grow_maximal_multipartite(g, k44_seed(),
                                  members=g.vertex_mask & ~1)


# ---------------------------------------------------------------------------
# contrapositive suite

def test_contrapositive_random_suite():
    rng = random.Random(83)
    seen_violation = 0
    seen_free = 0
    for _ in range(120):
        g = planted_k44_graph(rng.randint(9, 12), rng.choice([0.15, 0.3]),
                              rng)
        seed = find_induced_biclique(g, 4)
        if seed is None:
            continue
        m = grow_maximal_multipartite(g, seed)
        violation = check_claim1(g, m)
        if violation is None:
            res = check_claim2(g, m)
            assert not isinstance(res, MaximalityBreach)
            violation = res
        if violation is None:
            violation = check_claim3(g, m)
        if violation is not None:
            seen_violation += 1
            assert verify_subdivision_witness(g, violation.constructed)
            det = find_isk4plus(g)
            assert det.found
            assert verify_subdivision_witness(g, det.witness)
            oracle_sub, _ = induced_subgraph(g, violation.constructed.total)
            assert find_isk4plus_oracle(oracle_sub) is not None
        else:
            if find_isk4plus_oracle(g) is None:
                seen_free += 1
                if m.members != g.vertex_mask:
                    split = find_structural_cutset(g, m)
                    _assert_split_wellformed(g, split)
    assert seen_violation >= 10
    assert seen_free >= 10
