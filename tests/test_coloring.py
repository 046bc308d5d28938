"""Greedy extension, clique merge, and the recursive coloring."""

import random
from itertools import combinations

import pytest

from isk4plus import coloring, detect, structure
from isk4plus.coloring import (ColorOptions, ColoringBudgetError,
                               _stays_connected, color_isk4plus_free,
                               coloring_to_json, merge_on_clique,
                               verify_proper)
from isk4plus.detect import chromatic_number_exact, find_isk4plus
from isk4plus.formats import parse_graph6
from isk4plus.graph import (Coloring, coloring_from_map, graph_from_edges,
                            is_connected, mask_of)
from isk4plus.harness import (complete_graph, cycle_graph, gnp_graph,
                              k4_plus_graph, path_graph,
                              planted_structured_graph, planted_k44_graph)
from util_reference_coloring import greedy_extend, reference_color

K44_EDGES = [(u, v) for u in range(4) for v in range(4, 8)]


# ---------------------------------------------------------------------------
# greedy extension

def test_greedy_star_center():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    out = greedy_extend(g, {1: 0, 2: 0, 3: 0}, 0, palette=2)
    assert out.colors[0] == 1
    assert verify_proper(g, out) is None


def test_greedy_k4_last_vertex():
    g = complete_graph(4)
    out = greedy_extend(g, {0: 0, 1: 1, 2: 2}, 3, palette=4)
    assert out.colors[3] == 3


def test_greedy_isolated():
    g = graph_from_edges(1, [])
    assert greedy_extend(g, {}, 0, palette=1).colors == (0,)


def test_greedy_blocked_palette_raises():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="blocked"):
        greedy_extend(g, {0: 0, 1: 1}, 2, palette=2)


def test_greedy_missing_neighbor_color():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="uncolored"):
        greedy_extend(g, {0: 0}, 2, palette=3)


# ---------------------------------------------------------------------------
# merge

def test_merge_two_triangles_sharing_edge():
    c1 = {0: 0, 1: 1, 2: 2}
    c2 = {0: 1, 1: 0, 3: 2}
    merged = merge_on_clique(c1, c2, mask_of([0, 1]))
    assert merged == {0: 0, 1: 1, 2: 2, 3: 2}
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert verify_proper(g, coloring_from_map(4, merged)) is None


def test_merge_empty_clique_concatenates():
    merged = merge_on_clique({0: 0, 1: 1}, {2: 0, 3: 1}, 0)
    assert merged == {0: 0, 1: 1, 2: 0, 3: 1}


def test_merge_single_shared_vertex():
    merged = merge_on_clique({0: 2, 1: 0}, {0: 0, 2: 1}, 0b1)
    assert merged[0] == 2
    assert merged[2] != 2


def test_merge_palette_bound_and_permutation():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(0, 3)
        shared = list(range(k))
        c1 = {v: v for v in shared}
        c2 = {v: k - 1 - v for v in shared}
        extra1 = {10 + i: rng.randint(0, 4) for i in range(3)}
        extra2 = {20 + i: rng.randint(0, 4) for i in range(3)}
        c1.update(extra1)
        c2.update(extra2)
        merged = merge_on_clique(c1, c2, mask_of(shared))
        p1 = 1 + max(c1.values(), default=-1)
        p2 = 1 + max(c2.values(), default=-1)
        assert 1 + max(merged.values(), default=-1) <= max(p1, p2)
        # restriction to the first piece is untouched
        for v in c1:
            assert merged[v] == c1[v]
        # restriction to the second piece is a single injective relabeling
        pi = {}
        for v in c2:
            if v in c1:
                continue
            assert pi.setdefault(c2[v], merged[v]) == merged[v]
        for v in shared:
            assert pi.setdefault(c2[v], c1[v]) == merged[v]
        assert len(set(pi.values())) == len(pi)


def test_merge_rejects_non_injective():
    with pytest.raises(ValueError, match="injective"):
        merge_on_clique({0: 0, 1: 0}, {0: 0, 1: 1}, 0b11)
    with pytest.raises(ValueError, match="injective"):
        merge_on_clique({0: 0, 1: 1}, {0: 2, 1: 2}, 0b11)


# ---------------------------------------------------------------------------
# verify_proper

def test_verify_proper_examples():
    g = complete_graph(4)
    assert verify_proper(g, Coloring((0, 1, 2, 3))) is None
    assert verify_proper(g, Coloring((0, 0, 1, 2))) == (0, 1)
    empty = graph_from_edges(3, [])
    assert verify_proper(empty, Coloring((0, 0, 0))) is None
    with pytest.raises(ValueError, match="size does not match"):
        verify_proper(g, Coloring((1, 0, 2)))


# ---------------------------------------------------------------------------
# the recursion

def test_color_k44_multipartite_direct():
    g = graph_from_edges(8, K44_EDGES)
    col, trace = color_isk4plus_free(g)
    assert col.palette_size == 2
    assert trace.kind == "multipartite-direct"
    assert verify_proper(g, col) is None


def test_color_two_k4s_sharing_vertex():
    edges = list(combinations(range(4), 2)) + \
        [(u, v) for u, v in combinations(range(3, 7), 2)]
    g = graph_from_edges(7, edges)
    assert not find_isk4plus(g).found
    col, trace = color_isk4plus_free(g)
    assert col.palette_size == 4 == chromatic_number_exact(g)
    assert verify_proper(g, col) is None
    assert all(n.fallback is None for n in trace.walk())


def test_color_k44_pendant_structural_split():
    g = graph_from_edges(9, K44_EDGES + [(8, 0)])
    col, trace = color_isk4plus_free(g)
    assert col.palette_size == 2 == chromatic_number_exact(g)
    kinds = [n.kind for n in trace.walk()]
    assert kinds[0] == "structural-split"
    assert trace.clique == (0,)
    assert trace.component == (8,)
    assert verify_proper(g, col) is None


def test_color_disconnected_components():
    edges = list(combinations(range(4), 2)) + [(5, 6)]
    g = graph_from_edges(7, edges)
    col, trace = color_isk4plus_free(g)
    assert trace.kind == "component-split"
    assert len(trace.children) == 3
    assert col.palette_size == 4
    assert verify_proper(g, col) is None


def test_color_base_case():
    g = complete_graph(3)
    col, trace = color_isk4plus_free(g)
    assert trace.kind == "base"
    assert col.palette_size == 3


def test_color_empty_and_singleton():
    col, trace = color_isk4plus_free(graph_from_edges(0, []))
    assert col.colors == ()
    col, _ = color_isk4plus_free(graph_from_edges(1, []))
    assert col.colors == (0,)


def test_color_proper_on_arbitrary_random_graphs():
    rng = random.Random(101)
    for _ in range(300):
        g = gnp_graph(rng.randint(0, 15), rng.choice([0.15, 0.4, 0.7]), rng)
        col, trace = color_isk4plus_free(g)
        assert verify_proper(g, col) is None
        assert col.palette_size >= chromatic_number_exact(g) or g.n == 0


def test_color_planted_structures_proper():
    rng = random.Random(103)
    for kind in ("clean", "claim1", "claim2", "claim3"):
        for _ in range(15):
            g = planted_structured_graph(rng, kind)
            col, trace = color_isk4plus_free(g)
            assert verify_proper(g, col) is None


def test_trace_no_fallback_on_free_graphs():
    rng = random.Random(107)
    checked = 0
    for _ in range(150):
        g = gnp_graph(rng.randint(5, 12), rng.choice([0.2, 0.4]), rng)
        if detect.find_isk4plus_oracle(g) is not None:
            continue
        checked += 1
        col, trace = color_isk4plus_free(g)
        assert verify_proper(g, col) is None
        assert all(n.fallback is None for n in trace.walk())
    assert checked >= 40


def test_trace_fallback_flagged_on_adversarial():
    # a claim-3 violating graph drives the cutset into a non-clique
    g = graph_from_edges(10, K44_EDGES + [(0, 8), (8, 9), (9, 1)])
    col, trace = color_isk4plus_free(g)
    assert verify_proper(g, col) is None
    tagged = [n for n in trace.walk() if n.fallback]
    assert tagged and tagged[0].kind == "low-degree"


def test_fallback_tag_names_pair_in_input_indices():
    # the third fallback comes after vertices 16 and 0 are removed; its pair
    # must be read in the input graph, where it is non-adjacent
    g = parse_graph6(b"T?~vfbbo_]qly~KtqlA_tISof}ROvg\\y`|On")
    col, trace = color_isk4plus_free(g)
    assert verify_proper(g, col) is None
    tags = [n.fallback for n in trace.walk() if n.fallback]
    assert tags[2] == "cutset not a clique at (1, 2)"
    assert not (g.adj[1] >> 2) & 1


def test_trace_structure_consistency():
    rng = random.Random(109)
    for _ in range(40):
        g = planted_structured_graph(rng, "clean")
        col, trace = color_isk4plus_free(g)
        assert verify_proper(g, col) is None
        _check_trace(trace)


def _check_trace(node):
    if node.kind in ("base", "multipartite-direct"):
        assert not node.children
    elif node.kind == "low-degree":
        assert len(node.children) == 1
    elif node.kind == "structural-split":
        assert len(node.children) == 2
    elif node.kind == "component-split":
        assert len(node.children) >= 2
    else:
        raise AssertionError(f"unknown kind {node.kind}")
    for c in node.children:
        _check_trace(c)


def test_color_optimality_gap_report():
    rng = random.Random(113)
    gaps = []
    ratios = []
    for _ in range(80):
        g = gnp_graph(rng.randint(4, 12), 0.3, rng)
        if find_isk4plus(g).found:
            continue
        col, _ = color_isk4plus_free(g)
        chi = chromatic_number_exact(g)
        assert col.palette_size >= chi
        gaps.append(col.palette_size - chi)
        ratios.append(col.palette_size / chi)
    assert gaps
    print(f"\nISK4+-free sample: gap mean={sum(gaps) / len(gaps):.3f} "
          f"max={max(gaps)}, ratio mean={sum(ratios) / len(ratios):.3f} "
          f"max={max(ratios):.3f} over {len(gaps)} graphs")


def test_color_via_ramsey_route():
    g = graph_from_edges(8, K44_EDGES)
    col, trace = color_isk4plus_free(g, ColorOptions(k=2, via_ramsey=True))
    assert col.palette_size == 2
    assert trace.kind == "multipartite-direct"
    # pendant variant still splits structurally through the extracted core
    g = graph_from_edges(9, K44_EDGES + [(8, 0)])
    col, trace = color_isk4plus_free(g, ColorOptions(k=2, via_ramsey=True))
    assert col.palette_size == 2
    assert trace.kind == "structural-split"
    assert verify_proper(g, col) is None


def test_color_via_ramsey_requires_small_k():
    g = complete_graph(7)
    with pytest.raises(ValueError, match="clique bound"):
        color_isk4plus_free(g, ColorOptions(via_ramsey=True))


def test_color_budget_propagates():
    rng = random.Random(127)
    g = planted_k44_graph(16, 0.45, rng)
    with pytest.raises(ColoringBudgetError):
        color_isk4plus_free(g, ColorOptions(detector_budget=2))


def test_color_base_size_override():
    g = cycle_graph(6)
    col, trace = color_isk4plus_free(g, ColorOptions(base_size=6))
    assert trace.kind == "base"
    assert col.palette_size == 6


def test_color_negative_base_size_raises():
    # a negative base would let the chain reach an empty mask
    with pytest.raises(ValueError, match="base_size must be non-negative"):
        color_isk4plus_free(cycle_graph(6), ColorOptions(base_size=-1))


def test_merged_restriction_matches_children():
    g = graph_from_edges(9, K44_EDGES + [(8, 0)])
    col, trace = color_isk4plus_free(g)
    assert trace.kind == "structural-split"
    # the split side containing M keeps its colors verbatim in the merge
    sub_colors = {v: col.colors[v] for v in range(8)}
    assert len(set(sub_colors.values())) == 2


def test_coloring_json_output():
    import json
    g = k4_plus_graph()
    col, trace = color_isk4plus_free(g)
    doc = json.loads(coloring_to_json(col, trace))
    assert doc["palette"] == col.palette_size
    assert doc["colors"] == list(col.colors)
    assert doc["trace"]["kind"] == trace.kind


# ---------------------------------------------------------------------------
# the mask recursion against the per-step Graph rebuild

def _edges(g, offset=0):
    return [(u + offset, v + offset) for u in range(g.n)
            for v in range(u + 1, g.n) if (g.adj[u] >> v) & 1]


def _disjoint_union(*graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges += _edges(g, offset)
        offset += g.n
    return graph_from_edges(offset, edges)


def _differential_inputs():
    rng = random.Random(131)
    graphs = [gnp_graph(n, p, rng)
              for n, p in ((20, 0.2), (40, 0.1), (64, 0.04), (64, 0.1),
                           (96, 0.07), (128, 0.07), (128, 0.1))]
    graphs += [gnp_graph(rng.randint(6, 30), rng.choice([0.2, 0.4, 0.6]),
                         rng) for _ in range(12)]
    graphs += [planted_k44_graph(rng.randint(9, 40),
                                 rng.choice([0.1, 0.3, 0.5]), rng)
               for _ in range(12)]
    for kind in ("clean", "claim1", "claim2", "claim3"):
        graphs += [planted_structured_graph(rng, kind) for _ in range(3)]
    graphs += [_disjoint_union(planted_structured_graph(rng, "clean"),
                               gnp_graph(12, 0.3, rng),
                               planted_k44_graph(12, 0.3, rng))
               for _ in range(3)]
    # a K4,4 subgraph with the edge 0-1 inside a side, joined by 7-8 to an
    # induced K4,4: with k = 2 the Ramsey extraction fails on the whole
    # graph but succeeds once the low-degree step removes vertex 2
    graphs.append(graph_from_edges(
        16, [(0, 1), (7, 8)] + [(u, v) for u in range(4) for v in range(4, 8)]
        + [(u, v) for u in range(8, 12) for v in range(12, 16)]))
    return graphs


def test_color_matches_reference_recursion():
    kinds = set()
    fallbacks = 0
    ramsey_runs = 0
    for g in _differential_inputs():
        omega = detect.clique_number(g)
        options = [ColorOptions(), ColorOptions(base_size=2),
                   ColorOptions(k=omega + 1)]
        # a clique bound below omega makes Ramsey extractions fail on
        # graphs whose induced subgraphs may still succeed
        options += [ColorOptions(k=k, via_ramsey=True)
                    for k in (omega - 1, omega) if 2 <= k <= 5]
        for opts in options:
            col, trace = color_isk4plus_free(g, opts)
            assert coloring_to_json(col, trace) == \
                coloring_to_json(*reference_color(g, opts))
            kinds.update(node.kind for node in trace.walk())
            fallbacks += sum(1 for node in trace.walk() if node.fallback)
            ramsey_runs += opts.via_ramsey
    assert kinds == {"base", "component-split", "low-degree",
                     "structural-split", "multipartite-direct"}
    assert fallbacks and ramsey_runs >= 10


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in _edges(g)])


def _cycle_with_pendant_paths(rng):
    c = rng.randint(3, 12)
    edges = [(i, (i + 1) % c) for i in range(c)]
    n = c
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(c)
        for _ in range(rng.randint(1, 5)):
            edges.append((at, n))
            at = n
            n += 1
    return graph_from_edges(n, edges)


def _blobs_joined_by_path(rng):
    a = gnp_graph(rng.randint(5, 12), 0.7, rng)
    b = gnp_graph(rng.randint(5, 12), 0.7, rng)
    inner = rng.randint(1, 5)
    path = [rng.randrange(a.n)] + list(range(a.n + b.n, a.n + b.n + inner)) \
        + [a.n + rng.randrange(b.n)]
    edges = _edges(a) + _edges(b, a.n) + list(zip(path, path[1:]))
    return graph_from_edges(a.n + b.n + inner, edges)


def _mid_chain_split_inputs():
    rng = random.Random(139)
    graphs = [graph_from_edges(n, [(rng.randrange(v), v)
                                   for v in range(1, n)])
              for n in (2, 5, 12, 30, 60)]
    graphs += [_cycle_with_pendant_paths(rng) for _ in range(8)]
    graphs += [_blobs_joined_by_path(rng) for _ in range(8)]
    graphs += [gnp_graph(n, p, rng) for n in (24, 48, 64, 96)
               for p in (0.03, 0.045, 0.06)]
    return [_relabel(g, rng) for g in graphs]


def test_color_matches_reference_on_mid_chain_splits():
    # removing a minimum-degree vertex disconnects the mask here, so the
    # chain's local connectivity check must hand over to a component split
    splits_in_chain = 0
    for g in _mid_chain_split_inputs():
        for opts in (ColorOptions(), ColorOptions(base_size=2)):
            col, trace = color_isk4plus_free(g, opts)
            assert coloring_to_json(col, trace) == \
                coloring_to_json(*reference_color(g, opts))
            splits_in_chain += sum(
                1 for node in trace.walk() if node.kind == "low-degree"
                and node.children[0].kind == "component-split")
    assert splits_in_chain >= 10


def test_stays_connected_after_removal():
    def stays(g, v):
        return _stays_connected(g.adj, g.vertex_mask & ~(1 << v), v)

    path = path_graph(5)
    assert [stays(path, v) for v in range(5)] == \
        [True, False, False, False, True]
    cycle = cycle_graph(6)
    assert all(stays(cycle, v) for v in range(6))
    star = graph_from_edges(5, [(0, leaf) for leaf in range(1, 5)])
    assert [stays(star, v) for v in range(5)] == \
        [False, True, True, True, True]


# planted K4,4 graphs on n = 64 whose colorings take more than 40 fallback
# steps; the chain reuses the top-level seed until a step removes one of
# its vertices
PLANTED_CHAINS = ((0.05, 0, [64]), (0.08, 1, [64, 9]), (0.08, 5, [64, 18]))


def _count_searches(monkeypatch):
    """Record the mask size of every find_induced_biclique call."""
    calls = []
    search = detect.find_induced_biclique

    def counted(*args, **kwargs):
        # the reference searches its own rebuilt graph, with no mask
        members = kwargs.get("members")
        calls.append(args[0].n if members is None else members.bit_count())
        return search(*args, **kwargs)

    monkeypatch.setattr(detect, "find_induced_biclique", counted)
    return calls


@pytest.mark.parametrize("p,seed,searched", PLANTED_CHAINS)
def test_planted_k44_chain_reuses_the_seed(monkeypatch, p, seed, searched):
    g = planted_k44_graph(64, p, random.Random(seed))
    calls = _count_searches(monkeypatch)
    col, trace = color_isk4plus_free(g)
    assert verify_proper(g, col) is None
    assert sum(1 for node in trace.walk() if node.fallback) > 40
    # the mask sizes searched, in order, are deterministic
    assert calls == searched and len(calls) <= 3


def test_color_budget_only_ever_finishes_more(monkeypatch):
    # A skipped search reuses the result of a search on a supermask, which
    # visited every node the skipped one would.  So skipping can only let
    # a coloring finish, and in fact it never changes whether one does:
    # the recursion and the reference, which searches at every step,
    # finish on exactly the same (graph, budget) pairs.
    rng = random.Random(137)
    graphs = [planted_k44_graph(rng.randint(12, 24), 0.4, rng)
              for _ in range(6)]
    graphs += [gnp_graph(30, 0.3, rng) for _ in range(4)]
    graphs += [planted_k44_graph(64, p, random.Random(seed))
               for p, seed, _ in PLANTED_CHAINS]
    calls = _count_searches(monkeypatch)
    finished = skipped = 0
    for g in graphs:
        for budget in (20, 200, 2000):
            opts = ColorOptions(detector_budget=budget)
            calls.clear()
            try:
                expected = coloring_to_json(*reference_color(g, opts))
            except detect.SearchBudgetExceeded:
                with pytest.raises(ColoringBudgetError):
                    color_isk4plus_free(g, opts)
                continue
            reference_calls = len(calls)
            calls.clear()
            assert coloring_to_json(*color_isk4plus_free(g, opts)) == \
                expected
            finished += 1
            skipped += reference_calls - len(calls)
    assert finished >= 10 and skipped >= 100


def test_k44_free_chain_searches_once(monkeypatch):
    g = gnp_graph(96, 0.07, random.Random(1))
    assert is_connected(g)
    assert detect.find_induced_biclique(g, 4) is None
    calls = _count_searches(monkeypatch)
    col, trace = color_isk4plus_free(g)
    assert verify_proper(g, col) is None
    assert calls == [96]
    assert sum(1 for node in trace.walk() if node.kind == "low-degree") > 50


# ---------------------------------------------------------------------------
# fallback steps keep M and the failing cutset

def _fallback_heavy_inputs():
    graphs = [planted_k44_graph(n, p, random.Random(seed))
              for n in (64, 96) for p in (0.05, 0.065, 0.08)
              for seed in range(3)]
    graphs += [planted_k44_graph(n, p, random.Random(seed))
               for n in (16, 24, 32) for p in (0.15, 0.3) for seed in range(2)]
    # 8 joins A, and 9 sees all of A but 8; the first minimum-degree
    # vertex is 8, in M, and without it 9 joins B, so M covers the rest
    graphs.append(graph_from_edges(
        10, K44_EDGES + [(8, b) for b in range(4, 8)]
        + [(9, a) for a in range(4)]))
    # C = {8, 10, 11} touches 0 and 1; once its lowest vertex 8 is gone,
    # the first component is D = {9}, whose cutset {0} is a clique
    graphs.append(graph_from_edges(
        12, K44_EDGES + [(8, 10), (10, 11), (0, 10), (1, 11), (0, 9)]))
    # with k = 3 the Ramsey route finds a K9,9 subgraph that loses a
    # vertex outside M, and the next step extracts other seed sides
    graphs.append(parse_graph6(
        rb"XO?????~|~^{~w~w^{D~?~wB~_Av?E?T\?Vm?F~av?b_A|xp?Rf"))
    return graphs


def _count_reuse(monkeypatch):
    """Classify each fallback step that follows another by what it keeps.

    Each call of _kept_cut is classified by the first condition that
    decides it, and its result is checked against that class.  A grow
    call counts as "v in M" when it regrows M from the last grow call's
    seed sides after the chain removed only outside vertices and then
    one vertex of M.
    """
    seen = {}
    kept_cut = coloring._kept_cut
    grow = structure.grow_maximal_multipartite
    last = {"grow": None, "kept": 0}

    def classified(adj, cut, v):
        (x, y), comp = cut
        vbit = 1 << v
        rest = comp & ~vbit
        if not comp & vbit:
            kind = "v outside C"
        elif comp & -comp == vbit:
            kind = "v lowest in C"
        elif not adj[x] & rest or not adj[y] & rest:
            kind = "pair loses C"
        elif not _stays_connected(adj, rest, v):
            kind = "C - v disconnected"
        else:
            kind = "C - v connected"
        seen[kind] = seen.get(kind, 0) + 1
        last["kept"] += 1
        out = kept_cut(adj, cut, v)
        assert out == {"v outside C": cut,
                       "C - v connected": ((x, y), rest)}.get(kind)
        return out

    def counted(G, seed, *, members=None):
        M = grow(G, seed, members=members)
        if members is None:  # the reference
            return M
        sides = (seed.side_a, seed.side_b)
        if last["grow"] is not None:
            old_sides, old_members, inside = last["grow"]
            gone = old_members & ~members
            if sides == old_sides and not members & ~old_members and \
                    gone.bit_count() == last["kept"] + 1 and gone & inside:
                seen["v in M"] = seen.get("v in M", 0) + 1
        last["grow"] = sides, members, M.members
        last["kept"] = 0
        return M

    monkeypatch.setattr(coloring, "_kept_cut", classified)
    monkeypatch.setattr(structure, "grow_maximal_multipartite", counted)
    return seen


def test_fallback_reuse_matches_reference(monkeypatch):
    seen = _count_reuse(monkeypatch)

    def kept_m():
        return sum(n for kind, n in seen.items() if kind != "v in M")

    ramsey_reuse = 0
    for g in _fallback_heavy_inputs():
        omega = detect.clique_number(g)
        options = [ColorOptions(), ColorOptions(base_size=2)]
        options += [ColorOptions(k=k, via_ramsey=True)
                    for k in (omega - 1, omega) if 2 <= k <= 5]
        for opts in options:
            before = kept_m()
            col, trace = color_isk4plus_free(g, opts)
            assert coloring_to_json(col, trace) == \
                coloring_to_json(*reference_color(g, opts))
            if opts.via_ramsey:
                ramsey_reuse += kept_m() - before
    assert set(seen) == {"v outside C", "C - v connected", "v lowest in C",
                         "C - v disconnected", "v in M", "pair loses C"}
    assert ramsey_reuse > 0


# the grow and cutset calls of each PLANTED_CHAINS coloring, which the
# reference makes at every one of its 46-57 fallback steps
PLANTED_CHAIN_CALLS = ((2, 5), (1, 7), (1, 3))


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("chain,pinned",
                         zip(PLANTED_CHAINS, PLANTED_CHAIN_CALLS))
def test_planted_k44_chain_keeps_m_and_the_cutset(monkeypatch, chain,
                                                  pinned):
    p, seed, _ = chain
    g = planted_k44_graph(64, p, random.Random(seed))
    grows = _count_calls(monkeypatch, structure, "grow_maximal_multipartite")
    cuts = _count_calls(monkeypatch, structure, "find_structural_cutset")
    col, trace = color_isk4plus_free(g)
    assert sum(1 for node in trace.walk() if node.fallback) > 40
    assert (len(grows), len(cuts)) == pinned


def test_via_ramsey_passes_its_biclique_down(monkeypatch):
    # The K_{s,s} search result is passed down like the induced K4,4
    # search's: having none is hereditary, and a found K_{s,s} stays the
    # first of every submask that holds both its sides.  Searching at
    # every step, as the reference does, makes 225 calls at k = 2 and 185
    # at k = 3 on these four graphs.
    searches = _count_calls(monkeypatch, detect, "find_biclique_subgraph")
    graphs = [planted_k44_graph(64, 0.06, random.Random(seed))
              for seed in range(4)]
    for k, pinned in ((2, 5), (3, 4)):
        opts = ColorOptions(k=k, via_ramsey=True)
        searches.clear()
        outputs = [coloring_to_json(*color_isk4plus_free(g, opts))
                   for g in graphs]
        assert len(searches) == pinned
        searches.clear()
        assert outputs == [coloring_to_json(*reference_color(g, opts))
                           for g in graphs]
        assert len(searches) > 40 * pinned
