"""Detectors, oracles, and exact invariant solvers."""

import pathlib
import random
from itertools import combinations

import pytest

from isk4plus import detect
from isk4plus.detect import (BUDGET, DEFAULT_NODE_BUDGET, FOUND, NONE,
                             CliquePreconditionError,
                             SearchBudgetExceeded, chromatic_number_exact,
                             clique_number, find_biclique_subgraph,
                             find_induced_biclique, find_isk4plus,
                             find_isk4plus_oracle, ramsey_extract_k44,
                             verify_subdivision_witness, witness_from_subset)
from isk4plus.formats import parse_graph6
from isk4plus.graph import (bit_list, edge_list, graph_from_edges,
                            induced_subgraph, mask_of)
from isk4plus.harness import (complete_graph, complete_multipartite,
                              cycle_graph, gnp_graph, k4_plus_graph,
                              passes_filters, petersen_graph,
                              planted_k44_graph, planted_structured_graph)

from util_brute import brute_chromatic_number, brute_clique_number
from util_exhaustive import detector_agreement_stats
from util_recognizers import is_k4_subdivision, is_k4plus_subdivision

K44_EDGES = [(u, v) for u in range(4) for v in range(4, 8)]


# ---------------------------------------------------------------------------
# whole-graph recognizers

def test_recognizer_k4():
    assert is_k4_subdivision(complete_graph(4))
    assert not is_k4plus_subdivision(complete_graph(4))


def test_recognizer_k4plus():
    assert is_k4_subdivision(k4_plus_graph())
    assert is_k4plus_subdivision(k4_plus_graph())


def test_recognizer_c5():
    assert not is_k4_subdivision(cycle_graph(5))
    assert not is_k4plus_subdivision(cycle_graph(5))


def test_recognizer_double_subdivided():
    # K4 with two disjoint edges each subdivided once: 6 vertices
    g = graph_from_edges(6, [(0, 4), (1, 4), (0, 2), (1, 3), (0, 3), (1, 2),
                             (2, 5), (3, 5)])
    assert is_k4_subdivision(g)
    assert is_k4plus_subdivision(g)


def test_recognizer_rejects_near_misses():
    assert not is_k4_subdivision(complete_graph(5))
    assert not is_k4_subdivision(cycle_graph(6))
    # K4 plus an isolated vertex is not itself a subdivision
    g = graph_from_edges(5, combinations(range(4), 2))
    assert not is_k4_subdivision(g)
    # theta graph: two degree-3 vertices joined by three paths
    theta = graph_from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4),
                                 (4, 1)])
    assert not is_k4_subdivision(theta)
    # two K4-subdivision chains between the same branch pair
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 1),
                             (0, 4), (4, 5), (5, 1)])
    assert not is_k4_subdivision(g)


# ---------------------------------------------------------------------------
# oracle

def test_oracle_k4plus_whole_graph():
    g = k4_plus_graph()
    w = find_isk4plus_oracle(g)
    assert w is not None and w.total == g.vertex_mask
    assert verify_subdivision_witness(g, w)


def test_oracle_octahedron_none():
    assert find_isk4plus_oracle(complete_multipartite(2, 2, 2)) is None


def test_oracle_k44_plus_mixed_vertex():
    # v adjacent to two of one side and one of the other: the classic
    # five-vertex witness {v, a1, a2, b1, b2}
    g = graph_from_edges(9, K44_EDGES + [(8, 0), (8, 1), (8, 4)])
    w = find_isk4plus_oracle(g)
    assert w is not None
    assert w.total == mask_of([0, 1, 4, 5, 8])
    assert verify_subdivision_witness(g, w)


def test_oracle_ceiling():
    with pytest.raises(ValueError, match="ceiling"):
        find_isk4plus_oracle(gnp_graph(17, 0.5, random.Random(1)))


def test_oracle_vectorized_path_matches_plain():
    # the ordered subset search finds the plain enumeration's first witness
    rng = random.Random(21)
    for _ in range(20):
        g = planted_k44_graph(11, 0.25, rng)
        w_fast = find_isk4plus_oracle(g)
        first = None
        for S in range(1 << g.n):
            if S.bit_count() < 5:
                continue
            cand = witness_from_subset(g, S)
            if cand is not None:
                first = cand
                break
        assert (w_fast is None) == (first is None)
        if first is not None:
            assert w_fast.total == first.total


def _first_witness_plain(g):
    for S in range(1 << g.n):
        if S.bit_count() >= 5:
            w = witness_from_subset(g, S)
            if w is not None:
                return w
    return None


def _random_cubic_graph(n, rng):
    # pair up three stubs per vertex until the pairing is a simple graph
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if (all(u != v for u, v in edges)
                and len({frozenset(e) for e in edges}) == len(edges)):
            return graph_from_edges(n, edges)


def test_oracle_matches_plain_enumeration_seeded():
    # the ordered search cuts branches on induced degrees alone, so on
    # n = 11..16 its first witness is the plain ascending enumeration's
    rng = random.Random(16)
    mixed = []
    free = [complete_multipartite(4, 4, 3), complete_multipartite(3, 3, 3, 3),
            complete_multipartite(2, 2, 2, 2, 2, 2),
            _relabel(complete_multipartite(5, 5, 6), rng)[0]]
    for n in range(11, 17):
        mixed += [gnp_graph(n, p, rng) for p in (0.12, 0.2, 0.35, 0.5)]
        mixed.append(planted_k44_graph(n, 0.3, rng))
        free += [cycle_graph(n),
                 graph_from_edges(n, _random_chordal_edges(n, rng))]
    mixed += [_random_cubic_graph(16, rng) for _ in range(6)]
    witnesses = [find_isk4plus_oracle(g) for g in mixed + free]
    for g, w in zip(mixed + free, witnesses):
        first = _first_witness_plain(g)
        if first is None:
            assert w is None
        else:
            assert (w.branch, w.paths, w.total) == \
                (first.branch, first.paths, first.total)
    assert witnesses[len(mixed):] == [None] * len(free)
    assert sum(w is not None for w in witnesses) >= 25


# ---------------------------------------------------------------------------
# direct search

def test_find_matches_oracle_on_examples():
    for g in (k4_plus_graph(), complete_multipartite(2, 2, 2),
              graph_from_edges(9, K44_EDGES + [(8, 0), (8, 1), (8, 4)])):
        det = find_isk4plus(g)
        assert det.status in (FOUND, NONE)
        assert det.found == (find_isk4plus_oracle(g) is not None)
        if det.found:
            assert verify_subdivision_witness(g, det.witness)


def test_find_none_on_small_patterns():
    assert find_isk4plus(cycle_graph(6)).status == NONE
    assert find_isk4plus(complete_graph(5)).status == NONE


def test_negative_budget_raises():
    g = planted_k44_graph(14, 0.5, random.Random(2))
    with pytest.raises(ValueError, match="non-negative"):
        find_isk4plus(g, budget=-1)
    # rejected before any early return, whatever the graph
    with pytest.raises(ValueError, match="non-negative"):
        find_isk4plus(complete_graph(3), budget=-1)
    with pytest.raises(ValueError, match="non-negative"):
        find_induced_biclique(complete_graph(3), 4, budget=-1)
    with pytest.raises(ValueError, match="non-negative"):
        clique_number(g, budget=-1)


def test_find_budget_outcome():
    g = planted_k44_graph(14, 0.5, random.Random(2))
    det = find_isk4plus(g, budget=3)
    assert det.status == BUDGET and det.witness is None


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v])
                                  for u, v in edge_list(g)]), perm


@pytest.mark.parametrize("s", [6, 7, 8, 12, 16, 32])
def test_find_proves_none_on_large_k_ssss(s):
    # K_{s,s,s,s} is ISK4+-free; proving it needs the reachability prune
    # for s <= 8 and the twin cap beyond, checked on a relabeling that
    # scatters the parts
    g = complete_multipartite(s, s, s, s)
    if s > 8:
        g, _ = _relabel(g, random.Random(s))
    det = find_isk4plus(g, budget=DEFAULT_NODE_BUDGET)
    assert det.status == NONE


@pytest.mark.parametrize("s", [3, 8, 32])
def test_k_ssss_costs_70_nodes(s):
    # the cap leaves K_{2,2,2,2}: its C(8, 4) = 70 quads fail at once
    g = complete_multipartite(s, s, s, s)
    assert find_isk4plus(g, budget=70).status == NONE
    assert find_isk4plus(g, budget=69).status == BUDGET


def test_find_matches_oracle_dense_and_multipartite():
    rng = random.Random(97)
    graphs = [gnp_graph(rng.randint(8, 16), rng.choice([0.5, 0.7, 0.85]),
                        rng) for _ in range(30)]
    for _ in range(20):
        n = rng.randint(8, 16)
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(1, 5), n - sum(sizes)))
        graphs.append(complete_multipartite(*sizes))
    for g in graphs:
        det = find_isk4plus(g)
        assert det.status != BUDGET
        assert det.found == (find_isk4plus_oracle(g) is not None)
        if det.found:
            assert verify_subdivision_witness(g, det.witness)


# first witnesses of the unpruned search: the records fixture, three
# sparse G(n, p) graphs whose witnesses have long paths, sparse seeded
# G(n, p) with n <= 24 that have simplicial vertices (the last three of
# those: none), then seeded twin blow-ups whose twin cap deletes vertices
PINNED_WITNESSES = [
    (b"?", None), (b"@", None), (b"A?", None), (b"A_", None),
    (b"C~", None),
    (b"D?{", None),
    (b"D^o", ((0, 1, 2, 3), ((0, 4, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                             (2, 3)))),
    (b"Dhc", None),
    (b"IheA@GUAo", ((0, 1, 3, 8), ((0, 1), (0, 4, 3), (0, 5, 8), (1, 2, 3),
                                   (1, 6, 8), (3, 8)))),
    (b"G?~vf_", None),
    (b"O?G_?O?OC?ogS??EGGT?A",
     ((0, 2, 7, 11), ((0, 15, 2), (0, 10, 9, 1, 14, 7), (0, 11), (2, 4, 7),
                      (2, 5, 11), (7, 11)))),
    (b"NAWc_S???ISB?B?AGCG",
     ((1, 2, 10, 11), ((1, 4, 2), (1, 14, 13, 10), (1, 3, 6, 0, 11),
                       (2, 5, 10), (2, 11), (10, 11)))),
    (b"NO@?@kcQAC?SHKe?@D?",
     ((1, 2, 5, 7), ((1, 9, 4, 13, 0, 2), (1, 5), (1, 10, 6, 7), (2, 8, 5),
                     (2, 7), (5, 7)))),
    (b"WPAOAS??A???KCK??c_??M?B`?GG?C?@??GEA@??@???TOG",
     ((0, 2, 3, 12), ((0, 2), (0, 5, 3), (0, 19, 23, 12), (2, 3), (2, 12),
                      (3, 12)))),
    (b"Q_@`?A_?K?OEH??SP?B?g_@?_G?",
     ((0, 1, 2, 15), ((0, 1), (0, 10, 17, 2), (0, 11, 15), (1, 5, 2),
                      (1, 15), (2, 15)))),
    (b"TOAWQ_Ci?Dk?P?AAO{R@G`O?@R?SC???_COR",
     ((0, 1, 2, 9), ((0, 16, 7, 1), (0, 2), (0, 9), (1, 11, 2),
                     (1, 12, 18, 4, 9), (2, 9)))),
    (b"Sc`_C_SCO?k?@CGCR?????C__@dC??_p?",
     ((0, 1, 2, 5), ((0, 1), (0, 18, 2), (0, 3, 8, 5), (1, 11, 2), (1, 5),
                     (2, 5)))),
    (b"P??A??A?@??L???@`p?BW?@?",
     ((8, 10, 11, 15), ((8, 6, 14, 10), (8, 11), (8, 15), (10, 11),
                        (10, 15), (11, 15)))),
    (b"Q?E???OOA?A??@COQ?R?AG_Ccc?",
     ((3, 11, 14, 17), ((3, 11), (3, 14), (3, 8, 17), (11, 12, 14),
                        (11, 17), (14, 0, 5, 17)))),
    (b"P`HSBAAKe_PcO?_GGCCPA_Q?",
     ((0, 1, 2, 7), ((0, 1), (0, 15, 4, 2), (0, 16, 7), (1, 5, 3, 2),
                     (1, 7), (2, 7)))),
    (b"WG??Q?Ac?S?A_?`K?GOCS?GY@?s?A?HC@?A??CG?EO?_`?C",
     ((0, 5, 9, 13), ((0, 12, 19, 5), (0, 9), (0, 13),
                      (5, 23, 10, 22, 21, 9), (5, 13), (9, 13)))),
    (b"T?OA??W?A?_?_?_??AGY?????@??a_?d??aG",
     ((4, 9, 12, 18), ((4, 1, 10, 9), (4, 8, 20, 12), (4, 15, 18),
                       (9, 19, 12), (9, 18), (12, 0, 13, 18)))),
    (b"U@??_`AB?@?_?@G?_GHAA??_C@@??O_???G?O?`?",
     ((2, 3, 12, 13), ((2, 3), (2, 18, 16, 12), (2, 13),
                       (3, 6, 8, 1, 21, 12), (3, 7, 14, 13), (12, 13)))),
    (b"Q@@???SOpC?A??CB?c_?_??????",
     ((3, 9, 10, 13), ((3, 8, 5, 1, 9), (3, 2, 10), (3, 13), (9, 6, 10),
                       (9, 11, 13), (10, 13)))),
    (b"Sc?HOKH_???A???AOAIO@?C???KA?AGCO",
     ((0, 1, 5, 15), ((0, 1), (0, 18, 7, 5), (0, 14, 15), (1, 19, 5),
                      (1, 15), (5, 4, 15)))),
    (b"UP_??KGAAG??DG????G??K?G??A???_G???HC?H?", None),
    (b"U??A??Ac?aC??A_?????_??A??A@@??g?`C??I??", None),
    (b"U?a?S???@@A???OG?o??C?CGC@BOQ???ACA?????", None),
    (b"I_pGDk@r?", ((0, 1, 4, 5), ((0, 1), (0, 4), (0, 7, 5), (1, 4), (1, 5),
                                   (4, 5)))),
    (b"K|y~yZ}i|~\\~", ((0, 1, 2, 5), ((0, 1), (0, 2), (0, 5), (1, 2),
                                       (1, 7, 5), (2, 5)))),
    (b"LXuhTZVILZYzjZ", ((0, 2, 4, 5), ((0, 2), (0, 4), (0, 5), (2, 1, 4),
                                        (2, 5), (4, 5)))),
    (b"HiU|q~e", ((0, 1, 5, 8), ((0, 1), (0, 5), (0, 8), (1, 3, 5), (1, 8),
                                 (5, 8)))),
    (b"IXvUe_JJo", ((0, 1, 4, 6), ((0, 2, 1), (0, 4), (0, 6), (1, 4), (1, 6),
                                   (4, 8, 6)))),
    (b"JGWBBSIYo??", ((1, 2, 4, 6), ((1, 2), (1, 4), (1, 6), (2, 4), (2, 6),
                                     (4, 8, 6)))),
    (b"LSL@cuIesvrZP?", ((0, 3, 4, 7), ((0, 3), (0, 2, 4), (0, 7), (3, 4),
                                        (3, 7), (4, 7)))),
    (b"M~~{Fxe_kq[vXlXl_", ((0, 1, 2, 8), ((0, 1), (0, 2), (0, 6, 8),
                                           (1, 2), (1, 8), (2, 8)))),
    (b"KJ`BbHv\\}|p@", ((2, 3, 6, 10), ((2, 3), (2, 6), (2, 7, 5, 10),
                                       (3, 6), (3, 10), (6, 10)))),
    (b"K|vODYl?FzYL", ((2, 4, 7, 8), ((2, 1, 4), (2, 7), (2, 8), (4, 7),
                                      (4, 8), (7, 8)))),
]


def test_find_pinned_witnesses():
    fixture = pathlib.Path(__file__).parent / "data" / "records.g6"
    records = [r for r in fixture.read_bytes().splitlines() if r]
    assert records == [g6 for g6, _ in PINNED_WITNESSES[:len(records)]]
    for g6, want in PINNED_WITNESSES:
        det = find_isk4plus(parse_graph6(g6))
        if want is None:
            assert det.status == NONE
        else:
            assert det.status == FOUND
            assert (det.witness.branch, det.witness.paths) == want


# ---------------------------------------------------------------------------
# simplicial peel

def _random_chordal_edges(n, rng):
    # each new vertex joins part of a clique that already exists, so the
    # reverse insertion order is a perfect elimination order
    edges = []
    cliques = [(0,)]
    for v in range(1, n):
        base = rng.choice(cliques)
        nbrs = rng.sample(base, rng.randint(1, len(base)))
        edges += [(u, v) for u in nbrs]
        cliques.append((*nbrs, v))
    return edges


def _k4_with_pendant_paths():
    # K4 on 0..3 with a path of length 3 hung from 0 and one of length 2
    # from 2: the peel eats the paths from their ends, then the K4
    return graph_from_edges(9, list(combinations(range(4), 2))
                            + [(0, 4), (4, 5), (5, 6), (2, 7), (7, 8)])


def test_peel_matches_oracle_chordal_and_planted_clean():
    rng = random.Random(61)
    graphs = []
    for extra in [0] * 25 + [1, 2, 3] * 9:
        # extra edges close holes, so both verdicts occur
        n = rng.randint(8, 16)
        edges = _random_chordal_edges(n, rng)
        for _ in range(extra):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in edges:
                edges.append((u, v))
        graphs.append(graph_from_edges(n, edges))
    while len(graphs) < 77:
        g = planted_structured_graph(rng, "clean")
        if 8 <= g.n <= 16:
            graphs.append(g)
    verdicts = set()
    for g in graphs:
        det = find_isk4plus(g)
        assert det.status != BUDGET
        assert det.found == (find_isk4plus_oracle(g) is not None)
        if det.found:
            assert verify_subdivision_witness(g, det.witness)
        verdicts.add(det.status)
    assert verdicts == {FOUND, NONE}


def test_peel_proves_chordal_free_without_a_node():
    g = graph_from_edges(40, _random_chordal_edges(40, random.Random(5)))
    assert sum(g.adj[v].bit_count() >= 3 for v in range(g.n)) >= 4
    assert find_isk4plus(g, budget=0).status == NONE


def test_isk4_search_keeps_simplicial_vertices():
    # K4 is all simplicial, so min_total = 4 must not peel
    g = _k4_with_pendant_paths()
    det = find_isk4plus(g, min_total=4)
    assert det.status == FOUND and det.witness.branch == (0, 1, 2, 3)
    assert find_isk4plus(g).status == NONE
    assert passes_filters(g, ("isk4-free",), DEFAULT_NODE_BUDGET) == \
        (False, False)
    assert passes_filters(g, ("isk4p-free",), DEFAULT_NODE_BUDGET) == \
        (True, False)


def test_exhaustive_agreement_n5():
    s = detector_agreement_stats(5, 0, 1 << 10)
    assert s["graphs"] == 1 << 10
    assert s["disagreements"] == [] and s["budget"] == 0
    # exactly the 30 labeled copies of the once-subdivided K4
    assert s["found"] == 30
    assert s["witness_failures"] == 0


def test_exhaustive_agreement_n6():
    s = detector_agreement_stats(6, 0, 1 << 15)
    assert s["graphs"] == 1 << 15
    assert s["disagreements"] == [] and s["budget"] == 0
    assert s["witness_failures"] == 0


def test_agreement_random_larger():
    rng = random.Random(17)
    for _ in range(60):
        g = gnp_graph(rng.randint(8, 11), rng.choice([0.2, 0.35, 0.5]), rng)
        det = find_isk4plus(g)
        assert det.status != BUDGET
        assert det.found == (find_isk4plus_oracle(g) is not None)
        if det.found:
            assert verify_subdivision_witness(g, det.witness)


def test_monotonicity_under_subgraphs():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        g = gnp_graph(rng.randint(6, 10), 0.3, rng)
        if find_isk4plus(g).found:
            continue
        checked += 1
        for _ in range(5):
            keep = [v for v in range(g.n) if rng.random() < 0.7]
            sub, _ = induced_subgraph(g, mask_of(keep))
            assert not find_isk4plus(sub).found
    assert checked >= 10


def test_complete_multipartite_is_free():
    rng = random.Random(31)
    for _ in range(25):
        t = rng.randint(2, 5)
        sizes = [rng.randint(1, 4) for _ in range(t)]
        while sum(sizes) > 14:
            sizes.pop()
        if len(sizes) < 2:
            sizes = [2, 2]
        g = complete_multipartite(*sizes)
        assert not find_isk4plus(g).found
        if g.n <= 12:
            assert find_isk4plus_oracle(g) is None


def test_isk4_mode_min_total4():
    # dropping the >=5 floor turns the search into plain ISK4 detection
    assert find_isk4plus(complete_graph(4), min_total=4).found
    assert not find_isk4plus(complete_graph(4)).found
    assert find_isk4plus_oracle(complete_graph(4), min_total=4) is not None
    assert find_isk4plus_oracle(complete_graph(4)) is None
    # K5 contains induced K4
    assert find_isk4plus(complete_graph(5), min_total=4).found
    # K6 is one class of six true twins; min_total = 4 must not cap it
    assert find_isk4plus(complete_graph(6), min_total=4).found


def test_witness_verifier_rejects_corrupted():
    g = k4_plus_graph()
    w = find_isk4plus_oracle(g)
    bad = detect.SubdivisionWitness(w.branch, w.paths, w.total | (1 << 6))
    g2 = graph_from_edges(7, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                              (0, 4), (1, 4), (5, 6)])
    assert not verify_subdivision_witness(g2, bad)
    swapped = detect.SubdivisionWitness(w.branch, tuple(reversed(w.paths)),
                                        w.total)
    assert not verify_subdivision_witness(g, swapped)


# ---------------------------------------------------------------------------
# twin cap

def _twin_blowup(rng, n):
    # each vertex of a random base graph becomes a class of 1-4 vertices,
    # stable (false twins) or a clique (true twins); classes are complete
    # or anticomplete to each other along the base edges
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 4), n - sum(sizes)))
    classes = []
    for s in sizes:
        start = sum(len(c) for c in classes)
        classes.append(range(start, start + s))
    p = rng.choice([0.3, 0.5, 0.7])
    edges = [(u, v) for a, b in combinations(classes, 2) if rng.random() < p
             for u in a for v in b]
    for c in classes:
        if rng.random() < 0.5:
            edges += combinations(c, 2)
    g, _ = _relabel(graph_from_edges(n, edges), rng)
    return g


def test_cap_twins_keeps_two_lowest_per_class():
    g, perm = _relabel(complete_multipartite(4, 4, 4, 4), random.Random(3))
    kept = detect._cap_twins(g.adj, g.vertex_mask)
    assert kept.bit_count() == 8
    for part in range(4):
        members = sorted(perm[v] for v in range(4 * part, 4 * part + 4))
        assert kept & mask_of(members) == mask_of(members[:2])
    # a C5 whose vertex 0 is blown up into a clique 0, 5, 6, 7 of four
    # true twins; the other vertices have no twin
    g = graph_from_edges(8, [(1, 2), (2, 3), (3, 4)]
                         + [(u, v) for u in (0, 5, 6, 7) for v in (1, 4)]
                         + list(combinations((0, 5, 6, 7), 2)))
    g, perm = _relabel(g, random.Random(4))
    clique = sorted(perm[v] for v in (0, 5, 6, 7))
    kept = detect._cap_twins(g.adj, g.vertex_mask)
    assert kept == g.vertex_mask & ~mask_of(clique[2:])


def test_twin_cap_matches_oracle_on_blowups():
    rng = random.Random(83)
    counts = {FOUND: 0, NONE: 0, "capped": 0}
    for _ in range(120):
        g = _twin_blowup(rng, rng.randint(8, 16))
        det = find_isk4plus(g)
        assert det.status != BUDGET
        assert det.found == (find_isk4plus_oracle(g) is not None)
        if det.found:
            assert verify_subdivision_witness(g, det.witness)
        counts[det.status] += 1
        peeled = detect._peel_simplicial(g.adj, g.vertex_mask)
        counts["capped"] += detect._cap_twins(g.adj, peeled) != peeled
    assert min(counts.values()) >= 20


def test_twin_cap_found_costs_the_capped_search_only():
    # a found graph whose cap deletes vertices: the capped search hits after
    # 11 nodes with the witness the peeled search finds after 26
    g6 = b"HiU|q~e"
    g = parse_graph6(g6)
    peeled = detect._peel_simplicial(g.adj, g.vertex_mask)
    assert detect._cap_twins(g.adj, peeled) != peeled
    det = find_isk4plus(g, budget=11)
    assert det.status == FOUND
    assert (det.witness.branch, det.witness.paths) == \
        dict(PINNED_WITNESSES)[g6]
    assert find_isk4plus(g, budget=10).status == BUDGET


def test_twin_cap_finds_first_witness_within_default_budget():
    # a seeded blow-up on 40 vertices: the capped search finds it in
    # 147,878 nodes; without the cap the search spends more than the
    # default budget before it reaches the same first witness
    g = parse_graph6(
        b"gH__jiA^RjG@W[YOkMKDTDgD?@?DTryD@?@?OA?BivAG?G?GOOA^OgAKMIXGl?s?G"
        b"uAQS`^d|a?O??I?O??HtZ`JkW[SqPGP?_??G?G??_GuAQSGTJDlBpaa?{h?wP?_???")
    det = find_isk4plus(g, budget=DEFAULT_NODE_BUDGET)
    assert det.status == FOUND
    assert (det.witness.branch, det.witness.paths) == (
        (0, 6, 8, 15),
        ((0, 4, 9, 3, 6), (0, 8), (0, 15), (6, 8), (6, 15), (8, 15)))


# ---------------------------------------------------------------------------
# hereditary sanity

def test_hereditary_omega_chi():
    rng = random.Random(41)
    for _ in range(30):
        g = gnp_graph(rng.randint(4, 10), 0.5, rng)
        w, c = clique_number(g), chromatic_number_exact(g)
        for _ in range(4):
            keep = [v for v in range(g.n) if rng.random() < 0.6]
            sub, _ = induced_subgraph(g, mask_of(keep))
            assert clique_number(sub) <= w
            assert chromatic_number_exact(sub) <= c


# ---------------------------------------------------------------------------
# bicliques

def test_biclique_k44():
    g = graph_from_edges(8, K44_EDGES)
    w = find_biclique_subgraph(g, 4)
    assert w is not None and not w.induced
    assert {w.side_a, w.side_b} == {mask_of(range(4)), mask_of(range(4, 8))}


def test_biclique_c5_none():
    assert find_biclique_subgraph(cycle_graph(5), 2) is None


def test_biclique_k5():
    w = find_biclique_subgraph(complete_graph(5), 2)
    assert w is not None
    assert (w.side_a | w.side_b).bit_count() == 4


def test_biclique_s1_is_edge():
    w = find_biclique_subgraph(graph_from_edges(3, [(1, 2)]), 1)
    assert w is not None and w.side_a == 1 << 1 and w.side_b == 1 << 2


def test_biclique_s_validation():
    with pytest.raises(ValueError):
        find_biclique_subgraph(complete_graph(3), 0)


def test_induced_biclique():
    g = graph_from_edges(9, K44_EDGES + [(8, 0), (8, 1)])
    w = find_induced_biclique(g, 4)
    assert w is not None and w.induced
    assert w.side_a == mask_of(range(4)) and w.side_b == mask_of(range(4, 8))
    # K5 has K_{2,2} subgraphs but no stable sides
    assert find_induced_biclique(complete_graph(5), 2) is None
    assert find_biclique_subgraph(complete_graph(5), 2) is not None


def test_induced_biclique_budget():
    g = planted_k44_graph(16, 0.5, random.Random(3))
    with pytest.raises(SearchBudgetExceeded):
        find_induced_biclique(g, 4, budget=2)


# ---------------------------------------------------------------------------
# ramsey extraction

def test_ramsey_extract_identity_on_k44():
    g = graph_from_edges(8, K44_EDGES)
    w = find_biclique_subgraph(g, 4)
    out = ramsey_extract_k44(g, w, 2)
    assert out.induced
    assert out.side_a == w.side_a and out.side_b == w.side_b


def test_ramsey_extract_triangle_free_host():
    # triangle-free host forces stable sides automatically
    g = graph_from_edges(9, K44_EDGES + [(8, 0), (8, 1)])
    w = find_biclique_subgraph(g, 4)
    out = ramsey_extract_k44(g, w, 2)
    _assert_induced_k44(g, out)


def test_ramsey_extract_planted_r43():
    # side A of size 9 = R(4,3) with a small matching inside, k = 3
    a = list(range(9))
    b = list(range(9, 18))
    edges = [(u, v) for u in a for v in b] + [(0, 1), (2, 3)]
    g = graph_from_edges(18, edges)
    assert brute_clique_number(g) == 3
    w = find_biclique_subgraph(g, 9)
    assert w is not None
    out = ramsey_extract_k44(g, w, 3)
    _assert_induced_k44(g, out)


def test_ramsey_extract_clique_error():
    # an edge inside a 4-vertex side leaves no stable 4-set; with k=2 the
    # edge plus any far-side vertex is a triangle, violating the bound
    edges = [(u, v) for u in range(4) for v in range(4, 8)] + [(0, 1)]
    g = graph_from_edges(8, edges)
    w = detect.BicliqueWitness(mask_of(range(4)), mask_of(range(4, 8)),
                               induced=False)
    with pytest.raises(CliquePreconditionError) as exc:
        ramsey_extract_k44(g, w, 2)
    clique = exc.value.clique
    assert len(clique) == 3
    assert all((g.adj[u] >> v) & 1 for u, v in combinations(clique, 2))


def test_ramsey_extract_not_found():
    # sides of size 4 with one internal edge and a large clique bound:
    # no stable 4-set and no clique evidence, so the search reports none
    edges = [(u, v) for u in range(4) for v in range(4, 8)] + [(0, 1)]
    g = graph_from_edges(8, edges)
    w = detect.BicliqueWitness(mask_of(range(4)), mask_of(range(4, 8)),
                               induced=False)
    assert ramsey_extract_k44(g, w, 9) is None


def test_ramsey_extract_validates_seed():
    g = graph_from_edges(8, K44_EDGES[:-1])
    w = detect.BicliqueWitness(mask_of(range(4)), mask_of(range(4, 8)),
                               induced=False)
    with pytest.raises(ValueError):
        ramsey_extract_k44(g, w, 2)


def _assert_induced_k44(g, out):
    assert out.induced
    assert out.side_a.bit_count() == 4 and out.side_b.bit_count() == 4
    assert out.side_a & out.side_b == 0
    for u in bit_list(out.side_a):
        assert g.adj[u] & out.side_b == out.side_b
        assert g.adj[u] & out.side_a == 0
    for v in bit_list(out.side_b):
        assert g.adj[v] & out.side_b == 0


# ---------------------------------------------------------------------------
# exact solvers

def test_clique_chromatic_examples():
    assert (clique_number(cycle_graph(5)),
            chromatic_number_exact(cycle_graph(5))) == (2, 3)
    assert (clique_number(complete_graph(4)),
            chromatic_number_exact(complete_graph(4))) == (4, 4)
    assert (clique_number(petersen_graph()),
            chromatic_number_exact(petersen_graph())) == (2, 3)


def test_exact_solvers_against_brute_force():
    rng = random.Random(53)
    for _ in range(40):
        g = gnp_graph(rng.randint(0, 7), rng.choice([0.2, 0.5, 0.8]), rng)
        assert clique_number(g) == brute_clique_number(g)
        assert chromatic_number_exact(g) == brute_chromatic_number(g)


def test_solver_budget_errors():
    g = gnp_graph(20, 0.5, random.Random(4))
    with pytest.raises(SearchBudgetExceeded):
        clique_number(g, budget=2)
    with pytest.raises(SearchBudgetExceeded):
        chromatic_number_exact(g, budget=5)


def test_chromatic_budget_covers_both_searches():
    # on the Petersen graph the clique bound takes 16 nodes and the
    # coloring search 5; both draw on the one budget
    g = petersen_graph()
    assert chromatic_number_exact(g, budget=21) == 3
    with pytest.raises(SearchBudgetExceeded):
        chromatic_number_exact(g, budget=20)
    # a known clique number skips the clique search and its 16 nodes
    assert chromatic_number_exact(g, budget=5, omega=2) == 3


def test_chromatic_with_known_omega_matches():
    rng = random.Random(59)
    for _ in range(40):
        g = gnp_graph(rng.randint(0, 12), rng.choice([0.2, 0.5, 0.8]), rng)
        assert chromatic_number_exact(g, omega=clique_number(g)) == \
            chromatic_number_exact(g)
