"""Graph representation, queries, and serialization."""

import random
from itertools import combinations

import pytest

from isk4plus.graph import (Coloring, Graph, coloring_from_map, components,
                            edge_count, edge_list, graph_from_edges,
                            induced_subgraph, is_connected, mask_of)
from isk4plus.formats import (FormatError, parse_graph6, read_dimacs,
                              read_edgelist, write_graph6)
from isk4plus.harness import (complete_multipartite, complete_graph,
                              cycle_graph, gnp_graph, k4_plus_graph)


def test_k4_from_edges():
    g = graph_from_edges(4, combinations(range(4), 2))
    assert g.n == 4 and edge_count(g) == 6
    assert all(row.bit_count() == 3 for row in g.adj)


def test_k4plus_from_edges():
    # K4 on {0,1,2,3} minus edge {0,1}, plus the path 0-4-1
    g = graph_from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (0, 4), (1, 4)])
    assert g == k4_plus_graph()
    assert g.adj[4] == mask_of([0, 1])
    assert edge_count(g) == 7


def test_empty_graph():
    g = graph_from_edges(3, [])
    assert g.n == 3 and edge_count(g) == 0


def test_duplicate_edges_collapse():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert edge_count(g) == 1


@pytest.mark.parametrize("edges,err", [
    ([(0, 5)], "range"),
    ([(2, 2)], "loop"),
    ([(-1, 0)], "range"),
])
def test_from_edges_errors(edges, err):
    with pytest.raises(ValueError, match=err):
        graph_from_edges(3, edges)


def test_constructor_rejects_bad_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match="loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="outside"):
        Graph(2, (0b100, 0b000))
    with pytest.raises(ValueError, match="vertex count"):
        Graph(129, tuple([0] * 129))


def test_constructed_graphs_symmetric_irreflexive():
    rng = random.Random(11)
    for _ in range(200):
        g = gnp_graph(rng.randint(0, 12), rng.random(), rng)
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in range(g.n):
                assert ((g.adj[v] >> u) & 1) == ((g.adj[u] >> v) & 1)


def test_induced_subgraph_identity():
    rng = random.Random(3)
    for _ in range(50):
        g = gnp_graph(rng.randint(1, 10), 0.4, rng)
        sub, vmap = induced_subgraph(g, g.vertex_mask)
        assert sub == g
        assert vmap == tuple(range(g.n))


def test_induced_subgraph_k4plus_branch_set():
    # branch vertices of K4+ induce K4 minus one edge: 4 vertices, 5 edges
    g = k4_plus_graph()
    sub, vmap = induced_subgraph(g, mask_of([0, 1, 2, 3]))
    assert sub.n == 4 and edge_count(sub) == 5
    assert vmap == (0, 1, 2, 3)
    assert not (sub.adj[0] >> 1) & 1


def test_components_two_k4s():
    edges = list(combinations(range(4), 2)) + \
        [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
    g = graph_from_edges(8, edges)
    comps = components(g)
    assert comps == [mask_of(range(4)), mask_of(range(4, 8))]
    assert not is_connected(g)
    assert is_connected(complete_graph(4))
    assert is_connected(graph_from_edges(0, []))


# ---------------------------------------------------------------------------
# graph6

def test_graph6_round_trip_bytes():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(0, 20)
        g = gnp_graph(n, rng.choice([0.1, 0.3, 0.5, 0.9]), rng)
        rec = write_graph6(g)
        assert parse_graph6(rec) == g
        assert write_graph6(parse_graph6(rec)) == rec


def test_graph6_long_form():
    rng = random.Random(5)
    for n in (63, 64, 100):
        g = gnp_graph(n, 0.2, rng)
        rec = write_graph6(g)
        assert rec[0] == 126
        assert parse_graph6(rec) == g


@pytest.mark.parametrize("n", [62, 63, 64, 100, 127, 128])
def test_graph6_round_trip_sizes(n):
    g = gnp_graph(n, 0.3, random.Random(n))
    # the upper triangle in column order, packed by hand from the spec
    bits = [(g.adj[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + int("".join(map(str, bits[k:k + 6])), 2)
                 for k in range(0, len(bits), 6))
    header = bytes([n + 63]) if n <= 62 else bytes([126, 63, 63 + (n >> 6),
                                                    63 + (n & 63)])
    rec = write_graph6(g)
    assert rec == header + body
    assert parse_graph6(rec) == g
    assert write_graph6(parse_graph6(rec)) == rec
    with pytest.raises(FormatError):
        parse_graph6(rec[:-1])
    if n * (n - 1) // 2 % 6:
        # the last padding bit is 0, so adding 1 sets it
        with pytest.raises(FormatError, match="padding"):
            parse_graph6(rec[:-1] + bytes([rec[-1] + 1]))


def test_graph6_d_brace_fixture():
    g = parse_graph6(b"D?{")
    assert g.n == 5
    assert edge_list(g) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert write_graph6(g) == b"D?{"


def test_graph6_k4plus_round_trip():
    g = k4_plus_graph()
    assert parse_graph6(write_graph6(g)) == g


@pytest.mark.parametrize("data", [
    b"",                # empty
    b"D?",              # truncated body
    b"C~~",             # trailing garbage
    b"D?{x",            # trailing garbage
    b"D?\x1f",          # non-printable byte
    b"~??",             # truncated long header
    b"B~",              # nonzero padding bits (n=3 needs 3 bits)
])
def test_graph6_malformed(data):
    with pytest.raises(FormatError):
        parse_graph6(data)


def test_graph6_fixture_file():
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "records.g6"
    for raw in path.read_bytes().splitlines():
        if not raw:
            continue
        g = parse_graph6(raw)
        assert write_graph6(g) == raw


# ---------------------------------------------------------------------------
# other readers

def test_edgelist_reader():
    g = read_edgelist("5 7\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n1 4\n")
    assert g == k4_plus_graph()
    with pytest.raises(FormatError):
        read_edgelist("2 2\n0 1\n")
    with pytest.raises(FormatError):
        read_edgelist("abc\n")


def test_dimacs_reader():
    text = "c a 5-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
    assert read_dimacs(text) == cycle_graph(5)
    with pytest.raises(FormatError):
        read_dimacs("e 1 2\n")


# ---------------------------------------------------------------------------
# colorings

def test_coloring_type():
    c = Coloring((0, 1, 0, 2))
    assert c.palette_size == 3
    assert Coloring(()).palette_size == 0
    with pytest.raises(ValueError):
        Coloring((0, -1))


def test_coloring_from_map():
    c = coloring_from_map(3, {0: 1, 1: 0, 2: 1})
    assert c.colors == (1, 0, 1)
    with pytest.raises(ValueError, match="uncolored"):
        coloring_from_map(3, {0: 1, 2: 1})


def test_complete_multipartite_builder():
    g = complete_multipartite(2, 2, 2)
    assert g.n == 6 and edge_count(g) == 12
    assert not g.adj[0] & mask_of([1])
