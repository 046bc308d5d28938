"""Brute-force reference implementations used only by the tests.

Deliberately naive so they share no code path with the library's branch
and bound solvers.
"""

from itertools import combinations, product

from isk4plus.graph import Graph


def brute_clique_number(G: Graph) -> int:
    best = 0
    for size in range(G.n, 0, -1):
        for verts in combinations(range(G.n), size):
            if all((G.adj[u] >> v) & 1 for u, v in combinations(verts, 2)):
                return size
    return best


def brute_chromatic_number(G: Graph) -> int:
    n = G.n
    if n == 0:
        return 0
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (G.adj[u] >> v) & 1]
    if not edges:
        return 1
    for k in range(1, n + 1):
        for assign in product(range(k), repeat=n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")

