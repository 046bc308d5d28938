"""Exhaustive checks used only by the tests.

An exponential clique-cutset oracle and a detector-versus-oracle sweep
over the labeled enumeration; both are too slow for the package's own
code paths.
"""

from itertools import combinations

from isk4plus import detect
from isk4plus.graph import Graph, components_within, mask_of
from isk4plus.harness import graph_from_edge_mask, pair_index_list
from isk4plus.structure import CutsetSplit


def find_any_clique_cutset(G: Graph, *, ceiling: int = 24
                           ) -> CutsetSplit | None:
    """Exhaustive clique-cutset oracle, smallest cliques first.

    For a disconnected graph the empty clique qualifies.
    """
    n = G.n
    if n > ceiling:
        raise ValueError(f"clique cutset oracle ceiling exceeded: {n}")
    if n == 0:
        return None
    comps = components_within(G.adj, G.vertex_mask)
    if len(comps) > 1:
        return CutsetSplit(0, comps[0])
    omega = detect.clique_number(G)
    for size in range(1, min(omega, n - 2) + 1):
        for verts in combinations(range(n), size):
            ok = True
            for x, y in combinations(verts, 2):
                if not (G.adj[x] >> y) & 1:
                    ok = False
                    break
            if not ok:
                continue
            kmask = mask_of(verts)
            rest = G.vertex_mask & ~kmask
            if rest == 0:
                continue
            parts = components_within(G.adj, rest)
            if len(parts) > 1:
                return CutsetSplit(kmask, parts[0])
    return None


def detector_agreement_stats(n: int, start: int, stop: int,
                             budget: int | None = detect.DEFAULT_NODE_BUDGET
                             ) -> dict:
    """Compare find_isk4plus against the subset oracle over a slice of the
    labeled enumeration of n-vertex graphs (edge bitmasks start..stop)."""
    pairs = pair_index_list(n)
    stats = {"graphs": 0, "found": 0, "budget": 0, "disagreements": [],
             "witnesses": 0, "witness_failures": 0}
    for mask in range(start, stop):
        G = graph_from_edge_mask(n, mask, pairs)
        det = detect.find_isk4plus(G, budget=budget)
        if det.status == detect.BUDGET:
            stats["budget"] += 1
            continue
        oracle = detect.find_isk4plus_oracle(G)
        stats["graphs"] += 1
        if det.found != (oracle is not None):
            stats["disagreements"].append(mask)
            continue
        if det.found:
            stats["found"] += 1
            for w in (det.witness, oracle):
                stats["witnesses"] += 1
                if not detect.verify_subdivision_witness(G, w):
                    stats["witness_failures"] += 1
    return stats
