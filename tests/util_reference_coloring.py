"""Reference copy of the coloring recursion that rebuilds a Graph per step.

Every recursion step works on its own induced subgraph H plus a tuple vmap
of H's vertices in the input graph, re-searches for an induced K4,4 at
every step, and extends the low-degree vertex through greedy_extend, which
lives here since nothing else calls it.  The library's mask recursion
must reproduce its colors and trace byte for byte; tests compare the two
through coloring_to_json.
"""

from typing import Mapping

from isk4plus import detect, structure
from isk4plus.coloring import (RAMSEY_R4, ColorOptions, TraceNode,
                               merge_on_clique, verify_proper)
from isk4plus.graph import (Coloring, Graph, bit_list, coloring_from_map,
                            components, induced_subgraph, mask_of)


def greedy_extend(G: Graph, partial: Mapping[int, int], v: int,
                  palette: int) -> Coloring:
    """Extend a proper coloring of G - v by giving v the smallest palette
    color missing from its neighborhood."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    used = 0
    row = G.adj[v]
    while row:
        b = row & -row
        row ^= b
        u = b.bit_length() - 1
        if u not in partial:
            raise ValueError(f"neighbor {u} is uncolored")
        used |= 1 << partial[u]
    c = 0
    while (used >> c) & 1:
        c += 1
    if c >= palette:
        raise ValueError(
            f"all {palette} palette colors blocked at vertex {v}")
    full = dict(partial)
    full[v] = c
    return coloring_from_map(G.n, full)


def reference_color(G, opts=None):
    opts = opts or ColorOptions()
    k = opts.k if opts.k is not None else detect.clique_number(G)
    if opts.via_ramsey and k not in RAMSEY_R4:
        raise ValueError(
            f"the biclique-then-extract route needs a clique bound in "
            f"{sorted(RAMSEY_R4)}, got {k}")
    base = opts.base_size if opts.base_size is not None else max(k, 1)
    colors, trace = _color_rec(G, tuple(range(G.n)), base, k, opts)
    coloring = coloring_from_map(G.n, colors)
    assert verify_proper(G, coloring) is None
    return coloring, trace


def _palette_of(colors):
    return 1 + max(colors.values()) if colors else 0


def _find_seed(H, k, opts):
    if not opts.via_ramsey:
        return detect.find_induced_biclique(H, 4, budget=opts.detector_budget)
    s = RAMSEY_R4[k]
    if H.n < 2 * s:
        return None
    sub = detect.find_biclique_subgraph(H, s)
    if sub is None:
        return None
    try:
        return detect.ramsey_extract_k44(H, sub, k)
    except detect.CliquePreconditionError:
        return None


def _color_rec(H, vmap, base, k, opts):
    n = H.n
    if n <= base:
        return {vmap[i]: i for i in range(n)}, TraceNode("base", palette=n)

    comps = components(H)
    if len(comps) > 1:
        merged = {}
        node = TraceNode("component-split")
        for comp in comps:
            sub, smap = induced_subgraph(H, comp)
            child_colors, child_node = _color_rec(
                sub, tuple(vmap[i] for i in smap), base, k, opts)
            node.children.append(child_node)
            merged = merge_on_clique(merged, child_colors, 0)
        node.palette = _palette_of(merged)
        return merged, node

    seed = _find_seed(H, k, opts)
    if seed is not None:
        M = structure.grow_maximal_multipartite(H, seed)
        if M.members == H.vertex_mask:
            colors = {}
            for idx, part in enumerate(M.parts):
                for v in bit_list(part):
                    colors[vmap[v]] = idx
            return colors, TraceNode("multipartite-direct",
                                     palette=len(M.parts),
                                     part_count=len(M.parts))
        try:
            split = structure.find_structural_cutset(H, M)
        except structure.NotACliqueError as exc:
            return _low_degree_step(
                H, vmap, base, k, opts,
                fallback=("cutset not a clique at "
                          f"{tuple(vmap[v] for v in exc.pair)}"))
        g1, map1 = induced_subgraph(H, H.vertex_mask & ~split.component)
        g2, map2 = induced_subgraph(H, split.component | split.clique)
        c1, n1 = _color_rec(g1, tuple(vmap[i] for i in map1), base, k, opts)
        c2, n2 = _color_rec(g2, tuple(vmap[i] for i in map2), base, k, opts)
        merged = merge_on_clique(
            c1, c2, mask_of(vmap[v] for v in bit_list(split.clique)))
        node = TraceNode(
            "structural-split",
            palette=_palette_of(merged),
            clique=tuple(vmap[v] for v in bit_list(split.clique)),
            component=tuple(vmap[v] for v in bit_list(split.component)),
            children=[n1, n2])
        return merged, node

    return _low_degree_step(H, vmap, base, k, opts, fallback=None)


def _low_degree_step(H, vmap, base, k, opts, fallback):
    degs = [H.adj[v].bit_count() for v in range(H.n)]
    v = min(range(H.n), key=lambda u: (degs[u], u))
    sub, smap = induced_subgraph(H, H.vertex_mask & ~(1 << v))
    child_colors, child_node = _color_rec(
        sub, tuple(vmap[i] for i in smap), base, k, opts)
    palette = max(_palette_of(child_colors), degs[v] + 1)
    hpartial = {orig: child_colors[vmap[orig]] for orig in smap}
    extended = greedy_extend(H, hpartial, v, palette)
    colors = {vmap[i]: extended.colors[i] for i in range(H.n)}
    node = TraceNode("low-degree", palette=_palette_of(colors),
                     vertex=vmap[v], fallback=fallback,
                     children=[child_node])
    return colors, node
