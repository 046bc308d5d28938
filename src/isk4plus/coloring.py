"""Recursive proper coloring driven by the structural decomposition.

The recursion works on vertex masks of the input graph, and so do the
K4,4 search, the multipartite growth and the cutset it calls, so it uses
one index space and builds no subgraph.  It colors small sets directly,
splits disconnected ones, and otherwise looks for an induced K4,4.
Without one it removes a minimum-degree vertex and extends greedily on
the way back; such a chain runs as one loop over degree buckets.  With
one it grows the complete multipartite set M and recurses across the
clique cutset that M induces, merging the two side colorings on the
cutset.  Each search result is passed down: having no induced K4,4 is
hereditary, and the first induced K4,4 of a mask stays the first of
every submask that contains it, so a step searches only when its parent's
result says nothing about it.  The output is a proper coloring for every
input graph; on graphs that do contain an induced K4 subdivision on >= 5
vertices the cutset step can fail, in which case the step is recorded in
the trace and the minimum-degree branch is taken instead.  The next such
fallback step keeps that step's M, and its failing pair, whenever removing
one vertex provably leaves them as they were.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from . import detect, structure
from .graph import (Coloring, Graph, UsageError, coloring_from_map,
                    components_within, iter_bits)

# known Ramsey numbers R(4, k); used only to size the K_{s,s} search when
# the biclique-then-extract route is requested
RAMSEY_R4 = {2: 4, 3: 9, 4: 18, 5: 25}

# the recursion's search result for a mask that holds no induced K4,4
_NO_K44 = object()


class ColoringBudgetError(RuntimeError):
    """A detector budget ran out while coloring."""


@dataclass
class TraceNode:
    """One step of the coloring recursion."""

    kind: str  # base | component-split | low-degree | structural-split |
               # multipartite-direct
    palette: int = 0
    vertex: int | None = None
    clique: tuple[int, ...] = ()
    component: tuple[int, ...] = ()
    part_count: int = 0
    fallback: str | None = None
    children: list["TraceNode"] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "palette": self.palette}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.clique:
            out["clique"] = list(self.clique)
        if self.component:
            out["component"] = list(self.component)
        if self.part_count:
            out["part_count"] = self.part_count
        if self.fallback is not None:
            out["fallback"] = self.fallback
        out["children"] = [c.to_json_dict() for c in self.children]
        return out

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class ColorOptions:
    """Tuning knobs for color_isk4plus_free.

    k defaults to the exact clique number; base_size to k.
    """

    k: int | None = None
    base_size: int | None = None
    via_ramsey: bool = False
    detector_budget: int | None = None


def merge_on_clique(c1: Mapping[int, int], c2: Mapping[int, int],
                    clique: int) -> dict[int, int]:
    """Combine colorings of two graph pieces that overlap in a clique,
    given as a vertex mask.

    Relabels c2's colors by the permutation that makes it agree with c1 on
    the clique (both restrictions must be injective), extending the
    permutation to the remaining colors smallest-first.  With an empty
    clique (0) this is plain concatenation.
    """
    pi: dict[int, int] = {}
    seen1 = set()
    for x in iter_bits(clique):
        a, b = c1[x], c2[x]
        if a in seen1 or (b in pi and pi[b] != a):
            raise ValueError("colorings are not injective on the clique")
        seen1.add(a)
        pi[b] = a
    taken = set(pi.values())
    for b in sorted(set(c2.values())):
        if b in pi:
            continue
        c = 0
        while c in taken:
            c += 1
        pi[b] = c
        taken.add(c)
    merged = dict(c1)
    for x, b in c2.items():
        merged[x] = pi[b]
    return merged


def verify_proper(G: Graph, coloring: Coloring) -> tuple[int, int] | None:
    """None if no edge is monochromatic, else the smallest violating edge."""
    colors = coloring.colors
    if len(colors) != G.n:
        raise ValueError("coloring size does not match the graph")
    for u in range(G.n):
        row = G.adj[u] >> (u + 1) << (u + 1)
        cu = colors[u]
        while row:
            b = row & -row
            row ^= b
            v = b.bit_length() - 1
            if colors[v] == cu:
                return (u, v)
    return None


def color_isk4plus_free(G: Graph, opts: ColorOptions | None = None
                        ) -> tuple[Coloring, TraceNode]:
    """Color G by the structural recursion; always returns a proper coloring.

    The trace records one node per recursion step.  Steps where the clique
    cutset derived from M was not actually a clique carry a fallback tag;
    such steps never occur when G has no induced K4 subdivision on >= 5
    vertices.
    """
    opts = opts or ColorOptions()
    if opts.base_size is not None and opts.base_size < 0:
        raise UsageError(
            f"base_size must be non-negative, got {opts.base_size}")
    k = opts.k if opts.k is not None else detect.clique_number(G)
    if opts.via_ramsey and k not in RAMSEY_R4:
        raise UsageError(
            f"the biclique-then-extract route needs a clique bound in "
            f"{sorted(RAMSEY_R4)}, got {k}")
    base = opts.base_size if opts.base_size is not None else max(k, 1)
    colors, trace = _color_rec(G, G.vertex_mask, base, k, opts, None)
    coloring = coloring_from_map(G.n, colors)
    bad = verify_proper(G, coloring)
    if bad is not None:
        raise AssertionError(f"internal error: improper edge {bad}")
    return coloring, trace


def _palette_of(colors: dict[int, int]) -> int:
    return 1 + max(colors.values()) if colors else 0


def _find_seed(G: Graph, members: int, k: int, opts: ColorOptions):
    """Locate an induced K4,4 within members, directly or via K_{s,s} +
    extraction."""
    if not opts.via_ramsey:
        return detect.find_induced_biclique(G, 4, budget=opts.detector_budget,
                                            members=members)
    s = RAMSEY_R4[k]
    if members.bit_count() < 2 * s:
        return None
    sub = detect.find_biclique_subgraph(G, s, members=members)
    if sub is None:
        return None
    try:
        return detect.ramsey_extract_k44(G, sub, k)
    except detect.CliquePreconditionError:
        # the promised clique bound was wrong; fall back to degeneracy
        return None


def _inherit(known, members: int):
    """The part of a K4,4 search result that holds on the submask members.

    "None found" is hereditary.  A seed is the first induced K4,4 of a
    supermask, and it stays the first of every submask that contains it,
    so it is kept exactly when its sides lie in members.
    """
    if isinstance(known, detect.BicliqueWitness) and \
            (known.side_a | known.side_b) & ~members:
        return None
    return known


def _stays_connected(adj, members: int, v: int) -> bool:
    """Whether members is connected, given that members plus v is.

    Every member reaches a neighbor of v without passing through v, so
    members is connected exactly when v's lowest neighbor reaches all the
    others; the search stops as soon as it has, at once when v has at
    most one neighbor left.
    """
    nbrs = adj[v] & members
    comp = nbrs & -nbrs
    frontier = comp
    while nbrs & ~comp:
        if not frontier:
            return False
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= adj[b.bit_length() - 1]
        frontier = reach & members & ~comp
        comp |= frontier
    return True


def _kept_cut(adj, cut: tuple[tuple[int, int], int], v: int):
    """The failing cutset (pair, C) after the outside vertex v leaves the
    mask, or None when it must be recomputed.

    When v is not in C, C is still the first outside component and its
    neighborhood is unchanged.  When v is in C but not its lowest vertex
    and C - v is connected, C - v is the new first component; its
    neighborhood is a subset of the old one, so a pair that still touches
    C - v is still its first non-adjacent pair.
    """
    pair, comp = cut
    vbit = 1 << v
    if not comp & vbit:
        return cut
    rest = comp ^ vbit
    x, y = pair
    if comp & -comp == vbit or not adj[x] & rest or not adj[y] & rest \
            or not _stays_connected(adj, rest, v):
        return None
    return pair, rest


def _color_rec(G: Graph, members: int, base: int, k: int,
               opts: ColorOptions, known
               ) -> tuple[dict[int, int], TraceNode]:
    """Color the subgraph of G induced on the vertex mask members.

    Every search runs on (G, members), so colors, trace vertices and the
    seed, M and cutset all use G's own indices.  known is what is known of
    the K4,4 search on members: None when nothing is, so the step
    searches; _NO_K44 when members holds no induced K4,4; or the first
    induced K4,4 of members, found on a supermask (see _inherit).

    A chain of low-degree steps runs as one loop.  The degrees within
    members live in buckets, one vertex mask per degree, so each step
    removes the lowest member v of the lowest non-empty bucket and moves
    v's remaining neighbors down one bucket.  Only when _stays_connected
    fails does components_within run again.  The removed vertices are
    colored on the unwind, in reverse removal order, each with the
    smallest color its neighbors leave free.

    A fallback step keeps what the fallback step before it computed.  M
    is kept when the seed sides are equal by value, so also on the
    --via-ramsey route, which searches at every step, and v was outside
    M: the ascending scan of grow_maximal_multipartite never added v, so
    it makes the same additions without it.  With M kept, the failing
    pair is kept as _kept_cut says.  Anything else is recomputed.
    """
    adj = G.adj
    chain: list[tuple[int, str | None]] = []
    buckets: list[int] = []  # buckets[d]: the members with d neighbors
    deg: list[int] = []
    low = 0  # no bucket below low is non-empty
    connected = False
    # what the last fallback step computed: M, with the seed sides it grew
    # from and its vertex mask inside, and the failing cutset (pair, C)
    M = cut = None
    while True:
        n = members.bit_count()
        if n <= base:
            colors = {v: i for i, v in enumerate(iter_bits(members))}
            node = TraceNode("base", palette=n)
            break

        if not connected:
            comps = components_within(adj, members)
            if len(comps) > 1:
                colors = {}
                node = TraceNode("component-split")
                for comp in comps:
                    child_colors, child_node = _color_rec(
                        G, comp, base, k, opts, _inherit(known, comp))
                    node.children.append(child_node)
                    colors = merge_on_clique(colors, child_colors, 0)
                node.palette = _palette_of(colors)
                break

        if known is None:
            try:
                seed = _find_seed(G, members, k, opts)
            except detect.SearchBudgetExceeded as exc:
                raise ColoringBudgetError(str(exc)) from exc
            # a failed Ramsey extraction proves nothing about submasks,
            # so that route never passes a result on
            if not opts.via_ramsey:
                known = _NO_K44 if seed is None else seed
        else:
            seed = None if known is _NO_K44 else known

        fallback = None
        if seed is None:
            M = cut = None
        else:
            # M is set only after a fallback step, which removed v
            if M is None or sides != (seed.side_a, seed.side_b) or \
                    (inside >> v) & 1:
                M = structure.grow_maximal_multipartite(G, seed,
                                                        members=members)
                inside = M.members
                sides = (seed.side_a, seed.side_b)
                cut = None
            else:
                cut = _kept_cut(adj, cut, v)
            if inside == members:
                colors = {}
                for idx, part in enumerate(M.parts):
                    for v in iter_bits(part):
                        colors[v] = idx
                node = TraceNode("multipartite-direct", palette=len(M.parts),
                                 part_count=len(M.parts))
                break
            if cut is None:
                try:
                    split = structure.find_structural_cutset(
                        G, M, members=members)
                except structure.NotACliqueError as exc:
                    cut = exc.pair, exc.component
            if cut is not None:
                fallback = f"cutset not a clique at {cut[0]}"
            else:
                # M leaves an outside vertex here, so a split exists
                clique, comp = split.clique, split.component
                side1, side2 = members & ~comp, comp | clique
                c1, n1 = _color_rec(G, side1, base, k, opts,
                                    _inherit(known, side1))
                c2, n2 = _color_rec(G, side2, base, k, opts,
                                    _inherit(known, side2))
                colors = merge_on_clique(c1, c2, clique)
                node = TraceNode(
                    "structural-split",
                    palette=_palette_of(colors),
                    clique=tuple(iter_bits(clique)),
                    component=tuple(iter_bits(comp)),
                    children=[n1, n2])
                break

        # remove the member with the fewest neighbors in members, lowest
        # index on ties
        if not buckets:
            buckets = [0] * n
            deg = [0] * G.n
            for u in iter_bits(members):
                d = (adj[u] & members).bit_count()
                deg[u] = d
                buckets[d] |= 1 << u
        d = low
        while not buckets[d]:
            d += 1
        vbit = buckets[d] & -buckets[d]
        buckets[d] ^= vbit
        v = vbit.bit_length() - 1
        members ^= vbit
        row = adj[v] & members
        while row:
            b = row & -row
            row ^= b
            u = b.bit_length() - 1
            du = deg[u]
            buckets[du] ^= b
            buckets[du - 1] |= b
            deg[u] = du - 1
        low = max(d - 1, 0)
        connected = _stays_connected(adj, members, v)
        known = _inherit(known, members)
        chain.append((v, fallback))

    colored = members
    for v, fallback in reversed(chain):
        used = 0
        row = adj[v] & colored
        while row:
            b = row & -row
            row ^= b
            used |= 1 << colors[b.bit_length() - 1]
        c = (~used & (used + 1)).bit_length() - 1
        colors[v] = c
        node = TraceNode("low-degree", palette=max(node.palette, c + 1),
                         vertex=v, fallback=fallback, children=[node])
        colored |= 1 << v
    return colors, node


def coloring_to_lines(c: Coloring) -> str:
    """Plain "vertex color" lines, one vertex per line."""
    return "\n".join(f"{v} {col}" for v, col in enumerate(c.colors))


def coloring_to_json(c: Coloring, trace: TraceNode) -> str:
    doc = {
        "palette": c.palette_size,
        "colors": list(c.colors),
        "trace": trace.to_json_dict(),
    }
    return json.dumps(doc, separators=(",", ":"))
