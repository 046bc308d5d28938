"""Structural decomposition around an induced complete multipartite core.

Grows an inclusion-maximal vertex set M inducing a complete multipartite
graph with two parts of size >= 4, checks the three locality claims that
force component neighborhoods outside M to be cliques, and derives the
clique-cutset split used by the recursive coloring.  Every failed check
returns a constructive violation: an explicit induced K4 subdivision on
at least five vertices, re-verifiable against the host graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import detect
from .graph import Graph, bit_list, components_within, mask_of


class NotACliqueError(RuntimeError):
    """A component neighborhood expected to be a clique is not one.

    pair is the first non-adjacent pair of the neighborhood, in ascending
    order; component is the component whose neighborhood it is.
    """

    def __init__(self, pair: tuple[int, int], neighborhood: int,
                 component: int):
        super().__init__(f"vertices {pair} in the cutset are non-adjacent")
        self.pair = pair
        self.neighborhood = neighborhood
        self.component = component


@dataclass(frozen=True)
class MultipartiteWitness:
    """Disjoint stable parts, pairwise complete, as bitmasks."""

    parts: tuple[int, ...]

    @property
    def members(self) -> int:
        m = 0
        for p in self.parts:
            m |= p
        return m

    @property
    def big_parts(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parts)
                     if p.bit_count() >= 4)


@dataclass(frozen=True)
class MaximalityBreach:
    """A vertex that could have been added to M; signals a non-maximal M."""

    vertex: int


@dataclass(frozen=True)
class ClaimViolation:
    """A failed structural claim plus the induced subdivision it forces."""

    claim_id: int
    actors: tuple[int, ...]
    constructed: detect.SubdivisionWitness

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "actors": list(self.actors),
            "witness_vertices": self.constructed.vertices(),
            "witness_paths": [list(p) for p in self.constructed.paths],
        }


@dataclass(frozen=True)
class CutsetSplit:
    """A clique cutset K and one component C of G - K, as vertex masks.

    The two sides are V - C and C union K; they meet in K, and no edge
    joins C to V - C - K.
    """

    clique: int
    component: int


def multipartite_ok(G: Graph, w: MultipartiteWitness) -> bool:
    """Validate all MultipartiteWitness invariants against G."""
    adj = G.adj
    seen = 0
    for p in w.parts:
        if p == 0 or (p & seen) or (p & ~G.vertex_mask):
            return False
        seen |= p
        for v in bit_list(p):
            if adj[v] & p:
                return False
    m = w.members
    for p in w.parts:
        other = m & ~p
        for v in bit_list(p):
            if adj[v] & m != other:
                return False
    return len(w.big_parts) >= 2


def _addable_part(adj, parts, v: int) -> int | None:
    """Index of the part v can join, len(parts) for a new singleton part,
    or None when v cannot extend the multipartite set."""
    row = adj[v]
    target = None
    for idx, p in enumerate(parts):
        hit = row & p
        if hit == p:
            continue
        if hit == 0:
            if target is not None:
                return None
            target = idx
        else:
            return None
    return target if target is not None else len(parts)


def grow_maximal_multipartite(G: Graph,
                              seed: detect.BicliqueWitness, *,
                              members: int | None = None
                              ) -> MultipartiteWitness:
    """Extend an induced K4,4 seed to an inclusion-maximal complete
    multipartite set within the vertex mask members (default: all of G).

    Vertices are scanned in ascending index order; joining an existing part
    (earliest-created first) is preferred over opening a singleton part.
    """
    scope = detect._members_of(G, members)
    detect._validate_sides(G, seed.side_a, seed.side_b)
    if (seed.side_a | seed.side_b) & ~scope:
        raise ValueError("seed sides must lie in members")
    if seed.side_a.bit_count() < 4 or seed.side_b.bit_count() < 4:
        raise ValueError("seed sides must have at least 4 vertices")
    adj = G.adj
    for side in (seed.side_a, seed.side_b):
        for v in bit_list(side):
            if adj[v] & side:
                raise ValueError("seed sides must be stable sets")
    parts = [seed.side_a, seed.side_b]
    members = seed.side_a | seed.side_b
    changed = True
    while changed:
        changed = False
        for v in range(G.n):
            if (members >> v) & 1 or not (scope >> v) & 1:
                continue
            slot = _addable_part(adj, parts, v)
            if slot is None:
                continue
            if slot == len(parts):
                parts.append(1 << v)
            else:
                parts[slot] |= 1 << v
            members |= 1 << v
            changed = True
    return MultipartiteWitness(tuple(parts))


def multipartite_is_maximal(G: Graph, w: MultipartiteWitness) -> bool:
    """True when no single outside vertex can join any part or stand alone."""
    members = w.members
    for v in range(G.n):
        if (members >> v) & 1:
            continue
        if _addable_part(G.adj, list(w.parts), v) is not None:
            return False
    return True


def _two_lowest(mask: int) -> tuple[int, int]:
    a = mask & -mask
    rest = mask ^ a
    b = rest & -rest
    return a.bit_length() - 1, b.bit_length() - 1


def _build_violation(G: Graph, claim_id: int, actors: tuple[int, ...]
                     ) -> ClaimViolation:
    w = detect.witness_from_subset(G, mask_of(actors), min_total=5)
    if w is None or not detect.verify_subdivision_witness(G, w):
        raise AssertionError(
            f"claim {claim_id} construction failed on actors {actors}")
    return ClaimViolation(claim_id, actors, w)


def _claim1_actors(v: int, row: int, vi: int, vj: int) -> tuple[int, ...]:
    """Actors (v, a, b, c, d) for an outside vertex v with neighbor row,
    two neighbors a, b in part vi and a neighbor c and non-neighbor d in
    part vj; each is the lowest index that fits."""
    a, b = _two_lowest(row & vi)
    hit = row & vj
    c = (hit & -hit).bit_length() - 1
    miss = vj & ~row
    d = (miss & -miss).bit_length() - 1
    return (v, a, b, c, d)


def check_claim1(G: Graph, w: MultipartiteWitness) -> ClaimViolation | None:
    """Every outside vertex with two neighbors in one part must be complete
    or anticomplete to every other part.

    Scans outside vertices ascending; a failure yields actors (v, a, b, c, d)
    with a, b neighbors in one part and c/d a neighbor/non-neighbor in
    another, inducing a K4 subdivision on five vertices.
    """
    adj = G.adj
    members = w.members
    parts = w.parts
    for v in range(G.n):
        if (members >> v) & 1:
            continue
        row = adj[v]
        for i, vi in enumerate(parts):
            if (row & vi).bit_count() < 2:
                continue
            for j, vj in enumerate(parts):
                if j == i:
                    continue
                hit = row & vj
                if hit == 0 or hit == vj:
                    continue
                return _build_violation(G, 1, _claim1_actors(v, row, vi, vj))
    return None


def check_claim2(G: Graph, w: MultipartiteWitness
                 ) -> ClaimViolation | MaximalityBreach | None:
    """Every outside vertex has at most one neighbor in each part.

    On failure the violation witness follows the structural case split:
    two anticomplete parts give a five-vertex subdivision; a mixed home
    part with all complete parts singleton gives a six-vertex one; a
    vertex complete to its home part and joinable elsewhere is reported as
    a MaximalityBreach instead of a violation.
    """
    adj = G.adj
    members = w.members
    parts = w.parts
    for v in range(G.n):
        if (members >> v) & 1:
            continue
        row = adj[v]
        for i, vi in enumerate(parts):
            if (row & vi).bit_count() < 2:
                continue
            a, b = _two_lowest(row & vi)
            anti = []
            compl = []
            mixed = []
            for j, vj in enumerate(parts):
                if j == i:
                    continue
                hit = row & vj
                if hit == vj:
                    compl.append(j)
                elif hit == 0:
                    anti.append(j)
                else:
                    mixed.append(j)
            if mixed:
                # claim 1 territory; still produce a sound witness
                return _build_violation(
                    G, 2, _claim1_actors(v, row, vi, parts[mixed[0]]))
            if len(anti) >= 2:
                u = (parts[anti[0]] & -parts[anti[0]]).bit_length() - 1
                u2 = (parts[anti[1]] & -parts[anti[1]]).bit_length() - 1
                return _build_violation(G, 2, (v, a, b, u, u2))
            nonnbr = vi & ~row
            if nonnbr:
                big_complete = next((j for j in compl
                                     if parts[j].bit_count() >= 2), None)
                if big_complete is not None:
                    # two neighbors in that part while mixed to vi
                    a2, b2 = _two_lowest(parts[big_complete])
                    c = a
                    d = (nonnbr & -nonnbr).bit_length() - 1
                    return _build_violation(G, 2, (v, a2, b2, c, d))
                if not anti:
                    raise AssertionError(
                        "valid M must leave an anticomplete big part")
                vj = parts[anti[0]]
                c = (nonnbr & -nonnbr).bit_length() - 1
                d, d2 = _two_lowest(vj)
                return _build_violation(G, 2, (v, a, b, c, d, d2))
            return MaximalityBreach(v)
    return None


def _component_neighborhood(adj, comp: int) -> int:
    reach = 0
    t = comp
    while t:
        b = t & -t
        t ^= b
        reach |= adj[b.bit_length() - 1]
    return reach & ~comp


def _shortest_part_path(G: Graph, w: MultipartiteWitness
                        ) -> tuple[list[int], int] | None:
    """Shortest path whose endpoints lie in a single part and whose interior
    stays outside M; returns (path, part index).

    BFS from each part vertex in ascending (part, vertex) order; among
    equal lengths the earliest found wins.
    """
    adj = G.adj
    members = w.members
    outside = G.vertex_mask & ~members
    best: tuple[list[int], int] | None = None
    best_len = None
    for i, vi in enumerate(w.parts):
        for u in bit_list(vi):
            targets = vi & ~(1 << u)
            # BFS through outside vertices only
            parent = {u: -1}
            frontier = [u]
            depth = 0
            while frontier:
                depth += 1
                # paths completed at this level have exactly depth edges
                if best_len is not None and depth >= best_len:
                    break
                nxt = []
                hit_end = None
                for x in frontier:
                    row = adj[x]
                    if x != u:
                        t = row & targets
                        if t:
                            hit_end = (x, (t & -t).bit_length() - 1)
                            break
                    pool = row & outside
                    while pool:
                        bb = pool & -pool
                        pool ^= bb
                        y = bb.bit_length() - 1
                        if y not in parent:
                            parent[y] = x
                            nxt.append(y)
                if hit_end is not None:
                    x, end = hit_end
                    path = [end, x]
                    while parent[x] != -1:
                        x = parent[x]
                        path.append(x)
                    path.reverse()
                    if best_len is None or len(path) - 1 < best_len:
                        best = (path, i)
                        best_len = len(path) - 1
                    break
                frontier = nxt
    return best


def check_claim3(G: Graph, w: MultipartiteWitness) -> ClaimViolation | None:
    """Each connected component outside M has at most one neighbor per part.

    Requires claims 1 and 2 to hold.  On failure, takes the globally
    shortest part-to-part path P through the outside, picks two vertices of
    a big part avoiding P's interior, and closes the subdivision with a
    third home-part vertex (big home part) or a vertex of a second big part.
    """
    adj = G.adj
    members = w.members
    outside = G.vertex_mask & ~members
    violated = False
    for comp in components_within(adj, outside):
        nbhd = _component_neighborhood(adj, comp) & members
        for vi in w.parts:
            if (nbhd & vi).bit_count() >= 2:
                violated = True
                break
        if violated:
            break
    if not violated:
        return None
    found = _shortest_part_path(G, w)
    if found is None:
        raise AssertionError("violation detected but no connecting path")
    path, i = found
    if len(path) - 1 < 3:
        raise ValueError(
            "claim 3 needs claims 1 and 2 to hold; a part-to-part path of "
            f"{len(path) - 1} edges means claim 2 already fails")
    interior = path[1:-1]
    touched = 0
    for x in interior:
        touched |= adj[x]
    vi = w.parts[i]
    bigs = [j for j in w.big_parts if j != i]
    if not bigs:
        raise AssertionError("valid M must have a big part besides the home")
    vj = w.parts[bigs[0]]
    free_j = vj & ~touched
    if free_j.bit_count() < 2:
        raise AssertionError("path minimality should leave two free vertices")
    a, b = _two_lowest(free_j)
    u, v_end = path[0], path[-1]
    if vi.bit_count() >= 3:
        pool = vi & ~(1 << u) & ~(1 << v_end) & ~touched
        if pool == 0:
            raise AssertionError("no free third vertex in the home part")
        wv = (pool & -pool).bit_length() - 1
        actors = (*path, wv, a, b)
    else:
        if len(bigs) < 2:
            raise AssertionError("small home part requires two big parts")
        vl = w.parts[bigs[1]]
        free_l = vl & ~touched
        if free_l == 0:
            raise AssertionError("no free vertex in the second big part")
        c = (free_l & -free_l).bit_length() - 1
        actors = (*path, a, c)
    return _build_violation(G, 3, actors)


def find_structural_cutset(G: Graph, w: MultipartiteWitness, *,
                           members: int | None = None) -> CutsetSplit | None:
    """Clique-cutset split at the first component C outside M, in the
    subgraph induced on the vertex mask members (default: all of G).

    The cutset K is the neighborhood of C within members, and the split is
    the mask pair (K, C).  Returns None when every member is in M.  The
    subgraph need not be connected: a component that does not touch M is
    one of its components, so K is empty.  Raises NotACliqueError when K
    has a non-adjacent pair, which means the structural claims fail for
    this graph.

    C is the component of the lowest outside vertex, so one search from
    that vertex builds C and its neighborhood, and no other component is
    listed.
    """
    members = detect._members_of(G, members)
    outside = members & ~w.members
    if outside == 0:
        return None
    adj = G.adj
    comp = frontier = outside & -outside
    reach = 0
    while frontier:
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= adj[b.bit_length() - 1]
        frontier = reach & outside & ~comp
        comp |= frontier
    clique = reach & members & ~comp
    for x, y in combinations(bit_list(clique), 2):
        if not (adj[x] >> y) & 1:
            raise NotACliqueError((x, y), clique, comp)
    return CutsetSplit(clique, comp)

