"""Reference copies of code the library replaced, kept to test against.

find_biclique_subgraph_scan and find_induced_biclique_scan are the K4,4
searches as they were before the second side-A vertex came from a common
neighbor pool: every level scans every later candidate.
find_biclique_subgraph_pool and find_induced_biclique_pool are the two
searches as they were once that pool came in, before one grower served
both: each has its own side-A loop, the induced one carries a stable pool
and spends a budget, and smallest_stable_subset_list finds side B by
walking a list of pool vertices with index arithmetic.  Every induced
reference finds side B through smallest_stable_subset_list, and all of
them spend their nodes through detect._spender, so a test that wraps it
counts the nodes of the library search and of its reference alike.
dsatur_order_color_scan and k_colorable_scan are DSATUR's greedy coloring
and its k-colorability backtracking as they were before one bitset walk
picked the next vertex for both: each scans every vertex and compares
(saturation, degree, -index) tuples.  parse_graph6_bitloop is
the graph6 decoder that walked the body one bit at a time and built the
graph through the checked Graph constructor.  find_isk4plus_every_quad
is the detector as it was before its quad loop skipped the quads whose
first path has no room: it hands every quad to detect._search_quad and
spends its nodes through detect._spender too.
"""
from itertools import combinations

from isk4plus import detect
from isk4plus.detect import (BUDGET, DEFAULT_NODE_BUDGET, FOUND, NONE,
                             BicliqueWitness, Detection,
                             SearchBudgetExceeded)
from isk4plus.formats import FormatError, _ascii_bytes
from isk4plus.graph import (MAX_VERTICES, Graph, _as_mask, bit_list,
                            lowest_bits)


def _members_of(G, members):
    return G.vertex_mask if members is None else _as_mask(G, members)


def find_biclique_subgraph_scan(G, s, *, members=None):
    if s < 1:
        raise ValueError("s must be positive")
    members = _members_of(G, members)
    adj = G.adj
    cand = [v for v in range(G.n)
            if (members >> v) & 1 and (adj[v] & members).bit_count() >= s]
    if len(cand) < s:
        return None

    def grow(start, chosen, k, common):
        if k == s:
            if common.bit_count() >= s:
                return chosen, lowest_bits(common, s)
            return None
        for idx in range(start, len(cand)):
            v = cand[idx]
            ncommon = common & adj[v]
            if ncommon.bit_count() < s:
                continue
            hit = grow(idx + 1, chosen | (1 << v), k + 1, ncommon)
            if hit is not None:
                return hit
        return None

    hit = grow(0, 0, 0, members)
    if hit is None:
        return None
    return BicliqueWitness(hit[0], hit[1], induced=False)


def find_induced_biclique_scan(G, s, budget=None, *, members=None):
    if s < 1:
        raise ValueError("s must be positive")
    spend = detect._spender(budget, "induced biclique search budget")
    members = _members_of(G, members)
    adj = G.adj
    if members.bit_count() < 2 * s:
        return None
    cand = [v for v in range(G.n)
            if (members >> v) & 1 and (adj[v] & members).bit_count() >= s]
    if len(cand) < 2 * s:
        return None

    def grow(start, chosen, k, common, stable_pool):
        if k == s:
            b = smallest_stable_subset_list(adj, common, s, spend)
            if b is not None:
                return chosen, b
            return None
        for idx in range(start, len(cand)):
            v = cand[idx]
            vbit = 1 << v
            if not stable_pool & vbit:
                continue
            spend()
            ncommon = common & adj[v]
            if ncommon.bit_count() < s:
                continue
            hit = grow(idx + 1, chosen | vbit, k + 1, ncommon,
                       stable_pool & ~adj[v] & ~vbit)
            if hit is not None:
                return hit
        return None

    hit = grow(0, 0, 0, members, members)
    if hit is None:
        return None
    return BicliqueWitness(hit[0], hit[1], induced=True)


def candidates_pool(adj, members: int, s: int) -> int:
    """The members with at least s neighbors in members."""
    cand = 0
    rest = members
    while rest:
        b = rest & -rest
        rest ^= b
        if (adj[b.bit_length() - 1] & members).bit_count() >= s:
            cand |= b
    return cand


def second_pool(adj, later: int, common: int, s: int) -> int:
    """The vertices of later with at least s neighbors in common."""
    if common.bit_count() < s:
        return 0
    level = [0] * s
    while common:
        b = common & -common
        common ^= b
        row = adj[b.bit_length() - 1]
        for i in range(s - 1, 0, -1):
            level[i] |= level[i - 1] & row
        level[0] |= row
    return later & level[-1]


def find_biclique_subgraph_pool(G: Graph, s: int, *,
                                members: int | None = None
                                ) -> BicliqueWitness | None:
    """Smallest K_{s,s} subgraph (sides need not be stable), or None.

    Side A is grown vertex by vertex in ascending order while intersecting
    the common neighborhood; side B is the lexicographically least s-subset
    of the final common neighborhood.  members restricts the search to the
    subgraph induced on that vertex mask (default: all of G).  The second
    side-A vertex comes from second_pool.
    """
    if s < 1:
        raise ValueError("s must be positive")
    members = _members_of(G, members)
    adj = G.adj
    cand = candidates_pool(adj, members, s)
    if cand.bit_count() < s:
        return None

    def grow(pool: int, chosen: int, k: int, common: int):
        if k == s:
            if common.bit_count() >= s:
                return chosen, lowest_bits(common, s)
            return None
        while pool:
            vbit = pool & -pool
            pool ^= vbit
            ncommon = common & adj[vbit.bit_length() - 1]
            if ncommon.bit_count() < s:
                continue
            later = second_pool(adj, pool, ncommon, s) if k == 0 else pool
            hit = grow(later, chosen | vbit, k + 1, ncommon)
            if hit is not None:
                return hit
        return None

    hit = grow(cand, 0, 0, members)
    if hit is None:
        return None
    a, b = hit
    return BicliqueWitness(a, b, induced=False)


def smallest_stable_subset_list(adj, pool: int, s: int,
                                spend=None) -> int | None:
    """Lexicographically least stable s-subset of pool, or None."""
    verts = bit_list(pool)

    def grow(start: int, chosen: int, k: int, allowed: int):
        if k == s:
            return chosen
        for idx in range(start, len(verts)):
            v = verts[idx]
            vbit = 1 << v
            if not allowed & vbit:
                continue
            if spend is not None:
                spend()
            rest = allowed & ~adj[v] & ~vbit
            # even taking every remaining allowed vertex must reach s
            if rest.bit_count() < s - k - 1:
                continue
            hit = grow(idx + 1, chosen | vbit, k + 1, rest)
            if hit is not None:
                return hit
        return None

    return grow(0, 0, 0, pool)


def find_induced_biclique_pool(G: Graph, s: int,
                               budget: int | None = None, *,
                               members: int | None = None
                               ) -> BicliqueWitness | None:
    """Smallest induced K_{s,s}: both sides stable, all cross edges present.

    An optional node budget raises SearchBudgetExceeded when exhausted.
    members restricts the search to the subgraph induced on that vertex
    mask (default: all of G); the search visits the same nodes as on that
    induced subgraph, and the sides are in G's indices.  The second side-A
    vertex comes from second_pool, and a vertex it leaves out spends no
    node.
    """
    if s < 1:
        raise ValueError("s must be positive")
    spend = detect._spender(budget, "induced biclique search budget")
    members = _members_of(G, members)
    adj = G.adj
    if members.bit_count() < 2 * s:
        return None
    cand = candidates_pool(adj, members, s)
    if cand.bit_count() < 2 * s:
        return None

    def grow(pool: int, chosen: int, k: int, common: int, stable_pool: int):
        if k == s:
            b = smallest_stable_subset_list(adj, common, s, spend)
            if b is not None:
                return chosen, b
            return None
        pool &= stable_pool
        while pool:
            vbit = pool & -pool
            pool ^= vbit
            v = vbit.bit_length() - 1
            spend()
            ncommon = common & adj[v]
            if ncommon.bit_count() < s:
                continue
            later = second_pool(adj, pool, ncommon, s) if k == 0 else pool
            hit = grow(later, chosen | vbit, k + 1, ncommon,
                       stable_pool & ~adj[v] & ~vbit)
            if hit is not None:
                return hit
        return None

    hit = grow(cand, 0, 0, members, members)
    if hit is None:
        return None
    a, b = hit
    return BicliqueWitness(a, b, induced=True)



def dsatur_order_color_scan(adj, n: int) -> tuple[int, list[int]]:
    """Greedy DSATUR coloring: (palette size, colors)."""
    colors = [-1] * n
    satur = [0] * n
    neigh_colors = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        best = -1
        key = (-1, -1, 1)
        for v in range(n):
            if colors[v] != -1:
                continue
            cand = (satur[v], degs[v], -v)
            if cand > key:
                key = cand
                best = v
        c = 0
        used = neigh_colors[best]
        while (used >> c) & 1:
            c += 1
        colors[best] = c
        row = adj[best]
        while row:
            b = row & -row
            row ^= b
            u = b.bit_length() - 1
            if colors[u] == -1 and not (neigh_colors[u] >> c) & 1:
                neigh_colors[u] |= 1 << c
                satur[u] += 1
    return (max(colors) + 1 if n else 0), colors


def k_colorable_scan(adj, n: int, k: int, spend) -> bool:
    """Backtracking k-colorability, DSATUR vertex order, canonical colors."""
    colors = [-1] * n
    neigh_colors = [0] * n
    satur = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]

    def rec(done: int, used: int) -> bool:
        spend()
        if done == n:
            return True
        best = -1
        key = (-1, -1, 1)
        for v in range(n):
            if colors[v] != -1:
                continue
            cand = (satur[v], degs[v], -v)
            if cand > key:
                key = cand
                best = v
        v = best
        limit = min(k, used + 1)
        for c in range(limit):
            if (neigh_colors[v] >> c) & 1:
                continue
            colors[v] = c
            touched = []
            row = adj[v]
            while row:
                b = row & -row
                row ^= b
                u = b.bit_length() - 1
                if colors[u] == -1 and not (neigh_colors[u] >> c) & 1:
                    neigh_colors[u] |= 1 << c
                    satur[u] += 1
                    touched.append(u)
            if rec(done + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for u in touched:
                neigh_colors[u] &= ~(1 << c)
                satur[u] -= 1
        return False

    return rec(0, 0)



def parse_graph6_bitloop(data):
    data = _ascii_bytes(data)
    if not data:
        raise FormatError("empty graph6 record")
    for b in data:
        if not 63 <= b <= 126:
            raise FormatError(f"non-printable graph6 byte {b}")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise FormatError("graph6 records beyond 258047 vertices unsupported")
        if len(data) < 4:
            raise FormatError("truncated graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 record has {n} vertices, "
                          f"more than {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise FormatError(f"truncated graph6 record: need {need} data bytes")
    if len(body) > need:
        raise FormatError("trailing garbage after graph6 record")
    rows = [0] * n
    pos = 0
    # (i, j) is the pair at column-order position pos
    i, j = 0, 1
    for byte in body:
        group = byte - 63
        for k in range(5, -1, -1):
            bit = (group >> k) & 1
            if pos < nbits:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise FormatError("nonzero padding bits in graph6 record")
            pos += 1
    return Graph(n, tuple(rows))


def find_isk4plus_every_quad(G, *, budget=DEFAULT_NODE_BUDGET, min_total=5):
    spend = detect._spender(budget, "detector search budget")
    n = G.n
    adj = G.adj
    if n < min_total or n < 4:
        return Detection(NONE)
    keep = G.vertex_mask
    if min_total > 4:
        keep = detect._cap_twins(adj, detect._peel_simplicial(adj, keep))
    cand = [v for v in bit_list(keep) if (adj[v] & keep).bit_count() >= 3]
    if len(cand) < 4:
        return Detection(NONE)
    try:
        for quad in combinations(cand, 4):
            spend()
            w = detect._search_quad(adj, quad, min_total, spend, keep)
            if w is not None:
                return Detection(FOUND, w)
        return Detection(NONE)
    except SearchBudgetExceeded:
        return Detection(BUDGET)
