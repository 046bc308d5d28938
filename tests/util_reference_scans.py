"""Reference copies of code the library replaced, kept to test against.

find_biclique_subgraph_scan and find_induced_biclique_scan are the K4,4
searches as they were before the second side-A vertex came from a common
neighbor pool: every level scans every later candidate.  Both spend their
nodes through detect._spender, so a test that wraps it counts the nodes of
the library search and of its reference alike.  parse_graph6_bitloop is
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
            b = detect._smallest_stable_subset(adj, common, s, spend)
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
