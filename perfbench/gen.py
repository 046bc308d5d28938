"""Seeded input generators with ground truth, independent of the package.

Graphs are (n, rows) pairs: rows[v] is the neighbour bitmask of vertex v.
Every generator draws only from the random.Random it is given, so a seed
fixes every input byte.  Nothing here imports isk4plus: a change to the
package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random
from itertools import combinations

MAX_N = 128


def rng_for(workload: str, seed: int) -> random.Random:
    # a str seed is hashed by SHA-512, so it is stable across processes
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# graph6

def graph6(n: int, rows) -> bytes:
    """graph6 record: size header, then the upper triangle column by
    column (x(0,1), x(0,2), x(1,2), ...) in 6-bit groups, each + 63."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n={n} outside 0..{MAX_N}")
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63),
                         63 + (n & 63)])
    group = nbits = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (rows[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out)


# ---------------------------------------------------------------------------
# graph builders

def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


def relabel(graph, rng: random.Random):
    n, rows = graph
    perm = list(range(n))
    rng.shuffle(perm)
    new = [0] * n
    for v in range(n):
        row, acc = rows[v], 0
        for u in range(n):
            if row >> u & 1:
                acc |= 1 << perm[u]
        new[perm[v]] = acc
    return n, tuple(new)


def edges_of(graph) -> list[tuple[int, int]]:
    n, rows = graph
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rows[u] >> v & 1]


def complete_multipartite(sizes) -> tuple[int, tuple[int, ...]]:
    blocks, start = [], 0
    for s in sizes:
        blocks.append(range(start, start + s))
        start += s
    return from_edges(start, [(u, v) for a, b in combinations(blocks, 2)
                              for u in a for v in b])


def planted_clean(rng: random.Random, sizes, n: int):
    """Complete multipartite core with the given part sizes, plus trees
    hung off clique interfaces (at most one core vertex per part) until
    there are n vertices, relabelled.  ISK4+-free by construction: each
    tree root is simplicial towards the core and a cut vertex towards its
    tree, and an induced K4 subdivision is 2-connected with no simplicial
    vertex, so it lies inside the core, which is complete multipartite."""
    core = sum(sizes)
    if core >= n:
        raise ValueError(f"core of {core} leaves no room below n={n}")
    _, rows = complete_multipartite(sizes)
    edges = edges_of((core, rows))
    parts, start = [], 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    nxt = core
    while nxt < n:
        interface = [rng.choice(p) for p in parts if rng.random() < 0.5]
        if not interface:
            interface = [rng.choice(parts[0])]
        root = nxt
        nxt += 1
        edges += [(root, c) for c in interface]
        tree = [root]
        for _ in range(rng.randint(0, 3)):
            if nxt == n:
                break
            edges.append((nxt, rng.choice(tree)))
            tree.append(nxt)
            nxt += 1
    return relabel(from_edges(n, edges), rng)


def chordal(rng: random.Random, n: int, max_clique: int = 4):
    """Random chordal graph: each new vertex is joined to a clique of the
    earlier ones, so the reverse insertion order is a perfect elimination
    ordering.  Chordal graphs have no hole, and every induced K4
    subdivision on >= 5 vertices has one, so these are ISK4+-free."""
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        clique = [u]
        pool = [w for w in range(v) if rows[u] >> w & 1]
        rng.shuffle(pool)
        for w in pool:
            if len(clique) >= max_clique - 1:
                break
            if all(rows[w] >> c & 1 for c in clique):
                clique.append(w)
        for c in clique:
            rows[v] |= 1 << c
            rows[c] |= 1 << v
    return relabel((n, tuple(rows)), rng)


def gnp(rng: random.Random, n: int, p: float):
    return from_edges(n, [e for e in combinations(range(n), 2)
                          if rng.random() < p])


def planted_k44(rng: random.Random, n: int, p: float):
    """Induced K4,4 on 0..7 (no edge is ever added inside it); every other
    pair is an edge with probability p."""
    edges = [(u, v) for u in range(4) for v in range(4, 8)]
    edges += [(u, v) for u, v in combinations(range(n), 2)
              if v >= 8 and rng.random() < p]
    return from_edges(n, edges)


def labeled_graphs(max_n: int):
    """Every labeled graph on 1..max_n vertices, by ascending edge mask
    over the pairs (0,1), (0,2), ..., (n-2,n-1)."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edges(n, [pairs[i] for i in range(len(pairs))
                                 if mask >> i & 1])


# ---------------------------------------------------------------------------
# ground truth

def clique_number(graph) -> int:
    """Maximum clique size by plain branch and bound over bitmasks."""
    n, rows = graph
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            cand ^= b
            expand(size + 1, cand & rows[b.bit_length() - 1])

    expand(0, (1 << n) - 1)
    return best


def proper_violation(graph, colors) -> tuple[int, int] | None:
    """First edge whose endpoints share a color, or None."""
    for u, v in edges_of(graph):
        if colors[u] == colors[v]:
            return u, v
    return None
