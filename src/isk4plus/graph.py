"""Immutable bitset graphs over vertex indices 0..n-1.

Vertex sets and adjacency rows are plain Python int bitmasks, so
neighborhood queries reduce to single AND/OR/popcount operations.
Graphs are validated on construction and never mutated; "deletion"
style operations return new graphs plus index maps back to the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_VERTICES = 128


class UsageError(ValueError):
    """An argument outside what an operation accepts.

    The CLI reports it as a usage error; any other ValueError raised
    below the CLI is an internal fault.
    """


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex index."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def lowest_bits(mask: int, k: int) -> int:
    """Mask of the k lowest set bits of mask."""
    out = 0
    for _ in range(k):
        b = mask & -mask
        if not b:
            raise ValueError("mask has fewer than k bits set")
        out |= b
        mask ^= b
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor bitmasks.

    Invariants (checked on construction): adjacency is symmetric and
    irreflexive, and no row has bits at positions >= n.
    """

    n: int
    adj: tuple[int, ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows, expected {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v}: neighbor bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            up = row >> (v + 1) << (v + 1)
            while up:
                b = up & -up
                u = b.bit_length() - 1
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")
                up ^= b

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     label: str | None = None) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), label)


def edge_count(G: Graph) -> int:
    return sum(r.bit_count() for r in G.adj) // 2


def edge_list(G: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, sorted."""
    out = []
    for u, row in enumerate(G.adj):
        up = row >> (u + 1) << (u + 1)
        while up:
            b = up & -up
            out.append((u, b.bit_length() - 1))
            up ^= b
    return out


def _as_mask(G: Graph, members: int | Iterable[int]) -> int:
    m = members if isinstance(members, int) else mask_of(members)
    if m & ~G.vertex_mask:
        raise ValueError("vertex set has bits outside the graph")
    return m


def induced_subgraph(G: Graph, members: int | Iterable[int]
                     ) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertex set.

    Returns (H, vmap) where vmap[i] is the original index of H's vertex i;
    vertices keep their relative order.
    """
    m = _as_mask(G, members)
    vmap = bit_list(m)
    index = {v: i for i, v in enumerate(vmap)}
    rows = []
    for v in vmap:
        row = G.adj[v] & m
        new = 0
        while row:
            b = row & -row
            new |= 1 << index[b.bit_length() - 1]
            row ^= b
        rows.append(new)
    return Graph(len(vmap), tuple(rows), G.label), tuple(vmap)


def components_within(adj: tuple[int, ...], members: int) -> list[int]:
    """Connected components of the subgraph induced on a vertex mask."""
    out = []
    rest = members
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        while frontier:
            reach = 0
            f = frontier
            while f:
                b = f & -f
                reach |= adj[b.bit_length() - 1]
                f ^= b
            frontier = reach & members & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def components(G: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    return components_within(G.adj, G.vertex_mask)


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    return len(components(G)) == 1


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring; colors are 0-based ints indexed by vertex."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, c in enumerate(self.colors):
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"vertex {v} has invalid color {c!r}")

    @property
    def palette_size(self) -> int:
        return 1 + max(self.colors) if self.colors else 0


def coloring_from_map(n: int, mapping: dict[int, int]) -> Coloring:
    """Build a Coloring over vertices 0..n-1 from a vertex->color dict."""
    colors = []
    for v in range(n):
        if v not in mapping:
            raise ValueError(f"vertex {v} is uncolored")
        colors.append(mapping[v])
    return Coloring(tuple(colors))
