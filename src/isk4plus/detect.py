"""Pattern detectors and exact oracles.

Covers recognition of K4 subdivisions, search for induced K4 subdivisions
on >= 5 vertices (the K4+ pattern family), K_{s,s} subgraphs, induced
bicliques, the stable-set extraction that upgrades a K_{s,s} to an induced
K4,4 under a clique-number bound, and exact clique/chromatic numbers.

All searches break ties toward the lexicographically smallest candidate,
so every output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, _as_mask, bit_list, lowest_bits

# status values for budget-limited searches
FOUND = "found"
NONE = "none"
BUDGET = "budget"

DEFAULT_NODE_BUDGET = 2_000_000
ORACLE_CEILING = 16

# branch-index pairs in canonical order; witness paths follow this order
PAIR_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget before finishing."""


def _spender(budget: int | None, what: str):
    """One node counter for a whole search: each call spends a node, and
    the call after budget nodes raises SearchBudgetExceeded (None: no
    limit).  Sub-searches share it, so their total stays within budget.
    A negative budget raises ValueError."""
    if budget is not None and budget < 0:
        raise ValueError(f"{what} must be non-negative, got {budget}")
    ticks = budget if budget is not None else -1

    def spend():
        nonlocal ticks
        if ticks > 0:
            ticks -= 1
        elif ticks == 0:
            raise SearchBudgetExceeded(what)

    return spend


class CliquePreconditionError(ValueError):
    """A clique larger than the promised bound was found; carries it."""

    def __init__(self, clique: tuple[int, ...]):
        super().__init__(f"clique {clique} exceeds the stated clique bound")
        self.clique = clique


@dataclass(frozen=True)
class SubdivisionWitness:
    """An induced subdivision of K4 inside a host graph.

    branch holds the four degree-3 vertices in ascending order; paths has
    one vertex sequence per PAIR_SLOTS entry, endpoints included; total is
    the bitmask of all witness vertices.
    """

    branch: tuple[int, int, int, int]
    paths: tuple[tuple[int, ...], ...]
    total: int

    def vertices(self) -> list[int]:
        return bit_list(self.total)


@dataclass(frozen=True)
class Detection:
    """Three-valued search outcome: found (with witness), none, or budget."""

    status: str
    witness: SubdivisionWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


@dataclass(frozen=True)
class BicliqueWitness:
    """Two disjoint sides with all cross edges; induced means both stable."""

    side_a: int
    side_b: int
    induced: bool


def _subset_subdivision(adj, members: int):
    """If the induced subgraph on members is a K4 subdivision, return its
    structure as (branch, pathmap) where pathmap maps branch-index pairs
    to full vertex paths; otherwise None.

    A K4 subdivision is recognized by: all degrees (within members) are 2
    or 3, exactly four vertices have degree 3, the degree-2 chains join the
    four branch vertices in all six pairs exactly once, and there are no
    stray vertices (which also forces connectivity).
    """
    branch = []
    t = members
    size = 0
    while t:
        b = t & -t
        v = b.bit_length() - 1
        t ^= b
        size += 1
        d = (adj[v] & members).bit_count()
        if d == 3:
            branch.append(v)
            if len(branch) > 4:
                return None
        elif d != 2:
            return None
    if len(branch) != 4:
        return None
    bindex = {v: i for i, v in enumerate(branch)}
    bmask = 0
    for v in branch:
        bmask |= 1 << v
    pathmap = {}
    consumed = set()
    covered = 4
    for b in branch:
        nb = adj[b] & members
        while nb:
            wbit = nb & -nb
            nb ^= wbit
            w = wbit.bit_length() - 1
            if (b, w) in consumed:
                continue
            prev, cur = b, w
            interior = []
            while not (bmask >> cur) & 1:
                interior.append(cur)
                step = adj[cur] & members & ~(1 << prev)
                prev, cur = cur, step.bit_length() - 1
            if cur == b:
                return None
            consumed.add((b, w))
            consumed.add((cur, prev))
            i, j = bindex[b], bindex[cur]
            key = (i, j) if i < j else (j, i)
            if key in pathmap:
                return None
            if i < j:
                pathmap[key] = (b, *interior, cur)
            else:
                pathmap[key] = (cur, *reversed(interior), b)
            covered += len(interior)
    if len(pathmap) != 6 or covered != size:
        return None
    return tuple(branch), pathmap


def witness_from_subset(G: Graph, members: int,
                        min_total: int = 5) -> SubdivisionWitness | None:
    """Build a witness if G restricted to members is a K4 subdivision on
    at least min_total vertices."""
    if members.bit_count() < min_total:
        return None
    res = _subset_subdivision(G.adj, members)
    if res is None:
        return None
    branch, pathmap = res
    paths = tuple(pathmap[slot] for slot in PAIR_SLOTS)
    return SubdivisionWitness(branch, paths, members)


def verify_subdivision_witness(G: Graph, w: SubdivisionWitness,
                               min_total: int = 5) -> bool:
    """Independent re-verification of every witness invariant against G."""
    adj = G.adj
    n = G.n
    if len(w.branch) != 4 or len(set(w.branch)) != 4:
        return False
    if any(not 0 <= v < n for v in w.branch):
        return False
    if len(w.paths) != 6:
        return False
    bmask = 0
    for v in w.branch:
        bmask |= 1 << v
    total = bmask
    seen_interior = 0
    expected = {v: 0 for v in w.branch}
    for slot, path in zip(PAIR_SLOTS, w.paths):
        x, y = w.branch[slot[0]], w.branch[slot[1]]
        if len(path) < 2 or path[0] != x or path[-1] != y:
            return False
        for a, b in zip(path, path[1:]):
            if not (adj[a] >> b) & 1:
                return False
            expected[a] = expected.get(a, 0) | (1 << b)
            expected[b] = expected.get(b, 0) | (1 << a)
        for u in path[1:-1]:
            ub = 1 << u
            if ub & (bmask | seen_interior):
                return False
            seen_interior |= ub
            total |= ub
    if total != w.total or total.bit_count() < min_total:
        return False
    # the witness must be induced: inside its vertex set, G has exactly
    # the path edges, which also pins branch degrees to 3 and the rest to 2
    for v, want in expected.items():
        if adj[v] & total != want:
            return False
        d = want.bit_count()
        if (bmask >> v) & 1:
            if d != 3:
                return False
        elif d != 2:
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive subset oracle

def find_isk4plus_oracle(G: Graph, *, min_total: int = 5
                         ) -> SubdivisionWitness | None:
    """Ground-truth search: enumerate vertex subsets ascending by bitmask
    value and return a witness for the first subset inducing a K4
    subdivision on >= min_total vertices."""
    n = G.n
    if n > ORACLE_CEILING:
        raise ValueError(f"oracle ceiling exceeded: {n} > {ORACLE_CEILING}")
    if n < min_total:
        return None
    return _ordered_subsets(G, n - 1, 0, 0, 0, min_total)


def _ordered_subsets(G: Graph, v: int, chosen: int, size: int, threes: int,
                     min_total: int) -> SubdivisionWitness | None:
    """The oracle's answer among the subsets that extend chosen (a set of
    vertices above v, size of them, threes of degree 3 inside chosen) by
    vertices 0..v, when size + v + 1 >= min_total.

    Vertex v is left out before it is put in, so from the highest vertex
    down this visits subsets in ascending mask order.  A branch is cut when
    a chosen vertex has more than 3 chosen neighbors, a chosen vertex cannot
    reach 2 even with every undecided neighbor, more than four chosen
    vertices have degree 3, or too few vertices are left to reach
    min_total.  Induced degrees only grow as vertices are added, so no cut
    drops a subset whose degrees are all 2 or 3 with at most four 3s, and
    the first witness is the plain enumeration's.
    """
    if v < 0:
        # a K4 subdivision has exactly four vertices of degree 3
        if threes != 4:
            return None
        return witness_from_subset(G, chosen, min_total)
    adj = G.adj
    low = (1 << v) - 1
    reach = chosen | low
    nb = adj[v] & chosen
    if size + v >= min_total:
        # out: v's chosen neighbors lose v as a possible neighbor
        t = nb
        while t:
            b = t & -t
            if (adj[b.bit_length() - 1] & reach).bit_count() < 2:
                break
            t ^= b
        else:
            w = _ordered_subsets(G, v - 1, chosen, size, threes, min_total)
            if w is not None:
                return w
    # in: v and its chosen neighbors gain a neighbor each
    d = nb.bit_count()
    if d > 3 or (adj[v] & reach).bit_count() < 2:
        return None
    if d == 3:
        threes += 1
    chosen |= 1 << v
    t = nb
    while t:
        b = t & -t
        du = (adj[b.bit_length() - 1] & chosen).bit_count()
        if du == 3:
            threes += 1
        elif du > 3:
            return None
        t ^= b
    if threes > 4:
        return None
    return _ordered_subsets(G, v - 1, chosen, size + 1, threes, min_total)


# ---------------------------------------------------------------------------
# direct branch-vertex search

def find_isk4plus(G: Graph, *, budget: int | None = DEFAULT_NODE_BUDGET,
                  min_total: int = 5) -> Detection:
    """Search for an induced K4 subdivision on >= min_total vertices.

    For min_total > 4 it first peels simplicial vertices (those whose
    neighborhood is a clique) until none is left.  No such vertex lies in
    a witness on >= 5 vertices: an interior path vertex with adjacent
    neighbors would close a chord or a second path, and a branch vertex
    with pairwise adjacent neighbors would make the witness contain K4 and
    so be K4 itself.  Deleting a vertex keeps every other simplicial vertex
    simplicial, so the peel stays exact all the way down.  Chordal graphs
    peel to nothing and prove "none" without spending a node.  K4 itself is
    all simplicial, so min_total = 4 searches every vertex.

    Also for min_total > 4, it next caps each twin class of the peeled
    graph at its two lowest members (see _cap_twins) and searches only the
    capped graph.  The first witness of the peeled graph lies in the capped
    one, so the answer, witness included, is the one the uncapped search
    returns.

    The search enumerates ordered 4-sets of kept branch vertices with
    at least 3 kept neighbors and grows the six connecting paths
    shortest-first with full backtracking, rejecting any chord against
    already placed witness vertices.  Each path draws only on the kept
    vertices that a BFS from one endpoint reaches through vertices adjacent
    to no other placed vertex.  Neither cut removes a branch that could
    succeed, so the first witness is the one the full search would find.
    Existence verdicts match the subset oracle; the returned witness may
    differ.  Exhausting the node budget yields status "budget", never a
    wrong verdict.
    """
    spend = _spender(budget, "detector search budget")
    n = G.n
    adj = G.adj
    if n < min_total or n < 4:
        return Detection(NONE)
    keep = G.vertex_mask
    if min_total > 4:
        keep = _cap_twins(adj, _peel_simplicial(adj, keep))
    cand = [v for v in bit_list(keep) if (adj[v] & keep).bit_count() >= 3]
    if len(cand) < 4:
        return Detection(NONE)
    try:
        for quad in combinations(cand, 4):
            spend()
            w = _search_quad(adj, quad, min_total, spend, keep)
            if w is not None:
                return Detection(FOUND, w)
        return Detection(NONE)
    except SearchBudgetExceeded:
        return Detection(BUDGET)


def _peel_simplicial(adj, alive: int) -> int:
    """Delete simplicial vertices of the subgraph induced on alive until
    none is left; returns the kept mask.  Deleting v can only make its
    neighbors simplicial, so only they go back on the worklist."""
    work = alive
    while work:
        b = work & -work
        work ^= b
        nb = adj[b.bit_length() - 1] & alive
        t = nb
        while t:
            u = t & -t
            t ^= u
            if nb & ~adj[u.bit_length() - 1] & ~u:
                break
        else:
            alive ^= b
            work |= nb
    return alive


def _cap_twins(adj, alive: int) -> int:
    """Keep the two lowest members of each twin class of the subgraph
    induced on alive; returns the kept mask.

    False twins are non-adjacent with equal neighborhoods, true twins
    adjacent with equal closed neighborhoods.  A witness on >= 5 vertices
    holds at most two of a class: three false twins would join two branch
    vertices by three paths or be three branch vertices with three common
    branch neighbors, and three true twins would make the witness a
    triangle or K4 (degrees are at most 3, and the three share their other
    neighbors).  Swapping a witness vertex for an unused twin keeps it
    induced, so a witness exists in alive iff one exists in the kept mask.

    The first witness of find_isk4plus survives too.  It takes the first
    branch quad in lexicographic order that has a witness, and for that
    quad the witness whose paths, pair by pair, are least by (length,
    vertex sequence); neither order depends on the mask.  If the first
    witness used a deleted vertex v, one of the two lower kept twins of v
    would be unused, and swapping it in would give a witness on an earlier
    quad (v a branch vertex) or with a smaller path (v interior).

    One table serves both kinds: an open neighborhood never equals a
    closed one, and no vertex has both a false and a true twin.  Every row
    is taken within alive, not within the shrinking kept mask, so that
    deleting a vertex does not split the classes seen after it.
    """
    seen: dict[int, int] = {}
    kept = alive
    t = alive
    while t:
        b = t & -t
        t ^= b
        row = adj[b.bit_length() - 1] & alive
        for key in (row, row | b):
            count = seen.get(key, 0) + 1
            seen[key] = count
            if count > 2:
                kept &= ~b
    return kept


def _search_quad(adj, quad, min_total, spend, keep):
    qmask = 0
    for v in quad:
        qmask |= 1 << v
    direct = []
    open_pairs = []
    for i, j in PAIR_SLOTS:
        x, y = quad[i], quad[j]
        if (adj[x] >> y) & 1:
            direct.append((i, j))
        else:
            open_pairs.append((i, j))
    if not open_pairs:
        if min_total > 4:
            return None
        # the quad induces K4 itself
        paths = tuple((quad[i], quad[j]) for i, j in PAIR_SLOTS)
        return SubdivisionWitness(quad, paths, qmask)

    grown: dict[tuple[int, int], tuple[int, ...]] = {}

    def place(k: int, placed: int) -> bool:
        if k == len(open_pairs):
            return True
        i, j = open_pairs[k]
        x, y = quad[i], quad[j]
        xbit, ybit = 1 << x, 1 << y
        # interiors may touch only their own endpoints among placed vertices;
        # blocked ORs the few placed rows instead of scanning free vertices
        blocked = placed
        t = placed & ~xbit & ~ybit
        while t:
            b = t & -t
            t ^= b
            blocked |= adj[b.bit_length() - 1]
        usable = keep & ~blocked
        # BFS from x through usable.  Every valid interior lies in reached,
        # and a shortest x-y path through usable is induced, so the first
        # level whose frontier meets N(y) is the least feasible limit.
        ay = adj[y]
        reached = 0
        frontier = xbit
        level = 0
        shortest = 0
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & usable & ~reached
            reached |= frontier
            level += 1
            if not shortest and frontier & ay:
                shortest = level
        if not shortest:
            return False

        def extend(prev: int, depth: int, pathmask: int,
                   acc: tuple[int, ...], limit: int) -> bool:
            prevbit = 1 << prev
            pool = adj[prev] & reached & ~pathmask
            while pool:
                wbit = pool & -pool
                pool ^= wbit
                spend()
                w = wbit.bit_length() - 1
                aw = adj[w]
                if depth > 1 and aw & xbit:
                    continue
                if aw & (pathmask & ~prevbit):
                    continue
                closes = bool(aw & ybit)
                if depth == limit:
                    if closes:
                        grown[(i, j)] = (x, *acc, w, y)
                        if place(k + 1, placed | pathmask | wbit):
                            return True
                        del grown[(i, j)]
                elif not closes:
                    if extend(w, depth + 1, pathmask | wbit, acc + (w,),
                              limit):
                        return True
            return False

        for limit in range(shortest, reached.bit_count() + 1):
            if extend(x, 1, 0, (), limit):
                return True
        return False

    if not place(0, qmask):
        return None
    pathmap = {}
    for i, j in direct:
        pathmap[(i, j)] = (quad[i], quad[j])
    total = qmask
    for key, path in grown.items():
        pathmap[key] = path
        for u in path[1:-1]:
            total |= 1 << u
    paths = tuple(pathmap[slot] for slot in PAIR_SLOTS)
    return SubdivisionWitness(quad, paths, total)


# ---------------------------------------------------------------------------
# bicliques

def _members_of(G: Graph, members: int | None) -> int:
    """The vertex mask a search runs on: all of G when members is None."""
    return G.vertex_mask if members is None else _as_mask(G, members)


def _validate_sides(G: Graph, side_a: int, side_b: int) -> None:
    if side_a & side_b:
        raise ValueError("biclique sides overlap")
    if (side_a | side_b) & ~G.vertex_mask:
        raise ValueError("biclique side outside the graph")
    for a in bit_list(side_a):
        if G.adj[a] & side_b != side_b:
            raise ValueError(f"vertex {a} misses part of the far side")


def find_biclique_subgraph(G: Graph, s: int, *, members: int | None = None
                           ) -> BicliqueWitness | None:
    """Smallest K_{s,s} subgraph (sides need not be stable), or None.

    Side A is grown vertex by vertex in ascending order while intersecting
    the common neighborhood; side B is the lexicographically least s-subset
    of the final common neighborhood.  members restricts the search to the
    subgraph induced on that vertex mask (default: all of G).
    """
    if s < 1:
        raise ValueError("s must be positive")
    members = _members_of(G, members)
    adj = G.adj
    cand = [v for v in range(G.n)
            if (members >> v) & 1 and (adj[v] & members).bit_count() >= s]
    if len(cand) < s:
        return None

    def grow(start: int, chosen: int, k: int, common: int):
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
    a, b = hit
    return BicliqueWitness(a, b, induced=False)


def _smallest_stable_subset(adj, pool: int, s: int,
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


def find_induced_biclique(G: Graph, s: int, budget: int | None = None, *,
                          members: int | None = None
                          ) -> BicliqueWitness | None:
    """Smallest induced K_{s,s}: both sides stable, all cross edges present.

    An optional node budget raises SearchBudgetExceeded when exhausted.
    members restricts the search to the subgraph induced on that vertex
    mask (default: all of G); the search visits the same nodes as on that
    induced subgraph, and the sides are in G's indices.
    """
    if s < 1:
        raise ValueError("s must be positive")
    spend = _spender(budget, "induced biclique search budget")
    members = _members_of(G, members)
    adj = G.adj
    if members.bit_count() < 2 * s:
        return None
    cand = [v for v in range(G.n)
            if (members >> v) & 1 and (adj[v] & members).bit_count() >= s]
    if len(cand) < 2 * s:
        return None

    def grow(start: int, chosen: int, k: int, common: int, stable_pool: int):
        if k == s:
            b = _smallest_stable_subset(adj, common, s, spend)
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
    a, b = hit
    return BicliqueWitness(a, b, induced=True)


def ramsey_extract_k44(G: Graph, w: BicliqueWitness,
                       k: int) -> BicliqueWitness | None:
    """Upgrade a K_{s,s} subgraph to an induced K4,4 under clique bound k.

    Searches each side for a stable 4-subset; cross edges are inherited.
    If a side has no stable 4-set but holds a k-clique, the clique bound is
    violated (that clique plus any far-side vertex is a (k+1)-clique) and a
    CliquePreconditionError carrying the clique is raised.  Returns None
    when a side simply has no stable 4-set and no clique evidence, which
    can happen for sides smaller than the relevant Ramsey number.
    """
    if k < 1:
        raise ValueError("clique bound must be positive")
    _validate_sides(G, w.side_a, w.side_b)
    if w.side_a.bit_count() < 4 or w.side_b.bit_count() < 4:
        raise ValueError("seed sides must have at least 4 vertices")
    adj = G.adj
    picked = []
    for side, other in ((w.side_a, w.side_b), (w.side_b, w.side_a)):
        stable = _smallest_stable_subset(adj, side, 4)
        if stable is None:
            size, clique = _max_clique_in(adj, side)
            if size >= k + 1:
                raise CliquePreconditionError(tuple(bit_list(
                    lowest_bits(clique, k + 1))))
            if size == k:
                extra = other & -other
                raise CliquePreconditionError(tuple(sorted(
                    bit_list(clique) + [extra.bit_length() - 1])))
            return None
        picked.append(stable)
    out = BicliqueWitness(picked[0], picked[1], induced=True)
    _validate_sides(G, out.side_a, out.side_b)
    return out


# ---------------------------------------------------------------------------
# exact clique and chromatic numbers

def _max_clique_in(adj, pool: int, spend=None) -> tuple[int, int]:
    """Exact maximum clique within a vertex mask: (size, clique mask).

    Pivoting branch and bound on bitmask adjacency; spend, if given, is
    charged one node per branch.
    """
    best_size = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, P: int):
        nonlocal best_size, best_mask
        if spend is not None:
            spend()
        if not P:
            if rsize > best_size:
                best_size = rsize
                best_mask = rmask
            return
        if rsize + P.bit_count() <= best_size:
            return
        # pivot: vertex of P covering most of P
        pivot = -1
        cover = -1
        t = P
        while t:
            b = t & -t
            t ^= b
            u = b.bit_length() - 1
            c = (adj[u] & P).bit_count()
            if c > cover:
                cover = c
                pivot = u
        ext = P & ~adj[pivot]
        while ext:
            vbit = ext & -ext
            ext ^= vbit
            v = vbit.bit_length() - 1
            expand(rmask | vbit, rsize + 1, P & adj[v])
            P ^= vbit
            if rsize + P.bit_count() <= best_size:
                return

    expand(0, 0, pool)
    return best_size, best_mask


def clique_number(G: Graph, *, budget: int | None = None) -> int:
    """Exact clique number; raises SearchBudgetExceeded past the budget."""
    size, _ = _max_clique_in(G.adj, G.vertex_mask,
                             _spender(budget, "clique search budget"))
    return size


def _dsatur_order_color(adj, n: int) -> tuple[int, list[int]]:
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


def _k_colorable(adj, n: int, k: int, spend) -> bool:
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


def chromatic_number_exact(G: Graph, *, budget: int | None = None,
                           omega: int | None = None) -> int:
    """Exact chromatic number by branch and bound between the clique lower
    bound and the DSATUR greedy upper bound.  Both searches share one
    node budget.  A caller that already knows the clique number passes it
    as omega, and the clique search is skipped."""
    n = G.n
    if n == 0:
        return 0
    adj = G.adj
    spend = _spender(budget, "chromatic search budget")
    if omega is None:
        lb, _ = _max_clique_in(adj, G.vertex_mask, spend)
    else:
        lb = omega
    ub, _ = _dsatur_order_color(adj, n)

    for k in range(lb, ub):
        if _k_colorable(adj, n, k, spend):
            return k
    return ub
