"""Enumeration and sampling campaigns over small graphs.

Provides the labeled enumerator, fixture and random graph generators
(including planted complete multipartite cores with attachments), the
hereditary-class filters, and three campaigns: the chi-versus-omega
survey, the structural claim verification run, and the cited chromatic
bound checks.  Campaign aggregation is deterministic for a fixed seed and
independent of the worker count.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from itertools import combinations

from . import detect, structure
from .formats import iter_graph6_lines, write_graph6
from .graph import MAX_VERTICES, Graph, UsageError, graph_from_edges

ENUMERATION_CEILING = 7

FILTER_NAMES = ("isk4p-free", "isk4-free", "triangle-free")


def pair_index_list(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in the fixed order backing edge bitmasks."""
    return list(combinations(range(n), 2))


def graph_from_edge_mask(n: int, mask: int,
                         pairs: list[tuple[int, int]] | None = None) -> Graph:
    """Graph whose edge set is the given bitmask over pair_index_list(n)."""
    if pairs is None:
        pairs = pair_index_list(n)
    rows = [0] * n
    while mask:
        b = mask & -mask
        mask ^= b
        u, v = pairs[b.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def enumerate_labeled(n: int):
    """All labeled graphs on n vertices, ascending by edge bitmask."""
    if n > ENUMERATION_CEILING:
        raise ValueError(
            f"labeled enumeration capped at n <= {ENUMERATION_CEILING}")
    pairs = pair_index_list(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_edge_mask(n, mask, pairs)


# ---------------------------------------------------------------------------
# fixture generators

def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(*sizes: int) -> Graph:
    """Complete multipartite graph with consecutive index blocks as parts."""
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = []
    for i, pa in enumerate(bounds):
        for pb in bounds[i + 1:]:
            edges.extend((u, v) for u in pa for v in pb)
    return graph_from_edges(start, edges)


def k4_plus_graph() -> Graph:
    """K4 with one edge subdivided once: branch 0,1,2,3 and path 0-4-1."""
    return graph_from_edges(
        5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# random models

def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_triangle_free_graph(n: int, rng: random.Random,
                               tries_factor: int = 3) -> Graph:
    """Greedy triangle-free edge process: insert shuffled candidate pairs,
    skipping any that would close a triangle."""
    rows = [0] * n
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    budgeted = pairs[: tries_factor * n]
    edges = []
    for u, v in budgeted:
        if rows[u] & rows[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        edges.append((u, v))
    return graph_from_edges(n, edges)


def planted_k44_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph guaranteed to contain an induced K4,4 on 0..7: no edges
    are ever added inside the core, everything else is independent with
    probability p."""
    if n < 8:
        raise ValueError("need at least 8 vertices for the K4,4 core")
    edges = [(u, v) for u in range(4) for v in range(4, 8)]
    for u, v in combinations(range(n), 2):
        if u < 8 and v < 8:
            continue
        if rng.random() < p:
            edges.append((u, v))
    return graph_from_edges(n, edges)


def _random_core_sizes(rng: random.Random) -> list[int]:
    t = rng.randint(2, 4)
    sizes = [rng.randint(4, 5), rng.randint(4, 5)]
    sizes += [rng.randint(1, 4) for _ in range(t - 2)]
    return sizes


def planted_structured_graph(rng: random.Random,
                             kind: str = "clean") -> Graph:
    """Complete multipartite core plus attachments.

    kind "clean" attaches trees through clique interfaces (one core vertex
    per part at most), which keeps every structural claim satisfied.  The
    "claim1", "claim2", and "claim3" kinds attach a deliberate violation
    of the corresponding claim.
    """
    sizes = _random_core_sizes(rng)
    core = complete_multipartite(*sizes)
    n0 = core.n
    parts = []
    start = 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    edges = [(u, v) for u, v in combinations(range(n0), 2)
             if (core.adj[u] >> v) & 1]
    extra = n0

    def attach_tree():
        nonlocal extra
        interface = [rng.choice(p) for p in parts if rng.random() < 0.5]
        if not interface:
            interface = [rng.choice(parts[0])]
        root = extra
        extra += 1
        for c in interface:
            edges.append((root, c))
        tree = [root]
        for _ in range(rng.randint(0, 3)):
            node = extra
            extra += 1
            edges.append((node, rng.choice(tree)))
            tree.append(node)

    if kind == "clean":
        for _ in range(rng.randint(1, 3)):
            attach_tree()
    elif kind == "claim1":
        big = parts[0]
        other = parts[1]
        v = extra
        extra += 1
        edges.append((v, big[0]))
        edges.append((v, big[1]))
        edges.append((v, other[0]))  # mixed to the second part
    elif kind == "claim2":
        big = parts[0]
        v = extra
        extra += 1
        edges.append((v, big[0]))
        edges.append((v, big[1]))  # anticomplete to every other part
    elif kind == "claim3":
        big = parts[0]
        x, y = extra, extra + 1
        extra += 2
        edges.extend([(big[0], x), (x, y), (y, big[1])])
    else:
        raise ValueError(f"unknown planted kind {kind!r}")
    return graph_from_edges(extra, edges)


# ---------------------------------------------------------------------------
# hereditary filters

def has_triangle(G: Graph) -> bool:
    adj = G.adj
    for u in range(G.n):
        row = adj[u] >> (u + 1) << (u + 1)
        while row:
            b = row & -row
            row ^= b
            if adj[u] & adj[b.bit_length() - 1]:
                return True
    return False


def passes_filters(G: Graph, filters: tuple[str, ...],
                   budget: int | None) -> tuple[bool, bool]:
    """(passes, budget_hit).  A budgeted-out detector excludes the graph
    and flags the run instead of guessing."""
    for f in filters:
        if f == "triangle-free":
            if has_triangle(G):
                return False, False
        elif f in ("isk4p-free", "isk4-free"):
            det = detect.find_isk4plus(
                G, budget=budget, min_total=5 if f == "isk4p-free" else 4)
            if det.status == detect.BUDGET:
                return False, True
            if det.found:
                return False, False
        else:
            raise ValueError(f"unknown filter {f!r}")
    return True, False


# ---------------------------------------------------------------------------
# campaign plumbing

@dataclass
class CampaignConfig:
    source: str = "enumerate"  # enumerate | graph6 | gnp | triangle-free |
                               # planted | k44-random
    path: str | None = None
    lines: list[bytes | str] | None = None  # pre-read graph6 lines (stdin)
    max_n: int = 5
    min_n: int = 1
    count: int = 100
    p: float = 0.5
    seed: int = 0
    filters: tuple[str, ...] = ()
    jobs: int = 1
    budget: int | None = detect.DEFAULT_NODE_BUDGET

    def validate(self) -> None:
        if self.source == "enumerate" and self.max_n > ENUMERATION_CEILING:
            raise UsageError(
                f"enumeration source capped at n <= {ENUMERATION_CEILING}")
        if self.source in ("gnp", "triangle-free", "k44-random") and \
                not 0 <= self.min_n <= self.max_n <= MAX_VERTICES:
            raise UsageError(
                f"random sources need 0 <= min_n <= max_n <= {MAX_VERTICES}")
        for f in self.filters:
            if f not in FILTER_NAMES:
                raise UsageError(f"unknown filter {f!r}")


def iter_config_graphs(cfg: CampaignConfig):
    """Deterministic graph stream described by the config."""
    if cfg.source == "enumerate":
        for n in range(cfg.min_n, cfg.max_n + 1):
            yield from enumerate_labeled(n)
    elif cfg.source == "graph6":
        if cfg.lines is not None:
            for _, g in iter_graph6_lines(cfg.lines):
                yield g
        else:
            with open(cfg.path, "rb") as fh:
                for _, g in iter_graph6_lines(fh):
                    yield g
    elif cfg.source == "gnp":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.count):
            n = rng.randint(cfg.min_n, cfg.max_n)
            yield gnp_graph(n, cfg.p, rng)
    elif cfg.source == "triangle-free":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.count):
            n = rng.randint(cfg.min_n, cfg.max_n)
            # span sparse through near-maximal triangle-free graphs
            yield random_triangle_free_graph(n, rng,
                                             tries_factor=rng.randint(1, 3))
    elif cfg.source == "planted":
        rng = random.Random(cfg.seed)
        kinds = ("clean", "clean", "claim1", "claim2", "claim3")
        for _ in range(cfg.count):
            yield planted_structured_graph(rng, rng.choice(kinds))
    elif cfg.source == "k44-random":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.count):
            n = rng.randint(max(cfg.min_n, 8), max(cfg.max_n, 8))
            yield planted_k44_graph(n, cfg.p, rng)
    else:
        raise ValueError(f"unknown source {cfg.source!r}")


def _graph6_text(G: Graph) -> str:
    """The graph6 record a report prints for G."""
    return write_graph6(G).decode("ascii")


def _map_tasks(jobs: int, fn, tasks):
    if jobs <= 1:
        for t in tasks:
            yield fn(t)
    else:
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(fn, tasks, chunksize=16)


# ---------------------------------------------------------------------------
# survey campaign

@dataclass
class SurveyRow:
    n: int
    omega: int
    max_chi_observed: int
    count_graphs: int
    example_graph6: str


def _survey_task(args) -> tuple[bool, bool, int, int, Graph | None]:
    G, filters, budget = args
    passed, budget_hit = passes_filters(G, filters, budget)
    if not passed:
        return False, budget_hit, 0, 0, None
    omega = detect.clique_number(G)
    chi = detect.chromatic_number_exact(G, omega=omega)
    return True, False, omega, chi, G


def survey_chi_vs_omega(cfg: CampaignConfig
                        ) -> tuple[list[SurveyRow], dict]:
    """Bucket filtered graphs by (n, omega) and track the largest exact
    chromatic number seen, with one witness record per bucket."""
    cfg.validate()
    tasks = ((G, cfg.filters, cfg.budget) for G in iter_config_graphs(cfg))
    buckets: dict[tuple[int, int], list] = {}
    stats = {"graphs": 0, "passed": 0, "budget_hits": 0}
    for passed, budget_hit, omega, chi, G in _map_tasks(
            cfg.jobs, _survey_task, tasks):
        stats["graphs"] += 1
        if budget_hit:
            stats["budget_hits"] += 1
            continue
        if not passed:
            continue
        stats["passed"] += 1
        key = (G.n, omega)
        row = buckets.get(key)
        if row is None:
            buckets[key] = [chi, 1, G]
        else:
            row[1] += 1
            if chi > row[0]:
                row[0] = chi
                row[2] = G
    rows = [SurveyRow(n, omega, chi, count, _graph6_text(G))
            for (n, omega), (chi, count, G) in sorted(buckets.items())]
    return rows, stats


SURVEY_COLUMNS = ("n", "omega", "max_chi_observed", "count_graphs",
                  "example_graph6")


def survey_to_csv(rows: list[SurveyRow]) -> str:
    lines = [",".join(SURVEY_COLUMNS)]
    for r in rows:
        lines.append(f"{r.n},{r.omega},{r.max_chi_observed},"
                     f"{r.count_graphs},{r.example_graph6}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# claims campaign

def _claims_task(args) -> dict:
    G, budget = args
    out = {"graph": G, "status": "", "claim": 0, "errors": []}
    seed = detect.find_induced_biclique(G, 4)
    if seed is None:
        out["status"] = "no-k44"
        return out
    M = structure.grow_maximal_multipartite(G, seed)
    violation = structure.check_claim1(G, M)
    if violation is None:
        res2 = structure.check_claim2(G, M)
        if isinstance(res2, structure.MaximalityBreach):
            out["status"] = "breach"
            out["errors"].append(
                f"maximality breach at {res2.vertex} on a grown M")
            return out
        violation = res2
    if violation is None:
        violation = structure.check_claim3(G, M)
    if violation is not None:
        out["status"] = "violation"
        out["claim"] = violation.claim_id
        if not detect.verify_subdivision_witness(G, violation.constructed):
            out["errors"].append("violation witness failed verification")
        det = detect.find_isk4plus(G, budget=budget)
        if det.status == detect.BUDGET:
            out["status"] = "budget"
        elif not det.found:
            out["errors"].append(
                "claim violation but the detector found no subdivision")
        elif not detect.verify_subdivision_witness(G, det.witness):
            out["errors"].append("detector witness failed verification")
        return out
    # all claims hold
    out["status"] = "claims-ok"
    if M.members != G.vertex_mask:
        try:
            split = structure.find_structural_cutset(G, M)
        except structure.NotACliqueError as exc:
            out["errors"].append(
                f"claims pass but the cutset is not a clique: {exc.pair}")
            return out
        if split is None:
            out["errors"].append("cutset missing despite outside vertices")
            return out
        if (not split.component
                or split.component | split.clique == G.vertex_mask):
            out["errors"].append("cutset split failed to shrink the graph")
        out["split"] = True
    det = detect.find_isk4plus(G, budget=budget)
    if det.status == detect.BUDGET:
        out["status"] = "budget"
    elif not det.found and G.n <= detect.ORACLE_CEILING:
        # class membership confirmed by the subset oracle
        if detect.find_isk4plus_oracle(G) is not None:
            out["errors"].append("detector and oracle verdicts disagree")
        else:
            out["free"] = True
    return out


def verify_claims_campaign(cfg: CampaignConfig) -> dict:
    """Run the three structural checks over every streamed graph holding an
    induced K4,4 and tally the contrapositive consistency results."""
    cfg.validate()
    tasks = ((G, cfg.budget) for G in iter_config_graphs(cfg))
    report = {
        "graphs": 0,
        "no_k44": 0,
        "claims_ok": 0,
        "violations": {"1": 0, "2": 0, "3": 0},
        "breaches": 0,
        "splits": 0,
        "free_confirmed": 0,
        "budget_hits": 0,
        "consistency_failures": [],
    }
    for rec in _map_tasks(cfg.jobs, _claims_task, tasks):
        report["graphs"] += 1
        status = rec["status"]
        if status == "no-k44":
            report["no_k44"] += 1
        elif status == "violation":
            report["violations"][str(rec["claim"])] += 1
        elif status == "claims-ok":
            report["claims_ok"] += 1
            if rec.get("split"):
                report["splits"] += 1
            if rec.get("free"):
                report["free_confirmed"] += 1
        elif status == "breach":
            report["breaches"] += 1
        elif status == "budget":
            report["budget_hits"] += 1
        for err in rec["errors"]:
            report["consistency_failures"].append(
                {"graph6": _graph6_text(rec["graph"]), "reason": err})
    return report


# ---------------------------------------------------------------------------
# cited bound checks

def check_cited_bounds(cfg: CampaignConfig) -> dict:
    """Assert the known chromatic bounds on every graph passing the filter:
    3 colors when triangles are excluded as well, 24 otherwise."""
    cfg.validate()
    if "isk4-free" not in cfg.filters:
        raise ValueError("cited bounds apply to the isk4-free filter")
    bound = 3 if "triangle-free" in cfg.filters else 24
    tasks = ((G, cfg.filters, cfg.budget) for G in iter_config_graphs(cfg))
    report = {
        "bound": bound,
        "filters": list(cfg.filters),
        "graphs": 0,
        "checked": 0,
        "max_chi": 0,
        "max_chi_graph6": "",
        "budget_hits": 0,
        "violations": [],
    }
    for passed, budget_hit, _, chi, G in _map_tasks(
            cfg.jobs, _survey_task, tasks):
        report["graphs"] += 1
        if budget_hit:
            report["budget_hits"] += 1
            continue
        if not passed:
            continue
        report["checked"] += 1
        if chi > report["max_chi"]:
            report["max_chi"] = chi
            report["max_chi_graph6"] = _graph6_text(G)
        if chi > bound:
            report["violations"].append(
                {"graph6": _graph6_text(G), "chi": chi})
    return report

