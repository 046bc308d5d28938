"""Self-tests of the benchmark: percentile rule, self-time arithmetic,
seeded generators, and the metric list in BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(19) is None
    assert run.highest_percentile(20) == 50.0
    assert run.highest_percentile(99) == 50.0
    assert run.highest_percentile(100) == 90.0
    assert run.highest_percentile(999) == 90.0
    assert run.highest_percentile(1000) == 99.0
    assert run.highest_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1, 2, 3], 50) == 2


def test_self_time_subtracts_covered_child_time():
    # root [0,10] holds a [1,3] and b [4,8]; b holds c [5,6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == [4.0, 2.0, 3.0, 1.0]
    assert sum(selfs) == end[0] - start[0]


def test_self_time_clips_overlapping_children():
    # a child spilling past its parent only covers the overlap
    selfs = tracing.self_times([0.0, 1.0, 2.0], [4.0, 3.0, 6.0], [-1, 0, 0])
    assert selfs[0] == 1.0


def test_tracer_spans_add_up_to_request_time(tmp_path):
    from isk4plus import cli
    src = tmp_path / "k.g6"
    src.write_bytes(gen.graph6(*gen.complete_multipartite([2, 2, 2]))
                    + b"\n")
    out = tmp_path / "o.json"
    req = {"argv": ["detect", str(src), "--output", str(out)],
           "output": str(out)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the worker, as a traced run calls it
        _, code, _, _ = worker._run(cli, req, tracer, 0)
    finally:
        tracer.uninstall()
    assert code == 0
    assert not hasattr(cli.main, "__wrapped__")
    names = [tracer.names[i] for i in tracer.name]
    assert {"cli.main", "formats.parse_graph6", "graph.Graph",
            "detect.find_isk4plus"} <= set(names)
    tag = tracer.tags[tracer.tag[names.index("detect.find_isk4plus")]]
    assert tag == "none"
    span = names.index("request")
    wall = tracer.end[span] - tracer.start[span]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert abs(sum(selfs) - wall) < 1e-9


def test_graph6_matches_the_package_writer():
    from isk4plus import formats
    rng = random.Random(3)
    for n in (0, 1, 5, 62, 63, 100, 128):
        g = gen.gnp(rng, n, 0.3)
        G = formats.parse_graph6(gen.graph6(*g))
        assert G.adj == g[1]
        assert formats.write_graph6(G) == gen.graph6(*g)


def test_generators_are_deterministic_per_seed(tmp_path):
    for name in workloads.BUILDERS:
        digests = []
        for run_id, seed in enumerate((5, 5, 6)):
            d = tmp_path / f"{name}-{run_id}"
            d.mkdir()
            wl = workloads.BUILDERS[name](seed, d, d / "out")
            digests.append(wl.input_digest)
        assert digests[0] == digests[1], name
        assert digests[0] != digests[2], name


def test_constructions_are_isk4plus_free():
    from isk4plus import detect, formats
    rng = random.Random(11)
    graphs = [gen.chordal(rng, 12) for _ in range(5)]
    graphs += [gen.planted_clean(rng, core, 15)
               for core in workloads.CLEAN_CORES if sum(core) <= 13]
    for g in graphs:
        G = formats.parse_graph6(gen.graph6(*g))
        assert detect.find_isk4plus_oracle(G) is None


def test_clique_number_matches_the_package():
    from isk4plus import detect, formats
    rng = random.Random(7)
    for _ in range(20):
        g = gen.gnp(rng, rng.randint(1, 30), rng.random())
        G = formats.parse_graph6(gen.graph6(*g))
        assert gen.clique_number(g) == detect.clique_number(G)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    trace = {"functions": {}, "overhead_ratio": 1.0}
    per_layer = run.per_layer_metrics(trace, {})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [u for _, u in per_layer.values()]
    assert len(spec["per_layer"]) <= 128
    e2e = run.end_to_end_metrics([0.2], [0.1] * 100, 100, 1.0, 30000)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, u) for k, (_, u) in e2e.items()]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
