"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import json
import pathlib

import pytest

from isk4plus import coloring, detect, structure
from isk4plus.cli import main
from isk4plus.formats import write_graph6
from isk4plus.harness import (complete_graph, k4_plus_graph,
                              planted_k44_graph)
from test_coloring import PLANTED_CHAINS

import random


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4p_file(tmp_path):
    p = tmp_path / "k4p.g6"
    p.write_bytes(write_graph6(k4_plus_graph()) + b"\n")
    return str(p)


@pytest.fixture
def two_k4s_file(tmp_path):
    # two K4 blocks sharing vertex 3
    lines = ["7 12"]
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)] + \
        [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    lines += [f"{u} {v}" for u, v in edges]
    p = tmp_path / "two_k4s.txt"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_detect_finds_k4plus(capsys, k4p_file):
    code, out, _ = run(capsys, "detect", k4p_file)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["verdict"] == "found"
    assert len(doc["witness"]["vertices"]) == 5
    assert doc["input_index"] == 0


def test_detect_none_on_k4(capsys, tmp_path):
    p = tmp_path / "k4.g6"
    p.write_bytes(write_graph6(complete_graph(4)) + b"\n")
    code, out, _ = run(capsys, "detect", str(p))
    assert code == 0
    assert json.loads(out.strip())["verdict"] == "none"


def test_detect_budget_exit_code(capsys, tmp_path):
    g = planted_k44_graph(14, 0.5, random.Random(1))
    p = tmp_path / "big.g6"
    p.write_bytes(write_graph6(g) + b"\n")
    code, out, _ = run(capsys, "detect", str(p), "--budget", "2")
    assert code == 3
    assert json.loads(out.strip())["verdict"] == "budget"


def test_color_edgelist_verify(capsys, two_k4s_file):
    code, out, _ = run(capsys, "color", two_k4s_file, "--format", "edgelist",
                       "--verify")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["palette"] == 4
    assert len(doc["colors"]) == 7


def test_color_lines_output(capsys, k4p_file):
    code, out, _ = run(capsys, "color", k4p_file, "--lines")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(len(ln.split()) == 2 for ln in lines)


def test_survey_small(capsys):
    code, out, err = run(capsys, "survey", "--max-n", "5",
                         "--filter", "isk4p-free")
    assert code == 0
    assert "seed=0" in err
    rows = out.strip().splitlines()
    assert rows[0] == "n,omega,max_chi_observed,count_graphs,example_graph6"
    target = [r for r in rows if r.startswith("5,2,")]
    assert target and target[0].split(",")[2] == "3"


def test_survey_byte_identical_reruns_and_jobs(capsys):
    args = ("survey", "--source", "gnp", "--count", "40", "--min-n", "4",
            "--max-n", "9", "--seed", "7", "--filter", "isk4p-free")
    _, out1, _ = run(capsys, *args, "--jobs", "1")
    _, out2, _ = run(capsys, *args, "--jobs", "1")
    _, out8, _ = run(capsys, *args, "--jobs", "8")
    assert out1 == out2 == out8


def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # the parser is built once per process; a request's --filter and
    # --budget must not leak into the next request's defaults
    from isk4plus import cli, harness
    seen = []
    real = harness.survey_chi_vs_omega

    def spy(cfg):
        seen.append((cfg.filters, cfg.budget))
        return real(cfg)

    monkeypatch.setattr(harness, "survey_chi_vs_omega", spy)
    assert cli.build_parser() is cli.build_parser()
    run(capsys, "survey", "--max-n", "3", "--filter", "isk4p-free",
        "--budget", "7")
    run(capsys, "survey", "--max-n", "3")
    assert seen == [(("isk4p-free",), 7),
                    ((), cli.detect.DEFAULT_NODE_BUDGET)]


def test_verify_claims_cli(capsys):
    code, out, _ = run(capsys, "verify-claims", "--source", "planted",
                       "--count", "20", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["consistency_failures"] == []
    assert doc["graphs"] == 20


def test_campaign_searches_spend_the_budget(capsys, tmp_path):
    # K_{3,3,3} has 9 vertices of degree 6 but no induced K4,4, so only a
    # search proves "no K4,4", and with no node to spend it stops first.
    # K5 passes the empty filter list, so the clique search spends first.
    from isk4plus.harness import complete_multipartite
    path = tmp_path / "k333.g6"
    path.write_bytes(write_graph6(complete_multipartite(3, 3, 3)) + b"\n")
    code, out, _ = run(capsys, "verify-claims", "--source", "graph6",
                       "--input", str(path), "--budget", "0")
    doc = json.loads(out)
    assert code == 3
    assert (doc["budget_hits"], doc["no_k44"]) == (1, 0)
    path.write_bytes(write_graph6(complete_graph(5)) + b"\n")
    code, out, err = run(capsys, "survey", "--source", "graph6",
                         "--input", str(path), "--budget", "0")
    assert code == 3
    assert "graphs=1 passed=0 budget_hits=1" in err
    assert out == "n,omega,max_chi_observed,count_graphs,example_graph6\n"


def test_check_bounds_cli(capsys):
    code, out, _ = run(capsys, "check-bounds", "--max-n", "5",
                       "--filter", "triangle-free", "--filter", "isk4-free")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 3 and doc["violations"] == []


def test_usage_error_exit_64(capsys):
    code, _, err = run(capsys, "detect", "-", "--bogus-flag")
    assert code == 64
    code, _, _ = run(capsys, "nonsense")
    assert code == 64


@pytest.mark.parametrize("argv", [
    ("detect", "missing.g6", "--budget", "-2"),
    ("survey", "--budget", "-1"),
    ("verify-claims", "--budget", "-1"),
    ("check-bounds", "--budget", "-3"),
    ("detect", "missing.g6", "--budget", "many"),
], ids=["detect-negative", "survey-negative", "verify-claims-negative",
        "check-bounds-negative", "detect-non-integer"])
def test_bad_budget_exit_64(capsys, argv):
    # rejected while parsing: no input is read and no campaign starts
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "argument --budget" in err and "seed=" not in err


@pytest.mark.parametrize("argv,flag,message", [
    (("survey", "--source", "enumerate", "--min-n", "-1", "--max-n", "2"),
     "--min-n", "min-n must be non-negative, got -1"),
    (("verify-claims", "--max-n", "-1"),
     "--max-n", "max-n must be non-negative, got -1"),
    (("survey", "--count", "-5"),
     "--count", "count must be non-negative, got -5"),
    (("check-bounds", "--count", "many"),
     "--count", "count must be an integer, got 'many'"),
    (("survey", "--jobs", "-3"),
     "--jobs", "jobs must be non-negative, got -3"),
    (("color", "missing.g6", "--k", "-1"),
     "--k", "clique bound must be non-negative, got -1"),
], ids=["survey-min-n", "verify-claims-max-n", "survey-count",
        "check-bounds-count-non-integer", "survey-jobs", "color-k"])
def test_bad_count_exit_64(capsys, argv, flag, message):
    # rejected while parsing: no input is read and no campaign starts
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert f"argument {flag}: {message}" in err and "seed=" not in err


@pytest.mark.parametrize("value,message", [
    ("-1", "base size must be non-negative, got -1"),
    ("two", "base size must be an integer, got 'two'"),
], ids=["negative", "non-integer"])
def test_bad_base_size_exit_64(capsys, value, message):
    # rejected while parsing, before the recursion could reach an empty mask
    code, out, err = run(capsys, "color", "missing.g6", "--base-size", value)
    assert code == 64
    assert out == ""
    assert f"argument --base-size: {message}" in err


@pytest.mark.parametrize("argv", [
    ("detect", "{missing}"),
    ("color", "{missing}"),
    ("survey", "--source", "graph6", "--input", "{missing}"),
    ("detect", "-", "--output", "{missing}/x"),
], ids=["detect-input", "color-input", "survey-input", "detect-output"])
def test_missing_path_exit_64(capsys, monkeypatch, tmp_path, argv):
    import io
    missing = str(tmp_path / "missing")
    rec = write_graph6(k4_plus_graph()).decode()
    monkeypatch.setattr("sys.stdin", io.StringIO(rec + "\n"))
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 64
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ") and missing in err


def test_malformed_graph6_exit_65(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_bytes(b"C~\nD?\n")
    code, _, err = run(capsys, "detect", str(p))
    assert code == 65
    assert "line 2" in err


def test_malformed_edgelist_exit_65(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 5\n0 1\n")
    code, _, err = run(capsys, "color", str(p), "--format", "edgelist")
    assert code == 65


# 129 vertices: the 18-bit size header, then an empty upper triangle
GRAPH6_N129 = b"~?A@" + b"?" * (129 * 128 // 2 // 6)


@pytest.mark.parametrize("fmt,data,line,stdin", [
    ("graph6", b"C~\n" + GRAPH6_N129 + b"\n", 2, False),
    ("graph6", "C~\nD\u00e9\n".encode(), 2, True),
    ("edgelist", "3 2\n0 1\n1 \u00e9\n".encode(), 3, False),
    ("dimacs", b"c header\np edge x 3\n", 2, False),
    ("dimacs", b"p edge 3 2\ne 1 2\n", None, False),
    ("edgelist", b"3 2\n0 1\n1 1\n", 3, False),
    ("edgelist", b"\n3 2\n0 1\n1 7\n", 4, False),
    ("edgelist", b"\n300 0\n", 2, False),
    ("edgelist", b"3\n0 1\n", 1, False),
    ("edgelist", b"\n", 1, False),
    ("edgelist", b"\n3 2\n0 1\n", 2, False),
    ("dimacs", b"c x\np edge 300 0\n", 2, False),
    ("dimacs", b"p edge 3 1\ne 1 4\n", 2, False),
    ("dimacs", b"p edge 3 2\ne 1 2\np edge 4 1\n", 3, False),
    ("dimacs", b"c x\nc y\n", 2, False),
    ("dimacs", b"c x\np edge 3 2\ne 1 2\n", 2, False),
], ids=["graph6-too-many-vertices", "graph6-stdin-non-ascii",
        "edgelist-non-ascii", "dimacs-bad-count", "dimacs-missing-edges",
        "edgelist-loop", "edgelist-out-of-range", "edgelist-vertex-count",
        "edgelist-header", "edgelist-empty", "edgelist-edge-count",
        "dimacs-vertex-count", "dimacs-out-of-range",
        "dimacs-second-problem-line", "dimacs-no-problem-line",
        "dimacs-edge-count"])
def test_malformed_input_exit_65(capsys, monkeypatch, tmp_path, fmt, data,
                                 line, stdin):
    import io
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(data.decode()))
        path = "-"
    else:
        path = tmp_path / "bad.in"
        path.write_bytes(data)
    code, _, err = run(capsys, "detect", str(path), "--format", fmt)
    assert code == 65
    if line is not None:
        assert f"line {line}:" in err


def test_stdin_graph6(capsys, monkeypatch):
    import io
    rec = write_graph6(k4_plus_graph()).decode()
    monkeypatch.setattr("sys.stdin", io.StringIO(rec + "\n"))
    code, out, _ = run(capsys, "detect", "-")
    assert code == 0
    assert json.loads(out.strip())["verdict"] == "found"


def test_color_via_ramsey_flag(capsys, tmp_path):
    from isk4plus.harness import complete_multipartite
    p = tmp_path / "k44.g6"
    p.write_bytes(write_graph6(complete_multipartite(4, 4)) + b"\n")
    code, out, _ = run(capsys, "color", str(p), "--via-ramsey", "--k", "2",
                       "--verify")
    assert code == 0
    assert json.loads(out.strip())["palette"] == 2


def test_output_flag_writes_file(capsys, tmp_path, k4p_file):
    dest = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "detect", k4p_file, "--output", str(dest))
    assert code == 0 and out == ""
    doc = json.loads(dest.read_text().strip())
    assert doc["verdict"] == "found"
    dest2 = tmp_path / "survey.csv"
    code, out, _ = run(capsys, "survey", "--max-n", "4", "--output",
                       str(dest2))
    assert code == 0 and out == ""
    assert dest2.read_text().startswith("n,omega,")


def test_graph6_source_requires_input(capsys):
    code, _, err = run(capsys, "survey", "--source", "graph6")
    assert code == 64
    assert "--input" in err


# SHA-256 digests of `isk4plus color` JSON output, recorded before fallback
# steps began to keep M and the failing cutset.  Every change to the
# coloring promises byte-identical output, and these pin it.  On these
# graphs the Ramsey route with k = 2 takes the same steps as the direct
# search with base size 2, so its digests repeat those of --base-size 2.
GOLDEN_COLOR = [
    ("records", (),
     "418f0bf7710a7953a93b47e43e87fc8e68b004d1595edb62810d89626a686516"),
    ("records", ("--base-size", "2"),
     "09464e6a4b7ce28e8342aabe0a04f1f905dd25c644f79000e420e19e1c206b95"),
    (0, (),
     "94e42fd23525be163a98fbe23169b60aff9f732554ccf3ba1b449e40d493927b"),
    (0, ("--base-size", "2"),
     "e4b16a898855984def8f422a281c72514fb74fea700b98660267366fb0ebd66d"),
    (0, ("--via-ramsey", "--k", "2"),
     "e4b16a898855984def8f422a281c72514fb74fea700b98660267366fb0ebd66d"),
    (1, (),
     "a5600ec4592f1aced96f15abc7973625d4fa79f5b6832c58071da10858a6c81c"),
    (1, ("--base-size", "2"),
     "03d72315e368ead26a6e5271ae0d6b4d8ade0ca1b09bce025b8e9672fc072ea3"),
    (1, ("--via-ramsey", "--k", "2"),
     "03d72315e368ead26a6e5271ae0d6b4d8ade0ca1b09bce025b8e9672fc072ea3"),
    (2, (),
     "83dd662211b87a46912f90592118ad97a5f6cfe6e0393638472f34bd2f9764e1"),
    (2, ("--base-size", "2"),
     "567a7417bbcb2b21e24e98ecefb7939f399d97686b64b63dd225bae4a441ba9a"),
    (2, ("--via-ramsey", "--k", "2"),
     "567a7417bbcb2b21e24e98ecefb7939f399d97686b64b63dd225bae4a441ba9a"),
]


@pytest.mark.parametrize(
    "source,options,digest", GOLDEN_COLOR,
    ids=[f"{source}{''.join(options)}" for source, options, _ in GOLDEN_COLOR])
def test_color_output_digest(capsys, tmp_path, source, options, digest):
    # source names the records file or indexes PLANTED_CHAINS
    if source == "records":
        path = pathlib.Path(__file__).parent / "data" / "records.g6"
    else:
        p, seed, _ = PLANTED_CHAINS[source]
        path = tmp_path / "planted.g6"
        path.write_bytes(write_graph6(
            planted_k44_graph(64, p, random.Random(seed))) + b"\n")
    code, out, _ = run(capsys, "color", str(path), *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("argv,patch,code", [
    (("detect", "{k4p}", "--bogus-flag"), None, 64),
    (("survey", "--source", "graph6"), None, 64),
    (("survey", "--max-n", "9"), None, 64),
    (("survey", "--source", "gnp", "--max-n", "200"), None, 64),
    (("survey", "--source", "gnp", "--p", "1.5"), None, 64),
    (("verify-claims", "--source", "k44-random", "--p", "-0.2"), None, 64),
    (("check-bounds", "--source", "gnp", "--p", "nan"), None, 64),
    (("color", "{k4p}", "--via-ramsey", "--k", "7"), None, 64),
    (("color", "{missing}"), None, 64),
    (("detect", "{bad}"), None, 65),
    (("detect", "{k4p}", "--budget", "0"), None, 3),
    (("verify-claims", "--source", "planted", "--count", "20", "--seed", "3"),
     ("check_claim3", ValueError("claim 3 needs claims 1 and 2 to hold")),
     70),
    (("color", "{k4p}"),
     ("color_isk4plus_free", detect.CliquePreconditionError((0, 1, 2))),
     70),
    (("detect", "{k4p}"), ("find_isk4plus", AssertionError("broken")), 70),
], ids=["argparse", "graph6-source-without-input", "enumeration-cap",
        "random-source-too-large", "p-above-one", "p-below-zero", "p-nan",
        "via-ramsey-bound", "missing-path",
        "malformed-input", "budget", "internal-value-error",
        "clique-precondition", "internal-assertion"])
def test_exit_code_per_error_class(capsys, monkeypatch, tmp_path, k4p_file,
                                   argv, patch, code):
    # only usage errors exit 64; a ValueError raised anywhere below the
    # CLI's own checks is an internal fault and exits 70
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"C~\nD?\n")
    paths = {"k4p": k4p_file, "bad": str(bad),
             "missing": str(tmp_path / "missing")}
    if patch is not None:
        name, exc = patch
        module = {"check_claim3": structure, "find_isk4plus": detect,
                  "color_isk4plus_free": coloring}[name]
        monkeypatch.setattr(module, name, _raise(exc))
    got, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    if code == 70:
        assert err.splitlines()[-1].startswith("internal error: ")


def _fuzz_seeds():
    # one valid input per format; the DIMACS one is C5 plus a chord
    g6 = b">>graph6<<" + write_graph6(k4_plus_graph()) + b"\n" + \
        write_graph6(planted_k44_graph(10, 0.3, random.Random(4))) + b"\n"
    k4s = [(u, v) for u in range(4) for v in range(u + 1, 4)] + \
        [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    edgelist = "7 12\n" + "".join(f"{u} {v}\n" for u, v in k4s)
    dimacs = ("c five-cycle plus a chord\np edge 5 6\n"
              "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 3\n")
    return {"graph6": g6, "edgelist": edgelist.encode(),
            "dimacs": dimacs.encode()}


FUZZ_BYTES = b"0123456789 \n\t-+pec?~_"


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """Replace, insert or delete one to three bytes; half the new bytes
    come from the formats' own alphabet."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3) if out else 1
        byte = (rng.choice(FUZZ_BYTES) if rng.random() < 0.5
                else rng.randrange(256))
        if op == 0:
            out[rng.randrange(len(out))] = byte
        elif op == 1:
            out.insert(rng.randrange(len(out) + 1), byte)
        else:
            del out[rng.randrange(len(out))]
    return bytes(out)


def test_mutated_inputs_exit_cleanly_and_name_their_line(capsys, tmp_path):
    # about 2,000 seeded mutations, 667 per format, each run through detect
    # and color --verify.  Nothing may exit 70, and malformed input must
    # name the line at fault
    rng = random.Random(8)
    path = tmp_path / "mutant.in"
    codes = {}
    for fmt, data in _fuzz_seeds().items():
        for _ in range(667):
            path.write_bytes(_mutate(data, rng))
            for argv in (("detect",), ("color", "--verify")):
                code, _, err = run(capsys, *argv, str(path), "--format", fmt)
                assert code in (0, 3, 65), (fmt, path.read_bytes(), err)
                if code == 65:
                    assert err.startswith("input error: line "), \
                        (fmt, path.read_bytes(), err)
                codes[fmt, code] = codes.get((fmt, code), 0) + 1
    # every format sees both accepted and rejected mutants
    for fmt in ("graph6", "edgelist", "dimacs"):
        assert codes.get((fmt, 0)) and codes.get((fmt, 65)), codes
