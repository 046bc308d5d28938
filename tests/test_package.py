"""The package's public names and its footprint."""

import os
import pathlib
import subprocess
import sys

import pytest

import isk4plus
from isk4plus.formats import write_graph6
from isk4plus.harness import complete_multipartite

REMOVED = ("greedy_extend", "relation_to_set", "neighbors", "degree",
           "COMPLETE", "ANTICOMPLETE", "MIXED", "has_k4_subgraph",
           "is_k4_subdivision", "is_k4plus_subdivision")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    for name in isk4plus.__all__:
        assert getattr(isk4plus, name) is not None, name
    assert len(set(isk4plus.__all__)) == len(isk4plus.__all__)


def test_removed_helpers_not_exported():
    for name in REMOVED:
        assert name not in isk4plus.__all__
        assert not hasattr(isk4plus, name)


def test_verify_claims_imports_no_numpy(tmp_path):
    # K4,4,3 on 11 vertices keeps every claim, so verify-claims confirms
    # it free with the subset oracle; a fresh interpreter shows what that
    # launch imports
    path = tmp_path / "k443.g6"
    path.write_bytes(write_graph6(complete_multipartite(4, 4, 3)) + b"\n")
    script = (
        "import sys\n"
        "from isk4plus import cli, detect\n"
        "calls = []\n"
        "oracle = detect.find_isk4plus_oracle\n"
        "detect.find_isk4plus_oracle = lambda G: calls.append(G.n) "
        "or oracle(G)\n"
        "code = cli.main(['verify-claims', '--source', 'graph6', "
        f"'--input', {str(path)!r}, '--output', {os.devnull!r}])\n"
        "assert code == 0, code\n"
        "assert calls == [11], calls\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = str(pathlib.Path(isk4plus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []
