"""Command line interface.

Subcommands: detect, color, verify-claims, survey, check-bounds.  Machine
readable output (JSON lines, one JSON document, or CSV) goes to stdout;
diagnostics go to stderr.  Exit codes: 0 success, 2 assertion failure with
a witness emitted, 3 budget exhaustion, 64 usage error (a bad argument, a
UsageError, or an input or output path that cannot be opened), 65
malformed input, 70 internal error (any other exception, a ValueError
included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import coloring, detect, harness
from .formats import (FormatError, iter_graph6_lines, read_dimacs,
                      read_edgelist)
from .graph import Graph, UsageError

EX_OK = 0
EX_FAILURE = 2
EX_BUDGET = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

DEFAULT_SEED = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _count(what: str):
    """argparse type for a count option, such as a node budget: an
    integer, never negative."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, got {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{what} must be non-negative, got {value}")
        return value
    return parse


_budget = _count("budget")


def _read_text(path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        # undecodable bytes become lone surrogates, caught just below
        with open(path, "r", encoding="ascii",
                  errors="surrogateescape") as fh:
            text = fh.read()
    if not text.isascii():
        pos = next(i for i, ch in enumerate(text) if not ch.isascii())
        lineno = text.count("\n", 0, pos) + 1
        raise FormatError(f"line {lineno}: non-ASCII character")
    return text


def _out_stream(args):
    if getattr(args, "output", None):
        return open(args.output, "w", encoding="ascii")
    return sys.stdout


def _close_out(out) -> None:
    if out is not sys.stdout:
        out.close()


def _input_graphs(path: str, fmt: str) -> list[Graph]:
    """One graph per graph6 line, or a single edgelist/DIMACS graph."""
    if fmt == "graph6":
        if path == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        return [g for _, g in iter_graph6_lines(lines)]
    text = _read_text(path)
    if fmt == "edgelist":
        return [read_edgelist(text)]
    if fmt == "dimacs":
        return [read_dimacs(text)]
    raise FormatError(f"unknown format {fmt!r}")


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it unchanged
    (append actions copy their default list before appending)."""
    top = _Parser(prog="isk4plus",
                  description="detectors, structural decomposition, and "
                              "coloring for graphs with no induced K4+ "
                              "subdivision")
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="input path or - for stdin")
        p.add_argument("--format", choices=("graph6", "edgelist", "dimacs"),
                       default="graph6")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")

    p = sub.add_parser("detect", parents=[], help="find induced K4+ "
                       "subdivisions, one JSON line per input graph")
    add_input(p)
    p.add_argument("--budget", type=_budget,
                   default=detect.DEFAULT_NODE_BUDGET)

    p = sub.add_parser("color", help="run the structural coloring")
    add_input(p)
    p.add_argument("--verify", action="store_true",
                   help="re-check properness before exiting")
    p.add_argument("--via-ramsey", action="store_true",
                   help="find K4,4 through a K_{s,s} plus stable-set "
                        "extraction (clique bound at most 5)")
    p.add_argument("--k", type=_count("clique bound"), default=None,
                   help="clique bound (default: computed exactly)")
    p.add_argument("--base-size", type=_count("base size"), default=None)
    p.add_argument("--lines", action="store_true",
                   help="emit 'vertex color' lines instead of JSON")

    for name in ("verify-claims", "survey", "check-bounds"):
        p = sub.add_parser(name)
        p.add_argument("--source",
                       choices=("enumerate", "graph6", "gnp",
                                "triangle-free", "planted", "k44-random"),
                       default="enumerate")
        p.add_argument("--input", default=None,
                       help="graph6 stream path or - (source graph6)")
        p.add_argument("--max-n", type=_count("max-n"), default=5)
        p.add_argument("--min-n", type=_count("min-n"), default=1)
        p.add_argument("--count", type=_count("count"), default=100)
        p.add_argument("--p", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--filter", action="append", default=[],
                       choices=list(harness.FILTER_NAMES))
        p.add_argument("--jobs", type=_count("jobs"), default=1)
        p.add_argument("--budget", type=_budget,
                       default=detect.DEFAULT_NODE_BUDGET)
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
    return top


def _campaign_config(args) -> harness.CampaignConfig:
    lines = None
    path = args.input
    if args.source == "graph6":
        if path is None:
            raise UsageError("--input is required with --source graph6")
        if path == "-":
            lines = sys.stdin.read().splitlines()
            path = None
    print(f"seed={args.seed}", file=sys.stderr)
    return harness.CampaignConfig(
        source=args.source, path=path, lines=lines, max_n=args.max_n,
        min_n=args.min_n, count=args.count, p=args.p, seed=args.seed,
        filters=tuple(args.filter), jobs=args.jobs, budget=args.budget)


def _cmd_detect(args) -> int:
    graphs = _input_graphs(args.input, args.format)
    out = _out_stream(args)
    budget_seen = False
    for idx, G in enumerate(graphs):
        det = detect.find_isk4plus(G, budget=args.budget)
        doc = {"input_index": idx, "verdict": det.status}
        if det.found:
            doc["witness"] = {
                "branch": list(det.witness.branch),
                "paths": [list(p) for p in det.witness.paths],
                "vertices": det.witness.vertices(),
            }
        if det.status == detect.BUDGET:
            budget_seen = True
        print(json.dumps(doc, separators=(",", ":")), file=out)
    _close_out(out)
    return EX_BUDGET if budget_seen else EX_OK


def _cmd_color(args) -> int:
    graphs = _input_graphs(args.input, args.format)
    opts = coloring.ColorOptions(k=args.k, base_size=args.base_size,
                                 via_ramsey=args.via_ramsey)
    out = _out_stream(args)
    for G in graphs:
        col, trace = coloring.color_isk4plus_free(G, opts)
        if args.verify:
            bad = coloring.verify_proper(G, col)
            if bad is not None:
                print(f"improper edge {bad}", file=sys.stderr)
                _close_out(out)
                return EX_SOFTWARE
        if args.lines:
            print(coloring.coloring_to_lines(col), file=out)
        else:
            print(coloring.coloring_to_json(col, trace), file=out)
    _close_out(out)
    return EX_OK


def _cmd_survey(args) -> int:
    cfg = _campaign_config(args)
    rows, stats = harness.survey_chi_vs_omega(cfg)
    out = _out_stream(args)
    out.write(harness.survey_to_csv(rows))
    _close_out(out)
    print(f"graphs={stats['graphs']} passed={stats['passed']} "
          f"budget_hits={stats['budget_hits']}", file=sys.stderr)
    return EX_BUDGET if stats["budget_hits"] else EX_OK


def _cmd_verify_claims(args) -> int:
    cfg = _campaign_config(args)
    report = harness.verify_claims_campaign(cfg)
    out = _out_stream(args)
    print(json.dumps(report, separators=(",", ":")), file=out)
    _close_out(out)
    if report["consistency_failures"]:
        return EX_FAILURE
    if report["budget_hits"]:
        return EX_BUDGET
    return EX_OK


def _cmd_check_bounds(args) -> int:
    cfg = _campaign_config(args)
    if "isk4-free" not in cfg.filters:
        cfg.filters = cfg.filters + ("isk4-free",)
    report = harness.check_cited_bounds(cfg)
    out = _out_stream(args)
    print(json.dumps(report, separators=(",", ":")), file=out)
    _close_out(out)
    if report["violations"]:
        return EX_FAILURE
    if report["budget_hits"]:
        return EX_BUDGET
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    try:
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "color":
            return _cmd_color(args)
        if args.command == "survey":
            return _cmd_survey(args)
        if args.command == "verify-claims":
            return _cmd_verify_claims(args)
        if args.command == "check-bounds":
            return _cmd_check_bounds(args)
        return EX_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except (UsageError, OSError) as exc:
        # an OSError that names a file comes from an input or output path
        # argument that cannot be opened
        if not isinstance(exc, OSError) or exc.filename is not None:
            print(f"error: {exc}", file=sys.stderr)
            return EX_USAGE
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EX_SOFTWARE
    except Exception as exc:  # internal fault
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
