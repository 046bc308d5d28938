"""In-memory spans around every public function of the isk4plus modules.

The tracer patches each public function at every place it is bound (its
defining module, every module that imported it by name, and the package
namespace), plus ``Graph.__post_init__`` for graph construction.  Each call
records one span: name, start, end, parent span and request id.  Spans stay
in memory in flat arrays and are written out once, at the end of a run.

Everything runs on one thread, so a stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("graph", "formats", "detect", "structure", "coloring", "harness",
          "cli")

# per-element bitmask helpers: a span costs more than the call it would
# time, so they stay unwrapped and their time counts toward the caller
SKIP = {"graph.mask_of", "graph.iter_bits", "graph.bit_list",
        "graph.lowest_bits"}

# a short tag per call for functions whose outcome splits their metrics
TAGGERS = {
    "detect.find_isk4plus": lambda res: res.status,
    "detect.find_induced_biclique":
        lambda res: "miss" if res is None else "hit",
}


class Tracer:
    """Records spans; ``install`` patches the package, ``uninstall``
    restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self._tag_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.tag = array("i")
        # 1 when an enclosing span has the same name (recursion), so
        # inclusive time counts only the outermost call
        self.nested = array("b")
        # 1 for the second and later resumptions of one generator call
        self.resumed = array("b")
        self._stack: list[int] = [-1]
        self._active: dict[int, int] = {}
        self._request_id = -1
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def _open(self, nid: int, resumed: int = 0) -> int:
        idx = len(self.name)
        depth = self._active.get(nid, 0)
        self._active[nid] = depth + 1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.tag.append(0)
        self.nested.append(1 if depth else 0)
        self.resumed.append(resumed)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def begin_request(self, rid: int) -> int:
        """Open the root span of one request; returns its index."""
        self._request_id = rid
        return self._open(self._name_id("request"))

    def end_request(self, idx: int) -> None:
        self._close(idx)
        self._request_id = -1

    # -- patching ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self._name_id(label)
        tagger = TAGGERS.get(label)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                resumed = 0
                while True:
                    idx = self._open(nid, resumed)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx)
                    resumed = 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tagger is not None:
                self.tag[idx] = self._tag_id(tagger(res))
            return res
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch the package; the wrappers are built on the first call."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    def _build_patches(self) -> None:
        pkg = importlib.import_module("isk4plus")
        mods = [importlib.import_module(f"isk4plus.{m}") for m in LAYERS]
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                label = f"{layer}.{attr}"
                if label not in SKIP:
                    wrapped[obj] = self._wrap(label, obj)
        # rebind at every binding site, not only the defining module
        for mod in [pkg, *mods]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[obj]))
        post_init = mods[0].Graph.__post_init__
        self._patches.append((mods[0].Graph, "__post_init__", post_init,
                              self._wrap("graph.Graph", post_init)))

    # -- results ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans as tab-separated lines:
        id, name, tag, start, end, parent, request."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\ttag\tstart\tend\tparent\trequest\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{self.tags[self.tag[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\t{self.request[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Self time per span: its duration minus the union of its children's
    intervals clipped to it.  Spans are indexed in start order, so every
    child comes after its parent."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        reach = s
        for c in children.get(i, ()):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out
