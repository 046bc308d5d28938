"""Graph serialization: graph6 records, plain edge lists, DIMACS .col files.

graph6 layout: header N(n), then the upper triangle in column order
x(0,1), x(0,2), x(1,2), x(0,3), ... packed into 6-bit groups (MSB first,
zero padded), each group stored as one printable byte value+63.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, graph_from_edges

GRAPH6_HEADER = b">>graph6<<"


class FormatError(ValueError):
    """Malformed serialized graph data."""


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 18-bit form covers 63..258047; our graphs never exceed MAX_VERTICES
    return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63),
                  63 + (n & 63)])


def write_graph6(G: Graph) -> bytes:
    """Encode a labeled graph as one graph6 record (no trailing newline)."""
    n = G.n
    out = bytearray(_encode_size(n))
    group = 0
    nbits = 0
    adj = G.adj
    for j in range(1, n):
        col = adj[j]
        for i in range(j):
            group = (group << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = 0
                nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out)


# the 6 data bits of each printable byte value, least significant first
_REVERSED_GROUP = [format(b - 63, "06b")[::-1] if 63 <= b <= 126 else ""
                   for b in range(256)]
_PRINTABLE = bytes(range(63, 127))


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 record; rejects trailing bytes and bad padding.

    The body becomes one int whose bit p is the pair at column-order
    position p, so column j, the pairs (i, j) with i < j, is the next j
    bits; each column is row j's part below j and is mirrored into the
    rows of its members.
    """
    data = _ascii_bytes(data)
    if not data:
        raise FormatError("empty graph6 record")
    bad = data.translate(None, _PRINTABLE)
    if bad:
        raise FormatError(f"non-printable graph6 byte {bad[0]}")
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
    # the last byte's group holds the highest positions, so it leads
    bits = int("".join(map(_REVERSED_GROUP.__getitem__, reversed(body)))
               or "0", 2)
    if bits >> nbits:
        raise FormatError("nonzero padding bits in graph6 record")
    rows = [0] * n
    for j in range(1, n):
        col = bits & ((1 << j) - 1)
        bits >>= j
        rows[j] = col
        jbit = 1 << j
        while col:
            b = col & -col
            col ^= b
            rows[b.bit_length() - 1] |= jbit
    return Graph(n, tuple(rows))


def _ascii_bytes(data: bytes | str) -> bytes:
    if isinstance(data, bytes):
        return data
    try:
        return data.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("non-ASCII character in graph6 data") from None


def iter_graph6_lines(lines) -> "iter":
    """Parse an iterable of graph6 lines; yields (lineno, Graph).

    Blank lines and a leading >>graph6<< file header are skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = _ascii_bytes(raw).strip()
            if line.startswith(GRAPH6_HEADER):
                line = line[len(GRAPH6_HEADER):]
            if not line:
                continue
            G = parse_graph6(line)
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        yield lineno, G


def _check_vertex_count(n: int, lineno: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(f"line {lineno}: vertex count {n} outside "
                          f"0..{MAX_VERTICES}")


def _edge(parts: list[str], n: int, base: int, lineno: int
          ) -> tuple[int, int]:
    """The 0-based endpoints of one "u v" edge line numbered from base."""
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer endpoint") from None
    if not (base <= u < n + base and base <= v < n + base):
        raise FormatError(f"line {lineno}: edge ({u},{v}) out of range "
                          f"for n={n}")
    if u == v:
        raise FormatError(f"line {lineno}: loop edge at vertex {u}")
    return u - base, v - base


def read_edgelist(text: str) -> Graph:
    """Read the plain text format: "n m" header then m lines "u v" (0-based)."""
    rows = [(lineno, ln.split())
            for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]
    if not rows:
        raise FormatError("line 1: edge list must start with 'n m' header")
    head, fields = rows[0]
    if len(fields) != 2:
        raise FormatError(f"line {head}: edge list must start with 'n m' "
                          "header")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(f"line {head}: non-integer edge list "
                          "header") from None
    _check_vertex_count(n, head)
    if len(rows) - 1 != m:
        raise FormatError(f"line {head}: expected {m} edge lines, "
                          f"found {len(rows) - 1}")
    edges = []
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        edges.append(_edge(parts, n, 0, lineno))
    return graph_from_edges(n, edges)


def read_dimacs(text: str) -> Graph:
    """Read a DIMACS .col file ("p edge n m" header, 1-based "e u v" lines)."""
    n = m = None
    head = 0
    edges = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise FormatError(f"line {lineno}: bad problem line")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer vertex or "
                                  "edge count") from None
            _check_vertex_count(n, lineno)
            head = lineno
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e u v'")
            edges.append(_edge(parts[1:], n, 1, lineno))
        # other record types (n, x, ...) are ignored
    if n is None:
        raise FormatError(f"line {len(lines) or 1}: input ends without a "
                          "DIMACS problem line")
    if len(edges) != m:
        raise FormatError(f"line {head}: expected {m} edge lines, "
                          f"found {len(edges)}")
    return graph_from_edges(n, edges)
