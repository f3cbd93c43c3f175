"""Undirected multigraphs with per-edge multiplicities, plus a text format.

Parallel edges are stored as multiplicity counts and never expanded: the
reduction gadgets carry multiplicities in the billions at full scale, and
weight exponentiation is O(1) per record either way.

Graph file format (text):
    p graph <num_vertices> <num_edge_records>
    e <u> <v> <mult>        # one line per record, 0-based endpoints
The writer emits records sorted by (u, v); the reader accepts any order and
aggregates duplicate pairs.  `read_records` holds the syntax that this file,
the E2LIN2 instance and the block map share: ASCII, '#' and blank lines
skipped, one integer header first.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import UsageError

EdgeRecord = Tuple[int, int, int]  # (u, v, mult) with u < v
MAX_MULTIPLICITY = 2 ** 53  # every integer up to it is exact as a double


@dataclass(frozen=True)
class MultiGraph:
    """Immutable undirected multigraph on vertices 0..num_vertices-1."""

    num_vertices: int
    edges: Tuple[EdgeRecord, ...] = field(default=())

    def __post_init__(self):
        if self.num_vertices < 0:
            raise UsageError("num_vertices must be nonnegative")
        seen = set()
        for u, v, m in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise UsageError(f"edge ({u},{v}) out of range")
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            if u > v:
                raise UsageError(f"edge ({u},{v}) not in canonical u < v order")
            if not 0 < m <= MAX_MULTIPLICITY:
                raise UsageError(f"edge ({u},{v}) multiplicity {m} is outside 1..2**53")
            if (u, v) in seen:
                raise UsageError(f"duplicate record for edge ({u},{v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build a graph from (u, v[, mult]) items, aggregating duplicates."""
        mults = {}
        for item in edges:
            u, v, m = item if len(item) == 3 else (*item, 1)
            key = (u, v) if u < v else (v, u)  # a self-loop is refused below
            mults[key] = mults.get(key, 0) + int(m)
        records = tuple(sorted((u, v, m) for (u, v), m in mults.items()))
        return cls(num_vertices, records)

    @property
    def num_edges(self) -> int:
        """Total edge count, multiplicities included."""
        return sum(m for _, _, m in self.edges)

    def degrees(self) -> Tuple[int, ...]:
        deg = [0] * self.num_vertices
        for u, v, m in self.edges:
            deg[u] += m
            deg[v] += m
        return tuple(deg)

    def is_regular(self) -> bool:
        deg = self.degrees()
        return len(set(deg)) <= 1

    def regular_degree(self) -> int:
        deg = self.degrees()
        if len(set(deg)) > 1:
            raise UsageError("graph is not regular")
        return deg[0] if deg else 0

    def disjoint_union(self, other: "MultiGraph") -> "MultiGraph":
        shift = self.num_vertices
        shifted = [(u + shift, v + shift, m) for u, v, m in other.edges]
        return MultiGraph(self.num_vertices + other.num_vertices,
                          tuple(list(self.edges) + shifted))


@dataclass(frozen=True)
class BipartiteGadget:
    """A multigraph together with a declared bipartition (left, right).

    Every edge must cross the bipartition.  Used for the random-matching
    gadgets: left/right play the roles of the two sides of size N.
    """

    graph: MultiGraph
    left: Tuple[int, ...]
    right: Tuple[int, ...]

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise UsageError("bipartition sides must have equal size")
        all_ids = set(self.left) | set(self.right)
        if len(all_ids) != len(self.left) + len(self.right):
            raise UsageError("bipartition sides overlap")
        if all_ids != set(range(self.graph.num_vertices)):
            raise UsageError("bipartition must cover all vertices exactly once")
        left = set(self.left)
        for u, v, _ in self.graph.edges:
            if (u in left) == (v in left):
                raise UsageError(f"edge ({u},{v}) does not cross the bipartition")

    @property
    def side_size(self) -> int:
        return len(self.left)

    def left_degrees(self) -> Tuple[int, ...]:
        deg = self.graph.degrees()
        return tuple(deg[u] for u in self.left)

    def right_degrees(self) -> Tuple[int, ...]:
        deg = self.graph.degrees()
        return tuple(deg[v] for v in self.right)


# ---------------------------------------------------------------------------
# Text formats: the syntax that the graph, instance and block-map files share


def read_records(text: str, kind: str, num_fields: int):
    """Yield the `p <kind>` header's ints, then (lineno, line, tokens) per record.

    Blank and '#' lines are skipped.  A malformed, missing or repeated header,
    or a record before it, raises UsageError naming the line.  Lines end at
    '\n', '\r\n' or '\r' (the universal newlines), not at the other breaks
    that str.splitlines honours, so a '\n' file's lines are numbered as
    `wc -l` counts them.
    """
    header = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "p":
            if header is not None:
                raise UsageError(f"line {lineno}: duplicate header")
            if len(tokens) != num_fields + 2 or tokens[1] != kind:
                raise UsageError(f"line {lineno}: bad header {line!r}")
            header = int_fields(tokens[2:], lineno, line)
            yield header
        elif header is None:
            raise UsageError(f"line {lineno}: record before the 'p {kind}' header")
        else:
            yield lineno, line, tokens
    if header is None:
        raise UsageError(f"missing 'p {kind}' header")


def int_fields(tokens, lineno: int, line: str):
    """The tokens as ints; a non-integer raises UsageError naming the line."""
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise UsageError(f"line {lineno}: non-integer field in {line!r}") from None


def read_ascii(path) -> str:
    """The file's text; a byte outside ASCII raises UsageError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("ascii")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def write_ascii(path, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def records_to_text(kind: str, header, records) -> str:
    """The inverse of read_records: the `p <kind>` header line, then the records."""
    return "\n".join([" ".join(["p", kind, *map(str, header)]), *records]) + "\n"


def graph_to_text(g: MultiGraph) -> str:
    return records_to_text("graph", (g.num_vertices, len(g.edges)),
                           (f"e {u} {v} {m}" for u, v, m in sorted(g.edges)))


def graph_from_text(text: str) -> MultiGraph:
    records = read_records(text, "graph", 2)
    num_vertices, declared = next(records)
    edges = []
    for lineno, line, tokens in records:
        if len(tokens) != 4 or tokens[0] != "e":
            raise UsageError(f"line {lineno}: bad edge record {line!r}")
        try:  # inline, not through int_fields: this loop is the hot one
            edges.append((int(tokens[1]), int(tokens[2]), int(tokens[3])))
        except ValueError:
            raise UsageError(f"line {lineno}: non-integer field in {line!r}") from None
    if declared != len(edges):
        raise UsageError(f"header declares {declared} records, found {len(edges)}")
    return MultiGraph.from_edges(num_vertices, edges)


def write_graph(g: MultiGraph, path) -> None:
    write_ascii(path, graph_to_text(g))


def read_graph(path) -> MultiGraph:
    return graph_from_text(read_ascii(path))


# ---------------------------------------------------------------------------
# Small named graphs (test corpora and demos)


def single_edge() -> MultiGraph:
    return MultiGraph(2, ((0, 1, 1),))


def path_graph(n: int) -> MultiGraph:
    return MultiGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> MultiGraph:
    if n < 3:
        raise UsageError("cycle needs at least 3 vertices")
    return MultiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(p: int, q: int) -> MultiGraph:
    return MultiGraph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def star_graph(leaves: int) -> MultiGraph:
    return MultiGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def grid_graph(rows: int, cols: int) -> MultiGraph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return MultiGraph.from_edges(rows * cols, edges)


def hypercube_graph(dim: int) -> MultiGraph:
    n = 1 << dim
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(dim) if x < x ^ (1 << b)]
    return MultiGraph.from_edges(n, edges)


def petersen_graph() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph.from_edges(10, outer + spokes + inner)


def prism_graph() -> MultiGraph:
    """Triangular prism: two triangles joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return MultiGraph.from_edges(6, edges)


def scaled_graph(g: MultiGraph, factor: int) -> MultiGraph:
    """Copy of g with every multiplicity multiplied by factor."""
    return MultiGraph(g.num_vertices, tuple((u, v, m * factor) for u, v, m in g.edges))
