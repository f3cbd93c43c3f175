"""Undirected multigraphs with per-edge multiplicities, plus a text format.

Parallel edges are stored as multiplicity counts and never expanded: the
reduction gadgets carry multiplicities in the billions at full scale, and
weight exponentiation is O(1) per record either way.

Graph file format (text):
    p graph <num_vertices> <num_edge_records>
    e <u> <v> <mult>        # one line per record, 0-based endpoints
Lines starting with '#' are comments.  The writer emits records sorted by
(u, v); the reader accepts any order and aggregates duplicate pairs.
"""

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import UsageError

EdgeRecord = Tuple[int, int, int]  # (u, v, mult) with u < v


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
            if m <= 0:
                raise UsageError(f"edge ({u},{v}) has nonpositive multiplicity {m}")
            if (u, v) in seen:
                raise UsageError(f"duplicate record for edge ({u},{v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build a graph from (u, v[, mult]) items, aggregating duplicates."""
        mults = {}
        for item in edges:
            if len(item) == 2:
                u, v = item
                m = 1
            else:
                u, v, m = item
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
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

    def degree(self, v: int) -> int:
        return self.degrees()[v]

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
# Text format


def graph_to_text(g: MultiGraph) -> str:
    lines = [f"p graph {g.num_vertices} {len(g.edges)}"]
    for u, v, m in sorted(g.edges):
        lines.append(f"e {u} {v} {m}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> MultiGraph:
    num_vertices = None
    declared = None
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if num_vertices is not None:
                raise UsageError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "graph":
                raise UsageError(f"line {lineno}: bad header {line!r}")
            try:
                num_vertices, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise UsageError(f"line {lineno}: bad header {line!r}") from None
        elif parts[0] == "e":
            if num_vertices is None:
                raise UsageError(f"line {lineno}: edge before header")
            if len(parts) != 4:
                raise UsageError(f"line {lineno}: bad edge record {line!r}")
            try:
                u, v, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise UsageError(f"line {lineno}: bad edge record {line!r}") from None
            raw.append((u, v, m, lineno))
        else:
            raise UsageError(f"line {lineno}: unknown record {line!r}")
    if num_vertices is None:
        raise UsageError("missing 'p graph' header")
    try:
        g = MultiGraph.from_edges(num_vertices, [(u, v, m) for u, v, m, _ in raw])
    except UsageError as exc:
        raise UsageError(f"invalid edge list: {exc}") from None
    if declared is not None and declared != len(raw):
        raise UsageError(f"header declares {declared} records, found {len(raw)}")
    return g


def write_graph(g: MultiGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(g))


def read_graph(path) -> MultiGraph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read())


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
