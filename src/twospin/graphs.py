"""Undirected multigraphs with per-edge multiplicities, plus a text format.

Parallel edges are stored as multiplicity counts and never expanded: the
reduction gadgets carry multiplicities in the billions at full scale, and
weight exponentiation is O(1) per record either way.

Graph file format (text):
    p graph <num_vertices> <num_edge_records>
    e <u> <v> <mult>        # one line per record, 0-based endpoints
The writer emits records sorted by (u, v); the reader accepts any order and
aggregates duplicate pairs.  Each record's multiplicity, like each pair's
sum, must lie in 1..2**53.  `read_records` holds the syntax that this file,
the E2LIN2 instance and the block map share: ASCII, '#' and blank lines
skipped, one integer header first.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import UsageError

EdgeRecord = Tuple[int, int, int]  # (u, v, mult) with u < v
MAX_MULTIPLICITY = 2 ** 53  # every integer up to it is exact as a double


def _int_table(values):
    """values as an int64 array; as an array of Python ints (dtype object)
    when one does not fit, which the checks then refuse unless the graph
    has more than 2**63 vertices."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _record_error(num_vertices: int, u: int, v: int, m: int) -> str:
    """Why a record failed, by the first of the checks in this order."""
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        return f"edge ({u},{v}) out of range"
    if u == v:
        return f"self-loop at vertex {u}"
    if u > v:
        return f"edge ({u},{v}) not in canonical u < v order"
    if not 0 < m <= MAX_MULTIPLICITY:
        return f"edge ({u},{v}) multiplicity {m} is outside 1..2**53"
    return f"duplicate record for edge ({u},{v})"


def _top(a):
    """The largest entry of a nonempty array; on the few records of a small
    graph, argmax costs a tenth of max."""
    return a[a.argmax()]


def _bad_multiplicity(m):
    return (m < 1) | (m > MAX_MULTIPLICITY)


def _first_bad_multiplicity(m) -> int:
    """Index of the first entry of m outside 1..2**53, or -1."""
    if m.size and (m[m.argmin()] < 1 or _top(m) > MAX_MULTIPLICITY):
        return _first(_bad_multiplicity(m))
    return -1


def _first(mask):
    """Index of the first True in mask, or -1."""
    return int(mask.argmax()) if np.count_nonzero(mask) else -1


@dataclass(frozen=True)
class MultiGraph:
    """Immutable undirected multigraph on vertices 0..num_vertices-1.

    `edges` is a tuple of (u, v, mult) Python ints.  `edge_columns` holds
    the same records, in the same order, as a read-only int64 array of shape
    (3, len(edges)) whose rows are the u, v and mult columns; the checks,
    the aggregation and the degrees work on it.
    """

    num_vertices: int
    edges: Tuple[EdgeRecord, ...] = field(default=())

    def __post_init__(self):
        if self.num_vertices < 0:
            raise UsageError("num_vertices must be nonnegative")
        table = _int_table(self.edges).reshape(-1, 3).T
        u, v, m = table
        bad = (u < 0) | (v >= self.num_vertices) | (u >= v) | _bad_multiplicity(m)
        # the later of two records for one pair is a duplicate (the sort is stable)
        order = np.lexsort(table[1::-1])
        pairs = table[:2, order]
        same = pairs[:, 1:] == pairs[:, :-1]
        bad[order[1:][same[0] & same[1]]] = True
        i = _first(bad)
        if i >= 0:
            raise UsageError(_record_error(self.num_vertices, int(u[i]), int(v[i]),
                                           int(m[i])))
        self._set_columns(table)

    def _set_columns(self, table):
        table.setflags(write=False)
        object.__setattr__(self, "edge_columns", table)

    @classmethod
    def from_columns(cls, num_vertices: int, u, v, mult) -> "MultiGraph":
        """Build a graph from (u, v, mult) columns, summing duplicate pairs.

        Records may come in either orientation and any order; each
        multiplicity must lie in 1..2**53, and so must each pair's sum.
        """
        if num_vertices < 0:
            raise UsageError("num_vertices must be nonnegative")
        i = _first_bad_multiplicity(mult)
        if i >= 0:
            raise UsageError(f"edge ({u[i]},{v[i]}) has a record of multiplicity "
                             f"{mult[i]}, outside 1..2**53")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        lo, hi, mult = lo[order], hi[order], mult[order]
        new_pair = np.empty(mult.size, dtype=bool)
        new_pair[:1] = True
        np.not_equal(lo[1:], lo[:-1], out=new_pair[1:])
        new_pair[1:] |= hi[1:] != hi[:-1]
        starts = new_pair.nonzero()[0]
        lo, hi, sums = lo[starts], hi[starts], np.add.reduceat(mult, starts)
        # the int64 sums can wrap only when 1,024 or more records share a pair;
        # as doubles, such sums are at least 2**53
        if lo.size and (lo[0] < 0 or _top(hi) >= num_vertices or np.count_nonzero(lo == hi)
                        or _top(sums) > MAX_MULTIPLICITY
                        or mult.size >= 1024 and _top(np.add.reduceat(
                            mult, starts, dtype=float)) > MAX_MULTIPLICITY):
            exact = np.add.reduceat(mult.astype(object), starts)
            i = _first((lo < 0) | (hi >= num_vertices) | (lo == hi)
                       | (exact > MAX_MULTIPLICITY))
            raise UsageError(_record_error(num_vertices, int(lo[i]), int(hi[i]), exact[i]))
        g = object.__new__(cls)
        object.__setattr__(g, "num_vertices", num_vertices)
        object.__setattr__(g, "edges", tuple(zip(lo.tolist(), hi.tolist(), sums.tolist())))
        g._set_columns(np.array((lo, hi, sums)))
        return g

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build a graph from (u, v[, mult]) items, aggregating duplicates."""
        rows = [item if len(item) == 3 else (*item, 1) for item in edges]
        return cls.from_columns(num_vertices, *_int_table(rows).reshape(-1, 3).T)

    @property
    def num_edges(self) -> int:
        """Total edge count, multiplicities included."""
        return sum(m for _, _, m in self.edges)

    def degrees(self) -> Tuple[int, ...]:
        u, v, m = self.edge_columns
        n = self.num_vertices
        deg = np.bincount(u, m, n) + np.bincount(v, m, n)
        if np.count_nonzero(deg >= MAX_MULTIPLICITY):  # the doubles may have rounded
            deg = np.zeros(n, dtype=object)
            np.add.at(deg, u, m.astype(object))
            np.add.at(deg, v, m.astype(object))
            return tuple(deg.tolist())
        return tuple(deg.astype(np.int64).tolist())

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

    @classmethod
    def from_matchings(cls, perms) -> "BipartiteGadget":
        """The union of the perfect matchings u -> N + perm[u] between left
        0..N-1 and right N..2N-1, from a (k, N) int array of permutations;
        parallel matchings aggregate into multiplicities."""
        k, n = perms.shape
        graph = MultiGraph.from_columns(2 * n, np.arange(k * n) % n, perms.reshape(-1) + n,
                                        np.ones(k * n, dtype=np.int64))
        return cls(graph, tuple(range(n)), tuple(range(n, 2 * n)))

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
        if not tokens or tokens[0][0] == "#":
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
    # the records' own ints, not the columns': tolist() would allocate new
    # ones, which costs more than sorting the (already sorted) tuples
    return records_to_text("graph", (g.num_vertices, len(g.edges)),
                           (f"e {u} {v} {m}" for u, v, m in sorted(g.edges)))


def graph_from_text(text: str) -> MultiGraph:
    records = read_records(text, "graph", 2)
    num_vertices, declared = next(records)
    fields = []
    for lineno, line, tokens in records:
        if len(tokens) != 4 or tokens[0] != "e":
            raise UsageError(f"line {lineno}: bad edge record {line!r}")
        try:  # inline, not through int_fields: this loop is the hot one
            fields += map(int, tokens[1:])
        except ValueError:
            raise UsageError(f"line {lineno}: non-integer field in {line!r}") from None
    u, v, m = _int_table(fields).reshape(-1, 3).T
    del fields  # as large as the graph: free it before the aggregation
    if declared != len(m):
        raise UsageError(f"header declares {declared} records, found {len(m)}")
    k = _first_bad_multiplicity(m)
    if k >= 0:  # read the file again for the line of record k
        lineno, line, _ = next(islice(read_records(text, "graph", 2), k + 1, None))
        raise UsageError(f"line {lineno}: multiplicity {m[k]} is outside 1..2**53 "
                         f"in {line!r}")
    return MultiGraph.from_columns(num_vertices, u, v, m)


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
