"""Undirected multigraphs with per-edge multiplicities, plus a text format.

Parallel edges are stored as multiplicity counts and never expanded: the
reduction gadgets carry multiplicities in the billions at full scale, and
weight exponentiation is O(1) per record either way.

Graph file format (text):
    p graph <num_vertices> <num_edge_records>
    e <u> <v> <mult>        # one line per record, 0-based endpoints
The writer emits records sorted by (u, v); the reader accepts any order and
aggregates duplicate pairs.  Each record's multiplicity, like each pair's
sum, must lie in 1..2**53.  A graph holds its records as int64 columns, and
the reader converts its record block into them PARSE_BLOCK lines at a time.
`read_records` holds the syntax that this file, the E2LIN2 instance and the
block map share: ASCII, '#' and blank lines skipped, one integer header first.
"""

from dataclasses import FrozenInstanceError, dataclass
from itertools import islice
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import UsageError

EdgeRecord = Tuple[int, int, int]  # (u, v, mult) with u < v
MAX_MULTIPLICITY = 2 ** 53  # every integer up to it is exact as a double
PARSE_BLOCK = 1 << 14  # lines of a graph file's record block converted at a time


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


def _in_pair_order(u, v) -> bool:
    """Whether the pairs (u[i], v[i]) are ordered by u, then v."""
    u0, u1 = u[:-1], u[1:]
    return not (np.count_nonzero(u1 < u0) or np.count_nonzero((u1 == u0) & (v[1:] < v[:-1])))


def _first(mask):
    """Index of the first True in mask, or -1."""
    return int(mask.argmax()) if np.count_nonzero(mask) else -1


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..num_vertices-1.

    The records live in `edge_columns`, a read-only int64 array of shape
    (3, k) whose rows are the u, v and mult columns (dtype object when a
    field does not fit int64); the checks, the aggregation, the degrees,
    `==` and the writer work on it.  `edges` holds the same records, in the
    same order, as a tuple of (u, v, mult) Python ints, built on first use.
    """

    def __init__(self, num_vertices: int, edges: Tuple[EdgeRecord, ...] = ()):
        if num_vertices < 0:
            raise UsageError("num_vertices must be nonnegative")
        table = _int_table(edges).reshape(-1, 3).T
        u, v, m = table
        bad = (u < 0) | (v >= num_vertices) | (u >= v) | _bad_multiplicity(m)
        # the later of two records for one pair is a duplicate (the sort is stable)
        order = np.lexsort(table[1::-1])
        pairs = table[:2, order]
        same = pairs[:, 1:] == pairs[:, :-1]
        bad[order[1:][same[0] & same[1]]] = True
        i = _first(bad)
        if i >= 0:
            raise UsageError(_record_error(num_vertices, int(u[i]), int(v[i]), int(m[i])))
        self._store(num_vertices, table, edges)

    def _store(self, num_vertices, table, edges):
        table.setflags(write=False)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edge_columns", table)
        object.__setattr__(self, "_edges", edges)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def edges(self) -> Tuple[EdgeRecord, ...]:
        """The records as (u, v, mult) Python ints; built once, on first use."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(zip(*self.edge_columns.tolist())))
        return self._edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.edge_columns, other.edge_columns))

    def __hash__(self):
        return hash((self.num_vertices, self.edges))

    def __repr__(self):
        return f"MultiGraph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"

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
        if not _in_pair_order(lo, hi):
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
        g._store(num_vertices, np.array((lo, hi, sums)), None)
        return g

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build a graph from (u, v[, mult]) items, aggregating duplicates."""
        rows = [item if len(item) == 3 else (*item, 1) for item in edges]
        return cls.from_columns(num_vertices, *_int_table(rows).reshape(-1, 3).T)

    @property
    def num_edges(self) -> int:
        """Total edge count, multiplicities included, as an exact int."""
        return sum(self.edge_columns[2].tolist())

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
        on_left = np.zeros(self.graph.num_vertices, dtype=bool)
        on_left[list(self.left)] = True
        u, v = self.graph.edge_columns[0], self.graph.edge_columns[1]
        i = _first(on_left[u] == on_left[v])
        if i >= 0:
            raise UsageError(f"edge ({u[i]},{v[i]}) does not cross the bipartition")

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


def _lines(text: str):
    """text's lines, ended at '\n', '\r\n' or '\r'; a final line end closes
    the last line rather than opening an empty one."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _header(lines, kind: str, num_fields: int):
    """The `p <kind>` header's ints and the index of the line after it.

    Blank and '#' lines before it are skipped; a record before it, a
    malformed header or none raises UsageError.
    """
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != "p":
            raise UsageError(f"line {i + 1}: record before the 'p {kind}' header")
        if len(tokens) != num_fields + 2 or tokens[1] != kind:
            raise UsageError(f"line {i + 1}: bad header {line!r}")
        return int_fields(tokens[2:], i + 1, line), i + 1
    raise UsageError(f"missing 'p {kind}' header")


def read_records(text: str, kind: str, num_fields: int):
    """Yield the `p <kind>` header's ints, then (lineno, line, tokens) per record.

    Blank and '#' lines are skipped.  A malformed, missing or repeated header,
    or a record before it, raises UsageError naming the line.  Lines end at
    '\n', '\r\n' or '\r' (the universal newlines), not at the other breaks
    that str.splitlines honours, so a '\n' file's lines are numbered as
    `wc -l` counts them.
    """
    lines = _lines(text)
    header, start = _header(lines, kind, num_fields)
    yield header
    for lineno, line in enumerate(lines[start:], start=start + 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "p":
            raise UsageError(f"line {lineno}: duplicate header")
        yield lineno, line, tokens


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
    table = g.edge_columns
    if not _in_pair_order(table[0], table[1]):
        table = table[:, np.lexsort(table[1::-1])]
    return (records_to_text("graph", (g.num_vertices, table.shape[1]), ())
            + "e %d %d %d\n" * table.shape[1] % tuple(table.T.ravel().tolist()))


def _edge_fields(lines, lo: int, sep: str):
    """The fields of the records among lines[lo:lo + PARSE_BLOCK], as a (k, 3)
    int64 array (dtype object past int64) in file order.

    The chunk's lines are joined around `sep`, a token that the text does
    not contain, and split once, so each line's tokens end at a `sep`: every
    fifth token is one when every line holds four tokens; otherwise they are
    found in an object array of the tokens.  A line of four tokens, the first
    'e', is a record; a blank or '#' line is skipped; any other line is a
    fault.  The first fault, or an earlier record's non-integer field,
    raises the error that reading the lines one by one would raise.
    """
    chunk = lines[lo:lo + PARSE_BLOCK]
    n = len(chunk)
    tokens = f" {sep} ".join(chunk).split()
    tokens.append(sep)
    fault = None
    if len(tokens) == 5 * n and tokens[4::5].count(sep) == n and tokens[::5].count("e") == n:
        rows = range(n)
        del tokens[4::5], tokens[::4]
        fields = tokens
    else:
        words = np.array(tokens, dtype=object)
        ends = np.flatnonzero(words == sep)
        starts = np.concatenate(([0], ends[:-1] + 1))
        record = (ends - starts == 4) & (words[starts] == "e")
        for j in np.flatnonzero(~record).tolist():
            first = chunk[j].split()[:1]
            if first and first[0][0] != "#":
                fault = j
                record[j:] = False
                break
        rows = np.flatnonzero(record).tolist()
        fields = words[(starts[rows, None] + np.arange(1, 4)).ravel()]
    try:
        table = _int_table(list(map(int, fields)))
    except ValueError:  # name the first record with a non-integer field
        for j in rows:
            int_fields(chunk[j].split()[1:], lo + j + 1, chunk[j])
    if fault is not None:
        lineno, line = lo + fault + 1, chunk[fault]
        if line.split()[0] == "p":
            raise UsageError(f"line {lineno}: duplicate header")
        raise UsageError(f"line {lineno}: bad edge record {line!r}")
    return table.reshape(-1, 3)


def graph_from_text(text: str) -> MultiGraph:
    """Parse a graph file.

    The header is read as `read_records` reads it; the record block after it
    is converted PARSE_BLOCK lines at a time by `_edge_fields`, each field
    through `int`, so the errors are those of reading it line by line, in
    file order.  The records then go through `MultiGraph.from_columns`.
    """
    lines = _lines(text)
    (num_vertices, declared), start = _header(lines, "graph", 2)
    sep = "\x01"  # not NUL: numpy strips trailing NULs from a str it compares
    while sep in text:
        sep += "\x01"
    blocks = [_edge_fields(lines, lo, sep) for lo in range(start, len(lines), PARSE_BLOCK)]
    u, v, m = np.concatenate(blocks or [np.zeros((0, 3), dtype=np.int64)]).T
    del lines, blocks  # as large as the graph: free them before the aggregation
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
