"""Undirected multigraphs with per-edge multiplicities, plus a text format.

Parallel edges are stored as multiplicity counts and never expanded: the
reduction gadgets carry multiplicities in the billions at full scale, and
weight exponentiation is O(1) per record either way.

Every graph, however it is built, passes one check, `_canonical`, at a cost
of O(records): every field fits int64; 0 <= num_vertices <= 2**53; each
record's multiplicity, each pair's sum and each vertex degree lie within
2**53, so that the doubles the kernels read are exact.  A breach raises
UsageError naming the first offending record, line or vertex.  A graph holds
one canonical form: int64 columns sorted by (u, v), u < v, one record per pair,
ordered by `pair_order`, which takes np.lexsort only where its int64 key wraps.

Graph file format (text):
    p graph <num_vertices> <num_edge_records>
    e <u> <v> <mult>        # one line per record, 0-based endpoints
The writer emits the canonical records, every graph through the numpy digit
table of `digit_lines`; the reader accepts any order and orientation and
sums duplicate pairs.  One of two readers parses a file, once.  The byte
path, `_byte_fields`, takes a file whose header is its first line and whose
every record line is exactly 'e U V M', single spaces and 1 to 18 ASCII
digits per field, once blank and '#'-first lines are dropped: a few numpy
passes over its bytes gather the fields into int64 columns.  A file it
refuses is offered once more with each run of spaces and tabs squeezed to
one space and none left at a line's ends.  Any other text is read line by
line through `read_records`, which parses the odd but legal fields (signs,
'_', 19 or more digits).  Either reader raises the error of the first faulty
line, then of the record count, of a multiplicity (whose line the byte path
finds by walking `read_records`), and of the graph's own checks.

`read_records` holds the syntax that this file, the E2LIN2 instance and the
block map share: ASCII, '#' and blank lines skipped, one integer header
first.
"""

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import UsageError, check_int, shown

EdgeRecord = Tuple[int, int, int]  # (u, v, mult) with u < v
MAX_MULTIPLICITY = 2 ** 53  # every integer up to it is exact as a double
RECORD_MARKS = b"e   \n"  # the non-digit bytes of a record line 'e U V M\n', in order
STEPS = bytes((1, 1, 2, 2, 2))  # the step to each of them from the one before, capped at 2
WRITE_BLOCK = 1 << 14  # records per numpy pass of the writer, bounding its temporaries


def _record_error(num_vertices: int, u: int, v: int, m: int) -> str:
    """Why a pair failed: out of range, a self-loop, or its multiplicity."""
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        return f"edge ({u},{v}) out of range"
    if u == v:
        return f"self-loop at vertex {u}"
    return f"edge ({u},{v}) multiplicity {m} is outside 1..2**53"


def _first(mask):
    """Index of the first True in mask, or -1."""
    return int(mask.argmax()) if np.count_nonzero(mask) else -1


def pair_order(lo, hi, num_vertices: int):
    """The stable order of the int64 pairs (lo, hi), lo <= hi: an argsort of the
    key lo * n + hi whenever it cannot wrap (n <= 2**31, every id in [0, n)),
    else np.lexsort.  No pairs sort as the key's empty argsort."""
    if num_vertices <= 1 << 31 and lo.min(initial=0) >= 0 and hi.max(initial=-1) < num_vertices:
        key = lo * num_vertices
        key += hi  # in place: a second temporary raises the peak RSS
        return np.argsort(key, kind="stable")
    return np.lexsort((hi, lo))


def _canonical(num_vertices: int, u, v, mult):
    """The graph contract: the canonical (3, k) int64 table of the int64 columns
    u, v, mult in any order and orientation, each pair's records summed."""
    if check_int("num_vertices", num_vertices, -math.inf, math.inf) < 0:
        raise UsageError("num_vertices must be nonnegative")
    if num_vertices > MAX_MULTIPLICITY:
        raise UsageError(f"num_vertices {shown(num_vertices)} exceeds 2**53")
    # on a small graph's few records, argmin and argmax cost less than min and max
    if mult.size and (mult[mult.argmin()] < 1 or mult[mult.argmax()] > MAX_MULTIPLICITY):
        i = _first((mult < 1) | (mult > MAX_MULTIPLICITY))
        raise UsageError(f"edge ({u[i]},{v[i]}) has a record of multiplicity "
                         f"{mult[i]}, outside 1..2**53")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = pair_order(lo, hi, num_vertices)
    lo, hi, mult = lo[order], hi[order], mult[order]
    new_pair = np.empty(mult.size, dtype=bool)
    new_pair[:1] = True
    new_pair[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = new_pair.nonzero()[0]
    lo, hi, sums = lo[starts], hi[starts], np.add.reduceat(mult, starts)
    # the largest multiplicity times the count bounds every pair sum and degree;
    # past 2**53, 1,024 int64 summands can wrap, so their doubles decide too
    if lo.size and (lo[0] < 0 or hi[hi.argmax()] >= num_vertices or np.count_nonzero(lo == hi)
                    or int(mult[mult.argmax()]) * mult.size >= MAX_MULTIPLICITY):
        big = np.add.reduceat(mult, starts, dtype=float) > MAX_MULTIPLICITY
        i = _first((lo < 0) | (hi >= num_vertices) | (lo == hi) | (sums > MAX_MULTIPLICITY) | big)
        if i >= 0:
            exact = sum(mult[starts[i]:starts[i + 1] if i + 1 < starts.size else None].tolist())
            raise UsageError(_record_error(num_vertices, int(lo[i]), int(hi[i]), exact))
        ends, at = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        weights = np.concatenate((sums, sums))
        degrees = np.zeros(ends.size, dtype=np.int64)
        np.add.at(degrees, at, weights)
        i = _first((degrees > MAX_MULTIPLICITY) | (np.bincount(at, weights) > MAX_MULTIPLICITY))
        if i >= 0:
            raise UsageError(f"vertex {ends[i]} has degree {sum(weights[at == i].tolist())}, "
                             "past 2**53")
    return np.array((lo, hi, sums))


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..num_vertices-1.

    `MultiGraph(n, edges)` takes integer (u, v[, mult]) items in any order
    and orientation and sums the items of one pair; an item of another
    length or with a float field is refused, never regrouped or truncated.
    Every graph stores the canonical form of the module docstring in
    `edge_columns`, a read-only (3, k) int64 array of the u, v and mult
    rows, so `==` is graph equality.
    `edges` holds the same records as (u, v, mult) ints, built on first use.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Sequence[int]] = ()):
        rows = []
        for item in edges:
            if len(item) not in (2, 3):
                raise UsageError(f"record {tuple(item)} is not a (u, v) or (u, v, mult) item")
            rows.append(item if len(item) == 3 else (*item, 1))
        table = np.array(rows).reshape(-1, 3)
        if table.dtype != np.int64:
            # no records, or floats, strings or ints past int64: name the first bad one
            for row in rows:
                if not all(isinstance(x, numbers.Integral) for x in row):
                    raise UsageError(f"record {tuple(row)} has a non-integer field")
                if not all(-2 ** 63 <= x < 2 ** 63 for x in row):
                    raise UsageError(f"record {tuple(row)} has a field outside int64")
            table = np.array(rows, dtype=np.int64).reshape(-1, 3)
        self._store(num_vertices, _canonical(num_vertices, *table.T))

    def _store(self, num_vertices, table):
        table.setflags(write=False)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edge_columns", table)
        object.__setattr__(self, "_edges", None)

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
        return hash((self.num_vertices, self.edge_columns.tobytes()))

    def __repr__(self):
        return f"MultiGraph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"

    @classmethod
    def from_columns(cls, num_vertices: int, u, v, mult) -> "MultiGraph":
        """Build a graph from integer (u, v, mult) columns, as from items."""
        try:
            u, v, mult = (np.asarray(c).astype(np.int64, casting="safe", copy=False)
                          for c in (u, v, mult))
        except TypeError:
            raise UsageError("edge columns must be integer arrays within int64") from None
        g = object.__new__(cls)
        g._store(num_vertices, _canonical(num_vertices, u, v, mult))
        return g

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build a graph from (u, v[, mult]) items, aggregating duplicates."""
        return cls(num_vertices, edges)

    @property
    def num_edges(self) -> int:
        """Total edge count, multiplicities included, as an exact int."""
        return sum(self.edge_columns[2].tolist())

    def degrees(self) -> Tuple[int, ...]:
        """Each vertex's degree; the doubles are exact, as no degree passes 2**53."""
        u, v, m = self.edge_columns
        deg = np.bincount(u, m, self.num_vertices) + np.bincount(v, m, self.num_vertices)
        return tuple(deg.astype(np.int64).tolist())

    def is_regular(self) -> bool:
        return len(set(self.degrees())) <= 1

    def regular_degree(self) -> int:
        deg = self.degrees()
        if len(set(deg)) > 1:
            raise UsageError("graph is not regular")
        return deg[0] if deg else 0

    def disjoint_union(self, other: "MultiGraph") -> "MultiGraph":
        # shifted ids stay below 2**54; the contract refuses a union past 2**53
        shift = self.num_vertices
        table = np.concatenate((self.edge_columns, other.edge_columns + [[shift], [shift], [0]]),
                               axis=1)
        return MultiGraph.from_columns(shift + other.num_vertices, *table)


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
        u, v, _ = self.graph.edge_columns
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


def read_records(text: str, kind: str, num_fields: int, maxsplit: int = -1):
    """Yield the `p <kind>` header's ints, then (lineno, line, tokens) per record,
    a record's tokens split at whitespace at most `maxsplit` times.

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
        tokens = line.split(None, maxsplit)
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


@lru_cache(maxsize=None)
def _digit_words():
    """4-byte ASCII words as uint32: 0..9999 zero-padded; with leading zeros NUL
    (0 as '0'); the same with 0 all NUL; then 'e ', ' ' and '\n', NUL-padded.
    Built in uint8 and uint16, so no temporary passes glibc's 128 KB mmap threshold."""
    digits = (np.arange(10000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
    lead = np.maximum.accumulate(digits, axis=1) > 0
    words = np.concatenate((digits + 48, np.where(lead | (np.arange(4) == 3), digits + 48, 0),
                            np.where(lead, digits + 48, 0), np.array(
                                [[101, 32, 0, 0], [32, 0, 0, 0], [10, 0, 0, 0]], np.uint8)))
    return words.view(np.uint32).ravel()


def digit_lines(fields, marks) -> str:
    """Lines from fields, (k, c) arrays of nonnegative int64, one row per line: each
    int after its field's mark, 'e ' or ' ', as the words of its 4-digit groups,
    right-aligned; '\n' ends each line, and every NUL is dropped."""
    words = _digit_words()
    widths = [(len(str(x.max())) + 3) // 4 for x in fields]
    k = fields[0].shape[0]
    out = np.empty((k, sum(x.shape[1] * (w + 1) for x, w in zip(fields, widths)) + 1),
                   dtype=np.uint32)
    end = 0
    for x, width, mark in zip(fields, widths, marks):
        cells = out[:, end:end + x.shape[1] * (width + 1)].reshape(k, -1, width + 1)
        end += x.shape[1] * (width + 1)
        cells[..., 0] = words[30000 if mark == "e " else 30001]
        for j in range(width):  # the groups from the ones up
            q = x // 10000
            cells[..., width - j] = words[x - q * 10000 + (20000 if j else 10000) * (q == 0)]
            x = q
    out[:, end] = words[30002]
    return out.tobytes().translate(None, b"\0").decode("ascii")


def graph_to_text(g: MultiGraph) -> str:
    """The graph file of g's canonical records, written by `digit_lines`
    WRITE_BLOCK records at a time; a graph with no records is its header."""
    table = g.edge_columns
    head = records_to_text("graph", (g.num_vertices, table.shape[1]), ())
    return "".join([head, *(digit_lines(table[:, i:i + WRITE_BLOCK, None], ("e ", " ", " "))
                            for i in range(0, table.shape[1], WRITE_BLOCK))])


def _byte_fields(text: str):
    """The header ints and the (k, 3) int64 records of a graph file whose
    header is its first line and whose every record line is 'e U V M' with
    single spaces and fields of 1 to 18 ASCII digits, read in numpy passes
    over its bytes; None for any other text.  Lines end as `_lines` ends
    them, and blank lines and lines that start with '#' are dropped first."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    b = np.frombuffer(raw, dtype=np.uint8)
    if b"#" in raw or b"\n\n" in raw or raw[:1] == b"\n":
        starts = np.concatenate(([0], np.flatnonzero(b[:-1] == 10) + 1))
        first = b[starts]
        keep = (first != 35) & (first != 10)
        raw = b[np.repeat(keep, np.diff(starts, append=b.size))].tobytes()
        b = np.frombuffer(raw, dtype=np.uint8)
    h = raw.find(b"\n") % (len(raw) + 1)  # the header's end: its '\n', or the end of the text
    try:
        header, _ = _header([raw[:h].decode("ascii")], "graph", 2)
    except UsageError:
        return None
    records = b[h:]  # the header's '\n', then the record lines
    if records.size < 2:
        return header, np.zeros((0, 3), dtype=np.int64)
    digits = records - 48  # a digit's value; every other byte maps to 10 or more
    marks = np.flatnonzero(digits >= 10)
    found = marks.size
    if records[-1] != 10:  # the last line ends at the end of the text
        marks = np.append(marks, records.size)
    # a line's non-digit bytes are 'e   \n'; it steps 1 from the last line's
    # '\n' to its 'e', 1 to its first space, then its fields' widths plus one
    step = marks[1:] - marks[:-1]
    k, extra = divmod(step.size, 5)
    top = int(step.max())
    if extra or top > 19 or records[marks[1:found]].tobytes() != (RECORD_MARKS * k)[:found - 1]:
        return None
    step = step.astype(np.uint8)
    if np.minimum(step, 2).tobytes() != STEPS * k:
        return None
    # Horner over each field's digits, right-aligned to the widest field
    spans = step.reshape(k, 5).T[2:].copy()  # (3, k): each field's width plus one
    at = marks[1:].reshape(k, 5).T[2:] - (top - 1)  # where a field of width top - 1 starts
    fields = np.zeros((3, k), dtype=np.int64)
    for place in range(top - 2, -1, -1):
        digit = digits.take(at, mode="clip")  # a clipped index is left of the field
        if place:  # every field has a ones digit
            digit *= (spans > place + 1).view(np.uint8)
        fields *= 10
        fields += digit
        at += 1
    return header, fields.T


def _squeezed(text: str) -> str:
    """text with each run of spaces and tabs made one space and none left at a
    line's ends: every line that holds a token keeps its tokens."""
    text = text.replace("\t", " ")
    while "  " in text:
        text = text.replace("  ", " ")
    for end in "\n\r" if "\r" in text else "\n":
        text = text.replace(" " + end, end).replace(end + " ", end)
    return text.strip(" ")


def _graph_from_records(text: str) -> MultiGraph:
    """Read a graph file line by line through `read_records`; a fault raises
    the error of its first faulty line, then of the record count, of a
    multiplicity, or of the graph's own checks."""
    records = read_records(text, "graph", 2)
    num_vertices, declared = next(records)
    rows, places = [], []
    for lineno, line, tokens in records:
        if len(tokens) != 4 or tokens[0] != "e":
            raise UsageError(f"line {lineno}: bad edge record {line!r}")
        rows.append(int_fields(tokens[1:], lineno, line))
        places.append((lineno, line))
    if declared != len(rows):
        raise UsageError(f"header declares {declared} records, found {len(rows)}")
    for (_, _, m), (lineno, line) in zip(rows, places):
        if not 0 < m <= MAX_MULTIPLICITY:
            raise UsageError(f"line {lineno}: multiplicity {m} is outside 1..2**53 in {line!r}")
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # a vertex id past int64: name the first bad pair from the exact ids
        MultiGraph(num_vertices)  # a bad vertex count comes first
        sums = {}
        for u, v, m in rows:
            pair = (min(u, v), max(u, v))
            sums[pair] = sums.get(pair, 0) + m
        (u, v), m = min((p, m) for p, m in sums.items() if p[0] < 0 or p[1] >= num_vertices
                        or p[0] == p[1] or m > MAX_MULTIPLICITY)
        raise UsageError(_record_error(num_vertices, u, v, m)) from None
    return MultiGraph.from_columns(num_vertices, *table.T)


def graph_from_text(text: str) -> MultiGraph:
    """Parse a graph file, with the errors of reading it line by line."""
    parsed = _byte_fields(text)
    if parsed is None:  # squeeze only a refused text: its scans would slow a strict one
        squeezed = _squeezed(text)
        parsed = _byte_fields(squeezed) if squeezed != text else None
    if parsed is None:
        return _graph_from_records(text)
    (num_vertices, declared), table = parsed
    if declared != len(table):
        raise UsageError(f"header declares {declared} records, found {len(table)}")
    mult = table[:, 2]
    i = _first((mult < 1) | (mult > MAX_MULTIPLICITY))
    if i >= 0:  # its line is the i-th record line that read_records yields
        lineno, line, _ = next(islice(read_records(text, "graph", 2), i + 1, None))
        raise UsageError(f"line {lineno}: multiplicity {mult[i]} is outside 1..2**53 in {line!r}")
    return MultiGraph.from_columns(num_vertices, *table.T)


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
    n = rows * cols
    return MultiGraph(n, [(x, x + 1) for x in range(n) if (x + 1) % cols]
                      + [(x, x + cols) for x in range(n - cols)])


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
    """Copy of g with each multiplicity times factor, checked before it can wrap."""
    u, v, m = g.edge_columns
    i = _first(m > (MAX_MULTIPLICITY // factor if factor > 0 else 0))
    if i >= 0:
        raise UsageError(_record_error(g.num_vertices, int(u[i]), int(v[i]), int(m[i]) * factor))
    return MultiGraph.from_columns(g.num_vertices, u, v, m * factor if m.size else m)
