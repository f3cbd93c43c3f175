"""Differential tests of the array edge-record layer against per-record loops.

`tests/oracles.py` holds the loops: a record-by-record check, a dict
aggregation, the reduction's wiring and matchings, the two file writers and
the structure audit.  The graphs, reductions and audits built on int64
columns must give `==` graphs, the same bytes, the same audit fields and,
for a bad record, the same message as those loops.  Every graph passes
one contract check and holds one canonical form, and a graph's `edges` tuple is
built from its columns only when it is first read, so these tests also
check that tuple, `==`, the hash and the writer against the records
themselves.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from twospin import graphs
from twospin.e2lin2 import random_instance
from twospin.errors import UsageError
from twospin.graphs import (MAX_MULTIPLICITY, WRITE_BLOCK, BipartiteGadget, MultiGraph,
                            graph_from_text, graph_to_text, pair_order, scaled_graph)
from twospin.reduction import (GadgetParams, audit_reduction_graph,
                               blocks_to_text, build_reduction_graph)

MULTS = (1, 2, 3, 2 ** 52, MAX_MULTIPLICITY - 1, MAX_MULTIPLICITY)


def _outcome(build, *args):
    """The graph's records, or the message of the UsageError it raised."""
    try:
        return build(*args).edges
    except UsageError as exc:
        return str(exc)


def _items(rng, n, count):
    """Random (u, v[, mult]) items on n >= 2 vertices: both orientations,
    repeated pairs, multiplicities up to 2**53."""
    items = []
    for _ in range(count):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        v = v if v != u else (u + 1) % n
        if rng.random() < 0.3 and items:
            u, v = items[int(rng.integers(len(items)))][:2][::int(rng.choice([1, -1]))]
        m = int(rng.choice(MULTS)) if rng.random() < 0.2 else int(rng.integers(1, 4))
        items.append((u, v) if m == 1 and rng.random() < 0.5 else (u, v, m))
    return items


def _columns(n, items):
    """from_columns on contiguous int64 columns of the items."""
    rows = [item if len(item) == 3 else (*item, 1) for item in items]
    return MultiGraph.from_columns(n, *np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy())


@pytest.mark.parametrize("n", [2, 5, 40, 5 * 10 ** 9])
def test_aggregation_matches_the_dict_loop(n):
    # 5e9 vertices: a packed u * n + v key would overflow int64
    rng = np.random.default_rng(n)
    for _ in range(60):
        items = _items(rng, n, int(rng.integers(0, 25)))
        expected = oracles.aggregated_records(n, items)
        assert _outcome(MultiGraph, n, items) == expected
        assert _outcome(MultiGraph.from_edges, n, items) == expected
        assert _outcome(_columns, n, items) == expected
        if isinstance(expected, tuple):
            assert MultiGraph.from_edges(n, items) == MultiGraph(n, expected)


# bad records for the item constructors; each keeps every record's own multiplicity
# in 1..2**53, whose violation has an error of its own
AGGREGATE_FAULTS = [
    (-1, 2), (2, 7), (7, 7), (3, 3, 2), (0, -5), (10 ** 20, 1), (1, -10 ** 20),
    (0, 1, MAX_MULTIPLICITY), (1, 0, MAX_MULTIPLICITY),  # together past 2**53
    (5, 6, MAX_MULTIPLICITY),  # vertex 5's degree past 2**53
]


def test_aggregation_errors_name_the_old_first_record():
    rng = np.random.default_rng(3)
    for _ in range(200):
        items = [(0, 1), (2, 1, 2), (2, 3), (3, 4, 5), (4, 5), (0, 1, 3)]
        for _ in range(int(rng.integers(1, 4))):
            bad = AGGREGATE_FAULTS[int(rng.integers(len(AGGREGATE_FAULTS)))]
            items.insert(int(rng.integers(len(items) + 1)), bad)
        expected = oracles.item_records(7, items)
        assert _outcome(MultiGraph, 7, items) == expected
        assert _outcome(MultiGraph.from_edges, 7, items) == expected


def test_a_pair_sum_past_int64_is_refused_with_its_exact_value():
    items = [(0, 1, MAX_MULTIPLICITY)] * 2048 + [(1, 2)]
    message = f"edge (0,1) multiplicity {2048 * MAX_MULTIPLICITY} is outside 1..2**53"
    assert oracles.aggregated_records(3, items) == message
    assert _outcome(MultiGraph.from_edges, 3, items) == message


# bad records for the constructor, in the (u, v, mult) form; the valid
# records put vertices 3 and 4 at degree 2**53 exactly
RECORD_FAULTS = [
    (-1, 2, 1), (2, 7, 1), (4, 4, 1), (1, 2, 0), (1, 2, -4),
    (1, 2, MAX_MULTIPLICITY + 1), (1, 2, 10 ** 400), (10 ** 20, 1, 1), (0, 10 ** 20, 1),
    (2, 3, 1), (5, 3, 1),  # a second record for (2, 3), or a new pair, passes vertex 3's degree
]


def test_constructor_errors_name_the_old_first_record():
    rng = np.random.default_rng(4)
    valid = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, MAX_MULTIPLICITY - 1), (4, 6, 1)]
    for _ in range(300):
        records = list(valid)
        for _ in range(int(rng.integers(1, 4))):
            bad = RECORD_FAULTS[int(rng.integers(len(RECORD_FAULTS)))]
            records.insert(int(rng.integers(len(records) + 1)), bad)
        expected = oracles.item_records(7, records)
        assert _outcome(MultiGraph, 7, tuple(records)) == expected
    # valid records in any order and orientation build the canonical graph
    shuffled = tuple((v, u, m) if k % 2 else (u, v, m) for k, (u, v, m) in enumerate(valid[::-1]))
    assert MultiGraph(7, shuffled).edges == tuple(valid)
    assert MultiGraph(7, shuffled) == MultiGraph(7, valid)
    assert graph_to_text(MultiGraph(7, shuffled)) == oracles.graph_text(7, valid)


def test_vertex_ids_past_int64_are_refused():
    # no id past 2**53 is in range, so no field need go past int64
    for items in ([(10 ** 25, 0)], [(0, 1), (5, -10 ** 20, 2)], [(0, 1, 10 ** 400)]):
        assert _outcome(MultiGraph, 7, items) == oracles.item_records(7, items)
        assert _outcome(MultiGraph.from_edges, 7, items) == oracles.item_records(7, items)
    assert _outcome(MultiGraph, 10 ** 30, [(0, 1)]) == f"num_vertices {10 ** 30} exceeds 2**53"
    # the reader gives the line-by-line reader's messages, from the ids in the file
    texts = ["p graph 7 1\ne 0 10000000000000000000000000 1\n",
             "p graph 7 3\ne 0 1 1\ne 5 -100000000000000000000 2\ne 2 -99999999999999999999 1\n",
             "p graph 7 2\ne 3 3 1\ne 100000000000000000000 1 1\n",
             "p graph -7 1\ne 100000000000000000000 1 1\n",
             f"p graph {10 ** 30} 2\ne 0 10000000000000000000000000 1\ne 0 1 1\n",
             "p graph 7 2\ne 0 1 1\ne 0 10000000000000000000000000 100000000000000000000\n",
             # pair (0, 1) sums past 2**53 and sorts before the pair past int64
             f"p graph 7 3\ne 0 1 {MAX_MULTIPLICITY}\ne 0 1 1\ne 5 100000000000000000000 1\n"]
    for text in texts:
        with pytest.raises(UsageError) as exc:
            graph_from_text(text)
        assert str(exc.value) == oracles.graph_file(text)


def test_non_integer_fields_are_refused():
    # a float field is refused, never truncated: (0, 1.9) is not the edge (0, 1)
    assert _outcome(MultiGraph, 3, [(0, 1.9)]) == "record (0, 1.9, 1) has a non-integer field"
    assert _outcome(MultiGraph.from_edges, 3, [(0, 1, 2.7)]) == (
        "record (0, 1, 2.7) has a non-integer field")
    for items in ([(0, 1), (2.0, 3)], [(1, 2), (0, 1, np.float64(2)), (0, 1, 10 ** 20)],
                  [(1, 2), (0, 1, 10 ** 20), (3, 4, 0.5)], [(0, 1, 10 ** 20), (3, 4.5)],
                  [("0", "1")], [(1, 2, 1), (2, 3, float("nan"))]):
        expected = oracles.item_records(7, items)
        assert expected.startswith("record ")
        assert _outcome(MultiGraph, 7, items) == expected
        assert _outcome(MultiGraph.from_edges, 7, items) == expected
    # numpy integers and bools are integers
    assert MultiGraph(3, [(np.int64(0), np.uint64(2), True)]).edges == ((0, 2, 1),)


@pytest.mark.parametrize("n, items, bad", [
    (5, [(0, 2, 1, 3), (1, 2, 4, 1), (3, 1, 0, 4)], "(0, 2, 1, 3)"),  # not cut into other records
    (3, [(0,)], "(0,)"),  # a UsageError, not numpy's ValueError
    (3, [(0, 1), ()], "()"),
    (7, [(0, 1, 1.5), (1, 2, 1, 1, 1)], "(1, 2, 1, 1, 1)"),  # before the float field
])
def test_items_of_other_lengths_are_refused(n, items, bad):
    message = f"record {bad} is not a (u, v) or (u, v, mult) item"
    assert oracles.item_records(n, items) == message
    assert _outcome(MultiGraph, n, items) == message
    assert _outcome(MultiGraph.from_edges, n, items) == message


def _valid_records(rng, n, count):
    """Sorted, distinct records on n vertices, every sum in 1..2**53."""
    while True:
        records = oracles.aggregated_records(n, _items(rng, n, count))
        if isinstance(records, tuple):
            return records


def _column_arrays(records):
    return [np.array(column, dtype=np.int64) for column in zip(*records)] or [
        np.zeros(0, dtype=np.int64)] * 3


def _built(n, records):
    """The graph of sorted, distinct records, from each builder."""
    return {"constructor": MultiGraph(n, records),
            "from_edges": MultiGraph.from_edges(n, records),
            "from_columns": MultiGraph.from_columns(n, *_column_arrays(records)),
            "text": graph_from_text(oracles.graph_text(n, records))}


def _unbuilt(g):
    """Whether g has not built its edges tuple yet."""
    return vars(g)["_edges"] is None


def test_edges_tuple_is_built_on_first_use():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        records = _valid_records(rng, n, int(rng.integers(0, 12)))
        for name, g in _built(n, records).items():
            assert _unbuilt(g), name
            assert g.num_edges == sum(m for _, _, m in records)
            assert graph_to_text(g) == oracles.graph_text(n, records)
            assert hash(g) == hash(MultiGraph(n, records))
            assert _unbuilt(g), name
            assert g.edges == records and g.edges is g.edges
        side, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        perms = np.array([rng.permutation(side) for _ in range(k)])
        h = BipartiteGadget.from_matchings(perms)
        assert _unbuilt(h.graph)  # validating the gadget read only the columns
        assert h.graph.edges == oracles.aggregated_records(
            2 * side, [(i, side + int(p[i])) for p in perms for i in range(side)])


def test_equality_follows_the_records():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        records = _valid_records(rng, n, int(rng.integers(1, 10)))
        k = int(rng.integers(len(records)))
        u, v, m = records[k]
        moved = oracles.aggregated_records(n, records[:k] + ((u, (v + 1) % n or 1, m),)
                                           + records[k + 1:])
        raised = records[:k] + ((u, v, m + 1 if m < MAX_MULTIPLICITY else 1),) + records[k + 1:]
        variants = [records, raised] + ([moved] if isinstance(moved, tuple) else [])
        for first in variants:
            for second in variants:
                for g in _built(n, first).values():
                    for h in _built(n, second).values():
                        assert (g == h) == (first == second)
                        assert g != MultiGraph(n + 1, first)
                        if first == second:
                            assert hash(g) == hash(h)
        # the records' order is not part of the graph
        reordered, g = MultiGraph(n, records[::-1]), MultiGraph(n, records)
        assert reordered == g and hash(reordered) == hash(g)


def test_a_graph_of_2_53_vertices_costs_its_records():
    # no construction makes a per-vertex array, which could not be allocated here
    n, cut = MAX_MULTIPLICITY, 2 ** 50
    records = ((0, 5, 4), (5, 2 ** 40, 2), (cut, n - 1, 6))
    built = list(_built(n, records).values())
    built.append(MultiGraph(cut, records[:2]).disjoint_union(
        MultiGraph(n - cut, ((0, n - 1 - cut, 6),))))
    built.append(scaled_graph(MultiGraph(n, [(u, v, m // 2) for u, v, m in records]), 2))
    for g in built:
        assert g.num_edges == 12
        assert g == built[0] and hash(g) == hash(built[0])
        assert g.edges == records
        assert graph_to_text(g) == oracles.graph_text(n, records)
    assert built[0] != MultiGraph(n - 1, records[:2]) != MultiGraph(n, records[:2])


def _of_width(rng, width, low, top):
    """A random int of `width` decimal digits in [low, top)."""
    return int(rng.integers(max(low, 10 ** (width - 1) if width > 1 else 0),
                            min(10 ** width, top)))


def _wide_records(rng, count):
    """`count` sorted records on 2**53 vertices whose fields have 1 to 16
    digits, with 2**53 itself as one multiplicity and every degree within 2**53."""
    n = MAX_MULTIPLICITY
    records = {(n - 2, n - 1): n} if count else {}
    degree = {n - 2: n, n - 1: n}
    while len(records) < count:
        u, v = sorted(_of_width(rng, int(rng.integers(1, 17)), 0, n) for _ in range(2))
        room = n - max(degree.get(u, 0), degree.get(v, 0))
        m = min(_of_width(rng, int(rng.integers(1, 17)), 1, n + 1), room)
        if u == v or (u, v) in records or m < 1:
            continue
        records[(u, v)] = m
        degree[u] = degree.get(u, 0) + m
        degree[v] = degree.get(v, 0) + m
    return sorted((u, v, m) for (u, v), m in records.items())


@pytest.mark.parametrize("count", [0, 1, 2, 128, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1])
def test_graph_writer_matches_the_oracle(count):
    # the numpy writer at every count, in its own blocks and in blocks of 7;
    # fields of 1 to 16 digits, up to 2**53 vertices and multiplicities
    records = _wide_records(np.random.default_rng(count), count)
    g = MultiGraph.from_columns(MAX_MULTIPLICITY, *np.array(records, dtype=np.int64)
                                .reshape(-1, 3).T)
    expected = oracles.graph_text(MAX_MULTIPLICITY, records)
    with pytest.MonkeyPatch.context() as patch:
        for block in (WRITE_BLOCK, 7):
            patch.setattr(graphs, "WRITE_BLOCK", block)
            assert graph_to_text(g) == expected, block
    assert graph_from_text(expected) == g


def _sorted_outcome(n, u, v, m):
    """from_columns' canonical table, or the message of its refusal."""
    try:
        return MultiGraph.from_columns(n, u, v, m).edge_columns.tolist()
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [3000, 2 ** 31, 2 ** 31 + 1, 2 ** 40])
def test_key_sort_matches_lexsort(n):
    # the key sort runs for n <= 2**31 at every size; out-of-range ids, and
    # every n past 2**31, keep np.lexsort: both must give the oracle's table
    # or message
    rng = np.random.default_rng(n % 9973)
    ids = np.concatenate((np.arange(1500), n - 1 - np.arange(1500)))
    for trial in range(24):
        k = int(rng.integers(1, 3072))
        first, second = rng.integers(ids.size, size=(2, k))
        u, v = ids[first], ids[np.where(first == second, (first + 1) % ids.size, second)]
        m = rng.integers(1, 4, k)
        heavy = rng.integers(k, size=2)  # a pair in the same or the other orientation
        u[heavy[1]], v[heavy[1]] = (v, u)[trial % 2][heavy[0]], (u, v)[trial % 2][heavy[0]]
        m[heavy] = MAX_MULTIPLICITY // 2 + 1 if trial % 6 == 5 else MAX_MULTIPLICITY // 4
        at = int(rng.integers(k))
        fault = trial % 6
        if fault == 1:
            v[at] = u[at]  # a self-loop
        elif fault == 2:
            u[at] = -int(rng.integers(1, 3))
        elif fault == 3:
            v[at] = n + int(rng.integers(0, 2))
        elif fault == 4:
            m[at] = MAX_MULTIPLICITY  # a pair sum or degree past 2**53
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if fault in (0, 1, 4, 5):
            assert np.array_equal(pair_order(lo, hi, n), np.lexsort((hi, lo)))
        keyed = _sorted_outcome(n, u, v, m)
        expected = oracles.aggregated_records(n, list(zip(u.tolist(), v.tolist(), m.tolist())))
        assert keyed == (expected if isinstance(expected, str)
                         else [list(column) for column in zip(*expected)]), (trial, fault)


def test_num_edges_is_exact_past_int64():
    k = 2048
    mult = np.full(k, MAX_MULTIPLICITY)
    g = MultiGraph.from_columns(2 * k, np.arange(k), np.arange(k, 2 * k), mult)
    assert int(mult.sum()) == 0  # an int64 sum wraps
    assert g.num_edges == k * MAX_MULTIPLICITY == 2 ** 64
    assert _unbuilt(g)


def test_gadget_crossing_check_names_the_first_edge():
    rng = np.random.default_rng(8)
    for _ in range(100):
        side = int(rng.integers(2, 6))
        left = tuple(int(x) for x in rng.permutation(2 * side)[:side])
        right = tuple(sorted(set(range(2 * side)) - set(left)))
        records = _valid_records(rng, 2 * side, int(rng.integers(1, 8)))
        order = rng.permutation(len(records))
        records = tuple(records[i] for i in order)
        # the graph holds its records in (u, v) order, whatever order they came in
        inside = [(u, v) for u, v, _ in sorted(records) if (u in left) == (v in left)]
        graph = MultiGraph(2 * side, records)
        if not inside:
            assert BipartiteGadget(graph, left, right).graph is graph
            continue
        with pytest.raises(UsageError) as exc:
            BipartiteGadget(graph, left, right)
        assert str(exc.value) == "edge (%d,%d) does not cross the bipartition" % inside[0]


def test_degrees_past_two_to_the_53_are_refused():
    # the kernels read degrees as doubles, exact up to 2**53
    records = ((0, 1, MAX_MULTIPLICITY), (0, 2, 1), (1, 2, MAX_MULTIPLICITY))
    message = f"vertex 0 has degree {MAX_MULTIPLICITY + 1}, past 2**53"
    assert oracles.aggregated_records(3, records) == message
    assert _outcome(MultiGraph, 3, records) == message
    assert _outcome(_columns, 3, records) == message
    text = oracles.graph_text(3, records)
    assert oracles.graph_file(text) == message == _outcome(graph_from_text, text)
    # 2,048 records of 2**53 at one vertex: an int64 sum of its degree wraps to 0
    star = [(0, k, MAX_MULTIPLICITY) for k in range(1, 2049)]
    assert _outcome(MultiGraph, 2049, star) == f"vertex 0 has degree {2 ** 64}, past 2**53"
    # a degree of 2**53 exactly is kept, exact as a double
    g = MultiGraph(3, ((0, 1, MAX_MULTIPLICITY - 1), (0, 2, 1), (1, 2, 1)))
    assert g.degrees() == (MAX_MULTIPLICITY, MAX_MULTIPLICITY, 2)
    assert not g.is_regular()


def _reference(inst, params):
    """The reference build of `inst` under `params`, from the oracles."""
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=params.seed,
                                                         spawn_key=(i,)))
            for i in range(inst.num_vars)]
    return oracles.reduction_records(inst.num_vars, inst.equations, params.delta,
                                     params.delta_prime, params.block_size, rngs)


SHAPES = [(2, 1, 1, 1, 1), (3, 3, 1, 2, 1), (4, 3, 2, 2, 2), (5, 8, 3, 3, 1),
          (16, 50, 100, 4, 2)]  # the last is the benchmark's large shape


@pytest.mark.parametrize("shape", SHAPES)
def test_build_matches_the_reference_records_and_files(shape):
    n, m, t, delta, delta_prime = shape
    for seed in (1, 77, 2 ** 31 - 1):
        inst = random_instance(n, m, seed)
        params = GadgetParams(delta, delta_prime, t, seed)
        rg = build_reduction_graph(inst, params)
        records, u_blocks, v_blocks, num_vertices = _reference(inst, params)
        assert rg.graph.edges == records
        assert rg.graph == MultiGraph(num_vertices, records)
        assert [list(map(list, b)) for b in rg.u_blocks] == u_blocks
        assert [list(map(list, b)) for b in rg.v_blocks] == v_blocks
        assert graph_to_text(rg.graph) == oracles.graph_text(num_vertices, records)
        assert blocks_to_text(rg) == oracles.blocks_text(
            inst.num_vars, inst.equations, t, delta, delta_prime, seed,
            u_blocks, v_blocks)
        assert graph_from_text(graph_to_text(rg.graph)) == rg.graph


def _audit_fields(rg, graph):
    p = rg.params
    return oracles.audit_fields(graph.num_vertices, graph.edges, rg.instance.equations,
                                rg.u_blocks, rg.v_blocks, p.delta, p.delta_prime,
                                p.block_size)


def _failed(audit):
    fields = dataclasses.asdict(audit)
    assert all(type(value) in (bool, int) for value in fields.values())  # JSON-ready
    return {name for name, value in fields.items() if value is False}


@pytest.mark.parametrize("shape", SHAPES[1:4])
def test_audit_of_altered_graphs_matches_the_reference(shape):
    n, m, t, delta, delta_prime = shape
    rng = np.random.default_rng(m)
    for seed in range(4):
        rg = build_reduction_graph(random_instance(n, m, seed),
                                   GadgetParams(delta, delta_prime, t, seed))
        audit = audit_reduction_graph(rg)
        assert dataclasses.asdict(audit) == _audit_fields(rg, rg.graph)
        assert audit.passed
        owner = {v: i for i in range(rg.instance.num_vars)
                 for v in rg.u_side(i) + rg.v_side(i)}
        records = list(rg.graph.edges)
        crossing = [k for k, (u, v, _) in enumerate(records) if owner[u] != owner[v]]
        inside = [k for k, (u, v, _) in enumerate(records) if owner[u] == owner[v]]

        # one inter-gadget record moved to another vertex of another gadget
        k = crossing[int(rng.integers(len(crossing)))]
        u, v, mult = records[k]
        others = [x for x in range(rg.graph.num_vertices)
                  if owner[x] not in (owner[u], owner[v])]
        moved = list(records)
        moved[k] = (u, others[int(rng.integers(len(others)))], mult)
        g = MultiGraph.from_edges(rg.graph.num_vertices, moved)
        audit = audit_reduction_graph(dataclasses.replace(rg, graph=g))
        assert dataclasses.asdict(audit) == _audit_fields(rg, g)
        assert {"regular", "inter_multiplicities_ok", "wiring_ok"} <= _failed(audit)
        assert "block_sizes_ok" not in _failed(audit)

        # one multiplicity raised by one, within a gadget and across two
        for chosen, failing in ((inside, {"regular", "intra_multiplicities_ok"}),
                                (crossing, {"regular", "inter_multiplicities_ok",
                                            "wiring_ok"})):
            k = chosen[int(rng.integers(len(chosen)))]
            raised = list(records)
            raised[k] = records[k][:2] + (records[k][2] + 1,)
            g = MultiGraph(rg.graph.num_vertices, tuple(raised))
            audit = audit_reduction_graph(dataclasses.replace(rg, graph=g))
            assert dataclasses.asdict(audit) == _audit_fields(rg, g)
            assert _failed(audit) == failing
