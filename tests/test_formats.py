"""Property tests for the three text formats: graph, E2LIN2 instance, block map.

Every parser and file reader either returns a value or raises UsageError,
whatever text or bytes it is fed; well-formed text, with comments, blank
lines and extra whitespace mixed in, parses to the value it was written
from.  The graph parser reads every well-formed file in numpy passes over its
bytes, once runs of spaces and tabs are squeezed if it must, and any other
text line by line; on either path it must agree with `oracles.graph_file`,
an independent line-by-line reader.  Hypothesis runs derandomized with a
bounded example count, so these tests check the same inputs on every run.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import twospin.graphs
from twospin.e2lin2 import (E2Lin2Instance, format_instance, normalize,
                            parse_instance, random_instance, read_instance)
from twospin.errors import UsageError
from twospin.graphs import (MAX_MULTIPLICITY, MultiGraph, graph_from_text,
                            graph_to_text, read_graph)
from twospin.reduction import (GadgetParams, blocks_from_text, blocks_to_text,
                               build_reduction_graph, read_blocks)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# tokens and characters that mutants splice in: the formats' own keywords,
# edge-case integers, comment marks, line breaks that str.splitlines honours,
# and non-ASCII text (a Latin letter, an Arabic-Indic digit, a line separator)
TOKENS = ("p", "e", "block", "U", "V", "graph", "e2lin2", "blocks", "#", "0",
          "1", "2", "-1", "7", "1.5", "x", str(MAX_MULTIPLICITY + 1), "\u00e9",
          "\u0663", "\u2028", " ", "\x0c", "\r", "\n", "  ")


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    mults = draw(st.dictionaries(pair.filter(lambda e: e[0] < e[1]),
                                 st.integers(1, MAX_MULTIPLICITY), max_size=10))
    # a pair's share of 2**53 at its busier end keeps every degree within 2**53
    count = Counter(x for pair in mults for x in pair)
    return MultiGraph(n, tuple(sorted((u, v, max(1, m // max(count[u], count[v])))
                                      for (u, v), m in mults.items())))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 5))
    equation = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.integers(0, 1)).filter(lambda e: e[0] != e[1])
    return E2Lin2Instance(n, tuple(draw(st.lists(equation, min_size=1, max_size=6))))


@st.composite
def reductions(draw):
    inst, _ = normalize(draw(instances()))
    params = GadgetParams(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                          draw(st.integers(1, 2)), draw(st.integers(0, 1 << 31)))
    return build_reduction_graph(inst, params)


def decorated(draw, text):
    """text with comments, blank lines, spacing and line endings varied."""
    out = []
    for line in text.splitlines():
        out += draw(st.lists(st.sampled_from(["", " \t", "#", "# p graph 1 0", "  #x"]),
                             max_size=2))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        out.append(draw(st.sampled_from(["", " "])) + sep.join(line.split())
                   + draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(out) + draw(st.sampled_from(["", end]))


def mutated(draw, text):
    """text after one to three random edits: cut or splice characters,
    replace a token, duplicate a line or swap two lines."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True) or [""]
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["cut", "splice", "token", "dup", "swap"]))
        if kind == "cut":
            text = text[:at] + text[draw(st.integers(at, len(text))):]
        elif kind == "splice":
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        elif kind == "token":
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words) + "\n"
            text = "".join(lines)
        elif kind == "dup":
            text = "".join(lines[:i + 1] + lines[i:])
        else:
            lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


def _accepts_or_refuses(parse, to_text, text):
    """parse(text) raises UsageError, or what it returns writes back unchanged."""
    try:
        value = parse(text)
    except UsageError:
        return None
    assert parse(to_text(value)) == value
    return value


@FUZZ
@given(st.data())
def test_graph_text_round_trips_or_raises_usage_error(data):
    g = data.draw(graphs())
    text = graph_to_text(g)
    assert graph_to_text(graph_from_text(decorated(data.draw, text))) == text
    _accepts_or_refuses(graph_from_text, graph_to_text, mutated(data.draw, text))


@FUZZ
@given(st.data())
def test_instance_text_round_trips_or_raises_usage_error(data):
    inst = data.draw(instances())
    text = format_instance(inst)
    assert format_instance(parse_instance(decorated(data.draw, text))) == text
    _accepts_or_refuses(parse_instance, format_instance, mutated(data.draw, text))


@FUZZ
@given(st.data())
def test_blocks_text_round_trips_or_raises_usage_error(data):
    rg = data.draw(reductions())
    text = blocks_to_text(rg)
    assert blocks_to_text(blocks_from_text(decorated(data.draw, text), rg.graph)) == text
    _accepts_or_refuses(lambda t: blocks_from_text(t, rg.graph), blocks_to_text,
                        mutated(data.draw, text))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@FUZZ
@given(data=st.data())
def test_file_readers_refuse_non_ascii_bytes(fuzz_file, data):
    rg = data.draw(reductions())
    kind = data.draw(st.sampled_from(["graph", "instance", "blocks"]))
    text, parse, read = {
        "graph": (graph_to_text(rg.graph), graph_from_text, read_graph),
        "instance": (format_instance(rg.instance), parse_instance, read_instance),
        "blocks": (blocks_to_text(rg), lambda t: blocks_from_text(t, rg.graph),
                   lambda path: read_blocks(path, rg.graph)),
    }[kind]
    raw = bytearray(mutated(data.draw, text).encode("utf-8"))
    for _ in range(data.draw(st.integers(0, 2))):
        raw.insert(data.draw(st.integers(0, len(raw))), data.draw(st.integers(0, 255)))
    fuzz_file.write_bytes(bytes(raw))
    try:
        decoded = bytes(raw).decode("ascii")
    except UnicodeDecodeError:
        with pytest.raises(UsageError, match="non-ASCII"):
            read(fuzz_file)
        return
    try:
        expected = parse(decoded)
    except UsageError:
        with pytest.raises(UsageError):
            read(fuzz_file)
        return
    assert read(fuzz_file) == expected


def _parsed(text):
    """(num_vertices, the records read off its columns) of the parsed graph,
    or the message of the UsageError."""
    try:
        g = graph_from_text(text)
    except UsageError as exc:
        return str(exc)
    return g.num_vertices, tuple(zip(*g.edge_columns.tolist()))


def assert_parses_like_the_line_reader(text):
    assert _parsed(text) == oracles.graph_file(text)


def _line_reader_refused(*args):
    raise AssertionError("the line reader ran")


@FUZZ
@given(st.data())
def test_graph_parser_matches_the_line_reader(data):
    g = data.draw(st.one_of(graphs(), reductions().map(lambda rg: rg.graph)))
    text = graph_to_text(g)
    decorated_text = decorated(data.draw, text)
    for sample in (text, decorated_text, mutated(data.draw, text),
                   mutated(data.draw, decorated_text)):
        assert_parses_like_the_line_reader(sample)


def test_graph_parser_matches_the_line_reader_on_a_large_reduction():
    rg = build_reduction_graph(random_instance(16, 50, 5), GadgetParams(4, 2, 100, 5))
    text = graph_to_text(rg.graph)
    assert text.count("\n") > 45_000
    assert_parses_like_the_line_reader(text)
    assert_parses_like_the_line_reader(text.replace("\n", "\r\n"))


# lines planted among the records: faults, lines that are skipped, and
# fields that int() reads in unusual forms
PLANTS = ["x 0 1 1", "e 0 1", "e e 0 1 1", "e 0 one 1", "e 0 1 1 1", "e 0 1 0",
          "p graph 9 8", "# e 0 1 1", "#", "", " \t", "e 0 1 \u0663", "e +0 1 1_0",
          "e 0 1 " + "9" * 400, "e 0 \x01 1", "# \x01 \x01\x01 \x00"]


# a fault at the first record, at record `size` and at the one after it, in
# files from a few records long to one long enough for every numpy pass of
# the byte path to run on many thousands of rows
@pytest.mark.parametrize("size", [1, 3, 16384])
def test_graph_parser_faults_at_chunk_boundaries(size):
    count = size + 3
    lines = [f"p graph {count + 1} {count}"] + [f"e {i} {i + 1} 1" for i in range(count)]
    # in place of, or before, each of those records
    places = [1, size, size + 1]
    plants = PLANTS if size < 100 else PLANTS[:4] + ["p graph 9 8", ""]
    for place in places:
        for plant in plants:
            for edited in (lines[:place] + [plant] + lines[place + 1:],
                           lines[:place] + [plant] + lines[place:]):
                assert_parses_like_the_line_reader("\n".join(edited) + "\n")
    # two faults, next to each other or apart: the earlier is reported
    for pair in ([size - 1, size] if size > 1 else [], [size, size + 1], [2, size + 2]):
        for first in plants[:4]:
            for second in plants[:4]:
                edited = list(lines)
                for place, plant in zip(pair, (first, second)):
                    edited[place] = plant
                assert_parses_like_the_line_reader("\n".join(edited))


def _layouts(lines):
    """The file of these lines as written, with a comment first and a '#'
    line and a blank line every 1,000 lines, with '\\r\\n' line ends, and
    with tabs for spaces: four layouts that the byte path reads."""
    text = "\n".join(lines) + "\n"
    commented = "".join(line + ("\n# line %d\n\n" % i if i % 1000 == 0 else "\n")
                        for i, line in enumerate(lines))
    return [text, "# a graph\n" + commented, text.replace("\n", "\r\n"), text.replace(" ", "\t")]


# each fault as the line that replaces line i of a file of n records
BYTE_PATH_FAULTS = {
    "zero": lambda n, i: f"e {i - 1} {i} 0",
    "past-2**53": lambda n, i: f"e {i - 1} {i} {MAX_MULTIPLICITY + 1}",
    "count-short": lambda n, i: f"p graph {n + 1} {n - 1}",
    "count-long": lambda n, i: f"p graph {n + 1} {n + 1}",
}


@pytest.mark.parametrize("fault", sorted(BYTE_PATH_FAULTS))
def test_byte_path_words_the_faults_of_its_own_columns(monkeypatch, fault):
    # a file whose layout the byte path reads is parsed once: the record
    # count and a multiplicity are worded from its columns, never by the
    # line reader; a multiplicity at the first record, the middle and the last
    count = 16384
    lines = [f"p graph {count + 1} {count}"] + [f"e {i} {i + 1} 1" for i in range(count)]
    monkeypatch.setattr(twospin.graphs, "_graph_from_records", _line_reader_refused)
    for place in ((0,) if fault.startswith("count") else (1, count // 2, count)):
        edited = lines[:place] + [BYTE_PATH_FAULTS[fault](count, place)] + lines[place + 1:]
        for text in _layouts(edited):
            expected = oracles.graph_file(text)
            assert isinstance(expected, str) and _parsed(text) == expected


@FUZZ
@given(st.data())
def test_byte_path_matches_the_line_reader(data):
    # a well-formed file never reaches the line reader, however it is spaced
    g = data.draw(st.one_of(graphs(), reductions().map(lambda rg: rg.graph)))
    text = graph_to_text(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twospin.graphs, "_graph_from_records", _line_reader_refused)
        for sample in (text, decorated(data.draw, text)):
            assert_parses_like_the_line_reader(sample)


# near misses of the record line 'e U V M' that the byte path reads: the
# first four read there once their blanks are squeezed; each other goes to
# the line reader, which accepts it or names it
NEAR_MISSES = ["e\t0 1 1", "e  0 1 1", " e 0 1 1", "e 0 1 1 ", "e +0 1 1", "e -0 1 1",
               "e 0 1 1_0", "e 007 1 1", "E 0 1 1", "e 0 1 \u0663", "e 0 1 1\x00",
               "e 0\x001 1", "e 0 1", "e 0 1 1 1", "e 0 1 x"]


@pytest.mark.parametrize("plant", NEAR_MISSES)
def test_byte_path_near_misses_read_as_the_line_reader_reads_them(monkeypatch, plant):
    if plant in NEAR_MISSES[:4]:
        monkeypatch.setattr(twospin.graphs, "_graph_from_records", _line_reader_refused)
    lines = ["p graph 4 3", "e 0 1 1", "e 1 2 1", "e 2 3 1"]
    for place in (1, 2, 3):
        edited = lines[:place] + [plant] + lines[place + 1:]
        for end in ("\n", ""):
            assert_parses_like_the_line_reader("\n".join(edited) + end)


@pytest.mark.parametrize("width", [17, 18, 19, 20])
def test_byte_path_reads_fields_of_up_to_18_digits(width):
    for field in ("0" * (width - 1) + "1", "0" * (width - 2) + "23", "9" * width,
                  "1" + "0" * (width - 1)):
        for at in range(3):
            fields = ["0", "1", "1"]
            fields[at] = field
            text = "p graph 30 2\ne " + " ".join(fields) + "\ne 1 2 1\n"
            assert_parses_like_the_line_reader(text)
            assert (twospin.graphs._byte_fields(text) is None) == (width > 18)


@pytest.mark.parametrize("text", [
    "p graph 3 2\r\ne 0 1 1\r\ne 1 2 1\r\n", "p graph 3 2\re 0 1 1\re 1 2 1\r",
    "p graph 3 2\ne 0 1 1\r\ne 1 2 1", "p graph 3 2\ne 0 1 1\ne 1 2 1",
    "p graph 3 0\n", "p graph 3 0", "p graph 3 0\n\n# none\n", "p graph 3 1\n",
    "# c\n\np graph 3 2\n#\ne 0 1 1\n\n\ne 1 2 1\n# end", "#\r\np graph 3 1\ne 0 1 1",
    "p graph 3 1\n#\re 0 1 1\n", "p graph 3 1\n \ne 0 1 1\n", "p graph 3 1\n  #\ne 0 1 1\n",
    "p  graph 3 1\ne 0 1 1\n", "p graph 3 1 \ne 0 1 1\n", "p graph 3 1\x00\ne 0 1 1\n",
    "p graph 3 1\ne 0 1 1\np graph 3 1\n", "e 0 1 1\np graph 3 1\n", "", "\n", "#",
    "p graph 3 1\ne 0 1 0\n", "p graph 3 1\ne 0 3 1\n", "p graph 3 1\ne 1 1 1\n",
    "p graph 3 2\ne 0 1 1\n", "p graph 3 1\ne 0 1 1\ne 1 2 1\n",
    "p graph 2 1\ne 0 1 9007199254740993\n", "p graph 9007199254740993 1\ne 0 1 1\n",
])
def test_byte_path_edges_read_as_the_line_reader_reads_them(text):
    assert_parses_like_the_line_reader(text)


def test_byte_path_reads_the_benchmark_scale_reduction(monkeypatch):
    rg = build_reduction_graph(random_instance(16, 50, 5), GadgetParams(4, 2, 100, 5))
    text = graph_to_text(rg.graph)
    monkeypatch.setattr(twospin.graphs, "_graph_from_records", _line_reader_refused)
    monkeypatch.setattr(twospin.graphs, "_lines", _line_reader_refused)
    lines = text.splitlines()
    decorated_text = "".join(("# record %d\n\n" % i if i % 1000 == 1 else "") + line + "\n"
                             for i, line in enumerate(lines))
    assert decorated_text.count("#") > 45
    for sample in (text, decorated_text, "\n# a comment first\n" + decorated_text,
                   text.replace("\n", "\r\n"), text.replace(" ", "\t"),
                   text.replace(" ", "  ")):
        assert graph_from_text(sample) == rg.graph
    assert graph_to_text(graph_from_text(text)) == text
