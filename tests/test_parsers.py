"""Fuzzing the three text parsers (graph, qubit set and campaign config)
and the ASCII file reader.

Each parser may raise only its documented error, and an error that names a
line names one the text has.  Header integers stay small: a graph header
with a huge m must be refused before anything of size m exists, which
``test_failed_handshake_is_refused_before_building`` checks directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpdecode import graphs
from hgpdecode.graphs import (
    GraphParseError,
    LineParseError,
    gen_biregular,
    graph_from_text,
    graph_to_text,
    read_ascii,
)
from hgpdecode.harness import CampaignConfig, CampaignConfigError
from hgpdecode.hgp import QubitParseError, build_hgp, qubitset_from_text

_SMALL_INT = st.integers(-3, 40)
_TOKEN = st.one_of(
    _SMALL_INT.map(str),
    st.sampled_from(["", "x", "1.5", "#", "VV", "CC", "=", "n=", "1/20", "audit:2", "0x1", "-"]),
)
_LINE = st.one_of(st.lists(_TOKEN, max_size=8).map(" ".join), st.text(max_size=12))

_GRAPHS = [gen_biregular(n, dv, dc, seed=s) for n, dv, dc, s in
           [(1, 1, 1, 0), (2, 1, 2, 0), (4, 2, 2, 1), (6, 2, 3, 2), (12, 3, 6, 3)]]
_CODE = build_hgp(_GRAPHS[2])


def _parse(parse, error, text):
    """Run ``parse`` and return what it raised, checking the line it names."""
    try:
        parse(text)
    except error as exc:
        if isinstance(exc, LineParseError):
            assert 1 <= exc.line_no <= max(1, len(text.splitlines())), (exc, text)
        return exc
    return None


@st.composite
def _graph_texts(draw):
    """A valid graph text with a few of its lines replaced, removed, inserted
    or appended, or a header and lines drawn at random."""
    if draw(st.booleans()):
        header = " ".join(str(draw(_SMALL_INT)) for _ in range(4))
        return "\n".join([header] + draw(st.lists(_LINE, max_size=8)))
    lines = graph_to_text(draw(st.sampled_from(_GRAPHS))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "delete", "insert", "append"]))
        if edit == "append":
            lines.append(draw(_LINE))
        elif edit == "insert" or at == len(lines):
            lines.insert(at, draw(_LINE))
        elif edit == "delete":
            del lines[at]
        else:
            lines[at] = " ".join(str(draw(_SMALL_INT)) for _ in range(draw(st.integers(0, 4))))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None)
@given(_graph_texts())
def test_graph_reader_raises_only_line_numbered_parse_errors(text):
    exc = _parse(graph_from_text, GraphParseError, text)
    if exc is None:
        graph = graph_from_text(text)
        assert graph_from_text(graph_to_text(graph)) == graph
        assert not any(line.strip() for line in text.splitlines()[1 + graph.n:])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_GRAPHS), st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),
       _LINE.filter(lambda line: line.strip() and len(line.splitlines()) == 1))
def test_graph_reader_refuses_trailing_content(graph, blanks, extra):
    """Blank lines may follow the n adjacency lines; the first other line is
    refused by its number."""
    lines = graph_to_text(graph).splitlines() + blanks
    assert graph_from_text("\n".join(lines) + "\n") == graph
    with pytest.raises(GraphParseError) as info:
        graph_from_text("\n".join(lines + [extra, ""]))
    assert info.value.line_no == len(lines) + 1


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40))
def test_ascii_reader_names_the_line_of_a_bad_byte(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ascii") / "input.txt"
    path.write_bytes(data)
    lines = data.decode("ascii", errors="replace").splitlines()
    bad = [line_no for line_no, line in enumerate(lines, start=1) if "\ufffd" in line]
    if not bad:
        assert read_ascii(path) == data.decode("ascii")
        return
    with pytest.raises(LineParseError) as info:
        read_ascii(path)
    assert info.value.line_no == bad[0]


def test_failed_handshake_is_refused_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(graphs, "BipartiteGraph", lambda m, adj_v: calls.append(m))
    for text in ("2 1000000000000 1 2\n0\n0\n", "3 1 1 2\n0\n0\n0\n", "0 0 1 1\n"):
        with pytest.raises(GraphParseError) as info:
            graph_from_text(text)
        assert info.value.line_no == 1
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_LINE, st.tuples(st.sampled_from(["VV", "CC"]), _SMALL_INT, _SMALL_INT)
                          .map(lambda t: " ".join(map(str, t)))), max_size=8).map("\n".join))
def test_qubit_reader_raises_only_qubit_parse_errors(text):
    _parse(lambda t: qubitset_from_text(t, _CODE), QubitParseError, text)


_KEY = st.sampled_from(["n", "delta_v", "delta_c", "graph_seed", "seed", "trials", "weights",
                        "epsilon", "reduction", "other"])
_VALUE = st.one_of(_TOKEN, st.lists(_SMALL_INT.map(str), max_size=4).map(",".join),
                   st.sampled_from(["greedy", "none", "exact", "1/0", "audit:0", "audit:x"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_LINE, st.tuples(_KEY, _VALUE).map("=".join)), max_size=12).map("\n".join))
def test_config_reader_raises_only_config_errors(text):
    _parse(CampaignConfig.from_text, CampaignConfigError, text)
