"""Base-graph construction, neighborhoods, expansion audits, and text round-trips."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hgpdecode.graphs import (
    BipartiteGraph,
    GraphConstructionError,
    GraphParseError,
    audit_expansion,
    gen_biregular,
    graph_from_text,
    graph_to_text,
    read_graph,
    write_graph,
)

from conftest import make_k44_incidence
from oracles import expansion_by_enumeration, neighbors, unique_neighbors


def test_k33_is_forced(k33_graph):
    assert k33_graph.n == k33_graph.m == 3
    assert all(nbrs == (0, 1, 2) for nbrs in k33_graph.adj_v)
    assert all(nbrs == (0, 1, 2) for nbrs in k33_graph.adj_c)


def test_path_graph_is_forced(path_graph):
    assert path_graph.n == 2 and path_graph.m == 1
    assert path_graph.adj_v == ((0,), (0,))
    assert path_graph.adj_c == ((0, 1),)


def test_seed1_n60_degree_audit():
    g = gen_biregular(60, 3, 6, seed=1)
    assert g.n == 60 and g.m == 30
    assert all(len(set(nbrs)) == 3 for nbrs in g.adj_v)
    assert all(len(set(nbrs)) == 6 for nbrs in g.adj_c)


def test_generation_is_deterministic():
    a = gen_biregular(24, 3, 6, seed=5)
    b = gen_biregular(24, 3, 6, seed=5)
    assert a == b
    c = gen_biregular(24, 3, 6, seed=6)
    assert a != c


def test_invariants_hold_for_100_seeds():
    for seed in range(100):
        gen_biregular(12, 3, 6, seed=seed)  # constructor enforces the invariants


def test_construction_errors():
    with pytest.raises(GraphConstructionError):
        gen_biregular(5, 3, 6, seed=0)  # 15 not divisible by 6
    with pytest.raises(GraphConstructionError):
        gen_biregular(6, 4, 3, seed=0)  # delta_c < delta_v
    with pytest.raises(GraphConstructionError):
        gen_biregular(4, 3, 6, seed=0)  # m = 2 < delta_v
    with pytest.raises(GraphConstructionError):
        gen_biregular(2, 2, 4, seed=0)  # delta_c > n


def test_neighbors_examples(k33_graph, path_graph):
    assert neighbors(k33_graph, "left", {0}) == {0, 1, 2}
    assert neighbors(k33_graph, "left", set()) == set()
    assert neighbors(path_graph, "left", {0, 1}) == {0}
    with pytest.raises(ValueError):
        neighbors(path_graph, "left", {2})
    with pytest.raises(ValueError):
        neighbors(path_graph, "middle", {0})


def test_unique_neighbors_examples(k33_graph, path_graph):
    assert unique_neighbors(k33_graph, "left", {0}) == {0, 1, 2}
    assert unique_neighbors(k33_graph, "left", {0, 1}) == set()
    assert unique_neighbors(path_graph, "left", {0, 1}) == set()


def test_unique_neighbors_subset_of_neighbors():
    g = gen_biregular(12, 3, 6, seed=2)
    for subset in itertools.combinations(range(12), 2):
        assert unique_neighbors(g, "left", subset) <= neighbors(g, "left", subset)


def test_audit_k33(k33_graph):
    p1 = audit_expansion(k33_graph, "left", 1)
    assert p1.certified and p1.worst_epsilon_by_size == {1: Fraction(0)}
    p2 = audit_expansion(k33_graph, "left", 2)
    assert p2.worst_epsilon_by_size[2] == Fraction(1, 2)
    assert p2.worst_up_to() == Fraction(1, 2)


def complete_graph_incidence(vertices: int) -> BipartiteGraph:
    """Bits on the vertices of the complete graph, checks on its edges (the
    graph demo 05 audits, at 20 vertices)."""
    edges = list(itertools.combinations(range(vertices), 2))
    adj_v = [[] for _ in range(vertices)]
    for idx, (u, v) in enumerate(edges):
        adj_v[u].append(idx)
        adj_v[v].append(idx)
    return BipartiteGraph.from_left_adjacency(len(edges), adj_v)


# name -> (graph, left s_max, right s_max).  K3,3 and n=12 are audited up to
# the size of each side; the K20 incidence's right side has 190 vertices, so
# enumeration stops at size 2 there.
AUDIT_CASES = {
    "golden-n60": (lambda: gen_biregular(60, 3, 6, seed=1), 3, 3),
    "lazy-n240": (lambda: gen_biregular(240, 3, 6, seed=7), 2, 3),
    "6-12-n96": (lambda: gen_biregular(96, 6, 12, seed=1), 3, 3),
    "k33": (lambda: gen_biregular(3, 3, 3, seed=0), 3, 3),
    "3-6-n12": (lambda: gen_biregular(12, 3, 6, seed=5), 12, 6),
    "2-5-n20": (lambda: gen_biregular(20, 2, 5, seed=3), 4, 4),
    "4-4-n16": (lambda: gen_biregular(16, 4, 4, seed=3), 4, 4),
    "k44-incidence": (make_k44_incidence, 4, 4),
    "k20-incidence": (lambda: complete_graph_incidence(20), 4, 2),
    # Bits 0 and 1 (and checks 0 and 1) are twins, the only pair with |Γ| = 2:
    # the minimum at s = 2 sits at the first index the last member can take.
    "twins-n6": (
        lambda: BipartiteGraph.from_left_adjacency(6, [(0, 1), (0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]),
        6,
        6,
    ),
}


@pytest.mark.parametrize("name", list(AUDIT_CASES))
def test_certified_audit_matches_enumeration(name):
    """The branch-and-bound audit gives every size's worst epsilon exactly as
    enumerating every subset does, on both sides."""
    make, s_left, s_right = AUDIT_CASES[name]
    graph = make()
    for side, s_max in (("left", s_left), ("right", s_right)):
        profile = audit_expansion(graph, side, s_max)
        assert profile.certified and profile.max_set_size == s_max
        assert profile.worst_epsilon_by_size == expansion_by_enumeration(graph, side, s_max), side
    if name == "golden-n60":
        # Two bits share all three checks, so a left pair reaches |Γ| = 3.
        assert audit_expansion(graph, "left", 2).worst_epsilon_by_size[2] == Fraction(1, 2)


def test_audit_argument_errors(k33_graph):
    with pytest.raises(ValueError):
        audit_expansion(k33_graph, "left", 0)
    with pytest.raises(ValueError):
        audit_expansion(k33_graph, "left", 4)


def test_sampled_audit_is_bounded_by_certified():
    g = gen_biregular(24, 3, 6, seed=9)
    full = audit_expansion(g, "left", 2)
    sampled = audit_expansion(g, "left", 2, samples=60, sample_seed=4)
    assert full.certified and not sampled.certified
    for s in (1, 2):
        assert sampled.worst_epsilon_by_size[s] <= full.worst_epsilon_by_size[s]


def test_averaging_remark_on_all_audited_sets():
    # For every audited subset: the unique neighborhood loses at most one vertex
    # per excess edge, and the per-set epsilon version of the same bound holds.
    for g, s_max in [
        (gen_biregular(3, 3, 3, seed=0), 3),
        (gen_biregular(12, 3, 6, seed=3), 2),
    ]:
        degree = g.delta_v
        for s in range(1, s_max + 1):
            for subset in itertools.combinations(range(g.n), s):
                gamma = len(neighbors(g, "left", subset))
                uniq = len(unique_neighbors(g, "left", subset))
                edges = degree * s
                assert uniq >= gamma - (edges - gamma)
                eps = Fraction(1) - Fraction(gamma, edges)  # per-set epsilon
                assert uniq >= (1 - 2 * eps) * edges


def test_text_round_trip_bit_exact(tmp_path):
    for g in [gen_biregular(2, 1, 2, seed=0), gen_biregular(12, 3, 6, seed=7), gen_biregular(60, 3, 6, seed=1)]:
        text = graph_to_text(g)
        assert graph_from_text(text) == g
        assert graph_to_text(graph_from_text(text)) == text
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path) == g
        assert path.read_text() == text


def test_parse_errors_name_the_line():
    with pytest.raises(GraphParseError, match="line 1"):
        graph_from_text("2 1 1\n0\n0\n")
    with pytest.raises(GraphParseError, match="line 2"):
        graph_from_text("2 1 1 2\n0 0\n0\n")
    with pytest.raises(GraphParseError, match="line 3"):
        graph_from_text("2 1 1 2\n0\nzebra\n")


def test_from_left_adjacency_rejects_irregular():
    with pytest.raises(GraphConstructionError):
        BipartiteGraph.from_left_adjacency(2, [[0], [0], [0, 1]])


def test_k44_incidence_shape(k44_incidence_graph):
    g = k44_incidence_graph
    assert g.n == 8 and g.m == 16 and g.delta_v == 4 and g.delta_c == 2
