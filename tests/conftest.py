"""Shared tiny instances used across the test suite."""

from __future__ import annotations

import pytest

from hgpdecode.graphs import BipartiteGraph, gen_biregular


@pytest.fixture(scope="session")
def single_edge_graph() -> BipartiteGraph:
    """n = m = 1, one edge; the smallest legal base graph."""
    return gen_biregular(1, 1, 1, seed=0)


@pytest.fixture(scope="session")
def path_graph() -> BipartiteGraph:
    """v0 - c0 - v1: two bits, one check (forced for n=2, degrees (1,2))."""
    return gen_biregular(2, 1, 2, seed=0)


@pytest.fixture(scope="session")
def k33_graph() -> BipartiteGraph:
    """Complete bipartite 3x3 (forced for n=3, degrees (3,3))."""
    return gen_biregular(3, 3, 3, seed=0)


def make_k44_incidence() -> BipartiteGraph:
    """Edge-vertex incidence graph of the complete bipartite graph on 4+4 nodes.

    Bits = the 8 nodes, checks = the 16 edges; degrees (4, 2).  Triangle-free
    and 4-cycle-free collision structure, so small-set expansion audits well:
    worst epsilon at sizes 1/2/3 is 0, 1/8, 1/6.
    """
    adj_v = []
    for i in range(4):  # one side of the underlying complete graph
        adj_v.append([4 * i + k for k in range(4)])
    for k in range(4):  # the other side
        adj_v.append([4 * i + k for i in range(4)])
    return BipartiteGraph(16, adj_v)


@pytest.fixture(scope="session")
def k44_incidence_graph() -> BipartiteGraph:
    return make_k44_incidence()
