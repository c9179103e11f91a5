"""Classical expander-code decoding: syndromes, envelope growth, erasure peeling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hgpdecode.classical import (
    DecodeFailure,
    classical_syndrome,
    erase_decode_classical,
    find_classical,
)
from hgpdecode.gf2 import Gf2DimensionError
from hgpdecode.graphs import BipartiteGraph, audit_expansion, gen_biregular

from oracles import neighbors


# --- syndromes ---

def test_syndrome_of_zero_word(k33_graph):
    assert classical_syndrome(k33_graph, 0) == set()


def test_syndrome_path_single_flip(path_graph):
    assert classical_syndrome(path_graph, 0b01) == {0}


def test_syndrome_k33_two_flips_cancel(k33_graph):
    assert classical_syndrome(k33_graph, 0b011) == set()


# --- envelope finder ---

def test_find_empty_syndrome(path_graph):
    res = find_classical(path_graph, set(), Fraction(0))
    assert res.envelope == set() and res.trace == []


def test_find_path_hand_trace(path_graph):
    # threshold h = 1; bit 0 qualifies first, its check is already suspicious,
    # then bit 1 qualifies too.
    res = find_classical(path_graph, {0}, Fraction(0))
    assert res.envelope == {0, 1}
    assert [t[0] for t in res.trace] == [0, 1]


def test_find_single_bit_error_on_audited_expander(k44_incidence_graph):
    profile = audit_expansion(k44_incidence_graph, "left", 3)
    eps = profile.worst_up_to()
    assert eps == Fraction(1, 6) and eps < Fraction(1, 3)
    bound = 1 / (1 - 3 * eps)  # envelope-size claim for admissible errors
    for v in range(k44_incidence_graph.n):
        word = 1 << v
        res = find_classical(k44_incidence_graph, classical_syndrome(k44_incidence_graph, word), eps)
        assert v in res.envelope
        assert len(res.envelope) <= bound
        assert res.envelope == {v}  # h = 3 and distinct bits share at most 1 check


def test_find_result_invariants():
    rng = random.Random(11)
    g = gen_biregular(20, 2, 4, seed=3)
    for _ in range(40):
        word = rng.getrandbits(20)
        syn = classical_syndrome(g, word)
        res = find_classical(g, syn, Fraction(1, 5))
        assert res.suspicious == syn | neighbors(g, "left", res.envelope)
        assert len(res.trace) == len(res.envelope)  # one adopted bit per step
        # monotone growth along the trace
        sizes = [(t[2], t[3]) for t in res.trace]
        assert sizes == sorted(sizes)


def test_find_is_deterministic(k44_incidence_graph):
    syn = classical_syndrome(k44_incidence_graph, 0b00000011)
    a = find_classical(k44_incidence_graph, syn, Fraction(1, 6))
    b = find_classical(k44_incidence_graph, syn, Fraction(1, 6))
    assert a == b


def test_find_rejects_bad_epsilon(path_graph):
    with pytest.raises(ValueError):
        find_classical(path_graph, set(), Fraction(1, 2))


def complete_graph(k: int) -> BipartiteGraph:
    """Bits are the vertices of K_k (delta_v = k - 1), checks its edges."""
    edges = list(itertools.combinations(range(k), 2))
    adj_v = [[e for e, pair in enumerate(edges) if v in pair] for v in range(k)]
    return BipartiteGraph.from_left_adjacency(len(edges), adj_v)


def test_find_refuses_a_float_epsilon():
    """A float epsilon_v would round the threshold h = ceil((1 - 2 eps) dv)
    through binary: 0.3 and 1/6 as floats sit just below 3/10 and 1/6, so
    h comes out one too high and the envelope changes."""
    k6 = complete_graph(6)
    syn6 = classical_syndrome(k6, 0b000011)
    # h = ceil(2/5 * 5) = 2: every other vertex meets two flagged edges.
    assert find_classical(k6, syn6, Fraction(3, 10)).envelope == set(range(6))
    assert find_classical(k6, syn6, "3/10").envelope == set(range(6))
    k4 = complete_graph(4)
    syn4 = classical_syndrome(k4, 0b0011)
    # h = ceil(2/3 * 3) = 2: vertex 0 meets two flagged edges, 0-2 and 0-3.
    res = find_classical(k4, syn4, Fraction(1, 6))
    assert res.trace[0][:2] == (0, 2) and res.envelope == set(range(4))
    for graph, syn, eps in ((k6, syn6, 0.3), (k4, syn4, 1 / 6)):
        with pytest.raises(TypeError, match="float"):
            find_classical(graph, syn, eps)


# --- erasure decoding ---

def test_erase_nothing_returns_same_word(k33_graph):
    word = 0b011
    assert erase_decode_classical(k33_graph, word, set()) == word


def test_erase_path_single_bit_forced(path_graph):
    # codewords are {00, 11}; with w1 = 1 the erased w0 is forced to 1
    word = 0b10
    out = erase_decode_classical(path_graph, word, {0})
    assert out == 0b11


def test_erase_underdetermined_returns_none(k33_graph):
    # codewords of the all-ones-check code: even weight; erasing two bits of a
    # codeword leaves two completions
    out = erase_decode_classical(k33_graph, 0b000, {0, 1})
    assert out is None


def test_erase_inconsistent_raises(path_graph):
    with pytest.raises(DecodeFailure):
        erase_decode_classical(path_graph, 0b01, set())


def test_erase_matches_brute_force_nearest_codeword():
    # On a small audited code, any erasure pattern with a unique completion
    # must be decoded back to the original codeword (brute-force oracle).
    g = gen_biregular(12, 3, 6, seed=4)
    h = [sum(1 << v for v in bits) for bits in g.adj_c]
    codewords = [w for w in range(1 << 12) if all(
        ((row & w).bit_count() & 1) == 0 for row in h
    )]
    rng = random.Random(5)
    tested_unique = 0
    for _ in range(120):
        w = rng.choice(codewords)
        erased = set(rng.sample(range(12), rng.randint(1, 4)))
        visible_mask = ((1 << 12) - 1) ^ sum(1 << v for v in erased)
        completions = [cw for cw in codewords if (cw & visible_mask) == (w & visible_mask)]
        word = w & visible_mask
        got = erase_decode_classical(g, word, erased)
        if len(completions) == 1:
            tested_unique += 1
            assert got == w
        else:
            assert got is None
    assert tested_unique > 20  # the oracle actually exercised the unique branch

    # Words that need not be codewords: with no completion the decode raises
    # DecodeFailure, with exactly one it returns it, with several None.
    # Erasing up to six bits leaves some patterns that peeling cannot finish,
    # so both the peeled and the eliminated branches are compared.
    kinds = {"fail": 0, "unique": 0, "ambiguous": 0}
    for _ in range(240):
        w = rng.randrange(1 << 12)
        erased = set(rng.sample(range(12), rng.randint(1, 6)))
        visible_mask = ((1 << 12) - 1) ^ sum(1 << v for v in erased)
        completions = [cw for cw in codewords if (cw & visible_mask) == (w & visible_mask)]
        word = w & visible_mask
        if not completions:
            kinds["fail"] += 1
            with pytest.raises(DecodeFailure):
                erase_decode_classical(g, word, erased)
            continue
        got = erase_decode_classical(g, word, erased)
        if len(completions) == 1:
            kinds["unique"] += 1
            assert got == completions[0]
        else:
            kinds["ambiguous"] += 1
            assert got is None
    assert min(kinds.values()) > 10, kinds


def test_erase_peeling_handles_chain():
    # A pure peeling cascade: checks of degree 2 form a path, erasures resolve
    # one by one from the known end.
    g = gen_biregular(2, 1, 2, seed=0)
    out = erase_decode_classical(g, 0b00, {1})
    assert out == 0b00


def test_classical_functions_refuse_a_word_outside_the_code(path_graph):
    """A word is an int over the code's n bits: a negative one, or one with a
    bit at n or above, is refused by both entry points."""
    assert path_graph.n == 2
    for word in (-1, 0b100, 1 << 40):
        with pytest.raises(Gf2DimensionError):
            classical_syndrome(path_graph, word)
        with pytest.raises(Gf2DimensionError):
            erase_decode_classical(path_graph, word, set())
        with pytest.raises(Gf2DimensionError):
            erase_decode_classical(path_graph, word, {0})
    assert erase_decode_classical(path_graph, 0b11, {0}) == 0b11
