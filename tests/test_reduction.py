"""Locally reduced catalogs and error reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpdecode.graphs import BipartiteGraph, gen_biregular
from hgpdecode.hgp import QubitSet, build_hgp, syndrome
from hgpdecode.reduction import reduce_error
from hgpdecode.ssfind import ViewWidthError

from oracles import (
    Candidate,
    brute_reduce,
    enumerate_minsets,
    gen_index,
    is_locally_reduced,
    locally_reduced_masks,
    mask_to_qubitset,
    part_sizes,
    qnbhd,
    qnbhd_unique,
    qubit_gens,
    qubits_of,
    supp_generator,
    weighted_norm,
)

# Degree pairs (delta_v <= delta_c, sum <= 12) where the product-vs-norm bound
# 4ab <= a*delta_v + b*delta_c was verified to hold over the full catalog; the
# companion test pins two of the pairs where it provably does not.
LEMMA_TRUE_PAIRS = [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 6),
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9),
    (3, 3), (3, 4), (3, 5), (3, 6), (3, 8),
    (4, 4), (4, 5), (4, 6), (4, 7), (4, 8),
    (5, 5), (5, 6), (5, 7), (6, 6),
]


@pytest.fixture(scope="module")
def single_edge_code(single_edge_graph):
    return build_hgp(single_edge_graph)


@pytest.fixture(scope="module")
def path_code(path_graph):
    return build_hgp(path_graph)


@pytest.fixture(scope="module")
def k33_code(k33_graph):
    return build_hgp(k33_graph)


@pytest.fixture(scope="module")
def mid_code():
    return build_hgp(gen_biregular(12, 3, 6, seed=5))


def test_is_locally_reduced_examples(mid_code):
    # (delta_v, delta_c) = (3, 6): bound is 4.5, so 2+2 passes and 3+2 fails.
    mask_2_2 = 0b011_000011
    assert part_sizes(mask_2_2, 6) == (2, 2)
    assert is_locally_reduced(mid_code, 0, mask_2_2)
    mask_3_2 = 0b011_000111
    assert part_sizes(mask_3_2, 6) == (3, 2)
    assert not is_locally_reduced(mid_code, 0, mask_3_2)
    assert is_locally_reduced(mid_code, 0, 0)  # vacuous, but not a Candidate
    with pytest.raises(ValueError):
        is_locally_reduced(mid_code, 0, 1 << 9)
    with pytest.raises(ValueError):
        Candidate(generator=0, mask=0, a_v=0, a_c=0)
    with pytest.raises(ValueError):
        Candidate.build(mid_code, 0, mask_3_2)


def test_enumerate_minsets_path(path_code):
    cands = list(enumerate_minsets(path_code, 0))
    assert [c.mask for c in cands] == [1, 2, 4]
    assert [(c.a_v, c.a_c) for c in cands] == [(1, 0), (1, 0), (0, 1)]


def test_enumerate_minsets_single_edge(single_edge_code):
    cands = list(enumerate_minsets(single_edge_code, 0))
    assert [c.mask for c in cands] == [1, 2]


def test_enumerate_minsets_properties(mid_code):
    for g in (0, 17, 71):
        cands = list(enumerate_minsets(mid_code, g))
        assert len(cands) == 255
        assert len(cands) <= 2 ** (mid_code.delta_v + mid_code.delta_c)
        masks = [c.mask for c in cands]
        assert masks == sorted(masks)
        for c in cands:
            assert c.mask > 0
            assert 2 * (c.a_v + c.a_c) <= mid_code.delta_v + mid_code.delta_c
            assert part_sizes(c.mask, mid_code.delta_c) == (c.a_v, c.a_c)


def test_locally_reduced_masks_match_part_sizes_definition():
    # Every degree pair up to width 12: the popcount filter keeps exactly the
    # masks whose part sizes hold at most half the view, in ascending order.
    for dv in range(1, 12):
        for dc in range(1, 13 - dv):
            width = dv + dc
            expected = tuple(
                mask
                for mask in range(1, 1 << width)
                if 2 * sum(part_sizes(mask, dc)) <= width
            )
            assert locally_reduced_masks(dv, dc) == expected, (dv, dc)


def test_enumerate_minsets_cap():
    # Complete bipartite 11 x 10: a 21-qubit local view, one above the cap.
    wide = build_hgp(BipartiteGraph(10, [range(10)] * 11))
    with pytest.raises(ViewWidthError):
        list(enumerate_minsets(wide, 0))


def test_mask_to_qubitset(path_code, mid_code):
    assert mask_to_qubitset(path_code, 0, 1) == qubits_of(path_code, [(0, 0)])
    assert mask_to_qubitset(path_code, 0, 4) == qubits_of(path_code, (), [(0, 0)])
    rng = random.Random(9)
    for _ in range(30):
        g = rng.randrange(mid_code.num_gens)
        supp = supp_generator(mid_code, g)
        full = (1 << 9) - 1
        assert mask_to_qubitset(mid_code, g, full) == supp
        mask = rng.randrange(1, full + 1)
        sub = mask_to_qubitset(mid_code, g, mask)
        assert sub.weight == mask.bit_count()
        assert sub <= supp


def test_reduced_nbhd_bound_on_verified_pairs():
    for dv, dc in LEMMA_TRUE_PAIRS:
        for mask in locally_reduced_masks(dv, dc):
            a, b = part_sizes(mask, dc)
            assert 4 * a * b <= a * dv + b * dc


def test_reduced_nbhd_bound_counterexamples():
    # The bound does not extend to strongly skewed degree pairs: these masks
    # are locally reduced yet exceed it, so tests above scope to verified pairs.
    a, b = part_sizes(0b1_000011, 5)  # (delta_v, delta_c) = (1, 5)
    assert (a, b) == (2, 1) and 2 * (a + b) <= 6
    assert 4 * a * b > a * 1 + b * 5
    a, b = part_sizes(0b11_0000001111, 10)  # (delta_v, delta_c) = (2, 10)
    assert (a, b) == (4, 2) and 2 * (a + b) <= 12
    assert 4 * a * b > a * 2 + b * 10


def test_reduced_nbhd_bound_via_set_route(mid_code):
    # Same inequality computed from actual qubit sets: mirror checks (seen
    # twice) against the weighted norm, on a real (3, 6) code.
    code = mid_code
    delta = code.delta_v * code.delta_c
    rng = random.Random(13)
    for _ in range(400):
        g = rng.randrange(code.num_gens)
        mask = rng.choice(locally_reduced_masks(3, 6))
        sub = mask_to_qubitset(code, g, mask)
        mirrors = len(qnbhd(code, sub)) - len(qnbhd_unique(code, sub))
        assert mirrors <= Fraction(1, 4) * delta * weighted_norm(code, sub)


def test_reduce_error_exact_examples(path_code, k33_code):
    # Exact reduction, the minimum over every generator toggling, is the
    # oracle brute_reduce; greedy reduction agrees with it on these.
    for code in (path_code, k33_code):
        for g in range(code.num_gens):
            supp = supp_generator(code, g)
            assert brute_reduce(code, supp) == qubits_of(code)
            assert reduce_error(code, supp, "greedy") == qubits_of(code)
        for q in range(code.num_qubits):
            single = QubitSet.from_indices(code, [q])
            assert brute_reduce(code, single) == single
            assert reduce_error(code, single, "greedy") == single


def test_reduce_error_exact_tie_breaking(single_edge_code):
    # Both cosets of weight 1: the brute-force representative is the
    # lex-smaller index.
    code = single_edge_code
    vv = qubits_of(code, [(0, 0)])
    cc = qubits_of(code, (), [(0, 0)])
    assert brute_reduce(code, vv) == vv
    assert brute_reduce(code, cc) == vv


def test_reduce_error_greedy_vs_exact(path_code, k33_code):
    rng = random.Random(33)
    for code in (path_code, k33_code):
        for _ in range(25):
            w = rng.randint(1, 4)
            e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), w))
            exact = brute_reduce(code, e)
            greedy = reduce_error(code, e, "greedy")
            assert exact.weight <= greedy.weight <= e.weight


def test_reduce_error_preserves_syndrome(mid_code, k33_code):
    rng = random.Random(47)
    for code, top, count in ((mid_code, 8, 20), (k33_code, 4, 10)):
        for _ in range(count):
            e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), rng.randint(1, top)))
            assert syndrome(code, reduce_error(code, e, "greedy")) == syndrome(code, e)


def test_reduce_error_none_keeps_the_error(mid_code):
    rng = random.Random(5)
    for w in (0, 1, 9, 40):
        e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), w))
        assert reduce_error(mid_code, e, "none") is e


def test_reduce_error_greedy_is_fixpoint(mid_code):
    code = mid_code
    rng = random.Random(59)
    for _ in range(10):
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), 5))
        red = reduce_error(code, e, "greedy")
        assert reduce_error(code, red, "greedy") == red
        for g in range(code.num_gens):
            assert (red ^ supp_generator(code, g)).weight >= red.weight


def greedy_by_lists(code, error):
    """Oracle for greedy reduction: visit the generators meeting E in
    ascending order, build each one's qubit list and toggle the first that E
    holds more than half of.  Returns the result and the toggle count."""
    err = set(error.to_indices(code))
    toggles = 0
    while True:
        for g in sorted({g for q in err for g, _ in qubit_gens(code, q)}):
            supp = code.gen_qubits(g)
            if 2 * len(err.intersection(supp)) > len(supp):
                err.symmetric_difference_update(supp)
                toggles += 1
                break
        else:
            return QubitSet.from_indices(code, sorted(err)), toggles


def test_reduce_error_greedy_matches_list_route(mid_code):
    """Counting hits through the incidence toggles the same generators as the
    list route, on random errors dense enough that toggles occur: uniform
    errors at n=12, and at n=60 errors planted with most of a few
    generators' supports."""
    big = build_hgp(gen_biregular(60, 3, 6, seed=1))
    rng = random.Random(83)
    cases = []
    for _ in range(40):
        w = rng.randint(10, 70)
        cases.append((mid_code, rng.sample(range(mid_code.num_qubits), w)))
    for _ in range(40):
        qubits = set(rng.sample(range(big.num_qubits), rng.randint(0, 10)))
        c = rng.randrange(big.m)
        for v in rng.sample(range(big.n), rng.randint(1, 6)):
            supp = big.gen_qubits(gen_index(big, c, v))
            qubits.update(rng.sample(supp, rng.randint(4, len(supp))))
        cases.append((big, sorted(qubits)))
    toggled = {12: 0, 60: 0}
    for code, qubits in cases:
        e = QubitSet.from_indices(code, qubits)
        want, toggles = greedy_by_lists(code, e)
        assert reduce_error(code, e, "greedy") == want, (code.n, qubits)
        toggled[code.n] += toggles
    assert toggled[12] > 0 and toggled[60] > 0


def test_reduce_error_errors(mid_code):
    # Exact reduction is the oracle brute_reduce, not a mode.
    for mode in ("exact", "best"):
        with pytest.raises(ValueError, match=r"mode must be one of \('none', 'greedy'\)"):
            reduce_error(mid_code, qubits_of(mid_code), mode)


@given(st.integers(min_value=1, max_value=511))
@settings(max_examples=80, deadline=None)
def test_mask_unpacking_consistent(mask):
    code = build_hgp(gen_biregular(12, 3, 6, seed=5))
    s = mask_to_qubitset(code, 7, mask)
    a_v, a_c = part_sizes(mask, 6)
    assert len(s.vv_part) == a_v and len(s.cc_part) == a_c
    assert s <= supp_generator(code, 7)
