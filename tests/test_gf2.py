"""GF(2) algebra on int rows: examples, canonical solutions, and rank properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hgpdecode.gf2 import Gf2DimensionError, RestrictedSolver, bit_positions

from oracles import RowBasis, kernel_words


# --- independent oracle: textbook dense RREF solve (lists of lists, no bitsets) ---

def _dense_solve_restricted(a_dense, b_dense, support):
    """Reference solver: RREF over the support columns in ascending order,
    free variables 0.  Returns a dense solution list or None."""
    rows = [list(r) + [bv] for r, bv in zip(a_dense, b_dense)]
    ncols = len(a_dense[0]) if a_dense else 0
    support = sorted(support)
    pivot_of_col = {}
    next_row = 0
    for c in support:
        pr = None
        for i in range(next_row, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[next_row], rows[pr] = rows[pr], rows[next_row]
        for i in range(len(rows)):
            if i != next_row and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[next_row])]
        pivot_of_col[c] = next_row
        next_row += 1
    for i in range(len(rows)):
        if rows[i][-1] and not any(rows[i][c] for c in support):
            return None
    x = [0] * ncols
    for c, i in pivot_of_col.items():
        x[c] = rows[i][-1]
    return x


def _columns(rows, support):
    """A[:, S]: the rows of A restricted to the ascending ``support``, each
    column moved to its position in S."""
    return [sum((bits >> j & 1) << t for t, j in enumerate(support)) for bits in rows]


def _place(y, support):
    """A vector over the columns of A[:, S] placed back on S."""
    return sum(1 << support[t] for t in bit_positions(y))


def _solve_on(rows, support, b):
    """The canonical solve of A[:, S]·y = b, placed back on S, or None."""
    y = RestrictedSolver(_columns(rows, support), len(support)).solve(b)
    return None if y is None else _place(y, support)


def _image(rows, x):
    """A·x, one parity per row."""
    return sum(((bits & x).bit_count() & 1) << i for i, bits in enumerate(rows))


def _transpose(rows, cols):
    """The rows of Aᵀ, for A given by its rows over ``cols`` columns."""
    return [sum((bits >> j & 1) << i for i, bits in enumerate(rows)) for j in range(cols)]


def _dense(bits, length):
    """The coordinates of a vector of ``length`` coordinates, as 0/1 values."""
    return [bits >> j & 1 for j in range(length)]


# --- examples ---

def test_rank_identity():
    assert RowBasis([0b001, 0b010, 0b100]).rank == 3


def test_rank_zero_matrix():
    assert RowBasis([0b00, 0b00]).rank == 0


def test_rank_duplicate_rows():
    assert RowBasis([0b11, 0b11]).rank == 1


def test_solve_restricted_empty_support_zero_rhs():
    x = _solve_on([0b11], [], 0b0)
    assert x == 0


def test_solve_restricted_single_pivot():
    x = _solve_on([0b11], [0], 0b1)
    assert x is not None and bit_positions(x) == [0]


def test_solve_restricted_unsolvable():
    assert _solve_on([0b01, 0b10], [0], 0b11) is None


def test_in_rowspace_zero_vector():
    assert RowBasis([0b101, 0b110]).contains(0)


def test_in_rowspace_sum_of_rows():
    assert RowBasis([0b011, 0b110]).contains(0b101)


def test_in_rowspace_negative():
    assert not RowBasis([0b011]).contains(0b001)


def test_dimension_errors():
    """The solver refuses a row or a right-hand side that does not fit its
    declared length: a negative one, or one with a bit at the length or
    above."""
    solver = RestrictedSolver([0b01, 0b10], 2)
    for b in (-1, 0b100, 1 << 70):
        with pytest.raises(Gf2DimensionError):
            solver.solve(b)
    for row in (-1, 0b100, 1 << 70):
        with pytest.raises(Gf2DimensionError):
            RestrictedSolver([0b01, row], 2)
    with pytest.raises(Gf2DimensionError):
        RestrictedSolver([], -1)
    assert solver.solve(0b11) == 0b11
    assert RestrictedSolver([0b11], 2).rank == 1


def test_bit_positions():
    assert bit_positions(0) == []
    assert bit_positions(0b101001) == [0, 3, 5]
    assert bit_positions(1 << 200 | 1 << 64 | 1) == [0, 64, 200]


# --- properties ---

@st.composite
def _random_matrix(draw, max_rows, max_cols):
    """(rows, cols): a matrix of 1 to ``max_rows`` int rows over 1 to
    ``max_cols`` columns."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r)), c


@given(_random_matrix(16, 64))
@settings(max_examples=120, deadline=None)
def test_rank_equals_rank_of_transpose(m):
    rows, cols = m
    assert RowBasis(rows).rank == RowBasis(_transpose(rows, cols)).rank


@given(_random_matrix(10, 10), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_in_rowspace_witness_brute_force(m, rng):
    # Build v as a known combination, then confirm both the membership test and
    # a brute-force witness search over all 2^rows combinations agree.
    rows, _ = m
    combo = rng.getrandbits(len(rows))
    v = 0
    for i in range(len(rows)):
        if (combo >> i) & 1:
            v ^= rows[i]
    assert RowBasis(rows).contains(v)
    found = any(
        _xor_combo(rows, picks) == v for picks in range(1 << len(rows))
    )
    assert found


def _xor_combo(rows, picks):
    acc = 0
    for i in range(len(rows)):
        if (picks >> i) & 1:
            acc ^= rows[i]
    return acc


@given(_random_matrix(9, 9), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_in_rowspace_matches_brute_force_on_random_vectors(m, rng):
    rows, cols = m
    v = rng.getrandbits(cols)
    brute = any(_xor_combo(rows, picks) == v for picks in range(1 << len(rows)))
    assert RowBasis(rows).contains(v) == brute


@given(_random_matrix(12, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_full_support_solvable_iff_rank_condition(m, rng):
    rows, cols = m
    b = rng.getrandbits(len(rows))
    augmented = [bits | ((b >> i & 1) << cols) for i, bits in enumerate(rows)]
    x = RestrictedSolver(rows, cols).solve(b)
    assert (x is not None) == (RowBasis(augmented).rank == RowBasis(rows).rank)
    if x is not None:
        assert _image(rows, x) == b


@given(_random_matrix(10, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_solve_restricted_matches_dense_reference(m, rng):
    rows, cols = m
    support = [j for j in range(cols) if rng.random() < 0.6]
    # Right-hand sides that are solvable half the time: mix images with noise.
    x0 = rng.getrandbits(cols)
    image = 0
    for i, bits in enumerate(rows):
        if (bits & x0).bit_count() & 1:
            image |= 1 << i
    b = image if rng.random() < 0.5 else rng.getrandbits(len(rows))

    a_dense = [_dense(bits, cols) for bits in rows]
    b_dense = _dense(b, len(rows))
    expect = _dense_solve_restricted(a_dense, b_dense, support)
    got = _solve_on(rows, support, b)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        assert bit_positions(got) == [j for j, v in enumerate(expect) if v]
        assert _image(rows, got) == b
        assert all(got >> j & 1 == 0 for j in range(cols) if j not in support)


def test_restricted_solver_reuse_matches_one_shot():
    rng = random.Random(7)
    rows = [rng.getrandbits(30) for _ in range(20)]
    sub = _columns(rows, sorted(rng.sample(range(30), 17)))
    solver = RestrictedSolver(sub, 17)
    for _ in range(40):
        b = rng.getrandbits(20)
        assert solver.solve(b) == RestrictedSolver(sub, 17).solve(b)


def test_kernel_basis_small_matrix_matches_brute_force():
    # 3x4 over columns {0,1,2,3}: rows x0+x1, x1+x2, x0+x2 -> rank 2, kernel dim 2.
    rows = [0b0011, 0b0110, 0b0101]
    solver = RestrictedSolver(rows, 4)
    basis = list(solver.iter_kernel())
    assert len(basis) == 2
    spanned = set()
    for combo in range(1 << len(basis)):
        acc = 0
        for i, k in enumerate(basis):
            if (combo >> i) & 1:
                acc ^= k
        spanned.add(acc)
    brute = {
        x for x in range(1 << 4)
        if all((bits & x).bit_count() % 2 == 0 for bits in rows)
    }
    assert spanned == brute


@given(_random_matrix(10, 14), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_properties(m, rng):
    rows, cols = m
    support = sorted(rng.sample(range(cols), rng.randint(0, cols)))
    sub = _columns(rows, support)
    basis = list(RestrictedSolver(sub, len(support)).iter_kernel())
    assert len(basis) == len(support) - RowBasis(sub).rank
    span = RowBasis()
    for k in basis:
        placed = _place(k, support)
        assert _image(rows, placed) == 0
        assert span.add(placed)  # linearly independent


def test_kernel_words_match_per_vector_oracle():
    """The bit-sliced back-substitution gives the words the kernel vectors
    give one at a time: on random matrices and column submatrices of them, on
    rank-deficient ones (repeated and summed rows), on the zero matrix (every
    column free) and with k = 0 (full column rank)."""
    rng = random.Random(73)
    cases = [([0] * 4, 6), ([1 << i for i in range(5)], 5)]
    for _ in range(120):
        num_rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        bits = [rng.getrandbits(cols) for _ in range(num_rows)]
        if num_rows > 2 and rng.random() < 0.5:
            bits[-1] = bits[0] ^ bits[1]
            bits[-2] = bits[0]
        cases.append((bits, cols))
    deficient = empty = 0
    for rows, cols in cases:
        for support in (range(cols), sorted(rng.sample(range(cols), rng.randint(0, cols)))):
            solver = RestrictedSolver(_columns(rows, support), len(support))
            assert solver.kernel_words() == kernel_words(solver)
            empty += bool(support) and not solver.free_columns()
            deficient += solver.rank < len(rows)
    assert empty and deficient


def test_row_basis_incremental_rank():
    rng = random.Random(3)
    basis = RowBasis()
    rows = []
    for _ in range(25):
        bits = rng.getrandbits(18)
        grew = basis.add(bits)
        rows.append(bits)
        assert basis.rank == RowBasis(rows).rank
        if not grew:
            assert basis.contains(bits)
