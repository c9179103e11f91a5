"""Bit-packed GF(2) algebra: examples, canonical solutions, and rank properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hgpdecode.gf2 import BitMatrix, BitVector, Gf2DimensionError, RestrictedSolver

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


def _columns(m, support):
    """A[:, S]: the columns of ``m`` on the ascending ``support``, in order."""
    return BitMatrix(
        m.rows, len(support),
        [sum((bits >> j & 1) << t for t, j in enumerate(support)) for bits in m.row_bits],
    )


def _place(y, support, length):
    """A vector over the columns of A[:, S] placed back on S, in a vector of
    ``length`` coordinates."""
    return BitVector.from_support(length, [support[t] for t in y.support()])


def _solve_on(m, support, b):
    """The canonical solve of A[:, S]·y = b, placed back on S, or None."""
    y = RestrictedSolver(_columns(m, support)).solve(b)
    return None if y is None else _place(y, support, m.cols)


def _image(m, x):
    """A·x, one parity per row."""
    return BitVector(
        m.rows, sum(((bits & x.bits).bit_count() & 1) << i for i, bits in enumerate(m.row_bits))
    )


# --- examples ---

def test_rank_identity():
    assert RowBasis(BitMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).rank == 3


def test_rank_zero_matrix():
    assert RowBasis(BitMatrix.from_dense([[0, 0], [0, 0]])).rank == 0


def test_rank_duplicate_rows():
    assert RowBasis(BitMatrix.from_dense([[1, 1], [1, 1]])).rank == 1


def test_solve_restricted_empty_support_zero_rhs():
    a = BitMatrix.from_dense([[1, 1]])
    x = _solve_on(a, [], BitVector.from_dense([0]))
    assert x is not None and x.bits == 0 and x.length == 2


def test_solve_restricted_single_pivot():
    a = BitMatrix.from_dense([[1, 1]])
    x = _solve_on(a, [0], BitVector.from_dense([1]))
    assert x is not None and x.support() == [0]


def test_solve_restricted_unsolvable():
    a = BitMatrix.from_dense([[1, 0], [0, 1]])
    assert _solve_on(a, [0], BitVector.from_dense([1, 1])) is None


def test_in_rowspace_zero_vector():
    m = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert RowBasis(m).contains(0)


def test_in_rowspace_sum_of_rows():
    m = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert RowBasis(m).contains(0b101)


def test_in_rowspace_negative():
    m = BitMatrix.from_dense([[1, 1, 0]])
    assert not RowBasis(m).contains(0b001)


def test_dimension_errors():
    m = BitMatrix.from_dense([[1, 0], [0, 1]])
    with pytest.raises(Gf2DimensionError):
        m.get(0, 2)
    with pytest.raises(Gf2DimensionError):
        RestrictedSolver(m).solve(BitVector(3, 0))
    with pytest.raises(Gf2DimensionError):
        BitVector(2, 4)


# --- properties ---

@st.composite
def _random_matrix(draw, max_rows, max_cols):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    return BitMatrix(r, c, bits)


@given(_random_matrix(16, 64))
@settings(max_examples=120, deadline=None)
def test_rank_equals_rank_of_transpose(m):
    assert RowBasis(m).rank == RowBasis(m.transpose()).rank


@given(_random_matrix(10, 10), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_in_rowspace_witness_brute_force(m, rng):
    # Build v as a known combination, then confirm both the membership test and
    # a brute-force witness search over all 2^rows combinations agree.
    combo = rng.getrandbits(m.rows)
    v = 0
    for i in range(m.rows):
        if (combo >> i) & 1:
            v ^= m.row_bits[i]
    assert RowBasis(m).contains(v)
    found = any(
        _xor_combo(m, picks) == v for picks in range(1 << m.rows)
    )
    assert found


def _xor_combo(m, picks):
    acc = 0
    for i in range(m.rows):
        if (picks >> i) & 1:
            acc ^= m.row_bits[i]
    return acc


@given(_random_matrix(9, 9), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_in_rowspace_matches_brute_force_on_random_vectors(m, rng):
    v = rng.getrandbits(m.cols)
    brute = any(_xor_combo(m, picks) == v for picks in range(1 << m.rows))
    assert RowBasis(m).contains(v) == brute


@given(_random_matrix(12, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_full_support_solvable_iff_rank_condition(m, rng):
    b = BitVector(m.rows, rng.getrandbits(m.rows))
    augmented = BitMatrix(
        m.rows, m.cols + 1,
        [bits | (b.get(i) << m.cols) for i, bits in enumerate(m.row_bits)],
    )
    x = RestrictedSolver(m).solve(b)
    assert (x is not None) == (RowBasis(augmented).rank == RowBasis(m).rank)
    if x is not None:
        assert _image(m, x) == b


@given(_random_matrix(10, 12), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_solve_restricted_matches_dense_reference(m, rng):
    support = [j for j in range(m.cols) if rng.random() < 0.6]
    # Right-hand sides that are solvable half the time: mix images with noise.
    x0 = rng.getrandbits(m.cols)
    image = 0
    for i, bits in enumerate(m.row_bits):
        if (bits & x0).bit_count() & 1:
            image |= 1 << i
    b_bits = image if rng.random() < 0.5 else rng.getrandbits(m.rows)
    b = BitVector(m.rows, b_bits)

    a_dense = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    b_dense = [b.get(i) for i in range(m.rows)]
    expect = _dense_solve_restricted(a_dense, b_dense, support)
    got = _solve_on(m, support, b)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        assert got.support() == [j for j, v in enumerate(expect) if v]
        assert _image(m, got) == b
        assert all(got.get(j) == 0 for j in range(m.cols) if j not in support)


def test_restricted_solver_reuse_matches_one_shot():
    rng = random.Random(7)
    m = BitMatrix(20, 30, [rng.getrandbits(30) for _ in range(20)])
    sub = _columns(m, sorted(rng.sample(range(30), 17)))
    solver = RestrictedSolver(sub)
    for _ in range(40):
        b = BitVector(20, rng.getrandbits(20))
        assert solver.solve(b) == RestrictedSolver(sub).solve(b)


def test_kernel_basis_small_matrix_matches_brute_force():
    # 3x4 over columns {0,1,2,3}: rows x0+x1, x1+x2, x0+x2 -> rank 2, kernel dim 2.
    m = BitMatrix(3, 4, [0b0011, 0b0110, 0b0101])
    solver = RestrictedSolver(m)
    basis = solver.kernel_basis()
    assert len(basis) == 2
    spanned = set()
    for combo in range(1 << len(basis)):
        acc = 0
        for i, k in enumerate(basis):
            if (combo >> i) & 1:
                acc ^= k.bits
        spanned.add(acc)
    brute = {
        x for x in range(1 << 4)
        if all((bits & x).bit_count() % 2 == 0 for bits in m.row_bits)
    }
    assert spanned == brute


@given(_random_matrix(10, 14), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_properties(m, rng):
    support = sorted(rng.sample(range(m.cols), rng.randint(0, m.cols)))
    sub = _columns(m, support)
    basis = RestrictedSolver(sub).kernel_basis()
    assert len(basis) == len(support) - RowBasis(sub).rank
    span = RowBasis()
    for k in basis:
        placed = _place(k, support, m.cols)
        assert _image(m, placed).bits == 0
        assert span.add(placed.bits)  # linearly independent


def test_kernel_words_match_per_vector_oracle():
    """The bit-sliced back-substitution gives the words the kernel vectors
    give one at a time: on random matrices and column submatrices of them, on
    rank-deficient ones (repeated and summed rows), on the zero matrix (every
    column free) and with k = 0 (full column rank)."""
    rng = random.Random(73)
    cases = [BitMatrix(4, 6, [0] * 4), BitMatrix(5, 5, [1 << i for i in range(5)])]
    for _ in range(120):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        bits = [rng.getrandbits(cols) for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            bits[-1] = bits[0] ^ bits[1]
            bits[-2] = bits[0]
        cases.append(BitMatrix(rows, cols, bits))
    deficient = empty = 0
    for m in cases:
        for support in (range(m.cols), sorted(rng.sample(range(m.cols), rng.randint(0, m.cols)))):
            solver = RestrictedSolver(_columns(m, support))
            assert solver.kernel_words() == kernel_words(solver)
            empty += bool(support) and not solver.free_columns()
            deficient += solver.rank < m.rows
    assert empty and deficient


def test_row_basis_incremental_rank():
    rng = random.Random(3)
    basis = RowBasis()
    rows = []
    for _ in range(25):
        bits = rng.getrandbits(18)
        grew = basis.add(bits)
        rows.append(bits)
        assert basis.rank == RowBasis(BitMatrix(len(rows), 18, rows)).rank
        if not grew:
            assert basis.contains(bits)
