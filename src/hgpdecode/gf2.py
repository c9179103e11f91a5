"""Dense GF(2) linear algebra on bit-packed rows.

Rows live in Python integers used as bit sets (bit ``j`` = column ``j``), so a
row elimination step is a single big-int XOR.  That keeps Gaussian elimination
cache-linear and fast enough for the matrices this package meets (up to a few
thousand rows and ~20,000 columns); nothing here attempts sparse or
asymptotically fast algebra.

Solutions of underdetermined systems are canonical: the reduced row echelon
form is unique, pivots sit on the lowest-index columns, and free variables are
set to 0, so decoder outputs are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "BitVector",
    "BitMatrix",
    "Gf2DimensionError",
    "RestrictedSolver",
]


class Gf2DimensionError(ValueError):
    """Raised when operand dimensions do not match, or an index is out of range."""


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class BitVector:
    """A length-checked GF(2) vector; ``bits`` holds bit ``j`` for coordinate ``j``."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise Gf2DimensionError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise Gf2DimensionError("bits outside the declared length")

    @classmethod
    def from_support(cls, length: int, support) -> BitVector:
        bits = 0
        for j in support:
            if not 0 <= j < length:
                raise Gf2DimensionError(f"coordinate {j} out of range [0, {length})")
            bits |= 1 << j
        return cls(length, bits)

    @classmethod
    def from_dense(cls, values) -> BitVector:
        values = list(values)
        bits = 0
        for j, v in enumerate(values):
            if v & 1:
                bits |= 1 << j
        return cls(len(values), bits)

    def get(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise Gf2DimensionError(f"coordinate {j} out of range [0, {self.length})")
        return (self.bits >> j) & 1

    def support(self) -> list[int]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise Gf2DimensionError("length mismatch in xor")
        return BitVector(self.length, self.bits ^ other.bits)


class BitMatrix:
    """Row-major packed GF(2) matrix: ``row_bits[i]`` holds row ``i`` as an int."""

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise Gf2DimensionError("negative dimension")
        if row_bits is None:
            row_bits = [0] * rows
        if len(row_bits) != rows:
            raise Gf2DimensionError("row count does not match row_bits")
        for r in row_bits:
            if r < 0 or r >> cols:
                raise Gf2DimensionError("row bits outside the declared column count")
        self.rows = rows
        self.cols = cols
        self.row_bits = list(row_bits)

    @classmethod
    def from_dense(cls, dense) -> BitMatrix:
        dense = [list(row) for row in dense]
        cols = len(dense[0]) if dense else 0
        bits = []
        for row in dense:
            if len(row) != cols:
                raise Gf2DimensionError("ragged rows")
            acc = 0
            for j, v in enumerate(row):
                if v & 1:
                    acc |= 1 << j
            bits.append(acc)
        return cls(len(dense), cols, bits)

    @classmethod
    def from_row_supports(cls, rows: int, cols: int, supports) -> BitMatrix:
        bits = []
        for support in supports:
            acc = 0
            for j in support:
                if not 0 <= j < cols:
                    raise Gf2DimensionError(f"column {j} out of range [0, {cols})")
                acc |= 1 << j
            bits.append(acc)
        if len(bits) != rows:
            raise Gf2DimensionError("row count does not match supports")
        return cls(rows, cols, bits)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise Gf2DimensionError(f"index ({i}, {j}) out of range")
        return (self.row_bits[i] >> j) & 1

    def transpose(self) -> BitMatrix:
        out = [0] * self.cols
        for i, bits in enumerate(self.row_bits):
            while bits:
                low = bits & -bits
                out[low.bit_length() - 1] |= 1 << i
                bits ^= low
        return BitMatrix(self.cols, self.rows, out)


class RestrictedSolver:
    """Factor ``A``, then solve many ``A·x = b``.

    The factorization records, for every echelon row, which original rows were
    combined into it, so each later ``solve`` only has to fold a new right-hand
    side through those combinations: no re-elimination.  Free variables are 0
    and pivots take the lowest available column, so the returned solution is
    the canonical one (the unique-RREF solution).
    """

    def __init__(self, a: BitMatrix) -> None:
        self.cols = a.cols
        self.rows = a.rows
        # Echelon rows: pivot column -> (row bits, combination over input rows).
        self._pivots: dict[int, tuple[int, int]] = {}
        # Combinations that eliminated to zero: consistency constraints on b.
        self._null_combos: list[int] = []
        for i, bits in enumerate(a.row_bits):
            combo = 1 << i
            while bits:
                low = (bits & -bits).bit_length() - 1
                piv = self._pivots.get(low)
                if piv is None:
                    self._pivots[low] = (bits, combo)
                    break
                bits ^= piv[0]
                combo ^= piv[1]
            else:
                self._null_combos.append(combo)
        self._pivot_cols_desc = sorted(self._pivots, reverse=True)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, b: BitVector) -> BitVector | None:
        """Return the canonical solution of ``A·x = b``, or None if the system
        is inconsistent."""
        if b.length != self.rows:
            raise Gf2DimensionError("right-hand side length does not match row count")
        bb = b.bits
        for combo in self._null_combos:
            if _parity(combo & bb):
                return None
        x = 0
        for col in self._pivot_cols_desc:
            bits, combo = self._pivots[col]
            val = _parity(combo & bb) ^ _parity((bits ^ (1 << col)) & x)
            if val:
                x |= 1 << col
        return BitVector(self.cols, x)

    def free_columns(self) -> list[int]:
        """The columns that carry no pivot, ascending.

        Pivots are lowest set bits of distinct echelon rows, so every nonzero
        vector in the row space of ``A`` has a 1 on some pivot column and
        none lies entirely on the free columns."""
        frees = (1 << self.cols) - 1
        for col in self._pivots:
            frees &= ~(1 << col)
        return BitVector(self.cols, frees).support()

    def iter_kernel(self) -> Iterator[BitVector]:
        """The vectors of ``kernel_basis()``, in order, each built only when
        asked for: a caller that stops early skips the back-substitution of
        the rest."""
        for free in self.free_columns():
            x = 1 << free
            for col in self._pivot_cols_desc:
                bits, _ = self._pivots[col]
                if _parity((bits ^ (1 << col)) & x):
                    x |= 1 << col
            yield BitVector(self.cols, x)

    def kernel_words(self) -> list[int]:
        """The ``kernel_basis()`` vectors bit-sliced by column: bit t of
        ``words[j]`` is coordinate j of the t-th kernel vector.

        All vectors are back-substituted at once.  Free column t gets the
        word ``1 << t`` (its own vector holds it, no other does); then each
        pivot column, in descending order, gets the XOR of the words of its
        echelon row's other columns, which are higher and already set."""
        words = [0] * self.cols
        for t, free in enumerate(self.free_columns()):
            words[free] = 1 << t
        for col in self._pivot_cols_desc:
            rest = self._pivots[col][0] ^ (1 << col)
            acc = 0
            while rest:
                low = rest & -rest
                acc ^= words[low.bit_length() - 1]
                rest ^= low
            words[col] = acc
        return words

    def kernel_basis(self) -> list[BitVector]:
        """A basis of ``{x : A·x = 0}``.

        One vector per free column (that column set to 1, other frees 0),
        so the basis size is the column count minus rank."""
        return list(self.iter_kernel())
