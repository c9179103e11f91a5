"""Dense GF(2) linear algebra on Python ints used as bit sets.

A vector, or a matrix row, is a plain int whose bit ``j`` is coordinate
``j``, so a row elimination step is a single big-int XOR.  That keeps
Gaussian elimination cache-linear and fast enough for the matrices this
package meets (up to a few thousand rows and ~20,000 columns); nothing here
attempts sparse or asymptotically fast algebra.  A matrix is a list of rows
and its column count; ``RestrictedSolver`` checks, once, that its rows and
each right-hand side fit their declared lengths, and ``bit_positions`` walks
the set bits of a result.

Solutions of underdetermined systems are canonical: the reduced row echelon
form is unique, pivots sit on the lowest-index columns, and free variables are
set to 0, so decoder outputs are reproducible across runs.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "Gf2DimensionError",
    "RestrictedSolver",
    "bit_positions",
]


class Gf2DimensionError(ValueError):
    """Raised when a row or a right-hand side does not fit its declared length."""


def _parity(x: int) -> int:
    return x.bit_count() & 1


def bit_positions(x: int) -> list[int]:
    """The positions of the set bits of ``x`` (not negative), ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


class RestrictedSolver:
    """Factor ``A``, then solve many ``A·x = b``.

    ``A`` is given as its rows, each an int over ``cols`` columns; ``b`` and
    the solutions are ints over the rows and the columns.  The factorization
    records, for every echelon row, which original rows were combined into
    it, so each later ``solve`` only has to fold a new right-hand side
    through those combinations: no re-elimination.  Free variables are 0 and
    pivots take the lowest available column, so the returned solution is the
    canonical one (the unique-RREF solution).
    """

    def __init__(self, rows: list[int], cols: int) -> None:
        if cols < 0:
            raise Gf2DimensionError(f"negative column count {cols}")
        self.cols = cols
        self.rows = len(rows)
        # Echelon rows: pivot column -> (row bits, combination over input rows).
        self._pivots: dict[int, tuple[int, int]] = {}
        # Combinations that eliminated to zero: consistency constraints on b.
        self._null_combos: list[int] = []
        for i, bits in enumerate(rows):
            if bits < 0 or bits >> cols:
                raise Gf2DimensionError(f"row {i} has bits outside the {cols} columns")
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

    def solve(self, b: int) -> int | None:
        """Return the canonical solution of ``A·x = b``, or None if the system
        is inconsistent."""
        if b < 0 or b >> self.rows:
            raise Gf2DimensionError(f"right-hand side has bits outside the {self.rows} rows")
        for combo in self._null_combos:
            if _parity(combo & b):
                return None
        x = 0
        for col in self._pivot_cols_desc:
            bits, combo = self._pivots[col]
            val = _parity(combo & b) ^ _parity((bits ^ (1 << col)) & x)
            if val:
                x |= 1 << col
        return x

    def free_columns(self) -> list[int]:
        """The columns that carry no pivot, ascending.

        Pivots are lowest set bits of distinct echelon rows, so every nonzero
        vector in the row space of ``A`` has a 1 on some pivot column and
        none lies entirely on the free columns."""
        frees = (1 << self.cols) - 1
        for col in self._pivots:
            frees &= ~(1 << col)
        return bit_positions(frees)

    def iter_kernel(self) -> Iterator[int]:
        """A basis of ``{x : A·x = 0}``, one vector per free column (that
        column set to 1, other frees 0), so the basis size is the column
        count minus rank.  Each vector is built only when asked for: a
        caller that stops early skips the back-substitution of the rest."""
        for free in self.free_columns():
            x = 1 << free
            for col in self._pivot_cols_desc:
                bits, _ = self._pivots[col]
                if _parity((bits ^ (1 << col)) & x):
                    x |= 1 << col
            yield x

    def kernel_words(self) -> list[int]:
        """The ``iter_kernel()`` vectors bit-sliced by column: bit t of
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
