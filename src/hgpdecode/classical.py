"""Classical expander codes: syndromes, the threshold-growing envelope finder,
and peeling erasure decoding.

The envelope finder repeatedly adopts any bit whose check neighborhood is
sufficiently suspicious (at least ``ceil((1 - 2*eps_v) * delta_v)`` suspicious
checks) and marks that bit's checks suspicious in turn.  Its coverage and size
guarantees are conditional theorems on audited expanders; the tests enforce
them only where an audit certifies the hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .erasure import _peel
from .gf2 import BitMatrix, BitVector, Gf2DimensionError, RestrictedSolver
from .graphs import BipartiteGraph

__all__ = [
    "ClassicalCode",
    "FindResult",
    "DecodeFailure",
    "classical_syndrome",
    "find_classical",
    "erase_decode_classical",
]


class DecodeFailure(Exception):
    """The erasure system is inconsistent with the code (no completion exists)."""


@dataclass(frozen=True)
class ClassicalCode:
    """Bits on the left side of ``graph``, parity checks on the right side."""

    graph: BipartiteGraph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def parity_matrix(self) -> BitMatrix:
        return BitMatrix.from_row_supports(self.m, self.n, self.graph.adj_c)


@dataclass
class FindResult:
    envelope: set[int]
    suspicious: set[int]
    iterations: int
    trace: list[tuple[int, int, int, int]]
    """Per-iteration records ``(bit, suspicious_hits, |L|, |R|)``."""


def classical_syndrome(code: ClassicalCode, word: BitVector) -> set[int]:
    """Checks whose neighborhood XORs to 1 under ``word``."""
    if word.length != code.n:
        raise Gf2DimensionError(f"word length {word.length} != bit count {code.n}")
    out = set()
    for c, nbrs in enumerate(code.graph.adj_c):
        acc = 0
        for v in nbrs:
            acc ^= (word.bits >> v) & 1
        if acc:
            out.add(c)
    return out


def find_classical(code: ClassicalCode, syndrome: set[int], epsilon_v) -> FindResult:
    """Grow an envelope of suspicious bits from a syndrome.

    While some bit outside the envelope has at least
    ``h = ceil((1 - 2*eps_v) * delta_v)`` of its checks suspicious, adopt the
    smallest-index such bit and mark all its checks suspicious.  Always
    terminates: the envelope grows monotonically and is bounded by n.
    ``epsilon_v`` must be exact: a float would round h through binary.
    """
    if isinstance(epsilon_v, float):
        raise TypeError("epsilon_v must be exact (Fraction, int, or 'p/q' string), not float")
    eps = Fraction(epsilon_v)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"epsilon_v must lie in [0, 1/2), got {eps}")
    threshold_frac = (1 - 2 * eps) * code.graph.delta_v
    h = -((-threshold_frac.numerator) // threshold_frac.denominator)  # ceil
    envelope: set[int] = set()
    suspicious: set[int] = set(syndrome)
    trace: list[tuple[int, int, int, int]] = []
    adj_v = code.graph.adj_v
    while True:
        chosen = -1
        hits = 0
        for v in range(code.n):
            if v in envelope:
                continue
            k = sum(1 for c in adj_v[v] if c in suspicious)
            if k >= h:
                chosen, hits = v, k
                break
        if chosen < 0:
            break
        envelope.add(chosen)
        suspicious.update(adj_v[chosen])
        trace.append((chosen, hits, len(envelope), len(suspicious)))
    return FindResult(envelope, suspicious, len(envelope), trace)


def erase_decode_classical(code: ClassicalCode, word: BitVector, erasures) -> BitVector | None:
    """Fill in the erased coordinates of ``word``.

    Peels checks with exactly one erased neighbor first, with the quantum
    solve's peeler (``erasure._peel``); if peeling stalls, solves the
    remaining restricted linear system.  Returns the completed codeword, or
    None when the system is underdetermined (several codeword completions).
    Raises DecodeFailure when no completion satisfies the code.
    """
    if word.length != code.n:
        raise Gf2DimensionError(f"word length {word.length} != bit count {code.n}")
    erased = set()
    for v in erasures:
        if not 0 <= v < code.n:
            raise ValueError(f"erased bit {v} out of range [0, {code.n})")
        erased.add(v)
    bits = word.bits
    for v in erased:
        bits &= ~(1 << v)

    # The erased bits are the columns and each check meeting them a row, as
    # a bit mask over the columns; a check whose known bits sum to 1 is
    # flagged.  Peeling forces what it can, the same in every completion.
    cols = sorted(erased)
    col_checks = [code.graph.adj_v[v] for v in cols]
    rows: dict[int, int] = {}
    for p, checks in enumerate(col_checks):
        for c in checks:
            rows[c] = rows.get(c, 0) | 1 << p
    values, left = _peel(rows, col_checks, classical_syndrome(code, BitVector(code.n, bits)))
    unknown = []
    for p, v in enumerate(cols):
        if values >> p & 1:
            bits |= 1 << v
        elif left >> p & 1:
            unknown.append(v)

    if unknown:
        h = code.parity_matrix()
        b = h.mul_vector(BitVector(code.n, bits))
        solver = RestrictedSolver(h, unknown)
        x = solver.solve(b)
        if x is None:
            raise DecodeFailure("erased coordinates cannot be completed to a codeword")
        if solver.rank < len(unknown):
            return None  # several codeword completions
        bits ^= x.bits

    completed = BitVector(code.n, bits)
    if classical_syndrome(code, completed):
        raise DecodeFailure("known coordinates are inconsistent with the code")
    return completed

