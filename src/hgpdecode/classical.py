"""Classical expander codes: syndromes, the threshold-growing envelope finder,
and erasure completion.

The envelope finder repeatedly adopts any bit whose check neighborhood is
sufficiently suspicious (at least ``ceil((1 - 2*eps_v) * delta_v)`` suspicious
checks) and marks that bit's checks suspicious in turn.  Its coverage and size
guarantees are conditional theorems on audited expanders; the tests enforce
them only where an audit certifies the hypotheses.

Erasure completion runs the quantum solve's routine, ``erasure._complete``:
the erased bits are its columns, and the checks that the known bits leave
odd are its flagged checks.  It peels, and eliminates the erased bits when
peeling leaves one unforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .erasure import _complete
from .gf2 import BitVector, Gf2DimensionError
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

    Solves for the erased bits with the quantum solve's routine
    (``erasure._complete``): it peels checks with exactly one erased
    neighbor, and if a bit is left unforced, eliminates the system of all the
    erased bits.  Returns the completed codeword, or None when the system is
    underdetermined (several codeword completions).  Raises DecodeFailure
    when no completion satisfies the code.
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
    cols = sorted(erased)
    flagged = classical_syndrome(code, BitVector(code.n, bits))
    _, solution, solver = _complete([code.graph.adj_v[v] for v in cols], flagged)
    if solution is None:
        raise DecodeFailure("erased coordinates cannot be completed to a codeword")
    if solver is not None and solver.rank < len(cols):
        return None  # several codeword completions
    for p in solution:
        bits |= 1 << cols[p]
    completed = BitVector(code.n, bits)
    if classical_syndrome(code, completed):
        raise DecodeFailure("known coordinates are inconsistent with the code")
    return completed

