"""Classical expander codes: syndromes, the threshold-growing envelope finder,
and erasure completion.

The code of a ``BipartiteGraph`` has its bits on the left side and its
parity checks on the right side; every function here takes the graph.

The envelope finder repeatedly adopts any bit whose check neighborhood is
sufficiently suspicious (at least ``ceil((1 - 2*eps_v) * delta_v)`` suspicious
checks) and marks that bit's checks suspicious in turn.  Its coverage and size
guarantees are conditional theorems on audited expanders; the tests enforce
them only where an audit certifies the hypotheses.

Erasure completion runs the quantum solve's routine, ``erasure._complete``:
the erased bits are its columns, and the checks that the known bits leave
odd are its flagged checks.  It peels, and eliminates the erased bits when
peeling leaves one unforced.

A word is a plain int whose bit ``v`` is bit ``v`` of the code.  The two
entry points that take one, ``classical_syndrome`` and
``erase_decode_classical``, refuse a word that is negative or has a bit at
the graph's ``n`` or above (``Gf2DimensionError``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .erasure import _complete
from .gf2 import Gf2DimensionError, bit_positions
from .graphs import BipartiteGraph

__all__ = [
    "DecodeFailure",
    "classical_syndrome",
    "find_classical",
    "erase_decode_classical",
]


class DecodeFailure(Exception):
    """The erasure system is inconsistent with the code (no completion exists)."""


def _check_word(graph: BipartiteGraph, word: int) -> None:
    if word < 0 or word >> graph.n:
        raise Gf2DimensionError(f"word has bits outside the {graph.n} bits of the code")


def classical_syndrome(graph: BipartiteGraph, word: int) -> set[int]:
    """Checks whose neighborhood XORs to 1 under ``word``, an int whose bit
    ``v`` is bit ``v`` of the code: each set bit's checks toggle in and out."""
    _check_word(graph, word)
    out: set[int] = set()
    for v in bit_positions(word):
        out.symmetric_difference_update(graph.adj_v[v])
    return out


def find_classical(graph: BipartiteGraph, syndrome: set[int], epsilon_v) -> set[int]:
    """The envelope of suspicious bits grown from a syndrome.

    While some bit outside the envelope has at least
    ``h = ceil((1 - 2*eps_v) * delta_v)`` of its checks suspicious, adopt the
    smallest-index such bit and mark all its checks suspicious.  Always
    terminates: the envelope grows monotonically and is bounded by n.
    Adoption only grows the suspicious set, so a bit that qualifies keeps
    qualifying, and the envelope is the same in every adoption order.
    ``epsilon_v`` must be exact: a float would round h through binary.
    """
    if isinstance(epsilon_v, float):
        raise TypeError("epsilon_v must be exact (Fraction, int, or 'p/q' string), not float")
    eps = Fraction(epsilon_v)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"epsilon_v must lie in [0, 1/2), got {eps}")
    threshold_frac = (1 - 2 * eps) * graph.delta_v
    h = -((-threshold_frac.numerator) // threshold_frac.denominator)  # ceil
    envelope: set[int] = set()
    suspicious: set[int] = set(syndrome)
    adj_v = graph.adj_v
    while True:
        chosen = -1
        for v in range(graph.n):
            if v not in envelope and sum(1 for c in adj_v[v] if c in suspicious) >= h:
                chosen = v
                break
        if chosen < 0:
            return envelope
        envelope.add(chosen)
        suspicious.update(adj_v[chosen])


def erase_decode_classical(graph: BipartiteGraph, word: int, erasures) -> int | None:
    """Fill in the erased coordinates of ``word``.

    Solves for the erased bits with the quantum solve's routine
    (``erasure._complete``): it peels checks with exactly one erased
    neighbor, and if a bit is left unforced, eliminates the system of all the
    erased bits.  Returns the completed codeword, or None when the system is
    underdetermined (several codeword completions).  Raises DecodeFailure
    when no completion satisfies the code.  Each erased bit must be an
    integer in [0, n): a float raises ``TypeError``.
    """
    _check_word(graph, word)
    erased = set()
    for v in map(index, erasures):
        if not 0 <= v < graph.n:
            raise ValueError(f"erased bit {v} out of range [0, {graph.n})")
        erased.add(v)
    bits = word
    for v in erased:
        bits &= ~(1 << v)
    cols = sorted(erased)
    flagged = classical_syndrome(graph, bits)
    _, solution, solver = _complete([graph.adj_v[v] for v in cols], flagged)
    if solution is None:
        raise DecodeFailure("erased coordinates cannot be completed to a codeword")
    if solver is not None and solver.rank < len(cols):
        return None  # several codeword completions
    for p in solution:
        bits |= 1 << cols[p]
    if classical_syndrome(graph, bits):
        raise DecodeFailure("known coordinates are inconsistent with the code")
    return bits

