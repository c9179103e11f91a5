"""Reduced error representatives and the catalog of locally reduced masks.

A generator's support is a fixed-size local view: delta_c VV qubits (one per
base neighbor of its right vertex) plus delta_v CC qubits (one per neighbor of
its left vertex).  Subsets of one view are packed into (delta_v + delta_c)-bit
masks — low bits the VV part in base-adjacency order, high bits the CC part —
so the catalog of locally reduced sets depends only on the degree pair and is
shared across all generators and all codes with those degrees.

Toggling a generator's support never changes the syndrome; exact reduction is
a brute-force search over all togglings (tiny codes only), greedy reduction
the scalable fixpoint stand-in used to prepare trial errors.  Greedy reduction
counts each generator's hits on the error through the qubits' incidence, so
a pass costs O(|E|·Δ) and builds no generator's qubit list until it toggles.
"""

from __future__ import annotations

import functools
from collections import Counter

from .gf2 import BitVector
from .hgp import HgpCode, QubitSet

__all__ = [
    "ReductionConfigError",
    "part_sizes",
    "locally_reduced_masks",
    "reduce_error",
]


# Widest local view whose candidate catalog is enumerated: a 20-qubit view
# already has over 600 000 locally reduced masks.
MAX_VIEW_WIDTH = 20


class ReductionConfigError(ValueError):
    """Local view too wide to enumerate (memory guard)."""


def check_view_width(width: int) -> None:
    if width > MAX_VIEW_WIDTH:
        raise ReductionConfigError(
            f"local view has {width} qubits, above the enumeration cap {MAX_VIEW_WIDTH}"
        )


def part_sizes(mask: int, delta_c: int) -> tuple[int, int]:
    """(VV count, CC count) of a local-view mask."""
    return (mask & ((1 << delta_c) - 1)).bit_count(), (mask >> delta_c).bit_count()


@functools.lru_cache(maxsize=None)
def locally_reduced_masks(delta_v: int, delta_c: int) -> tuple[int, ...]:
    """All nonempty locally reduced masks for one degree pair, ascending."""
    width = delta_v + delta_c
    # a_v + a_c of part_sizes is the mask's popcount.
    return tuple(m for m in range(1, 1 << width) if 2 * m.bit_count() <= width)


def reduce_error(code: HgpCode, error: QubitSet, mode: str = "greedy") -> QubitSet:
    """A lower-weight coset representative of ``error`` modulo generator toggles.

    ``exact`` brute-forces all 2^|gens| togglings (ties broken by smallest
    lexicographic qubit-index sequence) and is restricted to tiny codes;
    ``greedy`` repeatedly applies the first strictly-improving toggle until no
    toggle improves, a local minimum reachable at any scale.
    """
    if mode == "exact":
        if code.num_gens > 20:
            raise ValueError(
                f"exact reduction needs <= 20 generators, code has {code.num_gens}"
            )

        def indices(b: int) -> list[int]:
            return BitVector(code.num_qubits, b).support()

        bits = sum(1 << q for q in error.to_indices(code))
        supports = [sum(1 << q for q in code.gen_qubits(g)) for g in range(code.num_gens)]
        best = bits
        best_key = (bits.bit_count(), indices(bits))
        cur = bits
        for step in range(1, 1 << code.num_gens):
            # Gray-code walk: one toggle per step visits every combination.
            cur ^= supports[(step & -step).bit_length() - 1]
            w = cur.bit_count()
            if w <= best_key[0]:
                key = (w, indices(cur))
                if key < best_key:
                    best, best_key = cur, key
        return QubitSet.from_indices(code, indices(best))
    if mode != "greedy":
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    # Toggling g strictly shrinks E exactly when E holds more than half of
    # g's delta_v + delta_c qubits.  A generator's hits on E are counted
    # through the qubits' incidence, and the lowest improving one toggles.
    width = code.delta_v + code.delta_c
    err = set(error.to_indices(code))
    while True:
        hits = Counter(g for q in err for g, _ in code.qubit_gens(q))
        improving = [g for g, h in hits.items() if 2 * h > width]
        if not improving:
            return QubitSet.from_indices(code, err)
        err.symmetric_difference_update(code.gen_qubits(min(improving)))
