"""Reduced error representatives.

A generator's support is a fixed-size local view: delta_c VV qubits (one per
base neighbor of its right vertex) plus delta_v CC qubits (one per neighbor of
its left vertex).  Subsets of one view are packed into (delta_v + delta_c)-bit
masks — low bits the VV part in base-adjacency order, high bits the CC part.
A mask is locally reduced when it keeps at most half the view; the search
scores those masks without listing them, and their catalog is a test oracle
in ``tests/oracles.py``.

Toggling a generator's support never changes the syndrome.  Greedy
reduction toggles until no toggle lowers the weight; at that fixpoint every
generator meets the error in a locally reduced set (2·|E ∩ supp g| ≤ Δv + Δc),
which is all the search needs, so it is the reduction trial errors get.
``REDUCTIONS`` lists the modes: ``"none"`` keeps the error, ``"greedy"``
reduces it.  Greedy reduction counts each generator's hits on the error on
the code's slot tables, so a pass costs O(|E|·Δ) and builds no qubit's
generator list, nor a generator's qubit list until it toggles.  The
minimum-weight representative over all togglings is a brute-force search
kept with the test oracles (``tests/oracles.py::brute_reduce``).
"""

from __future__ import annotations

from .hgp import HgpCode, QubitSet

__all__ = [
    "REDUCTIONS",
    "reduce_error",
]


# The reduction modes, as campaigns, ``decode_once`` and ``--reduce`` accept them.
REDUCTIONS = ("none", "greedy")


def reduce_error(code: HgpCode, error: QubitSet, mode: str = "greedy") -> QubitSet:
    """A coset representative of ``error`` modulo generator toggles.

    ``none`` returns ``error`` itself; ``greedy`` repeatedly applies the
    lowest strictly-improving toggle until no toggle improves, a local
    minimum reachable at any scale.
    """
    if mode not in REDUCTIONS:
        raise ValueError(f"mode must be one of {REDUCTIONS}, got {mode!r}")
    if mode == "none":
        return error
    # Toggling g strictly shrinks E exactly when E holds more than half of
    # g's delta_v + delta_c qubits.  A generator's hits on E are counted on
    # the code's slot tables, and the lowest improving one toggles.
    n, m, nn = code.n, code.m, code.n * code.n
    bit_slots, check_slots = code._bit_slots, code._check_slots
    width = code.delta_v + code.delta_c
    err = set(error._same(code).indices)
    while True:
        hits: dict[int, int] = {}
        get = hits.get
        for q in err:
            # VV qubit (nu, v): generators c*n + v over nu's bit slots.  CC
            # qubit (c, zeta): generators c*n + w over zeta's check slots.
            if q < nn:
                nu, base = divmod(q, n)
                slots = bit_slots[nu]
            else:
                c, zeta = divmod(q - nn, m)
                base, slots = c * n, check_slots[zeta]
            for offset, _, _ in slots:
                g = base + offset
                hits[g] = get(g, 0) + 1
        improving = [g for g, h in hits.items() if 2 * h > width]
        if not improving:
            return QubitSet(code.n, code.m, frozenset(err))
        err.symmetric_difference_update(code.gen_qubits(min(improving)))
