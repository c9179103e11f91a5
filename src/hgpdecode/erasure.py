"""Completion stage of the decode: solve for a correction on the envelope.

Once the search stage has produced an envelope that is meant to cover the
actual error, what remains is plain linear algebra: find a correction inside
the envelope whose syndrome equals the observed one.  The system is tiny
compared to the code — only checks adjacent to the envelope can constrain
the correction, and a flagged check outside them rules every correction out,
so the solve touches at most ``(Δ_V + Δ_C)·|envelope| + |σ|`` rows.

The system is peeled first, as an erasure decoder peels (Delfosse & Zémor):
a check left with one unknown envelope qubit forces that qubit's value in
every solution.  When peeling forces every qubit, the solution is unique, so
it is the canonical one and there is no kernel to test; a lazy envelope of
a few qubits is solved this way in O(Δ·|envelope|) row operations.  When a
qubit is left over, the whole envelope is factorized by elimination and
peeling's values are not used, so the canonical solution, the status and
``rows_touched`` are the ones elimination alone gives.

One routine, ``_complete``, does this for both codes: it takes each
column's checks and the flagged checks, and returns the rows, the
solution and the factorization.  ``classical.erase_decode_classical``
calls it with the erased bits as columns, as Viderman's decoder ends in
erasure correction on its envelope.  The last factorization of a quantum
solve is kept on the code, and only ``erase_decode_quantum`` reads or
writes it; the eager whole-code envelope never peels, and every solve
after the first hits it.

Any solution is as good as the true error whenever the envelope stays below
the code distance: two solutions differ by a kernel element supported on the
envelope, and below distance such an element is a sum of generator supports.
``detect_ambiguity`` verifies this outright by testing each vector of a
kernel basis of the restricted system; without it the canonical solution is
returned as-is.  The solve never sees the true error: a caller that knows it
judges the correction with ``verify_coset``.  Coset checks and the ambiguity
test both ask the code's ``StabilizerSpan``, built from the base code's
kernels: no N-column matrix is formed at any size.

The restricted matrix is built from the envelope side: each envelope column
lists its checks, and every row collects the columns that name it as a bit
mask, so building costs O(Δ·|envelope|) dict updates and no check's support
is scanned for envelope membership.  The rows are plain ints over column
positions, which ``RestrictedSolver`` takes as they are; a solution comes
back as an int, and ``gf2.bit_positions`` lists its columns.  Each entry
point checks once that its sets belong to its code; the envelope's indices
are then sorted, since column order fixes the canonical solution, and the
syndrome's are read as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import RestrictedSolver, bit_positions
from .hgp import CheckSet, HgpCode, QubitSet

__all__ = ["DecodeVerdict", "erase_decode_quantum", "verify_coset"]


@dataclass(frozen=True)
class DecodeVerdict:
    """Outcome of one envelope solve.

    ``status`` is one of ``"success"``, ``"no-solution"``,
    ``"ambiguous-logical"``; with no solution the correction is empty.
    ``rows_touched`` counts the parity-check rows the solve actually looked
    at.
    """

    correction: QubitSet
    status: str
    rows_touched: int


def verify_coset(code: HgpCode, correction: QubitSet, true_error: QubitSet) -> bool:
    """True iff the correction and the true error differ by a sum of
    generator supports — i.e. they act identically on the code space."""
    return code.generator_basis().contains((correction ^ true_error)._same(code).indices)


def erase_decode_quantum(
    code: HgpCode,
    sigma: CheckSet,
    envelope: QubitSet,
    *,
    detect_ambiguity: bool = False,
) -> DecodeVerdict:
    """Solve for a correction supported on ``envelope`` with syndrome ``sigma``.

    Rows are the checks adjacent to the envelope: a check outside them reads
    0 == 0 for any supported correction, so dropping it loses nothing, while
    a flagged check outside them forces ``"no-solution"`` at once.  The
    syndrome enters only the right-hand side.  ``rows_touched`` counts the
    flagged checks and the envelope's checks together.  Columns are the
    envelope's qubit indices in ascending order, which puts the whole
    vertex-vertex block before the check-check block and pins down which
    solution the canonical solve returns.

    The system is first peeled: a row with one unknown column forces that
    column's value in every solution.  When peeling forces every column,
    the solution is unique, so it is the canonical one; if it breaks a row,
    no solution exists.  Either way there is no kernel to search.  When a
    column is left over, the whole envelope is factorized and solved as
    below, whatever peeling found.

    ``detect_ambiguity`` additionally inspects a kernel basis of the
    restricted system and downgrades the status to ``"ambiguous-logical"``
    when solutions from distinct stabilizer cosets exist: some kernel vector
    is not a sum of generator supports.  Each test costs O(|vector|·Δ).  The
    basis vectors are built one at a time and the search stops at the first
    one outside the span, so only an unambiguous solve pays for the whole
    basis, which grows with the envelope.

    The last factorization is kept on the code, keyed by its columns alone,
    so consecutive solves on the same envelope only pay for
    back-substitution, and are not peeled again.  Every eager-mode solve
    hits it: the envelope is the whole code.
    """
    cols = tuple(sorted(envelope._same(code).indices))
    flagged = sigma._same(code).indices
    cached = getattr(code, "_erasure_solver", None)
    if cached is not None and cached[0] == cols:
        rows, solution, solver = _complete(None, flagged, cached[1:])
    else:
        rows, solution, solver = _complete(list(map(code.qubit_checks, cols)), flagged)
        if solver is not None:
            code._erasure_solver = (cols, rows, solver)
    rows_touched = len(rows) + len(flagged.difference(rows))
    if solution is None:
        return DecodeVerdict(QubitSet(code.n, code.m), "no-solution", rows_touched)
    correction = QubitSet(code.n, code.m, frozenset([cols[p] for p in solution]))
    status = "success"
    if detect_ambiguity and solver is not None:
        span = code.generator_basis()
        for k in solver.iter_kernel():
            if not span.contains(cols[p] for p in bit_positions(k)):
                status = "ambiguous-logical"
                break
    return DecodeVerdict(correction, status, rows_touched)


def _complete(
    col_checks: list[list[int]] | None,
    flagged: set[int] | frozenset[int],
    factored: tuple[dict[int, int], RestrictedSolver] | None = None,
) -> tuple[dict[int, int], list[int] | None, RestrictedSolver | None]:
    """(rows, solution, solver): the erasure system of the columns whose
    checks ``col_checks`` lists, solved for the checks ``flagged`` to read 1
    and every other check 0.

    ``rows`` is keyed by the checks the columns meet.  ``solution`` lists
    the column positions the canonical solution sets, ascending, or is None
    when there is none: a flagged check outside the rows has no column to
    satisfy it.  ``solver`` is the factorization of the rows, with ``rows``
    mapping each check to its row position, or None when peeling forced
    every column.  ``factored``, the (row positions, solver) pair of these
    same columns, skips building and peeling."""
    if factored is not None:
        rows, solver = factored
    else:
        rows, solver = {}, None
        # Highest column first: each row's bit mask is allocated at its
        # full size once, and a whole-code envelope's 4 500-bit rows are
        # not regrown in turn, which fragments the heap.
        for p in reversed(range(len(col_checks))):
            bit = 1 << p
            for x in col_checks[p]:
                rows[x] = rows.get(x, 0) | bit
    if flagged.difference(rows):
        return rows, None, solver
    if solver is None:
        values, unknown = _peel(rows, col_checks, flagged)
        if not unknown:
            # The forced values are the only candidate: a solution exactly
            # when their syndrome is the flagged set.
            solution = bit_positions(values)
            odd: set[int] = set()
            for p in solution:
                odd.symmetric_difference_update(col_checks[p])
            return rows, solution if odd == flagged else None, None
        num_cols = len(col_checks)
        del col_checks
        rows, solver = _factorize(rows, num_cols)
    b_bits = 0
    for x in flagged:
        b_bits |= 1 << rows[x]
    solution = solver.solve(b_bits)
    return rows, None if solution is None else bit_positions(solution), solver


def _peel(
    rows: dict[int, int], col_checks: list[list[int]], flagged: set[int] | frozenset[int]
) -> tuple[int, int]:
    """(values, unknown): the column values peeling forces, and the columns
    it leaves unforced, as bit masks over column positions.

    ``rows`` maps each check to its columns, ``col_checks`` each column to
    its checks.  A row whose columns are all known but one forces that one
    to the row's syndrome bit plus the known values, the same in every
    solution.  A row is queued when it is left with one unknown column, and
    only the rows of a newly forced column are looked at again, so the peel
    costs O(Δ·|columns|) row operations."""
    unknown, values = (1 << len(col_checks)) - 1, 0
    ready = [chk for chk, bits in rows.items() if not bits & bits - 1]
    while ready:
        chk = ready.pop()
        bits = rows[chk]
        last = bits & unknown
        if not last:
            continue
        if (chk in flagged) ^ (bits & values).bit_count() & 1:
            values |= last
        unknown ^= last
        for x in col_checks[last.bit_length() - 1]:
            left = rows[x] & unknown
            if left and not left & left - 1:
                ready.append(x)
    return values, unknown


def _factorize(rows: dict[int, int], num_cols: int) -> tuple[dict[int, int], RestrictedSolver]:
    """The position of each of the rows' checks among them, ascending, and
    the factorization of the checks x columns matrix.  ``rows`` maps each
    check to its columns as a bit mask, its matrix row."""
    order = sorted(rows)
    return {x: r for r, x in enumerate(order)}, RestrictedSolver([rows[x] for x in order], num_cols)
