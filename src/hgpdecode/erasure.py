"""Completion stage of the decode: solve for a correction on the envelope.

Once the search stage has produced an envelope that is meant to cover the
actual error, what remains is plain linear algebra: find a correction inside
the envelope whose syndrome equals the observed one.  The system is tiny
compared to the code — only checks adjacent to the envelope can constrain
the correction, and a flagged check outside them rules every correction out,
so the solve touches at most ``(Δ_V + Δ_C)·|envelope| + |σ|`` rows.

Any solution is as good as the true error whenever the envelope stays below
the code distance: two solutions differ by a kernel element supported on the
envelope, and below distance such an element is a sum of generator supports.
``detect_ambiguity`` verifies this outright by testing each vector of a
kernel basis of the restricted system; without it the canonical solution is
returned as-is.  Coset checks and the ambiguity test both ask the code's
``StabilizerSpan``, built from the base code's kernels: no N-column matrix is
formed at any size.

The restricted matrix is built from the envelope side: each envelope
column lists its checks, every row collects the columns that name it, and
each row is packed once, so building costs O(Δ·|envelope|) list appends and
no check's support is scanned for envelope membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector, RestrictedSolver
from .hgp import CheckSet, HgpCode, QubitSet

__all__ = ["DecodeVerdict", "erase_decode_quantum", "verify_coset"]


@dataclass(frozen=True)
class DecodeVerdict:
    """Outcome of one envelope solve.

    ``status`` is one of ``"success"``, ``"no-solution"``,
    ``"ambiguous-logical"``.  ``coset_equivalent`` is filled only in test mode
    (when the true error was supplied), else None.  ``rows_touched`` counts the
    parity-check rows the solve actually looked at.
    """

    correction: QubitSet
    status: str
    coset_equivalent: bool | None
    rows_touched: int


def verify_coset(code: HgpCode, correction: QubitSet, true_error: QubitSet) -> bool:
    """True iff the correction and the true error differ by a sum of
    generator supports — i.e. they act identically on the code space."""
    return code.generator_basis().contains((correction ^ true_error).to_indices(code))


def erase_decode_quantum(
    code: HgpCode,
    sigma: CheckSet,
    envelope: QubitSet,
    *,
    detect_ambiguity: bool = False,
    true_error: QubitSet | None = None,
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

    ``detect_ambiguity`` additionally inspects a kernel basis of the
    restricted system and downgrades the status to ``"ambiguous-logical"``
    when solutions from distinct stabilizer cosets exist: some kernel vector
    is not a sum of generator supports.  Each test costs O(|vector|·Δ).  The
    basis vectors are built one at a time and the search stops at the first
    one outside the span, so only an unambiguous solve pays for the whole
    basis, which grows with the envelope.

    The last factorization is kept on the code, keyed by its columns alone,
    so consecutive solves on the same envelope only pay for
    back-substitution.  Every eager-mode solve hits it: the envelope is the
    whole code.
    """
    cols = tuple(envelope.to_indices(code))
    row_pos, solver = _restricted_system(code, cols)
    b_bits = 0
    outside = 0
    for x in sigma.to_indices(code):
        p = row_pos.get(x)
        if p is None:
            outside += 1
        else:
            b_bits |= 1 << p
    rows_touched = len(row_pos) + outside
    solution = None if outside else solver.solve(BitVector(len(row_pos), b_bits))
    if solution is None:
        return DecodeVerdict(QubitSet.of(), "no-solution", None, rows_touched)

    correction = QubitSet.from_indices(code, (cols[p] for p in solution.support()))
    status = "success"
    if detect_ambiguity:
        span = code.generator_basis()
        for k in solver.iter_kernel():
            if not span.contains(cols[p] for p in k.support()):
                status = "ambiguous-logical"
                break
    equivalent = None
    if true_error is not None:
        equivalent = verify_coset(code, correction, true_error)
    return DecodeVerdict(correction, status, equivalent, rows_touched)


def _restricted_system(code: HgpCode, cols: tuple[int, ...]) -> tuple[dict[int, int], RestrictedSolver]:
    """The position of each of the columns' checks among them, ascending,
    and the factorization of the checks x cols matrix.

    The cache is checked before any check is looked up.  The matrix is built
    from the columns' checks: every row collects its column positions and is
    packed once.  The per-column and per-row lists are dropped before the
    factorization, so a whole-code solve never holds them alongside it."""
    cached = getattr(code, "_erasure_solver", None)
    if cached is not None and cached[0] == cols:
        return cached[1], cached[2]
    col_checks = list(map(code.qubit_checks, cols))
    row_pos = {x: r for r, x in enumerate(sorted(set().union(*col_checks)))}
    supports: list[list[int]] = [[] for _ in row_pos]
    for p, chks in enumerate(col_checks):
        for x in chks:
            supports[row_pos[x]].append(p)
    del col_checks
    sub = BitMatrix.from_row_supports(len(row_pos), len(cols), supports)
    del supports
    solver = RestrictedSolver(sub, range(len(cols)))
    code._erasure_solver = (cols, row_pos, solver)
    return row_pos, solver
