"""Set-level references the tests compare the package against.

The package runs on integer indices: ``QubitSet``/``CheckSet`` hold the
code's qubit and check indices, ``HgpCode``'s incidence methods
(``gen_qubits``, ``check_qubits``, ``qubit_gens``, ``check_gens``, ...) and
the ``ssfind`` view tables of each degree pair read them, and ``syndrome``
XORs each qubit's checks.  The oracles here model the same objects the way
the paper states them: qubits and checks as coordinate pairs of the base
graph, candidates as (generator, mask) pairs scored with Fractions, and span
membership by row echelon elimination.

Each oracle computes from the base graph's adjacency lists and from
coordinates (``gen_coords``, ``check_coords``, ``vv_index``/``cc_index``),
never from the integer incidence or the view tables it is compared against.
Sets enter through ``QubitSet.of``/``CheckSet.of`` and are read through
their coordinate views (``vv_part``, ``cc_part``, ``members``); the check
incidences of a set are counted over those pairs (``_incidences``), and
``score`` counts a candidate's pairs without building a set.
Candidates come from the mask catalog ``locally_reduced_masks``, which
``test_reduction`` checks against its definition.  ``alive_masks`` and
``cached_score`` are the other side of the comparison: they read a finished
search's incremental state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from hgpdecode.gf2 import BitMatrix
from hgpdecode.graphs import BipartiteGraph, _side_data
from hgpdecode.hgp import CheckSet, HgpCode, QubitSet
from hgpdecode.reduction import check_view_width, locally_reduced_masks, part_sizes


# --- GF(2) ---


class RowBasis:
    """Incremental row-echelon basis over GF(2), keyed by lowest-bit pivots.

    Supports rank queries and repeated span-membership tests without
    re-eliminating the source matrix each time.
    """

    def __init__(self, matrix: BitMatrix | None = None):
        self._pivots: dict[int, int] = {}
        if matrix is not None:
            for bits in matrix.row_bits:
                self.add(bits)

    def add(self, bits: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        while bits:
            low = (bits & -bits).bit_length() - 1
            piv = self._pivots.get(low)
            if piv is None:
                self._pivots[low] = bits
                return True
            bits ^= piv
        return False

    def reduce(self, bits: int) -> int:
        """Return the residual of ``bits`` after cancelling every pivot it meets."""
        while bits:
            low = (bits & -bits).bit_length() - 1
            piv = self._pivots.get(low)
            if piv is None:
                return bits
            bits ^= piv
        return 0

    def contains(self, bits: int) -> bool:
        return self.reduce(bits) == 0

    @property
    def rank(self) -> int:
        return len(self._pivots)


# --- base graphs ---


def neighbors(graph: BipartiteGraph, side: str, vertices) -> set[int]:
    """Union of the neighbor lists of ``vertices`` on the named side."""
    size, _, adj = _side_data(graph, side)
    out: set[int] = set()
    for v in vertices:
        if not 0 <= v < size:
            raise ValueError(f"{side} vertex {v} out of range [0, {size})")
        out.update(adj[v])
    return out


def unique_neighbors(graph: BipartiteGraph, side: str, vertices) -> set[int]:
    """Vertices of the opposite side with exactly one edge into ``vertices``."""
    size, _, adj = _side_data(graph, side)
    seen_once: set[int] = set()
    seen_more: set[int] = set()
    for v in set(vertices):
        if not 0 <= v < size:
            raise ValueError(f"{side} vertex {v} out of range [0, {size})")
        for u in adj[v]:
            if u in seen_once:
                seen_once.discard(u)
                seen_more.add(u)
            elif u not in seen_more:
                seen_once.add(u)
    return seen_once


# --- product code, by coordinate pairs ---


def supp_generator(code: HgpCode, g: int) -> QubitSet:
    """Support of a generator: a column of VV qubits plus a row of CC qubits."""
    c, v = code.gen_coords(g)
    vv = [(nu, v) for nu in code.base.adj_c[c]]
    cc = [(c, zeta) for zeta in code.base.adj_v[v]]
    return QubitSet.of(code, vv, cc)


def supp_check(code: HgpCode, x: int) -> QubitSet:
    """Support of an X check: a row of VV qubits plus a column of CC qubits."""
    nu, zeta = code.check_coords(x)
    vv = [(nu, v) for v in code.base.adj_c[zeta]]
    cc = [(c, zeta) for c in code.base.adj_v[nu]]
    return QubitSet.of(code, vv, cc)


def _incidences(code: HgpCode, vv, cc) -> dict[tuple[int, int], int]:
    """Check pair -> how many of the VV pairs ``vv`` and CC pairs ``cc`` it
    touches: VV qubit (nu, v) meets the checks (nu, zeta) for zeta a
    neighbor of v, CC qubit (c, zeta) the checks (nu, zeta) for nu one of c."""
    counts: dict[tuple[int, int], int] = {}
    for nu, v in vv:
        for zeta in code.base.adj_v[v]:
            counts[nu, zeta] = counts.get((nu, zeta), 0) + 1
    for c, zeta in cc:
        for nu in code.base.adj_c[c]:
            counts[nu, zeta] = counts.get((nu, zeta), 0) + 1
    return counts


def qnbhd(code: HgpCode, qubits: QubitSet) -> CheckSet:
    """All checks incident to the set."""
    return CheckSet.of(code, _incidences(code, qubits.vv_part, qubits.cc_part))


def qnbhd_unique(code: HgpCode, qubits: QubitSet) -> CheckSet:
    """Checks with exactly one incidence into the set."""
    counts = _incidences(code, qubits.vv_part, qubits.cc_part)
    return CheckSet.of(code, (k for k, cnt in counts.items() if cnt == 1))


def syndrome_pairs(code: HgpCode, qubits: QubitSet) -> CheckSet:
    """Checks with an odd number of incidences into the set."""
    counts = _incidences(code, qubits.vv_part, qubits.cc_part)
    return CheckSet.of(code, (k for k, cnt in counts.items() if cnt & 1))


def project(qubits: QubitSet, axis: str, index: int | None = None) -> set[int]:
    """Coordinate projections of a qubit set onto the base graph.

    With ``index`` unset, the aggregate projection: every first (or second)
    coordinate appearing in the relevant block.  With ``index`` set, the slice:
    partners of that fixed first (or second) coordinate.
    """
    if axis == "V1":
        pairs, pos = qubits.vv_part, 0
    elif axis == "V2":
        pairs, pos = qubits.vv_part, 1
    elif axis == "C1":
        pairs, pos = qubits.cc_part, 0
    elif axis == "C2":
        pairs, pos = qubits.cc_part, 1
    else:
        raise ValueError(f"axis must be one of V1, V2, C1, C2; got {axis!r}")
    if index is None:
        return {p[pos] for p in pairs}
    return {p[1 - pos] for p in pairs if p[pos] == index}


def weighted_norm(code: HgpCode, qubits: QubitSet) -> Fraction:
    """|VV part| / delta_c + |CC part| / delta_v, exactly."""
    return Fraction(len(qubits.vv_part), code.delta_c) + Fraction(
        len(qubits.cc_part), code.delta_v
    )


def dual(code: HgpCode) -> HgpCode:
    """The same product with bit/check roles of the base graph exchanged.

    Decoding X errors on the original code is decoding Z errors here."""
    g = code.base
    swapped = BipartiteGraph(g.m, g.n, g.delta_c, g.delta_v, g.adj_c, g.adj_v)
    return HgpCode(swapped)


def brute_reduce(code: HgpCode, error: QubitSet) -> QubitSet:
    """The lowest (weight, qubit-index sequence) set among all 2^num_gens
    generator togglings of ``error``."""
    best = None
    for toggles in itertools.product((0, 1), repeat=code.num_gens):
        candidate = error
        for g, bit in enumerate(toggles):
            if bit:
                candidate = candidate ^ supp_generator(code, g)
        key = (candidate.weight, tuple(candidate.to_indices(code)))
        if best is None or key < best[0]:
            best = (key, candidate)
    return best[1]


def x_check_matrix(code: HgpCode) -> BitMatrix:
    """Checks-by-qubits parity matrix."""
    supports = (supp_check(code, x).to_indices(code) for x in range(code.num_checks))
    return BitMatrix.from_row_supports(code.num_checks, code.num_qubits, supports)


def generator_matrix(code: HgpCode) -> BitMatrix:
    """Generators-by-qubits support matrix; its row space is the stabilizer span."""
    supports = (supp_generator(code, g).to_indices(code) for g in range(code.num_gens))
    return BitMatrix.from_row_supports(code.num_gens, code.num_qubits, supports)


# --- candidates ---


@dataclass(frozen=True)
class Candidate:
    """A nonempty locally reduced subset of one generator's support."""

    generator: int
    mask: int
    a_v: int
    a_c: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("candidate mask must be a nonempty subset")

    @classmethod
    def build(cls, code: HgpCode, generator: int, mask: int) -> Candidate:
        code.gen_coords(generator)
        if not is_locally_reduced(code, generator, mask):
            raise ValueError(f"mask {mask:#x} is not locally reduced")
        a_v, a_c = part_sizes(mask, code.delta_c)
        return cls(generator, mask, a_v, a_c)


def is_locally_reduced(code: HgpCode, generator: int, mask: int) -> bool:
    """True iff the subset keeps at most half the local view, ties included."""
    code.gen_coords(generator)
    width = code.delta_v + code.delta_c
    if not 0 <= mask < (1 << width):
        raise ValueError(f"mask {mask:#x} does not fit a {width}-bit local view")
    a_v, a_c = part_sizes(mask, code.delta_c)
    return 2 * (a_v + a_c) <= width


def enumerate_minsets(code: HgpCode, generator: int) -> Iterator[Candidate]:
    """Stream the candidate catalog for one generator, ascending mask order."""
    check_view_width(code.delta_v + code.delta_c)
    code.gen_coords(generator)
    for mask in locally_reduced_masks(code.delta_v, code.delta_c):
        a_v, a_c = part_sizes(mask, code.delta_c)
        yield Candidate(generator, mask, a_v, a_c)


def mask_pairs(code: HgpCode, generator: int, mask: int) -> tuple[list, list]:
    """The VV and CC coordinate pairs a local-view mask selects."""
    c, v = code.gen_coords(generator)
    row = code.base.adj_c[c]
    col = code.base.adj_v[v]
    vv = [(row[i], v) for i in range(code.delta_c) if (mask >> i) & 1]
    cc = [(c, col[j]) for j in range(code.delta_v) if (mask >> (code.delta_c + j)) & 1]
    return vv, cc


def mask_to_qubitset(code: HgpCode, generator: int, mask: int) -> QubitSet:
    """Unpack a local-view mask into the qubits it selects."""
    return QubitSet.of(code, *mask_pairs(code, generator, mask))


def score(code: HgpCode, candidate: Candidate, suspicious: CheckSet) -> Fraction:
    """|unique checks outside the suspicious set| / (delta * weighted norm),
    counted over the candidate's coordinate pairs."""
    counts = _incidences(code, *mask_pairs(code, candidate.generator, candidate.mask))
    flagged = suspicious.members
    num = sum(1 for chk, cnt in counts.items() if cnt == 1 and chk not in flagged)
    den = candidate.a_v * code.delta_v + candidate.a_c * code.delta_c
    return Fraction(num, den)


def candidate_seeding(code: HgpCode, sigma: CheckSet) -> dict[int, list[Candidate]]:
    """Initial catalog: every candidate of every generator whose check grid
    meets the syndrome.  Generator (c, v) holds check (nu, zeta) exactly when
    c is a neighbor of bit nu and v a neighbor of check zeta."""
    adj_v, adj_c = code.base.adj_v, code.base.adj_c
    gens = {
        code.gen_index(c, v)
        for nu, zeta in sigma.members
        for c in adj_v[nu]
        for v in adj_c[zeta]
    }
    return {g: list(enumerate_minsets(code, g)) for g in sorted(gens)}


# --- a finished search's state ---


def alive_masks(state, g: int) -> list[int]:
    """The masks of generator g that share no qubit with the envelope."""
    retired = state.retired[g]
    return [m for m in state.tables.masks if not (m & retired)]


@functools.cache
def mask_positions(tables) -> dict[int, int]:
    """Mask -> its position in a degree pair's view tables."""
    return {m: p for p, m in enumerate(tables.masks)}


def cached_score(state, g: int, mask: int) -> Fraction:
    """Score from the incrementally maintained suspicious-cell mask."""
    t = state.tables
    p = mask_positions(t)[mask]
    num = (t.py_uq[p] & ~state.rmask[g] & t.gridfull).bit_count()
    return Fraction(num, t.py_den[p])
