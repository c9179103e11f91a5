"""Set-level references the tests compare the package against.

The package runs on integer indices: ``QubitSet``/``CheckSet`` hold the
code's qubit and check indices, ``HgpCode``'s incidence methods
(``gen_qubits``, ``gen_checks``, ``check_qubits``, ``qubit_checks``), its
slot tables and the ``ssfind`` grid row and column tables of each degree
pair read them, and ``syndrome`` XORs each qubit's checks.  The oracles
here model the same objects the way the paper states them: qubits and
checks as coordinate pairs of the base graph, candidates as (generator,
mask) pairs scored with Fractions, and span membership by row echelon
elimination.

Each oracle computes from the base graph's adjacency lists and from
coordinates (``gen_coords``, ``gen_index``, ``check_coords`` and
``check_index`` here, ``vv_index``/``cc_index`` on the code), never from the
integer incidence or the view tables it is compared against;
``qubit_gens``/``check_gens`` list the generators holding a qubit or a check
that way, where the decoder walks the slot tables.
Sets enter through ``qubits_of``/``checks_of``, which refuse a pair out of
range, and are read through their coordinate views (``vv_part`` and
``cc_part`` on a qubit set, ``check_pairs`` here for a check set); the
check incidences of a set are counted over those pairs (``_incidences``),
and ``score`` counts a candidate's pairs without building a set.
Candidates come from the mask catalog ``locally_reduced_masks``, which
``test_reduction`` checks against its definition of ``part_sizes``; the
package scores masks without listing them, so the catalog lives only here.
``unique_cells`` gives each mask's unique grid cells and weight from the
per-cell definition, and ``brute_best`` a state's best candidate over them
in Fractions.  ``alive_masks`` and ``cached_scores`` are the other side of
the comparison: they read a finished search's incremental state, whose
per-generator parts ``rmask`` and ``retired`` split from its word.
``exit_audit`` checks a finished search from scratch: it rebuilds every
seeded generator's suspicious cells and retired bits from the code's
incidence (``gen_checks``, ``gen_qubits``), and sweeps the catalog over
``unique_cells`` for an alive mask that still qualifies.  Fast paths the
package retired stay here as the references their replacements are tested
against: the per-vector ``kernel_words``, the subset enumeration of
``expansion_by_enumeration``, the ``Fraction``-sorted ``score_ranks``,
``table_best``, the numpy scorer over every mask that the separable search
replaced, and ``solve_by_elimination``, the envelope solve with no peeling,
on rows built from the checks' supports.
Brute force lives here too: ``brute_reduce``, the minimum-weight coset
representative over every generator toggling, bounds greedy reduction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from hgpdecode.gf2 import RestrictedSolver, bit_positions
from hgpdecode.graphs import BipartiteGraph, _side_data
from hgpdecode.hgp import CheckSet, HgpCode, QubitSet
from hgpdecode.ssfind import check_view_width


# --- GF(2) ---


class RowBasis:
    """Incremental row-echelon basis over GF(2), keyed by lowest-bit pivots.

    Supports rank queries and repeated span-membership tests without
    re-eliminating the source matrix each time.  ``rows`` are the matrix's
    rows, as ints.
    """

    def __init__(self, rows=()):
        self._pivots: dict[int, int] = {}
        for bits in rows:
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


def kernel_words(solver: RestrictedSolver) -> list[int]:
    """``solver.kernel_words()`` one vector at a time: per column, the word
    whose bit t says the t-th ``iter_kernel()`` vector holds it."""
    words = [0] * solver.cols
    for t, x in enumerate(solver.iter_kernel()):
        for col in bit_positions(x):
            words[col] |= 1 << t
    return words


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


def expansion_by_enumeration(graph: BipartiteGraph, side: str, s_max: int) -> dict[int, Fraction]:
    """``audit_expansion(graph, side, s_max).worst_epsilon_by_size`` by
    enumerating every subset of each size with ``itertools.combinations``."""
    size, degree, adj = _side_data(graph, side)
    masks = [sum(1 << x for x in nbrs) for nbrs in adj]
    worst = {}
    for s in range(1, s_max + 1):
        min_gamma = degree * s
        for subset in itertools.combinations(range(size), s):
            acc = 0
            for v in subset:
                acc |= masks[v]
            min_gamma = min(min_gamma, acc.bit_count())
        worst[s] = 1 - Fraction(min_gamma, degree * s)
    return worst


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


def gen_index(code: HgpCode, right: int, left: int) -> int:
    """Index of generator (right, left): right-major over the m x n pairs."""
    if not (0 <= right < code.m and 0 <= left < code.n):
        raise IndexError(f"generator ({right}, {left}) out of range")
    return right * code.n + left


def gen_coords(code: HgpCode, g: int) -> tuple[int, int]:
    """The (right, left) pair of generator index g."""
    if not 0 <= g < code.num_gens:
        raise IndexError(f"generator index {g} out of range [0, {code.num_gens})")
    return divmod(g, code.n)


def check_coords(code: HgpCode, x: int) -> tuple[int, int]:
    """The (left, right) pair of check index x."""
    if not 0 <= x < code.num_checks:
        raise IndexError(f"check index {x} out of range [0, {code.num_checks})")
    return divmod(x, code.m)


def check_index(code: HgpCode, left: int, right: int) -> int:
    """Index of check (left, right): left-major over the n x m pairs."""
    if not (0 <= left < code.n and 0 <= right < code.m):
        raise IndexError(f"check ({left}, {right}) out of range")
    return left * code.m + right


def qubits_of(code: HgpCode, vv=(), cc=()) -> QubitSet:
    """The set of these VV and CC coordinate pairs of ``code``."""
    indices = [code.vv_index(*p) for p in vv] + [code.cc_index(*p) for p in cc]
    return QubitSet(code.n, code.m, frozenset(indices))


def checks_of(code: HgpCode, pairs=()) -> CheckSet:
    """The set of these (left, right) check pairs of ``code``."""
    return CheckSet(code.n, code.m, frozenset(check_index(code, *p) for p in pairs))


def check_pairs(checks: CheckSet) -> frozenset[tuple[int, int]]:
    """The (left, right) pairs of a check set."""
    return frozenset(divmod(x, checks.m) for x in checks.indices)


def qubit_gens(code: HgpCode, q: int) -> list[tuple[int, int]]:
    """(generator, local-view bit) of every generator whose support holds
    qubit q, by ascending generator: VV qubit (nu, v) is bit i of generator
    (c, v) for each check c of bit nu, nu = adj_c[c][i]; CC qubit (c, zeta)
    is bit delta_c + j of generator (c, v) for each bit v of check zeta,
    zeta = adj_v[v][j]."""
    kind, a, b = code.qubit_coords(q)
    adj_c, adj_v = code.base.adj_c, code.base.adj_v
    if kind == "VV":
        return [(gen_index(code, c, b), 1 << adj_c[c].index(a)) for c in adj_v[a]]
    return [(gen_index(code, a, v), 1 << (code.delta_c + adj_v[v].index(b))) for v in adj_c[b]]


def check_gens(code: HgpCode, x: int) -> list[tuple[int, int]]:
    """(generator, grid-cell bit) of every generator whose check grid holds
    check x = (nu, zeta), by ascending generator: the cell i*delta_v + j of
    generator (c, v) for c a check of bit nu and v a bit of check zeta, with
    nu = adj_c[c][i] and zeta = adj_v[v][j]."""
    nu, zeta = check_coords(code, x)
    adj_c, adj_v = code.base.adj_c, code.base.adj_v
    return [
        (gen_index(code, c, v), 1 << (adj_c[c].index(nu) * code.delta_v + adj_v[v].index(zeta)))
        for c in adj_v[nu]
        for v in adj_c[zeta]
    ]


def supp_generator(code: HgpCode, g: int) -> QubitSet:
    """Support of a generator: a column of VV qubits plus a row of CC qubits."""
    c, v = gen_coords(code, g)
    vv = [(nu, v) for nu in code.base.adj_c[c]]
    cc = [(c, zeta) for zeta in code.base.adj_v[v]]
    return qubits_of(code, vv, cc)


def supp_check(code: HgpCode, x: int) -> QubitSet:
    """Support of an X check: a row of VV qubits plus a column of CC qubits."""
    nu, zeta = check_coords(code, x)
    vv = [(nu, v) for v in code.base.adj_c[zeta]]
    cc = [(c, zeta) for c in code.base.adj_v[nu]]
    return qubits_of(code, vv, cc)


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
    return checks_of(code, _incidences(code, qubits.vv_part, qubits.cc_part))


def qnbhd_unique(code: HgpCode, qubits: QubitSet) -> CheckSet:
    """Checks with exactly one incidence into the set."""
    counts = _incidences(code, qubits.vv_part, qubits.cc_part)
    return checks_of(code, (k for k, cnt in counts.items() if cnt == 1))


def syndrome_pairs(code: HgpCode, qubits: QubitSet) -> CheckSet:
    """Checks with an odd number of incidences into the set."""
    counts = _incidences(code, qubits.vv_part, qubits.cc_part)
    return checks_of(code, (k for k, cnt in counts.items() if cnt & 1))


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
    swapped = BipartiteGraph(g.n, g.adj_c)
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


def _rows(code: HgpCode, supports) -> list[int]:
    """Each qubit set of ``code`` as a row: an int with the bits of its
    qubit indices."""
    return [sum(1 << q for q in s.to_indices(code)) for s in supports]


def x_check_matrix(code: HgpCode) -> list[int]:
    """Checks-by-qubits parity matrix, as rows over ``num_qubits`` columns."""
    return _rows(code, (supp_check(code, x) for x in range(code.num_checks)))


def generator_matrix(code: HgpCode) -> list[int]:
    """Generators-by-qubits support matrix, as rows over ``num_qubits``
    columns; its row space is the stabilizer span."""
    return _rows(code, (supp_generator(code, g) for g in range(code.num_gens)))


def solve_by_elimination(code: HgpCode, sigma: CheckSet, envelope: QubitSet, detect_ambiguity: bool = False):
    """(correction, status, rows_touched) of the envelope solve by eliminating
    the whole restricted system, with no peeling: rows are the envelope's
    checks, ascending, and each row is its check's support restricted to the
    envelope's columns, ascending by qubit index.  The canonical solution
    sets the free columns to 0; with ``detect_ambiguity`` a kernel vector
    outside the generator matrix's row space makes it ambiguous."""
    cols = envelope.to_indices(code)
    col_pos = {q: p for p, q in enumerate(cols)}
    rows = sorted(qnbhd(code, envelope).to_indices(code))
    flagged = sigma.to_indices(code)
    outside = set(flagged) - set(rows)
    rows_touched = len(rows) + len(outside)
    solution = None
    if not outside:
        matrix = [
            sum(1 << col_pos[q] for q in supp_check(code, x).to_indices(code) if q in col_pos) for x in rows
        ]
        solver = RestrictedSolver(matrix, len(cols))
        row_pos = {x: r for r, x in enumerate(rows)}
        solution = solver.solve(sum(1 << row_pos[x] for x in flagged))
    if solution is None:
        return qubits_of(code), "no-solution", rows_touched
    status = "success"
    if detect_ambiguity:
        span = RowBasis(generator_matrix(code))
        for k in solver.iter_kernel():
            if not span.contains(sum(1 << cols[p] for p in bit_positions(k))):
                status = "ambiguous-logical"
                break
    return QubitSet.from_indices(code, [cols[p] for p in bit_positions(solution)]), status, rows_touched


# --- candidates ---


def part_sizes(mask: int, delta_c: int) -> tuple[int, int]:
    """(VV count, CC count) of a local-view mask."""
    return (mask & ((1 << delta_c) - 1)).bit_count(), (mask >> delta_c).bit_count()


@functools.cache
def locally_reduced_masks(delta_v: int, delta_c: int) -> tuple[int, ...]:
    """All nonempty locally reduced masks for one degree pair, ascending:
    the masks keeping at most half of the delta_v + delta_c view, whose
    popcount is a_v + a_c of ``part_sizes``."""
    width = delta_v + delta_c
    return tuple(m for m in range(1, 1 << width) if 2 * m.bit_count() <= width)


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
        gen_coords(code, generator)
        if not is_locally_reduced(code, generator, mask):
            raise ValueError(f"mask {mask:#x} is not locally reduced")
        a_v, a_c = part_sizes(mask, code.delta_c)
        return cls(generator, mask, a_v, a_c)


def is_locally_reduced(code: HgpCode, generator: int, mask: int) -> bool:
    """True iff the subset keeps at most half the local view, ties included."""
    gen_coords(code, generator)
    width = code.delta_v + code.delta_c
    if not 0 <= mask < (1 << width):
        raise ValueError(f"mask {mask:#x} does not fit a {width}-bit local view")
    a_v, a_c = part_sizes(mask, code.delta_c)
    return 2 * (a_v + a_c) <= width


def enumerate_minsets(code: HgpCode, generator: int) -> Iterator[Candidate]:
    """Stream the candidate catalog for one generator, ascending mask order."""
    check_view_width(code.delta_v + code.delta_c)
    gen_coords(code, generator)
    for mask in locally_reduced_masks(code.delta_v, code.delta_c):
        a_v, a_c = part_sizes(mask, code.delta_c)
        yield Candidate(generator, mask, a_v, a_c)


def mask_pairs(code: HgpCode, generator: int, mask: int) -> tuple[list, list]:
    """The VV and CC coordinate pairs a local-view mask selects."""
    c, v = gen_coords(code, generator)
    row = code.base.adj_c[c]
    col = code.base.adj_v[v]
    vv = [(row[i], v) for i in range(code.delta_c) if (mask >> i) & 1]
    cc = [(c, col[j]) for j in range(code.delta_v) if (mask >> (code.delta_c + j)) & 1]
    return vv, cc


def mask_to_qubitset(code: HgpCode, generator: int, mask: int) -> QubitSet:
    """Unpack a local-view mask into the qubits it selects."""
    return qubits_of(code, *mask_pairs(code, generator, mask))


def score(code: HgpCode, candidate: Candidate, suspicious: CheckSet) -> Fraction:
    """|unique checks outside the suspicious set| / (delta * weighted norm),
    counted over the candidate's coordinate pairs."""
    counts = _incidences(code, *mask_pairs(code, candidate.generator, candidate.mask))
    flagged = check_pairs(suspicious)
    num = sum(1 for chk, cnt in counts.items() if cnt == 1 and chk not in flagged)
    den = candidate.a_v * code.delta_v + candidate.a_c * code.delta_c
    return Fraction(num, den)


def candidate_seeding(code: HgpCode, sigma: CheckSet) -> dict[int, list[Candidate]]:
    """Initial catalog: every candidate of every generator whose check grid
    meets the syndrome.  Generator (c, v) holds check (nu, zeta) exactly when
    c is a neighbor of bit nu and v a neighbor of check zeta."""
    adj_v, adj_c = code.base.adj_v, code.base.adj_c
    gens = {
        gen_index(code, c, v)
        for nu, zeta in check_pairs(sigma)
        for c in adj_v[nu]
        for v in adj_c[zeta]
    }
    return {g: list(enumerate_minsets(code, g)) for g in sorted(gens)}


# --- per-mask cells and best candidates ---


@functools.cache
def unique_cells(delta_v: int, delta_c: int) -> tuple[tuple[int, int, int], ...]:
    """(mask, unique grid cells, weight) of every locally reduced mask, in
    catalog order, from the per-cell definition: cell (i, j) = bit
    i*delta_v + j is unique when exactly one of VV bit i and CC bit j is in
    the mask, so grid row i holds the CC bits outside the mask when VV bit i
    is in it and those inside when it is not.  The weight is
    a_v*delta_v + a_c*delta_c."""
    line = (1 << delta_v) - 1
    out = []
    for mask in locally_reduced_masks(delta_v, delta_c):
        cc = mask >> delta_c
        uq = 0
        for i in range(delta_c):
            uq |= (cc ^ line if mask >> i & 1 else cc) << (i * delta_v)
        a_v, a_c = part_sizes(mask, delta_c)
        out.append((mask, uq, a_v * delta_v + a_c * delta_c))
    return tuple(out)


@functools.cache
def mask_positions(delta_v: int, delta_c: int) -> dict[int, int]:
    """Mask -> its position in ``unique_cells``."""
    return {m: p for p, (m, _, _) in enumerate(unique_cells(delta_v, delta_c))}


def brute_best(cells, twoeps, rmask, retired):
    """(score, mask) of the lowest-scoring alive mask of ``cells`` at or
    below twoeps, lowest mask on ties, in Fractions; None when nothing
    qualifies."""
    best = None
    for mask, uq, den in cells:
        if mask & retired:
            continue
        s = Fraction((uq & ~rmask).bit_count(), den)
        if s <= twoeps and (best is None or s < best[0]):
            best = (s, mask)
    return best


def table_best(delta_v: int, delta_c: int, twoeps: Fraction, states) -> list:
    """``brute_best`` of each state ``rmask << width | retired`` with the
    number of alive masks that share its score, (score, mask, ties), by the
    numpy table scorer the package retired: every mask's unique cells are
    held as one uint64 array per 64-bit word of the grid, a state's
    unsuspicious unique cells are counted over all masks at once with
    ``np.bitwise_count``, and (den, num) slots index the Fraction ranks of
    ``score_ranks``.  argmin keeps the first minimum, so ties go to the
    lowest mask, as the catalog is ascending."""
    cells = unique_cells(delta_v, delta_c)
    scores, rank = score_ranks(delta_v, delta_c)
    width, nums = delta_v + delta_c, delta_v * delta_c + 1
    none = len(scores)
    dens = sorted({den for _, _, den in cells})
    keys = np.array(
        [rank[k, d] if scores[rank[k, d]] <= twoeps else none for d in dens for k in range(nums)]
    )
    offset = {d: i * nums for i, d in enumerate(dens)}
    den_off = np.array([offset[den] for _, _, den in cells])
    masks = np.array([mask for mask, _, _ in cells])

    def split_words(grids):
        return [
            np.array([x >> (64 * w) & (1 << 64) - 1 for x in grids], dtype=np.uint64)
            for w in range(-(-(nums - 1) // 64))
        ]

    np_uq = split_words([uq for _, uq, _ in cells])
    out = []
    for state in states:
        slot = den_off
        for uq, r in zip(np_uq, split_words([state >> width])):
            slot = slot + np.bitwise_count(uq & ~r)
        key = np.where(masks & (state & (1 << width) - 1), none, keys[slot])
        pos = int(key.argmin())
        if key[pos] == none:
            out.append(None)
        else:
            out.append((scores[key[pos]], cells[pos][0], int((key == key[pos]).sum())))
    return out


# --- a finished search's state ---


def rmask(state, g: int) -> int:
    """Generator g's suspicious grid cells, the high part of its word."""
    return state._word(g) >> state.tables.width


def retired(state, g: int) -> int:
    """The view bits of generator g's envelope qubits, the low part of its word."""
    return state._word(g) & ((1 << state.tables.width) - 1)


def alive_masks(state, g: int) -> list[int]:
    """The masks of generator g that share no qubit with the envelope."""
    gone = retired(state, g)
    catalog = locally_reduced_masks(state.code.delta_v, state.code.delta_c)
    return [m for m in catalog if not (m & gone)]


def score_ranks(delta_v: int, delta_c: int) -> tuple[list[Fraction], dict[tuple[int, int], int]]:
    """Every score num/den a degree pair's masks can take, sorted as
    Fractions, and the rank of each (num, den) among them; dens are the
    mask weights a*delta_v + b*delta_c of the locally reduced masks."""
    sizes = {part_sizes(m, delta_c) for m in locally_reduced_masks(delta_v, delta_c)}
    dens = {a * delta_v + b * delta_c for a, b in sizes}
    nums = range(delta_v * delta_c + 1)
    scores = sorted({Fraction(k, d) for d in dens for k in nums})
    rank = {f: r for r, f in enumerate(scores)}
    return scores, {(k, d): rank[Fraction(k, d)] for d in dens for k in nums}


def cached_scores(state, g: int, masks) -> list[Fraction]:
    """Scores of generator g's masks from its incrementally maintained
    suspicious-cell mask, read once, over the masks' ``unique_cells``."""
    dv, dc = state.code.delta_v, state.code.delta_c
    cells, positions = unique_cells(dv, dc), mask_positions(dv, dc)
    marked = rmask(state, g)
    return [
        Fraction((uq & ~marked).bit_count(), den)
        for _, uq, den in (cells[positions[m]] for m in masks)
    ]


def exit_audit(state) -> None:
    """Raise AssertionError unless ``state`` is a finished search.

    Every seeded generator's suspicious cells are rebuilt from the
    suspicious checks with ``gen_checks``, and its retired bits from the
    envelope with ``gen_qubits``; both must equal the state's.  No alive
    mask of its catalog may then score num/den <= 2*epsilon = p/q, compared
    as num*q <= p*den.  An unseeded generator (lazy mode) holds no
    suspicious cell, so it cannot qualify when 2*epsilon is below every
    untouched score, which is checked against ``unique_cells``; nor can it
    hold an envelope qubit, whose checks all lie in its grid."""
    code = state.code
    cells = unique_cells(code.delta_v, code.delta_c)
    twoeps = 2 * state.config.epsilon
    p, q = twoeps.numerator, twoeps.denominator
    untouched = min(Fraction(uq.bit_count(), den) for _, uq, den in cells)
    if state.mode == "lazy" and not twoeps < untouched:
        raise AssertionError("lazy mode ran although untouched sets qualify")
    for g, on in enumerate(state.seeded):
        if not on:
            continue
        marked = sum(1 << i for i, x in enumerate(code.gen_checks(g)) if x in state.suspicious_set)
        if marked != rmask(state, g):
            raise AssertionError(f"incremental suspicious-cell mask diverged for generator {g}")
        gone = sum(1 << i for i, x in enumerate(code.gen_qubits(g)) if x in state.envelope_set)
        if gone != retired(state, g):
            raise AssertionError(f"retired view bits diverged for generator {g}")
        for mask, uq, den in cells:
            if not mask & gone and (uq & ~marked).bit_count() * q <= p * den:
                raise AssertionError(
                    f"candidate (generator {g}, mask {mask:#x}) still qualifies at exit"
                )
