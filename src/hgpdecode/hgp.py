"""Product quantum codes built from two copies of one bipartite base graph.

Qubits live on (left x left) ∪ (right x right) vertex pairs, X-type parity
checks on (left x right), stabilizer generators on (right x left).  With a
(delta_v, delta_c)-biregular base graph every generator and check touches
exactly delta_v + delta_c qubits, and a generator meets a check in 0 or 2
qubits — the orthogonality that makes the pair a CSS code.

``HgpCode`` owns the integer incidence the decoder uses: the qubits and
checks a generator or check touches and the checks a qubit touches, each in
a fixed local order, computed on demand from the base graph.  Which
generators hold a qubit or a check is read from two slot tables the size of
the base graph, which greedy reduction and the search walk themselves; they
are also held as packed integer arrays for numpy passes over a whole
syndrome.  Nothing of size N² is materialized (N = n² + m² reaches 72,000
here while every neighborhood has constant size).  The stabilizer span and
the logical count come from the base code's kernels too
(``StabilizerSpan``), so no N-column matrix is built.  ``QubitSet``/
``CheckSet``, which carry sets between the stages, hold the code's integer
indices as well, and ``syndrome`` toggles each error qubit's checks on the
base graph's adjacency, in the walk ``StabilizerSpan.contains`` shares.
Coordinate pairs appear only in the qubit sets' views (``vv_part``,
``cc_part``) and in the qubit-set file format.  The set-level model the
integer incidence is tested against, by coordinate pairs, is
``tests/oracles.py``, which also builds sets from coordinate pairs, reads a
check set's pairs, and holds the generator and check coordinate accessors
and the per-qubit and per-check generator lists the decoder never builds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import index

from .gf2 import RestrictedSolver
from .graphs import BipartiteGraph, LineParseError, content_lines

__all__ = [
    "HgpCode",
    "StabilizerSpan",
    "QubitSet",
    "CheckSet",
    "QubitParseError",
    "build_hgp",
    "syndrome",
    "qubitset_to_text",
    "qubitset_from_text",
]


@dataclass(frozen=True, init=False)
class _IndexSet:
    """A set of one code's qubit or check indices, with the code's base sizes.

    ``n`` and ``m`` name the code the indices belong to, and ``_same``
    refuses other base sizes (``ValueError``): the set operators check the
    other operand, and ``to_indices`` and every decode stage that reads a
    set (``syndrome``, ``reduce_error``, ``ssfind``,
    ``erase_decode_quantum``, ``verify_coset``) check the code, once,
    before reading ``indices``.  The range is checked only where indices
    come in from outside: in ``from_indices``, which reads it from the code
    attribute a subclass names in ``_count`` and passes each index through
    ``operator.index`` (a float raises ``TypeError``), and in the file
    parser.  The constructor and the operators trust their indices, so a
    stage builds its result sets, whose indices it computed from the code,
    with the constructor.

    The class is frozen, hashable and equal by its fields, but its
    constructor writes the fields straight into the instance ``__dict__``
    (the generated frozen ``__init__`` sets each through
    ``object.__setattr__``, at about twice the cost); subclasses are
    declared with ``init=False`` so that they inherit it.
    """

    n: int
    m: int
    indices: frozenset[int]

    def __init__(self, n: int, m: int, indices: frozenset[int] = frozenset()):
        fields = self.__dict__
        fields["n"] = n
        fields["m"] = m
        fields["indices"] = indices

    @classmethod
    def from_indices(cls, code: HgpCode, indices):
        s = frozenset(map(index, indices))
        if s and (min(s) < 0 or max(s) >= getattr(code, cls._count)):
            raise IndexError(f"{cls.__name__} index out of range for this code")
        return cls(code.n, code.m, s)

    def _same(self, other):
        """This set, once ``other`` (a set or a code) has its base sizes."""
        if (other.n, other.m) != (self.n, self.m):
            raise ValueError(f"(n, m) = ({other.n}, {other.m}) met a {type(self).__name__} of ({self.n}, {self.m})")
        return self

    def __len__(self) -> int:
        return len(self.indices)

    def __or__(self, other):
        return type(self)(self.n, self.m, self._same(other).indices | other.indices)

    def __xor__(self, other):
        return type(self)(self.n, self.m, self._same(other).indices ^ other.indices)

    def __and__(self, other):
        return type(self)(self.n, self.m, self._same(other).indices & other.indices)

    def __le__(self, other) -> bool:
        return self._same(other).indices <= other.indices

    def to_indices(self, code: HgpCode) -> list[int]:
        return sorted(self._same(code).indices)


@dataclass(frozen=True, init=False)
class QubitSet(_IndexSet):
    """A set of qubits of one code, held as the code's qubit indices (the VV
    block row-major, then the CC block; see ``HgpCode``).

    ``vv_part`` (pairs over left x left base vertices) and ``cc_part`` (pairs
    over right x right) are coordinate views for the file format and the
    tests, computed on first use; the decoder never reads them.
    """

    _count = "num_qubits"

    @property
    def weight(self) -> int:
        return len(self.indices)

    @functools.cached_property
    def vv_part(self) -> frozenset[tuple[int, int]]:
        return frozenset(divmod(q, self.n) for q in self.indices if q < self.n**2)

    @functools.cached_property
    def cc_part(self) -> frozenset[tuple[int, int]]:
        return frozenset(divmod(q - self.n**2, self.m) for q in self.indices if q >= self.n**2)


@dataclass(frozen=True, init=False)
class CheckSet(_IndexSet):
    """A set of X-type parity checks of one code, held as check indices
    (check (left, right) is index left*m + right)."""

    _count = "num_checks"


class HgpCode:
    """Product code over a base graph; immutable after construction.

    The stabilizer span (``generator_basis``) and the logical count ``k``
    come from two factorizations of the base parity matrix, built on first
    use and cached.  Everything else is O(1) index arithmetic plus
    base-graph lookups.

    A generator (c, v) has a local view of delta_c + delta_v qubits: bit i is
    the VV qubit (adj_c[c][i], v), bit delta_c + j the CC qubit
    (c, adj_v[v][j]).  Its check grid has cell i*delta_v + j = the check
    (adj_c[c][i], adj_v[v][j]), the one check those two qubits share.
    """

    def __init__(self, base: BipartiteGraph):
        self.base = base
        self.n = base.n
        self.m = base.m
        self.delta_v = base.delta_v
        self.delta_c = base.delta_c
        self.num_qubits = base.n * base.n + base.m * base.m
        self.num_checks = base.n * base.m
        self.num_gens = base.m * base.n
        self._span: StabilizerSpan | None = None
        # Slot tables.  Base bit nu sits at position i of adj_c[c] for each
        # neighbor c: (c*n, view bit 1<<i, grid-row bit 1<<(i*delta_v)).  Base
        # check zeta sits at position j of adj_v[v] for each neighbor v:
        # (v, view bit 1<<(delta_c+j), grid-column bit 1<<j).
        #
        # The same slots are also packed into integer keys, one row per base
        # bit (delta_v slots) or base check (delta_c slots), for numpy passes
        # over many checks.  A bit slot's key is c*n << cell_shift | i*delta_v
        # and a check slot's v << cell_shift | j, so check (nu, zeta) lies in
        # grid cell (key & cell bits) of generator key >> cell_shift for each
        # sum key = bit_keys[nu][a] + check_keys[zeta][b].  cell_shift >= 6
        # keeps a one-word grid's cell in key's low 6 bits.
        dv, dc = self.delta_v, self.delta_c
        s = self._cell_shift = max(6, (dv * dc - 1).bit_length())
        bit_slots: list[list] = [[] for _ in range(self.n)]
        bit_keys: list[list[int]] = [[] for _ in range(self.n)]
        for c, bits in enumerate(base.adj_c):
            cn = c * self.n
            for i, nu in enumerate(bits):
                bit_slots[nu].append((cn, 1 << i, 1 << (i * dv)))
                bit_keys[nu].append(cn << s | i * dv)
        check_slots: list[list] = [[] for _ in range(self.m)]
        check_keys: list[list[int]] = [[] for _ in range(self.m)]
        for v, checks in enumerate(base.adj_v):
            for j, zeta in enumerate(checks):
                check_slots[zeta].append((v, 1 << (dc + j), 1 << j))
                check_keys[zeta].append(v << s | j)
        self._bit_slots = tuple(map(tuple, bit_slots))
        self._check_slots = tuple(map(tuple, check_slots))
        # numpy is imported here rather than with the module: importing it
        # ahead of the rest of the package raises the process's peak
        # resident set by about 1.7 MiB.
        import numpy as np

        flat = [k for row in bit_keys for k in row]
        self._bit_keys = np.array(flat, dtype=np.intp).reshape(self.n, dv)
        flat = [k for row in check_keys for k in row]
        self._check_keys = np.array(flat, dtype=np.intp).reshape(self.m, dc)

    def __eq__(self, other) -> bool:
        return isinstance(other, HgpCode) and self.base == other.base

    def __hash__(self) -> int:
        return hash(self.base)

    # --- index arithmetic (VV block row-major, CC block offset by n²) ---

    def vv_index(self, left1: int, left2: int) -> int:
        if not (0 <= left1 < self.n and 0 <= left2 < self.n):
            raise IndexError(f"VV qubit ({left1}, {left2}) out of range")
        return left1 * self.n + left2

    def cc_index(self, right1: int, right2: int) -> int:
        if not (0 <= right1 < self.m and 0 <= right2 < self.m):
            raise IndexError(f"CC qubit ({right1}, {right2}) out of range")
        return self.n * self.n + right1 * self.m + right2

    def qubit_coords(self, q: int) -> tuple[str, int, int]:
        nn = self.n * self.n
        if 0 <= q < nn:
            return "VV", q // self.n, q % self.n
        if nn <= q < self.num_qubits:
            r = q - nn
            return "CC", r // self.m, r % self.m
        raise IndexError(f"qubit index {q} out of range [0, {self.num_qubits})")

    # --- integer incidence (indices must be in range; nothing is cached) ---

    def gen_checks(self, g: int) -> list[int]:
        """The checks of generator g's grid, in cell-bit order."""
        c, v = divmod(g, self.n)
        m = self.m
        cols = self.base.adj_v[v]
        return [nu * m + zeta for nu in self.base.adj_c[c] for zeta in cols]

    def gen_qubits(self, g: int, mask: int = -1) -> list[int]:
        """The qubits a local-view mask of generator g selects, VV part first."""
        c, v = divmod(g, self.n)
        n = self.n
        out = [nu * n + v for i, nu in enumerate(self.base.adj_c[c]) if mask >> i & 1]
        cc, dc = n * n + c * self.m, self.delta_c
        out += [cc + zeta for j, zeta in enumerate(self.base.adj_v[v]) if mask >> (dc + j) & 1]
        return out

    def check_qubits(self, x: int) -> list[int]:
        """The support of check x: its VV row, then its CC column, ascending."""
        nu, zeta = divmod(x, self.m)
        row, nn, m = nu * self.n, self.n * self.n, self.m
        out = [row + v for v in self.base.adj_c[zeta]]
        out += [nn + c * m + zeta for c in self.base.adj_v[nu]]
        return out

    def qubit_checks(self, q: int) -> list[int]:
        """The checks incident to qubit q, ascending."""
        nn, m = self.n * self.n, self.m
        if q < nn:
            nu, v = divmod(q, self.n)
            return [nu * m + zeta for zeta in self.base.adj_v[v]]
        c, zeta = divmod(q - nn, m)
        return [nu * m + zeta for nu in self.base.adj_c[c]]

    # --- stabilizer span and parameters ---

    def generator_basis(self) -> StabilizerSpan:
        """Membership test for the span of the generator supports (cached)."""
        if self._span is None:
            self._span = StabilizerSpan(self)
        return self._span

    @property
    def k(self) -> int:
        """Logical qubit count k_H² + k_Hᵀ², from the base-code kernels."""
        return self.generator_basis().num_logicals

class StabilizerSpan:
    """Membership in the span of the generator supports, from base-code algebra.

    Write a qubit vector D as matrices (A, B): A[ν1][ν2] over the VV block,
    B[c1][c2] over the CC block.  With H the m x n base parity matrix the
    generators span {(HᵀM, MHᵀ)}, and D lies in that span iff D has zero
    X-syndrome and is orthogonal to every logical of the other type.  Those
    logicals are x·e_jᵀ on the VV block (x in ker H, j a free column of an
    echelon form of H) and e_i·zᵀ on the CC block (z in ker Hᵀ, i a free
    column of an echelon form of Hᵀ): k_H² + k_Hᵀ² of them, independent
    because no nonzero row-space vector lies on the free columns alone.

    ``contains`` pays O(|D|·Δ); the tables hold O(n + m) words, one bit per
    kernel vector, back-substituted bit-sliced by ``kernel_words`` so that
    set-up builds no kernel vector and costs one elimination of H and, when
    k_Hᵀ = m − rank H is not 0 (rank Hᵀ = rank H), one of Hᵀ.
    ``rank`` is the generator matrix's rank, mn − k_H·k_Hᵀ.
    """

    def __init__(self, code: HgpCode):
        base = code.base
        self._code = code
        vv = RestrictedSolver([sum(1 << v for v in bits) for bits in base.adj_c], base.n)
        self._vv_words, vv_free = vv.kernel_words(), vv.free_columns()
        self._cc_words, cc_free = [0] * base.m, []
        if base.m > vv.rank:
            cc = RestrictedSolver([sum(1 << c for c in checks) for checks in base.adj_v], base.m)
            self._cc_words, cc_free = cc.kernel_words(), cc.free_columns()
        self._vv_free = frozenset(vv_free)
        self._cc_free = frozenset(cc_free)
        k, kt = len(vv_free), len(cc_free)
        self.rank = base.m * base.n - k * kt
        self.num_logicals = k * k + kt * kt

    def contains(self, qubits) -> bool:
        """True iff the indicator vector of these distinct qubit indices is a
        sum of generator supports."""
        code = self._code
        qubits = list(qubits)
        if _x_syndrome(code, qubits):
            return False
        n, m, nn = code.n, code.m, code.n * code.n
        vv_words, vv_free = self._vv_words, self._vv_free
        cc_words, cc_free = self._cc_words, self._cc_free
        acc: dict[int, int] = {}
        for q in qubits:
            if q < nn:
                nu, v = divmod(q, n)
                if v in vv_free:
                    acc[v] = acc.get(v, 0) ^ vv_words[nu]
            else:
                c1, c2 = divmod(q - nn, m)
                if c1 in cc_free:
                    acc[n + c1] = acc.get(n + c1, 0) ^ cc_words[c2]
        return not any(acc.values())


def build_hgp(graph: BipartiteGraph) -> HgpCode:
    """Take the product of ``graph`` with itself."""
    return HgpCode(graph)


def syndrome(code: HgpCode, error: QubitSet) -> CheckSet:
    """Checks with an odd number of incidences into the error."""
    return CheckSet(code.n, code.m, frozenset(_x_syndrome(code, error._same(code).indices)))


def _x_syndrome(code: HgpCode, qubits) -> set[int]:
    """The checks with an odd number of incidences into these distinct qubit
    indices: each qubit's checks, walked on the base graph's adjacency as
    ``qubit_checks`` lists them, are toggled in and out of the set."""
    n, m, nn = code.n, code.m, code.n * code.n
    adj_c, adj_v = code.base.adj_c, code.base.adj_v
    flagged: set[int] = set()
    add, remove = flagged.add, flagged.remove
    for q in qubits:
        # VV qubit (nu, v): checks nu*m + zeta, zeta in adj_v[v].  CC qubit
        # (c, zeta): checks nu*m + zeta, nu in adj_c[c].
        if q < nn:
            nu, v = divmod(q, n)
            base, step, ends = nu * m, 1, adj_v[v]
        else:
            c, base = divmod(q - nn, m)
            step, ends = m, adj_c[c]
        for y in ends:
            x = base + step * y
            if x in flagged:
                remove(x)
            else:
                add(x)
    return flagged


# --- qubit-set file format: one qubit per line, "VV i j" or "CC i j" ---

class QubitParseError(LineParseError):
    """Raised on malformed qubit-set files."""


def qubitset_to_text(qubits: QubitSet) -> str:
    lines = [f"VV {i} {j}" for i, j in sorted(qubits.vv_part)]
    lines += [f"CC {i} {j}" for i, j in sorted(qubits.cc_part)]
    return "\n".join(lines) + ("\n" if lines else "")


def qubitset_from_text(text: str, code: HgpCode) -> QubitSet:
    """The qubit set a file lists; a qubit out of ``code``'s range or listed
    twice raises ``QubitParseError`` naming its line."""
    seen: dict[int, int] = {}
    for line_no, raw, line in content_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("VV", "CC"):
            raise QubitParseError(line_no, f"expected 'VV i j' or 'CC i j', got {raw!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise QubitParseError(line_no, f"coordinates must be integers in {raw!r}") from None
        try:
            q = (code.vv_index if parts[0] == "VV" else code.cc_index)(i, j)
        except IndexError:
            raise QubitParseError(line_no, f"qubit ({i}, {j}) out of range for this code") from None
        if q in seen:
            raise QubitParseError(line_no, f"qubit {parts[0]} {i} {j} repeats line {seen[q]}")
        seen[q] = line_no
    return QubitSet(code.n, code.m, frozenset(seen))
