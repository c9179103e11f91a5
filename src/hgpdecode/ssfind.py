"""Envelope finding by small-set scoring.

The decoder walks over locally reduced subsets of generator supports
("candidates"), repeatedly absorbing the lowest-scoring candidate into the
envelope and marking its checks suspicious, until no candidate scores at or
below twice the expansion threshold.

Everything a candidate's score depends on lives inside one generator's check
grid: the delta_c x delta_v cells Γ(c) x Γ(v).  Each grid cell sees exactly
two of the generator's qubits (one VV, one CC), so a candidate's unique /
covered cells are its VV part's grid rows and its CC part's grid columns
combined, from two small per-degree-pair tables.  A per-generator bitmask of
suspicious grid cells is then the entire mutable score state, and candidate
selection is a minimum over per-generator bests.  Scores compare exactly for
every degree pair: each possible score num/den is replaced by its rank among
all of the degree pair's possible scores, so comparing ranks is comparing the
fractions themselves.

Given the degree pair and the rank of 2*epsilon among those scores, a
generator's best candidate is a pure function of two small ints, its
suspicious-cell mask and its retired view bits.  Few such local states occur
(about 1 800 in an eager (3,6) n=60 decode that rescores 33 000 generators),
so rescoring a dirty generator is a dict lookup in a memo shared by every
decode and code with that degree pair and cutoff.  Only states the memo has
not seen are scored, each by a separable search: for every CC part, the
best VV part of each size is the rows that gain least, so a state costs
2^delta_v * delta_c steps and no mask is enumerated.  The memo holds at most
_MEMO_CAP states and is cleared when full; it changes no result, only how
often a state is scored.

A generator's whole search state is one word, ``rmask << width | retired``,
which is also its memo key.  A lazy decode's work follows the generators its
syndrome touches, and its state holds a word only for a generator that can
qualify or that a pick touched: a candidate scores at most 2*epsilon only
when at least need = |unique cells| - floor(2*epsilon*den) of its unique
cells are suspicious, so a generator whose suspicious-cell count is below
the smallest need over the part sizes has no qualifier.  Suspicious cells only
accumulate, so such a generator never had one either.  The syndrome's cells
are marked in one numpy pass over the code's slot arrays, which forms every
(generator, cell) pair at once; only the generators that reach min_need
enter the state.  Any other generator enters when a pick first touches it,
reading its syndrome cells through its own grid, which on lazy-n240 happens
a few times in a hundred decodes.  In eager mode the smallest need is at
most 0, every generator has a word from the start and nothing is skipped.

The search is one loop: rescore, select, absorb.  A rescore reads the memo
for every generator whose word changed and writes each hit straight into
the best-candidate store; the misses are then scored in one batch.  A lazy
decode's store is a map holding only the touched generators that have a
qualifier, each packed as ``key << 64 | generator << 32 | mask``, so
the pick is a C-level ``min`` over its values and no lazy decode allocates
or scans anything of size num_gens.  An eager decode, where every generator
qualifies from the start, keeps one rank key per generator in an
``array.array`` of C ints, whose item writes cost what a list's do, and
selects by numpy argmin over a zero-copy view of it; the pick's mask is
read back from the memo, so the key array is its one best-candidate store.
argmin keeps the first minimum, so ties go to the lowest generator in both
stores.  A pick walks the code's slot tables for its few qubits and fresh
checks, so it costs the incidence it touches and builds no per-qubit or
per-check list.

Scoring thresholds, tie-breaking (lowest score, then generator index, then
mask) and retirement (candidates sharing a qubit with the envelope never
return) are deterministic, so a decode is replayable from (code, syndrome,
config) alone.  Nothing here enumerates the locally reduced masks: the
tests replay a decode against an exhaustive Fraction scorer over
coordinate-pair sets (``score`` in ``tests/oracles.py``), and their exit
audit (``exit_audit`` there) sweeps the mask catalog of every seeded
generator.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .graphs import LineParseError, content_lines
from .hgp import CheckSet, HgpCode, QubitSet
from .reduction import check_view_width

__all__ = [
    "DecoderConfig",
    "SsfindIterationError",
    "SsfindResult",
    "SsfindState",
    "TraceEntry",
    "TraceParseError",
    "min_untouched_score",
    "ssfind",
    "trace_from_text",
    "trace_to_text",
]

# Rank key of a candidate that is retired or scores above 2*epsilon.
_NO_KEY = np.iinfo(np.int32).max
# A memoized best candidate is key << 64 | mask, which leaves bits 32-63 free
# for a lazy qualifier's generator; one shared object stands for "nothing
# qualifies", which most lazy states are.
_NO_BEST = _NO_KEY << 64
_LOW32 = (1 << 32) - 1
# Entries one best-candidate memo holds before it is cleared.
_MEMO_CAP = 1 << 16


@dataclass(frozen=True)
class DecoderConfig:
    """Decode-time knobs; epsilon is the expansion parameter, held exactly.

    ``record_rescored`` makes the result list, per loop pass, the generators
    whose best candidate was refreshed, whether the memo held their state or
    it had to be scored."""

    epsilon: Fraction
    record_rescored: bool = False

    def __post_init__(self):
        eps = self.epsilon
        if isinstance(eps, float):
            raise TypeError(
                "epsilon must be exact (Fraction, int, or 'p/q' string), not float"
            )
        eps = Fraction(eps)
        object.__setattr__(self, "epsilon", eps)
        if eps < 0:
            raise ValueError("epsilon must be non-negative")
        if eps >= Fraction(1, 10):
            warnings.warn(
                f"epsilon = {eps} is outside the guarantee regime (< 1/10); "
                "decoding proceeds without the envelope-size bound",
                UserWarning,
                stacklevel=3,
            )


class SsfindIterationError(RuntimeError):
    """More picks than the code has qubits while candidates still qualify.

    Every pick adds at least one qubit, so this is a fault in the search, not
    a property of the input; ``trace`` holds the picks made."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace


class TraceEntry(NamedTuple):
    """One pick: the candidate (generator, view mask) absorbed, its score
    num/den when picked, and the envelope and suspicious-set sizes after it."""

    iteration: int
    generator: int
    mask: int
    score_num: int
    score_den: int
    envelope_size: int
    suspicious_size: int


class TraceParseError(LineParseError):
    """Raised on malformed trace files."""


def trace_to_text(trace: Iterable[TraceEntry]) -> str:
    lines = [
        f"{t.iteration} {t.generator} {t.mask} {t.score_num} {t.score_den} "
        f"{t.envelope_size} {t.suspicious_size}"
        for t in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_text(text: str) -> tuple[TraceEntry, ...]:
    out = []
    for line_no, raw, line in content_lines(text):
        parts = line.split()
        if len(parts) != 7:
            raise TraceParseError(line_no, f"expected 7 fields, got {len(parts)}")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise TraceParseError(line_no, f"non-integer field in {raw!r}") from None
        out.append(TraceEntry(*vals))
    return tuple(out)


# --- per-degree-pair local view tables ---


class _ViewTables:
    """Candidate geometry for one degree pair, shared across codes.

    Grid cell (i, j) = bit i*delta_v + j pairs the i-th VV qubit with the j-th
    CC qubit of a local view.  ``rows[A]`` holds the full grid rows of a VV
    subset A and ``cols[B]`` the full grid columns of a CC subset B, so the
    mask ``B << delta_c | A`` has the unique cells ``rows[A] ^ cols[B]``
    (exactly one of the cell's row and column selected) and the covered cells
    ``rows[A] | cols[B]``.  No table is kept per mask: the memo scores a
    state by a separable search over it, in 2^delta_v * delta_c steps.

    A mask with a VV and b CC qubits has den = a*delta_v + b*delta_c and
    den - 2ab unique cells whatever the generator; ``sizes`` lists the (a, b,
    den) of the nonempty locally reduced masks, 0 < a + b <= width/2, and
    ``shapes`` the distinct (unique cells, den) pairs, from which
    ``min_untouched`` and ``min_need`` follow.  A score num/den has num <=
    delta_v*delta_c.  With ``scale`` the lcm of the dens, num/den is held as
    the integer num*(scale/den), so scores sort and hash as small ints and
    compare exactly as the fractions do; every possible score is sorted once
    into ``scores`` (scaled), and a score's rank is its index there.
    """

    def __init__(self, delta_v: int, delta_c: int):
        self.delta_v = delta_v
        self.delta_c = delta_c
        self.width = delta_v + delta_c
        self.grid_bits = delta_v * delta_c
        self.gridfull = (1 << self.grid_bits) - 1
        rows, cols = [0], [0]
        for i in range(delta_c):
            rows += [r | (((1 << delta_v) - 1) << (i * delta_v)) for r in rows]
        col = sum(1 << (i * delta_v) for i in range(delta_c))
        for j in range(delta_v):
            cols += [x | (col << j) for x in cols]
        self.rows, self.cols = tuple(rows), tuple(cols)
        half = self.width // 2
        sizes = [(a, b) for a in range(delta_c + 1) for b in range(delta_v + 1) if 0 < a + b <= half]
        self.sizes = [(a, b, a * delta_v + b * delta_c) for a, b in sizes]
        self.shapes = tuple(sorted({(den - 2 * a * b, den) for a, b, den in self.sizes}))
        self.min_untouched = min(Fraction(u, d) for u, d in self.shapes)
        dens = {den for _, _, den in self.sizes}
        self.scale = math.lcm(*dens)
        nums = range(self.grid_bits + 1)
        self.scores = sorted({k * (self.scale // d) for d in dens for k in nums})
        self.words = -(-self.grid_bits // 64)
        self._memos: dict[int, _BestMemo] = {}
        self._by_epsilon: dict[tuple[int, int], tuple[int, int]] = {}

    def at_epsilon(self, epsilon: Fraction) -> tuple[_BestMemo, int]:
        """The best-candidate memo and min_need of a decode at ``epsilon``.

        The memo is shared by every decode of every code with this degree
        pair and the same cutoff rank, the rank of the largest score <=
        2*epsilon.  The cutoff and min_need are computed once per epsilon and
        kept, one small entry per distinct epsilon the process decodes at,
        keyed by (numerator, denominator): a tuple hashes in a third of the
        time a Fraction does."""
        key = epsilon.numerator, epsilon.denominator
        consts = self._by_epsilon.get(key)
        if consts is None:
            twoeps = 2 * epsilon
            # A scaled score is an integer, so it is <= twoeps*scale exactly
            # when it is <= the floor of twoeps*scale.
            top = twoeps.numerator * self.scale // twoeps.denominator
            cutoff = bisect.bisect_right(self.scores, top) - 1
            consts = self._by_epsilon[key] = (cutoff, self.min_need(twoeps))
        cutoff, need = consts
        memo = self._memos.get(cutoff)
        if memo is None:
            memo = self._memos[cutoff] = _BestMemo(self, cutoff)
        return memo, need

    def min_need(self, twoeps: Fraction) -> int:
        """Fewest suspicious unique cells any mask needs to score <= twoeps.

        A mask with u unique cells and weight den scores (u - s)/den with s of
        them suspicious, at most twoeps exactly when s >= u - floor(twoeps*den)."""
        p, q = twoeps.numerator, twoeps.denominator
        return min(u - p * d // q for u, d in self.shapes)


class _BestMemo:
    """Best qualifying candidate of a generator's local state, for one degree
    pair and one cutoff rank (the rank of the largest score <= 2*epsilon).

    The state ``rmask << width | retired`` fixes every candidate's score and
    whether it is alive, so the best candidate is a function of it alone:
    lowest rank key, then lowest mask.  ``entries`` maps a state to that
    candidate packed as ``key << 64 | mask``, or to _NO_BEST when nothing
    qualifies.  It holds at most _MEMO_CAP states and is cleared when full.
    A state it lacks is scored by ``_best`` in 2^delta_v * delta_c steps,
    with no numpy call.  ``keys[b][a][num]`` is the rank key of score
    num/(a*delta_v + b*delta_c), _NO_KEY above the cutoff or for the empty
    part sizes (0, 0)."""

    def __init__(self, tables: _ViewTables, cutoff: int):
        self.tables = t = tables
        nums = range(t.grid_bits + 1)
        none = [_NO_KEY] * len(nums)
        self.keys = [[none] * (t.delta_c + 1) for _ in range(t.delta_v + 1)]
        top = t.scores[cutoff]
        for a, b, den in t.sizes:
            step = t.scale // den
            self.keys[b][a] = [
                bisect.bisect_left(t.scores, k * step) if k * step <= top else _NO_KEY
                for k in nums
            ]
        self.entries: dict[int, int] = {}

    def _score(self, states: list[int]) -> dict[int, int]:
        """Packed best candidate of each state, scored once each and entered
        into the memo."""
        entries, fresh = self.entries, {}
        for s in set(states):
            if len(entries) >= _MEMO_CAP:
                entries.clear()
            entries[s] = fresh[s] = self._best(s)
        return fresh

    def _best(self, state: int) -> int:
        """A separable search over the state, in 2^delta_v * delta_c steps.

        Fix the CC subset B, alive and with 2|B| <= width, and let x_i be
        grid row i's non-suspicious cells.  The mask (A, B) then has num =
        sum_i |x_i & B| + sum_{i in A} gain_i, with gain_i = |x_i| - 2|x_i & B|
        the change when row i joins A.  So for each size a the best VV part
        is the a alive rows of smallest gain, ties to the lower row: rows are
        the mask's low bits, so that is also the lowest mask among the best.
        The result is the lowest (rank key, mask) over every (B, a)."""
        t = self.tables
        dv, dc, half = t.delta_v, t.delta_c, t.width // 2
        retired, line = state & ((1 << t.width) - 1), (1 << dv) - 1
        clear, free_cc = ~state >> t.width, ~retired >> dc & line
        x = [clear >> (i * dv) & line for i in range(dc)]
        alive = [(x[i].bit_count(), i, 1 << i) for i in range(dc) if not retired >> i & 1]
        best, keys, cc = _NO_BEST, self.keys, free_cc
        while True:
            b = cc.bit_count()
            if b <= half:
                by_a = keys[b]
                inter = [(xi & cc).bit_count() for xi in x]
                num, mask = sum(inter), cc << dc
                gains = sorted([(pc - 2 * inter[i], i, bit) for pc, i, bit in alive])
                for a, (gain, _, bit) in enumerate([(0, 0, 0), *gains[: half - b]]):
                    num += gain
                    mask |= bit
                    key = by_a[a][num]
                    if key != _NO_KEY and key << 64 | mask < best:
                        best = key << 64 | mask
            if not cc:
                return best
            # The next lower subset of the alive CC bits, down to the empty one.
            cc = (cc - 1) & free_cc


@functools.lru_cache(maxsize=None)
def _view_tables(delta_v: int, delta_c: int) -> _ViewTables:
    return _ViewTables(delta_v, delta_c)


def min_untouched_score(delta_v: int, delta_c: int) -> Fraction:
    """Lowest possible score of a candidate none of whose checks is suspicious."""
    return _view_tables(delta_v, delta_c).min_untouched


# --- decoder state ---


def _join_words(words: list[np.ndarray]) -> list[int]:
    """Grid masks as ints, from one uint64 array per 64-bit word, low first."""
    out = words[0].tolist()
    for w in range(1, len(words)):
        out = [r | x << (64 * w) for r, x in zip(out, words[w].tolist())]
    return out


@dataclass(frozen=True)
class SsfindResult:
    """``rescored`` (with ``record_rescored``) holds one ascending tuple per
    loop pass, ``iterations + 1`` in all: the generators whose best candidate
    was refreshed, by memo hit or miss."""

    envelope: QubitSet
    suspicious: CheckSet
    trace: tuple[TraceEntry, ...]
    iterations: int
    mode: str
    state: SsfindState
    rescored: tuple[tuple[int, ...], ...] | None = None


class SsfindState:
    """One decode's search: ``SsfindState(code, sigma, config)`` builds it
    with the syndrome's cells marked, and ``run()`` advances it to the exit.
    The finished search is the result's ``state``: ``seeded``, ``rmask(g)``
    and ``retired(g)`` read its per-generator state.

    A generator's state is one word, ``rmask << width | retired``: its
    suspicious grid cells and the view bits of its envelope qubits, which is
    also its key in the best-candidate memo.  ``words`` is the only store of
    a word.  An eager decode keeps a word for every generator in a list.  A
    lazy decode keeps words in a map, entered when the state is built for the
    generators whose syndrome cells reach min_need and, for any other
    generator, on its first touch by a pick, when it reads its syndrome cells
    through its grid.  Until then its word is its syndrome cells, read the
    same way, with no retired bit.  A generator is seeded once one of its
    grid's checks is suspicious, or from the start in eager mode."""

    def __init__(self, code: HgpCode, sigma: CheckSet, config: DecoderConfig):
        check_view_width(code.delta_v + code.delta_c)
        self.code = code
        self.config = config
        self.tables = _view_tables(code.delta_v, code.delta_c)
        # A generator with fewer than min_need suspicious cells has no
        # qualifying candidate; at most 0, an untouched candidate qualifies
        # and every generator is seeded from the start.
        self.memo, self.min_need = self.tables.at_epsilon(config.epsilon)
        eager = self.min_need <= 0
        self.mode = "eager" if eager else "lazy"
        g_count = code.num_gens
        sigma_idx = sigma.to_indices(code)
        self.envelope_set: set[int] = set()
        self.syndrome_set = frozenset(sigma_idx)
        self.suspicious_set = set(self.syndrome_set)
        self.trace: list[TraceEntry] = []
        self.words: dict[int, int] | list[int] = [0] * g_count if eager else {}
        # Best candidates.  Eager: a rank key per generator, in a C int
        # array written at list speed and read by argmin through a zero-copy
        # numpy view; the pick reads its mask from the memo.  Lazy:
        # generator -> key << 64 | generator << 32 | mask for the touched
        # generators that have a qualifier, and no others, so that the lowest
        # value is the pick and nothing of size num_gens is allocated.
        if eager:
            self.best_key = array("i", [_NO_KEY]) * g_count
            self._key_view = np.frombuffer(self.best_key, dtype=np.intc)
        else:
            self.qualifiers: dict[int, int] = {}
        self._seed(sigma_idx)

    # -- inspection --

    def _word(self, g: int) -> int:
        """Generator g's state word; reading enters nothing.  A lazy
        generator not held yet has its syndrome cells and no retired bit."""
        if self.mode == "lazy" and g not in self.words:
            return self._grid_cells(g, self.syndrome_set) << self.tables.width
        return self.words[g]

    def _grid_cells(self, g: int, checks) -> int:
        """The cells of generator g's grid whose check is in ``checks``."""
        cells = 0
        for cell, chk in enumerate(self.code.gen_checks(g)):
            if chk in checks:
                cells |= 1 << cell
        return cells

    def rmask(self, g: int) -> int:
        """Generator g's suspicious grid cells."""
        return self._word(g) >> self.tables.width

    def retired(self, g: int) -> int:
        """The view bits of generator g's envelope qubits."""
        return self._word(g) & ((1 << self.tables.width) - 1)

    @property
    def seeded(self) -> bytearray:
        """One byte per generator, 1 where it is seeded; built on each read,
        so ``sum(seeded)`` counts the seeded generators.  A lazy decode's
        are the generators it holds and those its syndrome marks."""
        g_count = self.code.num_gens
        if self.mode == "eager":
            return bytearray(b"\x01") * g_count
        seeded = bytearray(g_count)
        flags = np.frombuffer(seeded, dtype=np.uint8)
        flags[self._cell_keys(self.syndrome_set) >> self.code._cell_shift] = 1
        flags[list(self.words)] = 1
        return seeded

    # -- bookkeeping --

    def _cell_keys(self, chks: Iterable[int]) -> np.ndarray:
        """The slot key ``generator << cell_shift | cell`` of every
        (generator, grid cell) pair of the checks, ascending."""
        code = self.code
        nu, zeta = np.divmod(np.fromiter(chks, dtype=np.intp), code.m)
        keys = (code._bit_keys[nu][:, :, None] + code._check_keys[zeta][:, None, :]).ravel()
        keys.sort()
        return keys

    def _seed(self, chks: list[int]) -> None:
        """Mark the syndrome's cells in one numpy pass over the code's slot
        keys.  Eager: every seeded generator's word is written.  Lazy: only
        the generators that reach min_need are entered.

        Every (generator, grid cell) pair of the syndrome is formed at once
        and sorted by generator.  A generator meets each check in one cell,
        so ORing its cell bits, per 64-bit word of the grid, gives its
        suspicious-cell mask."""
        if not chks:
            return
        code, t = self.code, self.tables
        keys = self._cell_keys(chks)
        gens = keys >> code._cell_shift
        first = np.empty(len(gens), dtype=bool)
        first[0] = True
        np.not_equal(gens[1:], gens[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        if t.words == 1:
            cells = [np.left_shift(np.uint64(1), (keys & 63).astype(np.uint64))]
        else:
            cell = keys & ((1 << code._cell_shift) - 1)
            bits = np.left_shift(np.uint64(1), (cell & 63).astype(np.uint64))
            word, zero = cell >> 6, np.uint64(0)
            cells = [np.where(word == w, bits, zero) for w in range(t.words)]
        masks = [np.bitwise_or.reduceat(c, starts) for c in cells]
        seeded = gens[starts]
        if self.mode == "lazy":
            enter = sum(map(np.bitwise_count, masks)) >= self.min_need
            seeded = seeded[enter]
            masks = [w[enter] for w in masks]
        words, width = self.words, t.width
        for g, r in zip(seeded.tolist(), _join_words(masks)):
            words[g] = r << width

    # -- main loop --

    def run(self) -> SsfindResult:
        """Rescore, select and absorb until no candidate qualifies.

        A rescore refreshes the best candidate of every generator whose word
        a pick changed (every generator at first in eager mode, the entered
        ones in lazy mode), skipping lazy generators below min_need: each
        word is looked up in the memo and the misses are scored in one batch.
        The pick is the lowest rank key, then the lowest generator.  A pick
        adds its view's qubits to the envelope and retires each in every
        generator holding it, then makes its covered checks suspicious and
        marks each fresh one's cell in every generator whose grid holds it,
        walking the code's slot tables: a qubit's checks all lie in the grid
        of every generator holding it, so a lazy generator is entered here
        at the latest once it holds an envelope qubit or a suspicious cell
        that the syndrome did not flag, and enters with its syndrome cells."""
        code, t, trace, config = self.code, self.tables, self.trace, self.config
        n, m, dv, dc = code.n, code.m, code.delta_v, code.delta_c
        nn, num_qubits = n * n, code.num_qubits
        adj_c, adj_v = code.base.adj_c, code.base.adj_v
        bit_slots, check_slots = code._bit_slots, code._check_slots
        grid_rows, grid_cols = t.rows, t.cols
        width, gridfull, vv_bits = t.width, t.gridfull, (1 << dc) - 1
        envelope, suspicious = self.envelope_set, self.suspicious_set
        words, need = self.words, self.min_need
        entries, score = self.memo.entries, self.memo._score
        enter = self._word
        eager = self.mode == "eager"
        lazy = not eager
        if eager:
            keys, key_view = self.best_key, self._key_view
            dirty = range(code.num_gens)
        else:
            qualifiers = self.qualifiers
            dirty = list(words)
        log: list[tuple[int, ...]] | None = [] if config.record_rescored else None
        while True:
            # Rescore: the memo's entries, then the states it lacks, scored
            # in one batch.
            lookup, todo = entries.get, dirty
            while todo:
                missed = []
                if eager:
                    for g in todo:
                        b = lookup(words[g])
                        if b is None:
                            missed.append(g)
                        else:
                            keys[g] = b >> 64
                else:
                    for g in todo:
                        s = words[g]
                        if (s >> width).bit_count() < need:
                            continue
                        b = lookup(s)
                        if b is None:
                            missed.append(g)
                        elif b == _NO_BEST:
                            qualifiers.pop(g, None)
                        else:
                            qualifiers[g] = b | g << 32
                if not missed:
                    break
                lookup, todo = score([words[g] for g in missed]).get, missed
            if log is not None:
                if lazy:
                    dirty = [g for g in dirty if (words[g] >> width).bit_count() >= need]
                log.append(tuple(sorted(dirty)))
            # Select.
            if eager:
                g = int(key_view.argmin())
                if keys[g] == _NO_KEY:
                    break
                # words[g] is unchanged since its key was read from the memo,
                # which may have been cleared since: then it is scored again.
                best = entries.get(words[g])
                if best is None:
                    best = self.memo._best(words[g])
                mask = best & _LOW32
            else:
                if not qualifiers:
                    break
                best = min(qualifiers.values())
                g, mask = best >> 32 & _LOW32, best & _LOW32
            # A pick is alive, so it shares no qubit with the envelope and
            # adds at least one: a correct search stops within num_qubits picks.
            if len(trace) >= num_qubits:
                raise SsfindIterationError(
                    f"{num_qubits} picks made with qualifying candidates "
                    "remaining (every pick should add at least one qubit)",
                    tuple(trace),
                )
            # Absorb: retire the view's qubits, then mark the fresh checks.
            rmask = words[g] >> width
            vv, cc = mask & vv_bits, mask >> dc
            row_cells, col_cells = grid_rows[vv], grid_cols[cc]
            num = ((row_cells ^ col_cells) & ~rmask & gridfull).bit_count()
            den = vv.bit_count() * dv + cc.bit_count() * dc
            dirty = set()
            touch = dirty.add
            c, v = divmod(g, n)
            row, col = adj_c[c], adj_v[v]
            while vv:
                low = vv & -vv
                vv ^= low
                nu = row[low.bit_length() - 1]
                envelope.add(nu * n + v)
                for cn, bit, _ in bit_slots[nu]:
                    h = cn + v
                    if lazy and h not in words:
                        words[h] = enter(h)
                    words[h] |= bit
                    touch(h)
            base, cn = nn + c * m, c * n
            while cc:
                low = cc & -cc
                cc ^= low
                zeta = col[low.bit_length() - 1]
                envelope.add(base + zeta)
                for w, bit, _ in check_slots[zeta]:
                    h = cn + w
                    if lazy and h not in words:
                        words[h] = enter(h)
                    words[h] |= bit
                    touch(h)
            # words[g] held exactly the cells of g whose check is suspicious,
            # so these are the covered checks that turn suspicious now.  Check
            # (nu, zeta) lies in the grid of generator (c', v') for each bit
            # slot (c', row bit) of nu and check slot (v', column bit) of
            # zeta, in the cell row bit * column bit.
            fresh = (row_cells | col_cells) & ~rmask
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                i, j = divmod(low.bit_length() - 1, dv)
                nu, zeta = row[i], col[j]
                suspicious.add(nu * m + zeta)
                cols = check_slots[zeta]
                for cn, _, rowbit in bit_slots[nu]:
                    row_cells = rowbit << width
                    for w, _, colbit in cols:
                        h = cn + w
                        if lazy and h not in words:
                            words[h] = enter(h)
                        words[h] |= row_cells * colbit
                        touch(h)
            trace.append(
                TraceEntry(
                    len(trace) + 1, g, mask, num, den,
                    len(envelope), len(suspicious),
                )
            )
        return SsfindResult(
            envelope=QubitSet.from_indices(code, envelope),
            suspicious=CheckSet.from_indices(code, suspicious),
            trace=tuple(trace),
            iterations=len(trace),
            mode=self.mode,
            state=self,
            rescored=tuple(log) if log is not None else None,
        )


def ssfind(code: HgpCode, sigma: CheckSet, config: DecoderConfig) -> SsfindResult:
    """Run the envelope finder on a syndrome; deterministic for fixed inputs."""
    return SsfindState(code, sigma, config).run()
