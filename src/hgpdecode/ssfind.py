"""Envelope finding by small-set scoring.

The decoder walks over locally reduced subsets of generator supports
("candidates"), repeatedly absorbing the lowest-scoring candidate into the
envelope and marking its checks suspicious, until no candidate scores at or
below twice the expansion threshold.

Everything a candidate's score depends on lives inside one generator's check
grid: the delta_c x delta_v cells Γ(c) x Γ(v).  Each grid cell sees exactly
two of the generator's qubits (one VV, one CC), so a candidate's unique /
covered cells are pure functions of its local mask, precomputed once per
degree pair.  A per-generator bitmask of suspicious grid cells is then the
entire mutable score state, and candidate selection is a minimum over
per-generator bests.  Scores compare exactly for every degree pair: each
possible score num/den is replaced by its rank among all of the degree pair's
possible scores, so comparing ranks is comparing the fractions themselves.

Given the degree pair and the rank of 2*epsilon among those scores, a
generator's best candidate is a pure function of two small ints, its
suspicious-cell mask and its retired view bits.  Few such local states occur
(about 1 800 in an eager (3,6) n=60 decode that rescores 33 000 generators),
so rescoring a dirty generator is a dict lookup in a memo shared by every
decode and code with that degree pair and cutoff.  Only states the memo has
not seen are scored, together, by vectorized bitwise ops over the whole mask
table.  The memo holds at most _MEMO_CAP states and is cleared when full; it
changes no result, only how often a state is scored.

A lazy decode's work follows the generators its syndrome touches.  Its state
holds an entry only for a generator that has a suspicious cell or a retired
qubit, and a rescore skips every dirty generator with too few suspicious cells
to qualify: a candidate scores at most 2*epsilon only when at least
need = |unique cells| - floor(2*epsilon*den) of its unique cells are
suspicious, so a generator whose suspicious-cell count is below the smallest
need over the table has no qualifier.  Suspicious cells only accumulate, so
such a generator never had one either.  In eager mode the smallest need is
at most 0 and nothing is skipped.  The syndrome's cells are marked in one
numpy pass over the code's slot arrays, which forms every (generator, cell)
pair at once.  A pick walks the same slot tables for its few qubits and
fresh checks, so it costs the incidence it touches and builds no
per-qubit or per-check list.

A rescore is one pass over the dirty generators: it forms each local state,
reads the memo, and writes the hit straight into the best-candidate store;
the misses are scored afterwards in one batch.  A lazy decode's store is a
map holding only the touched generators that have a qualifier, so no lazy
decode allocates or scans anything of size num_gens.  An eager decode,
where every generator qualifies from the start, keeps one rank key per
generator in an ``array.array`` of C ints, whose item writes cost what a
list's do, and selects by numpy argmin over a zero-copy view of it; argmin
keeps the first minimum, so ties go to the lowest generator.

Scoring thresholds, tie-breaking (lowest score, then generator index, then
mask) and retirement (candidates sharing a qubit with the envelope never
return) are deterministic, so a decode is replayable from (code, syndrome,
config) alone.  The tests replay it against an exhaustive Fraction scorer
over coordinate-pair sets (``score`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .graphs import LineParseError, content_lines
from .hgp import CheckSet, HgpCode, QubitSet
from .reduction import check_view_width, locally_reduced_masks, part_sizes

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
# A memoized best candidate is key << 32 | table position; one shared object
# stands for "nothing qualifies", which most lazy states are.
_NO_BEST = _NO_KEY << 32
_POS_BITS = (1 << 32) - 1
_WORD = (1 << 64) - 1
# (state, mask) pairs scored per numpy pass: keeps a rescore's temporaries
# to a few MiB however wide the view (an (8, 8) view has 39 202 masks).
_CHUNK_PAIRS = 1 << 18
# Entries one best-candidate memo holds before it is cleared.
_MEMO_CAP = 1 << 16


@dataclass(frozen=True)
class DecoderConfig:
    """Decode-time knobs; epsilon is the expansion parameter, held exactly.

    ``record_rescored`` makes the result list, per loop pass, the generators
    whose best candidate was refreshed, whether the memo held their state or
    it had to be scored."""

    epsilon: Fraction
    verify_exit: bool = False
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
                stacklevel=2,
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
    CC qubit of a local view; a mask's unique cells are those covering exactly
    one of the pair, its covered cells those covering at least one.

    A score num/den has num <= delta_v*delta_c and den one of a few values.
    With ``scale`` the lcm of those dens, num/den is held as the integer
    num*(scale/den), so scores sort and hash as small ints and compare
    exactly as the fractions do.  Every possible score is sorted once into
    ``scores`` (scaled), and ``ranks[den_off[p] + num]`` is the index in
    ``scores`` of the score num/den[p]: equal fractions share a rank, and
    ranks order exactly as the fractions do.  The unique-cell masks are split
    into 64-bit words, low word first, for ``np.bitwise_count``.

    A mask with a VV and b CC qubits has den = a*delta_v + b*delta_c and
    den - 2ab unique cells whatever the generator.  ``shapes`` lists the
    distinct (unique cells, den) pairs, from which ``min_untouched`` and
    ``min_need`` follow without a pass over the masks.
    """

    def __init__(self, delta_v: int, delta_c: int):
        self.delta_v = delta_v
        self.delta_c = delta_c
        self.width = delta_v + delta_c
        self.grid_bits = delta_v * delta_c
        self.gridfull = (1 << self.grid_bits) - 1
        masks = locally_reduced_masks(delta_v, delta_c)
        self.masks = masks
        # rows[a]: the full grid rows i in VV subset a; cols[b]: the full grid
        # columns j in CC subset b.  A cell is unique when exactly one of its
        # row and column is selected, covered when at least one is.
        rows, cols = [0], [0]
        for i in range(delta_c):
            rows += [r | (((1 << delta_v) - 1) << (i * delta_v)) for r in rows]
        col = sum(1 << (i * delta_v) for i in range(delta_c))
        for j in range(delta_v):
            cols += [x | (col << j) for x in cols]
        low = (1 << delta_c) - 1
        uq = [rows[m & low] ^ cols[m >> delta_c] for m in masks]
        sizes = [part_sizes(m, delta_c) for m in masks]
        den = [a * delta_v + b * delta_c for a, b in sizes]
        self.py_uq = tuple(uq)
        self.py_cov = tuple(rows[m & low] | cols[m >> delta_c] for m in masks)
        self.py_den = tuple(den)
        self.shapes = tuple(
            sorted(
                (a * delta_v + b * delta_c - 2 * a * b, a * delta_v + b * delta_c)
                for a, b in set(sizes)
            )
        )
        self.min_untouched = min(Fraction(u, d) for u, d in self.shapes)
        nums = range(self.grid_bits + 1)
        dens = sorted(set(den))
        self.scale = math.lcm(*dens)
        scaled = [k * (self.scale // d) for d in dens for k in nums]
        self.scores = sorted(set(scaled))
        rank = {v: r for r, v in enumerate(self.scores)}
        self.ranks = np.array([rank[v] for v in scaled], dtype=np.int32)
        offset = {d: i * len(nums) for i, d in enumerate(dens)}
        self.den_off = np.array([offset[d] for d in den], dtype=np.int32)
        # int32 holds every mask: a view of 32 or more qubits would have over
        # 2^31 masks to tabulate.
        self.np_masks = np.array(masks, dtype=np.int32)
        self.words = -(-self.grid_bits // 64)
        self.np_uq = self.split_words(uq)
        self._memos: dict[int, _BestMemo] = {}
        self._by_epsilon: dict[tuple[int, int], tuple[int, int]] = {}

    def split_words(self, grids: list[int]) -> list[np.ndarray]:
        """One uint64 array per 64-bit word of the grid masks, low word first."""
        if self.words == 1:
            return [np.array(grids, dtype=np.uint64)]
        return [
            np.array([x >> (64 * w) & _WORD for x in grids], dtype=np.uint64)
            for w in range(self.words)
        ]

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
    lowest rank key, then lowest table position.  ``entries`` maps a state to
    that candidate packed as ``key << 32 | position``, or to _NO_BEST when
    nothing qualifies.  It holds at most _MEMO_CAP states and is cleared when
    full."""

    def __init__(self, tables: _ViewTables, cutoff: int):
        self.tables = tables
        # Rank key of every (den, num) slot; slots scoring above 2*epsilon
        # never qualify.
        self.keys = np.where(tables.ranks <= cutoff, tables.ranks, _NO_KEY)
        self.entries: dict[int, int] = {}

    def _score(self, states: list[int]) -> dict[int, int]:
        """Packed best candidate of each state, scored once each and entered
        into the memo.  Every candidate of every state is ranked in one numpy
        pass per chunk; argmin keeps the first minimum, so ties go to the
        lowest position."""
        t = self.tables
        order = sorted(set(states))
        low = (1 << t.width) - 1
        step = max(1, _CHUNK_PAIRS // len(t.masks))
        fresh = {}
        for lo in range(0, len(order), step):
            chunk = order[lo : lo + step]
            slot = t.den_off
            for uq, r in zip(t.np_uq, t.split_words([s >> t.width for s in chunk])):
                slot = slot + np.bitwise_count(uq & ~r[:, None])
            gone = np.array([s & low for s in chunk], dtype=np.int32)
            # Every slot is in range; "clip" only skips np.take's bounds check.
            key = np.take(self.keys, slot, mode="clip")
            key = np.where(t.np_masks & gone[:, None], _NO_KEY, key)
            pos = key.argmin(axis=1)
            best = key[np.arange(len(chunk)), pos]
            for s, k, p in zip(chunk, best.tolist(), pos.tolist()):
                fresh[s] = _NO_BEST if k == _NO_KEY else k << 32 | p
        entries = self.entries
        for s, b in fresh.items():
            if len(entries) >= _MEMO_CAP:
                entries.clear()
            entries[s] = b
        return fresh


@functools.lru_cache(maxsize=None)
def _view_tables(delta_v: int, delta_c: int) -> _ViewTables:
    return _ViewTables(delta_v, delta_c)


def min_untouched_score(delta_v: int, delta_c: int) -> Fraction:
    """Lowest possible score of a candidate none of whose checks is suspicious."""
    return _view_tables(delta_v, delta_c).min_untouched


# --- decoder state ---


class _ZeroDefault(dict):
    """Generator -> bitmask holding only the generators a lazy decode
    touched; any other generator reads 0 without being added."""

    def __missing__(self, g: int) -> int:
        return 0


class _SeededView(Sequence):
    """``seeded[g]`` for every generator index, read-only: a list of bools
    that is never materialized, so ``sum(seeded)`` counts seeded generators."""

    def __init__(self, members, num_gens: int):
        self._members = members
        self._len = num_gens

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, g: int) -> bool:
        if not 0 <= g < self._len:
            raise IndexError(f"generator {g} out of range [0, {self._len})")
        return g in self._members

    def __iter__(self) -> Iterator[bool]:
        return map(self._members.__contains__, range(self._len))


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
    The finished search is the result's ``state``: ``seeded``, ``rmask`` and
    ``retired`` read its per-generator state.

    ``rmask[g]`` (suspicious grid cells) and ``retired[g]`` (view bits of
    envelope qubits) read 0 for a generator the decode never touched.  A
    lazy decode keeps them in maps holding only touched generators, so its
    cost follows the syndrome.  An eager decode seeds every generator, and
    keeps them in lists, whose updates cost about half as much.  A generator
    is seeded once one of its grid's checks is suspicious, or from the
    start in eager mode."""

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
        self.suspicious_set = set(sigma_idx)
        self.retired: dict[int, int] | list[int] = [0] * g_count if eager else _ZeroDefault()
        self.rmask: dict[int, int] | list[int] = [0] * g_count if eager else _ZeroDefault()
        self.trace: list[TraceEntry] = []
        self.dirty: set[int] = set(range(g_count)) if eager else set()
        # Best candidates.  Eager: a rank key and a table position per
        # generator; the keys are a C int array, written at list speed and
        # read by argmin through a zero-copy numpy view.  Lazy: generator ->
        # key << 32 | position for the touched generators that have a
        # qualifier, and no others, so nothing of size num_gens is allocated.
        if eager:
            self.best_key = array("i", [_NO_KEY]) * g_count
            # Read only where best_key holds a rank, written with it.
            self.best_pos = [0] * g_count
            self._key_view = np.frombuffer(self.best_key, dtype=np.intc)
        else:
            self.qualifiers: dict[int, int] = {}
        self._seed(sigma_idx)

    # -- inspection --

    def seeded_gens(self) -> Iterable[int]:
        """The seeded generators, ascending."""
        if self.mode == "eager":
            return range(self.code.num_gens)
        return sorted(self.rmask)

    @property
    def seeded(self) -> Sequence[bool]:
        members = range(self.code.num_gens) if self.mode == "eager" else self.rmask
        return _SeededView(members, self.code.num_gens)

    def _qualifying(self, g: int) -> list[int]:
        """Alive masks of generator g that score at most 2*epsilon.

        Scores num/den compare with 2*epsilon = p/q as num*q <= p*den, exactly."""
        t = self.tables
        twoeps = 2 * self.config.epsilon
        p, q = twoeps.numerator, twoeps.denominator
        not_r = ~self.rmask[g] & t.gridfull
        retired = self.retired[g]
        return [
            mask
            for uq, den, mask in zip(t.py_uq, t.py_den, t.masks)
            if not mask & retired and (uq & not_r).bit_count() * q <= p * den
        ]

    # -- bookkeeping --

    def _seed(self, chks: list[int]) -> None:
        """Mark the syndrome's cells in one numpy pass over the code's slot
        keys, and enqueue the generators that reach min_need.

        Every (generator, grid cell) pair of the syndrome is formed at once
        and sorted by generator.  A generator meets each check in one cell,
        so ORing its cell bits, per 64-bit word of the grid, gives its
        suspicious-cell mask."""
        if not chks:
            return
        code, words = self.code, self.tables.words
        nu, zeta = np.divmod(np.array(chks, dtype=np.intp), code.m)
        keys = (code._bit_keys[nu][:, :, None] + code._check_keys[zeta][:, None, :]).ravel()
        keys.sort()
        gens = keys >> code._cell_shift
        first = np.empty(len(gens), dtype=bool)
        first[0] = True
        np.not_equal(gens[1:], gens[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        if words == 1:
            cells = [np.left_shift(np.uint64(1), (keys & 63).astype(np.uint64))]
        else:
            cell = keys & ((1 << code._cell_shift) - 1)
            bits = np.left_shift(np.uint64(1), (cell & 63).astype(np.uint64))
            word, zero = cell >> 6, np.uint64(0)
            cells = [np.where(word == w, bits, zero) for w in range(words)]
        masks = [np.bitwise_or.reduceat(c, starts) for c in cells]
        rmasks = masks[0].tolist()
        for w in range(1, words):
            rmasks = [r | x << (64 * w) for r, x in zip(rmasks, masks[w].tolist())]
        seeded = gens[starts]
        rmask = self.rmask
        if self.mode == "eager":
            for g, r in zip(seeded.tolist(), rmasks):
                rmask[g] = r
        else:
            rmask.update(zip(seeded.tolist(), rmasks))
            count = sum(map(np.bitwise_count, masks))
            self.dirty.update(seeded[count >= self.min_need].tolist())

    def _retire(self, g: int, mask: int) -> None:
        """Absorb the qubits of generator g's view mask into the envelope and
        retire each in every generator holding it, by the code's slot tables.

        A qubit's checks all lie in the grid of every generator holding it,
        so a generator unseeded here is seeded by this pick's fresh checks."""
        code, retired, dirty, envelope = self.code, self.retired, self.dirty, self.envelope_set
        n, dc = code.n, code.delta_c
        c, v = divmod(g, n)
        row, col = code.base.adj_c[c], code.base.adj_v[v]
        vv = mask & ((1 << dc) - 1)
        while vv:
            low = vv & -vv
            vv ^= low
            nu = row[low.bit_length() - 1]
            envelope.add(nu * n + v)
            for cn, bit, _ in code._bit_slots[nu]:
                h = cn + v
                retired[h] |= bit
                dirty.add(h)
        cc, base, cn = mask >> dc, n * n + c * code.m, c * n
        while cc:
            low = cc & -cc
            cc ^= low
            zeta = col[low.bit_length() - 1]
            envelope.add(base + zeta)
            for w, bit, _ in code._check_slots[zeta]:
                h = cn + w
                retired[h] |= bit
                dirty.add(h)

    def _mark_fresh(self, g: int, fresh: int) -> None:
        """Make the checks of generator g's grid cells ``fresh`` suspicious and
        mark their cell in every generator whose grid holds them.

        Check (nu, zeta) lies in the grid of generator (c', v') for each
        bit slot (c', row bit) of nu and check slot (v', column bit) of zeta,
        in the cell row bit * column bit."""
        code, rmask, dirty = self.code, self.rmask, self.dirty
        n, m, dv = code.n, code.m, code.delta_v
        c, v = divmod(g, n)
        row, col = code.base.adj_c[c], code.base.adj_v[v]
        bit_slots, check_slots = code._bit_slots, code._check_slots
        suspicious = self.suspicious_set
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            i, j = divmod(low.bit_length() - 1, dv)
            nu, zeta = row[i], col[j]
            suspicious.add(nu * m + zeta)
            cols = check_slots[zeta]
            for cn, _, rowbit in bit_slots[nu]:
                for w, _, colbit in cols:
                    h = cn + w
                    rmask[h] |= rowbit * colbit
                    dirty.add(h)

    # -- scoring --

    def _rescore(self) -> list[int]:
        """Refresh the best candidate of each dirty generator that can have
        one, and empty the dirty set.  One pass forms each state, reads the
        memo and writes every hit into the mode's store; the misses are then
        scored in one batch and written the same way.  Returns the generators
        refreshed, ascending."""
        gens = sorted(self.dirty)
        self.dirty.clear()
        refreshed, missed = self._refresh(gens, self.memo.entries)
        if missed:
            width, rmask, retired = self.tables.width, self.rmask, self.retired
            states = [rmask[g] << width | retired[g] for g in missed]
            self._refresh(missed, self.memo._score(states))
        return refreshed

    def _refresh(self, gens: list[int], best: dict[int, int]) -> tuple[list[int], list[int]]:
        """Write each generator's best candidate, read from ``best`` by its
        state, into the mode's store; a lazy decode first drops generators
        with fewer than min_need suspicious cells.  Returns the generators
        kept and those whose state ``best`` lacks."""
        rmask, retired, width = self.rmask, self.retired, self.tables.width
        missed = []
        if self.mode == "eager":
            keys, positions = self.best_key, self.best_pos
            for g in gens:
                b = best.get(rmask[g] << width | retired[g])
                if b is None:
                    missed.append(g)
                else:
                    keys[g] = b >> 32
                    positions[g] = b & _POS_BITS
            return gens, missed
        need, qualifiers, kept = self.min_need, self.qualifiers, []
        for g in gens:
            r = rmask[g]
            if r.bit_count() < need:
                continue
            kept.append(g)
            b = best.get(r << width | retired[g])
            if b is None:
                missed.append(g)
            elif b == _NO_BEST:
                qualifiers.pop(g, None)
            else:
                qualifiers[g] = b
        return kept, missed

    def _select(self) -> tuple[int, int] | None:
        """(generator, table position) of the lowest-scoring qualifier; ties
        go to the lowest generator."""
        if self.mode == "eager":
            g = int(self._key_view.argmin())
            if self.best_key[g] == _NO_KEY:
                return None
            return g, self.best_pos[g]
        if not self.qualifiers:
            return None
        _, g = min((b >> 32, g) for g, b in self.qualifiers.items())
        return g, self.qualifiers[g] & _POS_BITS

    # -- main loop --

    def run(self) -> SsfindResult:
        code, t, trace = self.code, self.tables, self.trace
        envelope, suspicious = self.envelope_set, self.suspicious_set
        rescored_log: list[tuple[int, ...]] | None = (
            [] if self.config.record_rescored else None
        )
        while True:
            scored = self._rescore()
            if rescored_log is not None:
                rescored_log.append(tuple(scored))
            picked = self._select()
            if picked is None:
                break
            # A pick is alive, so it shares no qubit with the envelope and
            # adds at least one: a correct search stops within num_qubits picks.
            if len(trace) >= code.num_qubits:
                raise SsfindIterationError(
                    f"{code.num_qubits} picks made with qualifying candidates "
                    "remaining (every pick should add at least one qubit)",
                    tuple(trace),
                )
            g, p = picked
            mask = t.masks[p]
            rmask = self.rmask[g]
            num = (t.py_uq[p] & ~rmask & t.gridfull).bit_count()
            self._retire(g, mask)
            # rmask[g] holds exactly the cells of g whose check is suspicious,
            # so these are the covered checks that turn suspicious now.
            fresh = t.py_cov[p] & ~rmask
            if fresh:
                self._mark_fresh(g, fresh)
            trace.append(
                TraceEntry(
                    len(trace) + 1, g, mask, num, t.py_den[p],
                    len(envelope), len(suspicious),
                )
            )
        if self.config.verify_exit:
            self._verify_exit()
        return SsfindResult(
            envelope=QubitSet.from_indices(code, envelope),
            suspicious=CheckSet.from_indices(code, suspicious),
            trace=tuple(trace),
            iterations=len(trace),
            mode=self.mode,
            state=self,
            rescored=tuple(rescored_log) if rescored_log is not None else None,
        )

    def _verify_exit(self) -> None:
        """From-scratch exit audit: rebuild suspicious cells from R and
        retired view bits from the envelope, and confirm no alive candidate
        qualifies.  Unseeded generators (lazy mode) are untouched and cannot
        qualify by the mode precondition, which is checked here against
        min_untouched, independently of min_need; nor can they hold an
        envelope qubit, whose checks all lie in their grid."""
        if self.mode == "lazy":
            if not 2 * self.config.epsilon < self.tables.min_untouched:
                raise AssertionError("lazy mode ran although untouched sets qualify")
            if not self.retired.keys() <= self.rmask.keys():
                raise AssertionError("retired view bits recorded for an unseeded generator")
        code, envelope = self.code, self.envelope_set
        for g in self.seeded_gens():
            rebuilt = 0
            for cell, chk in enumerate(code.gen_checks(g)):
                if chk in self.suspicious_set:
                    rebuilt |= 1 << cell
            if rebuilt != self.rmask[g]:
                raise AssertionError(
                    f"incremental suspicious-cell mask diverged for generator {g}"
                )
            rebuilt = 0
            for bit, q in enumerate(code.gen_qubits(g)):
                if q in envelope:
                    rebuilt |= 1 << bit
            if rebuilt != self.retired[g]:
                raise AssertionError(f"retired view bits diverged for generator {g}")
            qualifying = self._qualifying(g)
            if qualifying:
                raise AssertionError(
                    f"candidate (generator {g}, mask {qualifying[0]:#x}) still "
                    "qualifies at exit"
                )


def ssfind(code: HgpCode, sigma: CheckSet, config: DecoderConfig) -> SsfindResult:
    """Run the envelope finder on a syndrome; deterministic for fixed inputs."""
    return SsfindState(code, sigma, config).run()
