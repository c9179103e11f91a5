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
entire mutable score state, and candidate selection is an argmin over
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
at most 0 and nothing is skipped.

Scoring thresholds, tie-breaking (lowest score, then generator index, then
mask) and retirement (candidates sharing a qubit with the envelope never
return) are deterministic, so a decode is replayable from (code, syndrome,
config) alone.
"""

from __future__ import annotations

import bisect
import functools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .hgp import CheckSet, HgpCode, QubitSet, qnbhd_unique
from .reduction import Candidate, check_view_width, enumerate_minsets, locally_reduced_masks, mask_to_qubitset, part_sizes

__all__ = [
    "DecoderConfig",
    "SsfindIterationError",
    "SsfindResult",
    "SsfindState",
    "TraceEntry",
    "TraceParseError",
    "candidate_seeding",
    "min_untouched_score",
    "score",
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
    max_iterations: int | None = None
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
    """Iteration cap hit while qualifying candidates remain (diagnostic)."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    generator: int
    mask: int
    score_num: int
    score_den: int
    envelope_size: int
    suspicious_size: int


class TraceParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def trace_to_text(trace: Iterable[TraceEntry]) -> str:
    lines = [
        f"{t.iteration} {t.generator} {t.mask} {t.score_num} {t.score_den} "
        f"{t.envelope_size} {t.suspicious_size}"
        for t in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_text(text: str) -> tuple[TraceEntry, ...]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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

    A score num/den has num <= delta_v*delta_c and den one of a few values, so
    every possible score is sorted once into ``scores``.  ``ranks[den_off[p] +
    num]`` is the index in ``scores`` of the score num/den[p]: equal fractions
    share a rank, and ranks order exactly as the fractions do.  The unique-cell
    masks are split into 64-bit words, low word first, for ``np.bitwise_count``.

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
        self.pos_of_mask = {m: p for p, m in enumerate(masks)}
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
        self.scores = sorted({Fraction(k, d) for d in dens for k in nums})
        rank = {v: r for r, v in enumerate(self.scores)}
        self.ranks = np.array(
            [rank[Fraction(k, d)] for d in dens for k in nums], dtype=np.int32
        )
        offset = {d: i * len(nums) for i, d in enumerate(dens)}
        self.den_off = np.array([offset[d] for d in den], dtype=np.int32)
        # int32 holds every mask: a view of 32 or more qubits would have over
        # 2^31 masks to tabulate.
        self.np_masks = np.array(masks, dtype=np.int32)
        self.words = -(-self.grid_bits // 64)
        self.np_uq = self.split_words(uq)
        self._memos: dict[int, _BestMemo] = {}

    def split_words(self, grids: list[int]) -> list[np.ndarray]:
        """One uint64 array per 64-bit word of the grid masks, low word first."""
        if self.words == 1:
            return [np.array(grids, dtype=np.uint64)]
        return [
            np.array([x >> (64 * w) & _WORD for x in grids], dtype=np.uint64)
            for w in range(self.words)
        ]

    def best_memo(self, twoeps: Fraction) -> _BestMemo:
        """The best-candidate memo for threshold twoeps, shared by every decode
        of every code with this degree pair and the same cutoff rank."""
        cutoff = bisect.bisect_right(self.scores, twoeps) - 1
        if cutoff not in self._memos:
            self._memos[cutoff] = _BestMemo(self, cutoff)
        return self._memos[cutoff]

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

    def lookup(self, states: list[int]) -> list[int]:
        """Packed best candidate of each state; states missing from the memo
        are scored together, once each."""
        best = list(map(self.entries.get, states))
        if None in best:
            fresh = self._score({s for s, b in zip(states, best) if b is None})
            best = [fresh[s] if b is None else b for s, b in zip(states, best)]
        return best

    def _score(self, states: set[int]) -> dict[int, int]:
        """Every candidate of every state ranked in one numpy pass per chunk;
        argmin keeps the first minimum, so ties go to the lowest position."""
        t = self.tables
        order = sorted(states)
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


# --- public slow-path score (set machinery only; the engine's oracle) ---


def score(code: HgpCode, candidate: Candidate, suspicious: CheckSet) -> Fraction:
    """|unique checks outside the suspicious set| / (delta * weighted norm)."""
    subset = mask_to_qubitset(code, candidate.generator, candidate.mask)
    uniq = qnbhd_unique(code, subset)
    num = sum(1 for chk in uniq.members if chk not in suspicious.members)
    den = candidate.a_v * code.delta_v + candidate.a_c * code.delta_c
    return Fraction(num, den)


def candidate_seeding(code: HgpCode, sigma: CheckSet) -> dict[int, list[Candidate]]:
    """Initial catalog: every candidate of every generator whose check grid
    meets the syndrome.  Lazy decoding extends this as checks turn suspicious."""
    gens: set[int] = set()
    for chk in sigma.to_indices(code):
        gens.update(g for g, _ in code.check_gens(chk))
    return {g: list(enumerate_minsets(code, g)) for g in sorted(gens)}


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


@dataclass
class SsfindState:
    """Mutable decode state plus inspection helpers for the cached scores.

    ``rmask[g]`` (suspicious grid cells) and ``retired[g]`` (view bits of
    envelope qubits) read 0 for a generator the decode never touched.  A
    lazy decode keeps them in maps holding only touched generators, so its
    cost follows the syndrome.  An eager decode seeds every generator, and
    keeps them in lists, whose updates cost about half as much.  A generator
    is seeded once one of its grid's checks is suspicious, or from the
    start in eager mode."""

    code: HgpCode
    config: DecoderConfig
    mode: str
    sigma: frozenset[int]
    envelope_set: set[int] = field(default_factory=set)
    suspicious_set: set[int] = field(default_factory=set)
    retired: dict[int, int] | list[int] = field(default_factory=_ZeroDefault)
    rmask: dict[int, int] | list[int] = field(default_factory=_ZeroDefault)
    trace: list[TraceEntry] = field(default_factory=list)

    def _tables(self) -> _ViewTables:
        return _view_tables(self.code.delta_v, self.code.delta_c)

    def seeded_gens(self) -> Iterable[int]:
        """The seeded generators, ascending."""
        if self.mode == "eager":
            return range(self.code.num_gens)
        return sorted(self.rmask)

    @property
    def seeded(self) -> Sequence[bool]:
        members = range(self.code.num_gens) if self.mode == "eager" else self.rmask
        return _SeededView(members, self.code.num_gens)

    def alive_masks(self, g: int) -> list[int]:
        retired = self.retired[g]
        return [m for m in self._tables().masks if not (m & retired)]

    def cached_score(self, g: int, mask: int) -> Fraction:
        """Score from the incrementally maintained suspicious-cell mask."""
        t = self._tables()
        p = t.pos_of_mask[mask]
        num = (t.py_uq[p] & ~self.rmask[g] & t.gridfull).bit_count()
        return Fraction(num, t.py_den[p])

    def _split(self, g: int) -> tuple[list[int], list[int]]:
        """Alive masks of generator g at or below 2*epsilon, and above it.

        Scores num/den compare with 2*epsilon = p/q as num*q <= p*den, exactly."""
        t = self._tables()
        twoeps = 2 * self.config.epsilon
        p, q = twoeps.numerator, twoeps.denominator
        not_r = ~self.rmask[g] & t.gridfull
        retired = self.retired[g]
        low, high = [], []
        for uq, den, mask in zip(t.py_uq, t.py_den, t.masks):
            if not mask & retired:
                (low if (uq & not_r).bit_count() * q <= p * den else high).append(mask)
        return low, high

    def buckets(self) -> dict[str, list[tuple[int, int]]]:
        """Alive candidates split at the qualification threshold 2*epsilon."""
        low, high = [], []
        for g in self.seeded_gens():
            at_or_below, above = self._split(g)
            low += [(g, m) for m in at_or_below]
            high += [(g, m) for m in above]
        return {"at_or_below": low, "above": high}


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


class _Engine:
    def __init__(self, code: HgpCode, sigma: CheckSet, config: DecoderConfig):
        check_view_width(code.delta_v + code.delta_c)
        self.code = code
        self.config = config
        self.tables = _view_tables(code.delta_v, code.delta_c)
        twoeps = 2 * config.epsilon
        self.mode = "eager" if twoeps >= self.tables.min_untouched else "lazy"
        self.memo = self.tables.best_memo(twoeps)
        # A generator with fewer suspicious cells has no qualifying candidate.
        self.min_need = self.tables.min_need(twoeps)
        g_count = code.num_gens
        sigma_idx = sigma.to_indices(code)
        eager = self.mode == "eager"
        self.state = SsfindState(
            code=code,
            config=config,
            mode=self.mode,
            sigma=frozenset(sigma_idx),
            suspicious_set=set(sigma_idx),
            retired=[0] * g_count if eager else _ZeroDefault(),
            rmask=[0] * g_count if eager else _ZeroDefault(),
        )
        self.dirty: set[int] = set(range(g_count)) if eager else set()
        self.best_key = np.full(g_count, _NO_KEY, dtype=np.int32)
        # Read only where best_key holds a key, which _rescore writes with it.
        self.best_pos = np.empty(g_count, dtype=np.intp)
        self._mark_suspicious_cells(sigma_idx)

    # -- bookkeeping --

    def _mark_suspicious_cells(self, chks: Iterable[int]) -> None:
        rmask = self.state.rmask
        dirty, check_gens = self.dirty, self.code.check_gens
        for chk in chks:
            for g, cellbit in check_gens(chk):
                rmask[g] |= cellbit
                dirty.add(g)

    def _retire(self, qubits: Iterable[int]) -> None:
        # A qubit's checks all lie in the grid of every generator holding it,
        # so a generator unseeded here is seeded by this pick's fresh checks.
        retired = self.state.retired
        dirty, qubit_gens = self.dirty, self.code.qubit_gens
        for q in qubits:
            for g, posbit in qubit_gens(q):
                retired[g] |= posbit
                dirty.add(g)

    # -- scoring --

    def _rescore(self, dirty: set[int]) -> list[int]:
        """Best qualifying candidate of each dirty generator that can have one,
        looked up by its local state.  Returns the generators refreshed,
        ascending."""
        rmask, retired = self.state.rmask, self.state.retired
        need = self.min_need
        if need > 0:
            gens = sorted(g for g in dirty if rmask[g].bit_count() >= need)
        else:
            gens = sorted(dirty)
        width = self.tables.width
        states = [rmask[g] << width | retired[g] for g in gens]
        # Scalar writes: a batch is a few generators (median 3 in eager
        # mode), where each numpy array call costs more than the loop.
        best_key, best_pos = self.best_key, self.best_pos
        for g, b in zip(gens, self.memo.lookup(states)):
            best_key[g] = b >> 32
            best_pos[g] = b & _POS_BITS
        return gens

    def _select(self) -> tuple[int, int] | None:
        """(generator, table position) of the lowest-scoring qualifier; ties go
        to the lowest generator."""
        g = int(self.best_key.argmin())
        if self.best_key[g] == _NO_KEY:
            return None
        return g, int(self.best_pos[g])

    # -- main loop --

    def run(self) -> SsfindResult:
        st = self.state
        t = self.tables
        max_iter = (
            self.config.max_iterations
            if self.config.max_iterations is not None
            else self.code.num_qubits
        )
        rescored_log: list[tuple[int, ...]] | None = (
            [] if self.config.record_rescored else None
        )
        iterations = 0
        while True:
            scored = self._rescore(self.dirty)
            self.dirty.clear()
            if rescored_log is not None:
                rescored_log.append(tuple(scored))
            picked = self._select()
            if picked is None:
                break
            if iterations >= max_iter:
                raise SsfindIterationError(
                    f"iteration cap {max_iter} reached with qualifying candidates "
                    "remaining (every iteration should add at least one qubit)",
                    tuple(st.trace),
                )
            g, p = picked
            mask = t.masks[p]
            rmask = st.rmask[g]
            num = (t.py_uq[p] & ~rmask & t.gridfull).bit_count()
            qubits = self.code.gen_qubits(g, mask)
            st.envelope_set.update(qubits)
            self._retire(qubits)
            # rmask[g] holds exactly the cells of g whose check is suspicious,
            # so these are the covered checks that turn suspicious now.
            fresh = t.py_cov[p] & ~rmask
            if fresh:
                grid = self.code.gen_checks(g)
                chks = []
                while fresh:
                    low = fresh & -fresh
                    chks.append(grid[low.bit_length() - 1])
                    fresh ^= low
                st.suspicious_set.update(chks)
                self._mark_suspicious_cells(chks)
            iterations += 1
            # Positional fields: keywords cost a frozen dataclass about 1 µs more.
            st.trace.append(
                TraceEntry(
                    iterations, g, mask, num, t.py_den[p],
                    len(st.envelope_set), len(st.suspicious_set),
                )
            )
        if self.config.verify_exit:
            self._verify_exit()
        return SsfindResult(
            envelope=QubitSet.from_indices(self.code, sorted(st.envelope_set)),
            suspicious=CheckSet.from_indices(self.code, sorted(st.suspicious_set)),
            trace=tuple(st.trace),
            iterations=iterations,
            mode=self.mode,
            state=st,
            rescored=tuple(rescored_log) if rescored_log is not None else None,
        )

    def _verify_exit(self) -> None:
        """From-scratch exit audit: rebuild suspicious cells from R and confirm
        no alive candidate qualifies.  Unseeded generators (lazy mode) are
        untouched and cannot qualify by the mode precondition."""
        st = self.state
        t = self.tables
        twoeps = 2 * self.config.epsilon
        if self.mode == "lazy" and not twoeps < t.min_untouched:
            raise AssertionError("lazy mode ran although untouched sets qualify")
        for g in st.seeded_gens():
            rebuilt = 0
            for cell, chk in enumerate(self.code.gen_checks(g)):
                if chk in st.suspicious_set:
                    rebuilt |= 1 << cell
            if rebuilt != st.rmask[g]:
                raise AssertionError(
                    f"incremental suspicious-cell mask diverged for generator {g}"
                )
            qualifying = st._split(g)[0]
            if qualifying:
                raise AssertionError(
                    f"candidate (generator {g}, mask {qualifying[0]:#x}) still "
                    "qualifies at exit"
                )


def ssfind(code: HgpCode, sigma: CheckSet, config: DecoderConfig) -> SsfindResult:
    """Run the envelope finder on a syndrome; deterministic for fixed inputs."""
    return _Engine(code, sigma, config).run()
