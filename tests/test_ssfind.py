"""Small-set scoring engine: selection, retirement, laziness, invariants."""

import copy
import hashlib
import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

from hgpdecode.graphs import BipartiteGraph, gen_biregular
from hgpdecode.hgp import CheckSet, HgpCode, QubitSet, build_hgp, syndrome
from hgpdecode.reduction import reduce_error
from hgpdecode.ssfind import (
    _NO_BEST,
    _NO_KEY,
    DecoderConfig,
    SsfindIterationError,
    SsfindState,
    TraceEntry,
    ViewWidthError,
    min_untouched_score,
    ssfind,
    trace_to_text,
    _view_tables,
)

from oracles import (
    Candidate,
    alive_masks,
    brute_best,
    cached_scores,
    candidate_seeding,
    check_gens,
    check_pairs,
    checks_of,
    enumerate_minsets,
    exit_audit,
    mask_to_qubitset,
    part_sizes,
    qnbhd,
    qubit_gens,
    qubits_of,
    retired,
    rmask,
    score,
    score_ranks,
    supp_generator,
    table_best,
    unique_cells,
)


def suspicious_checks(res) -> CheckSet:
    """A finished search's suspicious checks, σ ∪ Γ(envelope), from its state."""
    code = res.state.code
    return CheckSet(code.n, code.m, frozenset(res.state.suspicious_set))


@pytest.fixture(scope="module")
def mid_code():
    return build_hgp(gen_biregular(12, 3, 6, seed=5))


@pytest.fixture(scope="module")
def path_code(path_graph):
    return build_hgp(path_graph)


def lazy_config(eps="1/20", **kw):
    eps = Fraction(eps)
    if eps >= Fraction(1, 10):
        with pytest.warns(UserWarning):
            return DecoderConfig(epsilon=eps, **kw)
    return DecoderConfig(epsilon=eps, **kw)


def eager_config(**kw):
    with pytest.warns(UserWarning):
        return DecoderConfig(epsilon=Fraction(5, 9), **kw)


def test_decoder_config_validation():
    cfg = DecoderConfig(epsilon=Fraction(1, 20))
    assert cfg.epsilon == Fraction(1, 20)
    assert DecoderConfig(epsilon=0).epsilon == Fraction(0)
    with pytest.raises(TypeError):
        DecoderConfig(epsilon=0.05)
    with pytest.raises(ValueError):
        DecoderConfig(epsilon=Fraction(-1, 10))
    with pytest.warns(UserWarning, match="1/10"):
        DecoderConfig(epsilon=Fraction(1, 10))
    with pytest.warns(UserWarning):
        DecoderConfig(epsilon=Fraction(5, 9))


def test_epsilon_warning_names_the_caller():
    """The warning points at the line that built the config, not at the
    dataclass-generated ``__init__``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DecoderConfig(epsilon=Fraction(1, 5))
    assert [w.filename for w in caught] == [__file__]


def test_min_untouched_score():
    # (3, 6): minimized by the (2, 2) subset: 1 - 2*4/18 = 5/9.
    assert min_untouched_score(3, 6) == Fraction(5, 9)
    # Single-edge views only have singletons, which score 1 untouched.
    assert min_untouched_score(1, 1) == 1


def test_min_untouched_score_refuses_a_view_past_the_cap():
    """The cap guards the view tables wherever they are built: a 21-qubit
    view raises, on every call, as it does in a decode."""
    assert min_untouched_score(10, 10) == Fraction(1, 2)
    for _ in range(2):
        with pytest.raises(ViewWidthError, match="21 qubits, above the cap 20"):
            min_untouched_score(10, 11)


@pytest.mark.parametrize(
    "degrees", [(3, 6), (4, 4), (2, 5), (8, 9)], ids=lambda d: f"{d[0]}-{d[1]}"
)
def test_view_tables_match_per_cell_definition(degrees):
    """A mask's cells from the grid rows of its VV part and the grid columns
    of its CC part are the per-cell definition's: their XOR the unique cells,
    where exactly one of VV bit i and CC bit j is in the mask, as
    ``unique_cells`` also gives them, and their OR the covered cells, where
    at least one is.  ``sizes`` are the catalog's part sizes and weights,
    and ``min_untouched`` is the lowest unique-cell score over every mask."""
    dv, dc = degrees
    t = _view_tables(dv, dc)
    lowest, sizes = None, set()
    for mask, uq, den in unique_cells(dv, dc):
        per_cell = cov = 0
        for i in range(dc):
            a = mask >> i & 1
            for j in range(dv):
                b = mask >> (dc + j) & 1
                per_cell |= (a ^ b) << (i * dv + j)
                cov |= (a | b) << (i * dv + j)
        row, col = t.rows[mask & ((1 << dc) - 1)], t.cols[mask >> dc]
        assert (row ^ col, row | col) == (uq, cov) == (per_cell, cov)
        sizes.add((*part_sizes(mask, dc), den))
        untouched = Fraction(uq.bit_count(), den)
        lowest = untouched if lowest is None else min(lowest, untouched)
    assert sorted(t.sizes) == sorted(sizes)
    assert t.min_untouched == lowest


@pytest.mark.parametrize(
    "degrees",
    [(1, 1), (1, 2), (2, 2), (2, 5), (3, 3), (3, 6), (3, 7), (4, 4), (4, 8), (8, 9), (6, 12)],
    ids=lambda d: f"{d[0]}-{d[1]}",
)
def test_score_ranks_match_fraction_oracle(degrees, monkeypatch):
    """The integer scores num*(scale/den) sort as the Fractions num/den do,
    and for every part size of the catalog's masks a memo's key list holds
    each num's Fraction score rank up to its cutoff and _NO_KEY above it,
    at a middle cutoff and at one that admits every score."""
    dv, dc = degrees
    t = _view_tables(dv, dc)
    monkeypatch.setattr(t, "_memos", {})
    scores, rank = score_ranks(dv, dc)
    assert [Fraction(x, t.scale) for x in t.scores] == scores
    sizes = {(*part_sizes(mask, dc), den) for mask, _, den in unique_cells(dv, dc)}
    for twoeps in (scores[len(scores) // 2], scores[-1]):
        memo, _ = t.at_epsilon(twoeps / 2)
        for a, b, den in sizes:
            want = [rank[k, den] for k in range(t.grid_bits + 1)]
            assert memo.keys[b][a] == [r if scores[r] <= twoeps else _NO_KEY for r in want], den
        assert memo.keys[0][0] == [_NO_KEY] * (t.grid_bits + 1)


def test_score_examples(mid_code):
    cand = Candidate.build(mid_code, 7, 0b011_000011)
    covered = qnbhd(mid_code, mask_to_qubitset(mid_code, 7, cand.mask))
    assert score(mid_code, cand, covered) == 0
    single_vv = Candidate.build(mid_code, 7, 1)
    assert score(mid_code, single_vv, checks_of(mid_code)) == 1


def test_score_balanced_pair_unique_equals_syndrome():
    # In a (4, 4) local view a 2+2 subset's unique checks are exactly its
    # syndrome (every double incidence is even), so the score vanishes there.
    code = build_hgp(gen_biregular(4, 4, 4, seed=0))
    cand = Candidate.build(code, 0, 0b0011_0011)
    subset = mask_to_qubitset(code, 0, cand.mask)
    assert score(code, cand, syndrome(code, subset)) == 0


def test_ssfind_empty_syndrome(mid_code):
    res = ssfind(mid_code, checks_of(mid_code), lazy_config())
    exit_audit(res.state)
    assert res.envelope == qubits_of(mid_code)
    assert res.trace == ()
    assert res.mode == "lazy"
    # A full generator support is syndrome-free, so it finds nothing either.
    e = supp_generator(mid_code, 13)
    res = ssfind(mid_code, syndrome(mid_code, e), lazy_config())
    assert res.envelope == qubits_of(mid_code)


def test_ssfind_single_qubit_lazy_covers():
    code = build_hgp(gen_biregular(60, 3, 6, seed=1))
    e = qubits_of(code, [(7, 31)])
    sig = syndrome(code, e)
    res = ssfind(code, sig, lazy_config())
    exit_audit(res.state)
    assert res.mode == "lazy"
    assert e <= res.envelope
    assert res.envelope.weight < code.num_qubits // 10
    assert res.iterations == len(res.trace) <= res.envelope.weight
    assert check_pairs(suspicious_checks(res)) == check_pairs(sig) | check_pairs(qnbhd(code, res.envelope))


def test_ssfind_eager_explosion(mid_code):
    # With 2*eps at or above every untouched score, qualification never stops
    # until every candidate is retired: the envelope is the full qubit set.
    e = qubits_of(mid_code, [(3, 4)])
    res = ssfind(mid_code, syndrome(mid_code, e), eager_config())
    exit_audit(res.state)
    assert res.mode == "eager"
    assert res.envelope.weight == mid_code.num_qubits
    assert len(res.state.suspicious_set) == mid_code.num_checks
    assert res.iterations <= mid_code.num_qubits


def _without_retirement(words, width):
    """A copy of a state's word store with retirement switched off: every
    write keeps the suspicious cells and drops the retired view bits."""
    keep = -1 << width

    class Unretiring(type(words)):
        def __setitem__(self, g, word):
            super().__setitem__(g, word & keep)

    return Unretiring(words)


def test_ssfind_iteration_cap(mid_code):
    """The cap can fire for the fault it names: with retirement switched off
    a pick stays alive and is taken again without adding a qubit, so the
    search runs into the cap after exactly num_qubits picks."""
    sig = syndrome(mid_code, qubits_of(mid_code, [(3, 4)]))
    for cfg, mode in ((lazy_config(), "lazy"), (eager_config(), "eager")):
        st = SsfindState(mid_code, sig, cfg)
        assert st.mode == mode
        assert ssfind(mid_code, sig, cfg).iterations < mid_code.num_qubits
        st.words = _without_retirement(st.words, st.tables.width)
        with pytest.raises(SsfindIterationError) as exc:
            st.run()
        assert len(exc.value.trace) == mid_code.num_qubits
        assert len({(t.generator, t.mask) for t in exc.value.trace}) < mid_code.num_qubits


def test_verify_exit_audits_retired(mid_code):
    """The exit audit ``exit_audit`` rebuilds every seeded generator's retired
    view bits from the envelope: one flipped bit of ``retired`` after a run
    makes it raise and name ``retired``, whether the flip retires a qubit
    outside the envelope or revives one inside it, and so does a retired bit
    on a generator a lazy decode never seeded."""
    rng = random.Random(37)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
    sig = syndrome(mid_code, e)
    for cfg in (lazy_config(), eager_config()):
        st = SsfindState(mid_code, sig, cfg)
        assert st.run().trace
        exit_audit(st)
        gone = {g: retired(st, g) for g, on in enumerate(st.seeded) if on}
        g = min(g for g, bits in gone.items() if bits)
        flips = [(g, gone[g] & -gone[g])]
        if st.mode == "lazy":
            full = (1 << st.tables.width) - 1
            g = min(g for g, bits in gone.items() if bits != full)
            free = full & ~gone[g]
            flips.append((g, free & -free))
            flips.append((min(set(range(mid_code.num_gens)) - set(gone)), 1))
        for g, bit in flips:
            saved = copy.copy(st.words)
            st.words[g] = st._word(g) ^ bit
            with pytest.raises(AssertionError, match="retired"):
                exit_audit(st)
            st.words = saved
        exit_audit(st)


def test_exit_audit_fails_on_an_unrun_search(mid_code):
    """Before ``run()`` a state's cells and retired bits are consistent (the
    syndrome's cells, nothing retired), but the candidates its first pick
    would take still qualify, so the audit raises on the qualifying step.
    At epsilon = 0 those score exactly 2*epsilon, so equality must count as
    qualifying.  After the run it passes, and it raises again on one flipped
    suspicious cell, and on an eager state read as lazy, whose untouched
    candidates qualify."""
    e = QubitSet.from_indices(mid_code, [5])
    sig = syndrome(mid_code, e)
    for cfg in (lazy_config("0"), eager_config()):
        st = SsfindState(mid_code, sig, cfg)
        with pytest.raises(AssertionError, match="qualifies"):
            exit_audit(st)
        st.run()
        exit_audit(st)
        g = st.trace[0].generator
        saved = copy.copy(st.words)
        st.words[g] ^= 1 << st.tables.width
        with pytest.raises(AssertionError, match="suspicious-cell"):
            exit_audit(st)
        st.words = saved
    st.mode = "lazy"
    with pytest.raises(AssertionError, match="untouched"):
        exit_audit(st)


def test_pick_walk_builds_no_incidence_lists(mid_code, monkeypatch):
    """A decode walks the code's slot tables itself: with the per-qubit and
    per-check incidence methods ``qubit_checks`` and ``check_qubits`` made to
    raise, lazy and eager decodes complete with the traces they have without
    the patch.  Trace entries are immutable."""
    rng = random.Random(41)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 3))
    sig = syndrome(mid_code, e)
    cfgs = (lazy_config("1/6"), eager_config())
    want = [ssfind(mid_code, sig, cfg).trace for cfg in cfgs]
    assert all(want)

    def refuse(self, index):
        raise AssertionError("per-qubit or per-check list built during a decode")

    monkeypatch.setattr(HgpCode, "qubit_checks", refuse)
    monkeypatch.setattr(HgpCode, "check_qubits", refuse)
    with pytest.raises(AssertionError):
        mid_code.check_qubits(0)
    assert [ssfind(mid_code, sig, cfg).trace for cfg in cfgs] == want
    with pytest.raises(AttributeError):
        want[0][0].generator = 0


def test_ssfind_degree_cap():
    # Complete bipartite 11 x 10: a 21-qubit local view, one above the cap.
    wide = build_hgp(BipartiteGraph(10, [range(10)] * 11))
    for _ in range(2):
        with pytest.raises(ViewWidthError):
            ssfind(wide, checks_of(wide), lazy_config())


def test_candidate_seeding(path_code, mid_code):
    assert candidate_seeding(path_code, checks_of(path_code)) == {}
    e = qubits_of(path_code, [(0, 0)])
    sig = syndrome(path_code, e)
    seeded = candidate_seeding(path_code, sig)
    expected = {
        g
        for g in range(path_code.num_gens)
        if check_pairs(qnbhd(path_code, supp_generator(path_code, g))) & check_pairs(sig)
    }
    assert set(seeded) == expected
    for g, cands in seeded.items():
        assert cands == list(enumerate_minsets(path_code, g))
    rng = random.Random(4)
    sig = CheckSet.from_indices(mid_code, rng.sample(range(mid_code.num_checks), 10))
    assert len(candidate_seeding(mid_code, sig)) <= mid_code.num_gens


def test_determinism(mid_code):
    rng = random.Random(8)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 3))
    sig = syndrome(mid_code, e)
    for cfg in (lazy_config("1/6"), eager_config()):
        first = ssfind(mid_code, sig, cfg)
        second = ssfind(mid_code, sig, cfg)
        assert first.trace == second.trace
        assert first.envelope == second.envelope


def test_mode_threshold(mid_code):
    sig = syndrome(mid_code, qubits_of(mid_code, [(0, 0)]))
    with pytest.warns(UserWarning):
        boundary = DecoderConfig(epsilon=Fraction(5, 18))  # 2*eps == 5/9
    assert ssfind(mid_code, sig, boundary).mode == "eager"
    with pytest.warns(UserWarning):
        below = DecoderConfig(epsilon=Fraction(277, 1000))  # 2*eps < 5/9
    assert ssfind(mid_code, sig, below).mode == "lazy"


def test_cached_scores_match_slow_route(mid_code):
    rng = random.Random(15)
    for cfg in (lazy_config("1/6"), eager_config()):
        e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
        res = ssfind(mid_code, syndrome(mid_code, e), cfg)
        state = res.state
        # Nothing alive still qualifies at exit.
        exit_audit(state)
        seeded_gens = [g for g, on in enumerate(state.seeded) if on]
        for g in rng.sample(seeded_gens, min(8, len(seeded_gens))):
            masks = alive_masks(state, g)
            for mask, cached in zip(masks, cached_scores(state, g, masks)):
                cand = Candidate.build(mid_code, g, mask)
                assert cached == score(mid_code, cand, suspicious_checks(res))


def test_state_reads_per_generator(mid_code):
    # seeded holds one flag per generator, and a word read through the
    # rmask/retired oracles gives one generator's grid's suspicious cells,
    # untouched generators as 0;
    # reading enters nothing into the state's words.  At 1/20 some generators
    # stay untouched; at 1/6 a pick enters one whose grid holds no syndrome
    # check.
    rng = random.Random(19)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
    sig = syndrome(mid_code, e)
    marked = marked_by_checks(mid_code, sig.to_indices(mid_code))
    partial = entered = 0
    for cfg in (lazy_config("1/20"), lazy_config("1/6"), eager_config()):
        res = ssfind(mid_code, sig, cfg)
        st = res.state
        size = len(st.words)
        suspicious = check_pairs(suspicious_checks(res))
        touched = {
            g
            for g in range(mid_code.num_gens)
            if check_pairs(qnbhd(mid_code, supp_generator(mid_code, g))) & suspicious
        }
        everything = set(range(mid_code.num_gens))
        expected = everything if res.mode == "eager" else touched
        seeded = st.seeded
        assert {g for g, on in enumerate(seeded) if on} == expected
        assert sum(seeded) == len(expected)
        assert len(seeded) == mid_code.num_gens
        if res.mode == "lazy":
            partial += touched < everything
            entered += bool(st.words.keys() - marked.keys())
        cells = marked_by_checks(mid_code, res.state.suspicious_set)
        gens = range(mid_code.num_gens)
        assert [rmask(st, g) for g in gens] == [cells.get(g, 0) for g in gens]
        for g in everything - touched:
            assert retired(st, g) == 0
        assert len(st.words) == size
    assert partial and entered


def replay(code, sigma, res, twoeps):
    """Re-derive every per-iteration quantity via the set machinery."""
    env = qubits_of(code)
    reach = set(check_pairs(sigma))
    gamma = set()
    dv, dc = code.delta_v, code.delta_c
    norm_scaled = 0  # delta * ||L|| accumulated exactly as dv*|L_V| + dc*|L_C|
    for t in res.trace:
        chosen = mask_to_qubitset(code, t.generator, t.mask)
        assert env.indices.isdisjoint(chosen.indices)
        before = checks_of(code, reach)
        cand = Candidate.build(code, t.generator, t.mask)
        assert score(code, cand, before) == Fraction(t.score_num, t.score_den)
        assert Fraction(t.score_num, t.score_den) <= twoeps
        env = env | chosen
        covered = check_pairs(qnbhd(code, chosen))
        gamma |= covered
        reach |= covered
        assert t.envelope_size == env.weight
        assert t.suspicious_size == len(reach)
        norm_scaled += dv * len(chosen.vv_part) + dc * len(chosen.cc_part)
        assert len(gamma) <= len(sigma) + (Fraction(1, 4) + twoeps) * norm_scaled
    assert env == res.envelope
    assert reach == check_pairs(suspicious_checks(res))


def test_trace_replay_invariants(mid_code):
    rng = random.Random(23)
    for cfg in (lazy_config("1/6"), eager_config()):
        for _ in range(3):
            e = QubitSet.from_indices(
                mid_code, rng.sample(range(mid_code.num_qubits), rng.randint(1, 3))
            )
            sig = syndrome(mid_code, e)
            res = ssfind(mid_code, sig, cfg)
            replay(mid_code, sig, res, 2 * cfg.epsilon)


def brute_min_need(delta_v, delta_c, twoeps):
    """Fewest suspicious unique cells a mask needs to score <= twoeps, over
    every locally reduced mask: |uq| - floor(twoeps * den)."""
    return min(
        uq.bit_count() - math.floor(twoeps * den) for _, uq, den in unique_cells(delta_v, delta_c)
    )


@pytest.mark.parametrize(
    "degrees", [(3, 6), (4, 4), (2, 5), (8, 9)], ids=lambda d: f"{d[0]}-{d[1]}"
)
def test_min_need_matches_brute_force(degrees):
    dv, dc = degrees
    t = _view_tables(dv, dc)
    floor = t.min_untouched
    # Lazy: 2*eps below every untouched score, so a candidate needs at least
    # one suspicious cell.  Eager: at the boundary and far above it.
    for twoeps in (Fraction(1, 10), Fraction(1, 3) * floor, floor, Fraction(10, 9)):
        need = t.min_need(twoeps)
        assert need == brute_min_need(dv, dc, twoeps), twoeps
        assert (need > 0) == (twoeps < floor)
    if degrees == (3, 6):
        assert t.min_need(Fraction(1, 10)) == 3
        assert t.min_need(Fraction(10, 9)) == -10


def test_rescore_scope(mid_code):
    """Each rescore batch is exactly the generators whose state can have
    changed.  Lazy: the seeded generators that reach min_need, then those a
    pick touched that reach it.  Eager: every generator, then exactly those
    a pick touched, with no min_need cut."""
    rng = random.Random(31)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 3))
    sig = syndrome(mid_code, e)
    grid = {
        g: check_pairs(qnbhd(mid_code, supp_generator(mid_code, g)))
        for g in range(mid_code.num_gens)
    }
    catalog = set(candidate_seeding(mid_code, sig))
    for cfg in (lazy_config("1/6", record_rescored=True), eager_config(record_rescored=True)):
        res = ssfind(mid_code, sig, cfg)
        assert res.rescored is not None
        assert len(res.rescored) == res.iterations + 1
        eager = res.mode == "eager"
        need = brute_min_need(3, 6, 2 * cfg.epsilon)
        assert (need <= 0) == eager

        def reaching(gens, suspicious):
            return {g for g in gens if len(grid[g] & suspicious) >= need}

        if eager:
            assert list(res.rescored[0]) == list(range(mid_code.num_gens))
        else:
            # The seeded catalog's generators with at least min_need
            # suspicious cells, and the cut leaves some out.
            assert set(res.rescored[0]) == reaching(catalog, check_pairs(sig))
            assert reaching(catalog, check_pairs(sig)) < catalog
        # Later batches: the generators the pick touched, through a retired
        # qubit or a freshly suspicious check.
        suspicious = set(check_pairs(sig))
        for k, entry in enumerate(res.trace):
            chosen = mask_to_qubitset(mid_code, entry.generator, entry.mask)
            fresh = check_pairs(qnbhd(mid_code, chosen)) - suspicious
            suspicious |= fresh
            touched = {
                g
                for g in range(mid_code.num_gens)
                if grid[g] & fresh or not supp_generator(mid_code, g).indices.isdisjoint(chosen.indices)
            }
            want = touched if eager else reaching(touched, suspicious)
            assert list(res.rescored[k + 1]) == sorted(want)


@pytest.mark.parametrize(
    "degrees, n, graph_seed, eps, weight, exit_gens, tie, same_as, at_need",
    [
        # 2*eps = 1/3 = 3/9 is a reachable score: picks at the threshold.
        pytest.param((3, 6), 12, 5, "1/6", 2, None, True, None, False, id="3-6-tie"),
        # 2*eps sits below every positive score, so the decode is eps = 0's.
        pytest.param(
            (3, 6), 12, 5, "1/2199023255552", 2, None, False, "0", False, id="3-6-eps-2^-41"
        ),
        # 2*eps = 1/4 = 2/8 is a reachable score.
        pytest.param((4, 4), 8, 0, "1/8", 2, None, True, None, False, id="4-4-tie"),
        # A 64-cell grid fills one word; 72 cells need two.
        pytest.param((8, 8), 16, 1, "1/20", 1, 3, False, None, False, id="8-8-one-word"),
        pytest.param((8, 9), 18, 1, "1/20", 1, 3, False, None, False, id="8-9-two-words"),
        # One VV qubit flips its 3 checks: the 3 generators holding it have
        # exactly min_need = 3 suspicious cells, and that qubit alone scores 0.
        pytest.param((3, 6), 60, 1, "1/20", 1, None, False, None, True, id="3-6-at-min-need"),
    ],
)
def test_engine_matches_exact_oracle(
    degrees, n, graph_seed, eps, weight, exit_gens, tie, same_as, at_need
):
    """The rank-keyed engine agrees with the exhaustive Fraction scorer."""
    code = build_hgp(gen_biregular(n, *degrees, seed=graph_seed))
    rng = random.Random(44)
    e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), weight))
    sig = syndrome(code, e)
    cfg = lazy_config(eps)
    twoeps = 2 * cfg.epsilon
    res = ssfind(code, sig, cfg)
    replay(code, sig, res, twoeps)
    if at_need:
        # Some seeded generator has exactly as many suspicious cells as the
        # cheapest candidate needs, and the decode absorbs one of them.
        need = brute_min_need(*degrees, twoeps)
        floor_gens = {
            g
            for g in candidate_seeding(code, sig)
            if len(check_pairs(qnbhd(code, supp_generator(code, g))) & check_pairs(sig)) == need
        }
        assert floor_gens and res.trace and res.trace[0].generator in floor_gens
    state = res.state
    seeded = [g for g, on in enumerate(state.seeded) if on]
    for g in rng.sample(seeded, min(3, len(seeded))):
        alive = alive_masks(state, g)
        masks = rng.sample(alive, min(40, len(alive)))
        for mask, cached in zip(masks, cached_scores(state, g, masks)):
            cand = Candidate.build(code, g, mask)
            assert cached == score(code, cand, suspicious_checks(res))
    # At exit nothing alive may still qualify.  A wide view has tens of
    # thousands of masks per generator, so there only a few are swept.
    if exit_gens is None:
        exit_audit(state)
    else:
        for g in rng.sample(seeded, exit_gens):
            assert all(s > twoeps for s in cached_scores(state, g, alive_masks(state, g)))
    if tie:
        assert any(Fraction(t.score_num, t.score_den) == twoeps for t in res.trace)
    if same_as is not None:
        twin = ssfind(code, sig, DecoderConfig(epsilon=Fraction(same_as)))
        assert res.trace == twin.trace
        assert res.envelope == twin.envelope


def marked_by_checks(code, chks):
    """Oracle for syndrome seeding: each check's cells marked one
    (generator, cell) pair at a time through ``check_gens``."""
    rmask = {}
    for chk in chks:
        for g, cellbit in check_gens(code, chk):
            rmask[g] = rmask.get(g, 0) | cellbit
    return rmask


class _BatchOnlyMemo:
    """Stands in for the best-candidate memo: holds no state, so a rescore
    misses on every generator, records each batch of missed states sent to
    be scored and reports that none qualifies, so no view is scored."""

    def __init__(self):
        self.entries = {}
        self.batches = []

    def _score(self, states):
        self.batches.append(list(states))
        return dict.fromkeys(states, _NO_BEST)


@pytest.mark.parametrize(
    "degrees, n, graph_seed",
    [((3, 6), 12, 5), ((4, 4), 8, 0), ((2, 5), 20, 1), ((8, 9), 18, 1)],
    ids=lambda v: f"{v[0]}-{v[1]}" if isinstance(v, tuple) else None,
)
def test_syndrome_seeding_matches_per_check_marking(degrees, n, graph_seed):
    """The one-pass numpy seeding leaves the state the per-check marking
    leaves, in lazy and eager mode: the same rmask, the same seeded set and
    the same first rescore batch, on the empty syndrome, error syndromes and
    random check sets.  A lazy state holds words only for the generators
    that reach min_need.  At (8, 9) a grid has 72 cells, two 64-bit words."""
    code = build_hgp(gen_biregular(n, *degrees, seed=graph_seed))
    t = _view_tables(*degrees)
    width, gens = t.width, range(code.num_gens)
    rng = random.Random(73)
    sigmas = [checks_of(code)]
    for w in (1, 2, 4):
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), w))
        sigmas.append(syndrome(code, e))
    for k in (1, 5, code.num_checks // 3):
        sigmas.append(CheckSet.from_indices(code, rng.sample(range(code.num_checks), k)))
    high_cells = cut = kept = 0
    configs = (lazy_config(record_rescored=True), "lazy"), (eager_config(record_rescored=True), "eager")
    for cfg, mode in configs:
        for sig in sigmas:
            st = SsfindState(code, sig, cfg)
            assert st.mode == mode
            want = marked_by_checks(code, sig.to_indices(code))
            high_cells += any(r >> 64 for r in want.values())
            assert [rmask(st, g) for g in gens] == [want.get(g, 0) for g in gens]
            assert not any(retired(st, g) for g in gens)
            if st.mode == "lazy":
                assert {g for g, on in enumerate(st.seeded) if on} == set(want)
                candidates = want
            else:
                assert all(st.seeded)
                candidates = gens
            first = sorted(
                g for g in candidates if want.get(g, 0).bit_count() >= st.min_need
            )
            if st.mode == "lazy":
                cut += len(first) < len(want)
                kept += bool(first)
                assert list(st.words) == first
            st.memo = _BatchOnlyMemo()
            res = st.run()
            assert res.rescored == (tuple(first),) and res.trace == ()
            # The memo is empty, so every refreshed generator's state is sent
            # to be scored, in generator order, in one batch.
            states = [want.get(g, 0) << width for g in first]
            assert st.memo.batches == ([states] if states else [])
    # The lazy min_need cut both drops and keeps generators, and a two-word
    # grid has suspicious cells in its high word.
    assert cut and kept
    assert high_cells or t.grid_bits <= 64


def test_lazy_state_holds_only_generators_that_can_qualify_or_were_touched():
    """Cost of a lazy decode on lazy-n240's code (N = 72 000, eps = 1/20):
    its state holds a word exactly for the generators whose syndrome cells
    reach min_need and those a pick touches, through a picked qubit in their
    view or a freshly suspicious check in their grid, counted here through
    ``qubit_gens``/``check_gens``.  That is a small part of the generators
    the syndrome seeds.  The seeded count, which perfbench reports as
    ``seeded_gens``, is exactly the held generators and those with a
    syndrome cell."""
    code = build_hgp(gen_biregular(240, 3, 6, seed=7))
    cfg = DecoderConfig(epsilon=Fraction(1, 20))
    rng = random.Random(83)
    held = seeded = picks = 0
    for k in range(40):
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), 2 + 2 * (k % 5)))
        sig = syndrome(code, reduce_error(code, e))
        res = ssfind(code, sig, cfg)
        st = res.state
        cells = marked_by_checks(code, sig.to_indices(code))
        want = {g for g, r in cells.items() if r.bit_count() >= st.min_need}
        suspicious = set(sig.to_indices(code))
        for entry in res.trace:
            chosen = code.gen_qubits(entry.generator, entry.mask)
            want.update(g for q in chosen for g, _ in qubit_gens(code, q))
            covered = {x for q in chosen for x in code.qubit_checks(q)}
            want.update(g for x in covered - suspicious for g, _ in check_gens(code, x))
            suspicious |= covered
        assert set(st.words) == want
        count = sum(st.seeded)
        assert count == len(want | cells.keys())
        held += len(want)
        seeded += count
        picks += res.iterations
    assert picks and 4 * held < seeded


def test_trace_text_format():
    trace = (
        TraceEntry(1, 17, 35, 3, 9, 3, 12),
        TraceEntry(2, 4, 260, 0, 12, 7, 18),
    )
    assert trace_to_text(trace) == "1 17 35 3 9 3 12\n2 4 260 0 12 7 18\n"
    assert trace_to_text(()) == ""


# (degrees, n, graph seed, epsilon, decodes, largest error weight): sha256 over
# every decode's mode, iteration count, trace text and envelope, in order.
# Pinned from the per-generator numpy rescoring that preceded the
# best-candidate memo; any change to a pick, tie-break or retirement moves them.
PINNED_DIGESTS = [
    ((3, 6), 12, 5, "0", 20, 4, "62cc4f138fcc486bef297e8e4b19b78dd626b4a48962d0436e181c496bc0e466"),
    ((3, 6), 12, 5, "1/20", 20, 4, "d66b95c213d4623d1fc3d436ae0066bff76d192179f894e1dfb36403b992ff50"),
    ((3, 6), 12, 5, "1/6", 20, 4, "b2dabd5ab24cede1f964e17bc1904a40034d8c7b2bf54a724aa5d75e635082a6"),
    ((3, 6), 12, 5, "5/18", 8, 3, "305bffc9ebf859fcc1483d96c8e6a48abcea69d7627d652eea935e3a750189b4"),
    ((3, 6), 12, 5, "5/9", 8, 3, "2ee84e29fba402b8896c8ba3215e49481a586e63ab267663407a1ffca2f01bc8"),
    ((4, 4), 8, 0, "1/8", 16, 3, "07e61df7ccd9504063845605846d03df224e7ea1df71cff3e13dab753f9359fe"),
    ((4, 4), 8, 0, "1/4", 6, 3, "f6e2e635b4c498d3626cc267b6c7c5b0a05558d7f4692dbad7bfa3fabac5a3a1"),
    ((2, 5), 20, 1, "1/4", 16, 4, "acd27be9068a7380f84ddab1e14fe4b953901778d565d66dae655a6dac48bc02"),
    ((4, 8), 16, 1, "1/20", 8, 3, "b4dcd46c257ab21fded3014f2c31db2e50a00b35408549805e756affb596f2b4"),
    ((3, 6), 60, 1, "1/20", 20, 6, "4c6f3fd2ed4f7fa53f21093c1d464da9eb08c29c9074a1a5198e500e16f0ba78"),
    ((3, 6), 60, 1, "5/9", 2, 3, "34e08ccdee656d918e5d97cb1109c9958ee4bf6a61d232d14edef4154dd40252"),
]


def decode_digest(degrees, n, graph_seed, eps, decodes, max_weight, seed):
    """Hash of ``decodes`` random-error decodes; the rng is seeded with an int,
    since ``hash()`` of a str differs between processes."""
    code = build_hgp(gen_biregular(n, *degrees, seed=graph_seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = DecoderConfig(epsilon=Fraction(eps))
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(decodes):
        w = rng.randint(1, max_weight)
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), w))
        res = ssfind(code, syndrome(code, e), cfg)
        if n < 60:
            exit_audit(res.state)
        env = sorted(res.envelope.to_indices(code))
        h.update(f"{res.mode} {res.iterations}\n{trace_to_text(res.trace)}{env}\n".encode())
    return h.hexdigest()


def test_trace_digests_pinned():
    """Traces and envelopes are byte-identical to the pinned ones, lazy and
    eager, on (3,6) at five epsilons and on (4,4), (2,5) and (4,8)."""
    got = {
        config[:4]: decode_digest(*config[:6], seed=i)
        for i, config in enumerate(PINNED_DIGESTS)
    }
    assert got == {config[:4]: config[6] for config in PINNED_DIGESTS}


@pytest.mark.parametrize(
    "degrees",
    [
        (3, 6),
        (4, 4),
        (2, 5),
        (4, 8),
        # A candidate is one qubit: a CC part may fill half the view.
        (1, 2),
        # delta_v > delta_c: more CC subsets than grid rows.
        (5, 3),
        # Two-word grids, 72 cells each.
        (8, 9),
        (6, 12),
    ],
    ids=lambda d: f"{d[0]}-{d[1]}",
)
def test_best_candidate_memo_matches_exact_oracle(degrees, monkeypatch):
    """Every memo entry of the separable search is the best candidate of the
    Fraction brute force, or of the numpy table scorer where the catalog is
    too large for the Fraction loop, at a lazy and at an eager cutoff, over
    the same states: the same score and the same mask, ties included.
    Where both oracles run, they agree."""
    dv, dc = degrees
    t = _view_tables(dv, dc)
    monkeypatch.setattr(t, "_memos", {})
    width, full = dv + dc, (1 << dv + dc) - 1
    rng = random.Random(61)
    # Untouched and fully retired states, then random ones: every rmask bit
    # set with probability 1/2 or 3/4, every retired bit with 1/8.
    states = [(0, 0), (0, full), (t.gridfull, full), (t.gridfull, 0)]
    for _ in range(40):
        dense = rng.choice((1, 2))
        rmask = sum(
            1 << c for c in range(t.grid_bits) if rng.getrandbits(2) < 2 * dense
        )
        retired = sum(1 << b for b in range(width) if rng.getrandbits(3) == 0)
        states.append((rmask, retired))
    cells = unique_cells(dv, dc)
    brute = len(cells) < 10_000
    ties = 0
    for twoeps in (Fraction(1, 10), t.min_untouched):
        memo, _ = t.at_epsilon(twoeps / 2)
        packed = [r << width | x for r, x in states]
        fresh = memo._score(packed)
        found = [fresh[s] for s in packed]
        assert len(memo.entries) == len(set(states))
        tables = table_best(dv, dc, twoeps, packed)
        qualified = 0
        for (rmask, retired), best, table in zip(states, found, tables):
            key, mask = best >> 64, best & 0xFFFFFFFF
            got = None if key == _NO_KEY else (Fraction(t.scores[key], t.scale), mask)
            scored = table and table[:2]
            want = brute_best(cells, twoeps, rmask, retired) if brute else scored
            assert got == want == scored, (twoeps, rmask, retired)
            if want is not None:
                qualified += 1
                ties += table[2] > 1
        assert 0 < qualified < len(states)
        # The fully retired states never qualify.
        assert found[1] >> 64 == found[2] >> 64 == _NO_KEY
    assert len(t._memos) == 2
    # The untouched state at the eager cutoff ties between several masks,
    # and so do random states.
    assert ties > 1


class _WatchedEntries(dict):
    """A memo's entries that remember their largest size and count clears."""

    peak = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def test_memo_cold_warm_and_overflow_give_identical_decodes(monkeypatch):
    """The same lazy and eager decodes from a cleared memo, from one warmed by
    unrelated decodes, and with a cap small enough to overflow mid-decode."""
    code = build_hgp(gen_biregular(12, 3, 6, seed=5))
    other = build_hgp(gen_biregular(18, 3, 6, seed=2))
    t = _view_tables(3, 6)
    rng = random.Random(67)
    runs = []
    for cfg in (lazy_config("1/6"), eager_config()):
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), 3))
        sig = syndrome(code, e)
        unrelated = [
            syndrome(other, QubitSet.from_indices(other, rng.sample(range(other.num_qubits), 3)))
            for _ in range(3)
        ]
        runs.append((cfg, sig, unrelated))

    def decode_all():
        return [
            (res.mode, trace_to_text(res.trace), res.envelope)
            for res in (ssfind(code, sig, cfg) for cfg, sig, _ in runs)
        ]

    monkeypatch.setattr(t, "_memos", {})
    cold = decode_all()
    assert {mode for mode, _, _ in cold} == {"lazy", "eager"}
    for cfg, _, unrelated in runs:
        for sig in unrelated:
            ssfind(other, sig, cfg)
    assert decode_all() == cold
    cap = 16
    monkeypatch.setattr(sys.modules["hgpdecode.ssfind"], "_MEMO_CAP", cap)
    monkeypatch.setattr(t, "_memos", {})
    for cfg, _, _ in runs:
        t.at_epsilon(cfg.epsilon)[0].entries = _WatchedEntries()
    assert decode_all() == cold
    for cfg, _, _ in runs:
        entries = t.at_epsilon(cfg.epsilon)[0].entries
        assert entries.clears >= 2 and entries.peak == cap
