"""Small-set scoring engine: selection, retirement, laziness, invariants."""

import hashlib
import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

from hgpdecode.graphs import BipartiteGraph, gen_biregular
from hgpdecode.hgp import CheckSet, HgpCode, QubitSet, build_hgp, syndrome
from hgpdecode.reduction import ReductionConfigError, locally_reduced_masks, part_sizes
from hgpdecode.ssfind import (
    _NO_BEST,
    _NO_KEY,
    DecoderConfig,
    SsfindIterationError,
    SsfindState,
    TraceEntry,
    TraceParseError,
    min_untouched_score,
    ssfind,
    trace_from_text,
    trace_to_text,
    _view_tables,
)

from oracles import (
    Candidate,
    alive_masks,
    cached_score,
    candidate_seeding,
    enumerate_minsets,
    mask_positions,
    mask_to_qubitset,
    qnbhd,
    score,
    supp_generator,
)


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


def test_min_untouched_score():
    # (3, 6): minimized by the (2, 2) subset: 1 - 2*4/18 = 5/9.
    assert min_untouched_score(3, 6) == Fraction(5, 9)
    # Single-edge views only have singletons, which score 1 untouched.
    assert min_untouched_score(1, 1) == 1


@pytest.mark.parametrize(
    "degrees", [(3, 6), (4, 4), (2, 5), (8, 9)], ids=lambda d: f"{d[0]}-{d[1]}"
)
def test_view_tables_match_per_cell_definition(degrees):
    """Cell (i, j) is unique when exactly one of VV bit i and CC bit j is in
    the mask, covered when at least one is; ``min_untouched`` is the lowest
    unique-cell score over every mask."""
    dv, dc = degrees
    t = _view_tables(dv, dc)
    lowest = None
    for p, mask in enumerate(t.masks):
        uq = cov = 0
        for i in range(dc):
            a = mask >> i & 1
            for j in range(dv):
                b = mask >> (dc + j) & 1
                uq |= (a ^ b) << (i * dv + j)
                cov |= (a | b) << (i * dv + j)
        assert (t.py_uq[p], t.py_cov[p]) == (uq, cov)
        a_v, a_c = part_sizes(mask, dc)
        untouched = Fraction(uq.bit_count(), a_v * dv + a_c * dc)
        lowest = untouched if lowest is None else min(lowest, untouched)
    assert t.min_untouched == lowest


def test_score_examples(mid_code):
    cand = Candidate.build(mid_code, 7, 0b011_000011)
    covered = qnbhd(mid_code, mask_to_qubitset(mid_code, 7, cand.mask))
    assert score(mid_code, cand, covered) == 0
    single_vv = Candidate.build(mid_code, 7, 1)
    assert score(mid_code, single_vv, CheckSet.of(mid_code)) == 1


def test_score_balanced_pair_unique_equals_syndrome():
    # In a (4, 4) local view a 2+2 subset's unique checks are exactly its
    # syndrome (every double incidence is even), so the score vanishes there.
    code = build_hgp(gen_biregular(4, 4, 4, seed=0))
    cand = Candidate.build(code, 0, 0b0011_0011)
    subset = mask_to_qubitset(code, 0, cand.mask)
    assert score(code, cand, syndrome(code, subset)) == 0


def test_ssfind_empty_syndrome(mid_code):
    res = ssfind(mid_code, CheckSet.of(mid_code), lazy_config(verify_exit=True))
    assert res.envelope == QubitSet.of(mid_code)
    assert res.trace == ()
    assert res.mode == "lazy"
    # A full generator support is syndrome-free, so it finds nothing either.
    e = supp_generator(mid_code, 13)
    res = ssfind(mid_code, syndrome(mid_code, e), lazy_config())
    assert res.envelope == QubitSet.of(mid_code)


def test_ssfind_single_qubit_lazy_covers():
    code = build_hgp(gen_biregular(60, 3, 6, seed=1))
    e = QubitSet.of(code, [(7, 31)])
    sig = syndrome(code, e)
    res = ssfind(code, sig, lazy_config(verify_exit=True))
    assert res.mode == "lazy"
    assert e <= res.envelope
    assert res.envelope.weight < code.num_qubits // 10
    assert res.iterations == len(res.trace) <= res.envelope.weight
    assert res.suspicious.members == sig.members | qnbhd(code, res.envelope).members


def test_ssfind_eager_explosion(mid_code):
    # With 2*eps at or above every untouched score, qualification never stops
    # until every candidate is retired: the envelope is the full qubit set.
    e = QubitSet.of(mid_code, [(3, 4)])
    res = ssfind(mid_code, syndrome(mid_code, e), eager_config(verify_exit=True))
    assert res.mode == "eager"
    assert res.envelope.weight == mid_code.num_qubits
    assert len(res.suspicious) == mid_code.num_checks
    assert res.iterations <= mid_code.num_qubits


def test_ssfind_iteration_cap(mid_code, monkeypatch):
    """The cap can fire for the fault it names: with retirement switched off
    a pick stays alive and is taken again without adding a qubit, so the
    search runs into the cap after exactly num_qubits picks."""
    monkeypatch.setattr(SsfindState, "_retire", lambda self, g, mask: None)
    sig = syndrome(mid_code, QubitSet.of(mid_code, [(3, 4)]))
    for cfg, mode in ((lazy_config(), "lazy"), (eager_config(), "eager")):
        assert SsfindState(mid_code, sig, cfg).mode == mode
        with pytest.raises(SsfindIterationError) as exc:
            ssfind(mid_code, sig, cfg)
        assert len(exc.value.trace) == mid_code.num_qubits
        assert len({(t.generator, t.mask) for t in exc.value.trace}) < mid_code.num_qubits


def test_verify_exit_audits_retired(mid_code):
    """The exit audit rebuilds every seeded generator's retired view bits from
    the envelope: one flipped bit of ``retired`` after a run makes it raise
    and name ``retired``, whether the flip retires a qubit outside the
    envelope or revives one inside it, and so does a retired bit on a
    generator a lazy decode never seeded."""
    rng = random.Random(37)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
    sig = syndrome(mid_code, e)
    for cfg in (lazy_config(), eager_config()):
        st = SsfindState(mid_code, sig, cfg)
        assert st.run().trace
        st._verify_exit()
        retired = {g: st.retired[g] for g in st.seeded_gens()}
        g = min(g for g, bits in retired.items() if bits)
        flips = [(g, retired[g] & -retired[g])]
        if st.mode == "lazy":
            full = (1 << st.tables.width) - 1
            g = min(g for g, bits in retired.items() if bits != full)
            free = full & ~retired[g]
            flips.append((g, free & -free))
            flips.append((min(set(range(mid_code.num_gens)) - set(retired)), 1))
        for g, bit in flips:
            st.retired[g] ^= bit
            with pytest.raises(AssertionError, match="retired"):
                st._verify_exit()
            st.retired[g] ^= bit
            if st.mode == "lazy" and not st.retired[g]:
                del st.retired[g]
        st._verify_exit()


def test_pick_walk_builds_no_incidence_lists(mid_code, monkeypatch):
    """A decode walks the code's slot tables itself: with ``qubit_gens`` and
    ``check_gens`` made to raise, lazy and eager decodes complete with the
    traces they have without the patch.  Trace entries are immutable."""
    rng = random.Random(41)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 3))
    sig = syndrome(mid_code, e)
    cfgs = (lazy_config("1/6"), eager_config())
    want = [ssfind(mid_code, sig, cfg).trace for cfg in cfgs]
    assert all(want)

    def refuse(self, index):
        raise AssertionError("per-qubit or per-check list built during a decode")

    monkeypatch.setattr(HgpCode, "qubit_gens", refuse)
    monkeypatch.setattr(HgpCode, "check_gens", refuse)
    with pytest.raises(AssertionError):
        mid_code.check_gens(0)
    assert [ssfind(mid_code, sig, cfg).trace for cfg in cfgs] == want
    with pytest.raises(AttributeError):
        want[0][0].generator = 0


def test_ssfind_degree_cap():
    # Complete bipartite 11 x 10: a 21-qubit local view, one above the cap.
    wide = build_hgp(BipartiteGraph.from_left_adjacency(10, [range(10)] * 11))
    with pytest.raises(ReductionConfigError):
        ssfind(wide, CheckSet.of(wide), lazy_config())


def test_candidate_seeding(path_code, mid_code):
    assert candidate_seeding(path_code, CheckSet.of(path_code)) == {}
    e = QubitSet.of(path_code, [(0, 0)])
    sig = syndrome(path_code, e)
    seeded = candidate_seeding(path_code, sig)
    expected = {
        g
        for g in range(path_code.num_gens)
        if qnbhd(path_code, supp_generator(path_code, g)).members & sig.members
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
    sig = syndrome(mid_code, QubitSet.of(mid_code, [(0, 0)]))
    with pytest.warns(UserWarning):
        boundary = DecoderConfig(epsilon=Fraction(5, 18))  # 2*eps == 5/9
    assert ssfind(mid_code, sig, boundary).mode == "eager"
    with pytest.warns(UserWarning):
        below = DecoderConfig(epsilon=Fraction(277, 1000))  # 2*eps < 5/9
    assert ssfind(mid_code, sig, below).mode == "lazy"


def test_cached_scores_match_slow_route(mid_code):
    rng = random.Random(15)
    # verify_exit audits that nothing alive still qualifies at exit.
    for cfg in (lazy_config("1/6", verify_exit=True), eager_config(verify_exit=True)):
        e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
        res = ssfind(mid_code, syndrome(mid_code, e), cfg)
        state = res.state
        seeded_gens = [g for g in range(mid_code.num_gens) if state.seeded[g]]
        for g in rng.sample(seeded_gens, min(8, len(seeded_gens))):
            for mask in alive_masks(state, g):
                cand = Candidate.build(mid_code, g, mask)
                assert cached_score(state, g, mask) == score(mid_code, cand, res.suspicious)


def test_state_reads_per_generator(mid_code):
    # seeded/rmask/retired read per generator index like lists of length
    # num_gens, untouched generators as False/0, and reading adds nothing.
    rng = random.Random(19)
    e = QubitSet.from_indices(mid_code, rng.sample(range(mid_code.num_qubits), 2))
    sig = syndrome(mid_code, e)
    for cfg in (lazy_config("1/20"), eager_config()):
        res = ssfind(mid_code, sig, cfg)
        st = res.state
        sizes = len(st.rmask), len(st.retired)
        suspicious = res.suspicious.members
        touched = {
            g
            for g in range(mid_code.num_gens)
            if qnbhd(mid_code, supp_generator(mid_code, g)).members & suspicious
        }
        everything = set(range(mid_code.num_gens))
        expected = everything if res.mode == "eager" else touched
        assert {g for g in everything if st.seeded[g]} == expected
        assert sum(st.seeded) == len(expected)
        assert len(st.seeded) == mid_code.num_gens
        if res.mode == "lazy":
            assert touched < everything
        for g in everything - touched:
            assert st.rmask[g] == 0 and st.retired[g] == 0
        assert (len(st.rmask), len(st.retired)) == sizes


def replay(code, sigma, res, twoeps):
    """Re-derive every per-iteration quantity via the set machinery."""
    env = QubitSet.of(code)
    reach = set(sigma.members)
    gamma = set()
    dv, dc = code.delta_v, code.delta_c
    norm_scaled = 0  # delta * ||L|| accumulated exactly as dv*|L_V| + dc*|L_C|
    for t in res.trace:
        chosen = mask_to_qubitset(code, t.generator, t.mask)
        assert env.isdisjoint(chosen)
        before = CheckSet.of(code, reach)
        cand = Candidate.build(code, t.generator, t.mask)
        assert score(code, cand, before) == Fraction(t.score_num, t.score_den)
        assert Fraction(t.score_num, t.score_den) <= twoeps
        env = env | chosen
        covered = qnbhd(code, chosen).members
        gamma |= covered
        reach |= covered
        assert t.envelope_size == env.weight
        assert t.suspicious_size == len(reach)
        norm_scaled += dv * len(chosen.vv_part) + dc * len(chosen.cc_part)
        assert len(gamma) <= len(sigma.members) + (Fraction(1, 4) + twoeps) * norm_scaled
    assert env == res.envelope
    assert reach == res.suspicious.members


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
    t = _view_tables(delta_v, delta_c)
    out = None
    for mask in locally_reduced_masks(delta_v, delta_c):
        a_v, a_c = part_sizes(mask, delta_c)
        den = a_v * delta_v + a_c * delta_c
        need = t.py_uq[mask_positions(t)[mask]].bit_count() - math.floor(twoeps * den)
        out = need if out is None else min(out, need)
    return out


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
        g: qnbhd(mid_code, supp_generator(mid_code, g)).members
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
            assert set(res.rescored[0]) == reaching(catalog, sig.members)
            assert reaching(catalog, sig.members) < catalog
        # Later batches: the generators the pick touched, through a retired
        # qubit or a freshly suspicious check.
        suspicious = set(sig.members)
        for k, entry in enumerate(res.trace):
            chosen = mask_to_qubitset(mid_code, entry.generator, entry.mask)
            fresh = qnbhd(mid_code, chosen).members - suspicious
            suspicious |= fresh
            touched = {
                g
                for g in range(mid_code.num_gens)
                if grid[g] & fresh or not supp_generator(mid_code, g).isdisjoint(chosen)
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
            if len(qnbhd(code, supp_generator(code, g)).members & sig.members) == need
        }
        assert floor_gens and res.trace and res.trace[0].generator in floor_gens
    state = res.state
    seeded = [g for g in range(code.num_gens) if state.seeded[g]]
    for g in rng.sample(seeded, min(3, len(seeded))):
        alive = alive_masks(state, g)
        for mask in rng.sample(alive, min(40, len(alive))):
            cand = Candidate.build(code, g, mask)
            assert cached_score(state, g, mask) == score(code, cand, res.suspicious)
    # At exit nothing alive may still qualify.  A wide view has tens of
    # thousands of masks per generator, so there only a few are swept.
    if exit_gens is None:
        state._verify_exit()
    else:
        for g in rng.sample(seeded, exit_gens):
            assert all(cached_score(state, g, m) > twoeps for m in alive_masks(state, g))
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
        for g, cellbit in code.check_gens(chk):
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
    random check sets.  At (8, 9) a grid has 72 cells, two 64-bit words."""
    code = build_hgp(gen_biregular(n, *degrees, seed=graph_seed))
    t = _view_tables(*degrees)
    width, gens = t.width, range(code.num_gens)
    rng = random.Random(73)
    sigmas = [CheckSet.of(code)]
    for w in (1, 2, 4):
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), w))
        sigmas.append(syndrome(code, e))
    for k in (1, 5, code.num_checks // 3):
        sigmas.append(CheckSet.from_indices(code, rng.sample(range(code.num_checks), k)))
    high_cells = cut = kept = 0
    for cfg, mode in ((lazy_config(), "lazy"), (eager_config(), "eager")):
        for sig in sigmas:
            st = SsfindState(code, sig, cfg)
            assert st.mode == mode
            want = marked_by_checks(code, sig.to_indices(code))
            high_cells += any(r >> 64 for r in want.values())
            if st.mode == "lazy":
                assert dict(st.rmask) == want
                assert {g for g in gens if st.seeded[g]} == set(want)
                candidates = want
            else:
                assert st.rmask == [want.get(g, 0) for g in gens]
                assert all(st.seeded)
                candidates = gens
            first = sorted(
                g for g in candidates if want.get(g, 0).bit_count() >= st.min_need
            )
            if st.mode == "lazy":
                cut += len(first) < len(want)
                kept += bool(first)
            st.memo = _BatchOnlyMemo()
            assert st._rescore() == first
            # The memo is empty, so every refreshed generator's state is sent
            # to be scored, in generator order, in one batch.
            states = [want.get(g, 0) << width for g in first]
            assert st.memo.batches == ([states] if states else [])
            assert not st.dirty
    # The lazy min_need cut both drops and keeps generators, and a two-word
    # grid has suspicious cells in its high word.
    assert cut and kept
    assert high_cells or t.grid_bits <= 64


def test_trace_text_roundtrip():
    trace = (
        TraceEntry(1, 17, 35, 3, 9, 3, 12),
        TraceEntry(2, 4, 260, 0, 12, 7, 18),
    )
    text = trace_to_text(trace)
    assert text == "1 17 35 3 9 3 12\n2 4 260 0 12 7 18\n"
    assert trace_from_text(text) == trace
    assert trace_from_text("") == ()
    assert trace_from_text("# header\n1 2 3 4 5 6 7\n") == (
        TraceEntry(1, 2, 3, 4, 5, 6, 7),
    )
    with pytest.raises(TraceParseError, match="line 1"):
        trace_from_text("1 2 3\n")
    with pytest.raises(TraceParseError, match="line 2"):
        trace_from_text("1 2 3 4 5 6 7\n1 2 x 4 5 6 7\n")


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
        cfg = DecoderConfig(epsilon=Fraction(eps), verify_exit=n < 60)
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(decodes):
        w = rng.randint(1, max_weight)
        e = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), w))
        res = ssfind(code, syndrome(code, e), cfg)
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


def unique_cells(delta_v, delta_c):
    """(mask, unique grid cells, weight) of every locally reduced mask, in
    table order, from the per-cell definition."""
    out = []
    for mask in locally_reduced_masks(delta_v, delta_c):
        uq = 0
        for i in range(delta_c):
            for j in range(delta_v):
                if (mask >> i & 1) != (mask >> (delta_c + j) & 1):
                    uq |= 1 << (i * delta_v + j)
        a_v, a_c = part_sizes(mask, delta_c)
        out.append((mask, uq, a_v * delta_v + a_c * delta_c))
    return out


def brute_best(cells, twoeps, rmask, retired):
    """(score, position) of the lowest-scoring alive mask at or below twoeps,
    lowest position on ties, in Fractions; None when nothing qualifies."""
    best = None
    for pos, (mask, uq, den) in enumerate(cells):
        if mask & retired:
            continue
        s = Fraction((uq & ~rmask).bit_count(), den)
        if s <= twoeps and (best is None or s < best[0]):
            best = (s, pos)
    return best


@pytest.mark.parametrize(
    "degrees", [(3, 6), (4, 4), (2, 5), (4, 8)], ids=lambda d: f"{d[0]}-{d[1]}"
)
def test_best_candidate_memo_matches_exact_oracle(degrees, monkeypatch):
    """Every memo entry is the Fraction brute force's best candidate, at a lazy
    and at an eager cutoff, over the same states."""
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
    ties = 0
    for twoeps in (Fraction(1, 10), t.min_untouched):
        memo = t.best_memo(twoeps)
        packed = [r << width | x for r, x in states]
        fresh = memo._score(packed)
        found = [fresh[s] for s in packed]
        assert len(memo.entries) == len(set(states))
        qualified = 0
        for (rmask, retired), best in zip(states, found):
            key, pos = best >> 32, best & 0xFFFFFFFF
            got = None if key == _NO_KEY else (t.scores[key], pos)
            want = brute_best(cells, twoeps, rmask, retired)
            assert got == want, (twoeps, rmask, retired)
            if want is None:
                continue
            qualified += 1
            tied = [
                pos
                for pos, (mask, uq, den) in enumerate(cells)
                if not mask & retired and Fraction((uq & ~rmask).bit_count(), den) == want[0]
            ]
            ties += len(tied) > 1
        assert 0 < qualified < len(states)
        # The fully retired states never qualify.
        assert found[1] >> 32 == found[2] >> 32 == _NO_KEY
    assert len(t._memos) == 2
    # The untouched state at the eager cutoff ties between several masks.
    assert ties


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
        t.best_memo(2 * cfg.epsilon).entries = _WatchedEntries()
    assert decode_all() == cold
    for cfg, _, _ in runs:
        entries = t.best_memo(2 * cfg.epsilon).entries
        assert entries.clears >= 2 and entries.peak == cap
