"""End-to-end acceptance gates for the shipped guarantees.

One test per gate; each prints a single ``[acceptance] <gate>: PASS/FAIL``
line with the measured numbers so a log scrape shows the whole scoreboard.
Budgets are wall-clock upper bounds checked inside the tests themselves.

Known red: the quarter-weighted-size bound on the part-size product of
locally reduced subsets is asserted exhaustively over every degree pair the
construction accepts with total degree at most 12; it is genuinely false for
ten of those pairs (first counterexample: degrees (1, 5), part sizes (2, 1)),
so that one gate fails by design rather than being weakened.  All engine
configurations shipped here use degree pairs on which the bound is verified
true (see test_reduction.py), so no other gate depends on it.
"""

import itertools
import math
import random
import signal
import time
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from hgpdecode.classical import classical_syndrome, find_classical
from hgpdecode.cli import main
from hgpdecode.erasure import erase_decode_quantum, verify_coset
from hgpdecode.graphs import BipartiteGraph, audit_expansion, gen_biregular
from hgpdecode.harness import CampaignConfig, campaign_to_text, montecarlo
from hgpdecode.hgp import CheckSet, QubitSet, build_hgp, syndrome
from hgpdecode.reduction import reduce_error
from hgpdecode.ssfind import DecoderConfig, min_untouched_score, ssfind

from oracles import (
    Candidate,
    _incidences,
    alive_masks,
    brute_reduce,
    cached_scores,
    exit_audit,
    mask_pairs,
    mask_positions,
    mask_to_qubitset,
    part_sizes,
    qnbhd,
    qnbhd_unique,
    qubits_of,
    rmask,
    score,
    supp_check,
    supp_generator,
    unique_cells,
)

GOLDEN = Path(__file__).parent / "golden"


def _verdict(gate: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {gate}: {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)


# --------------------------------------------------------------------------
# 1. Radius table: printed coefficients vs an independent recomputation.
# --------------------------------------------------------------------------


def test_radius_table_matches_independent_recomputation(capsys):
    t0 = time.perf_counter()
    assert main(["radius-table", "--r", "1/2", "--epsilon", "1/20", "--delta-c", "6"]) == 0
    lines = [ln.split() for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    elapsed = time.perf_counter() - t0
    printed = {row[0]: Decimal(row[1]) for row in lines}

    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(1) / Decimal(2)
        eps = Decimal(1) / Decimal(20)
        expected = {
            "ssflip-ltz": Decimal(1) / (3 * (1 + Decimal(6))),
            "ssflip-grospellier": (2 * r * (1 - 8 * eps))
            / (4 + 2 * r * (1 - 8 * eps))
            * r
            / (1 + r * r).sqrt(),
            "ssfind": (1 - 10 * eps) / 4 * r,
        }

    tol = Decimal("0.000001")
    deltas = {name: abs(printed[name] - expected[name]) for name in expected}
    ok = all(d <= tol for d in deltas.values()) and printed["ssfind"] == Decimal("0.062500") and elapsed < 1.0
    _verdict(
        "radius-table",
        ok,
        f"ssfind {printed['ssfind']}, grospellier {printed['ssflip-grospellier']}, "
        f"max |delta| {max(deltas.values()):.2E}, wall {elapsed:.3f}s < 1s",
    )
    for name, d in deltas.items():
        assert d <= tol, f"{name}: printed {printed[name]} vs recomputed {expected[name]}"
    assert printed["ssfind"] == Decimal("0.062500")
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. CSS commutation across a seeded family of product codes.
# --------------------------------------------------------------------------


def test_checks_commute_with_generators_across_seeded_family():
    t0 = time.perf_counter()
    sizes = list(range(12, 61, 2))
    assert len(sizes) == 25
    pairs = 0
    for n in sizes:
        code = build_hgp(gen_biregular(n, 3, 6, seed=n))
        check_supports = [supp_check(code, x) for x in range(code.num_checks)]
        for g in range(code.num_gens):
            gsup = supp_generator(code, g)
            for x in qnbhd(code, gsup).to_indices(code):
                assert (check_supports[x] & gsup).weight % 2 == 0, (n, g, x)
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _verdict(
        "css-commutation",
        ok,
        f"{len(sizes)} codes, {pairs} adjacent generator/check pairs all even, "
        f"wall {elapsed:.2f}s < 10s",
    )
    assert ok


# --------------------------------------------------------------------------
# 3. Unique-neighbor count of locally reduced subsets: closed form.
# --------------------------------------------------------------------------


def test_unique_neighbor_count_matches_closed_form_on_random_subsets():
    t0 = time.perf_counter()
    code = build_hgp(gen_biregular(12, 3, 6, seed=5))
    dv, dc = code.delta_v, code.delta_c
    rng = random.Random(2026)
    for _ in range(1000):
        g = rng.randrange(code.num_gens)
        while True:
            a = rng.randint(0, dc)
            b = rng.randint(0, dv)
            if 0 < a + b and 2 * (a + b) <= dv + dc:
                break
        mask = 0
        for i in rng.sample(range(dc), a):
            mask |= 1 << i
        for j in rng.sample(range(dv), b):
            mask |= 1 << (dc + j)
        cand = Candidate.build(code, g, mask)  # validates local reducedness
        assert (cand.a_v, cand.a_c) == (a, b)
        unique = len(qnbhd_unique(code, mask_to_qubitset(code, g, mask)))
        assert unique == a * dv + b * dc - 2 * a * b, (g, mask, a, b, unique)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _verdict(
        "unique-neighbor-closed-form",
        ok,
        f"1000 random (generator, subset) pairs exact, wall {elapsed:.2f}s < 5s",
    )
    assert ok


# --------------------------------------------------------------------------
# 4. Part-size product bound (known red: false for ten small degree pairs).
# --------------------------------------------------------------------------


def test_part_size_product_bounded_by_quarter_weighted_size():
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for dv in range(1, 12):
        for dc in range(dv, 13 - dv):
            for mask in range(1, 1 << (dv + dc)):
                a, b = part_sizes(mask, dc)
                if 2 * (a + b) > dv + dc:
                    continue
                checked += 1
                if 4 * a * b > a * dv + b * dc:
                    violations.append((dv, dc, a, b))

    rng = random.Random(4)
    for _ in range(100_000):
        mask = rng.randrange(1, 1 << 9)
        a, b = part_sizes(mask, 6)
        if 2 * (a + b) > 9:
            continue
        checked += 1
        if 4 * a * b > a * 3 + b * 6:
            violations.append((3, 6, a, b))

    elapsed = time.perf_counter() - t0
    distinct = sorted({(dv, dc) for dv, dc, _, _ in violations})
    ok = not violations and elapsed < 10.0
    _verdict(
        "part-size-product-bound",
        ok,
        f"{checked} locally reduced masks, {len(violations)} violations on degree "
        f"pairs {distinct}, wall {elapsed:.2f}s < 10s",
    )
    assert elapsed < 10.0
    assert not violations, (
        f"product bound 4ab <= a*dv + b*dc fails for {len(violations)} locally "
        f"reduced masks across degree pairs {distinct}; first at degrees "
        f"({violations[0][0]}, {violations[0][1]}) with part sizes "
        f"({violations[0][2]}, {violations[0][3]})"
    )


# --------------------------------------------------------------------------
# 5. Run-invariants of the search on every trial of a Monte Carlo sweep.
# --------------------------------------------------------------------------


def _check_run_invariants(code, config, sigma_set, res, full_scan: bool) -> None:
    twoeps = 2 * config.epsilon
    st = res.state
    delta = code.delta_v * code.delta_c
    cells = unique_cells(code.delta_v, code.delta_c)
    seeded = st.seeded

    # (b) suspicious region is exactly the syndrome plus the envelope's checks
    assert st.suspicious_set == sigma_set | set(qnbhd(code, res.envelope).to_indices(code))

    # (a) at exit no alive candidate scores at or below threshold, and every
    # seeded generator's suspicious cells and retired bits match a rebuild
    # from scratch; generators never touched by a suspicious check still sit
    # at their floor score
    exit_audit(st)
    for g in range(code.num_gens):
        if not seeded[g]:
            assert rmask(st, g) == 0

    # (c) growth bound replayed from the trace with exact arithmetic, on the
    # envelope's coordinate pairs: |VV| / delta_c + |CC| / delta_v is its
    # weighted norm, and its neighborhood the checks it has incidences into
    vv, cc = set(), set()
    for entry in res.trace:
        assert Fraction(entry.score_num, entry.score_den) <= twoeps
        pick_vv, pick_cc = mask_pairs(code, entry.generator, entry.mask)
        vv.update(pick_vv)
        cc.update(pick_cc)
        assert len(vv) + len(cc) == entry.envelope_size
        norm = Fraction(len(vv), code.delta_c) + Fraction(len(cc), code.delta_v)
        bound = len(sigma_set) + (Fraction(1, 4) + twoeps) * delta * norm
        assert Fraction(len(_incidences(code, vv, cc))) <= bound, entry
    assert qubits_of(code, vv, cc) == res.envelope

    # (d) cached scores agree with a from-scratch recomputation: the cheapest
    # alive candidate of every seeded generator each trial, everything on
    # full-scan trials.  The cheapest is found by the integer key
    # num * (lcm / den), which orders masks as num/den does, ties included, so
    # min keeps the same first minimum as over Fraction scores.
    suspicious = CheckSet.from_indices(code, sorted(st.suspicious_set))
    lcm = math.lcm(*(den for _, _, den in cells))
    scale = [lcm // den for _, _, den in cells]
    positions = mask_positions(code.delta_v, code.delta_c)
    for g in range(code.num_gens):
        if not seeded[g]:
            continue
        masks = alive_masks(st, g)
        if not masks:
            continue
        not_r = ~rmask(st, g)

        def key(m):
            pos = positions[m]
            return (cells[pos][1] & not_r).bit_count() * scale[pos]

        chosen = masks if full_scan else [min(masks, key=key)]
        for mask, cached in zip(chosen, cached_scores(st, g, chosen)):
            recomputed = score(code, Candidate.build(code, g, mask), suspicious)
            assert recomputed == cached, (g, mask)


def test_search_invariants_hold_on_every_monte_carlo_trial():
    t0 = time.perf_counter()
    code = build_hgp(gen_biregular(12, 3, 6, seed=5))
    assert 2 * Fraction(1, 20) < min_untouched_score(3, 6)  # covers unseeded floors
    lazy = DecoderConfig(epsilon=Fraction(1, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eager = DecoderConfig(epsilon=Fraction(5, 18))
    assert 2 * Fraction(5, 18) >= min_untouched_score(3, 6)

    trials = 0
    for config, count, seed_base in ((lazy, 1250, 0), (eager, 250, 1_000_000)):
        for k in range(count):
            rng = random.Random(seed_base + k)
            error = QubitSet.from_indices(
                code, rng.sample(range(code.num_qubits), 1 + k % 8)
            )
            sigma = syndrome(code, error)
            res = ssfind(code, sigma, config)
            _check_run_invariants(
                code,
                config,
                set(sigma.to_indices(code)),
                res,
                full_scan=(k % 16 == 0),
            )
            trials += 1
    elapsed = time.perf_counter() - t0
    ok = trials >= 1500 and elapsed < 120.0
    _verdict(
        "search-run-invariants",
        ok,
        f"{trials} trials (1250 lazy + 250 eager), exit/region/growth/cache "
        f"invariants exact, wall {elapsed:.1f}s < 120s",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. Frozen campaign: golden reproduction plus the conditional guarantee.
# --------------------------------------------------------------------------


def test_frozen_campaign_matches_golden_and_conditional_bound():
    """500 eager trials reproduce the golden campaign byte for byte.

    The conditional-bound part admits 0 of the 500 trials, so it checks
    nothing here.  Its cap (1 - 10ε)/4 · (Δv/Δc) · s - Δv is positive only if
    ε < 1/10 and s > 4Δc/(1 - 10ε), which is at least 4Δc = 24 at (3,6); no
    exhaustive audit reaches such s.  The audited ε is 5/9, where 1 - 10ε < 0
    and the cap is negative, below every reduced weight."""
    t0 = time.perf_counter()
    config = CampaignConfig(
        n=60,
        delta_v=3,
        delta_c=6,
        graph_seed=1,
        trials=500,
        weights=(1, 2, 3),
        epsilon="audit:3",
        reduction="greedy",
        seed=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = montecarlo(config)
    elapsed = time.perf_counter() - t0

    assert result.epsilon == Fraction(5, 9)
    golden = (GOLDEN / "campaign_n60_seed1.txt").read_text()
    assert campaign_to_text(result, include_wall=False) == golden

    # Conditional guarantee: every trial whose reduced weight satisfies the
    # hypothesis must recover the coset and obey the envelope-size bound.
    eps = result.epsilon
    dv, dc = Fraction(config.delta_v), Fraction(config.delta_c)
    smallest_side = Fraction(3)  # both sides audited out to sets of size 3
    hypothesis_cap = (1 - 10 * eps) / 4 * (dv / dc) * smallest_side - dv
    passing = [r for r in result.reports if Fraction(r.reduced_weight) <= hypothesis_cap]
    for report in passing:
        assert report.status == "success" and report.coset_equivalent is True
        assert Fraction(report.envelope_size) <= 4 / (1 - 10 * eps) * (dc / dv) * report.reduced_weight

    ok = elapsed < 300.0
    _verdict(
        "frozen-campaign",
        ok,
        f"golden byte-identical, epsilon {eps}, hypothesis cap {hypothesis_cap} "
        f"admits {len(passing)}/500 trials (all compliant), wall {elapsed:.1f}s < 300s",
    )
    assert ok


# --------------------------------------------------------------------------
# 7. Classical pipeline on brute-force-audited expanders.
# --------------------------------------------------------------------------


def _complete_graph_incidence(num_vertices: int) -> BipartiteGraph:
    edges = list(itertools.combinations(range(num_vertices), 2))
    adj_v = [[] for _ in range(num_vertices)]
    for idx, (u, v) in enumerate(edges):
        adj_v[u].append(idx)
        adj_v[v].append(idx)
    return BipartiteGraph(len(edges), adj_v)


def test_classical_find_covers_admissible_errors_on_audited_expanders(
    k44_incidence_graph,
):
    t0 = time.perf_counter()
    instances = [
        (_complete_graph_incidence(20), 6),
        (k44_incidence_graph, 3),
    ]
    total = 0
    for graph, s_max in instances:
        assert graph.n <= 20
        profile = audit_expansion(graph, "left", s_max)
        assert profile.certified
        eps_v = profile.worst_up_to()
        assert eps_v < Fraction(1, 3)
        admissible = int((1 - 3 * eps_v) * (s_max - 1))
        assert admissible >= 1 and admissible <= s_max

        for w in range(1, admissible + 1):
            for combo in itertools.combinations(range(graph.n), w):
                bits = 0
                for i in combo:
                    bits |= 1 << i
                sigma = classical_syndrome(graph, bits)
                envelope = find_classical(graph, sigma, eps_v)
                assert set(combo) <= envelope, (graph.n, combo, envelope)
                assert Fraction(len(envelope)) <= Fraction(w) / (1 - 3 * eps_v), (
                    graph.n,
                    combo,
                    envelope,
                )
                total += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict(
        "classical-find",
        ok,
        f"{total} exhaustive admissible errors on 2 audited expanders, coverage "
        f"and size bound exact, wall {elapsed:.2f}s < 30s",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. Greedy reduction: a lighter coset fixpoint, bounded by brute force.
# --------------------------------------------------------------------------


def test_greedy_reduction_is_a_coset_fixpoint_on_tiny_codes(path_graph, single_edge_graph):
    """Every error of weight <= 3 on two tiny codes reduces, under the greedy
    reduction every trial runs, to a set with the same syndrome, in the same
    stabilizer coset, no heavier than the error and no lighter than the
    brute-force minimum over all generator togglings, on which no single
    generator toggle lowers the weight.  A reduction that toggles without
    end fails at the 5 s budget instead of hanging the gate."""

    def out_of_budget(signum, frame):
        raise TimeoutError("greedy reduction ran past the 5 s budget")

    t0 = time.perf_counter()
    total = minimal = 0
    previous = signal.signal(signal.SIGALRM, out_of_budget)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for graph in (path_graph, single_edge_graph):
            code = build_hgp(graph)
            supports = [supp_generator(code, g) for g in range(code.num_gens)]
            for w in (1, 2, 3):
                for combo in itertools.combinations(range(code.num_qubits), w):
                    error = QubitSet.from_indices(code, combo)
                    reduced = reduce_error(code, error, mode="greedy")
                    best = brute_reduce(code, error)
                    assert syndrome(code, reduced) == syndrome(code, error), combo
                    assert verify_coset(code, reduced, error), combo
                    assert best.weight <= reduced.weight <= error.weight, combo
                    assert all((reduced ^ s).weight >= reduced.weight for s in supports), combo
                    total += 1
                    minimal += reduced.weight == best.weight
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _verdict(
        "greedy-reduction",
        ok,
        f"{total} errors of weight <= 3 on 2 tiny codes reduce to a coset fixpoint "
        f"between the brute-force minimum and the error weight, {minimal} of them "
        f"at the minimum, wall {elapsed:.2f}s < 5s",
    )
    assert ok


# --------------------------------------------------------------------------
# 9. Scale smoke: fast decode on the 18000-qubit code, few rows touched.
# --------------------------------------------------------------------------


def test_large_code_decode_is_fast_and_touches_few_rows():
    graph = gen_biregular(120, 3, 6, seed=7)
    code = build_hgp(graph)
    assert code.num_qubits == 18_000
    rng = random.Random(0)
    error = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), 10))
    reduced = reduce_error(code, error, mode="greedy")
    assert reduced.weight == 10
    sigma = syndrome(code, reduced)

    t0 = time.perf_counter()
    res = ssfind(code, sigma, DecoderConfig(epsilon=Fraction(1, 20)))
    verdict = erase_decode_quantum(code, sigma, res.envelope)
    elapsed = time.perf_counter() - t0

    row_cap = (code.delta_v + code.delta_c) * res.envelope.weight + len(sigma)
    ok = (
        elapsed < 1.0
        and verdict.status == "success"
        and verdict.rows_touched <= row_cap
        and syndrome(code, verdict.correction) == sigma
    )
    _verdict(
        "scale-smoke",
        ok,
        f"N=18000 weight-10 decode in {elapsed*1000:.1f}ms < 1s, rows "
        f"{verdict.rows_touched} <= cap {row_cap}",
    )
    assert ok
