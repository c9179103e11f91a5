"""Envelope solves: correctness, coset judgement, ambiguity detection, cost."""

from __future__ import annotations

import collections
import functools
import random
from fractions import Fraction

import pytest

from hgpdecode import erasure
from hgpdecode.erasure import DecodeVerdict, erase_decode_quantum, verify_coset
from hgpdecode.gf2 import RestrictedSolver, bit_positions
from hgpdecode.graphs import gen_biregular
from hgpdecode.hgp import CheckSet, QubitSet, build_hgp, syndrome
from hgpdecode.ssfind import DecoderConfig, ssfind

from oracles import RowBasis, checks_of, generator_matrix, qnbhd, qubits_of, solve_by_elimination, supp_generator


@pytest.fixture(scope="module")
def single_edge_code(single_edge_graph):
    return build_hgp(single_edge_graph)


@pytest.fixture(scope="module")
def path_code(path_graph):
    return build_hgp(path_graph)


@pytest.fixture(scope="module")
def k33_code(k33_graph):
    return build_hgp(k33_graph)


@pytest.fixture(scope="module")
def mid_code():
    return build_hgp(gen_biregular(12, 3, 6, seed=5))


def _random_error(code, rng, weight):
    n, m = code.n, code.m
    vv, cc = set(), set()
    while len(vv) + len(cc) < weight:
        if rng.random() < (n * n) / (n * n + m * m):
            vv.add((rng.randrange(n), rng.randrange(n)))
        else:
            cc.add((rng.randrange(m), rng.randrange(m)))
    return qubits_of(code, vv, cc)


def test_empty_everything_succeeds(path_code):
    empty = qubits_of(path_code)
    verdict = erase_decode_quantum(path_code, syndrome(path_code, empty), empty)
    assert verdict == DecodeVerdict(empty, "success", 0)


def test_flagged_check_away_from_envelope_is_unsolvable(path_code):
    sigma = checks_of(path_code, [(0, 0)])
    verdict = erase_decode_quantum(path_code, sigma, qubits_of(path_code))
    assert verdict.status == "no-solution"
    assert verdict.correction == qubits_of(path_code)
    assert verdict.rows_touched == 1


def test_envelope_equal_to_error_recovers_the_coset(mid_code):
    rng = random.Random(11)
    span = RowBasis(generator_matrix(mid_code))
    for weight in (1, 2, 3, 5, 8):
        error = _random_error(mid_code, rng, weight)
        sigma = syndrome(mid_code, error)
        verdict = erase_decode_quantum(mid_code, sigma, error, detect_ambiguity=True)
        assert verdict.status == "success"
        x = verdict.correction
        assert x <= error
        assert syndrome(mid_code, x) == sigma
        assert verify_coset(mid_code, x, error)
        # Independent route: membership by eliminating the full generator
        # matrix, not the base-code span test that verify_coset uses.
        diff_bits = 0
        for q in (x ^ error).to_indices(mid_code):
            diff_bits |= 1 << q
        assert span.contains(diff_bits)


def test_solution_confined_to_strict_superset_envelope(mid_code):
    rng = random.Random(23)
    for _ in range(10):
        error = _random_error(mid_code, rng, 4)
        envelope = error | _random_error(mid_code, rng, 6)
        sigma = syndrome(mid_code, error)
        verdict = erase_decode_quantum(mid_code, sigma, envelope, detect_ambiguity=True)
        assert verdict.correction <= envelope
        assert syndrome(mid_code, verdict.correction) == sigma
        if verdict.status == "success":
            # No non-stabilizer kernel on this envelope, so every solution
            # (the true error included) sits in one coset.
            assert verify_coset(mid_code, verdict.correction, error)


def test_verify_coset_examples(path_code, single_edge_code):
    error = qubits_of(path_code, vv=[(0, 0), (1, 1)])
    assert verify_coset(path_code, error, error)
    for g in range(path_code.num_gens):
        toggled = error ^ supp_generator(path_code, g)
        assert verify_coset(path_code, toggled, error)
    # Single-edge code: the only generator support is both qubits at once, so
    # a one-qubit difference crosses cosets.
    code = single_edge_code
    assert verify_coset(code, qubits_of(code, vv=[(0, 0)], cc=[(0, 0)]), qubits_of(code))
    assert not verify_coset(code, qubits_of(code, vv=[(0, 0)]), qubits_of(code))


def test_coset_equivalence_implies_equal_syndromes(mid_code):
    rng = random.Random(31)
    hits = 0
    for _ in range(40):
        error = _random_error(mid_code, rng, 3)
        candidate = error
        for _ in range(rng.randrange(3)):
            candidate = candidate ^ supp_generator(mid_code, rng.randrange(mid_code.num_gens))
        if rng.random() < 0.5:
            candidate = candidate ^ _random_error(mid_code, rng, 1)
        if verify_coset(mid_code, candidate, error):
            hits += 1
            assert syndrome(mid_code, candidate) == syndrome(mid_code, error)
    assert hits > 0


def test_rows_touched_is_the_adjacency_bound(mid_code):
    rng = random.Random(47)
    degree_sum = mid_code.delta_v + mid_code.delta_c
    for weight in (1, 4, 9):
        error = _random_error(mid_code, rng, weight)
        sigma = syndrome(mid_code, error)
        verdict = erase_decode_quantum(mid_code, sigma, error)
        expected_rows = set(qnbhd(mid_code, error).to_indices(mid_code))
        expected_rows |= set(sigma.to_indices(mid_code))
        assert verdict.rows_touched == len(expected_rows)
        assert verdict.rows_touched <= degree_sum * error.weight + len(sigma)


def test_factorization_cache_and_determinism(mid_code):
    rng = random.Random(59)
    error = _random_error(mid_code, rng, 5)
    # A generator support in the envelope puts a stabilizer in the kernel, so
    # peeling leaves columns over and the envelope is factorized.
    envelope = error | supp_generator(mid_code, 3)
    sigma = syndrome(mid_code, error)
    first = erase_decode_quantum(mid_code, sigma, envelope)
    solver = mid_code._erasure_solver[2]
    second = erase_decode_quantum(mid_code, sigma, envelope)
    assert first == second
    assert mid_code._erasure_solver[2] is solver
    # A different syndrome against the same envelope reuses the factorization.
    sub = qubits_of(mid_code, vv=list(error.vv_part)[:1])
    erase_decode_quantum(mid_code, syndrome(mid_code, sub), envelope)
    assert mid_code._erasure_solver[2] is solver
    # A different envelope replaces the single cached factorization.
    erase_decode_quantum(mid_code, syndrome(mid_code, sub), sub | supp_generator(mid_code, 7))
    assert mid_code._erasure_solver[2] is not solver
    # An envelope that peels completely is solved without a factorization
    # and leaves the cached one in place.
    cached = mid_code._erasure_solver
    verdict = erase_decode_quantum(mid_code, syndrome(mid_code, sub), sub)
    assert verdict.status == "success" and verdict.correction == sub
    assert mid_code._erasure_solver is cached
    # On the cached envelope, a flagged check that no envelope qubit touches
    # still rules every correction out, counts among the rows touched, and
    # keeps the cached factorization.
    cols, row_pos, solver = cached
    far = next(x for x in range(mid_code.num_checks) if x not in row_pos)
    sigma = CheckSet.from_indices(mid_code, [*syndrome(mid_code, sub).to_indices(mid_code), far])
    envelope = QubitSet.from_indices(mid_code, cols)
    verdict = erase_decode_quantum(mid_code, sigma, envelope)
    assert verdict == DecodeVerdict(qubits_of(mid_code), "no-solution", len(row_pos) + 1)
    assert mid_code._erasure_solver[2] is solver
    # With nothing cached, the same solve gives the same verdict and
    # factorizes nothing.
    mid_code._erasure_solver = None
    assert erase_decode_quantum(mid_code, sigma, envelope) == verdict
    assert mid_code._erasure_solver is None


def test_full_envelope_ambiguity_split(path_code, single_edge_code):
    # Path-graph code keeps one logical qubit, so the all-qubits envelope
    # admits solutions from different cosets; the single-edge code does not.
    everything = qubits_of(
        path_code,
        vv=[(i, j) for i in range(path_code.n) for j in range(path_code.n)],
        cc=[(i, j) for i in range(path_code.m) for j in range(path_code.m)],
    )
    sigma = syndrome(path_code, qubits_of(path_code))
    flagged = erase_decode_quantum(path_code, sigma, everything, detect_ambiguity=True)
    assert flagged.status == "ambiguous-logical"
    assert flagged.correction == qubits_of(path_code)

    silent = erase_decode_quantum(path_code, sigma, everything)
    assert silent.status == "success"

    both = qubits_of(single_edge_code, vv=[(0, 0)], cc=[(0, 0)])
    tiny = erase_decode_quantum(
        single_edge_code, syndrome(single_edge_code, qubits_of(single_edge_code)), both,
        detect_ambiguity=True,
    )
    assert tiny.status == "success"


def test_ambiguity_matches_logical_count(path_code, single_edge_code, k33_code):
    # With every qubit erased, ambiguity is exactly "k > 0".
    for code in (path_code, single_edge_code, k33_code):
        everything = qubits_of(
            code,
            vv=[(i, j) for i in range(code.n) for j in range(code.n)],
            cc=[(i, j) for i in range(code.m) for j in range(code.m)],
        )
        verdict = erase_decode_quantum(
            code, syndrome(code, qubits_of(code)), everything, detect_ambiguity=True
        )
        assert (verdict.status == "ambiguous-logical") == (code.k > 0)


def test_coset_and_ambiguity_build_no_full_matrix(monkeypatch):
    # N = 18,000: k, coset checks and ambiguity detection come from the base
    # code alone; no matrix with N columns is factorized.
    shapes = []
    init = RestrictedSolver.__init__

    def recording_init(self, rows, cols):
        shapes.append((len(rows), cols))
        init(self, rows, cols)

    monkeypatch.setattr(RestrictedSolver, "__init__", recording_init)
    code = build_hgp(gen_biregular(120, 3, 6, seed=7))
    assert code.k == 60 ** 2  # full-rank base: k = n - m = 60, k^T = 0
    rng = random.Random(71)
    error = _random_error(code, rng, 6)
    sigma = syndrome(code, error)
    verdict = erase_decode_quantum(code, sigma, error, detect_ambiguity=True)
    assert verdict.status == "success" and verify_coset(code, verdict.correction, error)
    g = supp_generator(code, 5)
    assert verify_coset(code, error ^ g, error)
    assert not verify_coset(code, error ^ qubits_of(code, vv=[(0, 0)]), error)
    assert shapes and max(cols for _, cols in shapes) < code.num_qubits


def _kernel_in_span(code, sigma, envelope):
    """The list route: build the whole kernel basis, then test every vector;
    one flag per vector, True when it is a sum of generator supports."""
    cols = tuple(envelope.to_indices(code))
    sigma_rows = set(sigma.to_indices(code))
    rows = tuple(sorted(sigma_rows.union(*map(code.qubit_checks, cols))))
    sub = [sum(1 << cols.index(q) for q in code.check_qubits(x) if q in cols) for x in rows]
    span = code.generator_basis()
    return [
        span.contains(cols[p] for p in bit_positions(k))
        for k in RestrictedSolver(sub, len(cols)).iter_kernel()
    ]


def test_ambiguity_verdicts_match_list_route(path_code, k33_code, mid_code):
    # Random envelopes around random errors, plus the whole code, on codes
    # with and without logicals: stopping at the first kernel vector outside
    # the span gives the verdict that testing the full list gives.
    rng = random.Random(97)
    codes = (
        path_code, k33_code, mid_code,
        build_hgp(gen_biregular(16, 4, 8, seed=2)),
        build_hgp(gen_biregular(20, 2, 5, seed=3)),
    )
    seen = set()
    late = 0
    for code in codes:
        everything = QubitSet.from_indices(code, range(code.num_qubits))
        cases = [(qubits_of(code), everything)]
        for _ in range(12):
            error = _random_error(code, rng, rng.randint(1, 4))
            extra = rng.sample(range(code.num_qubits), rng.randint(0, code.num_qubits // 3))
            cases.append((error, error | QubitSet.from_indices(code, sorted(extra))))
        # The last CC column is a logical when the all-ones check vector is in
        # ker H^T.  Three generator supports beside it put stabilizers first
        # in the kernel basis, so the first vector outside the span comes late.
        n, m = code.n, code.m
        column = QubitSet.from_indices(code, [n * n + c * m + m - 1 for c in range(m)])
        beside = [
            supp_generator(code, g)
            for g in range(code.num_gens)
            if column.indices.isdisjoint(supp_generator(code, g).indices)
        ][:3]
        cases.append((qubits_of(code), functools.reduce(QubitSet.__or__, beside, column)))
        for error, envelope in cases:
            sigma = syndrome(code, error)
            verdict = erase_decode_quantum(code, sigma, envelope, detect_ambiguity=True)
            assert verdict.status != "no-solution"
            flags = _kernel_in_span(code, sigma, envelope)
            ambiguous = not all(flags)
            assert (verdict.status == "ambiguous-logical") == ambiguous
            seen.add(ambiguous)
            late += ambiguous and flags[0]
    assert seen == {True, False}
    assert late >= 2


def _row_driven(code, rows, cols):
    """Oracle for the restricted matrix: each row from its check's qubit
    list, keeping the qubits that are envelope columns."""
    col_pos = {q: p for p, q in enumerate(cols)}
    return [sum(1 << col_pos[q] for q in code.check_qubits(x) if q in col_pos) for x in rows]


def test_restricted_matrix_matches_row_driven_build(mid_code, monkeypatch):
    """The matrix built from the envelope columns' checks equals the one
    built from each of those checks' supports, on random envelopes and the
    whole-code envelope.  A solve factorizes exactly when peeling leaves a
    column over, and otherwise gives the elimination route's verdict.  A
    flagged check that no envelope qubit touches gives no-solution and
    still counts among the rows touched.  Two solves in a row on one
    envelope factorize once, and so do eager solves on the whole code."""
    built = []

    class Recording(RestrictedSolver):
        def __init__(self, rows, cols):
            built.append(list(rows))
            super().__init__(rows, cols)

    monkeypatch.setattr(erasure, "RestrictedSolver", Recording)
    monkeypatch.setattr(mid_code, "_erasure_solver", None, raising=False)
    rng = random.Random(101)
    code = mid_code
    everything = QubitSet.from_indices(code, range(code.num_qubits))
    cases = [(qubits_of(code), everything)]
    for _ in range(15):
        error = _random_error(code, rng, rng.randint(1, 5))
        extra = rng.sample(range(code.num_qubits), rng.randint(0, 20))
        cases.append((error, error | QubitSet.from_indices(code, extra)))
    factorized = peeled = 0
    for error, envelope in cases:
        sigma = syndrome(code, error)
        before = len(built)
        verdict = erase_decode_quantum(code, sigma, envelope)
        cols = envelope.to_indices(code)
        rows = sorted(set().union(*map(code.qubit_checks, cols)))
        if _peel_kind(code, sigma, envelope) == "peeled":
            peeled += 1
            assert len(built) == before
            assert (verdict.correction, verdict.status, verdict.rows_touched) == solve_by_elimination(
                code, sigma, envelope
            )
        else:
            factorized += 1
            assert len(built) == before + 1
            assert built[-1] == _row_driven(code, rows, cols)
        assert verdict.rows_touched == len(rows)
        assert syndrome(code, verdict.correction) == sigma
    assert peeled and factorized
    # A flagged check away from the envelope: no row of its own, and no
    # matrix is built.
    envelope = QubitSet.from_indices(code, [0])
    near = sorted(code.qubit_checks(0))
    far = next(x for x in range(code.num_checks) if x not in near)
    solves = len(built)
    verdict = erase_decode_quantum(code, CheckSet.from_indices(code, [far]), envelope)
    assert verdict.status == "no-solution"
    assert verdict.rows_touched == len(near) + 1
    # A one-qubit envelope peels: each of its checks has one column.
    verdict = erase_decode_quantum(code, syndrome(code, envelope), envelope)
    assert verdict.status == "success" and verdict.rows_touched == len(near)
    assert len(built) == solves
    # Two eager decodes of the whole code factorize once.
    with pytest.warns(UserWarning):
        eager = DecoderConfig(epsilon=Fraction(5, 9))
    solves = len(built)
    solvers = []
    for w in (1, 2):
        sigma = syndrome(code, _random_error(code, rng, w))
        found = ssfind(code, sigma, eager)
        assert found.envelope == everything
        erase_decode_quantum(code, sigma, found.envelope)
        solvers.append(code._erasure_solver[2])
    assert len(built) == solves + 1
    assert solvers[0] is solvers[1]


def _peel_kind(code, sigma, envelope):
    """How far peeling gets on an envelope solve: ``outside`` (a flagged
    check has no envelope column), ``peeled`` or ``peeled-no-solution``
    (every column forced, and the forced values do or do not give sigma),
    ``partial`` (some columns forced, some left) or ``none``."""
    cols = envelope.to_indices(code)
    col_checks = [code.qubit_checks(q) for q in cols]
    rows = {}
    for p, chks in enumerate(col_checks):
        for x in chks:
            rows[x] = rows.get(x, 0) | 1 << p
    flagged = set(sigma.to_indices(code))
    if flagged - rows.keys():
        return "outside"
    values, unknown = erasure._peel(rows, col_checks, flagged)
    if not unknown:
        forced = QubitSet.from_indices(code, [q for p, q in enumerate(cols) if values >> p & 1])
        return "peeled" if syndrome(code, forced) == sigma else "peeled-no-solution"
    return "none" if unknown == (1 << len(cols)) - 1 else "partial"


def test_peel_first_solve_matches_elimination(path_code, k33_code, mid_code):
    """Peeling before elimination changes no verdict: on random envelopes of
    five codes, with and without ``detect_ambiguity`` and no factorization
    cached, the solve returns the correction, status and rows_touched of
    eliminating the whole restricted system.  The envelopes peel completely
    (to a solution or to none), peel partly or not at all (a generator
    support or the whole code in the envelope), or miss a flagged check."""
    rng = random.Random(131)
    codes = (
        path_code, k33_code, mid_code,
        build_hgp(gen_biregular(16, 4, 8, seed=2)),
        build_hgp(gen_biregular(20, 2, 5, seed=3)),
    )
    kinds = collections.Counter()
    for code in codes:
        everything = QubitSet.from_indices(code, range(code.num_qubits))
        cases = [(syndrome(code, _random_error(code, rng, 2)), everything)]
        for _ in range(12):
            error = _random_error(code, rng, rng.randint(1, 5))
            sigma = syndrome(code, error)
            extra = QubitSet.from_indices(
                code, rng.sample(range(code.num_qubits), rng.randint(1, min(12, code.num_qubits)))
            )
            support = supp_generator(code, rng.randrange(code.num_gens))
            near = sorted(qnbhd(code, error).to_indices(code))
            flipped = CheckSet.from_indices(code, rng.sample(near, rng.randint(1, len(near))))
            cases += [
                (sigma, error),
                (sigma, error | extra),
                (sigma, error | support),
                (sigma, error ^ extra),
                (flipped, error),
            ]
        for sigma, envelope in cases:
            kinds[_peel_kind(code, sigma, envelope)] += 1
            for ambiguity in (False, True):
                code._erasure_solver = None
                verdict = erase_decode_quantum(code, sigma, envelope, detect_ambiguity=ambiguity)
                got = verdict.correction, verdict.status, verdict.rows_touched
                assert got == solve_by_elimination(code, sigma, envelope, ambiguity)
    assert set(kinds) == {"outside", "peeled", "peeled-no-solution", "partial", "none"}, kinds
