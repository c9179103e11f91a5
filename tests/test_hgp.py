"""Product-code construction and quantum-side combinatorics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpdecode import hgp
from hgpdecode.erasure import verify_coset
from hgpdecode.gf2 import BitMatrix, BitVector, RestrictedSolver
from hgpdecode.graphs import audit_expansion, gen_biregular
from hgpdecode.hgp import (
    CheckSet,
    _IndexSet,
    QubitParseError,
    QubitSet,
    build_hgp,
    qubitset_from_text,
    qubitset_to_text,
    syndrome,
)

from oracles import (
    RowBasis,
    check_gens,
    dual,
    gen_coords,
    gen_index,
    generator_matrix,
    kernel_words,
    mask_to_qubitset,
    project,
    qnbhd,
    qnbhd_unique,
    qubit_gens,
    supp_check,
    supp_generator,
    syndrome_pairs,
    weighted_norm,
    x_check_matrix,
)
from conftest import make_k44_incidence


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


def test_build_single_edge(single_edge_code):
    code = single_edge_code
    assert code.num_qubits == 2
    assert code.num_checks == 1
    assert code.num_gens == 1
    assert supp_generator(code, 0) == QubitSet.of(code, [(0, 0)], [(0, 0)])
    assert code.k == 0


def test_build_path(path_code):
    code = path_code
    assert code.num_qubits == 5
    assert code.num_checks == 2
    assert code.num_gens == 2
    for x in range(code.num_checks):
        assert supp_check(code, x).weight == 3
    assert code.k == 1


def test_build_k33(k33_code):
    assert k33_code.num_qubits == 18
    assert k33_code.num_checks == 9
    assert k33_code.num_gens == 9


def test_k_matches_base_rank_identity(single_edge_code, path_code, k33_code, mid_code):
    # Oracle route: N minus the ranks of the two N-column matrices; and
    # k = (n-r)^2 + (m-r)^2 with r the base biadjacency rank by RowBasis.
    # The (16,4,8), (20,2,5) and (4,4) bases have m - r = 1, 1 and 2.
    extra = [build_hgp(gen_biregular(*args, seed=s)) for *args, s in
             ((16, 4, 8, 2), (20, 2, 5, 3), (16, 4, 4, 1), (60, 3, 6, 1))]
    for code in (single_edge_code, path_code, k33_code, mid_code, *extra):
        assert code.num_qubits <= 4500
        ranks = RowBasis(x_check_matrix(code)).rank + RowBasis(generator_matrix(code)).rank
        r = RowBasis(BitMatrix.from_row_supports(code.m, code.n, code.base.adj_c)).rank
        assert code.k == code.num_qubits - ranks == (code.n - r) ** 2 + (code.m - r) ** 2


def test_supp_examples_on_path(path_code):
    code = path_code
    z = gen_index(code, 0, 0)
    assert supp_generator(code, z) == QubitSet.of(code, [(0, 0), (1, 0)], [(0, 0)])
    x = code.check_index(0, 0)
    assert supp_check(code, x) == QubitSet.of(code, [(0, 0), (0, 1)], [(0, 0)])


def test_supp_sizes(k33_code, mid_code):
    for code in (k33_code, mid_code):
        for g in range(code.num_gens):
            s = supp_generator(code, g)
            assert len(s.vv_part) == code.delta_c
            assert len(s.cc_part) == code.delta_v
        for x in range(code.num_checks):
            s = supp_check(code, x)
            assert len(s.vv_part) == code.delta_c
            assert len(s.cc_part) == code.delta_v


def test_index_conventions(mid_code):
    code = mid_code  # n=12, m=6
    assert code.vv_index(3, 5) == 3 * 12 + 5
    assert code.cc_index(2, 4) == 144 + 2 * 6 + 4
    assert code.check_index(3, 2) == 3 * 6 + 2
    assert gen_index(code, 4, 7) == 4 * 12 + 7
    assert code.qubit_coords(41) == ("VV", 3, 5)
    assert code.qubit_coords(160) == ("CC", 2, 4)


def test_index_errors(path_code):
    code = path_code
    with pytest.raises(IndexError):
        supp_generator(code, code.num_gens)
    with pytest.raises(IndexError):
        supp_check(code, -1)
    with pytest.raises(IndexError):
        code.vv_index(code.n, 0)
    with pytest.raises(IndexError):
        code.qubit_coords(code.num_qubits)


def test_qnbhd_examples(path_code, k33_code):
    empty = QubitSet.of(path_code)
    assert qnbhd(path_code, QubitSet.of(path_code, [(0, 0)])) == CheckSet.of(path_code, [(0, 0)])
    assert qnbhd(path_code, empty) == CheckSet.of(path_code)
    assert qnbhd_unique(path_code, empty) == CheckSet.of(path_code)
    # A full generator support has no unique neighbors inside its own
    # check grid: every grid check sees exactly two of its qubits.
    code = k33_code
    for g in range(code.num_gens):
        c, v = gen_coords(code, g)
        grid = {
            (nu, zeta) for nu in code.base.adj_c[c] for zeta in code.base.adj_v[v]
        }
        uniq = qnbhd_unique(code, supp_generator(code, g))
        assert not (uniq.members & grid)


def test_unique_nbhd_closed_form(mid_code):
    # Against the set-level computation: for A inside one generator support
    # with a VV qubits and b CC qubits, the local check grid gives
    # |unique nbhd| = a*dv + b*dc - 2ab and |nbhd| = a*dv + b*dc - ab.
    code = mid_code
    dv, dc = code.delta_v, code.delta_c
    rng = random.Random(77)
    for _ in range(300):
        g = rng.randrange(code.num_gens)
        supp = supp_generator(code, g)
        vv = sorted(supp.vv_part)
        cc = sorted(supp.cc_part)
        a = rng.randint(0, len(vv))
        b = rng.randint(0, len(cc))
        sub = QubitSet.of(code, rng.sample(vv, a), rng.sample(cc, b))
        assert len(qnbhd_unique(code, sub)) == a * dv + b * dc - 2 * a * b
        assert len(qnbhd(code, sub)) == a * dv + b * dc - a * b


INCIDENCE_CODES = {
    "path": lambda: gen_biregular(2, 1, 2, seed=0),
    "k33": lambda: gen_biregular(3, 3, 3, seed=0),
    "k44-incidence": make_k44_incidence,
    "12-3-6": lambda: gen_biregular(12, 3, 6, seed=5),
    "16-4-8": lambda: gen_biregular(16, 4, 8, seed=3),
    "20-2-5": lambda: gen_biregular(20, 2, 5, seed=2),
}


@pytest.mark.parametrize("name", INCIDENCE_CODES)
def test_integer_incidence_matches_coordinate_reference(name):
    """Every integer incidence method against the coordinate-pair functions,
    over every qubit, check and generator (and every mask of views up to 9
    qubits wide; single bits and the full view otherwise)."""
    code = build_hgp(INCIDENCE_CODES[name]())
    dv, dc = code.delta_v, code.delta_c
    width = dv + dc

    def checks_of(*qubits):
        return set(qnbhd(code, QubitSet.from_indices(code, qubits)).to_indices(code))

    want_qubit_gens = {q: [] for q in range(code.num_qubits)}
    want_check_gens = {x: [] for x in range(code.num_checks)}
    masks = range(1 << width) if width <= 9 else [0, -1] + [1 << b for b in range(width)]
    for g in range(code.num_gens):
        for mask in masks:
            want = mask_to_qubitset(code, g, mask & ((1 << width) - 1)).to_indices(code)
            assert sorted(code.gen_qubits(g, mask)) == want
        # Local-view bit b is the b-th qubit listed, VV part first.
        view = code.gen_qubits(g)
        assert view == [mask_to_qubitset(code, g, 1 << b).to_indices(code)[0] for b in range(width)]
        assert all(q < code.n * code.n for q in view[:dc])
        for b, q in enumerate(view):
            want_qubit_gens[q].append((g, 1 << b))
        # Cell i*dv + j is the one check VV qubit i and CC qubit j share.
        grid = code.gen_checks(g)
        assert set(grid) == set(qnbhd(code, supp_generator(code, g)).to_indices(code))
        for i in range(dc):
            for j in range(dv):
                (x,) = checks_of(view[i]) & checks_of(view[dc + j])
                assert grid[i * dv + j] == x
                want_check_gens[x].append((g, 1 << (i * dv + j)))
    for q in range(code.num_qubits):
        assert qubit_gens(code, q) == want_qubit_gens[q]
        assert code.qubit_checks(q) == sorted(checks_of(q))
    for x in range(code.num_checks):
        assert check_gens(code, x) == want_check_gens[x]
        assert code.check_qubits(x) == supp_check(code, x).to_indices(code)


SPAN_CODES = {
    "path": lambda: gen_biregular(2, 1, 2, seed=0),
    "k33": lambda: gen_biregular(3, 3, 3, seed=0),
    "12-3-6": lambda: gen_biregular(12, 3, 6, seed=5),
    "16-4-8": lambda: gen_biregular(16, 4, 8, seed=2),
    "20-2-5": lambda: gen_biregular(20, 2, 5, seed=3),
    "4-4-n16": lambda: gen_biregular(16, 4, 4, seed=1),
}


# The cases whose base has k_Hᵀ = m - rank H = 0, where the span skips the
# elimination of Hᵀ; every other case has k_Hᵀ > 0 and eliminates it.
SPAN_KT_ZERO = {("path", False), ("12-3-6", False)}


@pytest.mark.parametrize("flip", [False, True], ids=["code", "dual"])
@pytest.mark.parametrize("name", SPAN_CODES)
def test_stabilizer_span_matches_row_basis_oracle(name, flip, monkeypatch):
    """``generator_basis()`` (base-code algebra) against the row-echelon
    basis of the full generator matrix: equal rank, equal verdicts on
    stabilizers, stabilizers with one flipped qubit, random kernel vectors of
    the X-check matrix, and stabilizers plus one product e_i·xᵀ on the VV
    block (x in ker H) or z·e_jᵀ on the CC block (z in ker Hᵀ), at any row i
    or column j; such products have zero syndrome.  The (16,4,8), (20,2,5)
    and (4,4) bases have m - rank 1, 1 and 2, so their CC block carries
    logicals too (the (3,6) bases have none).  The cases cover both sides of
    the k_Hᵀ = 0 shortcut: set-up factors H alone when k_Hᵀ = 0 and H and
    Hᵀ otherwise."""
    assert SPAN_KT_ZERO and len(SPAN_KT_ZERO) < 2 * len(SPAN_CODES)
    code = build_hgp(SPAN_CODES[name]())
    if flip:
        code = dual(code)
    factored = []

    class Counting(RestrictedSolver):
        def __init__(self, a):
            factored.append((a.rows, a.cols))
            super().__init__(a)

    monkeypatch.setattr(hgp, "RestrictedSolver", Counting)
    span = code.generator_basis()
    monkeypatch.undo()
    k_ht = code.m - RowBasis(BitMatrix.from_row_supports(code.m, code.n, code.base.adj_c)).rank
    assert (k_ht == 0) == ((name, flip) in SPAN_KT_ZERO)
    assert factored == [(code.m, code.n)] + ([(code.n, code.m)] if k_ht else [])
    gen_matrix, checks = generator_matrix(code), x_check_matrix(code)
    gens = gen_matrix.row_bits
    oracle = RowBasis(gen_matrix)
    assert span.rank == oracle.rank
    assert span.num_logicals == code.num_qubits - RowBasis(checks).rank - oracle.rank
    kernel = RestrictedSolver(checks).kernel_basis()
    h = BitMatrix.from_row_supports(code.m, code.n, code.base.adj_c)
    ker_h = RestrictedSolver(h).kernel_basis()
    ker_ht = RestrictedSolver(h.transpose()).kernel_basis()
    rng = random.Random(f"{name}-{flip}")

    def random_sum(rows):
        bits = 0
        for row in rows:
            if rng.random() < 0.5:
                bits ^= row
        return bits

    verdicts = {True: 0, False: 0}
    for t in range(240):
        kind = t % 4
        if kind == 2:
            bits = random_sum(v.bits for v in kernel)
        else:
            bits = random_sum(gens)
            if kind == 1:
                bits ^= 1 << rng.randrange(code.num_qubits)
            elif kind == 3 and rng.random() < 0.5:
                i = rng.randrange(code.n)
                for nu in BitVector(code.n, random_sum(x.bits for x in ker_h)).support():
                    bits ^= 1 << code.vv_index(i, nu)
            elif kind == 3:
                j = rng.randrange(code.m)
                for zeta in BitVector(code.m, random_sum(z.bits for z in ker_ht)).support():
                    bits ^= 1 << code.cc_index(zeta, j)
        want = oracle.contains(bits)
        qubits = [q for q in range(code.num_qubits) if bits >> q & 1]
        assert span.contains(qubits) == want, (kind, qubits)
        verdicts[want] += 1
    assert verdicts[True] >= 60 and verdicts[False] >= 60


def test_generator_basis_builds_no_kernel_vector(monkeypatch):
    """Set-up of the span at lazy-n240's size back-substitutes the kernels
    bit-sliced: with the per-vector routes raising it completes, and its
    words are the per-vector ones."""
    code = build_hgp(gen_biregular(240, 3, 6, seed=7))

    def refuse(self):
        raise AssertionError("a kernel vector was built")

    monkeypatch.setattr(RestrictedSolver, "iter_kernel", refuse)
    monkeypatch.setattr(RestrictedSolver, "kernel_basis", refuse)
    span = code.generator_basis()
    monkeypatch.undo()
    h = BitMatrix.from_row_supports(code.m, code.n, code.base.adj_c)
    for words, matrix in ((span._vv_words, h), (span._cc_words, h.transpose())):
        assert words == kernel_words(RestrictedSolver(matrix))
    r = RowBasis(h).rank
    assert span.rank == code.num_gens - (code.n - r) * (code.m - r)


def test_project_examples(path_code):
    s = QubitSet.of(path_code, [(0, 0), (1, 0)])
    assert project(s, "V2") == {0}
    assert project(s, "V1") == {0, 1}
    assert project(s, "V1", index=0) == {0}
    assert project(QubitSet.of(path_code), "C1") == set()
    assert project(QubitSet.of(path_code), "C2", index=3) == set()
    with pytest.raises(ValueError):
        project(s, "Q1")


def test_project_slices_partition(mid_code):
    rng = random.Random(3)
    vv = [(rng.randrange(12), rng.randrange(12)) for _ in range(20)]
    cc = [(rng.randrange(6), rng.randrange(6)) for _ in range(10)]
    s = QubitSet.of(mid_code, vv, cc)
    assert sum(len(project(s, "V1", index=i)) for i in project(s, "V1")) == len(s.vv_part)
    assert sum(len(project(s, "C2", index=j)) for j in project(s, "C2")) == len(s.cc_part)


def test_weighted_norm(mid_code):
    code = mid_code  # (delta_v, delta_c) = (3, 6)
    s = QubitSet.of(code, [(0, 0), (0, 1)], [(0, 0), (0, 1), (1, 0)])
    norm = weighted_norm(code, s)
    assert norm == Fraction(4, 3)
    delta = code.delta_v * code.delta_c
    assert delta * norm == 24 == 2 * code.delta_v + 3 * code.delta_c
    assert weighted_norm(code, QubitSet.of(code)) == 0
    assert weighted_norm(code, QubitSet.of(code, [(5, 5)])) == Fraction(1, 6)


def test_syndrome_examples(path_code, k33_code):
    assert syndrome(path_code, QubitSet.of(path_code)) == CheckSet.of(path_code)
    assert syndrome(path_code, QubitSet.of(path_code, [(0, 0)])) == CheckSet.of(path_code, [(0, 0)])
    for code in (path_code, k33_code):
        for g in range(code.num_gens):
            assert syndrome(code, supp_generator(code, g)) == CheckSet.of(code)


def test_syndrome_invariant_under_generator_toggle(mid_code):
    code = mid_code
    rng = random.Random(11)
    for _ in range(25):
        vv = {(rng.randrange(12), rng.randrange(12)) for _ in range(6)}
        cc = {(rng.randrange(6), rng.randrange(6)) for _ in range(3)}
        e = QubitSet.of(code, vv, cc)
        g = rng.randrange(code.num_gens)
        assert syndrome(code, e ^ supp_generator(code, g)) == syndrome(code, e)


def test_css_evenness(path_code, k33_code, mid_code):
    for code in (path_code, k33_code, mid_code):
        for g in range(code.num_gens):
            zs = supp_generator(code, g)
            for x in qnbhd(code, zs).to_indices(code):
                overlap = zs & supp_check(code, x)
                assert overlap.weight % 2 == 0 and overlap.weight > 0


def test_dual(single_edge_code, path_code, k33_code):
    d = dual(path_code)
    assert d.num_checks == 2 and d.num_gens == 2
    assert d.num_qubits == 5
    dd = dual(d)
    assert dd == path_code
    for code in (single_edge_code, path_code, k33_code):
        assert dual(code).k == code.k


def test_minimally_expanding_sets(k33_code, mid_code):
    rng = random.Random(29)
    for code in (k33_code, mid_code):
        for _ in range(20):
            c_prime = set(rng.sample(range(code.m), rng.randint(1, min(2, code.m))))
            v_prime = set(rng.sample(range(code.n), rng.randint(1, 3)))
            gamma_c = {nu for c in c_prime for nu in code.base.adj_c[c]}
            gamma_v = {zeta for v in v_prime for zeta in code.base.adj_v[v]}
            s_v = QubitSet.of(code, ((nu, v) for nu in gamma_c for v in v_prime))
            s_c = QubitSet.of(code, (), ((c, zeta) for c in c_prime for zeta in gamma_v))
            assert qnbhd(code, s_v) == qnbhd(code, s_c)
            assert qnbhd(code, s_v) == CheckSet.of(
                code, ((nu, zeta) for nu in gamma_c for zeta in gamma_v)
            )


def test_max_expanding_lower_bound(k33_code, mid_code):
    # Row-slice accounting: each VV row expands by the left audit, each CC row
    # by the right audit, and halving absorbs double-counted checks.
    rng = random.Random(41)
    for code in (k33_code, mid_code):
        left = audit_expansion(code.base, "left", s_max=3)
        right = audit_expansion(code.base, "right", s_max=3)
        delta = code.delta_v * code.delta_c
        for _ in range(60):
            vv = set()
            for nu in rng.sample(range(code.n), rng.randint(0, 2)):
                vv |= {(nu, v) for v in rng.sample(range(code.n), rng.randint(1, 3))}
            cc = set()
            for c in rng.sample(range(code.m), rng.randint(0, 2)):
                cc |= {(c, zeta) for zeta in rng.sample(range(code.m), rng.randint(1, 3))}
            s = QubitSet.of(code, vv, cc)
            if s.weight == 0:
                continue
            eps_hat = Fraction(0)
            for nu in project(s, "V1"):
                eps_hat = max(eps_hat, left.worst_epsilon_by_size[len(project(s, "V1", nu))])
            for c in project(s, "C1"):
                eps_hat = max(eps_hat, right.worst_epsilon_by_size[len(project(s, "C1", c))])
            bound = Fraction(1, 2) * (1 - eps_hat) * delta * weighted_norm(code, s)
            assert len(qnbhd(code, s)) >= bound


def test_qubitset_text_roundtrip(mid_code):
    s = QubitSet.of(mid_code, [(3, 5), (0, 0)], [(2, 4)])
    text = qubitset_to_text(s)
    assert text == "VV 0 0\nVV 3 5\nCC 2 4\n"
    assert qubitset_from_text(text, mid_code) == s
    assert qubitset_to_text(QubitSet.of(mid_code)) == ""
    assert qubitset_from_text("", mid_code) == QubitSet.of(mid_code)
    assert qubitset_from_text("# comment\n\nVV 1 1\n", mid_code) == QubitSet.of(mid_code, [(1, 1)])


def test_qubitset_parse_errors(mid_code):
    with pytest.raises(QubitParseError, match="line 1"):
        qubitset_from_text("XX 0 0\n", mid_code)
    with pytest.raises(QubitParseError, match="line 2"):
        qubitset_from_text("VV 0 0\nVV 1\n", mid_code)
    with pytest.raises(QubitParseError, match="line 3"):
        qubitset_from_text("VV 0 0\nCC 1 1\nVV a 2\n", mid_code)
    with pytest.raises(QubitParseError, match="line 1"):
        qubitset_from_text("VV 0 12\n", mid_code)
    with pytest.raises(QubitParseError, match="line 1"):
        qubitset_from_text("CC 6 0\n", mid_code)


def test_qubitset_reader_refuses_a_repeated_qubit(mid_code):
    with pytest.raises(QubitParseError, match="line 2: qubit VV 0 0 repeats line 1"):
        qubitset_from_text("VV 0 0\nVV 0 0\n", mid_code)
    with pytest.raises(QubitParseError, match="line 4: qubit CC 2 4 repeats line 2"):
        qubitset_from_text("VV 2 4\nCC 2 4\n# again\nCC  2 4\n", mid_code)
    # The same pair in the two blocks is two qubits.
    assert qubitset_from_text("VV 2 4\nCC 2 4\n", mid_code).weight == 2


def test_sets_of_another_code_do_not_combine(mid_code, path_code):
    """Every binary set operation, ``to_indices``, ``syndrome`` and
    ``verify_coset`` refuse a set whose base sizes (n, m) differ from the
    other operand's or the code's."""
    mine, theirs = QubitSet.of(mid_code, [(0, 0)]), QubitSet.of(path_code, [(0, 0)])
    checks, other_checks = CheckSet.of(mid_code, [(0, 0)]), CheckSet.of(path_code, [(0, 0)])
    refused = [
        lambda: mine | theirs, lambda: mine ^ theirs, lambda: mine & theirs,
        lambda: mine <= theirs, lambda: mine.isdisjoint(theirs),
        lambda: checks | other_checks, lambda: checks <= other_checks,
        lambda: mine.to_indices(path_code), lambda: checks.to_indices(path_code),
        lambda: syndrome(path_code, mine),
        lambda: verify_coset(mid_code, mine, theirs),
        lambda: verify_coset(path_code, mine, mine),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=r"\(n, m\)"):
            call()
    # The (m, n) dual of a code with n != m is another code too.
    with pytest.raises(ValueError):
        mine.to_indices(dual(mid_code))
    with pytest.raises(IndexError):
        QubitSet.from_indices(mid_code, [mid_code.num_qubits])
    with pytest.raises(IndexError):
        CheckSet.from_indices(mid_code, [-1])


def test_index_sets_share_one_constructor(mid_code):
    """``QubitSet``/``CheckSet`` inherit ``_IndexSet``'s constructor, and stay
    frozen, hashable and equal by class and fields, with their cached views."""
    assert QubitSet.__init__ is _IndexSet.__init__ is CheckSet.__init__
    a = QubitSet(mid_code.n, mid_code.m, frozenset({0, 150}))
    b = QubitSet.of(mid_code, [(0, 0)], [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != CheckSet(a.n, a.m, a.indices) and QubitSet(a.n, a.m) == QubitSet.of(mid_code)
    assert (a.vv_part, a.cc_part) == ({(0, 0)}, {(1, 0)})
    assert CheckSet(a.n, a.m, frozenset({7})).members == {(1, 1)}
    with pytest.raises(AttributeError):
        a.indices = frozenset()
    with pytest.raises(AttributeError):
        a.other = 1


@pytest.mark.parametrize("graph", [(12, 3, 6, 5), (60, 3, 6, 1)], ids=["mid", "n60"])
def test_syndrome_matches_pair_counting_oracle(graph):
    """``syndrome`` (XOR of each qubit's checks, by index) against the
    oracle that counts each check's incidences over coordinate pairs, on
    VV-only, CC-only and mixed sets, some of them generator supports, whose
    checks all meet the set twice."""
    n, dv, dc, seed = graph
    code = build_hgp(gen_biregular(n, dv, dc, seed=seed))
    nn = code.n * code.n
    rng = random.Random(f"syndrome-{graph}")
    for t in range(150):
        kind = t % 3
        pool = range(nn) if kind == 0 else range(nn, code.num_qubits) if kind == 1 else range(code.num_qubits)
        error = QubitSet.from_indices(code, rng.sample(pool, rng.randint(1, min(40, len(pool)))))
        if kind == 2 and t % 2:
            error = error ^ supp_generator(code, rng.randrange(code.num_gens))
        want = syndrome_pairs(code, error)
        assert syndrome(code, error) == want, (kind, sorted(error.indices))
        assert syndrome(code, error ^ supp_generator(code, t % code.num_gens)) == want
    for g in range(0, code.num_gens, 7):
        assert syndrome_pairs(code, supp_generator(code, g)) == CheckSet.of(code)


@given(st.sets(st.integers(min_value=0, max_value=179), max_size=25))
@settings(max_examples=60, deadline=None)
def test_qubit_index_roundtrip(indices):
    code = build_hgp(gen_biregular(12, 3, 6, seed=5))
    s = QubitSet.from_indices(code, indices)
    assert s.weight == len(indices)
    assert s.to_indices(code) == sorted(indices)
    assert QubitSet.from_indices(code, s.to_indices(code)) == s
