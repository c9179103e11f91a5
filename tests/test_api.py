"""The package exports what the decoder, CLI and bench run; the set-level
references the tests compare against live in ``tests/oracles.py``."""

import ast
import importlib
import inspect
import subprocess
import sys
import types
from fractions import Fraction

import hgpdecode
from hgpdecode.gf2 import RestrictedSolver
from hgpdecode.graphs import BipartiteGraph, ExpansionProfile, audit_expansion, gen_biregular
from hgpdecode.hgp import CheckSet, QubitSet, build_hgp, syndrome
from hgpdecode.ssfind import DecoderConfig, SsfindResult, SsfindState, ssfind

from member_reads import MODULE_NAMES, PROGRAM_FILES, ROOT

MODULES = [importlib.import_module(f"hgpdecode.{name}") for name in MODULE_NAMES]
# Names that moved to tests/oracles.py or were deleted as wrappers: from gf2,
# graphs, hgp, reduction and ssfind, then HgpCode and SsfindState members;
# then the ssfind and erasure helpers and the SsfindState steps that the
# fused pick loop and the peel-first solve replaced; then the brute-force
# distance hint, the truth-aware verdict helper, the second list of
# reductions, and the HgpCode accessors that only the tests called; then the
# lazy seed's side store of words and the per-generator view class; then the
# per-mask arrays of the view tables that the separable search replaced; then
# the exit audit's switch and sweep and the mask catalog, which moved to the
# oracles; then the classical decode's parity matrix and matrix-vector
# product, and the solver's column restriction, which lost their callers
# when both codes came to share one erasure completion; then the bit vector
# and bit matrix wrappers, since the GF(2) layer takes and returns plain ints;
# then the trace reader, the graph writer, the solver's kernel list and the
# graph's mask lists, which only tests called, and the worker count's
# environment fallback; then the class members only tests named (the index
# sets' coordinate constructors, pair view and disjointness test, the code's
# check index, the finished search's per-generator readers and the audit's
# size cap), the classical code wrapper around its graph, and the view-width
# error under its reduction name, now ``ViewWidthError`` in ssfind; then the
# graph's second constructor, the classical finder's result record, and the
# audit profile's side and the search result's suspicious checks, which
# program code never read on their owners.
REMOVED = {
    "RowBasis", "rank", "in_rowspace", "solve_restricted", "neighbors", "unique_neighbors",
    "supp_generator", "supp_check", "qnbhd", "qnbhd_unique", "project", "weighted_norm", "dual",
    "Candidate", "enumerate_minsets", "is_locally_reduced", "mask_to_qubitset",
    "score", "candidate_seeding", "x_check_matrix", "generator_matrix", "_x_matrix",
    "_gen_matrix", "alive_masks", "cached_score", "cached_scores", "_incidences", "_kernel_words",
    "_ZeroDefault", "_SeededView", "_restricted_system",
    "_rescore", "_refresh", "_select", "_retire", "_mark_fresh",
    "design_distance_hint", "_min_kernel_weight", "_verdict", "_REDUCTIONS",
    "qubit_gens", "check_gens", "gen_index", "gen_coords", "check_coords",
    "_GenView", "_seed_words", "_seed_masks", "_seed_gens", "seeded_gens",
    "split_words", "_CHUNK_PAIRS", "den_off", "np_masks", "np_uq", "py_uq", "py_cov", "py_den",
    "verify_exit", "_verify_exit", "_qualifying", "locally_reduced_masks", "part_sizes",
    "parity_matrix", "mul_vector", "support_mask",
    "BitVector", "BitMatrix",
    "trace_from_text", "TraceParseError", "write_graph", "kernel_basis", "left_masks", "right_masks",
    "_resolve_workers",
    "of", "members", "isdisjoint", "check_index", "rmask", "retired", "max_set_size",
    "ClassicalCode", "ReductionConfigError",
    "from_left_adjacency", "FindResult", "side", "suspicious",
}
# Members that only a bench file uses, each with that file: the bench's files
# change only with the benchmark itself.  Only the bench's tests call
# ``to_indices``; ``pipeline.as_report`` passes the six report fields as
# keywords, and no program code reads them.
BENCH_ONLY = {
    "_IndexSet.to_indices": ROOT / "perfbench" / "test_perfbench.py",
    **{
        f"TrialReport.{name}": ROOT / "perfbench" / "pipeline.py"
        for name in ("n", "m", "delta_v", "delta_c", "audited", "epsilon")
    },
}


def _names_in(paths) -> tuple[set[str], set[str], set[str]]:
    """The names the files use outside the body of the function of that
    name: as bare names, as attributes and as keyword arguments."""
    names: set[str] = set()
    attributes: set[str] = set()
    keywords: set[str] = set()

    def visit(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attributes.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg not in inside:
            keywords.add(node.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return names, attributes, keywords


def _public_members(cls) -> dict[str, tuple[type, str]]:
    """``Owner.member`` -> (owner, member) for every public method, property,
    classmethod and field of ``cls`` and of its package base classes."""
    return {
        f"{owner.__name__}.{name}": (owner, name)
        for owner in cls.__mro__ if owner.__module__.startswith("hgpdecode.")
        for name in [*vars(owner), *vars(owner).get("__annotations__", {})]
        if not name.startswith("_")
    }


def test_module_exports_are_defined_there():
    for mod in MODULES:
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (mod.__name__, attr)


def test_package_names_are_module_exports():
    exported = {attr for mod in MODULES for attr in mod.__all__}
    public = {
        attr for attr, obj in vars(hgpdecode).items()
        if not attr.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public <= exported, sorted(public - exported)


def test_every_exported_function_has_a_program_caller():
    """A function in a module's ``__all__`` is named somewhere in the
    package, the demos or the bench other than its own body: an export only
    tests call is dead surface."""
    names, attributes, _ = _names_in(PROGRAM_FILES)
    used = names | attributes
    uncalled = {
        f"{mod.__name__}.{attr}" for mod in MODULES for attr in mod.__all__
        if inspect.isfunction(getattr(mod, attr)) and attr not in used
    }
    assert not uncalled, sorted(uncalled)


def test_every_public_member_has_a_program_caller():
    """A public member of an exported class, inherited ones included, is
    read by program code on an instance of its owner, as
    ``tests/member_reads.py`` records by running the demos, the CLI and the
    bench's trial path; another object's attribute of the same name does
    not count.  A classmethod is called on its class, never read on an
    instance, so it passes when program code names it as an attribute
    outside its own body.  The bench-only exemptions hold only while their
    file still names them."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "member_reads.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    read = set(done.stdout.split())
    attributes = _names_in(PROGRAM_FILES)[1]
    members = {
        key: member for mod in MODULES for attr in mod.__all__
        if inspect.isclass(obj := getattr(mod, attr))
        for key, member in _public_members(obj).items()
    }

    def used(key: str) -> bool:
        owner, name = members[key]
        if isinstance(vars(owner).get(name), (classmethod, staticmethod)):
            return name in attributes
        return key in read

    unused = sorted(key for key in members if not used(key) and key not in BENCH_ONLY)
    assert not unused, ", ".join(unused)
    for key, path in BENCH_ONLY.items():
        _, path_attributes, path_keywords = _names_in([path])
        assert key in members and members[key][1] in path_attributes | path_keywords, (key, path.name)


def test_removed_names_stay_out_of_the_package():
    """Also checked on a finished lazy search and its view tables, whose
    instance attributes a class does not show, on the search result and an
    audit profile, whose fields without defaults a class does not show
    either, on the decoder config, on the index set, audit profile, search
    result and base graph classes, and on a solver instance."""
    graph = gen_biregular(2, 1, 2, seed=0)
    code = build_hgp(graph)
    sigma = syndrome(code, QubitSet.from_indices(code, [0]))
    found = ssfind(code, sigma, DecoderConfig(epsilon=Fraction(1, 20)))
    state = found.state
    assert state.mode == "lazy"
    classes = (SsfindState, DecoderConfig, QubitSet, CheckSet, ExpansionProfile, SsfindResult, BipartiteGraph)
    profile = audit_expansion(graph, "left", 1)
    for owner in (hgpdecode, *MODULES, code, found, state, state.tables, profile, *classes):
        assert not {attr for attr in REMOVED if hasattr(owner, attr)}, owner
    # A solver's rank is its own; the deleted name is gf2's rank function.
    solver = RestrictedSolver([1], 1)
    assert not {attr for attr in REMOVED - {"rank"} if hasattr(solver, attr)}
