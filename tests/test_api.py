"""The package exports what the decoder, CLI and bench run; the set-level
references the tests compare against live in ``tests/oracles.py``."""

import ast
import importlib
import inspect
import types
from fractions import Fraction
from pathlib import Path

import hgpdecode
from hgpdecode.gf2 import RestrictedSolver
from hgpdecode.graphs import BipartiteGraph, ExpansionProfile, gen_biregular
from hgpdecode.hgp import CheckSet, QubitSet, build_hgp, syndrome
from hgpdecode.ssfind import DecoderConfig, SsfindState, ssfind

MODULES = [
    importlib.import_module(f"hgpdecode.{name}")
    for name in ("classical", "cli", "erasure", "gf2", "graphs", "harness", "hgp", "reduction", "ssfind")
]
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
# error under its reduction name, now ``ViewWidthError`` in ssfind.
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
}
ROOT = Path(__file__).resolve().parent.parent
# The code the export rule counts callers in: the package, the demos and the
# bench, but not the package's re-exports or any test.
PROGRAM_FILES = [
    *(p for p in sorted((ROOT / "src" / "hgpdecode").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    *(ROOT / "perfbench" / f"{name}.py" for name in ("run", "pipeline", "checks", "workloads")),
]

# Members that only a benchmark test calls, each with that test's file: the
# bench's files change only with the benchmark itself.
BENCH_ONLY = {"_IndexSet.to_indices": ROOT / "perfbench" / "test_perfbench.py"}


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


def _public_members(cls) -> dict[str, str]:
    """``Owner.member`` -> member for every public method, property,
    classmethod and field of ``cls`` and of its package base classes."""
    return {
        f"{owner.__name__}.{name}": name
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
    named as an attribute or a keyword argument somewhere in the package,
    the demos or the bench other than its own body.  The bench-only
    exemptions hold only while their test file still names them."""
    _, attributes, keywords = _names_in(PROGRAM_FILES)
    used = attributes | keywords
    members = {
        key: name for mod in MODULES for attr in mod.__all__
        if inspect.isclass(obj := getattr(mod, attr))
        for key, name in _public_members(obj).items()
    }
    uncalled = sorted(key for key, name in members.items() if name not in used and key not in BENCH_ONLY)
    assert not uncalled, ", ".join(uncalled)
    for key, path in BENCH_ONLY.items():
        assert key in members and members[key] in _names_in([path])[1], (key, path.name)


def test_removed_names_stay_out_of_the_package():
    """Also checked on a finished lazy search and its view tables, whose
    instance attributes a class does not show, on the decoder config, on
    the index set, audit profile and base graph classes, and on a solver
    instance."""
    code = build_hgp(gen_biregular(2, 1, 2, seed=0))
    sigma = syndrome(code, QubitSet.from_indices(code, [0]))
    state = ssfind(code, sigma, DecoderConfig(epsilon=Fraction(1, 20))).state
    assert state.mode == "lazy"
    classes = (SsfindState, DecoderConfig, QubitSet, CheckSet, ExpansionProfile, BipartiteGraph)
    for owner in (hgpdecode, *MODULES, code, state, state.tables, *classes):
        assert not {attr for attr in REMOVED if hasattr(owner, attr)}, owner
    # A solver's rank is its own; the deleted name is gf2's rank function.
    solver = RestrictedSolver([1], 1)
    assert not {attr for attr in REMOVED - {"rank"} if hasattr(solver, attr)}
