"""The package exports what the decoder, CLI and bench run; the set-level
references the tests compare against live in ``tests/oracles.py``."""

import importlib
import inspect
import types
from fractions import Fraction

import hgpdecode
from hgpdecode.classical import ClassicalCode
from hgpdecode.gf2 import RestrictedSolver
from hgpdecode.graphs import gen_biregular
from hgpdecode.hgp import QubitSet, build_hgp, syndrome
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
# and bit matrix wrappers, since the GF(2) layer takes and returns plain ints.
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


def test_removed_names_stay_out_of_the_package():
    """Also checked on a finished lazy search and its view tables, whose
    instance attributes a class does not show, on the decoder config, on
    the classical code class, and on a solver instance."""
    code = build_hgp(gen_biregular(2, 1, 2, seed=0))
    sigma = syndrome(code, QubitSet.from_indices(code, [0]))
    state = ssfind(code, sigma, DecoderConfig(epsilon=Fraction(1, 20))).state
    assert state.mode == "lazy"
    classes = (SsfindState, DecoderConfig, ClassicalCode)
    for owner in (hgpdecode, *MODULES, code, state, state.tables, *classes):
        assert not {attr for attr in REMOVED if hasattr(owner, attr)}, owner
    # A solver's rank is its own; the deleted name is gf2's rank function.
    solver = RestrictedSolver([1], 1)
    assert not {attr for attr in REMOVED - {"rank"} if hasattr(solver, attr)}
