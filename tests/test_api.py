"""The package exports what the decoder, CLI and bench run; the set-level
references the tests compare against live in ``tests/oracles.py``."""

import importlib
import inspect
import types

import hgpdecode
from hgpdecode.graphs import gen_biregular
from hgpdecode.hgp import build_hgp
from hgpdecode.ssfind import SsfindState

MODULES = [
    importlib.import_module(f"hgpdecode.{name}")
    for name in ("classical", "cli", "erasure", "gf2", "graphs", "harness", "hgp", "reduction", "ssfind")
]
# Names that moved to tests/oracles.py or were deleted as wrappers: from gf2,
# graphs, hgp, reduction and ssfind, then HgpCode and SsfindState members.
REMOVED = {
    "RowBasis", "rank", "in_rowspace", "solve_restricted", "neighbors", "unique_neighbors",
    "supp_generator", "supp_check", "qnbhd", "qnbhd_unique", "project", "weighted_norm", "dual",
    "Candidate", "enumerate_minsets", "is_locally_reduced", "mask_to_qubitset",
    "score", "candidate_seeding", "x_check_matrix", "generator_matrix", "_x_matrix",
    "_gen_matrix", "alive_masks", "cached_score", "_incidences",
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
    code = build_hgp(gen_biregular(2, 1, 2, seed=0))
    for owner in (hgpdecode, *MODULES, code, SsfindState):
        assert not {attr for attr in REMOVED if hasattr(owner, attr)}, owner
