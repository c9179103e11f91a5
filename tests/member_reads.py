"""Which public members of the package's exported classes program code reads,
found by running it.

Run as a script: ``python3 tests/member_reads.py``, which imports the
package from the checkout's ``src``.  It wraps attribute reads on every
class a module exports and on that class's package base classes, then
drives the program code: every demo, every CLI subcommand on a small graph,
and the bench's ``setup``, ``run_trial`` (traced and untraced),
``as_report`` and output checks.  A read counts when the frame that makes
it runs a program file (``src/`` without ``__init__.py``, the demos, and
``perfbench/{run,pipeline,checks,workloads}.py``) and the object read is an
instance of the member's owner: the first class in its type's MRO that
defines or annotates the name.  It prints each ``Owner.member`` read, one
per line, sorted.

Classmethods called on the class never pass through an instance read, so
they are not counted here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE_NAMES = ("classical", "cli", "erasure", "gf2", "graphs", "harness", "hgp", "reduction", "ssfind")
PROGRAM_FILES = [
    *(p for p in sorted((ROOT / "src" / "hgpdecode").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    *(ROOT / "perfbench" / f"{name}.py" for name in ("run", "pipeline", "checks", "workloads")),
]


def exported_classes() -> list[type]:
    """Every class in a module's ``__all__``, and its package base classes."""
    out: list[type] = []
    for name in MODULE_NAMES:
        mod = importlib.import_module(f"hgpdecode.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isclass(obj):
                out += [k for k in obj.__mro__ if k.__module__.startswith("hgpdecode.") and k not in out]
    return out


def _defines(cls: type, name: str) -> bool:
    return name in vars(cls) or name in vars(cls).get("__annotations__", {})


def install(classes: list[type]) -> set[str]:
    """Wrap ``__getattribute__`` on ``classes``; returns the set the wrappers
    fill with ``Owner.member`` keys."""
    program = {str(p.resolve()) for p in PROGRAM_FILES}
    is_program: dict[str, bool] = {}
    owners: dict[tuple[type, str], str | None] = {}
    audited = set(classes)
    read: set[str] = set()

    def owner_key(cls: type, name: str) -> str | None:
        owner = next((k for k in cls.__mro__ if _defines(k, name)), None)
        return f"{owner.__name__}.{name}" if owner in audited else None

    def wrap(original):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                filename = sys._getframe(1).f_code.co_filename
                if filename not in is_program:
                    is_program[filename] = os.path.realpath(filename) in program
                if is_program[filename]:
                    key = (type(self), name)
                    if key not in owners:
                        owners[key] = owner_key(*key)
                    if owners[key] is not None:
                        read.add(owners[key])
            return original(self, name)

        return __getattribute__

    originals = {cls: cls.__getattribute__ for cls in classes}
    for cls, original in originals.items():
        cls.__getattribute__ = wrap(original)
    return read


def _quiet(call, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return call(*args, **kwargs)


def drive(workdir: Path) -> None:
    """Run every demo, every CLI subcommand and the bench's trial path."""
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _quiet(runpy.run_path, str(demo), run_name="__main__")

    from hgpdecode import cli

    graph, error, config = workdir / "g.txt", workdir / "e.txt", workdir / "c.txt"
    # The error holds a CC qubit, so the qubit-file reader takes that branch.
    error.write_text("VV 0 0\nCC 1 2\n")
    config.write_text("n=12\ndelta_v=3\ndelta_c=6\ngraph_seed=5\ntrials=4\nweights=1,2\nepsilon=1/20\n")
    runs = [
        ["gen-graph", "--n", "12", "--delta-v", "3", "--delta-c", "6", "--seed", "5"],
        ["gen-graph", "--n", "12", "--delta-v", "3", "--delta-c", "6", "--seed", "5", "--out", str(graph)],
        ["audit", "--graph", str(graph), "--s-max", "2"],
        ["audit", "--graph", str(graph), "--s-max", "2", "--side", "left", "--samples", "3"],
        ["build-hgp", "--graph", str(graph)],
        ["decode", "--graph", str(graph), "--error", str(error), "--epsilon", "1/20",
         "--out-dir", str(workdir / "out"), "--reduce", "greedy", "--detect-ambiguity"],
        # With the wall column, so the report reads each trial's wall time.
        ["montecarlo", "--config", str(config)],
        ["montecarlo", "--config", str(config), "--no-wall", "--out", str(workdir / "mc.txt")],
        ["radius-table", "--r", "1/2", "--epsilon", "1/20", "--delta-c", "6"],
    ]
    for argv in runs:
        # 1 is a decode failure in the output; 2 would mean the run never
        # reached the program's reads.
        assert _quiet(cli.main, argv) in (0, 1), argv

    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks
    from pipeline import NullTracer, Tracer, as_report, campaign_config, run_trial, setup
    from workloads import WORKLOADS

    eager = WORKLOADS["eager-n60"]
    golden = checks.golden_rows((ROOT / eager.golden).read_text(), campaign_config(eager, 1, 0))
    for base, n in (("lazy-n240", 24), ("eager-n60", 12)):
        workload = dataclasses.replace(WORKLOADS[base], n=n)
        ready = setup(workload, 1, Tracer())
        outcomes = [run_trial(ready, k, tracer) for k in range(3) for tracer in (NullTracer(), Tracer())]
        for o in outcomes:
            checks.trial_problems(ready.code, o)
        rows = checks.report_rows([as_report(ready, o) for o in outcomes])
        checks.row_problems(rows, golden, "golden")
        checks.output_digest(outcomes)
        checks.exact_counts(outcomes)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    read = install(exported_classes())
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        drive(Path(tmp))
    print("\n".join(sorted(read)))


if __name__ == "__main__":
    main()
