"""The benchmark's own tests: its output check can fail, and its seed argument
moves only the drawn errors.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from hgpdecode import QubitSet, montecarlo  # noqa: E402
from pipeline import (  # noqa: E402
    NullTracer, Tracer, as_report, campaign_config, draw_error, run_trial, setup,
)
from run import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A small lazy (3,6) code: same layers as lazy-n240, milliseconds per trial.
SMALL = dataclasses.replace(WORKLOADS["lazy-n240"], name="small", n=60)


@pytest.fixture(scope="module")
def ready():
    return setup(SMALL, 3, Tracer())


@pytest.fixture(scope="module")
def outcomes(ready):
    return [run_trial(ready, k, NullTracer()) for k in range(4)]


def test_untampered_outcomes_pass_every_check(ready, outcomes):
    reference = montecarlo(campaign_config(SMALL, 3, len(outcomes)), workers=1)
    mine = checks.report_rows([as_report(ready, o) for o in outcomes])
    assert all(o.status == "success" for o in outcomes)
    assert checks.row_problems(mine, checks.report_rows(reference.reports), "mc") == {}
    assert all(checks.trial_problems(ready.code, o) == [] for o in outcomes)


def test_flipped_coset_bit_is_reported(ready, outcomes):
    reference = checks.report_rows(montecarlo(campaign_config(SMALL, 3, 1), workers=1).reports)
    o = outcomes[0]
    tampered = dataclasses.replace(o, coset_equivalent=not o.coset_equivalent)
    mine = checks.report_rows([as_report(ready, tampered)])
    assert list(checks.row_problems(mine, reference, "mc")) == [0]


def test_envelope_missing_one_qubit_is_reported(ready, outcomes):
    o = outcomes[0]
    dropped = QubitSet.from_indices(ready.code, o.correction.to_indices(ready.code)[:1])
    tampered = dataclasses.replace(o, envelope=o.envelope ^ dropped)
    found = checks.trial_problems(ready.code, tampered)
    assert "correction leaves the envelope" in found
    assert any("the trace ends at" in p for p in found)


def test_golden_rows_refuse_another_workload():
    text = (ROOT / WORKLOADS["eager-n60"].golden).read_text()
    assert len(checks.golden_rows(text, campaign_config(WORKLOADS["eager-n60"], 1, 0))) == 500
    assert checks.golden_rows(text, campaign_config(WORKLOADS["eager-n60"], 2, 0)) is None
    with pytest.raises(ValueError):
        checks.golden_rows(text, campaign_config(WORKLOADS["lazy-n240"], 1, 0))


def test_seed_changes_drawn_errors_and_nothing_else():
    one, two = setup(SMALL, 1, Tracer()), setup(SMALL, 2, Tracer())
    assert one.code == two.code and one.epsilon == two.epsilon
    cfg_one = dataclasses.asdict(campaign_config(SMALL, 1, 5))
    cfg_two = dataclasses.asdict(campaign_config(SMALL, 2, 5))
    assert {k for k in cfg_one if cfg_one[k] != cfg_two[k]} == {"seed"}
    for k in range(5):
        a, b = run_trial(one, k, NullTracer()), run_trial(two, k, NullTracer())
        assert a.seed != b.seed and a.reduced != b.reduced


def test_draws_follow_montecarlo_seed_stream():
    reports = montecarlo(campaign_config(SMALL, 11, 7), workers=1).reports
    drawn = setup(SMALL, 11, Tracer())
    assert [draw_error(drawn, k)[:2] for k in range(7)] == [
        (r.seed, r.sampled_weight) for r in reports
    ]


def test_tail_leaves_ten_trials_beyond_it():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _checkout_copy(tmp_path: Path, with_sources: bool = True) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "golden", dest / "tests" / "golden")
    return dest


def _run(checkout: Path, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eager-n60", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def test_benchmark_json_lists_the_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in declared)


def test_command_exits_nonzero_when_a_golden_row_differs(tmp_path):
    checkout = _checkout_copy(tmp_path)
    passed = _run(checkout)
    assert passed.returncode == 0, passed.stderr
    result = json.loads(passed.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == _declared("end_to_end")

    golden = checkout / WORKLOADS["eager-n60"].golden
    text = golden.read_text()
    row = "0 10451216379200822465 1 1 4500 4500.000000 success 1\n"
    assert row in text
    golden.write_text(text.replace(row, row[:-2] + "0\n"))
    failed = _run(checkout)
    result = json.loads(failed.stdout.splitlines()[-1])
    assert failed.returncode == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_refuses_a_directory_without_sources(tmp_path):
    bare = _checkout_copy(tmp_path, with_sources=False)
    done = _run(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def test_command_exits_nonzero_when_the_digest_differs_from_the_record(tmp_path):
    checkout = _checkout_copy(tmp_path)
    wrong = {"eager-n60": {"1": {"sha256": "0" * 64, "counts": {}}}}
    (checkout / "perfbench" / "reference.json").write_text(json.dumps(wrong))
    done = _run(checkout, trace=1)
    result = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] == 0
    assert list(result["metrics"]) == _declared("per_layer")
