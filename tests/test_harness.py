"""Experiment harness: radius table, campaign config, trials, decode files."""

import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from hgpdecode.graphs import (
    GraphParseError,
    audit_expansion,
    gen_biregular,
    graph_to_text,
)
from hgpdecode.erasure import erase_decode_quantum, verify_coset
from hgpdecode import harness
from hgpdecode.harness import (
    CampaignConfig,
    CampaignConfigError,
    _mix64,
    _one_trial,
    _run_trials,
    campaign_to_text,
    decode_once,
    montecarlo,
    radius_table,
    radius_table_to_text,
    reports_to_text,
    resolve_epsilon,
    summarize,
)
from hgpdecode.hgp import (
    HgpCode,
    QubitParseError,
    QubitSet,
    build_hgp,
    qubitset_from_text,
    qubitset_to_text,
    syndrome,
)
from hgpdecode.ssfind import DecoderConfig, trace_to_text


@pytest.fixture(scope="module")
def mid_graph():
    return gen_biregular(12, 3, 6, seed=5)


@pytest.fixture()
def small_config():
    return CampaignConfig(
        n=12,
        delta_v=3,
        delta_c=6,
        graph_seed=5,
        trials=12,
        weights=(1, 2, 3),
        epsilon="1/20",
        reduction="greedy",
        seed=7,
    )


# --------------------------------------------------------------------------
# radius table
# --------------------------------------------------------------------------


def test_radius_rows_keep_exact_rational_parts():
    rows = {r.algorithm: r for r in radius_table(Fraction(1, 2), Fraction(1, 20), 6)}
    assert rows["ssflip-ltz"].scalar == Fraction(1, 21)
    assert rows["ssflip-ltz"].radicand == 1
    assert rows["ssflip-grospellier"].scalar == Fraction(3, 46)
    assert rows["ssflip-grospellier"].radicand == Fraction(5, 4)
    assert rows["ssfind"].scalar == Fraction(1, 16)
    assert rows["ssfind"].radicand == 1


def test_radius_coefficients_match_decimal_oracle():
    rows = radius_table(Fraction(1, 2), Fraction(1, 20), 6)
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(1) / Decimal(2)
        eps = Decimal(1) / Decimal(20)
        q = 2 * r * (1 - 8 * eps)
        oracle = {
            "ssflip-ltz": Decimal(1) / 21,
            "ssflip-grospellier": q / (4 + q) * r / (1 + r * r).sqrt(),
            "ssfind": (1 - 10 * eps) / 4 * r,
        }
    for row in rows:
        assert abs(row.coefficient() - oracle[row.algorithm]) < Decimal("1E-30")
    text = radius_table_to_text(rows)
    assert "ssflip-ltz 0.047619" in text
    assert "ssflip-grospellier 0.058332" in text
    assert "ssfind 0.062500" in text


@pytest.mark.parametrize(
    "epsilon, flags",
    [
        (Fraction(9, 100), (True, True, True)),
        (Fraction(1, 10), (True, True, False)),
        (Fraction(1, 8), (True, False, False)),
        (Fraction(1, 6), (False, False, False)),
    ],
)
def test_radius_validity_flags_mark_rows_without_dropping_them(epsilon, flags):
    rows = radius_table(Fraction(1, 2), epsilon, 6)
    assert [r.algorithm for r in rows] == ["ssflip-ltz", "ssflip-grospellier", "ssfind"]
    assert tuple(r.valid for r in rows) == flags
    text = radius_table_to_text(rows)
    assert len(text.strip().splitlines()) == 4  # header + all three rows


@pytest.mark.parametrize(
    "r, epsilon, delta_c",
    [
        (Fraction(0), Fraction(1, 20), 6),
        (Fraction(3, 2), Fraction(1, 20), 6),
        (Fraction(1, 2), Fraction(-1, 20), 6),
        (Fraction(1, 2), Fraction(1, 20), 0),
    ],
)
def test_radius_table_rejects_out_of_range_parameters(r, epsilon, delta_c):
    with pytest.raises(ValueError):
        radius_table(r, epsilon, delta_c)


@pytest.mark.parametrize("r, epsilon, name", [(0.5, Fraction(1, 20), "r"), (Fraction(1, 2), 0.05, "epsilon")])
def test_radius_table_refuses_float_parameters(r, epsilon, name):
    """A float would be rounded through binary: 0.05 becomes
    3602879701896397/72057594037927936, printed and judged in every row."""
    with pytest.raises(TypeError, match=f"^{name} must be exact"):
        radius_table(r, epsilon, 6)


# --------------------------------------------------------------------------
# campaign config parsing
# --------------------------------------------------------------------------


def test_config_text_roundtrip(small_config):
    text = small_config.to_text()
    assert CampaignConfig.from_text(text) == small_config
    assert CampaignConfig.from_text("# comment\n\n" + text) == small_config


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nonsense", "line 1"),
        ("n=12\ncolor=blue", "line 2: unknown key"),
        ("n=12\nn=14", "line 2: duplicate key"),
        ("n=12", "missing keys"),
    ],
)
def test_config_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(CampaignConfigError, match=fragment):
        CampaignConfig.from_text(text)


def test_config_parse_rejects_unparseable_weights():
    base = "n=12\ndelta_v=3\ndelta_c=6\ngraph_seed=5\ntrials=4\nepsilon=1/20\n"
    with pytest.raises(CampaignConfigError, match="weights"):
        CampaignConfig.from_text(base + "weights=1,two\n")


def test_config_reduction_is_none_or_greedy():
    base = "n=12\ndelta_v=3\ndelta_c=6\ngraph_seed=5\ntrials=4\nweights=1\nepsilon=1/20\n"
    for mode in ("none", "greedy"):
        assert CampaignConfig.from_text(base + f"reduction={mode}\n").reduction == mode
    with pytest.raises(CampaignConfigError, match=r"one of \('none', 'greedy'\), got 'exact'"):
        CampaignConfig.from_text(base + "reduction=exact\n")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": -1},
        {"weights": ()},
        {"weights": (1, -2)},
        {"reduction": "magic"},
        {"epsilon": "fast"},
        {"epsilon": "audit:0"},
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    fields = {
        "n": 12, "delta_v": 3, "delta_c": 6, "graph_seed": 5,
        "trials": 4, "weights": (1,), "epsilon": "1/20",
    }
    fields.update(kwargs)
    with pytest.raises(CampaignConfigError):
        CampaignConfig(**fields)


def test_resolve_epsilon_literal_and_audit(mid_graph):
    eps, audited = resolve_epsilon("1/20", mid_graph)
    assert eps == Fraction(1, 20) and audited == ()

    eps, audited = resolve_epsilon("audit:2", mid_graph)
    expected = {}
    for side in ("left", "right"):
        profile = audit_expansion(mid_graph, side, 2)
        for s in (1, 2):
            expected[(side, s)] = profile.worst_epsilon_by_size[s]
    assert eps == max(expected.values())
    assert audited == tuple((side, s, expected[(side, s)]) for side in ("left", "right") for s in (1, 2))


# --------------------------------------------------------------------------
# per-trial seeds and campaign determinism
# --------------------------------------------------------------------------


def test_per_trial_seeds_follow_splitmix64_reference_vectors():
    # First three outputs of the reference splitmix64 stream seeded with 0.
    assert _mix64(0, 0) == 0xE220A8397B1DCDAF
    assert _mix64(0, 1) == 0x6E789E6AA1B965F4
    assert _mix64(0, 2) == 0x06C45D188009454F


def test_montecarlo_is_deterministic_and_reports_are_consistent(small_config):
    first = montecarlo(small_config)
    second = montecarlo(small_config)
    assert campaign_to_text(first, include_wall=False) == campaign_to_text(second, include_wall=False)

    assert first.epsilon == Fraction(1, 20)
    assert (first.n, first.m) == (12, 6)
    for k, report in enumerate(first.reports):
        assert report.trial == k
        assert report.seed == _mix64(small_config.seed, k)
        assert report.sampled_weight == small_config.weights[k % len(small_config.weights)]
        assert report.reduced_weight <= report.sampled_weight
        if report.reduced_weight:
            assert report.ratio == Fraction(report.envelope_size, report.reduced_weight)
        else:
            assert report.ratio is None
    assert first.summary == summarize(first.reports)
    for row in first.summary:
        members = [r for r in first.reports if r.sampled_weight == row.weight]
        assert row.trials == len(members)
        assert row.successes == sum(r.succeeded for r in members)
        assert row.rate == Fraction(row.successes, row.trials)
        assert row.max_envelope == max(r.envelope_size for r in members)


def test_montecarlo_parallel_run_matches_sequential(small_config):
    sequential = montecarlo(small_config, workers=1)
    parallel = montecarlo(small_config, workers=2)
    assert reports_to_text(sequential.reports, include_wall=False) == reports_to_text(
        parallel.reports, include_wall=False
    )
    assert sequential.summary == parallel.summary


def test_importing_the_package_loads_no_process_pool():
    """Only a parallel campaign imports the process pool: a fresh interpreter
    that imports the package has not loaded ``concurrent.futures.process``."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, hgpdecode; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_worker_count_comes_only_from_the_argument(monkeypatch, small_config):
    """``workers`` is the one way to set the count: 0 is refused, and an
    environment variable of the old name is not read."""
    with pytest.raises(CampaignConfigError, match="at least 1, got 0"):
        montecarlo(small_config, workers=0)
    monkeypatch.setenv("HGPDECODE_WORKERS", "two")
    result = montecarlo(small_config)
    assert [r.trial for r in result.reports] == list(range(small_config.trials))


def test_weight_zero_trials_trivially_succeed(small_config):
    config = CampaignConfig(
        n=12, delta_v=3, delta_c=6, graph_seed=5,
        trials=5, weights=(0,), epsilon="1/20", seed=1,
    )
    result = montecarlo(config)
    assert result.all_succeeded
    for report in result.reports:
        assert report.reduced_weight == 0
        assert report.envelope_size == 0
        assert report.ratio is None
    assert result.summary[0].max_ratio is None
    assert " - " in reports_to_text(result.reports, include_wall=False)


def test_montecarlo_refuses_a_weight_above_the_qubit_count(monkeypatch):
    """n = 12 gives N = 144 + 36 = 180 qubits: a weight of 180 samples them
    all, and 500 is refused with both numbers named before any trial runs."""
    config = CampaignConfig(
        n=12, delta_v=3, delta_c=6, graph_seed=5,
        trials=1, weights=(180,), epsilon="1/20", seed=1,
    )
    assert montecarlo(config).reports[0].sampled_weight == 180

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_one_trial", no_trial)
    config = dataclasses.replace(config, trials=3, weights=(1, 500))
    with pytest.raises(CampaignConfigError, match="weight 500 .*N = 180"):
        montecarlo(config)


def test_campaign_text_layout(small_config):
    result = montecarlo(small_config)
    text = campaign_to_text(result, include_wall=False)
    lines = text.splitlines()
    assert lines[0].startswith("# campaign n=12 m=6 delta_v=3 delta_c=6 graph_seed=5")
    assert lines[1] == "# epsilon spec=1/20 used=1/20"
    assert "# trial seed weight reduced envelope ratio status coset" in lines
    assert "# weight trials successes rate max_ratio max_envelope" in lines
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == small_config.trials + len(result.summary)


# --------------------------------------------------------------------------
# single decode with file outputs
# --------------------------------------------------------------------------


def test_decode_once_writes_parseable_artifacts(tmp_path, mid_graph):
    code = build_hgp(mid_graph)
    graph_path = tmp_path / "graph.txt"
    error_path = tmp_path / "error.txt"
    graph_path.write_text(graph_to_text(mid_graph))
    error_path.write_text(qubitset_to_text(QubitSet.from_indices(code, [0, 100])))

    out_dir = tmp_path / "out"
    outcome = decode_once(graph_path, error_path, "1/20", out_dir, reduction="greedy")
    assert outcome.succeeded
    assert outcome.epsilon == Fraction(1, 20)
    assert sorted(p.rsplit("/", 1)[1] for p in outcome.files) == [
        "envelope.txt",
        "trace.txt",
        "verdict.txt",
    ]

    envelope = qubitset_from_text((out_dir / "envelope.txt").read_text(), outcome.code)
    assert envelope == outcome.search.envelope
    assert (out_dir / "trace.txt").read_text() == trace_to_text(outcome.search.trace)
    verdict_lines = (out_dir / "verdict.txt").read_text().splitlines()
    fields = dict(ln.split("=", 1) for ln in itertools.takewhile(lambda l: "=" in l, verdict_lines))
    assert fields["status"] == "success"
    assert fields["coset_equivalent"] == "1"
    assert int(fields["envelope_size"]) == outcome.search.envelope.weight
    correction = qubitset_from_text(
        "\n".join(verdict_lines[verdict_lines.index("# correction") + 1 :]), outcome.code
    )
    assert correction == outcome.verdict.correction


def test_decode_once_rejects_malformed_inputs(tmp_path, mid_graph):
    graph_path = tmp_path / "graph.txt"
    error_path = tmp_path / "error.txt"
    graph_path.write_text(graph_to_text(mid_graph))

    error_path.write_text("VV 0 0\nXX 1 1\n")
    with pytest.raises(QubitParseError, match="line 2"):
        decode_once(graph_path, error_path, "1/20")

    bad_graph = tmp_path / "bad.txt"
    bad_graph.write_text("not a graph header\n")
    error_path.write_text("VV 0 0\n")
    with pytest.raises(GraphParseError):
        decode_once(bad_graph, error_path, "1/20")

    for mode in ("backwards", "exact"):
        with pytest.raises(CampaignConfigError):
            decode_once(graph_path, error_path, "1/20", reduction=mode)


def test_campaign_memory_stays_bounded():
    """A decode leaves nothing behind per qubit, check or generator: after a
    warm-up, 200 more trials grow the heap by less than 256 KiB."""
    config = CampaignConfig(
        n=60, delta_v=3, delta_c=6, graph_seed=7, trials=220, weights=(10,),
        epsilon="1/20", seed=1,
    )
    code = build_hgp(gen_biregular(60, 3, 6, seed=7))
    decoder = DecoderConfig(epsilon=Fraction(1, 20))
    for k in range(20):
        _one_trial(code, config, decoder, (), k)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20, 220):
            _one_trial(code, config, decoder, (), k)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, f"heap grew {grown // 1024} KiB over 200 trials"


# --------------------------------------------------------------------------
# the trial path runs on integer indices
# --------------------------------------------------------------------------


def _refusing(name):
    def accessor(self, *args):
        raise AssertionError(f"HgpCode.{name} called")
    return accessor


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_trial_path_calls_no_coordinate_accessor(monkeypatch):
    """Lazy and eager campaign trials and an ambiguity-checked solve run with
    every coordinate accessor of ``HgpCode`` raising, and give what they give
    with the accessors in place.  The patched run goes first, on its own code
    object, so it starts from no cached factorization."""
    graph = gen_biregular(60, 3, 6, seed=1)
    runs = []
    for spec, trials in (("1/20", 40), ("audit:3", 3)):
        config = CampaignConfig(
            n=60, delta_v=3, delta_c=6, graph_seed=1, trials=trials,
            weights=(2, 5, 9), epsilon=spec, seed=11,
        )
        runs.append((config, *resolve_epsilon(spec, graph)))

    def run_all():
        code = build_hgp(graph)
        texts = [
            reports_to_text(_run_trials(code, config, eps, audited, range(config.trials)), include_wall=False)
            for config, eps, audited in runs
        ]
        error = QubitSet.from_indices(code, [5, 77, 3700])
        envelope = error | QubitSet.from_indices(code, range(0, code.num_qubits, 97))
        verdict = erase_decode_quantum(code, syndrome(code, error), envelope, detect_ambiguity=True)
        return texts, verdict, verify_coset(code, verdict.correction, error)

    with monkeypatch.context() as patched:
        for name in ("qubit_coords", "vv_index", "cc_index"):
            patched.setattr(HgpCode, name, _refusing(name))
        got = run_all()
    assert got == run_all()
    lazy, eager = got[0]
    assert "success" in lazy and "success" in eager
