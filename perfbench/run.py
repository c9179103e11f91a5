"""Decode benchmark for hgpdecode: one workload, one process, one thread.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lazy-n240 --seed 1 --seconds 10 --trace 0

The run builds the workload's code (``setup_s`` is the median of several cold
set-ups, each but the last in a fresh interpreter), then decodes trial after
trial in a closed loop for ``--seconds`` seconds, then checks the outputs.
``peak_rss_mb`` is read after a fixed number of trials, so a faster decoder
does not read as a larger one.
Every metric is printed by name and unit; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` decodes every
trial twice, once with spans and rescore counting on and once with them off,
alternating which goes first, and reports the per-layer metrics and the
tracing overhead.  Spans and run details are written to ``perfbench/out/``.

Exit status: 0 when every output check passes, 1 when one fails, 2 when the
arguments are bad or the checkout holds no ``src/hgpdecode``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Setting these before numpy loads keeps its thread pools to one thread.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The tail percentile must leave at least this many trials beyond it.
TAIL_BEYOND = 10


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "hgpdecode" / "__init__.py").is_file():
        print(f"perfbench: {src / 'hgpdecode'} is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import hgpdecode

    if Path(hgpdecode.__file__).resolve().parent != (src / "hgpdecode").resolve():
        print(f"perfbench: imported hgpdecode from {hgpdecode.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        return _setup_only(workload, args.seed)
    return _measure(workload, args, root)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="campaign seed")
    p.add_argument("--seconds", type=float, required=True, help="length of the trial phase")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up and print its spans as JSON (internal)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_only(workload, seed: int) -> int:
    from pipeline import Tracer, setup

    tracer = Tracer()
    setup(workload, seed, tracer)
    print(json.dumps({s.name: s.seconds for s in tracer.spans}))
    return 0


def _cold_setup(workload, args, root: Path) -> dict[str, float]:
    """One set-up in a fresh interpreter, so no per-process cache is warm."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        cwd=root, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _measure(workload, args, root: Path) -> int:
    load_start = os.getloadavg()
    setups = [_cold_setup(workload, args, root) for _ in range(workload.setup_repeats - 1)]

    import numpy

    import checks
    from hgpdecode import montecarlo
    from pipeline import NullTracer, Tracer, as_report, campaign_config, run_trial, setup

    setup_tracer = Tracer()
    ready = setup(workload, args.seed, setup_tracer)
    setups.append({s.name: s.seconds for s in setup_tracer.spans})
    code = ready.code

    golden = None
    if workload.golden is not None:
        golden = checks.golden_rows(
            (root / workload.golden).read_text(), campaign_config(workload, args.seed, 0)
        )

    # ---- trial phase: closed loop, one trial at a time ----
    untraced = NullTracer()
    tracer = Tracer() if args.trace else untraced
    problems: dict[int, list[str]] = {}
    latencies: list[float] = []
    traced_latencies: list[float] = []
    traced: list = []
    prefix: list = []
    rows: dict[int, str] = {}
    successes = 0
    peak_rss_mib = None
    at_least = max(workload.check_prefix, workload.rss_trials)
    k = 0
    started = time.perf_counter()
    while k < at_least or time.perf_counter() - started < args.seconds:
        order = (untraced,) if not args.trace else (
            (untraced, tracer) if k % 2 == 0 else (tracer, untraced)
        )
        outcomes = []
        for tr in order:
            try:
                o = run_trial(ready, k, tr)
            except Exception:
                problems.setdefault(k, []).append(traceback.format_exc())
                continue
            found = checks.trial_problems(code, o)
            if found:
                problems.setdefault(k, []).extend(found)
            (traced_latencies if tr.active else latencies).append(o.seconds)
            outcomes.append(o)
        if len(outcomes) == len(order):
            # In a traced run the traced decode stands for the trial, and the
            # untraced one must agree with it.
            o = outcomes[order.index(tracer)]
            if args.trace:
                if _comparable(outcomes[0]) != _comparable(outcomes[1]):
                    problems.setdefault(k, []).append(
                        "traced and untraced decodes of this trial differ")
                traced.append(o)
            successes += o.succeeded
            if k < workload.check_prefix:
                prefix.append(o)
            if golden is not None:
                rows.update(checks.report_rows([as_report(ready, o)]))
        k += 1
        if k == workload.rss_trials:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trials = k

    # ---- output checks, outside the timed window ----
    mine = checks.report_rows([as_report(ready, o) for o in prefix])
    if golden is not None:
        for t, msg in checks.row_problems(rows, golden, workload.golden).items():
            problems.setdefault(t, []).append(msg)
    basis_rank = ready.basis_rank
    setup_spans = setup_tracer.spans
    # montecarlo builds its own code; free this one first so that a
    # 72k-qubit run does not hold two generator bases at once.
    del ready, code
    gc.collect()
    reference_run = montecarlo(campaign_config(workload, args.seed, len(prefix)), workers=1)
    reference_rows = checks.report_rows(reference_run.reports)
    for t, msg in checks.row_problems(mine, reference_rows, "harness.montecarlo").items():
        problems.setdefault(t, []).append(msg)
    for t in range(len(prefix)):
        if t not in reference_rows or t not in mine:
            problems.setdefault(t, []).append("trial missing from the montecarlo comparison")
    digest = checks.output_digest(prefix)
    counts = checks.exact_counts(prefix)
    recorded = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(args.seed))
    run_problems = [] if recorded is None else _reference_problems(recorded, digest, counts)
    unchecked = []
    if recorded is None:
        unchecked.append(f"no recorded digest or counts for seed {args.seed} in {REFERENCE.name}")
    if workload.golden is not None and golden is None:
        unchecked.append(f"{workload.golden} was run at another seed; no golden rows compared")
    failed = len(problems)
    correct = failed == 0 and not run_problems

    # ---- metrics ----
    notes: dict[str, str] = {}
    if args.trace:
        metrics = _layer_metrics(tracer.spans, setups, traced, basis_rank,
                                 latencies, traced_latencies, notes)
    else:
        metrics = _end_to_end(setups, latencies, peak_rss_mib, workload.rss_trials, notes)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "trials": trials,
        "trial_tail_ms": _tail_record(latencies),
        "decode_success_frac": successes / trials,
        "failed_frac": failed / trials,
        "check_prefix": {"trials": len(prefix), "sha256": digest, "counts": counts},
        "setups": setups,
        "problems": {str(t): msgs for t, msgs in problems.items()},
        "run_problems": run_problems,
        "unchecked": unchecked,
        "metrics": metrics,
        "notes": notes,
    }
    _print_report(details)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    if args.trace:
        with (out / f"{stem}-spans.jsonl").open("w") as fh:
            for s in (*setup_spans, *tracer.spans):
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": trials,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _comparable(o):
    return (o.trace, o.status, o.coset_equivalent, o.correction, o.rows_touched)


def _reference_problems(recorded: dict, digest: str, counts: dict) -> list[str]:
    """Differences from the digest and counts recorded for this seed."""
    out = []
    if recorded["sha256"] != digest:
        out.append(f"output digest {digest} differs from the recorded {recorded['sha256']}")
    for key, value in recorded["counts"].items():
        if counts.get(key) != value:
            out.append(f"count {key}={counts.get(key)} differs from the recorded {value}")
    return out


def _tail_record(latencies: list[float]) -> dict[str, float]:
    seconds, pct = tail(latencies)
    return {"value": 1000 * seconds, "percentile": pct, "trials": len(latencies)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND trials
    beyond it.  When that percentile would fall below the median, there are
    too few trials for a tail and the maximum stands in for it."""
    ordered = sorted(latencies)
    i = len(ordered) - 1 - TAIL_BEYOND
    if i + 1 < len(ordered) / 2:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _end_to_end(setups, latencies, peak_rss_mib, rss_trials,
                notes) -> dict[str, tuple[float, str]]:
    notes["setup_s"] = f"median of {len(setups)} cold set-ups"
    notes["trials_per_s"] = "trials / summed trial time"
    notes["peak_rss_mb"] = f"ru_maxrss after the first {rss_trials} trials"
    return {
        "setup_s": (statistics.median(s["setup"] for s in setups), "s"),
        "trials_per_s": (len(latencies) / sum(latencies), "1/s"),
        "trial_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
    }


def _layer_metrics(spans, setups, traced, basis_rank, latencies, traced_latencies,
                   notes) -> dict[str, tuple[float, str]]:
    from pipeline import self_seconds

    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.seconds)
    own = self_seconds(spans)
    trial_self = [own[s.id] for s in spans if s.name == "trial"]

    def step_ms(name):
        return 1000 * statistics.median(s[name] for s in setups)

    def span_ms(name):
        return 1000 * statistics.median(by_name.get(name, [0.0]))

    def total(attr):
        return sum(getattr(o, attr) for o in traced)

    reduced = sum(o.reduced.weight for o in traced)
    envelope = sum(o.envelope.weight for o in traced)
    rescored = total("rescored_gens")
    n = len(traced)
    plain_tps = len(latencies) / sum(latencies)
    traced_tps = len(traced_latencies) / sum(traced_latencies)
    notes["trace.overhead_trials_per_s"] = (
        f"untraced {plain_tps:.3f}/s vs traced {traced_tps:.3f}/s over {n} paired trials "
        f"({100 * (plain_tps - traced_tps) / plain_tps:.2f}%)"
    )
    return {
        "graphs.gen_biregular_ms": (step_ms("graphs.gen_biregular"), "ms"),
        "graphs.audit_ms": (step_ms("graphs.audit"), "ms"),
        "hgp.build_hgp_ms": (step_ms("hgp.build_hgp"), "ms"),
        "hgp.generator_basis_ms": (step_ms("hgp.generator_basis"), "ms"),
        "hgp.generator_basis_setup_share": (
            statistics.median(s["hgp.generator_basis"] / s["setup"] for s in setups), "ratio"),
        "hgp.syndrome_ms": (span_ms("hgp.syndrome"), "ms"),
        "reduction.reduce_error_ms": (span_ms("reduction.reduce_error"), "ms"),
        "reduction.weight_ratio": (reduced / max(total("sampled_weight"), 1), "ratio"),
        "ssfind.view_tables_ms": (step_ms("ssfind.view_tables"), "ms"),
        "ssfind.ssfind_ms": (span_ms("ssfind.ssfind"), "ms"),
        "ssfind.trial_share": (
            sum(by_name["ssfind.ssfind"]) / sum(by_name["trial"]), "ratio"),
        "ssfind.iterations": (total("iterations") / n, "count"),
        "ssfind.rescore_batches": (total("rescore_batches") / n, "count"),
        "ssfind.rescored_gens": (rescored / n, "count"),
        "ssfind.seeded_gens": (total("seeded_gens") / n, "count"),
        "ssfind.us_per_rescored_gen": (
            1e6 * sum(by_name["ssfind.ssfind"]) / max(rescored, 1), "us"),
        "ssfind.adopted_per_rescored": (total("iterations") / max(rescored, 1), "ratio"),
        "ssfind.envelope_ratio": (envelope / max(reduced, 1), "ratio"),
        "erasure.solve_ms": (span_ms("erasure.solve"), "ms"),
        "erasure.rows_touched": (total("rows_touched") / n, "count"),
        "erasure.columns": (envelope / n, "count"),
        "erasure.verify_coset_ms": (span_ms("erasure.verify_coset"), "ms"),
        "gf2.basis_rank": (basis_rank, "count"),
        "harness.trial_ms": (1000 * statistics.median(by_name["trial"]), "ms"),
        "harness.trial_self_ms": (1000 * statistics.median(trial_self), "ms"),
        "trace.overhead_trials_per_s": (plain_tps - traced_tps, "1/s"),
    }


def _print_report(d) -> None:
    print(f"# perfbench workload={d['workload']} seed={d['seed']} trace={d['trace']} "
          f"seconds={d['seconds']} workers=1 python={d['python']} numpy={d['numpy']} "
          f"nproc={d['nproc']} load={d['load_avg_start'][0]:.2f}->{d['load_avg_end'][0]:.2f}")
    for name, (value, unit) in d["metrics"].items():
        note = d["notes"].get(name)
        print(f"{name:34s} {value:14.6f} {unit}" + (f"  ({note})" if note else ""))
    t = d["trial_tail_ms"]
    print(f"{'trial_tail_ms':34s} {t['value']:14.6f} ms  (p{t['percentile']:.1f} of {t['trials']} "
          f"untraced trials{', too few for a tail: the maximum' if t['percentile'] == 100 else ''})")
    print(f"{'decode_success_frac':34s} {d['decode_success_frac']:14.6f} ratio  "
          f"(success and coset-equivalent, of {d['trials']} trials)")
    print(f"{'failed_frac':34s} {d['failed_frac']:14.6f} ratio  "
          f"(raised or failed the output check, of {d['trials']} trials)")
    prefix = d["check_prefix"]
    print(f"# first {prefix['trials']} trials: sha256={prefix['sha256']} "
          + " ".join(f"{k}={v}" for k, v in prefix["counts"].items()))
    for t, msgs in d["problems"].items():
        for msg in msgs:
            print(f"# FAILED trial {t}: {msg}")
    for msg in d["run_problems"]:
        print(f"# FAILED: {msg}")
    for msg in d["unchecked"]:
        print(f"# not checked: {msg}")


if __name__ == "__main__":
    sys.exit(main())
