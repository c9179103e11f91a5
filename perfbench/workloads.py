"""The benchmark's workloads: one decoder configuration each.

Every workload is a closed loop run by one process on one thread.  The
campaign seed comes from the command line; everything else here is fixed, so
a workload always decodes on the same code with the same decoder settings.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    delta_v: int
    delta_c: int
    graph_seed: int
    epsilon: str
    weights: tuple[int, ...]
    reduction: str
    # Leading trials whose outcomes are compared with ``harness.montecarlo``
    # and hashed into the output digest.  Every run completes at least these.
    check_prefix: int
    # Cold set-ups per run, each in a fresh interpreter; ``setup_s`` is their
    # median.
    setup_repeats: int
    # ``peak_rss_mb`` is read after this many trials, so that it does not grow
    # with throughput.  Every run completes at least these.
    rss_trials: int
    # Golden campaign file of this config, relative to the checkout root.
    golden: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lazy-n240",
            why=(
                "(3,6) n=240 (N=72000) at eps=1/20: the paper's guarantee regime "
                "at the largest size; set-up is the generator basis"
            ),
            n=240, delta_v=3, delta_c=6, graph_seed=7,
            epsilon="1/20", weights=(2, 4, 6, 8, 10), reduction="greedy",
            check_prefix=20, setup_repeats=5, rss_trials=2000,
        ),
        Workload(
            name="eager-n60",
            why=(
                "golden campaign config: (3,6) n=60 at eps=audit:3=5/9, eager "
                "mode; ssfind rescoring dominates and the solve covers all 4500 qubits"
            ),
            n=60, delta_v=3, delta_c=6, graph_seed=1,
            epsilon="audit:3", weights=(1, 2, 3), reduction="greedy",
            check_prefix=3, setup_repeats=25, rss_trials=30,
            golden="tests/golden/campaign_n60_seed1.txt",
        ),
        # Not in BENCHMARK.json: a decode takes about ten seconds, so a run
        # holds two or three of them and its timings spread more than the
        # bounds allow on a two-core machine.  Run it by hand to measure the
        # Fraction fallback.
        Workload(
            name="wide-n16",
            why=(
                "(8,8) n=16 (N=512) at eps=1/20: a 64-cell grid overflows the "
                "numpy kernel, so every rescore runs the Fraction fallback"
            ),
            n=16, delta_v=8, delta_c=8, graph_seed=1,
            epsilon="1/20", weights=(1,), reduction="greedy",
            check_prefix=1, setup_repeats=3, rss_trials=1,
        ),
    )
}
