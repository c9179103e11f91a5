"""Set-up and one decode trial, driven through hgpdecode's public API.

A trial runs ``reduce_error -> syndrome -> ssfind -> erase_decode_quantum ->
verify_coset`` on an error drawn exactly as ``harness.montecarlo`` draws it:
trial ``k`` samples ``weights[k % len(weights)]`` distinct qubits from a
``random.Random`` seeded by splitmix64 of the campaign seed advanced by ``k``.

Spans are recorded by the benchmark around each public call; the program
itself is not instrumented.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from hgpdecode import (
    CheckSet,
    DecoderConfig,
    HgpCode,
    QubitSet,
    TraceEntry,
    TrialReport,
    build_hgp,
    erase_decode_quantum,
    gen_biregular,
    min_untouched_score,
    reduce_error,
    ssfind,
    syndrome,
    verify_coset,
)
from hgpdecode.harness import CampaignConfig, _mix64, resolve_epsilon

from workloads import Workload


def campaign_config(w: Workload, seed: int, trials: int) -> CampaignConfig:
    return CampaignConfig(
        n=w.n, delta_v=w.delta_v, delta_c=w.delta_c, graph_seed=w.graph_seed,
        trials=trials, weights=w.weights, epsilon=w.epsilon,
        reduction=w.reduction, seed=seed,
    )


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    trial: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; children nest strictly inside their parent."""

    active = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = parent.trial
        parent_id = None if parent is None else parent.id
        rec = Span(len(self.spans), name, parent_id, trial, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    active = False
    spans: tuple = ()
    _null = contextlib.nullcontext()

    def span(self, name: str, trial: int | None = None):
        return self._null


def self_seconds(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

@dataclass
class Ready:
    """Everything a trial needs, built once per process."""

    workload: Workload
    seed: int
    code: HgpCode
    epsilon: Fraction
    audited: tuple
    decoder: DecoderConfig
    counting_decoder: DecoderConfig
    basis_rank: int


def setup(w: Workload, seed: int, tracer: Tracer) -> Ready:
    """From nothing to the first trial being ready, one span per public call."""
    with tracer.span("setup"):
        with tracer.span("graphs.gen_biregular"):
            graph = gen_biregular(w.n, w.delta_v, w.delta_c, seed=w.graph_seed)
        with tracer.span("hgp.build_hgp"):
            code = build_hgp(graph)
        with tracer.span("graphs.audit"):
            epsilon, audited = resolve_epsilon(w.epsilon, graph)
        with tracer.span("ssfind.view_tables"):
            min_untouched_score(w.delta_v, w.delta_c)
        with tracer.span("hgp.generator_basis"):
            basis = code.generator_basis()
        decoder = DecoderConfig(epsilon=epsilon)
    return Ready(
        workload=w, seed=seed, code=code, epsilon=epsilon, audited=audited,
        decoder=decoder,
        counting_decoder=DecoderConfig(epsilon=epsilon, record_rescored=True),
        basis_rank=basis.rank,
    )


# --------------------------------------------------------------------------
# one trial
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    trial: int
    seed: int
    sampled_weight: int
    reduced: QubitSet
    sigma: CheckSet
    envelope: QubitSet
    trace: tuple[TraceEntry, ...]
    iterations: int
    status: str
    correction: QubitSet
    coset_equivalent: bool | None
    rows_touched: int
    seconds: float
    # Filled by traced trials only (they decode with record_rescored=True).
    rescore_batches: int | None = None
    rescored_gens: int | None = None
    seeded_gens: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "success" and self.coset_equivalent is True


def draw_error(ready: Ready, k: int) -> tuple[int, int, QubitSet]:
    """(trial seed, sampled weight, error) of trial ``k``, as montecarlo draws it."""
    code = ready.code
    weights = ready.workload.weights
    seed = _mix64(ready.seed, k)
    rng = random.Random(seed)
    weight = weights[k % len(weights)]
    return seed, weight, QubitSet.from_indices(code, rng.sample(range(code.num_qubits), weight))


def run_trial(ready: Ready, k: int, tracer) -> Outcome:
    code = ready.code
    decoder = ready.counting_decoder if tracer.active else ready.decoder
    with tracer.span("trial", trial=k):
        started = time.perf_counter()
        seed, weight, error = draw_error(ready, k)
        with tracer.span("reduction.reduce_error"):
            reduced = reduce_error(code, error, mode=ready.workload.reduction)
        with tracer.span("hgp.syndrome"):
            sigma = syndrome(code, reduced)
        with tracer.span("ssfind.ssfind"):
            found = ssfind(code, sigma, decoder)
        with tracer.span("erasure.solve"):
            verdict = erase_decode_quantum(code, sigma, found.envelope)
        coset = None
        if verdict.status != "no-solution":
            with tracer.span("erasure.verify_coset"):
                coset = verify_coset(code, verdict.correction, reduced)
        seconds = time.perf_counter() - started
    counts = {}
    if found.rescored is not None:
        counts = dict(
            rescore_batches=len(found.rescored),
            rescored_gens=sum(map(len, found.rescored)),
            seeded_gens=sum(found.state.seeded),
        )
    return Outcome(
        trial=k, seed=seed, sampled_weight=weight, reduced=reduced, sigma=sigma,
        envelope=found.envelope, trace=found.trace, iterations=found.iterations,
        status=verdict.status, correction=verdict.correction,
        coset_equivalent=coset, rows_touched=verdict.rows_touched,
        seconds=seconds, **counts,
    )


def as_report(ready: Ready, o: Outcome) -> TrialReport:
    """The ``harness.TrialReport`` montecarlo would write for this outcome."""
    code = ready.code
    reduced = o.reduced.weight
    return TrialReport(
        trial=o.trial, seed=o.seed, n=code.n, m=code.m,
        delta_v=code.delta_v, delta_c=code.delta_c, audited=ready.audited,
        epsilon=ready.epsilon, sampled_weight=o.sampled_weight,
        reduced_weight=reduced, envelope_size=o.envelope.weight,
        ratio=None if reduced == 0 else Fraction(o.envelope.weight, reduced),
        status=o.status, coset_equivalent=o.coset_equivalent,
        wall_time=o.seconds,
    )
