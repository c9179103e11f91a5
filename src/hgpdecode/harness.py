"""Experiment plumbing: radius comparisons, Monte Carlo campaigns, one-shot decodes.

Everything here is deterministic given its inputs.  Per-trial randomness comes
from a counter-derived 64-bit mix of the campaign seed, so trial ``k`` can be
re-run in isolation; summaries are pure functions of the per-trial reports;
all fractional quantities are carried exactly and only rendered to fixed
precision at the text boundary.

A trial reduces its error (``REDUCTIONS``), decodes the syndrome without the
error, and only then judges the correction against the reduced error with
``verify_coset``; a solve with no solution is judged on no coset.  Campaign
trials and ``decode_once`` run that pipeline through one function.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .erasure import DecodeVerdict, erase_decode_quantum, verify_coset
from .graphs import BipartiteGraph, LineParseError, audit_expansion, content_lines, gen_biregular, read_ascii, read_graph
from .hgp import (
    HgpCode,
    QubitSet,
    build_hgp,
    qubitset_from_text,
    qubitset_to_text,
    syndrome,
)
from .reduction import REDUCTIONS, reduce_error
from .ssfind import DecoderConfig, SsfindResult, ssfind, trace_to_text

__all__ = [
    "RadiusRow",
    "radius_table",
    "radius_table_to_text",
    "CampaignConfigError",
    "CampaignConfig",
    "TrialReport",
    "WeightSummary",
    "CampaignResult",
    "montecarlo",
    "summarize",
    "reports_to_text",
    "summary_to_text",
    "campaign_to_text",
    "DecodeOutcome",
    "decode_once",
    "resolve_epsilon",
]

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------------
# decoding-radius comparison table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusRow:
    """One algorithm's guaranteed decoding radius, as a multiple of distance.

    The coefficient is ``scalar / sqrt(radicand)`` with both parts exact
    rationals; ``radicand`` is 1 for the purely rational formulas.  Rows whose
    ε exceeds the formula's validity threshold are kept but flagged invalid.
    """

    algorithm: str
    r: Fraction
    epsilon: Fraction
    delta_c: int
    scalar: Fraction
    radicand: Fraction
    valid: bool
    condition: str

    def coefficient(self, prec: int = 40) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = prec
            value = Decimal(self.scalar.numerator) / Decimal(self.scalar.denominator)
            if self.radicand != 1:
                root = (
                    Decimal(self.radicand.numerator)
                    / Decimal(self.radicand.denominator)
                ).sqrt()
                value /= root
            return +value


def radius_table(r: Fraction, epsilon: Fraction, delta_c: int) -> list[RadiusRow]:
    """The three-way radius comparison at rate parameter ``r = Δ_V/Δ_C``.

    Rows: the small-set-flip bound of Leverrier–Tillich–Zémor, the improved
    small-set-flip analysis of Grospellier et al., and the envelope decoder
    implemented here.  Out-of-validity rows are marked, never suppressed.
    """
    r = Fraction(r)
    epsilon = Fraction(epsilon)
    if not 0 < r <= 1:
        raise ValueError(f"r must be in (0, 1], got {r}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if delta_c < 1:
        raise ValueError(f"delta_c must be positive, got {delta_c}")

    grospellier_q = 2 * r * (1 - 8 * epsilon)
    rows = [
        RadiusRow(
            "ssflip-ltz", r, epsilon, delta_c,
            scalar=Fraction(1, 3 * (1 + delta_c)),
            radicand=Fraction(1),
            valid=epsilon < Fraction(1, 6),
            condition="epsilon < 1/6",
        ),
        RadiusRow(
            "ssflip-grospellier", r, epsilon, delta_c,
            scalar=grospellier_q * r / (4 + grospellier_q),
            radicand=1 + r * r,
            valid=epsilon < Fraction(1, 8),
            condition="epsilon < 1/8",
        ),
        RadiusRow(
            "ssfind", r, epsilon, delta_c,
            scalar=(1 - 10 * epsilon) / 4 * r,
            radicand=Fraction(1),
            valid=epsilon < Fraction(1, 10),
            condition="epsilon < 1/10",
        ),
    ]
    return rows


def radius_table_to_text(rows) -> str:
    lines = ["# algorithm radius/D valid condition r epsilon delta_c"]
    for row in rows:
        lines.append(
            f"{row.algorithm} {_fmt6(row.coefficient())} "
            f"{'yes' if row.valid else 'no'} [{row.condition}] "
            f"{row.r} {row.epsilon} {row.delta_c}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Monte Carlo campaigns
# --------------------------------------------------------------------------

class CampaignConfigError(ValueError):
    """Raised when a campaign config file fails validation."""


class _ConfigLineError(CampaignConfigError, LineParseError):
    """A campaign config line that fails to parse; carries its line number."""


_CONFIG_KEYS = {
    "n", "delta_v", "delta_c", "graph_seed", "seed",
    "trials", "weights", "epsilon", "reduction",
}


def _check_reduction(reduction: str) -> None:
    if reduction not in REDUCTIONS:
        raise CampaignConfigError(f"reduction must be one of {REDUCTIONS}, got {reduction!r}")


@dataclass(frozen=True)
class CampaignConfig:
    """A Monte Carlo campaign, as parsed from a plain key=value file."""

    n: int
    delta_v: int
    delta_c: int
    graph_seed: int
    trials: int
    weights: tuple[int, ...]
    epsilon: str  # a fraction literal like "1/20", or "audit:<s_max>"
    reduction: str = "greedy"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise CampaignConfigError("trials must be nonnegative")
        if not self.weights or any(w < 0 for w in self.weights):
            raise CampaignConfigError("weights must be a nonempty list of nonnegative ints")
        _check_reduction(self.reduction)
        _parse_epsilon_spec(self.epsilon)

    @classmethod
    def from_text(cls, text: str) -> CampaignConfig:
        values = {}
        for line_no, raw, line in content_lines(text):
            if "=" not in line:
                raise _ConfigLineError(line_no, f"expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise _ConfigLineError(line_no, f"unknown key {key!r}")
            if key in values:
                raise _ConfigLineError(line_no, f"duplicate key {key!r}")
            values[key] = value
        missing = {"n", "delta_v", "delta_c", "graph_seed", "trials", "weights", "epsilon"} - set(values)
        if missing:
            raise CampaignConfigError(f"missing keys: {', '.join(sorted(missing))}")
        try:
            weights = tuple(int(w) for w in values["weights"].split(",") if w.strip())
        except ValueError:
            raise CampaignConfigError(f"weights must be comma-separated ints, got {values['weights']!r}") from None
        try:
            return cls(
                n=int(values["n"]),
                delta_v=int(values["delta_v"]),
                delta_c=int(values["delta_c"]),
                graph_seed=int(values["graph_seed"]),
                trials=int(values["trials"]),
                weights=weights,
                epsilon=values["epsilon"],
                reduction=values.get("reduction", "greedy"),
                seed=int(values.get("seed", "0")),
            )
        except ValueError as exc:
            if isinstance(exc, CampaignConfigError):
                raise
            raise CampaignConfigError(str(exc)) from None

    def to_text(self) -> str:
        return (
            f"n={self.n}\ndelta_v={self.delta_v}\ndelta_c={self.delta_c}\n"
            f"graph_seed={self.graph_seed}\nseed={self.seed}\ntrials={self.trials}\n"
            f"weights={','.join(map(str, self.weights))}\n"
            f"epsilon={self.epsilon}\nreduction={self.reduction}\n"
        )


@dataclass(frozen=True)
class TrialReport:
    """Everything one trial did, reproducible from (campaign seed, config)."""

    trial: int
    seed: int
    n: int
    m: int
    delta_v: int
    delta_c: int
    audited: tuple[tuple[str, int, Fraction], ...]
    epsilon: Fraction
    sampled_weight: int
    reduced_weight: int
    envelope_size: int
    ratio: Fraction | None
    status: str
    coset_equivalent: bool | None
    wall_time: float

    @property
    def succeeded(self) -> bool:
        return self.status == "success" and self.coset_equivalent is True


@dataclass(frozen=True)
class WeightSummary:
    weight: int
    trials: int
    successes: int
    rate: Fraction
    max_ratio: Fraction | None
    max_envelope: int


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    n: int
    m: int
    epsilon: Fraction
    audited: tuple[tuple[str, int, Fraction], ...]
    reports: tuple[TrialReport, ...]
    summary: tuple[WeightSummary, ...]

    @property
    def all_succeeded(self) -> bool:
        return all(r.succeeded for r in self.reports)


def _parse_epsilon_spec(spec: str) -> Fraction | int:
    """A literal epsilon as a Fraction, or the size s of ``audit:<s>`` as an int."""
    if spec.startswith("audit:"):
        try:
            s_max = int(spec[len("audit:"):])
        except ValueError:
            raise CampaignConfigError(f"bad audit spec {spec!r}") from None
        if s_max < 1:
            raise CampaignConfigError("audit size must be at least 1")
        return s_max
    try:
        value = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise CampaignConfigError(f"epsilon must be a fraction or audit:<s>, got {spec!r}") from None
    if value < 0:
        raise CampaignConfigError("epsilon must be nonnegative")
    return value


def resolve_epsilon(
    spec: str, graph: BipartiteGraph
) -> tuple[Fraction, tuple[tuple[str, int, Fraction], ...]]:
    """Turn an epsilon spec into a value: either a literal, or the worst
    certified expansion defect over both sides of the graph up to audit:<s>."""
    s_max = _parse_epsilon_spec(spec)
    if isinstance(s_max, Fraction):
        return s_max, ()
    audited = []
    worst = Fraction(0)
    for side in ("left", "right"):
        profile = audit_expansion(graph, side, s_max)
        for s in range(1, s_max + 1):
            audited.append((side, s, profile.worst_epsilon_by_size[s]))
        worst = max(worst, profile.worst_up_to())
    return worst, tuple(audited)


def _mix64(seed: int, k: int) -> int:
    """splitmix64 of the campaign seed advanced by the trial counter."""
    x = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get("HGPDECODE_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise CampaignConfigError(
                f"HGPDECODE_WORKERS must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise CampaignConfigError(f"worker count must be at least 1, got {workers}")
    return workers


def _decode(code: HgpCode, error: QubitSet, reduction: str, decoder: DecoderConfig, detect_ambiguity=False):
    """Reduce, take the syndrome, search, solve, then judge the correction
    against the reduced error: (reduced, search, verdict, coset), the coset
    None when the solve found no solution."""
    reduced = reduce_error(code, error, mode=reduction)
    sigma = syndrome(code, reduced)
    found = ssfind(code, sigma, decoder)
    verdict = erase_decode_quantum(code, sigma, found.envelope, detect_ambiguity=detect_ambiguity)
    coset = None if verdict.status == "no-solution" else verify_coset(code, verdict.correction, reduced)
    return reduced, found, verdict, coset


def _one_trial(
    code: HgpCode,
    config: CampaignConfig,
    decoder: DecoderConfig,
    audited: tuple[tuple[str, int, Fraction], ...],
    k: int,
) -> TrialReport:
    seed = _mix64(config.seed, k)
    rng = random.Random(seed)
    weight = config.weights[k % len(config.weights)]
    error = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), weight))
    started = time.perf_counter()
    reduced, found, verdict, coset = _decode(code, error, config.reduction, decoder)
    wall = time.perf_counter() - started
    reduced_weight = reduced.weight
    ratio = None if reduced_weight == 0 else Fraction(found.envelope.weight, reduced_weight)
    return TrialReport(
        trial=k,
        seed=seed,
        n=code.n,
        m=code.m,
        delta_v=code.delta_v,
        delta_c=code.delta_c,
        audited=audited,
        epsilon=decoder.epsilon,
        sampled_weight=weight,
        reduced_weight=reduced_weight,
        envelope_size=found.envelope.weight,
        ratio=ratio,
        status=verdict.status,
        coset_equivalent=coset,
        wall_time=wall,
    )


def _run_trials(code: HgpCode, config: CampaignConfig, epsilon: Fraction, audited, ks: range) -> list[TrialReport]:
    """Trials ``ks`` on the campaign's code; also a worker's entry point."""
    decoder = DecoderConfig(epsilon=epsilon)
    return [_one_trial(code, config, decoder, audited, k) for k in ks]


def montecarlo(config: CampaignConfig, workers: int | None = None) -> CampaignResult:
    """Run a campaign: sample, reduce, search, solve, judge — per trial.

    Deterministic for a fixed config regardless of the worker count; reports
    come back ordered by trial index.  Worker count defaults to the
    HGPDECODE_WORKERS environment variable, else 1 (sequential).
    """
    workers = _resolve_workers(workers)
    graph = gen_biregular(config.n, config.delta_v, config.delta_c, seed=config.graph_seed)
    code = build_hgp(graph)
    heaviest = max(config.weights)
    if heaviest > code.num_qubits:
        raise CampaignConfigError(f"weight {heaviest} exceeds the code's N = {code.num_qubits} qubits")
    epsilon, audited = resolve_epsilon(config.epsilon, graph)
    if workers <= 1 or config.trials <= 1:
        reports = tuple(_run_trials(code, config, epsilon, audited, range(config.trials)))
    else:
        step = -(-config.trials // workers)
        ranges = [range(lo, min(lo + step, config.trials)) for lo in range(0, config.trials, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(
                _run_trials, *zip(*((code, config, epsilon, audited, ks) for ks in ranges))
            )
            reports = tuple(r for chunk in chunks for r in chunk)
    return CampaignResult(
        config=config,
        n=config.n,
        m=graph.m,
        epsilon=epsilon,
        audited=audited,
        reports=reports,
        summary=summarize(reports),
    )


def summarize(reports) -> tuple[WeightSummary, ...]:
    """Aggregate success rate, worst envelope ratio, and largest envelope per
    sampled weight; recomputable from the reports alone."""
    buckets: dict[int, list[TrialReport]] = {}
    for report in reports:
        buckets.setdefault(report.sampled_weight, []).append(report)
    out = []
    for weight in sorted(buckets):
        group = buckets[weight]
        successes = sum(1 for r in group if r.succeeded)
        ratios = [r.ratio for r in group if r.ratio is not None]
        out.append(
            WeightSummary(
                weight=weight,
                trials=len(group),
                successes=successes,
                rate=Fraction(successes, len(group)),
                max_ratio=max(ratios) if ratios else None,
                max_envelope=max((r.envelope_size for r in group), default=0),
            )
        )
    return tuple(out)


def _fmt6(value) -> str:
    """Render an exact quantity to 6 decimal places, deterministically."""
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        with localcontext() as ctx:
            ctx.prec = 40
            value = Decimal(value.numerator) / Decimal(value.denominator)
    return f"{value.quantize(Decimal('0.000001')):.6f}"


def reports_to_text(reports, include_wall: bool = True) -> str:
    header = "# trial seed weight reduced envelope ratio status coset"
    lines = [header + " wall_s" if include_wall else header]
    for r in reports:
        coset = "-" if r.coset_equivalent is None else str(int(r.coset_equivalent))
        line = (
            f"{r.trial} {r.seed} {r.sampled_weight} {r.reduced_weight} "
            f"{r.envelope_size} {_fmt6(r.ratio)} {r.status} {coset}"
        )
        if include_wall:
            line += f" {r.wall_time:.6f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def summary_to_text(summary) -> str:
    lines = ["# weight trials successes rate max_ratio max_envelope"]
    for s in summary:
        lines.append(
            f"{s.weight} {s.trials} {s.successes} {_fmt6(s.rate)} "
            f"{_fmt6(s.max_ratio)} {s.max_envelope}"
        )
    return "\n".join(lines) + "\n"


def campaign_to_text(result: CampaignResult, include_wall: bool = True) -> str:
    """Full campaign rendering; golden files use include_wall=False so that
    everything in the file is bit-reproducible."""
    cfg = result.config
    head = [
        f"# campaign n={cfg.n} m={result.m} delta_v={cfg.delta_v} delta_c={cfg.delta_c}"
        f" graph_seed={cfg.graph_seed} seed={cfg.seed} trials={cfg.trials}"
        f" weights={','.join(map(str, cfg.weights))} reduction={cfg.reduction}",
        f"# epsilon spec={cfg.epsilon} used={result.epsilon}",
    ]
    for side, s, eps in result.audited:
        head.append(f"# audit {side} size={s} epsilon={eps}")
    return (
        "\n".join(head) + "\n"
        + reports_to_text(result.reports, include_wall=include_wall)
        + summary_to_text(result.summary)
    )


# --------------------------------------------------------------------------
# one-shot decode
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeOutcome:
    """A single end-to-end decode plus everything needed to inspect it."""

    code: HgpCode
    error: QubitSet
    reduced: QubitSet
    search: SsfindResult
    verdict: DecodeVerdict
    coset_equivalent: bool | None
    epsilon: Fraction
    files: tuple[str, ...]

    @property
    def succeeded(self) -> bool:
        return self.verdict.status == "success" and self.coset_equivalent is True


def decode_once(
    graph_path,
    error_path,
    epsilon: str,
    out_dir=None,
    *,
    reduction: str = "none",
    detect_ambiguity: bool = False,
) -> DecodeOutcome:
    """Full pipeline on one instance; optionally writes envelope/trace/verdict
    files under ``out_dir``.  File parse failures raise with line numbers."""
    _check_reduction(reduction)
    graph = read_graph(graph_path)
    code = build_hgp(graph)
    error = qubitset_from_text(read_ascii(error_path), code)
    eps_value, _ = resolve_epsilon(epsilon, graph)
    decoder = DecoderConfig(epsilon=eps_value)
    reduced, search, verdict, coset = _decode(code, error, reduction, decoder, detect_ambiguity)
    files = ()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        envelope_file = out / "envelope.txt"
        trace_file = out / "trace.txt"
        verdict_file = out / "verdict.txt"
        envelope_file.write_text(qubitset_to_text(search.envelope))
        trace_file.write_text(trace_to_text(search.trace))
        verdict_file.write_text(_verdict_text(error, reduced, search, verdict, coset))
        files = (str(envelope_file), str(trace_file), str(verdict_file))
    return DecodeOutcome(code, error, reduced, search, verdict, coset, eps_value, files)


def _verdict_text(error, reduced, search, verdict, coset) -> str:
    coset = "-" if coset is None else str(int(coset))
    lines = [
        f"status={verdict.status}",
        f"coset_equivalent={coset}",
        f"error_weight={error.weight}",
        f"reduced_weight={reduced.weight}",
        f"envelope_size={search.envelope.weight}",
        f"correction_weight={verdict.correction.weight}",
        f"rows_touched={verdict.rows_touched}",
        f"iterations={search.iterations}",
        f"mode={search.mode}",
        "# correction",
    ]
    return "\n".join(lines) + "\n" + qubitset_to_text(verdict.correction)
