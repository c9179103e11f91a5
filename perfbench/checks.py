"""Output checks on decode outcomes, and the digest that pins them down.

A trial passes when its outcome is self-consistent (every success really
corrects the syndrome from inside the envelope), and, for the leading trials,
when its report row equals the one ``harness.montecarlo`` writes for the same
config, and the golden campaign's row where one applies.
"""

from __future__ import annotations

import hashlib

from hgpdecode import qubitset_to_text, syndrome, trace_to_text
from hgpdecode.harness import CampaignConfig, reports_to_text

from pipeline import Outcome

STATUSES = ("success", "no-solution")


def trial_problems(code, o: Outcome) -> list[str]:
    """What is wrong with one outcome on its own; empty when nothing is."""
    out = []
    if o.status not in STATUSES:
        out.append(f"unknown status {o.status!r}")
    if (o.status == "no-solution") != (o.coset_equivalent is None):
        out.append(f"status {o.status} with coset verdict {o.coset_equivalent}")
    final = o.trace[-1].envelope_size if o.trace else 0
    if o.envelope.weight != final:
        out.append(f"envelope has {o.envelope.weight} qubits, the trace ends at {final}")
    if o.status == "success":
        if syndrome(code, o.correction) != o.sigma:
            out.append("correction's syndrome differs from sigma")
        if not o.correction <= o.envelope:
            out.append("correction leaves the envelope")
    return out


def report_rows(reports) -> dict[int, str]:
    """Trial index -> its campaign row, wall time left out."""
    lines = reports_to_text(reports, include_wall=False).splitlines()[1:]
    return {int(line.split()[0]): line for line in lines}


def row_problems(mine: dict[int, str], reference: dict[int, str], source: str) -> dict[int, str]:
    """Trials whose row differs from ``reference``; trials it lacks are skipped."""
    return {
        k: f"row {line!r} differs from {source} row {reference[k]!r}"
        for k, line in mine.items()
        if k in reference and reference[k] != line
    }


def golden_rows(text: str, config: CampaignConfig) -> dict[int, str] | None:
    """Rows of a golden campaign file, or None when it was run at another seed.

    Raises ValueError when the file describes another workload.
    """
    lines = text.splitlines()
    head = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
    spec = lines[1].split()[2].split("=", 1)[1]
    want = {
        "n": str(config.n), "delta_v": str(config.delta_v),
        "delta_c": str(config.delta_c), "graph_seed": str(config.graph_seed),
        "weights": ",".join(map(str, config.weights)),
        "reduction": config.reduction,
    }
    if any(head.get(key) != value for key, value in want.items()) or spec != config.epsilon:
        raise ValueError(f"golden header {lines[0]!r} describes another workload")
    if head["seed"] != str(config.seed):
        return None
    start = lines.index("# trial seed weight reduced envelope ratio status coset") + 1
    end = lines.index("# weight trials successes rate max_ratio max_envelope")
    return {int(line.split()[0]): line for line in lines[start:end]}


def output_digest(outcomes) -> str:
    """sha256 over each trial's trace text and verdict, in trial order."""
    h = hashlib.sha256()
    for o in outcomes:
        coset = "-" if o.coset_equivalent is None else int(o.coset_equivalent)
        h.update(f"trial {o.trial} {o.status} {coset} {o.rows_touched}\n".encode())
        h.update(trace_to_text(o.trace).encode())
        h.update(qubitset_to_text(o.correction).encode())
    return h.hexdigest()


def exact_counts(outcomes) -> dict[str, int]:
    """Work counts summed over ``outcomes``; they repeat exactly run to run."""
    counts = {
        "trials": len(outcomes),
        "sampled_qubits": sum(o.sampled_weight for o in outcomes),
        "reduced_qubits": sum(o.reduced.weight for o in outcomes),
        "iterations": sum(o.iterations for o in outcomes),
        "envelope_qubits": sum(o.envelope.weight for o in outcomes),
        "rows_touched": sum(o.rows_touched for o in outcomes),
        "successes": sum(o.succeeded for o in outcomes),
    }
    if outcomes and all(o.rescore_batches is not None for o in outcomes):
        counts["rescore_batches"] = sum(o.rescore_batches for o in outcomes)
        counts["rescored_gens"] = sum(o.rescored_gens for o in outcomes)
        counts["seeded_gens"] = sum(o.seeded_gens for o in outcomes)
    return counts
