"""Command-line front end.

Subcommands: gen-graph, audit, build-hgp, decode, montecarlo, radius-table.
Exit codes: 0 on success, 1 when a decode failure is present in the output,
2 for usage, config, or input-parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .graphs import audit_expansion, gen_biregular, graph_to_text, read_ascii, read_graph
from .harness import (
    CampaignConfig,
    campaign_to_text,
    decode_once,
    montecarlo,
    radius_table,
    radius_table_to_text,
)
from .hgp import build_hgp
from .reduction import REDUCTIONS
from .ssfind import SsfindIterationError

__all__ = ["main"]


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgpdecode",
        description="Hypergraph-product codes with an envelope decoder for adversarial errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="sample a random biregular base graph")
    p.add_argument("--n", type=int, required=True, help="left-vertex count")
    p.add_argument("--delta-v", type=int, required=True, help="left degree")
    p.add_argument("--delta-c", type=int, required=True, help="right degree")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    p = sub.add_parser("audit", help="certify worst-case expansion of a base graph")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--s-max", type=int, required=True, help="largest subset size audited")
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.add_argument("--samples", type=int, help="sample this many subsets per size instead of enumerating")
    p.add_argument("--sample-seed", type=int, default=0)

    p = sub.add_parser("build-hgp", help="build the product code and print its parameters")
    p.add_argument("--graph", type=Path, required=True)

    p = sub.add_parser("decode", help="run the full decode pipeline on one error instance")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--error", type=Path, required=True, help="qubit-set file with the true error")
    p.add_argument("--epsilon", required=True, help="fraction like 1/20, or audit:<s_max>")
    p.add_argument("--out-dir", type=Path, help="write envelope.txt, trace.txt, verdict.txt here")
    p.add_argument("--reduce", choices=REDUCTIONS, default="none")
    p.add_argument("--detect-ambiguity", action="store_true")

    p = sub.add_parser("montecarlo", help="run a trial campaign from a key=value config file")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1, sequential)")
    p.add_argument("--out", type=Path, help="write the campaign report here instead of stdout")
    p.add_argument("--no-wall", action="store_true", help="omit wall-clock columns (reproducible output)")

    p = sub.add_parser("radius-table", help="compare guaranteed decoding radii")
    p.add_argument("--r", type=_fraction_arg, required=True, help="degree ratio delta_v/delta_c")
    p.add_argument("--epsilon", type=_fraction_arg, required=True)
    p.add_argument("--delta-c", type=int, required=True)

    return parser


def _cmd_gen_graph(args) -> int:
    graph = gen_biregular(args.n, args.delta_v, args.delta_c, seed=args.seed)
    text = graph_to_text(graph)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


def _cmd_audit(args) -> int:
    graph = read_graph(args.graph)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    # Every profile is computed before anything is printed, so an invalid
    # run leaves stdout empty.
    profiles = [
        audit_expansion(graph, side, args.s_max, samples=args.samples, sample_seed=args.sample_seed)
        for side in sides
    ]
    print("# side size epsilon certified")
    for side, profile in zip(sides, profiles):
        for s in range(1, args.s_max + 1):
            eps = profile.worst_epsilon_by_size[s]
            print(f"{side} {s} {eps} {'yes' if profile.certified else 'no'}")
    return 0


def _cmd_build_hgp(args) -> int:
    code = build_hgp(read_graph(args.graph))
    print(f"qubits N={code.num_qubits}")
    print(f"logical K={code.k}")
    print(f"checks={code.num_checks}")
    print(f"generators={code.num_gens}")
    return 0


def _cmd_decode(args) -> int:
    outcome = decode_once(
        args.graph, args.error, args.epsilon, args.out_dir,
        reduction=args.reduce,
        detect_ambiguity=args.detect_ambiguity,
    )
    verdict = outcome.verdict
    coset = "-" if outcome.coset_equivalent is None else str(int(outcome.coset_equivalent))
    print(f"status={verdict.status}")
    print(f"coset_equivalent={coset}")
    print(f"envelope_size={outcome.search.envelope.weight}")
    print(f"iterations={outcome.search.iterations}")
    print(f"rows_touched={verdict.rows_touched}")
    for path in outcome.files:
        print(f"wrote {path}")
    return 0 if outcome.succeeded else 1


def _cmd_montecarlo(args) -> int:
    config = CampaignConfig.from_text(read_ascii(args.config))
    result = montecarlo(config, workers=args.workers)
    text = campaign_to_text(result, include_wall=not args.no_wall)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0 if result.all_succeeded else 1


def _cmd_radius_table(args) -> int:
    sys.stdout.write(radius_table_to_text(radius_table(args.r, args.epsilon, args.delta_c)))
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "audit": _cmd_audit,
    "build-hgp": _cmd_build_hgp,
    "decode": _cmd_decode,
    "montecarlo": _cmd_montecarlo,
    "radius-table": _cmd_radius_table,
}

# Every parse, config and construction error subclasses ValueError.
_USAGE_ERRORS = (ValueError, OSError)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SsfindIterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
