"""Hypergraph-product codes with an envelope decoder for adversarial errors.

The pipeline: build a product code from a biregular bipartite graph, convert
an unknown error into a known *envelope* of suspect qubits by greedily
chasing generator half-supports whose unique-neighbourhood score is small,
then finish with a restricted linear solve over the envelope.  Sub-packages:

- ``graphs``     — base graphs, sampling, expansion audits
- ``gf2``        — linear algebra on int bit sets, factor-once solves, kernels
- ``classical``  — the classical-expander analogue of the search stage
- ``hgp``        — the product construction, its integer incidence, syndromes
- ``reduction``  — error reduction
- ``ssfind``     — the envelope search itself and the cap on the local view
- ``erasure``    — the completion solve and coset judgement
- ``harness``    — radius tables, Monte Carlo campaigns, one-shot decodes
- ``cli``        — the ``hgpdecode`` command
"""

from .classical import (
    DecodeFailure,
    classical_syndrome,
    erase_decode_classical,
    find_classical,
)
from .erasure import DecodeVerdict, erase_decode_quantum, verify_coset
from .graphs import (
    BipartiteGraph,
    ExpansionProfile,
    GraphConstructionError,
    GraphParseError,
    LineParseError,
    audit_expansion,
    gen_biregular,
    graph_from_text,
    graph_to_text,
    read_graph,
)
from .harness import (
    CampaignConfig,
    CampaignConfigError,
    CampaignResult,
    DecodeOutcome,
    RadiusRow,
    TrialReport,
    WeightSummary,
    campaign_to_text,
    decode_once,
    montecarlo,
    radius_table,
    radius_table_to_text,
    summarize,
)
from .hgp import (
    CheckSet,
    HgpCode,
    QubitParseError,
    QubitSet,
    build_hgp,
    qubitset_from_text,
    qubitset_to_text,
    syndrome,
)
from .reduction import reduce_error
from .ssfind import (
    DecoderConfig,
    SsfindIterationError,
    SsfindResult,
    TraceEntry,
    ViewWidthError,
    min_untouched_score,
    ssfind,
    trace_to_text,
)

__version__ = "0.1.0"
