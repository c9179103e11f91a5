"""The classical envelope decoder on a brute-force-audited expander.

Bits sit on the vertices of a complete graph, parity checks on its edges;
that incidence structure has the best small-set expansion available at this
size, so the coverage and envelope-size guarantees bind at weight 3.

Run from the repository root:  python3 demos/05_classical_find.py
"""

import itertools
from fractions import Fraction

from hgpdecode import BipartiteGraph, audit_expansion
from hgpdecode.classical import classical_syndrome, erase_decode_classical, find_classical

NUM_VERTICES = 20
edges = list(itertools.combinations(range(NUM_VERTICES), 2))
adj_v = [[] for _ in range(NUM_VERTICES)]
for idx, (u, v) in enumerate(edges):
    adj_v[u].append(idx)
    adj_v[v].append(idx)
graph = BipartiteGraph(len(edges), adj_v)
print(f"graph: {graph.n} bits of degree {graph.delta_v}, "
      f"{graph.m} checks of degree {graph.delta_c}")

profile = audit_expansion(graph, "left", 6)
eps_v = profile.worst_up_to()
print(f"exhaustive audit up to size 6: worst defect {eps_v} "
      f"(certified: {profile.certified})")
admissible = int((1 - 3 * eps_v) * (6 - 1))
print(f"admissible error weight under the guarantee: {admissible}\n")

for combo in [(4,), (4, 17), (0, 9, 13)]:
    bits = 0
    for i in combo:
        bits |= 1 << i
    sigma = classical_syndrome(graph, bits)
    envelope = find_classical(graph, sigma, eps_v)
    cap = Fraction(len(combo)) / (1 - 3 * eps_v)
    print(f"error {combo}: |sigma|={len(sigma)}, envelope {sorted(envelope)} "
          f"(|L|={len(envelope)} <= {cap} = |E|/(1-3e))")
    # The sent codeword is 0, so the received word is the error itself.
    word = erase_decode_classical(graph, bits, envelope)
    print("  erasure completion: "
          + ("several completions" if word is None else f"codeword {word:#x} (sent 0x0)"))
print("\nEach admissible error is covered by its envelope; erasing the envelope "
      "and\nsolving for it finishes the decode (Viderman's two-stage decoder).")
