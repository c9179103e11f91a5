"""The classical envelope decoder on a brute-force-audited expander.

Bits sit on the vertices of a complete graph, parity checks on its edges;
that incidence structure has the best small-set expansion available at this
size, so the coverage and envelope-size guarantees bind at weight 3.

Run from the repository root:  python3 demos/05_classical_find.py
"""

import itertools
from fractions import Fraction

from hgpdecode import BipartiteGraph, audit_expansion
from hgpdecode.classical import ClassicalCode, classical_syndrome, find_classical

NUM_VERTICES = 20
edges = list(itertools.combinations(range(NUM_VERTICES), 2))
adj_v = [[] for _ in range(NUM_VERTICES)]
for idx, (u, v) in enumerate(edges):
    adj_v[u].append(idx)
    adj_v[v].append(idx)
graph = BipartiteGraph.from_left_adjacency(len(edges), adj_v)
print(f"graph: {graph.n} bits of degree {graph.delta_v}, "
      f"{graph.m} checks of degree {graph.delta_c}")

profile = audit_expansion(graph, "left", 6)
eps_v = profile.worst_up_to()
print(f"exhaustive audit up to size 6: worst defect {eps_v} "
      f"(certified: {profile.certified})")
admissible = int((1 - 3 * eps_v) * (6 - 1))
print(f"admissible error weight under the guarantee: {admissible}\n")

code = ClassicalCode(graph)
for combo in [(4,), (4, 17), (0, 9, 13)]:
    bits = 0
    for i in combo:
        bits |= 1 << i
    sigma = classical_syndrome(code, bits)
    res = find_classical(code, sigma, eps_v)
    cap = Fraction(len(combo)) / (1 - 3 * eps_v)
    print(f"error {combo}: |sigma|={len(sigma)}, envelope {sorted(res.envelope)} "
          f"(|L|={len(res.envelope)} <= {cap} = |E|/(1-3e))")
print("\nEvery admissible error is covered by its envelope; erasure-solving "
      "the envelope\nthen finishes the decode (see erase_decode_classical).")
