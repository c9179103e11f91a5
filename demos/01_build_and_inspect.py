"""Build a product code from a random biregular graph and look inside it.

Run from the repository root:  python3 demos/01_build_and_inspect.py
"""

from hgpdecode import audit_expansion, build_hgp, gen_biregular

graph = gen_biregular(12, 3, 6, seed=5)
print(f"base graph: {graph.n} bits of degree {graph.delta_v}, "
      f"{graph.m} checks of degree {graph.delta_c}")

for side in ("left", "right"):
    profile = audit_expansion(graph, side, 3)
    eps = dict(profile.worst_epsilon_by_size)
    print(f"  {side:>5} expansion defect by set size (exhaustive): {eps}")

code = build_hgp(graph)
print(f"\nproduct code: N={code.num_qubits} qubits "
      f"({code.n}^2 vertex-vertex + {code.m}^2 check-check), "
      f"K={code.k} logical, {code.num_checks} checks, {code.num_gens} generators")

# Every generator overlaps every adjacent check on an even number of qubits;
# that is the commutation condition making the two classical codes a CSS pair.
g = 17
gsup = code.gen_qubits(g)
print(f"\ngenerator {g} touches qubits {[code.qubit_coords(q) for q in gsup]}")
adjacent = sorted({x for q in gsup for x in code.qubit_checks(q)})
for x in adjacent[:4]:
    overlap = len(set(code.check_qubits(x)) & set(gsup))
    print(f"  check {x}: overlap {overlap} (even)")
print("  ... and so on for every adjacent check.")
