"""One full decode, step by step: error -> syndrome -> envelope -> correction.

Run from the repository root:  python3 demos/02_decode_one_error.py
"""

import random
from fractions import Fraction

from hgpdecode import (
    DecoderConfig,
    QubitSet,
    build_hgp,
    erase_decode_quantum,
    gen_biregular,
    reduce_error,
    ssfind,
    syndrome,
    verify_coset,
)

code = build_hgp(gen_biregular(60, 3, 6, seed=1))
rng = random.Random(11)
error = QubitSet.from_indices(code, rng.sample(range(code.num_qubits), 6))
reduced = reduce_error(code, error, mode="greedy")
sigma = syndrome(code, reduced)
print(f"code: N={code.num_qubits}; injected weight {error.weight}, "
      f"reduced weight {reduced.weight}, syndrome |sigma|={len(sigma)}")

result = ssfind(code, sigma, DecoderConfig(epsilon=Fraction(1, 20)))
print(f"\nsearch ran {result.iterations} iterations in {result.mode} mode; "
      f"envelope has {result.envelope.weight} qubits")
for entry in result.trace:
    print(f"  it {entry.iteration}: generator {entry.generator} mask "
          f"{entry.mask:#05x} scored {entry.score_num}/{entry.score_den}, "
          f"|L|={entry.envelope_size}, |R|={entry.suspicious_size}")

covered = reduced <= result.envelope
print(f"\nenvelope covers the reduced error: {covered}")

# The solve sees only the syndrome and the envelope; the coset is judged
# afterwards, against the error it never saw.
verdict = erase_decode_quantum(code, sigma, result.envelope)
print(f"erasure solve: status={verdict.status}, correction weight "
      f"{verdict.correction.weight}, rows touched {verdict.rows_touched}")
print(f"correction equals the error up to generator toggles: "
      f"{verify_coset(code, verdict.correction, reduced)}")
