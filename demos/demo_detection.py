"""Inside the algebraic detector.

Shows the circuit polynomial for a tiny embedding instance, why repeated
host vertices cancel under the fingerprint substitution, and the measured
per-trial success rate of the randomized detection next to its proven
bound.
"""

import random

from snowteam import (
    build_circuit,
    detect_zt_multilinear,
    eval_trial,
    expand_symbolic,
    gf_mul,
    make_instance,
    transitive_closure,
)
from snowteam.trees import candidate_from_code

host = transitive_closure(
    make_instance(3, [(0, 1), (1, 2)], facilities={0, 2}, ploughs={0: 1})
)
pattern = candidate_from_code("0 1 / d")  # one arc, demand 1 at the tail
circuit = build_circuit(host, pattern, host.facilities() | host.bases())

print("pattern:", pattern.code_str(), "demand", pattern.demand)
print(f"gates ({len(circuit.gates)}): x = z^e * x_(w,u), add, mul")
for gid, gate in enumerate(circuit.gates):
    print(f"  {gid}: {gate}")
print("expansion (variables, z-degree) -> coefficient:")
for key, coef in sorted(expand_symbolic(circuit, 4, 4).items()):
    print("  ", key, "->", coef)
print("the z^2 term with two distinct variables is the embedding u->0, v->2")

print("\nfingerprints: x_w -> a_w1 y1 + a_w2 y2 over GF(2^64); the y1*y2")
print("coefficient of x_v * x_w is the determinant a_v1 a_w2 + a_v2 a_w1")
rng = random.Random(5)
a = {w: (rng.getrandbits(64), rng.getrandbits(64)) for w in (0, 2)}


def det(p, q):
    return gf_mul(p[0], q[1]) ^ gf_mul(p[1], q[0])


print(f"  distinct vertices 0, 2: {det(a[0], a[2]):#018x}")
print(f"  repeated vertex 0, 0:   {det(a[0], a[0]):#018x}")

seeds = 400
k = pattern.order
hits = sum(eval_trial(circuit, t=2, k=k, seed=s) != 0 for s in range(seeds))
print(f"\nper-trial survival of the embedding monomial: {hits}/{seeds}"
      f" = {hits / seeds:.3f} (proven miss rate at most 2k/2^64 = {2 * k / 2**64:.1e})")
print("detection at seed 1 says:", detect_zt_multilinear(circuit, t=2, k=k, seed=1))

print("\none-sidedness: no z^3 monomial exists, so every trial is zero:")
hits = sum(eval_trial(circuit, t=3, k=k, seed=s) != 0 for s in range(seeds))
print(f"  nonzero evaluations at z^3: {hits}/{seeds}")
