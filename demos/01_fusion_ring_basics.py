"""A walk through exact arithmetic in the level-k fusion ring of SU(2).

Characters chi_m of SU(2) multiply by the Clebsch-Gordan rule; at level k
everything is folded back into the basis tau_0..tau_k by the affine
reflection with period 2(k+2).  Evaluation at the special points t_l
diagonalizes the product, and the Kac-Peterson S-matrix moves between the
tau basis and the idempotent basis.
"""

import numpy as np

from verlinde import FusionElement, from_idempotent, s_matrix, to_idempotent

k = 4
print(f"— working at level k = {k}; basis tau_0 .. tau_{k}\n")

# Multiplication is the Clebsch-Gordan expansion followed by folding.
# The ideal is generated by chi_{k+1} = chi_1 chi_k - chi_{k-1}, which
# folds to zero, and higher characters fold back with alternating signs:
# chi_2 chi_4 = chi_6 + chi_4 + chi_2, and chi_6 folds to -tau_4.
t1, t2, t3, t4 = (FusionElement.tau(k, m) for m in range(1, 5))
print(f"tau_1 * tau_4 - tau_3 = {t1 * t4 - t3}       (the image of chi_{k + 1})")
print(f"tau_2 * tau_4         = {t2 * t4}   (chi_6 folds to -tau_4)")
print(f"\ntau_2 * tau_2     = {t2 * t2}")
print(f"tau_2^3           = {t2 ** 3}")
print(f"tau_2^4           = {t2 ** 4}")

# The special points t_l diagonalize the ring: evaluation is multiplicative.
a, b = FusionElement(k, (1, 0, 2, 0, 0)), FusionElement(k, (0, 1, 0, 1, 0))
print("\nevaluations of a, b and a*b at every special point:")
for l in range(k + 1):
    va, vb, vab = a.evaluate(l), b.evaluate(l), (a * b).evaluate(l)
    print(f"  l={l}:  a={va:+.6f}  b={vb:+.6f}  a*b={vab:+.6f}  "
          f"(product of values {va * vb:+.6f})")

# The S-matrix is symmetric and orthogonal; its columns give the
# idempotent basis elements taut_l with taut_m(t_l) = delta.
S = s_matrix(k)
print(f"\nS-matrix orthogonality defect: {np.abs(S @ S.T - np.eye(k + 1)).max():.2e}")

# Round trip through the idempotent basis recovers the exact integers.
x = FusionElement(k, (3, -1, 0, 7, 2))
vec = to_idempotent(x)
print(f"\nx = {x}")
print(f"idempotent coordinates of x: {[round(v, 6) for v in vec.tolist()]}")
print(f"back in the tau basis:       {from_idempotent(vec)}")
