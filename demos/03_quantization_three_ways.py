"""Quantizing a moduli space along all three computation paths.

The closed-form path works with exact integers; the S-matrix formula
answers with the closed form's element once it is certified, mod one
prime at one point per Galois orbit and against the blocks' literal sums
at t_{k/2}; localization reproduces the values at the special points.  The
literal Gamma sum is a genuine consistency detector: flip any single phase
factor and it no longer matches the closed form at t_{k/2}.
"""

from verlinde import (
    SurfaceData,
    enumerate_choices,
    fs_formula,
    localization_evaluate,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
)
from verlinde import oracles
from verlinde.oracles import phase_vector

surface = SurfaceData(8, 1, (4, 4, 2))
print(f"surface: level {surface.level}, genus {surface.genus}, "
      f"labels {list(surface.labels)}  (star count r = {surface.star_count})\n")

for choice in enumerate_choices(surface):
    closed = quantize_surface(surface, choice)
    through_s = fs_formula(surface, choice)
    reduced = reduced_quantization(surface, choice)
    match = "ok" if closed.element == through_s.element else "MISMATCH"
    print(f"psi {list(choice.psi_bits)}: Q = {closed.element}")
    print(f"    closed == S-matrix formula: {match}; "
          f"reduced invariant {reduced} == trace {closed.reduced}")

print("\n— localization reproduces the special-point values (r = 4, k = 8)\n")
psi = (0, 1, 0, 1)
block = quantize_star_block(8, 4, psi)
print(f"star block Q = {block}")
for l in range(9):
    loc = localization_evaluate(8, 4, psi, l)
    print(f"  t_{l}: localization {loc:+.6f}  direct {block.evaluate(l):+.6f}")

print("\n— the built-in alarm: corrupt one phase and the literal sum disagrees\n")
control = SurfaceData(4, 0, (2, 2, 2))
choice = enumerate_choices(control)[0]
coeffs = fs_formula(control, choice).element.coeffs
want = control.gamma_size() * (sum(coeffs[::4]) - sum(coeffs[2::4]))
phases = phase_vector(control, choice)
print(f"|Gamma| times the value at t_2: fs {want}, "
      f"literal Gamma sum {oracles._literal_half_value(control, phases)}")
phases[1] = -phases[1]
print(f"with phase 1 flipped, the literal Gamma sum gives "
      f"{oracles._literal_half_value(control, phases)}")
