"""Quantizing a moduli space along all three computation paths.

The closed-form path works with exact integers; the S-matrix formula runs
in floating point and must round back to the same integers; localization
reproduces the values at the special points.  The integrality rounding is
a genuine consistency detector: flip any single phase factor and it
refuses to produce an element.
"""

from verlinde import (
    NonIntegralCoefficient,
    SurfaceData,
    enumerate_choices,
    fs_formula,
    localization_evaluate,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
)
from verlinde.oracles import fs_formula_with_phases, phase_vector

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

print("\n— the built-in alarm: corrupt one phase and the rounding fails\n")
control = SurfaceData(4, 0, (2, 2, 2))
choice = enumerate_choices(control)[0]
phases = phase_vector(control, choice)
phases[1] = -phases[1]
try:
    fs_formula_with_phases(control, phases)
    print("no exception (unexpected)")
except NonIntegralCoefficient as exc:
    print(f"NonIntegralCoefficient raised as designed:\n  {exc}")
