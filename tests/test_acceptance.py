"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the stated tolerance and time budget.  The heavy sweep is shared
between the cross-path and reduction criteria through a cached fixture.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from verlinde.fusion_ring import (
    FusionElement,
    NonIntegralCoefficient,
    s_matrix,
)
from verlinde.oracles import (
    classical_verlinde_number,
    fs_formula_with_phases,
    phase_vector as _phase_vector,
    star_choice_class,
    structure_constants_from_multiply,
    structure_constants_verlinde,
    sweep_surfaces,
)
from verlinde.prequant import PrequantChoice, SurfaceData, enumerate_choices
from verlinde.quantization import (
    chi_element,
    fs_formula,
    localization_evaluate,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
    tau_power,
    verlinde_baseline,
)

import random


def _report(num, label, elapsed, limit):
    print(f"criterion {num} ({label}): PASS [{elapsed:.2f}s < {limit:.0f}s]")


@pytest.fixture(scope="module")
def cross_path_sweep():
    """(surface, choice, closed result, fs result, reduced value) tuples
    over the criterion 4 box: k <= 20, r <= 5, h <= 2, labels from
    {0, 1, k/2, k}, all choices, |Gamma| <= 2^9."""
    start = time.perf_counter()
    rows = []
    for surface in sweep_surfaces(20, 5, 2, gamma_cap=2**9):
        for choice in enumerate_choices(surface):
            closed = quantize_surface(surface, choice)
            through_s = fs_formula(surface, choice, tol=1e-6)
            reduced = reduced_quantization(surface, choice)
            rows.append((surface, choice, closed, through_s, reduced))
    return rows, time.perf_counter() - start


def test_criterion_1_r2_golden_tables():
    start = time.perf_counter()
    for k in range(0, 41, 2):
        plus = [0] * (k + 1)
        minus = [0] * (k + 1)
        for m in range(0, k + 1, 4):
            plus[m] = 1
        for m in range(2, k + 1, 4):
            minus[m] = 1
        assert quantize_star_block(k, 2, "+") == FusionElement(k, tuple(plus))
        assert quantize_star_block(k, 2, "-") == FusionElement(k, tuple(minus))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "r=2 golden tables, even k <= 40", elapsed, 1)


def test_criterion_2_r3_closed_form():
    start = time.perf_counter()
    for k in range(0, 41, 4):
        for psi, delta in [((0, 0, 0), 1), ((0, 0, 1), 0), ((0, 1, 0), 0), ((0, 1, 1), 0)]:
            expected = [0] * (k + 1)
            for j in range(k // 2 + 1):
                numerator = min(2 * j, k - 2 * j) + 1 + (4 * delta - 1) * (-1) ** j
                assert numerator % 4 == 0
                expected[2 * j] = numerator // 4
            assert quantize_star_block(k, 3, psi) == FusionElement(k, tuple(expected))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "r=3 closed form, k in 4N <= 40, both classes", elapsed, 1)


def test_criterion_3_r4_tables():
    start = time.perf_counter()
    for k in range(0, 41, 4):
        half = k // 2
        base = [0] * (k + 1)
        for j in range(half + 1):
            base[2 * j] = half + 1 - 2 * j * j + j * k
        assert tau_power(k, 4) == FusionElement(k, tuple(base))
        chi = chi_element(k)
        chi_coeff = {
            "trivial": 6 * (-1) ** (k // 4) + (half + 1),
            "sum_zero": -(half + 1),
            "sum_minus_two": 2 * (-1) ** (k // 4 + 1) + (half + 1),
        }
        counts = {"trivial": 0, "sum_zero": 0, "sum_minus_two": 0}
        for bits in product((0, 1), repeat=3):
            psi = (0,) + bits
            label = star_choice_class(4, psi)
            counts[label] += 1
            got = quantize_star_block(k, 4, psi)   # integrality: exact division inside
            numerator = [b + chi_coeff[label] * c for b, c in zip(base, chi.coeffs)]
            assert all(n % 8 == 0 for n in numerator)
            assert got == FusionElement(k, tuple(n // 8 for n in numerator))
        assert counts == {"trivial": 1, "sum_zero": 4, "sum_minus_two": 3}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "r=4 power formula, 8 psi classes, counts 1/4/3", elapsed, 5)


def test_criterion_4_cross_path_equivalence(cross_path_sweep):
    rows, build_time = cross_path_sweep
    for surface, choice, closed, through_s, _ in rows:
        assert closed.element == through_s.element, (surface, choice)
    assert build_time < 60.0
    _report(4, f"cross-path equality on {len(rows)} (surface, choice) pairs",
            build_time, 60)


def test_criterion_5_localization():
    start = time.perf_counter()
    worst = 0.0
    for k in range(0, 41):
        for r in range(0, 7):
            if r >= 1 and k % 2:
                continue
            if r >= 3 and k % 4:
                continue
            for bits in product((0, 1), repeat=max(r - 1, 0)):
                psi = ((0,) + bits) if r >= 2 else ()
                element = quantize_star_block(k, r, psi)
                for l in range(k + 1):
                    loc = localization_evaluate(k, r, psi, l)
                    err = abs(loc - element.evaluate(l)) / (1.0 + abs(loc))
                    worst = max(worst, err)
    assert worst < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"localization agreement, k <= 40, r <= 6, max dev {worst:.1e}",
            elapsed, 10)


def test_criterion_6_reduction_compatibility(cross_path_sweep):
    rows, _ = cross_path_sweep
    start = time.perf_counter()
    for surface, choice, _, through_s, reduced in rows:
        assert reduced == through_s.element.trace, (surface, choice)
    elapsed = time.perf_counter() - start
    _report(6, f"reduced formula equals trace on {len(rows)} pairs", elapsed, 60)


def test_criterion_7_classical_baseline():
    start = time.perf_counter()
    for k in range(33):
        for genus in range(5):
            assert classical_verlinde_number(k, genus) == \
                verlinde_baseline(SurfaceData(k, genus, ())).reduced
    assert classical_verlinde_number(1, 2) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, "classical Verlinde numbers, k <= 32, genus <= 4", elapsed, 5)


def test_criterion_8_ring_properties():
    start = time.perf_counter()
    worst_orth = 0.0
    for k in range(101):
        smat = s_matrix(k)
        worst_orth = max(worst_orth, float(np.abs(smat @ smat.T - np.eye(k + 1)).max()))
    assert worst_orth < 1e-10

    for k in range(65):
        exact = structure_constants_from_multiply(k)
        assert np.isin(exact, (0, 1)).all()
        assert (exact == structure_constants_verlinde(k)).all()

    rng = random.Random(2024)
    worst_hom = 0.0
    for _ in range(1000):
        k = rng.randint(0, 64)
        a = FusionElement(k, tuple(rng.randint(-5, 5) for _ in range(k + 1)))
        b = FusionElement(k, tuple(rng.randint(-5, 5) for _ in range(k + 1)))
        ab = a * b
        l = rng.randint(0, k)
        prod = a.evaluate(l) * b.evaluate(l)
        worst_hom = max(worst_hom, abs(ab.evaluate(l) - prod) / (1.0 + abs(prod)))
    assert worst_hom < 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"S-orthogonality {worst_orth:.1e}, N in {{0,1}} to k=64, "
               f"homomorphism dev {worst_hom:.1e}", elapsed, 30)


def test_criterion_9_negative_control():
    start = time.perf_counter()
    surface = SurfaceData(4, 0, (2, 2, 2))
    for choice in enumerate_choices(surface):
        phases = list(_phase_vector(surface, choice))
        for i in range(len(phases)):
            corrupted = list(phases)
            corrupted[i] = -corrupted[i]
            with pytest.raises(NonIntegralCoefficient):
                fs_formula_with_phases(surface, corrupted)
    elapsed = time.perf_counter() - start
    _report(9, "every single phase flip detected (16 flips)", elapsed, 5)
