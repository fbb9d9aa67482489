import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import verlinde
from verlinde import fusion_ring, oracles, prequant, quantization
from verlinde.fusion_ring import (
    FusionElement,
    NonIntegralValue,
    PrecisionExhausted,
    round_to_integer,
    s_matrix,
)
from verlinde.oracles import (
    CheckResult,
    check_cross_paths,
    check_literal_gamma_sum,
    check_negative_control,
    classical_verlinde_number,
    closed_form_tables,
    fs_formula_with_phases,
    phase_vector,
    run_verification_suite,
    star_choice_class,
    structure_constants_from_multiply,
    structure_constants_verlinde,
    sweep_surfaces,
)
from verlinde.prequant import NotAdmissible, SurfaceData, enumerate_choices, enumerate_gamma
from verlinde.quantization import quantize_star_block, tau_power


def tau(k, m):
    return FusionElement.tau(k, m)


class TestStructureConstants:
    def test_unit_fusion(self):
        assert structure_constants_verlinde(4)[1, 1, 0] == 1

    def test_star_fusion(self):
        assert structure_constants_verlinde(4)[2, 4, 2] == 1

    def test_truncation(self):
        assert structure_constants_verlinde(2)[2, 2, 2] == 0

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9, 16, 24])
    def test_matches_exact_multiplication(self, k):
        verlinde = structure_constants_verlinde(k)
        exact = structure_constants_from_multiply(k)
        assert (verlinde == exact).all()
        assert np.isin(exact, (0, 1)).all()


class TestClosedFormTables:
    def test_r2_plus(self):
        assert closed_form_tables(8, 2, "+") == tau(8, 0) + tau(8, 4) + tau(8, 8)

    def test_r2_minus_case_split(self):
        assert closed_form_tables(6, 2, "-") == tau(6, 2) + tau(6, 6)
        assert closed_form_tables(8, 2, "-") == tau(8, 2) + tau(8, 6)

    def test_r4_base_power(self):
        assert closed_form_tables(4, 4, "base") == FusionElement(4, (3, 0, 5, 0, 3))

    def test_r3_trivial(self):
        assert closed_form_tables(4, 3, "trivial") == tau(4, 0) + tau(4, 4)

    def test_inadmissible_level(self):
        with pytest.raises(NotAdmissible):
            closed_form_tables(6, 3, "trivial")

    @pytest.mark.parametrize("k", range(0, 25, 2))
    def test_base_tables_match_fusion_powers(self, k):
        assert closed_form_tables(k, 2, "base") == tau_power(k, 2)
        if k % 4 == 0:
            assert closed_form_tables(k, 3, "base") == tau_power(k, 3)
            assert closed_form_tables(k, 4, "base") == tau_power(k, 4)

    @pytest.mark.parametrize("k", range(0, 25, 4))
    def test_match_star_blocks(self, k):
        from itertools import product
        assert closed_form_tables(k, 2, "+") == quantize_star_block(k, 2, "+")
        assert closed_form_tables(k, 2, "-") == quantize_star_block(k, 2, "-")
        for r in (3, 4):
            for bits in product((0, 1), repeat=r - 1):
                psi = (0,) + bits
                label = star_choice_class(r, psi)
                assert closed_form_tables(k, r, label) == quantize_star_block(k, r, psi)

    def test_r4_class_counts(self):
        from itertools import product
        counts = {"trivial": 0, "sum_zero": 0, "sum_minus_two": 0}
        for bits in product((0, 1), repeat=3):
            counts[star_choice_class(4, (0,) + bits)] += 1
        assert counts == {"trivial": 1, "sum_zero": 4, "sum_minus_two": 3}


class TestClassicalVerlinde:
    def test_level_one_genus_two(self):
        assert classical_verlinde_number(1, 2) == 4

    @pytest.mark.parametrize("k", range(0, 33))
    def test_torus(self, k):
        assert classical_verlinde_number(k, 1) == k + 1

    def test_sphere(self):
        assert classical_verlinde_number(2, 0) == 1

    def test_big_values_round_cleanly(self):
        # genus 4 at k = 32 stresses the scaled integrality window
        assert classical_verlinde_number(32, 4) > 10**9

    def test_power_out_of_double_range_exhausts_precision(self):
        # S[0, l]^(2 - 2g) overflows the Python float power at genus 100
        with pytest.raises(PrecisionExhausted, match="out of double range"):
            classical_verlinde_number(32, 100)

    @pytest.mark.parametrize("k", [*range(41), 124, 300, 1000])
    def test_reads_row_0_alone(self, monkeypatch, k):
        # The same number, or the same exception, as the sum over row 0 of
        # the whole matrix, with no matrix formed; at k = 1000 genus 3 is
        # past 2^53.
        want = [_outcome(_number_from_the_matrix, k, g) for g in range(4)]
        _forbid_the_matrix(monkeypatch)
        assert [_outcome(classical_verlinde_number, k, g) for g in range(4)] == want

    def test_level_2000_leaves_the_peak_memory_alone(self):
        # The whole matrix at k = 2000 holds 4 million entries, and forming
        # it raised the peak RSS by about 92 MB; row 0 is 16 kB.
        code = ("import resource\n"
                "from verlinde.oracles import classical_verlinde_number\n"
                "classical_verlinde_number(40, 1)\n"  # the first call's own allocations
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "assert classical_verlinde_number(2000, 1) == 2001\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = str(Path(verlinde.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, else kB
        assert int(run.stdout) * unit < 10 * 2**20


def _outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _number_from_the_matrix(k, genus):
    """The classical Verlinde number as the sum over row 0 of ``s_matrix``."""
    try:
        value = math.fsum(float(x) ** (2 - 2 * genus) for x in s_matrix(k)[0])
    except OverflowError:
        value = math.inf
    return round_to_integer(value, exc=NonIntegralValue, context="Verlinde number")


def _no_matrix(k):
    raise AssertionError(f"the whole S-matrix at level {k} was formed")


def _forbid_the_matrix(monkeypatch):
    for module in (fusion_ring, oracles):
        monkeypatch.setattr(module, "s_matrix", _no_matrix)


def _gamma_terms_from_the_matrix(surface):
    """The literal Gamma sum's phase-free terms at t_{k/2} from the rows of
    ``s_matrix``: prod_{j: gamma_j = e} S[m_j, k/2] / S[0, k/2]^(s+2h) in
    floating point, rounded."""
    half = surface.level // 2
    column = s_matrix(surface.level)[:, half]
    return tuple(round(math.prod(column[m] for m, c in zip(surface.labels, gamma.bits) if not c)
                       / column[0] ** surface.num_slots)
                 for gamma in oracles._literal_table(surface)[0])


@pytest.mark.parametrize("surfaces", [
    lambda: sweep_surfaces(40, 3, 1, gamma_cap=2**4),
    *(lambda k=k: [SurfaceData(k, 0, (k // 2, k // 2, 7)), SurfaceData(k, 1, (k // 2, 3, k - 1))]
      for k in (124, 300, 1000))], ids=["k<=40", "k=124", "k=300", "k=1000"])
def test_literal_gamma_sum_reads_only_its_rows(monkeypatch, surfaces):
    # The integer terms are the whole matrix's, and the literal sum with
    # every choice's phases forms no matrix.
    cases = [(surface, _gamma_terms_from_the_matrix(surface) if surface.level % 2 == 0 else None)
             for surface in surfaces()]
    _forbid_the_matrix(monkeypatch)
    oracles._literal_table.cache_clear()
    for surface, want in cases:
        if want is not None:  # at odd k, Gamma = {e} and there is no t_{k/2}
            got = oracles._literal_table(surface)[1]
            assert got == want and all(type(term) is int for term in got), surface
        for choice in enumerate_choices(surface):
            element = fs_formula_with_phases(surface, phase_vector(surface, choice))
            assert element == quantization.quantize_surface(surface, choice).element, surface


class TestSweep:
    def test_labels_come_from_pool(self):
        for surf in sweep_surfaces(8, 3, 1):
            pool = {0, 1, surf.level // 2, surf.level}
            assert set(surf.labels) <= pool
            assert surf.gamma_size() <= 2**9

    def test_all_admissible(self):
        from verlinde.prequant import check_prequantization
        assert all(check_prequantization(s).admissible for s in sweep_surfaces(8, 3, 1))

    def test_builds_only_the_surfaces_it_yields(self, monkeypatch):
        # k, h and the star count decide admissibility and |Gamma|, so the
        # sweep builds only the 1,141 surfaces it yields and the 840 forms
        # without labels 0 and k that they fold to, not all 1,629 keys of the box
        built = 0
        post_init = SurfaceData.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(SurfaceData, "__post_init__", counting)
        surfaces = list(sweep_surfaces(20, 5, 2))
        assert built == 1981
        assert all(s._admissible and s.gamma_size() <= 2**9 for s in surfaces)
        keys = repr([(s.level, s.genus, s.labels) for s in surfaces]).encode()
        assert len(surfaces) == 1141 and hashlib.sha256(keys).hexdigest() == (
            "4af00032aeb789551c56bf7a973961666e73162ed9389e38a10ce5b787cba0ec")


def test_negative_control_check():
    result = check_negative_control()
    assert result.passed
    assert result.params["flips"] == 16


def test_cross_paths_counts_requests_and_folded_classes():
    # classes: a star bits set and d doubles with phi != (0, 0), read as
    # min(a, r - a) and as min(d, 1) for k in 4N, else d mod 2; the paths
    # compute a class on the surface without its labels 0 and k (except at
    # k = 0, where 0 is the star label)
    result = check_cross_paths(8, 4, 2)
    pairs, classes, computed = 0, set(), set()
    for surf in sweep_surfaces(8, 4, 2):
        r, s, k = surf.star_count, surf.num_boundary, surf.level
        folded = SurfaceData(k, surf.genus, tuple(m for m in surf.labels if not k or m % k))
        for choice in enumerate_choices(surf):
            bits = choice.psi_bits
            a = sum(bits[j] for j in surf.star_slots)
            d = sum(bits[i] | bits[i + 1] for i in range(s, surf.num_slots, 2))
            a_d = min(a, r - a), min(d, 1) if k % 4 == 0 else d % 2
            classes.add((surf, *a_d))
            computed.add((folded, *a_d))
            pairs += 1
    assert result.passed
    assert (result.params["pairs"], result.params["classes"],
            result.params["computed_classes"]) == (pairs, len(classes), len(computed))
    assert len(computed) < len(classes) < pairs


def _clear_quantization_caches():
    for obj in vars(quantization).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _raising(*args):
    raise AssertionError("the literal Gamma sum read a closed-form helper")


def test_literal_gamma_sum_reads_no_closed_form_helper(monkeypatch):
    # Each class's value at t_{k/2} is written once, in these helpers; the
    # literal side of the check, and fs_formula_with_phases on it, must
    # compute without them.
    helpers = ("_half_value", "_chi_coefficient", "_krawtchouk_sum", "_double_factor",
               "_tau_at_half")
    calls = dict.fromkeys(("phase_vector", "_literal_half_value", "fs_formula_with_phases"), 0)

    def guarded(name, fn):
        def literal(*args):
            calls[name] += 1
            with monkeypatch.context() as patch:
                for helper in helpers:
                    patch.setattr(quantization, helper, _raising)
                return fn(*args)
        return literal

    for name in calls:
        monkeypatch.setattr(oracles, name, guarded(name, getattr(oracles, name)))
    _clear_quantization_caches()
    result = check_literal_gamma_sum(12, 4, 1)
    requests, classes = 0, set()
    for surf in sweep_surfaces(12, 4, 1, gamma_cap=2**6):
        for choice in enumerate_choices(surf):
            requests += 1
            classes.add((surf, *prequant._canonical_class(surf, choice)[1:]))
            want = quantization.quantize_surface(surf, choice).element
            assert oracles.fs_formula_with_phases(surf, oracles.phase_vector(surf, choice)) == want
    assert result.passed
    assert (result.params["requests"], result.params["classes"]) == (requests, len(classes))
    assert len(classes) < requests
    assert calls["_literal_half_value"] > requests and calls["fs_formula_with_phases"] == requests


def test_literal_gamma_sum_reads_no_choice_class(monkeypatch):
    # The literal side reads Gamma's and the choice's own bits, not the
    # closed form's classification of the choice.
    cases = []
    for surf in sweep_surfaces(12, 4, 2, gamma_cap=2**6):
        for choice in enumerate_choices(surf):
            coeffs = quantization.quantize_surface(surf, choice).element.coeffs
            cases.append((surf, choice, surf.gamma_size() * (sum(coeffs[::4]) - sum(coeffs[2::4]))))
    for module, name in ((prequant, "_classify"), (prequant, "_canonical_class"),
                         (oracles, "_canonical_class")):
        monkeypatch.setattr(module, name, _raising)
    oracles._literal_table.cache_clear()
    for surf, choice, want in cases:
        phases, gammas = phase_vector(surf, choice), enumerate_gamma(surf)
        assert phases == [prequant.phase_factor(surf.level, choice, g) for g in gammas]
        if surf.level % 2 == 0:
            assert oracles._literal_half_value(surf, phases) == want, (surf, choice)
    assert len(cases) == 7004


def test_literal_gamma_sum_makes_no_transform(monkeypatch):
    def no_transform(y):
        raise AssertionError("the literal Gamma sum check ran a sine transform")

    monkeypatch.setattr(fusion_ring, "_sine_transform", no_transform)
    _clear_quantization_caches()
    try:
        result = check_literal_gamma_sum(12, 4, 1)
    finally:
        _clear_quantization_caches()
    assert result.passed and result.params["box"]["requests"] > 0


def _nonstar_sign_dropped(surface, a, d):
    """``quantization._half_value`` with |tau_m(t_{k/2})| on the non-star labels."""
    k, r, h = surface.level, surface.star_count, surface.genus
    nonstar = (k // 2 + 1) ** h * math.prod(abs(quantization._tau_at_half(m))
                                            for m in surface.nonstar_labels)
    star = (quantization._tau_at_half(k // 2) ** r
            + quantization._chi_coefficient(k, r, a) * (k // 2 + 1))
    return nonstar * star * quantization._double_factor(k, h, d)


def test_literal_gamma_sum_catches_a_wrong_double_sign(monkeypatch):
    # A wrong value at t_{k/2} that every path reads alike: the paths agree
    # with each other, and only the literal sum disagrees.
    double_factor = quantization._double_factor
    monkeypatch.setattr(quantization, "_double_factor",
                        lambda k, h, d: double_factor(k, h, d) * (-1) ** d)
    _clear_quantization_caches()
    try:
        literal = check_literal_gamma_sum(10, 2, 1)
        cross = check_cross_paths(10, 2, 1)
    finally:
        _clear_quantization_caches()
    assert cross.passed
    assert not literal.passed and literal.deviation > 0


def test_literal_gamma_sum_catches_a_dropped_nonstar_sign(monkeypatch):
    # The sweep's labels cannot show it (0 and k fold away, and tau_1
    # vanishes at t_{k/2}); the general-label box does, where some classes
    # also fail the closed form's exact division.
    monkeypatch.setattr(quantization, "_half_value", _nonstar_sign_dropped)
    _clear_quantization_caches()
    try:
        literal = check_literal_gamma_sum(10, 2, 1)
        cross = check_cross_paths(10, 2, 1)
    finally:
        _clear_quantization_caches()
    assert cross.passed
    assert not literal.passed and literal.deviation > 0


def test_literal_gamma_sum_past_the_float_frontier():
    # Every choice of these surfaces made the float literal sum raise
    # PrecisionExhausted; in integers N_lit is |Gamma| times the closed
    # form's value at t_{k/2}, c_0 - c_2 + c_4 - ...
    for surface, n_choices in ((SurfaceData(80, 2, (40, 40, 40, 52, 63, 52)), 64),
                               (SurfaceData(400, 2, (91, 156, 200, 200)), 32),
                               (SurfaceData(1000, 2, (500, 500, 7, 993)), 32),
                               (SurfaceData(4000, 1, (2000,) * 4), 32)):
        choices = enumerate_choices(surface)
        assert len(choices) == n_choices
        for choice in choices:
            coeffs = quantization.quantize_surface(surface, choice).element.coeffs
            value = sum(coeffs[::4]) - sum(coeffs[2::4])
            assert oracles._literal_half_value(surface, phase_vector(surface, choice)) == (
                surface.gamma_size() * value), (surface, choice)


def test_suite_small_box_passes():
    report = run_verification_suite(6, 3, 1)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "cross_path_equality" in names
    assert "literal_gamma_sum" in names
    assert "negative_control_phase_flip" in names


def test_suite_trivial_box():
    report = run_verification_suite(0, 0, 0)
    assert report.passed


@pytest.mark.parametrize("box,name", [((-1, 0, 0), "max_k"), ((0, -1, 0), "max_r"),
                                      ((0, 0, -1), "max_h")])
def test_suite_rejects_a_negative_bound(box, name):
    with pytest.raises(ValueError, match=f"bound {name} .*non-negative, got -1"):
        run_verification_suite(*box)


def test_each_check_reports_its_wall_time():
    assert CheckResult("name", {}, True).wall_s == 0.0
    report = run_verification_suite(2, 1, 0)
    assert all(type(c.wall_s) is float and c.wall_s >= 0 for c in report.checks)
    assert sum(c.wall_s for c in report.checks) > 0
    assert [c["wall_s"] for c in report.to_json_dict()["checks"]] == [
        c.wall_s for c in report.checks]


def test_report_json_shape():
    report = run_verification_suite(2, 1, 0)
    data = report.to_json_dict()
    assert data["pass"] is True
    assert all({"name", "params", "pass", "deviation"} <= set(c) for c in data["checks"])
