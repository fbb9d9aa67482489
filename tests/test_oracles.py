import hashlib

import numpy as np
import pytest

from verlinde import oracles, prequant, quantization
from verlinde.fusion_ring import FusionElement, PrecisionExhausted
from verlinde.oracles import (
    check_cross_paths,
    check_literal_gamma_sum,
    check_negative_control,
    classical_verlinde_number,
    closed_form_tables,
    run_verification_suite,
    star_choice_class,
    structure_constants_from_multiply,
    structure_constants_verlinde,
    sweep_surfaces,
)
from verlinde.prequant import NotAdmissible, SurfaceData, enumerate_choices
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
    # literal side of the check must compute without them.
    helpers = ("_half_value", "_chi_coefficient", "_krawtchouk_sum", "_double_factor",
               "_tau_at_half")

    def guarded(fn):
        def literal(*args):
            with monkeypatch.context() as patch:
                for name in helpers:
                    patch.setattr(quantization, name, _raising)
                return fn(*args)
        return literal

    for name in ("phase_vector", "fs_formula_with_phases"):
        monkeypatch.setattr(oracles, name, guarded(getattr(oracles, name)))
    _clear_quantization_caches()
    result = check_literal_gamma_sum(12, 4, 1)
    requests, classes = 0, set()
    for surf in sweep_surfaces(12, 4, 1, gamma_cap=2**6):
        for choice in enumerate_choices(surf):
            requests += 1
            classes.add((surf, *prequant._canonical_class(surf, choice)[1:]))
    assert result.passed
    assert (result.params["requests"], result.params["classes"]) == (requests, len(classes))
    assert len(classes) < requests


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


def test_report_json_shape():
    report = run_verification_suite(2, 1, 0)
    data = report.to_json_dict()
    assert data["pass"] is True
    assert all({"name", "params", "pass", "deviation"} <= set(c) for c in data["checks"])
