import copyreg
import inspect
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verlinde import prequant, quantization
from verlinde.fusion_ring import (
    FusionElement,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    _add_star_idempotent,
    _round_coefficients,
    _sine_coefficients,
    s_matrix,
)
from verlinde.prequant import (
    GammaElement,
    GroupTooLarge,
    NotAdmissible,
    PrequantChoice,
    SurfaceData,
    canonicalize_choice,
    enumerate_choices,
    enumerate_gamma,
)
from verlinde.quantization import (
    QuantizationResult,
    chi_element,
    fs_formula,
    localization_evaluate,
    quantize_double_so3,
    quantize_double_su2,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
    tau_power,
    verlinde_baseline,
)
from verlinde.oracles import (
    closed_form_tables,
    fs_formula_with_phases,
    phase_vector as _phase_vector,
    star_choice_class,
    sweep_surfaces,
)


def tau(k, m):
    return FusionElement.tau(k, m)


class TestChiElement:
    def test_level_four(self):
        assert chi_element(4).coeffs == (1, 0, -1, 0, 1)

    def test_value_at_star_point(self):
        for k in (2, 4, 8, 12):
            assert chi_element(k).evaluate(k // 2) == pytest.approx(k / 2 + 1)

    def test_vanishes_elsewhere(self):
        k = 8
        for l in range(k + 1):
            if l != k // 2:
                assert chi_element(k).evaluate(l) == pytest.approx(0.0, abs=1e-9)

    def test_odd_level_rejected(self):
        with pytest.raises(ValueError):
            chi_element(5)


class TestStarBlock:
    def test_r2_plus_level_four(self):
        assert quantize_star_block(4, 2, "+") == FusionElement(4, (1, 0, 0, 0, 1))

    def test_r2_minus_level_six(self):
        got = quantize_star_block(6, 2, "-")
        assert got == tau(6, 2) + tau(6, 6)

    def test_r3_trivial(self):
        # 1/4 (tau_2^3 + 3 chi) at k = 4
        expected = tau(4, 2) ** 3 + 3 * chi_element(4)
        expected = FusionElement(4, tuple(c // 4 for c in expected.coeffs))
        got = quantize_star_block(4, 3, (0, 0, 0))
        assert got == expected == tau(4, 0) + tau(4, 4)

    def test_r4_trivial(self):
        # 1/8 (tau_2^4 + (6(-1) + 3) chi) at k = 4
        assert quantize_star_block(4, 4, (0, 0, 0, 0)) == tau(4, 2)

    def test_r1_is_star_class(self):
        for k in (2, 4, 10):
            assert quantize_star_block(k, 1) == tau(k, k // 2)

    def test_r0_is_unit(self):
        assert quantize_star_block(7, 0) == tau(7, 0)

    def test_inadmissible(self):
        with pytest.raises(NotAdmissible):
            quantize_star_block(6, 3, (0, 0, 0))
        with pytest.raises(NotAdmissible):
            quantize_star_block(5, 1)

    def test_psi_canonicalization(self):
        # psi and its global flip define the same functional on Gamma'
        assert quantize_star_block(8, 4, (1, 0, 1, 0)) == quantize_star_block(8, 4, (0, 1, 0, 1))


class TestBuildingBlocks:
    def test_conjugacy_class(self):
        # a boundary circle labelled m alone quantizes to tau_m, on every path
        for k, m in ((5, 0), (4, 2), (7, 7)):
            surface = SurfaceData(k, 0, (m,))
            for choice in enumerate_choices(surface):
                assert quantize_surface(surface, choice).element == tau(k, m)
                assert fs_formula(surface, choice).element == tau(k, m)

    def test_double_su2_small_levels(self):
        assert quantize_double_su2(1) == FusionElement(1, (2, 0))
        assert quantize_double_su2(2) == FusionElement(2, (3, 0, 1))

    def test_double_su2_closed_form(self):
        """sum_{j even} (k - j + 1) tau_j, term by term, for every k to 400."""
        for k in range(401):
            expected = tuple(0 if j % 2 else k - j + 1 for j in range(k + 1))
            assert quantize_double_su2(k).coeffs == expected, k

    @pytest.mark.parametrize("k", range(0, 33))
    def test_double_su2_trace_counts_basis(self, k):
        assert quantize_double_su2(k).trace == k + 1

    def test_double_so3_trivial_phi(self):
        assert quantize_double_so3(2, (0, 0)) == tau(2, 2)

    def test_double_so3_nontrivial_phi(self):
        for phi in ((0, 1), (1, 0), (1, 1)):
            assert quantize_double_so3(2, phi) == tau(2, 0)

    def test_double_so3_level_four_integral(self):
        elem = quantize_double_so3(4, (0, 0))
        assert elem.trace >= 0
        assert elem == FusionElement(4, (2, 0, 0, 0, 1))

    def test_tau_power_needs_condition_ii_prime(self):
        # tau_{k/2}^r exists at every even k; condition (iii) is not asked
        assert tau_power(6, 3) == tau(6, 3) ** 3
        with pytest.raises(NotAdmissible) as info:
            tau_power(5, 2)
        assert str(info.value) == ("inadmissible: condition (ii') requires k in 2N "
                                   "when the star count is >= 1")

    def test_double_so3_odd_level(self):
        """The odd-level double fails as a genus-one surface does."""
        for k, phi in product((1, 3, 7), ((0, 0), (1, 1))):
            with pytest.raises(NotAdmissible) as surface_info:
                quantize_surface(SurfaceData(k, 1, ()))
            with pytest.raises(NotAdmissible) as info:
                quantize_double_so3(k, phi)
            assert str(info.value) == str(surface_info.value)


class TestQuantizeSurface:
    def test_two_stars(self):
        res = quantize_surface(SurfaceData(4, 0, (2, 2)), PrequantChoice((0, 0)))
        assert res.element == tau(4, 0) + tau(4, 4)
        assert res.reduced == 1
        assert res.path == "closed_form"

    def test_stars_and_plain_label(self):
        # (tau_0 + tau_4) tau_4 with tau_4^2 = tau_0 at k = 4
        res = quantize_surface(SurfaceData(4, 0, (2, 2, 4)))
        assert res.element == tau(4, 0) + tau(4, 4)

    def test_genus_one(self):
        res = quantize_surface(SurfaceData(2, 1, ()), PrequantChoice((0, 0)))
        assert res.element == tau(2, 2)
        assert res.reduced == 0

    def test_inadmissible(self):
        with pytest.raises(NotAdmissible, match=r"\(iii\)"):
            quantize_surface(SurfaceData(6, 0, (3, 3, 3)))


class TestFsFormula:
    def test_matches_closed_form_examples(self):
        cases = [
            (SurfaceData(4, 0, (2, 2, 2)), PrequantChoice((0, 0, 0))),
            (SurfaceData(4, 0, (2, 2, 2)), PrequantChoice((0, 1, 0))),
            (SurfaceData(8, 1, (4, 4, 1)), PrequantChoice((0, 1, 0, 1, 0))),
            (SurfaceData(2, 2, (1, 1)), PrequantChoice((0, 1, 1, 1, 0, 0))),
        ]
        for surf, choice in cases:
            assert fs_formula(surf, choice).element == quantize_surface(surf, choice).element

    def test_trivial_group_reproduces_class(self):
        res = fs_formula(SurfaceData(5, 0, (3,)))
        assert res.element == tau(5, 3)

    def test_three_stars(self):
        res = fs_formula(SurfaceData(4, 0, (2, 2, 2)), PrequantChoice((0, 0, 0)))
        assert res.element == tau(4, 0) + tau(4, 4)
        assert res.path == "fs_float"

    def test_flipped_phase_detected(self):
        # by the rounding, not by the precision bound
        surf = SurfaceData(4, 0, (2, 2, 2))
        for choice in enumerate_choices(surf):
            phases = _phase_vector(surf, choice)
            for i in range(len(phases)):
                flipped = phases[:i] + [-phases[i]] + phases[i + 1:]
                with pytest.raises(NonIntegralCoefficient) as info:
                    fs_formula_with_phases(surf, flipped)
                assert type(info.value) is NonIntegralCoefficient

    def test_fs_and_reduced_match_the_literal_gamma_sum(self):
        requests = 0
        for surf in sweep_surfaces(20, 5, 2, gamma_cap=2**6):
            for choice in enumerate_choices(surf):
                literal = fs_formula_with_phases(surf, _phase_vector(surf, choice))
                assert fs_formula(surf, choice).element == literal
                assert reduced_quantization(surf, choice) == literal.trace
                requests += 1
        assert requests == 14940

    @pytest.mark.parametrize("surf", [SurfaceData(2, 11, ()), SurfaceData(4, 10, (2, 2, 2))])
    def test_gamma_beyond_enumeration_cap(self, surf):
        # |Gamma| = 2^22: too large to list, but the block sum never lists it
        all_ones = canonicalize_choice(surf, (1,) * surf.num_slots)
        for choice in (None, all_ones):
            closed = quantize_surface(surf, choice)
            assert fs_formula(surf, choice).element == closed.element
            assert reduced_quantization(surf, choice) == closed.reduced
        with pytest.raises(GroupTooLarge):
            enumerate_gamma(surf)
        with pytest.raises(GroupTooLarge):
            enumerate_choices(surf)


def _frontier_box(seed, n):
    """n admissible (surface, canonical choice) pairs across the float
    path's precision frontier: half at k <= 40 with genus up to 30, half at
    k <= 200 with genus up to 6, each with up to four star labels (two when
    k is not in 4N) and up to three random labels."""
    rng = random.Random(seed)
    box = []
    while len(box) < n:
        if rng.random() < 0.5:
            k, h = rng.randrange(2, 41, 2), rng.randint(0, 30)
        else:
            k, h = rng.randrange(2, 201, 2), rng.randint(0, 6)
        r = rng.randint(0, 4 if k % 4 == 0 else 2)
        labels = (k // 2,) * r + tuple(rng.randint(0, k) for _ in range(rng.randint(0, 3)))
        surf = SurfaceData(k, h, labels)
        if surf.admissibility.admissible:
            bits = [rng.randint(0, 1) for _ in range(surf.num_slots)]
            box.append((surf, canonicalize_choice(surf, bits)))
    return box


def test_fs_formula_is_exact_or_raises_across_the_precision_frontier():
    # Past 2^53 the float path used to return wrong integers silently.
    outcomes = Counter()
    for surf, choice in _frontier_box(2026, 4000):
        closed = quantize_surface(surf, choice).element
        try:
            element = fs_formula(surf, choice).element
        except PrecisionExhausted:
            outcomes["exhausted"] += 1
        except NonIntegralCoefficient:
            outcomes["non-integral"] += 1
        else:
            assert element == closed, (surf, choice)
            outcomes["exact"] += 1
    assert min(outcomes["exact"], outcomes["exhausted"]) > 500, outcomes
    # the whole sum is bounded, so a valid surface is never a disagreement
    assert outcomes["non-integral"] == 0, outcomes


def test_star_counts_out_of_double_range_exhaust_precision():
    # The value at t_{k/2} is in double range, but S[0, l]^-1100 is not
    surf = SurfaceData(4, 0, (2,) * 1100)
    for path in (fs_formula, reduced_quantization):
        with pytest.raises(PrecisionExhausted):
            path(surf)
    # The exact value at t_4 of 2000 star labels at level 8, over |Gamma|,
    # is past 2^1024: every path that rounds it says so
    surf, message = SurfaceData(8, 0, (4,) * 2000), r"\(a=0, d=0\) at t_4 is out of double range"
    for path in (fs_formula, reduced_quantization):
        with pytest.raises(PrecisionExhausted, match=message):
            path(surf)
    with pytest.raises(PrecisionExhausted, match=message):
        localization_evaluate(8, 2000, (0,) * 2000, 4)


@pytest.mark.parametrize("r", [100, 150, 200, 400])
def test_many_star_labels_agree_on_every_path(r):
    # The float star factor comes from one exact integer, so no counts cancel
    surf = SurfaceData(4, 0, (2,) * r)
    for a in (0, 1):
        choice = PrequantChoice((0,) * (r - a) + (1,) * a)
        closed = quantize_surface(surf, choice)
        assert fs_formula(surf, choice).element == closed.element
        assert reduced_quantization(surf, choice) == closed.reduced


def test_precision_bound_below_half_on_every_sweep_class():
    # Each class's coefficients are the surface's identity term, l = k/2
    # left out, plus the class's value there times taut_{k/2}; a direct
    # transform of the class's values must agree within both bounds.
    classes = 0
    for surf in sweep_surfaces(20, 5, 2):
        k, size = surf.level, surf.gamma_size()
        smat = s_matrix(k)
        identity = np.prod(smat[list(surf.labels)], axis=0) / smat[0] ** surf.num_slots / size
        for a, d in {prequant._canonical_class(surf, c)[1:] for c in enumerate_choices(surf)}:
            coeffs, bound = quantization._fs_coefficients(surf, a, d)
            assert bound < 0.5
            values = identity.copy()
            if not k % 2:
                values[k // 2] = quantization._half_value(surf, a, d) / size
            direct, direct_bound = _sine_coefficients(values)
            assert np.abs(coeffs - direct).max() <= bound + direct_bound
            classes += 1
    assert classes == 3276


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def _counting(fn, calls):
    """``fn``, appending the arguments of each call to ``calls``."""
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def test_a_refused_surface_makes_no_transform(monkeypatch):
    """The whole-sum bound is formed before the transform: a surface whose
    bound is not below 1/2 runs no FFT, on any class or request, and is
    refused with the same bound in its message."""
    from verlinde import fusion_ring
    surf = SurfaceData(172, 2, (86, 86, 93, 135, 144))
    calls = []
    _clear_quantization_caches()
    counted = _counting(fusion_ring._sine_transform, calls)
    for module in (fusion_ring, quantization):  # the S-matrix path calls it directly
        monkeypatch.setattr(module, "_sine_transform", counted)
    for choice in enumerate_choices(surf):
        with pytest.raises(PrecisionExhausted, match="rounding error bound of 4.505e[+]01, "
                                                     "not below 1/2"):
            fs_formula(surf, choice)
    assert calls == []
    assert quantization._fs_gamma_data(surf).coeffs is None
    # a surface below the bound still makes its one transform
    fs_formula(SurfaceData(132, 2, (45, 66, 66, 66)))
    assert len(calls) == 1


def test_failing_class_is_transformed_once(monkeypatch):
    """A class the float path cannot certify raises on every request, and
    its surface's sine transform is asked for once (and refused before its
    FFT when its bound reaches 1/2, as tested above): three requests raise
    three new exceptions of one class and message, and no per-class cache
    keeps an entry for the class."""
    surf = SurfaceData(172, 2, (86, 86, 93, 135, 144))  # fs error bound about 45
    wide = SurfaceData(272, 2, (62, 78, 136, 136, 136, 249))  # error bound 10.8
    cases = [
        (surf, enumerate_choices(surf)[1], fs_formula),
        (wide, enumerate_choices(wide)[1], reduced_quantization),
        # the star factor of 2000 star labels is past double range
        (SurfaceData(8, 0, (4,) * 2000), None, fs_formula),
        # the reduced sum is past 2^53
        (SurfaceData(8, 0, (4,) * 100), None, reduced_quantization),
    ]
    caches = (quantization._fs_element, quantization._reduced_value)
    for surf, choice, path in cases:
        calls, raised = [], []
        _clear_quantization_caches()
        with monkeypatch.context() as patch:
            patch.setattr(quantization, "_sine_bound",
                          _counting(quantization._sine_bound, calls))
            for _ in range(3):
                with pytest.raises(PrecisionExhausted) as info:
                    path(surf, choice)
                raised.append(info.value)
        assert len(calls) == 1, path
        assert quantization._fs_gamma_data.cache_info().misses == 1
        assert all(type(e) is PrecisionExhausted for e in raised)
        assert len({str(e) for e in raised}) == 1
        assert len({id(e) for e in raised}) == 3
        assert len({_traceback_depth(e) for e in raised}) == 1
        assert [cache.cache_info().currsize for cache in caches] == [0, 0], path


def _noncanonical_variants(surf, bits):
    """bits with every non-star boundary bit set, with the first star bit
    flipped, with all star bits flipped, and with both changes at once."""
    stars = surf.star_slots
    nonstar = [j for j in range(surf.num_boundary) if j not in stars]

    def flip(slots, base):
        return tuple(b ^ 1 if j in slots else b for j, b in enumerate(base))

    padded = tuple(1 if j in nonstar else b for j, b in enumerate(bits))
    return {padded, flip(stars[:1], bits), flip(stars, bits), flip(stars, padded)} - {bits}


class TestChoiceResolution:
    def test_noncanonical_bits_match_their_canonical_form(self):
        checked = 0
        for surf in sweep_surfaces(8, 4, 1, gamma_cap=2**5):
            for choice in enumerate_choices(surf):
                for bits in _noncanonical_variants(surf, choice.psi_bits):
                    canonical = canonicalize_choice(surf, bits)
                    raw = PrequantChoice(bits)
                    closed = quantize_surface(surf, raw)
                    assert closed == quantize_surface(surf, canonical)
                    assert closed.choice == canonical
                    through_s = fs_formula(surf, raw)
                    assert through_s == fs_formula(surf, canonical)
                    assert through_s.choice == canonical
                    assert reduced_quantization(surf, raw) == \
                        reduced_quantization(surf, canonical)
                    checked += 1
        assert checked > 500

    def test_canonical_choice_passes_through(self):
        surf = SurfaceData(4, 1, (2, 0, 2))
        choice = PrequantChoice((0, 0, 1, 1, 0))
        assert quantize_surface(surf, choice).choice is choice
        assert fs_formula(surf, choice).choice is choice

    def test_wrong_length_still_rejected(self):
        surf = SurfaceData(4, 1, (2, 0, 2))
        for path in (quantize_surface, fs_formula, reduced_quantization):
            with pytest.raises(ValueError, match="need 5 psi bits"):
                path(surf, PrequantChoice((0, 0, 0, 0)))

    def test_none_is_the_trivial_choice(self):
        for surf in (SurfaceData(4, 1, (2, 0, 2)), SurfaceData(7, 0, (1, 3)),
                     SurfaceData(8, 2, (4, 4, 4, 1))):
            trivial = PrequantChoice((0,) * surf.num_slots)
            for path in (quantize_surface, fs_formula):
                result = path(surf)
                assert result == path(surf, trivial)
                assert result.choice == trivial
            assert reduced_quantization(surf) == reduced_quantization(surf, trivial)

    def test_inadmissible_surface_has_one_message(self):
        surf = SurfaceData(6, 1, (3, 3, 3))  # fails (iii)
        messages = set()
        for path in (quantize_surface, fs_formula, reduced_quantization):
            for choice in (None, PrequantChoice((0,) * 5), (0,) * 5):
                with pytest.raises(NotAdmissible) as info:
                    path(surf, choice)
                messages.add(str(info.value))
        for star_path in (lambda: quantize_star_block(6, 3, (0, 0, 0)),
                          lambda: localization_evaluate(6, 3, (0, 0, 0), 0)):
            with pytest.raises(NotAdmissible) as info:
                star_path()
            messages.add(str(info.value))
        assert messages == {"inadmissible: condition (iii) requires k in 4N "
                            "when the star count is >= 3"}

    @pytest.mark.parametrize("k,r,message", [
        (5, 1, "condition (ii') requires k in 2N when the star count is >= 1"),
        (5, 3, "condition (iii) requires k in 4N when the star count is >= 3; "
               "condition (ii') requires k in 2N when the star count is >= 1"),
        (10, 4, "condition (iii) requires k in 4N when the star count is >= 3"),
        (5, 2, "condition (ii') requires k in 2N when the star count is >= 1"),
        (6, 3, "condition (iii) requires k in 4N when the star count is >= 3"),
        (7, 4, "condition (iii) requires k in 4N when the star count is >= 3; "
               "condition (ii') requires k in 2N when the star count is >= 1"),
    ])
    def test_star_entry_point_messages(self, k, r, message):
        """The star entry points, and the literal tables where they exist,
        reject an inadmissible (k, r) with one message."""
        star_paths = [lambda: quantize_star_block(k, r, (0,) * r),
                      lambda: localization_evaluate(k, r, (0,) * r, 0)]
        if r in (2, 3, 4):
            star_paths.append(lambda: closed_form_tables(k, r, "base"))
        for star_path in star_paths:
            with pytest.raises(NotAdmissible) as info:
                star_path()
            assert str(info.value) == f"inadmissible: {message}"

    def test_plain_tuple_is_rejected(self):
        surf = SurfaceData(4, 1, (2, 0, 2))
        for path in (quantize_surface, fs_formula, reduced_quantization):
            with pytest.raises(TypeError, match="PrequantChoice"):
                path(surf, (0, 0, 1, 1, 0))

    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_star_entry_points_agree_on_every_psi_and_its_flip(self, k):
        for r in range(2, 7):
            for psi in product((0, 1), repeat=r):
                flipped = tuple(b ^ 1 for b in psi)
                block = quantize_star_block(k, r, psi)
                assert quantize_star_block(k, r, flipped) == block
                for l in range(k + 1):
                    loc = localization_evaluate(k, r, psi, l)
                    assert localization_evaluate(k, r, flipped, l) == loc
                    assert loc == pytest.approx(block.evaluate(l), rel=1e-9, abs=1e-9)
        for shorthand, psi in (("+", (0, 0)), ("-", (0, 1))):
            block = quantize_star_block(k, 2, shorthand)
            assert block == quantize_star_block(k, 2, psi)
            for l in range(k + 1):
                assert localization_evaluate(k, 2, shorthand, l) == \
                    localization_evaluate(k, 2, psi, l)


class TestClassificationMemo:
    """``prequant._canonical_class`` keeps the last (surface, choice) pair it
    classified, by identity, and reads it before its admissibility and type
    checks: the pair passed both, so only another pair is checked."""

    PATHS = (quantize_surface, fs_formula, reduced_quantization)

    @pytest.fixture
    def classify_calls(self, monkeypatch):
        calls = []
        classify = prequant._classify
        monkeypatch.setattr(prequant, "_last_class", (object(), None, None))
        monkeypatch.setattr(prequant, "_classify",
                            lambda surf, choice: calls.append(1) or classify(surf, choice))
        return calls

    def test_one_request_classifies_once(self, classify_calls):
        surf = SurfaceData(8, 2, (4, 4, 4, 1))
        for choice in enumerate_choices(surf)[:6]:
            before = len(classify_calls)
            for path in self.PATHS:
                path(surf, choice)
            assert len(classify_calls) == before + 1

    def test_one_choice_on_two_surfaces_is_never_stale(self, classify_calls):
        stars_0_2, stars_0_1 = SurfaceData(4, 1, (2, 0, 2)), SurfaceData(4, 1, (2, 2, 0))
        choice = PrequantChoice((0, 0, 1, 1, 0))  # canonical on the first only
        expected = {surf: (prequant._classify(surf, choice),
                           [path(surf, choice) for path in self.PATHS])
                    for surf in (stars_0_2, stars_0_1)}
        assert expected[stars_0_2][0][1:] == (1, 1) and expected[stars_0_1][0][1:] == (0, 1)
        assert expected[stars_0_2][1][0] != expected[stars_0_1][1][0]
        for surf in (stars_0_2, stars_0_1) * 3:
            assert prequant._canonical_class(surf, choice) == expected[surf][0]
            assert [path(surf, choice) for path in self.PATHS] == expected[surf][1]

    def test_noncanonical_choice_returns_its_canonical_copy(self, classify_calls):
        surf = SurfaceData(4, 1, (2, 0, 2))
        raw = PrequantChoice((1, 1, 0, 1, 0))
        canonical = canonicalize_choice(surf, raw.psi_bits)
        assert canonical.psi_bits == (0, 0, 1, 1, 0)
        for _ in range(3):
            for path in (quantize_surface, fs_formula):
                result = path(surf, raw)
                assert result.choice == canonical and result.choice is not raw
        assert len(classify_calls) == 1

    def test_checks_run_on_every_call(self, classify_calls):
        good, bad = SurfaceData(4, 1, (2, 0, 2)), SurfaceData(6, 1, (3, 3, 3))
        choice = PrequantChoice((0, 0, 1, 1, 0))
        for _ in range(3):
            for path in self.PATHS:
                path(good, choice)
                with pytest.raises(NotAdmissible):
                    path(bad, choice)
                with pytest.raises(TypeError):
                    path(good, choice.psi_bits)
                path(good, choice)
        assert len(classify_calls) == 1

    GOOD, BAD = SurfaceData(4, 1, (2, 0, 2)), SurfaceData(6, 1, (3, 3, 3))

    def remembered(self):
        """A valid pair, classified once and held in the memo."""
        choice = PrequantChoice((0, 0, 1, 1, 0))
        result = prequant._canonical_class(self.GOOD, choice)
        assert prequant._last_class == (self.GOOD, choice, result)
        return choice, result

    def test_a_repeat_skips_the_checks(self, classify_calls, monkeypatch):
        choice, result = self.remembered()
        monkeypatch.setattr(prequant, "require_admissible", None)  # a call would raise
        assert prequant._canonical_class(self.GOOD, choice) is result
        assert len(classify_calls) == 1

    def test_an_inadmissible_surface_still_raises(self, classify_calls):
        choice, result = self.remembered()
        with pytest.raises(NotAdmissible, match="condition \\(iii\\)"):
            prequant._canonical_class(self.BAD, choice)
        with pytest.raises(NotAdmissible):
            prequant._canonical_class(SurfaceData(6, 1, (3, 3, 3)), None)
        assert prequant._last_class == (self.GOOD, choice, result)

    def test_a_non_choice_still_raises(self, classify_calls):
        choice, result = self.remembered()
        for other in (choice.psi_bits, list(choice.psi_bits), "00110"):
            with pytest.raises(TypeError, match="PrequantChoice"):
                prequant._canonical_class(self.GOOD, other)
        assert prequant._last_class == (self.GOOD, choice, result)
        assert len(classify_calls) == 1

    def test_an_equal_fresh_choice_is_classified_anew(self, classify_calls):
        choice, result = self.remembered()
        fresh = PrequantChoice(choice.psi_bits)
        assert fresh == choice and fresh is not choice
        again = prequant._canonical_class(self.GOOD, fresh)
        assert again == result and again[0] is fresh
        assert len(classify_calls) == 2
        assert prequant._last_class == (self.GOOD, fresh, again)


def _clear_quantization_caches():
    for obj in vars(quantization).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _choice_class(surf, choice):
    """(psi bits set on star slots, doubles with phi != (0, 0))."""
    bits, s = choice.psi_bits, surf.num_boundary
    doubles = zip(bits[s::2], bits[s + 1::2])
    return sum(bits[j] for j in surf.star_slots), sum(pair != (0, 0) for pair in doubles)


class TestChoiceClasses:
    def test_cached_results_match_a_cold_computation(self):
        requests = [(surf, choice) for surf in sweep_surfaces(8, 4, 2, gamma_cap=2**6)
                    for choice in enumerate_choices(surf)]
        warm = [(quantize_surface(surf, choice), fs_formula(surf, choice),
                 reduced_quantization(surf, choice)) for surf, choice in requests]
        members = {}
        for (surf, choice), (closed, through_s, reduced) in zip(requests, warm):
            assert closed.choice is choice and through_s.choice is choice
            _clear_quantization_caches()
            assert closed == quantize_surface(surf, choice)
            assert through_s == fs_formula(surf, choice)
            assert reduced == reduced_quantization(surf, choice)
            members.setdefault((surf, _choice_class(surf, choice)), []).append(
                (closed.element, through_s.element, reduced))
        shared = [results for results in members.values() if len(results) > 1]
        assert len(shared) > 100
        for results in shared:
            assert results.count(results[0]) == len(results)

    def test_class_members_keep_their_own_choice(self):
        surf = SurfaceData(8, 2, (4, 4, 4, 1))
        a_class = [c for c in enumerate_choices(surf) if _choice_class(surf, c) == (2, 1)]
        assert len(a_class) == 6
        elements = set()
        for choice in a_class:
            for path in (quantize_surface, fs_formula):
                result = path(surf, choice)
                assert result.choice is choice
                elements.add(result.element)
        assert len(elements) == 1

    def test_failure_is_the_same_for_the_whole_class(self):
        for surf, path, exc in (
                (SurfaceData(172, 2, (86, 86, 93, 135, 144)), fs_formula,  # bound about 45
                 PrecisionExhausted),
                (SurfaceData(272, 2, (62, 78, 136, 136, 136, 249)), reduced_quantization,
                 PrecisionExhausted)):
            first, same_class = enumerate_choices(surf)[1:3]
            assert _choice_class(surf, first) == _choice_class(surf, same_class)
            messages = set()
            for choice in (first, first, same_class):
                with pytest.raises(exc) as info:
                    path(surf, choice)
                messages.add(str(info.value))
            assert len(messages) == 1


def _unfolded_outcome(cache, surf, a, d):
    """The per-class computation behind ``cache`` run on ``surf`` itself,
    not on its folded surface: a value, or the (class, message) of a failure."""
    try:
        return cache.__wrapped__(surf, a, d)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _request_outcome(path, surf, choice):
    try:
        return path(surf, choice)
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestFoldedSurface:
    """Every path computes on the surface without its labels 0 (tau_0 is the
    unit) and k (tau_k reflects), and reflects for an odd count of labels k."""

    def test_the_fold_changes_no_answer_on_the_sweep(self):
        _clear_quantization_caches()
        unfolded, literal = {}, 0
        requests = 0
        for surf in sweep_surfaces(20, 5, 2):
            if surf._folded is None:
                continue
            k = surf.level
            assert surf._folded.labels == tuple(m for m in surf.labels if m % k) != surf.labels
            for choice in enumerate_choices(surf):
                requests += 1
                a, d = prequant._canonical_class(surf, choice)[1:]
                if (surf, a, d) not in unfolded:
                    unfolded[surf, a, d] = (
                        quantization._closed_form_element.__wrapped__(surf, a, d),
                        _unfolded_outcome(quantization._fs_element, surf, a, d),
                        _unfolded_outcome(quantization._reduced_value, surf, a, d))
                closed, through_s, reduced = unfolded[surf, a, d]
                got = quantize_surface(surf, choice)
                assert got.element == closed and got.choice is choice
                for path, want, value in ((fs_formula, through_s, closed),
                                          (reduced_quantization, reduced, closed.coeffs[0])):
                    outcome = _request_outcome(path, surf, choice)
                    if isinstance(outcome, QuantizationResult):
                        outcome = outcome.element
                    if outcome != want:  # only a refused sum may now be certified
                        assert want[0] is PrecisionExhausted, (surf, choice, path)
                        assert outcome == value or outcome[0] is PrecisionExhausted
                if surf.gamma_size() <= 2 ** 6:
                    phases = _phase_vector(surf, choice)
                    assert fs_formula_with_phases(surf, phases) == closed
                    literal += 1
        # 840 of the 1,141 sweep surfaces fold; their classes are 2,397 of 3,276
        assert (requests, len(unfolded), literal) == (22485, 2397, 10965)

    def test_a_failing_class_and_its_twin_with_a_label_zero_share_one_computation(self):
        surf = SurfaceData(172, 2, (86, 86, 93, 135, 144))
        twin = SurfaceData(172, 2, (86, 86, 93, 0, 135, 144))
        assert twin._folded == surf
        _clear_quantization_caches()
        messages = set()
        for s in (surf, twin, twin, surf):
            choice = enumerate_choices(s)[1]
            assert prequant._canonical_class(s, choice)[1:] == (0, 1)
            with pytest.raises(PrecisionExhausted) as info:
                fs_formula(s, choice)
            messages.add(str(info.value))
        assert len(messages) == 1
        assert quantization._fs_gamma_data.cache_info().misses == 1

    @pytest.mark.parametrize("surf,choice", [
        (SurfaceData(114, 4, (57, 0)), PrequantChoice((0, 0, 0, 1, 0, 0, 0, 0, 0, 0))),
        (SurfaceData(10, 11, (5, 0, 0)), None)])
    def test_the_fold_certifies_two_reduced_sums_of_the_frontier_box(self, surf, choice):
        # Unfolded, their error floors are 0.571: one more S[0, l] per label 0
        a, d = prequant._canonical_class(surf, choice)[1:]
        assert _unfolded_outcome(quantization._reduced_value, surf, a, d)[0] is PrecisionExhausted
        assert reduced_quantization(surf, choice) == quantize_surface(surf, choice).reduced == 0

    def test_the_sweep_builds_one_gamma_table_per_folded_surface(self):
        _clear_quantization_caches()
        for surf in sweep_surfaces(20, 5, 2):
            for choice in enumerate_choices(surf):
                quantize_surface(surf, choice)
                fs_formula(surf, choice)
                reduced_quantization(surf, choice)
        assert quantization._fs_gamma_data.cache_info().misses == 301
        assert quantization._closed_form_base.cache_info().misses == 301

    def test_a_repeat_request_hits_by_identity(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        choice = enumerate_choices(surf)[1]
        _clear_quantization_caches()
        quantize_surface(surf, choice)
        info = quantization._closed_form_element.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        quantize_surface(surf, choice)
        assert quantization._closed_form_element.cache_info().hits == 1
        assert verlinde_baseline(surf).element == verlinde_baseline(surf._folded).element


def _coeffs_or_failure(fn, *args):
    """The coefficients (or int) ``fn`` returns, or the class it raises."""
    try:
        result = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return result if isinstance(result, int) else getattr(result, "element", result).coeffs


class TestSimpleCurrentFold:
    """A label k multiplies by tau_k, the simple current, which reflects the
    coefficients (c_m -> c_{k-m}), and tau_k^2 = tau_0.  Every path answers
    a surface with labels k from its folded surface, reflected for an odd
    count, and that answer is the path's own on the surface unfolded."""

    @staticmethod
    def check(surf):
        folded, k = surf._folded, surf.level
        assert k in surf.labels and folded._folded is None
        flip = (lambda c: c[::-1]) if surf._reflected else (lambda c: c)
        base = _coeffs_or_failure(verlinde_baseline, surf)
        assert base == flip(_coeffs_or_failure(verlinde_baseline, folded))
        assert base == quantization._closed_form_base.__wrapped__(surf).element.coeffs
        for (_, choice), (_, twin) in zip(_class_choices(surf), _class_choices(folded)):
            a, d = prequant._canonical_class(surf, choice)[1:]
            closed = _coeffs_or_failure(quantize_surface, surf, choice)
            assert closed == flip(_coeffs_or_failure(quantize_surface, folded, twin))
            assert closed == _coeffs_or_failure(
                quantization._closed_form_element.__wrapped__, surf, a, d)
            # fs: the folded class's element reflected, or its failure
            fs, want = (_coeffs_or_failure(fs_formula, s, c) for s, c in
                        ((surf, choice), (folded, twin)))
            assert fs == (want if isinstance(want, type) else flip(want))
            # reduced: the folded element's c_k for a reflection, summed apart
            reduced = _coeffs_or_failure(reduced_quantization, surf, choice)
            assert reduced in (closed[0], PrecisionExhausted)
            # unfolded, each float path certifies no more than folded
            for path, got in ((quantization._fs_element, fs),
                              (quantization._reduced_value, reduced)):
                unfolded = _coeffs_or_failure(path.__wrapped__, surf, a, d)
                assert got == unfolded or unfolded is PrecisionExhausted, (surf, a, d, path)

    def test_every_sweep_surface_with_a_label_k(self):
        surfaces = [s for s in sweep_surfaces(20, 5, 2) if s.level and s.level in s.labels]
        assert (len(surfaces), sum(s._reflected for s in surfaces)) == (560, 560)
        for surf in surfaces:
            self.check(surf)

    def test_level_one(self):
        # tau_1 at k = 1 swaps tau_0 and tau_1
        for labels, want in (((1,), (0, 1)), ((1, 1), (1, 0)), ((0, 1, 1, 1), (0, 1))):
            surf = SurfaceData(1, 0, labels)
            self.check(surf)
            for path in (quantize_surface, fs_formula):
                assert path(surf).element.coeffs == want
            assert verlinde_baseline(surf).element.coeffs == want
            assert reduced_quantization(surf) == want[0]

    def test_a_high_level_surface(self):
        surf = SurfaceData(316, 0, (91, 156, 158, 158, 158, 194, 316))
        assert surf._reflected
        self.check(surf)

    def test_surfaces_that_fold_alike_share_one_reflection(self):
        _clear_quantization_caches()
        surfaces = [SurfaceData(8, 1, labels) for labels in ((4, 8), (0, 4, 8), (8, 4, 8, 8))]
        elements = [quantize_surface(surf).element for surf in surfaces]
        assert all(x is elements[0] for x in elements)
        # three request keys, the folded class and, once, its reflection
        info = quantization._closed_form_element.cache_info()
        assert (info.misses, info.hits) == (5, 2)

    def test_a_cancelling_pair(self):
        surf, folded = SurfaceData(8, 1, (4, 8, 8)), SurfaceData(8, 1, (4,))
        assert surf._folded == folded and not surf._reflected
        self.check(surf)
        for (_, choice), (_, twin) in zip(_class_choices(surf), _class_choices(folded)):
            for path in (quantize_surface, fs_formula):
                assert path(surf, choice).element == path(folded, twin).element
            assert reduced_quantization(surf, choice) == reduced_quantization(folded, twin)
        assert verlinde_baseline(surf).element == verlinde_baseline(folded).element


def _pattern_loop_star_sums(k, r, psi_bits, tau_half):
    """The chi coefficient and |Gamma| times the star block's value at
    t_{k/2} summed over the 2^(r-1) star patterns, one pattern at a time.
    A pattern of weight l has phase psi times prequant.star_sign(k, r, l) =
    (-1)^(kl/8) for r >= 3; the chi coefficient sums it times
    (k/2+1)^(l/2-1) over l >= 2, with the sign (-1)^((k/4)(r - l/2)) for
    r >= 3, and the value times tau_half^(r-l) (k/2+1)^(l/2) over every
    pattern, tau_half = tau_{k/2}(t_{k/2}): each star slot gamma fixes
    contributes S[k/2, k/2] / S[0, k/2], each slot it flips 1 / S[0, k/2]."""
    chi_total, value = 0, 0
    for pat in product((0, 1), repeat=r):
        lw = sum(pat)
        if lw % 2:
            continue
        psi = (-1) ** sum(p & b for p, b in zip(psi_bits, pat))
        value += psi * (-1) ** (r >= 3 and k * lw // 8 % 2) \
            * tau_half ** (r - lw) * (k // 2 + 1) ** (lw // 2)
        if lw:
            term = psi * (k // 2 + 1) ** (lw // 2 - 1)
            chi_total += -term if r >= 3 and (k // 4 * (r - lw // 2)) % 2 else term
    return chi_total, value


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 40])
def test_star_sum_matches_pattern_loop(k):
    # Every a on up to 12 stars (k in 4N) or 2 (k = 2 mod 4, where
    # tau_{k/2}(t_{k/2}) = 0 leaves one term of the value)
    half = k // 2
    theta = math.pi * (half + 1) / (k + 2)
    tau_val = math.sin((half + 1) * theta) / math.sin(theta)
    for r in range(13 if k % 4 == 0 else 3):
        base, chi = tau_power(k, r), chi_element(k)
        for a in range(r + 1):
            psi = (0,) * (r - a) + (1,) * a
            total, value = _pattern_loop_star_sums(k, r, psi, round(tau_val))
            assert quantization._chi_coefficient(k, r, a) == total
            assert quantization._half_value(SurfaceData(k, 0, (half,) * r), a, 0) == value
            if r:
                block = quantize_star_block(k, r, psi)
                assert block * 2 ** (r - 1) == base + total * chi
                loc = (tau_val ** r + (half + 1) * total) / 2 ** (r - 1)
                assert localization_evaluate(k, r, psi, half) == pytest.approx(loc, rel=1e-12)


# Every lru cache of the package, each kept for traffic it was measured to
# serve or because the benchmark's tracer reads it by name (the reason is
# the comment at its decorator).  A new cache needs a measured reason too,
# and then a place in this list.
AUDITED_CACHES = {
    "quantization.tau_power", "quantization._krawtchouk_sum", "quantization._star_block",
    "quantization.quantize_double_so3", "quantization._label_product",
    "quantization._star_and_doubles", "quantization._closed_form_base",
    "quantization._closed_form_element", "quantization._fs_gamma_data",
    "quantization._fs_element", "quantization._reduced_value",
    "oracles._listed_gamma", "oracles._gamma_terms",
    "prequant._shared_choices", "fusion_ring._cyclotomic_cofactor",
}


def test_caches_are_bounded():
    import importlib
    import pkgutil

    import verlinde
    caches = set()
    for info in pkgutil.iter_modules(verlinde.__path__):
        module = importlib.import_module(f"verlinde.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize is not None, f"{module.__name__}.{name}"
                caches.add(f"{obj.__module__.removeprefix('verlinde.')}.{obj.__qualname__}")
    assert caches == AUDITED_CACHES


def _class_choices(surf):
    """One canonical choice per fine class (a, d) of the surface, with the
    class: a psi bits set on star slots, d doubles with phi != (0, 0)."""
    r, h, s = surf.star_count, surf.genus, surf.num_boundary
    for a in range(max(r, 1)):
        for d in range(h + 1):
            bits = [0] * surf.num_slots
            for j in surf.star_slots[1:1 + a]:
                bits[j] = 1
            for i in range(d):
                bits[s + 2 * i + 1] = 1
            yield (a, d), PrequantChoice(tuple(bits))


def _folded(surf, a, d):
    """The folded class of the fine class (a, d), as ``_canonical_class``
    states it: a -> min(a, r - a), and d -> min(d, 1) for k in 4N, else
    d -> d mod 2."""
    k = surf.level
    return min(a, surf.star_count - a), (min(d, 1) if k % 4 == 0 else d % 2)


def _product_of_blocks(surf, a, d):
    """The closed form block by block: the star block, h - d doubles with
    phi = (0, 0), d with phi = (0, 1), and the non-star labels' product."""
    k, h = surf.level, surf.genus
    out = quantization._star_block(k, surf.star_count, a)
    if h:
        out = out * quantize_double_so3(k, (0, 0)) ** (h - d) \
            * quantize_double_so3(k, (0, 1)) ** d
    return out * quantization._label_product(k, tuple(sorted(surf.nonstar_labels)))


BIG_GAMMA_SURFACES = (SurfaceData(4, 4, (2, 2, 2, 2, 2)),
                      SurfaceData(8, 3, (3, 4, 4, 4, 4, 4, 4, 4, 4, 6)),
                      SurfaceData(12, 6, (4, 6, 6, 6, 7)),
                      SurfaceData(4, 5, (1, 1, 2, 2, 2, 2, 2, 2)),
                      SurfaceData(8, 7, (3, 4, 4, 4, 6)))


def test_closed_form_equals_the_product_of_blocks_on_every_class():
    surfaces = list(sweep_surfaces(20, 5, 2)) + list(BIG_GAMMA_SURFACES) + [
        SurfaceData(12, 40, (6, 6, 6, 6, 4)), SurfaceData(100, 60, (50, 50, 50, 50, 8)),
        # high_level sizes, where every label is a basis step at large k
        SurfaceData(288, 2, (42, 143, 144, 144, 165, 234)),
        SurfaceData(364, 0, (134, 150, 182, 182, 182, 182, 200, 282)),
        SurfaceData(396, 2, (71, 250, 283, 343))]
    assert {min(s.star_count, 3) for s in surfaces} == {0, 1, 2, 3}
    assert any(s.level % 2 for s in surfaces)
    classes = 0
    for surf in surfaces:
        for (a, d), choice in _class_choices(surf):
            assert prequant._canonical_class(surf, choice)[1:] == _folded(surf, a, d)
            got = quantize_surface(surf, choice).element
            assert got.coeffs == _product_of_blocks(surf, a, d).coeffs, (surf, a, d)
            classes += 1
    assert classes > 5000


def _outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raised."""
    try:
        return fn(*args)
    except (NonIntegralCoefficient, NonIntegralValue, quantization.InexactDivision) as exc:
        return type(exc), str(exc)


def test_every_fine_class_has_its_folded_class_outcome():
    # Each path's class body, called on the fine (a, d) with no fold, gives
    # the outcome the path gives the request through its folded class.
    paths = ((quantize_surface, inspect.unwrap(quantization._closed_form_element)),
             (fs_formula, inspect.unwrap(quantization._fs_element)),
             (reduced_quantization, inspect.unwrap(quantization._reduced_value)))
    surfaces = (*sweep_surfaces(20, 5, 2), *BIG_GAMMA_SURFACES,
                SurfaceData(12, 40, (6, 6, 6, 6, 4)), SurfaceData(100, 60, (50, 50, 50, 50, 8)))
    fine, folded, failed = 0, set(), 0
    for surf in surfaces:
        for (a, d), choice in _class_choices(surf):
            folded.add((surf, *_folded(surf, a, d)))
            fine += 1
            for path, body in paths:
                got = _outcome(path, surf, choice)
                if isinstance(got, QuantizationResult):
                    got = got.element
                assert got == _outcome(body, surf, a, d), (path.__name__, surf, a, d)
                failed += isinstance(got, tuple)
    assert fine > 5000 and len(folded) < fine
    assert failed > 0  # the big_gamma surfaces hold classes the float paths cannot certify


# the 25 surfaces of the benchmark's high_level workload (bench/expected.json)
HIGH_LEVEL_SURFACES = tuple(SurfaceData(*args) for args in (
    (64, 2, (32, 32, 32, 32, 57)), (84, 1, (30, 32, 42, 42, 42, 83)), (100, 1, (31, 50)),
    (104, 1, (53,)), (124, 2, (7, 24, 55, 62, 62, 62, 78)), (132, 2, (45, 66, 66, 66)),
    (148, 0, (74, 74, 74, 74, 142)), (164, 2, (82, 82, 82, 82, 84, 97)),
    (172, 2, (86, 86, 93, 135, 144)), (184, 2, (30, 85, 123)),
    (204, 0, (55, 102, 102, 102, 190)), (212, 0, (24, 106, 106, 106, 106, 185)),
    (228, 0, (29, 93, 104, 114, 114, 114)), (244, 0, (8, 122, 122, 144, 215)),
    (260, 1, (130, 130, 256)), (272, 2, (62, 78, 136, 136, 136, 249)),
    (288, 2, (42, 143, 144, 144, 165, 234)), (304, 1, (2, 60, 152, 152, 190)),
    (316, 0, (91, 156, 158, 158, 158, 194, 316)), (332, 0, (0, 248, 290, 325)),
    (344, 1, (162, 172, 172, 172, 172)), (356, 2, (178, 178, 239)),
    (364, 0, (134, 150, 182, 182, 182, 182, 200, 282)), (380, 2, (84, 190, 190, 190, 356)),
    (396, 2, (71, 250, 283, 343))))


@pytest.mark.parametrize("surf", [
    SurfaceData(12, 6, (4, 6, 6, 6, 7)), SurfaceData(8, 7, (3, 4, 4, 4, 6)),
    *(s for s in HIGH_LEVEL_SURFACES if s.level in (132, 184, 344, 364))], ids=str)
def test_fs_formula_is_exact_where_only_its_transform_was_bounded(surf):
    # With only the transform bounded, the coefficients of these surfaces
    # (up to 4.9e10 at k = 12) missed 1e-6 (1 + |c|) by their inputs' error,
    # and fs raised NonIntegralCoefficient on valid input.
    for choice in enumerate_choices(surf):
        assert fs_formula(surf, choice).element == quantize_surface(surf, choice).element


def _folded_classes(surf):
    """The folded classes (a, d) of the surface's choices."""
    return {_folded(surf, a, d) for a in range(max(surf.star_count, 1))
            for d in range(surf.genus + 1)}


def _transformed_identity_term(surf):
    """The raw coefficients and bound the S-matrix path would keep for a
    surface it refuses: its identity term, from the rows of ``s_matrix``
    (bit-identical to the path's own), l = k/2 left out, transformed here."""
    k, smat = surf.level, s_matrix(surf.level)
    identity = np.prod(smat[list(surf.labels)], axis=0) / smat[0] ** surf.num_slots
    identity /= surf.gamma_size()
    if not k % 2:
        identity[k // 2] = 0.0
    return _sine_coefficients(identity, quantization._value_error(surf))


def test_whole_sum_bound_covers_the_real_error_on_every_class():
    # Every class of the sweep box and of the high_level and big_gamma
    # surfaces: each raw coefficient is within the bound of the closed
    # form's, exactly, and so rounds to it unless the bound reaches 1/2, so
    # none raises NonIntegralCoefficient.  The real error stays below 5 % of
    # the bound; the test below moves the entries within their error.  A
    # surface whose bound reaches 1/2 keeps no coefficients, so its classes
    # are transformed here, and must come out with the same bound, to be
    # checked too.
    surfaces = (*sweep_surfaces(20, 5, 2), *BIG_GAMMA_SURFACES, *HIGH_LEVEL_SURFACES)
    classes, exhausted, refused = 0, 0, 0
    for surf in surfaces:
        k = surf.level
        for a, d in _folded_classes(surf):
            coeffs, bound = quantization._fs_coefficients(surf, a, d)
            if coeffs is None:
                assert not bound < 0.5
                coeffs, again = _transformed_identity_term(surf)
                if not k % 2:
                    coeffs, again = _add_star_idempotent(
                        k, coeffs, again, quantization._half_float(surf, a, d))
                assert again == bound
                refused += 1
            closed = quantization._closed_form_element(surf, a, d).coeffs
            error = max(abs(Fraction(c) - e) for c, e in zip(coeffs.tolist(), closed))
            assert error <= bound, (surf, a, d, float(error), bound)
            try:
                assert _round_coefficients(k, coeffs, bound).coeffs == closed
            except PrecisionExhausted:
                exhausted += 1
            classes += 1
    # the refused classes are among the exhausted ones, checked too
    assert classes > 3276 and exhausted >= refused > 0


@pytest.mark.parametrize("surf", [SurfaceData(4, 0, (2,) * 100), SurfaceData(4, 0, (2,) * 300)],
                         ids=lambda s: f"stars{s.star_count}")
def test_whole_sum_bound_covers_entries_anywhere_within_their_error(monkeypatch, surf):
    # An S-matrix entry is within 6.36u of its value a priori and 2.7u
    # measured (tests/test_exact_angles.py), so entries moved by 2u more,
    # the label rows up and S[0, l] down, could be the computed ones: every
    # identity-term value then grows by 2 (s + n) u, and a coefficient whose
    # terms share a sign by 2 (s + n) u (2/N) sum |x_l|.  The bound covers
    # that; the transform's own bound alone falls short of it here.
    rows_of, up, down = quantization._fs_rows, 1 + 2.0 ** -52, 1 - 2.0 ** -52

    def moved(k, labels):
        weights, rows = rows_of(k, labels)
        return weights, rows * np.array([down] + [up] * len(labels))[:, None]

    monkeypatch.setattr(quantization, "_fs_rows", moved)
    quantization._fs_gamma_data.cache_clear()
    try:
        coeffs, bound = quantization._fs_coefficients(surf, 0, 0)
    finally:
        quantization._fs_gamma_data.cache_clear()
    closed = quantization._closed_form_element(surf, 0, 0).coeffs
    assert max(abs(Fraction(c) - e) for c, e in zip(coeffs.tolist(), closed)) <= bound < 0.5


def test_a_disagreement_past_the_bound_is_not_a_precision_limit(monkeypatch):
    # The allowance widens to the whole sum's bound, 3.5e-3 here.  A value
    # at t_{k/2} off by 7/4 moves every even coefficient by 1/4 (2/N = 1/7),
    # which no bound below 1/2 excuses: a plain NonIntegralCoefficient, exit 2.
    surf = SurfaceData(12, 6, (4, 6, 6, 6, 7))
    choice = enumerate_choices(surf)[1]
    assert 1e-3 < quantization._fs_coefficients(
        surf, *prequant._canonical_class(surf, choice)[1:])[1] < 1e-2
    half_value, off = quantization._half_value, 7 * surf.gamma_size() // 4
    monkeypatch.setattr(quantization, "_half_value", lambda *args: half_value(*args) + off)
    quantization._fs_element.cache_clear()
    try:
        with pytest.raises(NonIntegralCoefficient) as info:
            fs_formula(surf, choice)
    finally:
        quantization._fs_element.cache_clear()
    assert type(info.value) is NonIntegralCoefficient
    # the message names the deviation, its allowance and the bound
    assert re.search(r"tau_0 coefficient = .* \(deviation 2\.[45]\d\de-01, "
                     r"allowed 3\.\d{3}e-03, error bound 3\.\d{3}e-03\)", str(info.value))


@pytest.mark.parametrize("k,r", [*product((4, 8, 12, 16), (3, 4)), (2, 2), (4, 2), (6, 2)])
def test_folded_star_classes_are_the_table_classes(k, r):
    # Two canonical star choices share a folded a exactly when the literal
    # tables put them in one class, and both get that class's table.
    surf = SurfaceData(k, 0, (k // 2,) * r)
    folds, tables = {}, {}
    for choice in enumerate_choices(surf):
        bits, table = choice.psi_bits, star_choice_class(r, choice.psi_bits)
        folds.setdefault(prequant._canonical_class(surf, choice)[1], set()).add(bits)
        tables.setdefault(table, set()).add(bits)
        assert quantize_star_block(k, r, bits) == closed_form_tables(k, r, table)
    assert sorted(map(sorted, folds.values())) == sorted(map(sorted, tables.values()))
    assert len(folds) == {2: 2, 3: 2, 4: 3}[r]


def test_closed_form_products_per_surface_and_class(monkeypatch):
    # Labels and stars are basis steps and each double past the first is one
    # double step (``_times_double``), taken once per surface: at no genus
    # does the closed form make a dense (Clebsch-Gordan) product, and a
    # class makes no step at all.
    from verlinde import fusion_ring
    dense, steps = [], []
    clebsch_gordan, double_step = fusion_ring._clebsch_gordan, quantization._times_double
    monkeypatch.setattr(fusion_ring, "_clebsch_gordan",
                        lambda *args: dense.append(len(args[0])) or clebsch_gordan(*args))
    monkeypatch.setattr(quantization, "_times_double",
                        lambda k, b: steps.append(k) or double_step(k, b))
    for surf in (SurfaceData(12, 0, (6, 6, 6, 6, 5)), SurfaceData(12, 1, (6, 6, 6, 6, 5)),
                 SurfaceData(4, 1, (2,) * 40 + (1, 3)), SurfaceData(396, 1, (71, 250, 283, 343)),
                 SurfaceData(364, 0, (134, 150, 182, 182, 182, 182, 200, 282)),
                 SurfaceData(288, 2, (42, 143, 144, 144, 165, 234)),
                 SurfaceData(12, 64, (6, 6, 6, 6, 5))):  # r = 4, one non-star label
        _clear_quantization_caches()
        steps.clear()
        for _, choice in _class_choices(surf):
            quantize_surface(surf, choice)
        assert dense == [], surf
        assert len(steps) == max(surf.genus - 1, 0), surf
    assert len(list(_class_choices(surf))) == 4 * 65
    # the star entry points read the same closed form on their own surfaces
    _clear_quantization_caches()
    for k, r in ((2, 2), (12, 4), (8, 9), (4, 40)):
        tau_power(k, r)
        for psi in ((0,) * r, (0,) * (r - 1) + (1,)):
            quantize_star_block(k, r, psi)
    for k in (4, 6, 12, 398):
        for phi in ((0, 0), (0, 1)):
            quantize_double_so3(k, phi)
    assert dense == []


def test_a_corrupted_double_step_raises_inexact_division(monkeypatch):
    # The double step's top-ghost division checks itself: given half its
    # right side, it computes D_SU(2)/2 times an element, which is not
    # integral here, and the closed form raises instead of returning it.
    from verlinde import fusion_ring
    monkeypatch.setattr(quantization, "_times_double",
                        lambda k, b: fusion_ring._over_3_minus_tau2(k, b, k + 2))
    _clear_quantization_caches()
    with pytest.raises(quantization.InexactDivision, match=r"/ \(3 - tau_2\) at level 12"):
        quantize_surface(SurfaceData(12, 2, (6, 6, 6, 6, 5)))
    _clear_quantization_caches()


@given(st.sampled_from([*range(61), 101, 400]), st.integers(0, 4), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_star_and_doubles_equals_the_dense_powers(k, r, h):
    expected = quantize_double_su2(k) ** h * FusionElement.tau(k, k // 2) ** r
    assert quantization._star_and_doubles.__wrapped__(k, r, h) == expected


def test_inexact_division_is_raised(monkeypatch):
    surf = SurfaceData(8, 1, (4, 4, 4))
    base = quantization._closed_form_base(surf)
    for shift, message in (
        (1, "differs from X at t_4 by .*, not divisible by 5"),  # mu's division
        (5, "tau_0 coefficient .* is not divisible by 16"),  # the division by |Gamma|
    ):
        _clear_quantization_caches()
        monkeypatch.setattr(quantization, "_closed_form_base",
                            lambda s: base._replace(at_half=base.at_half + shift))
        with pytest.raises(quantization.InexactDivision, match=message):
            quantize_surface(surf, PrequantChoice((0, 1, 0, 0, 1)))
    _clear_quantization_caches()


class TestReducedQuantization:
    @pytest.mark.parametrize("labels,psi,expected", [
        ((2, 2), (0, 0), 1),
        ((2, 2), (0, 1), 0),
    ])
    def test_two_stars(self, labels, psi, expected):
        assert reduced_quantization(SurfaceData(4, 0, labels), PrequantChoice(psi)) == expected

    def test_genus_one(self):
        assert reduced_quantization(SurfaceData(2, 1, ()), PrequantChoice((0, 0))) == 0

    def test_equals_trace_over_choices(self):
        surf = SurfaceData(8, 1, (4, 4, 4))
        for choice in enumerate_choices(surf):
            assert reduced_quantization(surf, choice) == quantize_surface(surf, choice).reduced

    def test_equals_trace_where_products_pass_the_level(self):
        # With the angles (m+1)(l+1) pi/126 rounded before the sine instead
        # of reduced in integers, every one of the 64 values came out 2 too
        # large, unrefused: 55537828315832 for 55537828315830 at psi = 0.
        surf = SurfaceData(124, 2, (7, 24, 55, 62, 62, 62, 78))
        choices = enumerate_choices(surf)
        assert len(choices) == 64
        for choice in choices:
            assert reduced_quantization(surf, choice) == quantize_surface(surf, choice).reduced


def test_fs_vector_equals_the_closed_form_where_products_pass_the_level():
    # With unreduced angles the tau_3 coefficient was off by 1.04e-6 and
    # failed to round: NonIntegralCoefficient on valid input.
    surf = SurfaceData(100, 3, ())
    for choice in enumerate_choices(surf):
        assert fs_formula(surf, choice).element == quantize_surface(surf, choice).element


def test_a_reduced_sum_that_cancels_past_its_precision_is_refused():
    # The terms near 2e20 cancel to a value below 2^53 that rounds cleanly
    # to -483328, while the trace is 0: the sum's rounding error floor is
    # far above 1/2, so it is refused rather than returned.
    surf, choice = SurfaceData(8, 0, (4,) * 100), PrequantChoice((0,) * 99 + (1,))
    assert quantize_surface(surf, choice).reduced == 0
    with pytest.raises(PrecisionExhausted, match="reduced quantization = .* rounding error bound"):
        reduced_quantization(surf, choice)


def test_the_reduced_error_floor_stays_far_below_half_on_the_sweep():
    # A correct reduced value is never refused by the floor: on the sweep's
    # classes it is below 1e-9.
    worst = 0.0
    for surf in sweep_surfaces(20, 5, 2):
        k, data = surf.level, quantization._fs_gamma_data(surf)
        for a, d in {prequant._canonical_class(surf, c)[1:] for c in enumerate_choices(surf)}:
            half = 0 if k % 2 else \
                quantization._half_value(surf, a, d) / ((k // 2 + 1) * surf.gamma_size())
            worst = max(worst, quantization._REDUCED_ERROR * (len(surf.labels) + surf.num_slots)
                        * (data.mass + abs(half)))
    assert 0 < worst < 1e-9


class TestVerlindeBaseline:
    def test_genus_two_level_one(self):
        assert verlinde_baseline(SurfaceData(1, 2, ())).reduced == 4

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 11, 24])
    def test_torus_counts_weights(self, k):
        assert verlinde_baseline(SurfaceData(k, 1, ())).reduced == k + 1

    def test_pair_of_pants_free(self):
        assert verlinde_baseline(SurfaceData(3, 0, (1, 1))).reduced == 1

    def test_odd_level_genus_allowed(self):
        # the baseline has no sign group, so no parity constraint applies
        assert verlinde_baseline(SurfaceData(3, 1, ())).reduced == 4

    def test_many_stars_equal_the_star_power(self):
        expected = FusionElement.tau(4, 2) ** 1100  # dense squaring, independent of the closed form
        assert verlinde_baseline(SurfaceData(4, 0, (2,) * 1100)).element == expected
        assert tau_power(4, 1100) == expected

    def test_equals_the_simply_connected_product(self):
        surfaces = list(sweep_surfaces(8, 4, 2)) + [
            SurfaceData(3, 2, (1, 2)), SurfaceData(5, 1, (0, 2, 3, 5)), SurfaceData(7, 0, (3, 4))]
        for surf in surfaces:
            k = surf.level
            expected = FusionElement.one(k)
            for m in surf.labels:
                expected = expected * tau(k, m)
            expected = expected * quantize_double_su2(k) ** surf.genus
            result = verlinde_baseline(surf)
            assert result.element == expected, surf
            assert (result.reduced, result.path) == (expected.trace, "closed_form")

    def test_repeated_call_makes_no_fusion_product(self, monkeypatch):
        from verlinde import fusion_ring
        surf = SurfaceData(10, 3, (1, 3, 5))
        first = verlinde_baseline(surf)
        calls = []
        inner = fusion_ring.multiply_coeff_vectors
        monkeypatch.setattr(fusion_ring, "multiply_coeff_vectors",
                            lambda *args: calls.append(args) or inner(*args))
        assert verlinde_baseline(surf) == first
        assert calls == []


class TestLocalization:
    def test_r2_at_star_point(self):
        assert localization_evaluate(4, 2, "+", 2) == pytest.approx(2.0)

    def test_r2_away_from_star_point(self):
        assert localization_evaluate(4, 2, "+", 0) == pytest.approx(2.0)

    def test_r3_vanishing_point(self):
        assert localization_evaluate(4, 3, (0, 0, 0), 1) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, r, l", [(8, 1600, 0), (8, 1600, 8), (8, 1600, 4),
                                         (8, 1474, 0)])
    def test_a_value_out_of_double_range_exhausts_precision(self, k, r, l):
        # at (8, 1474, 0) (tau/2)^r is still finite and its double is not
        with pytest.raises(PrecisionExhausted, match=f"at t_{l} is out of double range"):
            localization_evaluate(k, r, (0,) * r, l)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, r, l", [(4, 1100, 0), (4, 1100, 1), (4, 1100, 2),
                                         (4, 2000, 0), (8, 1200, 1), (8, 1200, 4)])
    def test_many_stars_stay_in_range(self, k, r, l):
        """The power tau_{k/2}(t_l)^r and 2^(r-1) leave double range long
        before the value does.  (At other l the closed form's own float
        evaluation cancels terms near 1e250 and raises, as tested below.)"""
        value = localization_evaluate(k, r, (0,) * r, l)
        assert value == pytest.approx(quantize_star_block(k, r, (0,) * r).evaluate(l),
                                      rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("r", [60, 1200])
    def test_closed_form_evaluation_lost_to_cancellation_raises(self, r):
        # At t_2 the star block's value is 5.78e-13 (r = 60) and 3.28e-251
        # (r = 1200), but its coefficients reach 1e12 and 1e250 and cancel
        # below their own rounding: the float evaluation returned 0.0 and
        # 3.93e234.  Its bound, 5.5e-3 and 9.7e235, now refuses both; where
        # the bound is below the value, the value is right.
        block = quantize_star_block(8, r, (0,) * r)
        for l in (2, 6):
            assert localization_evaluate(8, r, (0,) * r, l) == pytest.approx(
                {60: 5.778e-13, 1200: 3.280e-251}[r], rel=1e-3)
            with pytest.raises(PrecisionExhausted, match=f"at t_{l} has a rounding error bound"):
                block.evaluate(l)
        for l in (0, 1, 3, 4, 8):
            assert block.evaluate(l) == pytest.approx(
                localization_evaluate(8, r, (0,) * r, l), rel=1e-8, abs=1e-8)

    def test_matches_closed_form_evaluations(self):
        for k, r, psi in [(4, 2, "+"), (4, 2, "-"), (8, 3, (0, 1, 1)),
                          (12, 4, (0, 1, 0, 1)), (8, 5, (0, 0, 1, 1, 0)), (6, 1, ())]:
            elem = quantize_star_block(k, r, psi if r >= 2 else ())
            for l in range(k + 1):
                assert localization_evaluate(k, r, psi if r >= 2 else (), l) == pytest.approx(
                    elem.evaluate(l), abs=1e-8, rel=1e-8)


def test_choice_sum_collapses_to_power():
    # summing over all psi kills every gamma != identity by orthogonality
    from itertools import product as iproduct
    for k, r in [(4, 3), (8, 4), (2, 2)]:
        total = FusionElement.zero(k)
        for bits in iproduct((0, 1), repeat=r - 1):
            total = total + quantize_star_block(k, r, (0,) + bits)
        assert total == tau_power(k, r)


def test_r2_pair_identity():
    for k in range(0, 101, 2):
        plus = quantize_star_block(k, 2, "+")
        minus = quantize_star_block(k, 2, "-")
        assert plus + minus == tau_power(k, 2)


# Object layout: results are named tuples, and the value objects a request
# builds are frozen dataclasses with slots, so a request makes no instance
# dict (a trusted constructor that wrote through vars() made every later
# field read slower).

def _dict_state_reduce(obj):
    """The reduce tuple of ``obj`` as the dict-based layout pickled it
    (protocol 2 and up): the class, and the instance dict as the state."""
    return copyreg.__newobj__, (type(obj),), {name: getattr(obj, name) for name in obj.__match_args__}


def _load(reduce):
    """What an unpickler builds from ``reduce``: the object, then its state."""
    rebuild, args, state = reduce
    obj = rebuild(*args)
    obj.__setstate__(state)
    return obj


def _value_objects():
    """Trusted objects of each slotted class, from a request's paths."""
    surf = SurfaceData(8, 1, (4, 0, 4, 4))
    choices = enumerate_choices(surf)
    gammas = enumerate_gamma(surf)
    return [quantize_surface(surf, choices[1]).element, fs_formula(surf, choices[2]).element,
            tau(4, 2), *choices[:3], canonicalize_choice(surf, (1, 1, 0, 1, 1, 0)),
            gammas[1], gammas[1] * gammas[2]]


def _checked(obj):
    """``obj`` rebuilt by its class's checked constructor."""
    return type(obj)(*(getattr(obj, name) for name in obj.__match_args__))


class TestObjectLayout:
    def test_every_constructor_gives_a_choice_its_mask(self):
        """The mask ``_classify`` reads is bit j = slot j whichever way the
        choice was built, and every copy classifies alike."""
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        for choice in enumerate_choices(surf):
            for bits in {choice.psi_bits} | _noncanonical_variants(surf, choice.psi_bits):
                mask = sum(bit << j for j, bit in enumerate(bits))
                built = PrequantChoice(bits)
                copies = [built, PrequantChoice(tuple(map(np.int64, bits))),
                          PrequantChoice._trusted(bits, mask), _load(_dict_state_reduce(built)),
                          *(pickle.loads(pickle.dumps(built, protocol))
                            for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
                if bits == choice.psi_bits:
                    copies.append(choice)
                for copy in copies:
                    assert copy == built and copy._mask == mask
                    assert type(copy._mask) is int and "_mask" not in repr(copy)
                    assert prequant._classify(surf, copy) == prequant._classify(surf, built)
                canonical = canonicalize_choice(surf, bits)
                assert canonical._mask == sum(bit << j for j, bit in enumerate(canonical.psi_bits))
                assert prequant._classify(surf, canonical) == prequant._classify(surf, built)

    def test_result_fields_order_and_default(self):
        assert QuantizationResult._fields == ("element", "reduced", "path", "choice")
        assert QuantizationResult._field_defaults == {"choice": None}
        element = tau(4, 2)
        assert QuantizationResult(element, 0, "closed_form") == (element, 0, "closed_form", None)

    def test_results_compare_and_hash_by_their_fields(self):
        surf = SurfaceData(4, 1, (2, 2))
        result = quantize_surface(surf, PrequantChoice((0, 0, 1, 1)))
        element, reduced, path, choice = result
        same = QuantizationResult(FusionElement(4, element.coeffs), reduced, path,
                                  PrequantChoice(choice.psi_bits))
        assert result == same and hash(result) == hash(same)
        assert result._asdict() == {"element": element, "reduced": 1, "path": "closed_form",
                                    "choice": choice}
        assert result._replace(path="fs_float") == fs_formula(surf, choice)
        assert result != result._replace(choice=None)

    def test_results_are_read_only(self):
        result = verlinde_baseline(SurfaceData(4, 1, (2, 2)))
        for name in QuantizationResult._fields:
            with pytest.raises(AttributeError):
                setattr(result, name, None)

    def test_result_json_is_unchanged(self):
        surf, choice = SurfaceData(4, 1, (2, 2)), PrequantChoice((0, 0, 1, 1))
        closed = {"level": 4, "coeffs": [1, 0, 2, 0, 1], "reduced": 1, "path": "closed_form",
                  "choice": {"psi_bits": [0, 0, 1, 1]}}
        assert quantize_surface(surf, choice).to_json_dict() == closed
        assert fs_formula(surf, choice).to_json_dict() == {**closed, "path": "fs_float"}
        assert verlinde_baseline(surf).to_json_dict() == {
            "level": 4, "coeffs": [9, 0, 15, 0, 9], "reduced": 9, "path": "closed_form",
            "choice": None}

    def test_request_objects_have_no_instance_dict(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        results = [quantize_surface(surf, c) for c in enumerate_choices(surf)[:2]]
        results += [fs_formula(surf), verlinde_baseline(surf)]
        for obj in results + _value_objects():
            assert not hasattr(obj, "__dict__"), obj
        for obj in _value_objects():
            assert obj == _checked(obj) and hash(obj) == hash(_checked(obj))
            with pytest.raises(AttributeError):
                object.__setattr__(obj, "extra", 1)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_value_objects_pickle_whole(self, protocol):
        for obj in _value_objects():
            copy = pickle.loads(pickle.dumps(obj, protocol))
            assert copy == obj and hash(copy) == hash(obj)
            assert not hasattr(copy, "__dict__")

    def test_a_pickle_of_the_dict_layout_loads_whole(self):
        """A pickle written when these objects kept an instance dict loads
        through the checked constructor, as an equal object."""
        for obj in _value_objects():
            old = _load(_dict_state_reduce(obj))
            assert old == obj and hash(old) == hash(obj), obj
            assert not hasattr(old, "__dict__")
        rebuild, args, state = _dict_state_reduce(PrequantChoice((0, 1)))
        with pytest.raises(ValueError, match="0/1 entries"):
            _load((rebuild, args, {"psi_bits": (0, 2)}))

    def test_a_pickle_of_a_dict_layout_result_fails_loudly(self):
        # A tuple cannot be built empty and filled in afterwards.
        with pytest.raises(TypeError):
            _load(_dict_state_reduce(verlinde_baseline(SurfaceData(4, 1, (2, 2)))))
