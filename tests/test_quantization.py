import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from verlinde import prequant, quantization
from verlinde.fusion_ring import (
    FusionElement,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    _sine_coefficients,
    s_matrix,
)
from verlinde.prequant import (
    GroupTooLarge,
    NotAdmissible,
    PrequantChoice,
    SurfaceData,
    canonicalize_choice,
    enumerate_choices,
    enumerate_gamma,
)
from verlinde.quantization import (
    chi_element,
    fs_formula,
    localization_evaluate,
    quantize_conjugacy_class,
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
        assert quantize_conjugacy_class(5, 0) == tau(5, 0)
        assert quantize_conjugacy_class(4, 2) == tau(4, 2)
        assert quantize_conjugacy_class(7, 7) == tau(7, 7)

    def test_double_su2_small_levels(self):
        assert quantize_double_su2(1) == FusionElement(1, (2, 0))
        assert quantize_double_su2(2) == FusionElement(2, (3, 0, 1))

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

    def test_block_sum_matches_literal_gamma_sum(self):
        for surf in sweep_surfaces(20, 5, 2, gamma_cap=2**6):
            for choice in enumerate_choices(surf):
                literal = fs_formula_with_phases(surf, _phase_vector(surf, choice))
                assert fs_formula(surf, choice).element == literal
                assert reduced_quantization(surf, choice) == literal.trace

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


def test_precision_bound_below_half_on_every_sweep_class():
    # Each class's coefficients are the surface's identity term plus an
    # update along taut_{k/2}; a direct transform of the class's values must
    # agree within both bounds.
    classes = 0
    for surf in sweep_surfaces(20, 5, 2):
        k, size = surf.level, surf.gamma_size()
        smat = s_matrix(k)
        identity = np.prod(smat[list(surf.labels)], axis=0) / smat[0] ** surf.num_slots / size
        for a, d in {prequant._canonical_class(surf, c)[1:] for c in enumerate_choices(surf)}:
            coeffs, bound = quantization._fs_coefficients(surf, a, d)
            assert bound < 0.5
            values = identity.copy()
            values[k // 2] = quantization._block_sum(surf, a, d, surf.num_slots)
            direct, direct_bound = _sine_coefficients(values)
            assert np.abs(coeffs - direct).max() <= bound + direct_bound
            classes += 1
    assert classes == 4912


def test_failing_class_is_transformed_once():
    surf = SurfaceData(12, 6, (4, 6, 6, 6, 7))  # fails to round at 1e-6
    choice = enumerate_choices(surf)[1]
    quantization._fs_coefficients.cache_clear()
    for _ in range(3):
        with pytest.raises(NonIntegralCoefficient):
            fs_formula(surf, choice)
    info = quantization._fs_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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
    classified, by identity, after its admissibility and type checks."""

    PATHS = (quantize_surface, fs_formula, reduced_quantization)

    @pytest.fixture
    def classify_calls(self, monkeypatch):
        calls = []
        classify = prequant._classify
        monkeypatch.setattr(prequant, "_last_class", (None, None, None))
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

    def test_failure_is_not_cached(self):
        surf = SurfaceData(12, 6, (4, 6, 6, 6, 7))  # |Gamma| = 2^14
        first, same_class = enumerate_choices(surf)[1:3]
        assert _choice_class(surf, first) == _choice_class(surf, same_class)
        for path, exc in ((fs_formula, NonIntegralCoefficient),
                          (reduced_quantization, NonIntegralValue)):
            messages = set()
            for choice in (first, first, same_class):
                with pytest.raises(exc) as info:
                    path(surf, choice)
                messages.add(str(info.value))
            assert len(messages) == 1


def _pattern_loop_chi_coefficient(k, r, psi_bits):
    """The sum over the 2^(r-1) star patterns, one pattern at a time: psi
    times (k/2+1)^(l/2-1), sign (-1)^((k/4)(r - l/2)) for r >= 3."""
    total = 0
    for pat in product((0, 1), repeat=r):
        lw = sum(pat)
        if lw == 0 or lw % 2:
            continue
        term = (-1) ** sum(p & b for p, b in zip(psi_bits, pat)) * (k // 2 + 1) ** (lw // 2 - 1)
        if r >= 3 and (k // 4 * (r - lw // 2)) % 2:
            term = -term
        total += term
    return total


@pytest.mark.parametrize("k", [4, 8, 12, 40])
def test_star_sum_matches_pattern_loop(k):
    half = k // 2
    theta = math.pi * (half + 1) / (k + 2)
    tau_val = math.sin((half + 1) * theta) / math.sin(theta)
    for r in range(2, 11):
        base, chi = tau_power(k, r), chi_element(k)
        for free in product((0, 1), repeat=r - 1):
            psi = (0,) + free
            total = _pattern_loop_chi_coefficient(k, r, psi)
            block = quantize_star_block(k, r, psi)
            assert block * 2 ** (r - 1) == base + total * chi
            loc = (tau_val ** r + (half + 1) * total) / 2 ** (r - 1)
            assert localization_evaluate(k, r, psi, half) == pytest.approx(loc, rel=1e-12)


# Every lru cache of the package, each kept for traffic it was measured to
# serve or because the benchmark's tracer reads it by name (the reason is
# the comment at its decorator).  A new cache needs a measured reason too,
# and then a place in this list.
AUDITED_CACHES = {
    "fusion_ring._s_row",
    "quantization.tau_power", "quantization._chi_coefficient", "quantization._star_block",
    "quantization.quantize_double_so3", "quantization._label_product",
    "quantization._star_and_doubles", "quantization._closed_form_base",
    "quantization._closed_form_element", "quantization._fs_gamma_data",
    "quantization._fs_star_factors", "quantization._fs_coefficients",
    "quantization._fs_element", "quantization._reduced_value",
    "oracles._listed_gamma", "oracles._gamma_terms",
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
    """One canonical choice per class (a, d) of the surface, with the class."""
    r, h, s = surf.star_count, surf.genus, surf.num_boundary
    for a in range(max(r, 1)):
        for d in range(h + 1):
            bits = [0] * surf.num_slots
            for j in surf.star_slots[1:1 + a]:
                bits[j] = 1
            for i in range(d):
                bits[s + 2 * i + 1] = 1
            yield (a, d), PrequantChoice(tuple(bits))


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
        SurfaceData(12, 40, (6, 6, 6, 6, 4)), SurfaceData(100, 60, (50, 50, 50, 50, 8))]
    assert {min(s.star_count, 3) for s in surfaces} == {0, 1, 2, 3}
    assert any(s.level % 2 for s in surfaces)
    classes = 0
    for surf in surfaces:
        for (a, d), choice in _class_choices(surf):
            assert prequant._canonical_class(surf, choice)[1:] == (a, d)
            got = quantize_surface(surf, choice).element
            assert got.coeffs == _product_of_blocks(surf, a, d).coeffs, (surf, a, d)
            classes += 1
    assert classes > 5000


def test_closed_form_products_per_surface_and_class(monkeypatch):
    from verlinde import fusion_ring
    calls = []
    multiply = fusion_ring.multiply_coeff_vectors
    monkeypatch.setattr(fusion_ring, "multiply_coeff_vectors",
                        lambda *args: calls.append(args[0]) or multiply(*args))
    _clear_quantization_caches()
    surf = SurfaceData(12, 64, (6, 6, 6, 6, 5))  # r = 4, one non-star label
    (_, first), *rest = _class_choices(surf)
    quantize_surface(surf, first)
    # 6 squarings for D^64, then tau_6 four times and tau_5 once as basis elements
    assert len(calls) <= 2 * math.log2(surf.genus) + surf.star_count + 1
    assert len(rest) == 4 * 65 - 1
    before = len(calls)
    for _, choice in rest:
        quantize_surface(surf, choice)
    assert len(calls) == before


def test_inexact_division_is_raised(monkeypatch):
    surf = SurfaceData(8, 1, (4, 4, 4))
    _clear_quantization_caches()
    base = quantization._closed_form_base(surf)
    monkeypatch.setattr(quantization, "_closed_form_base",
                        lambda s: base._replace(weight=base.weight + 1))
    with pytest.raises(quantization.InexactDivision, match="not divisible by 16"):
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
