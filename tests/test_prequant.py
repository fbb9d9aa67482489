import copy
import dataclasses
import gc
import json
import pickle
import random
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verlinde import prequant
from verlinde.oracles import sweep_surfaces
from verlinde.prequant import (
    GammaElement,
    GroupTooLarge,
    NotAdmissible,
    PrequantChoice,
    SurfaceData,
    canonicalize_choice,
    check_prequantization,
    enumerate_choices,
    enumerate_gamma,
    phase_factor,
    require_admissible,
)


def _odd_genus_surfaces():
    return [SurfaceData(k, h, labels) for k in range(1, 22, 2) for h in (1, 2)
            for labels in ((), (0,), (1, k), (k,))]


def _many_star_surfaces():
    return [SurfaceData(k, h, (k // 2,) * r + extra) for k in range(2, 23, 4)
            for h in (0, 1) for r in range(3, 7) for extra in ((), (1,), (0, k))]


class TestSurfaceData:
    def test_star_count(self):
        surf = SurfaceData(4, 1, (2, 0, 2, 3))
        assert surf.star_slots == (0, 2)
        assert surf.star_count == 2
        assert surf.nonstar_labels == (0, 3)
        assert surf.num_slots == 6

    def test_odd_level_has_no_stars(self):
        assert SurfaceData(5, 0, (2, 3)).star_count == 0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            SurfaceData(4, 0, (5,))

    @pytest.mark.parametrize("genus, labels", [(1.5, (2, 2)), (1, (2.7, 2)), (1, (2, "2")),
                                               (np.float64(1.0), ()), (0, (np.float64(2.0),))])
    def test_non_integer_fields_rejected(self, genus, labels):
        with pytest.raises(TypeError, match="must be integers"):
            SurfaceData(4, genus, labels)

    def test_numpy_integers_accepted(self):
        surf = SurfaceData(np.int64(4), np.int32(1), (np.int64(2), np.uint8(2), 1))
        assert surf == SurfaceData(4, 1, (2, 2, 1))
        assert all(type(x) is int for x in (surf.genus, *surf.labels))

    def test_json_round_trip(self):
        surf = SurfaceData(6, 2, (3, 1))
        assert SurfaceData.from_json_dict(surf.to_json_dict()) == surf

    def test_derived_data_leaves_value_semantics_alone(self):
        fresh = SurfaceData(8, 1, (4, 0, 4, 4))
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        assert surf.star_slots == (0, 2, 3) and surf.nonstar_labels == (0,)
        assert surf.star_count == 3 and surf.admissibility.admissible
        assert surf == fresh and hash(surf) == hash(fresh) and repr(surf) == repr(fresh)
        assert surf.admissibility == check_prequantization(fresh)
        copy = pickle.loads(pickle.dumps(surf))
        assert copy == surf and hash(copy) == hash(surf)
        assert copy.star_slots == (0, 2, 3) and copy.admissibility.admissible
        moved = dataclasses.replace(surf, level=6)
        assert moved == SurfaceData(6, 1, (4, 0, 4, 4))
        assert moved.star_slots == () and moved.nonstar_labels == (4, 0, 4, 4)
        assert len({surf, fresh, copy, moved}) == 2

    def test_hash_is_taken_once_and_survives_pickling(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        assert vars(surf)["_hash"] == hash((8, 1, (4, 0, 4, 4)))
        first = hash(surf)
        assert vars(surf)["_hash"] == first == hash(surf)
        assert hash(SurfaceData(8, 1, [4, 0, 4, 4])) == first
        assert hash(SurfaceData(8, 1, (4, 4, 0, 4))) != first
        for copy in (pickle.loads(pickle.dumps(surf)),
                     pickle.loads(pickle.dumps(SurfaceData(8, 1, (4, 0, 4, 4))))):
            assert copy == surf and hash(copy) == first
            assert {copy: 1}[surf] == 1

    def test_a_pickle_of_the_fields_alone_loads_whole(self):
        """A pickle that carries no derived data, as one written when the
        data was derived on first use, unpickles with all of it."""
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        rebuild, args, state = surf.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
        old = rebuild(*args)
        old.__setstate__({name: state[name] for name in ("level", "genus", "labels")})
        assert vars(old) == vars(surf) and hash(old) == hash(surf)


class TestFoldedSurface:
    """``_folded``: the surface without its labels 0, which quantize to tau_0,
    and its labels k, each a reflection by tau_k; ``_reflected``: an odd
    count of labels k."""

    def test_labels_zero_are_removed(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        assert surf._folded == SurfaceData(8, 1, (4, 4, 4))
        assert surf._folded.star_slots == (0, 1, 2) and surf._folded._folded is None
        assert SurfaceData(6, 2, (0, 0, 0))._folded == SurfaceData(6, 2, ())
        assert SurfaceData(5, 0, (0, 1, 0, 3))._folded.labels == (1, 3)
        assert not surf._reflected

    @pytest.mark.parametrize("fields,folded,reflected", [
        ((8, 1, (4, 8, 8)), (8, 1, (4,)), False),
        ((8, 1, (8, 4, 0, 8, 8)), (8, 1, (4,)), True),
        ((1, 0, (1,)), (1, 0, ()), True),
        ((12, 1, (1, 6, 6, 12)), (12, 1, (1, 6, 6)), True),
        ((316, 0, (91, 156, 158, 158, 158, 194, 316)), (316, 0, (91, 156, 158, 158, 158, 194)),
         True)])
    def test_labels_k_are_removed_and_their_parity_kept(self, fields, folded, reflected):
        surf = SurfaceData(*fields)
        assert surf._folded == SurfaceData(*folded) and surf._folded._folded is None
        assert surf._reflected is reflected and surf._folded._reflected is False
        assert surf._folded.star_slots == tuple(
            j for j, m in enumerate(surf._folded.labels) if 2 * m == surf.level)

    def test_star_label_zero_stays(self):
        # at k = 0 label 0 is the star label k/2
        surf = SurfaceData(0, 0, (0, 0))
        assert surf.star_count == 2 and surf._folded is None

    @pytest.mark.parametrize("fields", [(8, 1, (4, 1, 8)), (4, 0, ()), (0, 1, (0,)),
                                        (8, 1, (4, 0, 4, 4))])
    def test_no_surface_refers_to_itself(self, fields):
        # freed by reference counting alone, without the cyclic collector
        surf = SurfaceData(*fields)
        assert (surf._folded is None) == (fields[0] == 0 or not {0, fields[0]} & set(fields[2]))
        ref = weakref.ref(surf)
        gc.disable()
        try:
            del surf
            assert ref() is None
        finally:
            gc.enable()

    def test_pickle_and_deepcopy_rebuild_the_folded_surface(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(surf, protocol))
            assert loaded._folded == SurfaceData(8, 1, (4, 4, 4))
            assert loaded._folded.star_slots == (0, 1, 2)
        for copied in (copy.deepcopy(surf), copy.copy(surf)):
            assert copied == surf and copied._folded == surf._folded
        rebuild, args, state = surf.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:3]
        old = rebuild(*args)
        old.__setstate__({name: state[name] for name in ("level", "genus", "labels")})
        assert old._folded == surf._folded and old._folded._folded is None

    def test_value_semantics_ignore_the_folded_surface(self):
        surf = SurfaceData(8, 1, (4, 0, 4, 4))
        assert [f.name for f in dataclasses.fields(surf)] == ["level", "genus", "labels"]
        assert repr(surf) == "SurfaceData(level=8, genus=1, labels=(4, 0, 4, 4))"
        assert hash(surf) == hash((8, 1, (4, 0, 4, 4)))
        assert surf != surf._folded and hash(surf) != hash(surf._folded)
        assert dataclasses.astuple(surf) == (8, 1, (4, 0, 4, 4))


class TestAdmissibility:
    @pytest.mark.parametrize("k,h,labels,expected", [
        (4, 0, (2, 2, 2), True),
        (6, 0, (3, 3, 3), False),   # r = 3 needs 4 | k
        (3, 1, (), False),          # genus needs even k
        (5, 0, (2,), True),
        (6, 0, (3, 3), True),       # two stars only need even k
        (2, 2, (1, 0), True),
    ])
    def test_examples(self, k, h, labels, expected):
        assert check_prequantization(SurfaceData(k, h, labels)).admissible is expected

    def test_failure_names_condition(self):
        report = check_prequantization(SurfaceData(6, 0, (3, 3, 3)))
        assert "(iii)" in report.failure_message()
        assert "4N" in report.failure_message()
        assert [c.code for c in report.failures] == ["(iii)"]
        assert check_prequantization(SurfaceData(4, 0, (2, 2, 2))).failures == ()

    def test_require_admissible_raises(self):
        with pytest.raises(NotAdmissible, match=r"\(ii\)"):
            require_admissible(SurfaceData(3, 1, ()))

    def test_report_computed_once_per_surface(self):
        surf = SurfaceData(6, 0, (3, 3, 3))
        assert surf.admissibility is surf.admissibility
        for _ in range(2):
            with pytest.raises(NotAdmissible, match=r"\(iii\)"):
                require_admissible(surf)

    def test_admissible_surface_builds_no_report(self):
        surf = SurfaceData(8, 2, (4, 4, 4, 1))
        require_admissible(surf)
        enumerate_choices(surf)
        assert "admissibility" not in vars(surf)

    def test_boolean_matches_the_report(self):
        surfaces = list(sweep_surfaces(20, 5, 2))
        assert len(surfaces) == 1141
        odd_genus, many_stars = _odd_genus_surfaces(), _many_star_surfaces()
        for surf in odd_genus + many_stars:
            assert not check_prequantization(surf).admissible, surf
        for surf in surfaces + odd_genus + many_stars:
            fresh = SurfaceData(surf.level, surf.genus, surf.labels)
            assert fresh._admissible is check_prequantization(fresh).admissible, surf


def test_derived_fields_match_a_reference():
    """The data a surface derives when it is built, against a reference
    taken from the raw inputs: its star slots are the j with 2 m_j = k, its
    other labels stay in order, and its boolean is the report's verdict."""
    surfaces = list(sweep_surfaces(20, 5, 2)) + _odd_genus_surfaces() + _many_star_surfaces()
    inputs = [(s.level, s.genus, s.labels) for s in surfaces] + [
        (0, 0, ()), (0, 1, (0,)), (0, 0, (0, 0, 0)), (4, 0, ()), (5, 2, ()),
        (np.int64(8), np.int32(1), (np.int64(4), np.uint8(4), np.int16(3), 4)),
        (np.uint8(6), np.int64(0), (np.int8(3), np.int64(0))),
    ]
    for level, genus, labels in inputs:
        surf = SurfaceData(level, genus, labels)
        k, h, ms = int(level), int(genus), tuple(map(int, labels))
        slots = tuple(j for j, m in enumerate(ms) if 2 * m == k)
        assert surf.star_slots == slots and surf.star_count == len(slots), surf
        assert surf.nonstar_labels == tuple(m for j, m in enumerate(ms) if j not in slots)
        assert surf._admissible is check_prequantization(surf).admissible, surf
        assert vars(surf)["_hash"] == hash((k, h, ms)) == hash(surf)
        assert all(type(x) is int for x in surf.star_slots + surf.nonstar_labels)


class TestGammaEnumeration:
    def test_two_stars(self):
        gammas = enumerate_gamma(SurfaceData(4, 0, (2, 2)))
        assert [g.bits for g in gammas] == [(0, 0), (1, 1)]

    def test_genus_one(self):
        gammas = enumerate_gamma(SurfaceData(2, 1, ()))
        assert len(gammas) == 4
        assert gammas[0].is_identity()

    def test_single_star_is_trivial(self):
        # parity forces the lone star bit to zero
        gammas = enumerate_gamma(SurfaceData(4, 0, (2, 1)))
        assert len(gammas) == 1 and gammas[0].is_identity()

    @pytest.mark.parametrize("k,h,labels", [
        (4, 0, (2, 2, 2)), (4, 2, (2,)), (8, 1, (4, 4, 4, 4)), (2, 0, (1, 1, 1, 1, 1)),
    ])
    def test_size_formula(self, k, h, labels):
        surf = SurfaceData(k, h, labels)
        r = surf.star_count
        expected = 2 ** (2 * h + r - 1) if r >= 1 else 2 ** (2 * h)
        assert len(enumerate_gamma(surf)) == expected == surf.gamma_size()

    def test_cap(self):
        with pytest.raises(GroupTooLarge):
            enumerate_gamma(SurfaceData(2, 2, ()), cap=8)

    def test_enumerated_elements_pass_the_public_checks(self):
        for surf in sweep_surfaces(8, 4, 2, gamma_cap=2**6):
            gammas = enumerate_gamma(surf)
            for g in gammas:
                assert g == GammaElement(g.bits, g.star_slots, g.num_boundary)
            last = gammas[-1]
            for g in gammas:
                product = g * last
                assert product == GammaElement(product.bits, product.star_slots,
                                               product.num_boundary)

    def test_elements_of_different_bit_counts_do_not_multiply(self):
        # same star slots and boundary count, one double more
        with pytest.raises(ValueError, match="different groups"):
            GammaElement((0, 0), (), 2) * GammaElement((0, 0, 1, 1), (), 2)
        with pytest.raises(ValueError, match="different groups"):
            GammaElement((0, 0, 1, 1), (), 2) * GammaElement((0, 0), (), 2)

    def test_star_slots_strictly_increase_below_s(self):
        # A duplicate slot once counted as a third star, so phase_factor read
        # the three-star sign rule here and gave -1 where the element of
        # slots (0, 1) gives 1; an unsorted slot list made an unequal twin.
        good = GammaElement((1, 1), (0, 1), 2)
        assert phase_factor(4, PrequantChoice((0, 0)), good) == 1
        for stars in ((0, 0, 1), (1, 0), (0, 2), (-1, 1), (0, 1, 1)):
            with pytest.raises(ValueError, match="strictly increasing star slots below s"):
                GammaElement((1, 1), stars, 2)
        assert GammaElement((0, 0), (), 2).star_slots == ()

    def test_invalid_bits_rejected(self):
        surf = SurfaceData(4, 0, (2, 1))
        with pytest.raises(ValueError, match="not a star"):
            GammaElement.from_surface(surf, (0, 1))
        with pytest.raises(ValueError, match="parity"):
            GammaElement.from_surface(SurfaceData(4, 0, (2, 2)), (1, 0))


class TestChoices:
    def test_counts(self):
        assert len(enumerate_choices(SurfaceData(4, 0, (2, 2, 2)))) == 4
        assert len(enumerate_choices(SurfaceData(4, 0, (2, 2)))) == 2
        assert len(enumerate_choices(SurfaceData(4, 0, (1,)))) == 1

    def test_trivial_choice_first(self):
        for surf in (SurfaceData(4, 0, (2, 2, 2)), SurfaceData(2, 1, ())):
            assert enumerate_choices(surf)[0].is_trivial()

    def test_inadmissible_surface_rejected(self):
        with pytest.raises(NotAdmissible):
            enumerate_choices(SurfaceData(6, 0, (3, 3, 3)))

    def test_enumerated_choices_equal_their_public_copies(self):
        for surf in sweep_surfaces(8, 4, 2):
            for choice in enumerate_choices(surf):
                copy = PrequantChoice(choice.psi_bits)
                assert choice == copy and hash(choice) == hash(copy)
                assert type(choice.psi_bits) is tuple
                assert all(type(b) is int for b in choice.psi_bits)
                assert len(choice.psi_bits) == surf.num_slots

    @pytest.mark.parametrize("bits", [(0, 0.5), (0.0, 1), ("0", 1), (0, np.float64(1.0))])
    def test_non_integer_bits_rejected(self, bits):
        with pytest.raises(TypeError, match="must be integers"):
            PrequantChoice(bits)

    def test_numpy_integer_bits_accepted(self):
        assert PrequantChoice((np.int64(0), np.uint8(1))).psi_bits == (0, 1)

    def test_public_constructor_still_checks_bits(self):
        with pytest.raises(ValueError, match="0/1"):
            PrequantChoice((0, 2))

    def test_pairwise_inequivalent(self):
        surf = SurfaceData(4, 1, (2, 2, 2))
        gammas = enumerate_gamma(surf)
        signatures = {tuple(c.psi(g) for g in gammas) for c in enumerate_choices(surf)}
        assert len(signatures) == surf.gamma_size()

    def test_choices_are_those_each_call_used_to_build(self):
        # every sweep surface, and the big_gamma pool's 2^12 to 2^16 choices,
        # past the shared cache's cap
        surfaces = [*sweep_surfaces(20, 5, 2),
                    *(surf for surf, _ in _pool_surfaces("big_gamma"))]
        assert max(s.gamma_size() * s.num_slots for s in surfaces[-5:]) > prequant._SHARED_PSI_BITS
        for surf in surfaces:
            got = enumerate_choices(surf)
            assert got == _reference_choices(surf), surf
            assert [c._mask for c in got] == [prequant._bits_mask(c.psi_bits) for c in got]

    def test_a_caller_that_mutates_its_list_changes_no_other_call(self):
        surf = SurfaceData(8, 1, (4, 4, 1))
        first = enumerate_choices(surf)
        want = list(first)
        first.reverse()
        first.append(first[0])
        del first[:2]
        second = enumerate_choices(surf)
        assert second == want and second is not first
        # the choices themselves are shared, and immutable
        assert all(a is b for a, b in zip(second, enumerate_choices(SurfaceData(12, 1, (6, 6, 5)))))
        with pytest.raises(dataclasses.FrozenInstanceError):
            second[1].psi_bits = (0,) * surf.num_slots

    def test_the_shared_choices_are_bounded(self):
        cache = prequant._shared_choices
        cache.cache_clear()
        for surf in sweep_surfaces(20, 5, 2):
            enumerate_choices(surf)
        info = cache.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (105, 105, 128)
        assert sum(map(len, (cache(s, stars, h) for s, stars, h in _shapes()))) == 4662
        # a shape past the cap is built on every call and never held
        big = SurfaceData(4, 4, (2, 2, 2, 2, 2))
        assert big.gamma_size() * big.num_slots > prequant._SHARED_PSI_BITS
        assert enumerate_choices(big) == enumerate_choices(big)
        assert cache.cache_info()[1:] == info[1:]
        # 200 shapes more leave 128
        for n in range(1, 201):
            enumerate_choices(SurfaceData(4, 0, (1,) * n))
        assert cache.cache_info().currsize == 128

    def test_canonicalization(self):
        surf = SurfaceData(4, 1, (2, 0, 2))
        # bit on the non-star slot is dropped; star bits flip so the first is 0
        choice = canonicalize_choice(surf, (1, 1, 1, 0, 1))
        assert choice.psi_bits == (0, 0, 0, 0, 1)
        gammas = enumerate_gamma(surf)
        raw = PrequantChoice((1, 1, 1, 0, 1))
        assert all(choice.psi(g) == raw.psi(g) for g in gammas)


def _reference_choices(surf):
    """The canonical choices of ``surf`` as each call built them before they
    were shared per slot shape."""
    free_stars = surf.star_slots[1:]
    s, h = surf.num_boundary, surf.genus
    out = []
    for star_bits in product((0, 1), repeat=len(free_stars)):
        bits = [0] * s
        for j, bit in zip(free_stars, star_bits):
            bits[j] = bit
        for double_bits in product((0, 1), repeat=2 * h):
            out.append(PrequantChoice(tuple(bits) + double_bits))
    return out


def _shapes():
    """The slot shapes (s, star slots, h) of the sweep's surfaces."""
    return {(s.num_boundary, s.star_slots, s.genus) for s in sweep_surfaces(20, 5, 2)}


def _reference_class(surf, bits):
    """The folded class of psi bits on ``surf``, read from the bits alone:
    a, the bits set on star slots, and d, the double pairs other than
    (0, 0), folded to min(a, r - a) and, for d >= 2, to 1 at k in 4N and
    to d mod 2 otherwise."""
    s, r = surf.num_boundary, surf.star_count
    a = sum(bits[j] for j in surf.star_slots)
    d = sum((bits[i], bits[i + 1]) != (0, 0) for i in range(s, len(bits), 2))
    if d >= 2:
        d = 1 if surf.level % 4 == 0 else d % 2
    return min(a, r - a), d


def _pool_surfaces(workload):
    """The benchmark's pool surfaces of ``workload``, each with its candidate choices."""
    with open(Path(__file__).resolve().parents[1] / "bench" / "expected.json") as fh:
        pool = json.load(fh)[workload]["surfaces"]
    return [(SurfaceData(s["level"], s["genus"], s["labels"]),
             [PrequantChoice(tuple(map(int, c["psi"]))) for c in s["choices"]]) for s in pool]


def _noncanonical(surf, rng):
    """Random psi bits on ``surf`` with a 1 on a non-star boundary slot or
    on the first star slot, so that the choice is not canonical."""
    bits = [rng.randint(0, 1) for _ in range(surf.num_slots)]
    fixed = [j for j in range(surf.num_boundary) if j not in surf.star_slots[1:]]
    bits[rng.choice(fixed)] = 1
    return tuple(bits)


class TestClassReference:
    """``prequant._classify`` against a reference that counts the bits."""

    @staticmethod
    def check(surf, choice):
        canonical, a, d = prequant._classify(surf, choice)
        assert (a, d) == _reference_class(surf, choice.psi_bits), (surf, choice)
        assert canonical == canonicalize_choice(surf, choice.psi_bits)
        assert (canonical is choice) == (canonical.psi_bits == choice.psi_bits)

    def test_every_sweep_request(self):
        requests = 0
        for surf in sweep_surfaces(20, 5, 2):
            for choice in enumerate_choices(surf):
                self.check(surf, choice)
                requests += 1
        assert requests == 31324

    @pytest.mark.parametrize("workload, candidates", [("high_level", 167), ("big_gamma", 480)])
    def test_every_pool_candidate(self, workload, candidates):
        checked = 0
        for surf, choices in _pool_surfaces(workload):
            for choice in choices:
                self.check(surf, choice)
                checked += 1
        assert checked == candidates

    def test_random_noncanonical_choices(self):
        rng = random.Random(26)
        bounded = [surf for surf in sweep_surfaces(20, 5, 2) if surf.num_boundary]
        surfaces = rng.sample(bounded, 400)
        surfaces += [surf for surf, _ in _pool_surfaces("big_gamma")]
        assert {(surf.genus, surf.num_boundary) for surf in surfaces[-5:]} == \
            {(4, 5), (3, 10), (6, 5), (5, 8), (7, 5)}
        for surf in surfaces:
            for _ in range(20):
                choice = PrequantChoice(_noncanonical(surf, rng))
                self.check(surf, choice)
                assert prequant._classify(surf, choice)[0] is not choice

    def test_wrong_length_is_rejected(self):
        surf = SurfaceData(8, 1, (4, 4, 4, 1))
        for bits in ((0,) * 5, (0,) * 7, (0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 0, 0)):
            with pytest.raises(ValueError, match=f"need 6 psi bits, got {len(bits)}"):
                prequant._classify(surf, PrequantChoice(bits))


class TestPhaseFactor:
    def test_identity(self):
        surf = SurfaceData(4, 1, (2, 2))
        for choice in enumerate_choices(surf):
            assert phase_factor(4, choice, GammaElement.identity(surf)) == 1

    def test_star_weight_two_at_level_four(self):
        # (-1)^(k l_star / 8) = (-1)^1 with trivial psi, r >= 3
        surf = SurfaceData(4, 0, (2, 2, 2))
        choice = enumerate_choices(surf)[0]
        gamma = GammaElement.from_surface(surf, (1, 1, 0))
        assert phase_factor(4, choice, gamma) == -1

    def test_double_pair_sign(self):
        surf = SurfaceData(2, 1, ())
        gamma = GammaElement.from_surface(surf, (1, 0))
        assert phase_factor(2, PrequantChoice((0, 0)), gamma) == -1

    def test_r2_sign_carried_by_psi_alone(self):
        surf = SurfaceData(4, 0, (2, 2))
        gamma = GammaElement.from_surface(surf, (1, 1))
        plus, minus = enumerate_choices(surf)
        assert phase_factor(4, plus, gamma) == 1
        assert phase_factor(4, minus, gamma) == -1

    def test_odd_level_double_rejected(self):
        surf = SurfaceData(3, 1, ())
        gamma = GammaElement.from_surface(surf, (1, 1))
        with pytest.raises(NotAdmissible):
            phase_factor(3, PrequantChoice((0, 0)), gamma)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_psi_is_a_homomorphism(data):
    k = data.draw(st.sampled_from([0, 2, 4, 8, 12]))
    r = data.draw(st.integers(0, 4))
    if r >= 3 and k % 4:
        r = 2
    h = data.draw(st.integers(0, 2))
    surf = SurfaceData(k, h, (k // 2,) * r)
    gammas = enumerate_gamma(surf)
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(surf.num_slots))
    psi = PrequantChoice(bits)
    g1 = data.draw(st.sampled_from(gammas))
    g2 = data.draw(st.sampled_from(gammas))
    assert psi.psi(g1 * g2) == psi.psi(g1) * psi.psi(g2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_character_orthogonality(data):
    k = data.draw(st.sampled_from([2, 4, 6, 8]))
    h = data.draw(st.integers(0, 2))
    r = data.draw(st.sampled_from([0, 2] if k % 4 else [0, 2, 3]))
    surf = SurfaceData(k, h, (k // 2,) * r)
    gammas = enumerate_gamma(surf)
    for choice in enumerate_choices(surf):
        total = sum(choice.psi(g) for g in gammas)
        assert total == (len(gammas) if choice.is_trivial() else 0)
