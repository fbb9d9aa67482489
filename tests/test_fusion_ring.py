import json
import math
import operator
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verlinde.fusion_ring import (
    DEFAULT_TOLERANCE,
    FusionElement,
    InexactDivision,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    _cyclotomic_cofactor,
    _fold,
    _fold_angle,
    _over_3_minus_tau2,
    _round_coefficients,
    _sine_coefficients,
    _sines,
    _sines_cancel,
    _times_basis,
    _times_double,
    _weyl_quotient,
    from_idempotent,
    integrality_tolerance,
    multiply_coeff_vectors,
    round_to_integer,
    s_matrix,
    s_matrix_entry,
    to_idempotent,
)
from verlinde.quantization import _fs_rows, quantize_double_su2


def term_by_term_product(k, a, b):
    """Reference fusion product: expand every chi_m chi_n by Clebsch-Gordan
    and fold each chi_j into level k by the affine reflection rule."""
    period = 2 * (k + 2)
    out = [0] * (k + 1)
    for m, cm in enumerate(a):
        if not cm:
            continue
        for n, cn in enumerate(b):
            if not cn:
                continue
            for j in range(abs(m - n), m + n + 1, 2):
                r = (j + 1) % period
                if r == 0 or r == k + 2:
                    continue
                if r <= k + 1:
                    out[r - 1] += cm * cn
                else:
                    out[period - r - 1] -= cm * cn
    return out


COEFFS = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))


@st.composite
def level_vectors(draw, k):
    """A level-k coefficient vector: zero, a scaled basis element, sparse or dense."""
    kind = draw(st.sampled_from(["zero", "basis", "sparse", "dense"]))
    coeffs = [0] * (k + 1)
    if kind == "basis":
        coeffs[draw(st.integers(0, k))] = draw(COEFFS.filter(bool))
    elif kind == "sparse":
        for m, c in draw(st.dictionaries(st.integers(0, k), COEFFS, max_size=4)).items():
            coeffs[m] = c
    elif kind == "dense":
        coeffs = draw(st.lists(COEFFS, min_size=k + 1, max_size=k + 1))
    return coeffs


def tau(k, m):
    return FusionElement.tau(k, m)


FOLD_LEVELS = [0, 1, 2, 3, 4, 7, 12]


def chi(j):
    """The character chi_j alone, as the coefficient list that ``_fold`` takes."""
    return [0] * j + [1]


class TestReduceCharacter:
    """``_fold``, the reduction of a character sum c_j chi_j into R_k, on
    one period j <= 2k+3 of the affine reflection."""

    def test_ideal_generator_vanishes(self):
        for k in FOLD_LEVELS:
            assert _fold(k, chi(k + 1)) == [0] * (k + 1)

    def test_low_degrees_map_identically(self):
        for k in FOLD_LEVELS:
            for j in range(k + 1):
                assert _fold(k, chi(j)) == list(tau(k, j).coeffs)

    def test_first_reflection_is_negative(self):
        # chi_{k+2} folds to -tau_k; cross-checked against evaluation below
        for k in FOLD_LEVELS:
            assert _fold(k, chi(k + 2)) == list((-tau(k, k)).coeffs)

    @pytest.mark.parametrize("k", FOLD_LEVELS)
    def test_matches_special_point_evaluation(self, k):
        # the evaluation-based oracle: the image must take the same values
        # as the character at every special point
        for j in range(2 * k + 4):
            image = FusionElement(k, _fold(k, chi(j)))
            for l in range(k + 1):
                assert image.evaluate(l) == pytest.approx(
                    _weyl_quotient(k, l, ((j, 1),)), abs=1e-9)


class TestMultiply:
    def test_star_square(self):
        assert tau(4, 2) * tau(4, 2) == FusionElement(4, (1, 0, 1, 0, 1))

    def test_unit(self):
        x = FusionElement(6, (3, 0, -2, 5, 0, 1, 4))
        assert FusionElement.one(6) * x == x
        assert x * FusionElement.one(6) == x

    def test_fold_in_product(self):
        # chi_2 chi_4 = chi_6 + chi_4 + chi_2 and chi_6 folds to -tau_4
        assert tau(4, 2) * tau(4, 4) == tau(4, 2)

    def test_star_cube(self):
        assert tau(4, 2) ** 3 == FusionElement(4, (1, 0, 3, 0, 1))

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match="level mismatch"):
            tau(4, 2) * tau(6, 2)
        with pytest.raises(ValueError, match="level mismatch"):
            tau(4, 2) - tau(6, 2)

    def test_subtraction_undoes_addition(self):
        x, y = FusionElement(6, (3, 0, -2, 5, 0, 1, 4)), FusionElement(6, (1, 2, 3, 4, 5, 6, 7))
        assert x - y + y == x
        assert x - y == FusionElement(6, (2, -2, -5, 1, -5, -5, -3))
        assert (x - x).is_zero() and FusionElement.zero(6).is_zero()
        assert not x.is_zero() and not FusionElement.one(0).is_zero()

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    @pytest.mark.parametrize("other", [1, 1.5, "x", None, np.int64(1)])
    def test_adding_a_non_element_raises_type_error(self, op, other):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(tau(4, 2), other)
        with pytest.raises(TypeError):
            op(other, tau(4, 2))

    def test_big_coefficients_stay_exact(self):
        big = 10**30
        x = big * tau(2, 1)
        assert (x * x).coeffs == (big * big, 0, big * big)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term_product(self, data):
        k = data.draw(st.integers(min_value=0, max_value=80))
        a = data.draw(level_vectors(k))
        b = data.draw(level_vectors(k))
        assert multiply_coeff_vectors(k, a, b) == term_by_term_product(k, a, b)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_basis_step_matches_term_by_term(self, data):
        k = data.draw(st.integers(min_value=0, max_value=12))
        m = data.draw(st.integers(min_value=0, max_value=k))
        b = data.draw(st.lists(st.integers(min_value=-2**70, max_value=2**70),
                               min_size=k + 1, max_size=k + 1))
        assert _times_basis(k, m, b) == term_by_term_product(k, tau(k, m).coeffs, b)

    @pytest.mark.parametrize("k", [*range(61), 101, 400])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_double_step_matches_the_dense_product(self, k, data):
        # The tridiagonal solve against the dense product, which it replaced
        # in the closed form; at k = 0 the odd parity class is empty, at
        # k = 0 and 1 a class has one entry.
        b = data.draw(level_vectors(k))
        assert _times_double(k, b) == list((quantize_double_su2(k) * FusionElement(k, b)).coeffs)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_a_fractional_quotient_raises_at_the_top_ghost(self, k):
        # tau_0 / (3 - tau_2) is D_SU(2) / (2(k+2)), whose tau_0 coefficient
        # (k+1) / (2(k+2)) is not an integer
        with pytest.raises(InexactDivision, match=r"tau_0 coefficient of 1 b / \(3 - tau_2\)"):
            _over_3_minus_tau2(k, tau(k, 0).coeffs, 1)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_basis_products_match_term_by_term(self, k):
        for m in range(k + 1):
            for n in range(k + 1):
                assert (tau(k, m) * tau(k, n)).coeffs == tuple(
                    term_by_term_product(k, tau(k, m).coeffs, tau(k, n).coeffs))

    def test_double_su2_closed_form(self):
        for k in range(61):
            total = FusionElement.zero(k)
            for m in range(k + 1):
                total = total + tau(k, m) * tau(k, m)
            assert quantize_double_su2(k) == total

    def test_star_powers_at_level_400(self):
        star = tau(400, 200)
        repeated = FusionElement.one(400)
        for r in range(1, 9):
            repeated = repeated * star
            assert star ** r == repeated


class TestSMatrix:
    def test_column_of_unit_row(self):
        assert s_matrix_entry(4, 0, 2) == pytest.approx(3 ** -0.5)

    def test_star_star_entry(self):
        # S[k/2, k/2] = (k/2+1)^(-1/2) (-1)^(k/4) at k = 4
        assert s_matrix_entry(4, 2, 2) == pytest.approx(-(3 ** -0.5))

    def test_low_level_entry(self):
        assert s_matrix_entry(2, 0, 0) == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            s_matrix_entry(4, 5, 0)

    def test_entry_equals_the_matrix_exactly(self):
        for k in range(31):
            smat = s_matrix(k)
            for m, l in product(range(k + 1), repeat=2):
                assert s_matrix_entry(k, m, l) == smat[m, l], (k, m, l)

    def test_matrix_is_read_only(self):
        for k in (0, 1, 6, 33):
            mat = s_matrix(k)
            assert not mat.flags.writeable
            assert mat.dtype == np.float64 and mat.shape == (k + 1, k + 1)

    @pytest.mark.parametrize("k", [*range(31), 124, 300, 1000])
    def test_one_pass_rows_are_bit_identical_to_the_matrix(self, k):
        # The S-matrix path forms the rows of 0 and of every label in one
        # pass; with every m as a label that pass holds the whole matrix,
        # row 0 first, and its unscaled row 0 is the transform's weights.
        weights, rows = _fs_rows(k, range(k + 1))
        smat = s_matrix(k)
        assert not rows.flags.writeable and rows.shape == (k + 2, k + 1)
        assert rows[0].tobytes() == smat[0].tobytes()
        assert rows[1:].tobytes() == smat.tobytes()
        assert weights.tobytes() == _sines(k).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 5, 20, 64, 100])
    def test_symmetry_and_orthogonality(self, k):
        smat = s_matrix(k)
        assert np.abs(smat - smat.T).max() < 1e-12
        assert np.abs(smat @ smat.T - np.eye(k + 1)).max() < 1e-10


class TestEvaluation:
    def test_unit_evaluates_to_one(self):
        for l in range(8):
            assert tau(7, 0).evaluate(l) == pytest.approx(1.0)

    def test_fundamental_at_first_point(self):
        assert tau(2, 1).evaluate(0) == pytest.approx(math.sqrt(2))

    def test_star_at_star_point(self):
        assert tau(4, 2).evaluate(2) == pytest.approx(-1.0)

    def test_matches_s_matrix_quotient(self):
        k = 9
        smat = s_matrix(k)
        for m in range(k + 1):
            for l in range(k + 1):
                assert tau(k, m).evaluate(l) == pytest.approx(
                    smat[m][l] / smat[0][l], rel=1e-10, abs=1e-10)

    def test_a_value_that_vanishes_is_exactly_zero(self):
        # chi's terms cancel to a few u in floats, within their bound, and
        # the sum of sines vanishes exactly, so the value is 0.0.  At N = 10,
        # 2 sin(3 pi/10) - 2 sin(pi/10) = sin(5 pi/10) relates three sines.
        for k in range(2, 41, 2):
            chi = FusionElement(k, tuple((1, 0, -1, 0)[m % 4] for m in range(k + 1)))
            assert [chi.evaluate(l) for l in range(k + 1) if 2 * l != k] == [0.0] * k
        assert FusionElement(8, (-2, 0, 2, 0, -1, 0, 0, 0, 0)).evaluate(0) == 0.0
        # a term whose sine is exactly 0 adds nothing, however large
        assert FusionElement(2, (0, 10**400, 0)).evaluate(1) == 0.0

    def test_the_cyclotomic_cofactor_is_built_once_per_level(self):
        # every point of chi at k = 1000 but t_500 cancels, and each reads
        # the cofactor of m = 2(k+2)
        _cyclotomic_cofactor.cache_clear()
        chi = FusionElement(1000, tuple((1, 0, -1, 0)[m % 4] for m in range(1001)))
        assert chi.evaluate(2) == chi.evaluate(700) == 0.0
        info = _cyclotomic_cofactor.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _cyclotomic_cofactor.__wrapped__(2004) == _cyclotomic_cofactor(2004)

    def test_sines_cancel_exactly_when_the_exact_sum_is_zero(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        for n in (3, 6, 10, 12, 15, 30, 42):
            for trial in range(60):
                folded = [0] + rng.integers(-2, 3, n // 2).tolist()
                if trial % 2:  # a combination that vanishes: chi's at t_l
                    l = trial % (n - 1)
                    folded = [0] * (n // 2 + 1)
                    for m in range(0, n - 1, 2):
                        z = _fold_angle(n, (m + 1) * (l + 1))
                        folded[abs(z) // 2] += (1 if m % 4 == 0 else -1) * (1 if z > 0 else -1)
                with mpmath.workdps(60):
                    exact = mpmath.fsum(c * mpmath.sinpi(mpmath.mpf(f) / n)
                                        for f, c in enumerate(folded))
                assert _sines_cancel(n, folded) == (abs(exact) < mpmath.mpf(10) ** -40), \
                    (n, folded)

    def test_a_value_lost_to_cancellation_raises(self):
        # At N = 10, -2 sin(pi/10) + 2 sin(3 pi/10) - sin(5 pi/10) = 0, so
        # z = -2 tau_0 + 2 tau_2 - tau_4 vanishes at t_0 with no two terms
        # equal, and c z + tau_1 has the value of tau_1 there, 2 cos(pi/10).
        # The bound on its terms' rounding, 13u sum |terms| / sin(pi/10), is
        # 1.8e-14 at c = 1 and 1.5e-6 at c = 10^8, and the value returns
        # within it; at c = 10^20 it is 1.5e6, above the value, and no digit
        # of it is certain.
        for c, bound in ((1, 1.8e-14), (10**8, 1.5e-6)):
            x = FusionElement(8, (-2 * c, 1, 2 * c, 0, -c, 0, 0, 0, 0))
            assert abs(x.evaluate(0) - 2 * math.cos(math.pi / 10)) < bound
        x = FusionElement(8, (-2 * 10**20, 1, 2 * 10**20, 0, -(10**20), 0, 0, 0, 0))
        with pytest.raises(PrecisionExhausted, match="cannot certify any digit"):
            x.evaluate(0)


class TestIdempotentBasis:
    def test_idempotent_vectors_are_deltas(self):
        # taut_l has tau-coefficients S[0,l] S[m,l]; evaluations are deltas
        k = 6
        smat = s_matrix(k)
        for l in range(k + 1):
            coeffs = smat[0][l] * smat[:, l]
            evals = coeffs @ (smat / smat[0])
            expected = np.eye(k + 1)[l]
            assert np.abs(evals - expected).max() < 1e-10

    def test_chi_vector_reconstruction(self):
        v = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        assert from_idempotent(v) == FusionElement(4, (1, 0, -1, 0, 1))

    def test_non_integral_raises(self):
        v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(NonIntegralCoefficient):
            from_idempotent(v)

    def test_precision_exhausted(self):
        # values past 2^53 relative to their spread: no integer is certified
        v = np.array([1e20, 0.0, 3.0, 0.0, 1e20])
        with pytest.raises(PrecisionExhausted, match="precision"):
            from_idempotent(v)
        assert issubclass(PrecisionExhausted, NonIntegralCoefficient)
        import verlinde
        assert verlinde.PrecisionExhausted is PrecisionExhausted

    # the transform of a value past double range warns in numpy unless silenced
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [[1.0, math.inf, 1.0], [1.0, math.nan, 1.0],
                                        [1e308] * 3, [-math.inf] * 5])
    def test_values_out_of_double_range_exhaust_precision(self, values):
        with pytest.raises(PrecisionExhausted, match="cannot certify"):
            from_idempotent(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [(10**400, 0, 0, 0, 0), (0, 0, -(10**309), 0, 0),
                                        (10**308,) * 5, (0, 0, 10**308, 0, 0)])
    def test_coefficients_out_of_double_range_exhaust_precision(self, coeffs):
        x = FusionElement(4, coeffs)
        with pytest.raises(PrecisionExhausted, match="out of double range"):
            to_idempotent(x)
        with pytest.raises(PrecisionExhausted, match="out of double range"):
            for l in range(5):
                x.evaluate(l)

    @pytest.mark.parametrize("k", [0, 1, 7, 64, 399, 400])
    def test_to_idempotent_matches_evaluation(self, k):
        rng = np.random.default_rng(k)
        x = FusionElement(k, tuple(int(c) for c in rng.integers(-1000, 1001, k + 1)))
        scale = sum(map(abs, x.coeffs))
        for l, value in enumerate(to_idempotent(x)):
            assert abs(value - x.evaluate(l)) <= 1e-12 * scale / math.sin((l + 1) * math.pi / (k + 2))

    def test_to_idempotent_is_a_read_only_array(self):
        values = to_idempotent(FusionElement(4, (3, -1, 0, 7, 2)))
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.shape == (5,)
        assert not values.flags.writeable

    @pytest.mark.parametrize("values", [[], np.zeros(0), np.zeros((2, 3)), 1.0])
    def test_from_idempotent_rejects_empty_or_not_1d(self, values):
        with pytest.raises(ValueError, match="1-D"):
            from_idempotent(values)

    def test_from_idempotent_reads_the_level_from_the_length(self):
        assert from_idempotent([5.0]) == FusionElement(0, (5,))
        assert from_idempotent((0.0, 0.0, 3.0, 0.0, 0.0)).level == 4

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, data):
        k = data.draw(st.integers(min_value=0, max_value=16))
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=k + 1, max_size=k + 1))
        x = FusionElement(k, tuple(coeffs))
        assert from_idempotent(to_idempotent(x)) == x


def dense_coefficients(k, values):
    """Reference basis change: the dense S-matrix product with one exactly
    rounded sum per tau-coefficient (math.fsum), O(k^2)."""
    mm = np.arange(1, k + 2)
    smat = np.sin(np.outer(mm, mm) * (math.pi / (k + 2))) / math.sqrt(k / 2 + 1)
    weighted = (smat[0] * np.asarray(values)) * smat
    return [math.fsum(row.tolist()) for row in weighted]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sine_transform_within_its_bound_of_the_dense_route(data):
    # The dense route errs too: its S-matrix entries carry the rounding of
    # angles up to about (k+2) pi, which on random inputs stays below half
    # the transform's bound for k <= 400.
    k = data.draw(st.integers(min_value=0, max_value=400))
    magnitude = data.draw(st.sampled_from([1.0, 1e6, 1e15, 1e30]))
    values = data.draw(st.lists(st.floats(-magnitude, magnitude), min_size=k + 1,
                                max_size=k + 1))
    coeffs, bound = _sine_coefficients(values)
    assert len(coeffs) == k + 1
    assert max(abs(c - d) for c, d in zip(coeffs, dense_coefficients(k, values))) <= bound


@st.composite
def _raw_coefficient(draw):
    """An integer, a half-integer, a float past 2^53, a value at (or one ulp
    either side of) the edge of round_to_integer's allowance, n +- 0.499
    with |n| large enough that the allowance is capped at 0.499, or any
    float."""
    kind = draw(st.sampled_from(("integer", "half", "large", "edge", "cap", "any")))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "cap":
        return draw(st.integers(499_000, 2**30)) * sign + draw(st.sampled_from((0.499, -0.499)))
    if kind == "integer":
        return float(draw(st.integers(-2**30, 2**30)))
    if kind == "half":
        return draw(st.integers(-2**30, 2**30)) + 0.5
    if kind == "large":
        return float(draw(st.integers(2**53, 2**70)) * sign)
    if kind == "edge":
        n = draw(st.integers(-2**30, 2**30))
        edge = n + sign * min(DEFAULT_TOLERANCE * (1.0 + abs(n)), 0.499)
        return float(np.nextafter(edge, edge + draw(st.sampled_from((-1, 0, 1)))))
    return draw(st.floats())


class TestOnePassRounding:
    # inf - inf warns; such a coefficient must still fail as round_to_integer fails
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_raw_coefficient(), min_size=1, max_size=24))
    def test_matches_round_to_integer_per_coefficient(self, values):
        """The same integers as round_to_integer coefficient by coefficient,
        or the same exception, with the same message, at the same first
        coefficient."""
        coeffs = np.array(values)
        try:
            expected = [round_to_integer(c, exc=NonIntegralCoefficient,
                                         context=f"tau_{m} coefficient")
                        for m, c in enumerate(values)]
        except ArithmeticError as exc:
            with pytest.raises(type(exc)) as info:
                _round_coefficients(len(values) - 1, coeffs, 0.0)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            rounded = _round_coefficients(len(values) - 1, coeffs, 0.0)
            assert rounded.coeffs == tuple(expected)
            assert all(type(c) is int for c in rounded.coeffs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((-0.0, 0.0, 2.0**53 - 1, -(2.0**53 - 1))),
                              st.floats(-(2.0**53 - 1), 2.0**53 - 1)),
                    min_size=1, max_size=24))
    def test_int64_conversion_gives_the_python_ints(self, values):
        """Every coefficient that reaches the conversion is below 2^53, where
        int64 holds it exactly: the same tuple as int() coefficient by
        coefficient, -0.0 as 0."""
        nearest = np.rint(np.array(values))
        python_ints = tuple(map(int, nearest.tolist()))
        assert tuple(nearest.astype(np.int64).tolist()) == python_ints
        rounded = _round_coefficients(len(values) - 1, nearest, 0.0)
        assert rounded.coeffs == python_ints
        assert all(type(c) is int for c in rounded.coeffs)

    @pytest.mark.parametrize("n", range(-12, 13))
    def test_small_allowances_are_tested_per_coefficient(self, n):
        """Near a small integer the allowance is a few DEFAULT_TOLERANCE, so
        a vector whose deviations are all small can still fail: one ulp
        either side of the edge gives round_to_integer's outcome."""
        edge = n + min(DEFAULT_TOLERANCE * (1.0 + abs(n)), 0.499)
        for value in (float(np.nextafter(edge, -math.inf)), float(np.nextafter(edge, math.inf))):
            try:
                expected = round_to_integer(value, exc=NonIntegralCoefficient,
                                            context="tau_1 coefficient")
            except NonIntegralCoefficient as exc:
                with pytest.raises(NonIntegralCoefficient, match=re.escape(str(exc))):
                    _round_coefficients(2, np.array([1.0, value, 3.0]), 0.0)
            else:
                assert _round_coefficients(2, np.array([1.0, value, 3.0]), 0.0).coeffs == \
                    (1, expected, 3)


class TestRoundToInteger:
    def test_fixed_tolerance(self):
        assert integrality_tolerance() == DEFAULT_TOLERANCE == 1e-6
        assert round_to_integer(2.0 + 1e-9) == 2
        with pytest.raises(NonIntegralValue):
            round_to_integer(2.0 + 1e-5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_value_out_of_double_range_is_precision_exhausted(self, value):
        with pytest.raises(PrecisionExhausted, match="reduced quantization = .* out of double"):
            round_to_integer(value, context="reduced quantization")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_value_from_2_53_is_precision_exhausted(self, sign):
        # doubles skip integers from 2^53 on: no rounded value there is certified
        assert round_to_integer(sign * (2.0**53 - 1)) == sign * (2**53 - 1)
        for value in (2.0**53, 2.0**53 + 2, 1e300):
            with pytest.raises(PrecisionExhausted, match="not below 2\\^53"):
                round_to_integer(sign * value)
            with pytest.raises(PrecisionExhausted, match="tau_1 coefficient = .* 2\\^53"):
                _round_coefficients(1, np.array([0.0, sign * value]), 0.0)

    def test_error_bound_from_one_half_is_precision_exhausted(self):
        assert round_to_integer(3.0 + 1e-9, bound=0.499) == 3
        for bound in (0.5, math.inf, math.nan):
            with pytest.raises(PrecisionExhausted, match="rounding error bound of .* not below 1/2"):
                round_to_integer(3.0, bound=bound)
        # the range checks come first, with their own messages
        with pytest.raises(PrecisionExhausted, match="not below 2\\^53"):
            round_to_integer(2.0**53, bound=1.0)
        with pytest.raises(PrecisionExhausted, match="out of double range"):
            round_to_integer(math.inf, bound=math.inf)


class TestTrace:
    def test_unit_trace(self):
        assert tau(5, 0).trace == 1

    def test_nonunit_trace(self):
        assert tau(5, 3).trace == 0

    def test_genus_two_count_level_one(self):
        # (sum_m tau_m^2)^2 at k=1; oracle: sum_l S[0,l]^(-2) = 4
        k = 1
        total = FusionElement.zero(k)
        for m in range(k + 1):
            total = total + tau(k, m) * tau(k, m)
        assert (total * total).trace == 4
        smat = s_matrix(k)
        assert math.fsum(float(x) ** -2 for x in smat[0]) == pytest.approx(4.0)


class TestJson:
    def test_round_trip_small(self):
        x = FusionElement(3, (1, -2, 0, 5))
        data = json.loads(json.dumps(x.to_json_dict()))
        assert FusionElement.from_json_dict(data) == x
        assert data["coeffs"] == [1, -2, 0, 5]

    def test_big_coefficients_become_strings(self):
        big = 2**60 + 1
        x = FusionElement(1, (big, -big))
        data = json.loads(json.dumps(x.to_json_dict()))
        assert data["coeffs"] == [str(big), str(-big)]
        assert FusionElement.from_json_dict(data) == x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_multiplicative(data):
    k = data.draw(st.integers(min_value=0, max_value=14))
    coeffs = st.lists(st.integers(-5, 5), min_size=k + 1, max_size=k + 1)
    a = FusionElement(k, tuple(data.draw(coeffs)))
    b = FusionElement(k, tuple(data.draw(coeffs)))
    ab = a * b
    for l in range(k + 1):
        prod = a.evaluate(l) * b.evaluate(l)
        assert abs(ab.evaluate(l) - prod) < 1e-8 * (1 + abs(prod))


def test_public_api_is_pinned():
    # A change here is a public-API change: list it in CHANGES.md.
    import verlinde
    assert sorted(verlinde.__all__) == [
        "AdmissibilityReport", "FusionElement", "GammaElement", "GroupTooLarge",
        "InexactDivision", "NonIntegralCoefficient", "NonIntegralValue", "NotAdmissible",
        "PrecisionExhausted", "PrequantChoice", "QuantizationResult", "SurfaceData",
        "VerificationReport", "canonicalize_choice", "check_prequantization",
        "chi_element", "classical_verlinde_number", "closed_form_tables",
        "enumerate_choices", "enumerate_gamma", "from_idempotent", "fs_formula",
        "integrality_tolerance", "localization_evaluate", "phase_factor",
        "quantize_double_so3", "quantize_double_su2", "quantize_star_block",
        "quantize_surface", "reduced_quantization", "run_verification_suite",
        "s_matrix", "s_matrix_entry", "structure_constants_verlinde", "to_idempotent",
        "verlinde_baseline",
    ]
    assert all(hasattr(verlinde, name) for name in verlinde.__all__)
