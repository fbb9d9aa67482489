"""The one integer rule at every public boundary.

An integer argument takes a Python or numpy integer and nothing else: a
float, a string or a bool (Python or numpy) raises TypeError, whatever the
lru caches already hold, and a numpy integer gives the same result as the
equal Python int.
"""

import operator
from enum import IntEnum

import numpy as np
import pytest

from verlinde.fusion_ring import (
    FusionElement,
    _check_int,
    s_matrix,
    s_matrix_entry,
)
from verlinde.oracles import (
    classical_verlinde_number,
    closed_form_tables,
    run_verification_suite,
    star_choice_class,
    structure_constants_verlinde,
    sweep_surfaces,
)
from verlinde.prequant import (
    GammaElement,
    PrequantChoice,
    SurfaceData,
    canonicalize_choice,
    enumerate_gamma,
    phase_factor,
)
from verlinde.quantization import (
    chi_element,
    localization_evaluate,
    quantize_double_so3,
    quantize_double_su2,
    quantize_star_block,
    tau_power,
)

NOT_INTEGERS = (1.5, "2", True, np.True_)

# (argument, call with the argument x, a valid value n of it)
INTEGER_ARGUMENTS = [
    ("FusionElement level", lambda x: FusionElement(x, (1, 0, 0, 0, 2)), 4),
    ("FusionElement coefficient", lambda x: FusionElement(4, (1, x, 0, 0, 0)), 3),
    ("FusionElement.from_json_dict level",
     lambda x: FusionElement.from_json_dict({"level": x, "coeffs": [0, 1, 0]}), 2),
    ("FusionElement.zero", lambda x: FusionElement.zero(x), 3),
    ("FusionElement.one", lambda x: FusionElement.one(x), 3),
    ("FusionElement.tau level", lambda x: FusionElement.tau(x, 1), 3),
    ("FusionElement.tau m", lambda x: FusionElement.tau(3, x), 1),
    ("FusionElement.evaluate", lambda x: FusionElement.tau(4, 2).evaluate(x), 1),
    ("FusionElement scalar", lambda x: FusionElement.tau(4, 2) * x, 3),
    ("FusionElement exponent", lambda x: FusionElement.tau(4, 1) ** x, 2),
    ("s_matrix", lambda x: s_matrix(x), 3),
    ("s_matrix_entry level", lambda x: s_matrix_entry(x, 1, 0), 3),
    ("s_matrix_entry m", lambda x: s_matrix_entry(3, x, 0), 1),
    ("s_matrix_entry l", lambda x: s_matrix_entry(3, 1, x), 1),
    ("SurfaceData level", lambda x: SurfaceData(x, 1, (2,)), 4),
    ("SurfaceData genus", lambda x: SurfaceData(4, x, (2,)), 1),
    ("SurfaceData label", lambda x: SurfaceData(4, 1, (x,)), 2),
    ("SurfaceData.from_json_dict level",
     lambda x: SurfaceData.from_json_dict({"level": x, "genus": 1, "labels": [2]}), 4),
    ("SurfaceData.from_json_dict genus",
     lambda x: SurfaceData.from_json_dict({"level": 4, "genus": x, "labels": [2]}), 1),
    ("SurfaceData.from_json_dict label",
     lambda x: SurfaceData.from_json_dict({"level": 4, "genus": 1, "labels": [x]}), 2),
    ("PrequantChoice bit", lambda x: PrequantChoice((0, x)), 1),
    ("PrequantChoice.from_json_dict bit",
     lambda x: PrequantChoice.from_json_dict({"psi_bits": [0, x]}), 1),
    ("GammaElement bit", lambda x: GammaElement((x, 1), (0, 1), 2), 1),
    ("GammaElement star slot", lambda x: GammaElement((1, 1), (0, x), 2), 1),
    ("GammaElement boundary count", lambda x: GammaElement((0, 0), (), x), 2),
    ("canonicalize_choice bit",
     lambda x: canonicalize_choice(SurfaceData(4, 0, (2, 2)), (x, 0)), 1),
    ("enumerate_gamma cap", lambda x: enumerate_gamma(SurfaceData(4, 0, (2, 2)), cap=x), 8),
    ("phase_factor level",
     lambda x: phase_factor(x, PrequantChoice((0, 1)), GammaElement((1, 1), (0, 1), 2)), 4),
    ("chi_element", lambda x: chi_element(x), 4),
    ("quantize_double_su2", lambda x: quantize_double_su2(x), 4),
    ("quantize_double_so3 level", lambda x: quantize_double_so3(x, (0, 1)), 4),
    ("quantize_double_so3 phi bit", lambda x: quantize_double_so3(4, (0, x)), 1),
    ("tau_power level", lambda x: tau_power(x, 2), 4),
    ("tau_power r", lambda x: tau_power(4, x), 2),
    ("quantize_star_block level", lambda x: quantize_star_block(x, 2, "+"), 4),
    ("quantize_star_block r", lambda x: quantize_star_block(4, x, "+"), 2),
    ("quantize_star_block psi bit", lambda x: quantize_star_block(4, 3, (0, x, 0)), 1),
    ("localization_evaluate level", lambda x: localization_evaluate(x, 2, "+", 1), 4),
    ("localization_evaluate r", lambda x: localization_evaluate(4, x, "+", 1), 2),
    ("localization_evaluate psi bit",
     lambda x: localization_evaluate(4, 3, (0, x, 0), 2), 1),
    ("localization_evaluate l", lambda x: localization_evaluate(4, 2, "+", x), 1),
    ("star_choice_class r", lambda x: star_choice_class(x, (0, 1, 1)), 3),
    ("star_choice_class bit", lambda x: star_choice_class(3, (0, x, 1)), 1),
    ("classical_verlinde_number level", lambda x: classical_verlinde_number(x, 1), 4),
    ("classical_verlinde_number genus", lambda x: classical_verlinde_number(4, x), 2),
    ("closed_form_tables level", lambda x: closed_form_tables(x, 2, "+"), 4),
    ("closed_form_tables r", lambda x: closed_form_tables(4, x, "+"), 2),
    ("structure_constants_verlinde", lambda x: structure_constants_verlinde(x), 2),
    ("run_verification_suite max_k", lambda x: run_verification_suite(x, 1, 0), 2),
    ("run_verification_suite max_r", lambda x: run_verification_suite(2, x, 0), 1),
    ("run_verification_suite max_h", lambda x: run_verification_suite(2, 1, x), 0),
    ("sweep_surfaces max_k", lambda x: list(sweep_surfaces(x, 2, 1)), 4),
    ("sweep_surfaces max_r", lambda x: list(sweep_surfaces(4, x, 1)), 2),
    ("sweep_surfaces max_h", lambda x: list(sweep_surfaces(4, 2, x)), 1),
    ("sweep_surfaces gamma_cap", lambda x: list(sweep_surfaces(4, 2, 1, x)), 8),
]


@pytest.mark.parametrize("call, n", [pytest.param(call, n, id=name)
                                     for name, call, n in INTEGER_ARGUMENTS])
def test_integer_argument_takes_integers_only(call, n):
    expected = repr(call(n))  # first, so the caches hold the valid entry
    for bad in NOT_INTEGERS:
        with pytest.raises(TypeError, match="must be (an )?integers?"):
            call(bad)
    # repr shows a numpy integer that leaked into a result
    assert repr(call(np.int64(n))) == expected


def _from_the_cache(call, valid, bad):
    """``call(bad)`` right after ``call(valid)``, so the cache holds the entry
    that ``bad``, equal to ``valid`` under ==, would find."""
    def run():
        call(valid)
        return call(bad)
    return run


# Inputs the package accepted, truncated, parsed or answered from a cache
# before the integer rule applied at every entry point.
SILENT_CASES = {
    "FusionElement truncated coefficients": lambda: FusionElement(4, (0.5, 0, 0, 0, 1.9)),
    "FusionElement parsed coefficients": lambda: FusionElement(2, ("1", "0", "3")),
    "FusionElement.tau truncated m": lambda: FusionElement.tau(4, 1.5),
    "FusionElement.evaluate truncated l": lambda: FusionElement.one(4).evaluate(1.5),
    "FusionElement scaled by a bool": lambda: FusionElement.tau(4, 2) * True,
    "s_matrix_entry truncated m": lambda: s_matrix_entry(4, 1.5, 0),
    "quantize_double_so3 truncated phi": lambda: quantize_double_so3(4, (0.5, 0)),
    "quantize_double_so3 bool phi from the cache":
        _from_the_cache(lambda phi: quantize_double_so3(4, phi), (1, 0), (True, False)),
    "tau_power float level from the cache": _from_the_cache(lambda k: tau_power(k, 2), 4, 4.0),
    "tau_power bool star count": lambda: tau_power(4, True),
    "quantize_star_block bool star count": lambda: quantize_star_block(4, True),
    "localization_evaluate non-integer l": lambda: localization_evaluate(4, 2, "+", 1.5),
    "SurfaceData bool genus": lambda: SurfaceData(4, True, (2, 2)),
    "SurfaceData.from_json_dict truncated genus and labels":
        lambda: SurfaceData.from_json_dict({"level": 4, "genus": 1.5, "labels": [2.7, 2]}),
    "PrequantChoice bool bits": lambda: PrequantChoice((True, False)),
    "PrequantChoice.from_json_dict float bit":
        lambda: PrequantChoice.from_json_dict({"psi_bits": [0, 1.0]}),
    "GammaElement truncated star slot": lambda: GammaElement((1, 1), (0.5, 1), 2),
    "GammaElement bool boundary count": lambda: GammaElement((0, 0), (), True),
    "star_choice_class truncated bits": lambda: star_choice_class(3, (0, 0.9, 0.2)),
    "classical_verlinde_number non-integer genus": lambda: classical_verlinde_number(4, 1.5),
    "classical_verlinde_number integral float genus":
        lambda: classical_verlinde_number(4, 2.0),
    "run_verification_suite bool bound": lambda: run_verification_suite(True, 1, 0),
    "sweep_surfaces bool bounds (the k <= 1 box), checked before the first surface":
        lambda: sweep_surfaces(True, True, True),
    "enumerate_gamma fractional cap":
        lambda: enumerate_gamma(SurfaceData(4, 0, (2, 2)), cap=2.5),
}


@pytest.mark.parametrize("call", SILENT_CASES.values(), ids=SILENT_CASES.keys())
def test_silent_cases_raise(call):
    with pytest.raises(TypeError):
        call()


# Malformed values of the right type, which the constructor once let
# through or failed on with another error.
MALFORMED_CASES = {
    "GammaElement fewer bits than boundary slots": lambda: GammaElement((0,), (), 3),
    "GammaElement negative boundary count": lambda: GammaElement((), (), -1),
    "GammaElement odd number of double bits": lambda: GammaElement((0, 0, 1), (), 2),
    "GammaElement star slot past the boundary": lambda: GammaElement((0, 0), (2,), 2),
    "GammaElement negative star slot": lambda: GammaElement((0, 0), (-1,), 2),
}


@pytest.mark.parametrize("call", MALFORMED_CASES.values(), ids=MALFORMED_CASES.keys())
def test_malformed_cases_raise(call):
    with pytest.raises(ValueError):
        call()


def test_json_coefficients_parse_decimal_strings_only():
    assert FusionElement.from_json_dict({"level": 1, "coeffs": ["3", -2]}) == \
        FusionElement(1, (3, -2))
    for bad in (1.5, True, np.True_):
        with pytest.raises(TypeError, match="coefficients must be integers"):
            FusionElement.from_json_dict({"level": 1, "coeffs": [bad, 0]})


def _full_integer_rule(value, what):
    """The integer rule with no exact-int shortcut: every value is tested
    for bools and ``__index__`` and passed through ``operator.index``."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


class _Level(IntEnum):
    FOUR = 4


@pytest.mark.parametrize("value", [0, -3, 2**80, np.int64(4), np.uint8(2), _Level.FOUR, True,
                                   np.bool_(True), 1.0, np.float64(2.0), "2", None])
def test_integer_rule_shortcut_changes_no_outcome(value):
    """A plain int skips the full rule; every value gets the full rule's
    result, of the same exact type, or its exception with the same message."""
    def outcome(rule):
        try:
            result = rule(value, "level")
        except Exception as exc:
            return type(exc), str(exc)
        return type(result), result
    assert outcome(_check_int) == outcome(_full_integer_rule)
