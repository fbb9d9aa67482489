"""Exact level-k fusion ring arithmetic for SU(2) and the quantization of
moduli spaces of flat SO(3)-bundles over surfaces with boundary.

The exact integer path (block fusion), the S-matrix summation formula and
fixed-point localization cross-check each other; ``oracles`` adds
independent brute-force validators and a verification suite.  The package
imports neither ``oracles`` nor numpy: ``oracles`` loads when one of its
names is first read from here, and numpy when a computation first needs it
(``fusion_ring._numpy``).
"""

from importlib import import_module

from .fusion_ring import (
    FusionElement,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    from_idempotent,
    integrality_tolerance,
    s_matrix,
    s_matrix_entry,
    to_idempotent,
)
from .prequant import (
    AdmissibilityReport,
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
)
from .quantization import (
    InexactDivision,
    QuantizationResult,
    chi_element,
    fs_formula,
    localization_evaluate,
    quantize_double_so3,
    quantize_double_su2,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
    verlinde_baseline,
)

__version__ = "0.1.0"

# Loaded with ``oracles``, which imports numpy, on first use (PEP 562).
_ORACLE_NAMES = ("VerificationReport", "classical_verlinde_number", "closed_form_tables",
                 "run_verification_suite", "structure_constants_verlinde")

__all__ = [
    "FusionElement",
    "NonIntegralCoefficient", "NonIntegralValue", "PrecisionExhausted",
    "from_idempotent",
    "integrality_tolerance", "s_matrix", "s_matrix_entry",
    "to_idempotent",
    "AdmissibilityReport", "GammaElement", "GroupTooLarge", "NotAdmissible",
    "PrequantChoice", "SurfaceData", "canonicalize_choice",
    "check_prequantization", "enumerate_choices", "enumerate_gamma",
    "phase_factor",
    "InexactDivision", "QuantizationResult", "chi_element", "fs_formula",
    "localization_evaluate", "quantize_double_so3", "quantize_double_su2",
    "quantize_star_block", "quantize_surface", "reduced_quantization",
    "verlinde_baseline",
    "VerificationReport", "classical_verlinde_number", "closed_form_tables",
    "run_verification_suite", "structure_constants_verlinde",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES or name == "oracles":
        oracles = import_module(".oracles", __name__)
        return oracles if name == "oracles" else getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES, "oracles"})
