"""Exact level-k fusion ring arithmetic for SU(2) and the quantization of
moduli spaces of flat SO(3)-bundles over surfaces with boundary.

The exact integer path (block fusion), the S-matrix summation formula and
fixed-point localization cross-check each other; ``oracles`` adds
independent brute-force validators and a verification suite.
"""

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
from .oracles import (
    VerificationReport,
    classical_verlinde_number,
    closed_form_tables,
    run_verification_suite,
    structure_constants_verlinde,
)

__version__ = "0.1.0"

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
