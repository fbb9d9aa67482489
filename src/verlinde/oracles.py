"""Independent brute-force validators for the fusion and quantization code.

Everything here recomputes results along a second route: structure
constants through the Verlinde diagonalization sum, star-block
quantizations through the literal multiplicity tables, classical Verlinde
numbers through the S-matrix power sum, and the S-matrix formula as the
literal Gamma sum.
``run_verification_suite`` packages all module invariants into a report
over a parameter box.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .fusion_ring import (
    DEFAULT_TOLERANCE,
    FusionElement,
    NonIntegralCoefficient,
    NonIntegralValue,
    _check_int,
    _check_level,
    _fold,
    from_idempotent,
    round_to_integer,
    s_matrix,
)
from .prequant import (
    GammaElement,
    PrequantChoice,
    SurfaceData,
    _canonical_class,
    _check_bits,
    _conditions_hold,
    _gamma_size,
    _require_conditions,
    enumerate_choices,
    enumerate_gamma,
    phase_factor,
)
from .quantization import (
    _exact_divide,
    _plus_chi,
    fs_formula,
    localization_evaluate,
    quantize_double_su2,
    quantize_star_block,
    quantize_surface,
    reduced_quantization,
    tau_power,
    verlinde_baseline,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "structure_constants_verlinde",
    "structure_constants_from_multiply",
    "closed_form_tables",
    "star_choice_class",
    "classical_verlinde_number",
    "sweep_surfaces",
    "phase_vector",
    "fs_formula_with_phases",
    "run_verification_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    passed: bool
    deviation: float = 0.0
    tolerance: float = 0.0

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": self.params, "pass": self.passed,
                "deviation": self.deviation, "tolerance": self.tolerance}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def to_json_dict(self) -> dict:
        return {"checks": [c.to_json_dict() for c in self.checks], "pass": self.passed}


def structure_constants_verlinde(k: int) -> np.ndarray:
    """Fusion coefficients N_ab^c = sum_l S[a,l] S[b,l] S[c,l] / S[0,l].

    The diagonalization route: completely independent of the folding-based
    product.  Raises NonIntegralValue if any entry is further than
    DEFAULT_TOLERANCE from an integer.
    """
    smat = s_matrix(k)
    raw = np.einsum("al,bl,cl->abc", smat, smat, smat / smat[0])
    table = np.rint(raw)
    deviation = float(np.abs(raw - table).max())
    if deviation > DEFAULT_TOLERANCE:
        raise NonIntegralValue(
            f"Verlinde sum deviates from integers by {deviation:.3e} at k={k}")
    return table.astype(np.int64)


def structure_constants_from_multiply(k: int) -> np.ndarray:
    """Fusion coefficients read off the exact tau-basis products."""
    _check_level(k)
    table = np.zeros((k + 1, k + 1, k + 1), dtype=np.int64)
    for a in range(k + 1):
        ta = FusionElement.tau(k, a)
        for b in range(a, k + 1):
            coeffs = (ta * FusionElement.tau(k, b)).coeffs
            table[a, b, :] = coeffs
            table[b, a, :] = coeffs
    return table


def classical_verlinde_number(k: int, genus: int) -> int:
    """Classical SU(2) Verlinde number round(sum_l S[0,l]^(2-2g))."""
    genus = _check_int(genus, "genus")
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    s0 = s_matrix(k)[0]
    try:  # a term or the sum out of double range: inf, which rounding reports
        value = math.fsum(float(x) ** (2 - 2 * genus) for x in s0)
    except OverflowError:
        value = math.inf
    return round_to_integer(value, exc=NonIntegralValue, context="Verlinde number")


def closed_form_tables(k: int, r: int, choice_class: str) -> FusionElement:
    """Literal multiplicity tables for the star-block quantizations.

    Built from the published closed forms alone (no fusion products):

    * r = 2: "+" has tau_0 + tau_4 + ..., "-" has tau_2 + tau_6 + ...
    * r = 3: coefficient of tau_{2j} is (min(2j, k-2j) + 1 + (4 d - 1)(-1)^j)/4
      with d = 1 for the trivial class and 0 otherwise.
    * r = 4: the base power sum_j (k/2+1-2j^2+jk) tau_{2j} combined with the
      three-case chi coefficient.

    ``choice_class`` "base" returns the plain power (tau_{k/2})^r table.
    An inadmissible (k, r) raises NotAdmissible as the star entry points do.
    """
    k, r = _check_level(k), _check_int(r, "star count")
    if r not in (2, 3, 4):
        raise ValueError(f"tables exist for r in {{2, 3, 4}}, got r={r}")
    _require_conditions(k, 0, r)
    half = k // 2
    coeffs = [0] * (k + 1)

    if choice_class == "base":
        for j in range(half + 1):
            if r == 2:
                coeffs[2 * j] = 1
            elif r == 3:
                coeffs[2 * j] = min(2 * j, k - 2 * j) + 1
            else:
                coeffs[2 * j] = half + 1 - 2 * j * j + j * k
        return FusionElement(k, tuple(coeffs))

    if r == 2:
        if choice_class not in ("+", "-"):
            raise ValueError(f"r=2 classes are '+' and '-', got {choice_class!r}")
        start = 0 if choice_class == "+" else 2
        for m in range(start, k + 1, 4):
            coeffs[m] = 1
        return FusionElement(k, tuple(coeffs))

    if r == 3:
        if choice_class not in ("trivial", "nontrivial"):
            raise ValueError(f"r=3 classes are 'trivial' and 'nontrivial', got {choice_class!r}")
        d = 1 if choice_class == "trivial" else 0
        for j in range(half + 1):
            base = min(2 * j, k - 2 * j) + 1
            coeffs[2 * j] = base + (4 * d - 1) * (-1) ** j
        return _exact_divide(k, coeffs, 4)

    chi_coeff = {
        "trivial": 6 * (-1) ** (k // 4) + (half + 1),
        "sum_zero": -(half + 1),
        "sum_minus_two": 2 * (-1) ** (k // 4 + 1) + (half + 1),
    }.get(choice_class)
    if chi_coeff is None:
        raise ValueError(
            f"r=4 classes are 'trivial', 'sum_zero', 'sum_minus_two', got {choice_class!r}")
    return _exact_divide(k, _plus_chi(closed_form_tables(k, 4, "base"), chi_coeff), 8)


def star_choice_class(r: int, psi_bits: Sequence[int]) -> str:
    """Classify a star-block psi by the quantities entering the tables."""
    r, bits = _check_int(r, "star count"), _check_bits(psi_bits, "psi bits")
    if len(bits) != r:
        raise ValueError(f"need {r} psi bits, got {len(bits)}")
    if r == 2:
        return "-" if sum(bits) % 2 else "+"
    if not any(bits):
        return "trivial"
    if r == 3:
        return "nontrivial"
    if r == 4:
        weight2 = [p for p in product((0, 1), repeat=4) if sum(p) == 2]
        total = sum(-1 if sum(a & b for a, b in zip(bits, p)) % 2 else 1 for p in weight2)
        if total == 0:
            return "sum_zero"
        if total == -2:
            return "sum_minus_two"
        return "trivial"
    raise ValueError(f"no classification for r={r}")


@lru_cache(maxsize=16)  # one per surface, read for each of its choices
def _listed_gamma(surface: SurfaceData) -> tuple[GammaElement, ...]:
    """``enumerate_gamma(surface, cap=2**9)`` as a tuple, listed once per
    surface for all its choices (GroupTooLarge above 2^9 is not cached)."""
    return tuple(enumerate_gamma(surface, cap=2**9))


def phase_vector(surface: SurfaceData, choice: PrequantChoice) -> list[int]:
    """phi'(gamma) for every gamma in ``enumerate_gamma`` order."""
    return [phase_factor(surface.level, choice, gamma) for gamma in _listed_gamma(surface)]


@lru_cache(maxsize=16)  # one per surface, read for each of its choices
def _gamma_terms(surface: SurfaceData) -> tuple[np.ndarray, np.ndarray]:
    """The phase-free terms of the literal Gamma sum, built once per surface:
    the identity term prod_j S[m_j, l] / S[0, l]^(s+2h) for every l, and for
    every gamma (``_listed_gamma`` order) its term at l = k/2,
    prod_{j: gamma_j = e} S[m_j, k/2] / S[0, k/2]^(s+2h)."""
    k, half = surface.level, surface.level // 2
    smat = s_matrix(k)
    scale = smat[0] ** surface.num_slots
    identity = np.prod(smat[list(surface.labels)], axis=0) / scale
    column = np.array([math.prod(smat[m][half] for m, c in zip(surface.labels, gamma.bits)
                                 if not c) for gamma in _listed_gamma(surface)]) / scale[half]
    identity.setflags(write=False)
    column.setflags(write=False)
    return identity, column


def fs_formula_with_phases(surface: SurfaceData, phases: Sequence[int]) -> FusionElement:
    """The literal sum over Gamma (|Gamma| <= 2^9, ``enumerate_gamma`` order)
    of phases[gamma] prod_j S^(gamma_j)[m_j, l] / S[0, l]^(s+2h), non-identity
    terms at l = k/2 only: the reference for each class's value there,
    which every other path reads from ``quantization._half_value``.  The
    phases are applied per call to terms built once per surface.  Any wrong
    phase makes the rounding raise NonIntegralCoefficient."""
    identity, column = _gamma_terms(surface)
    if len(phases) != len(column):
        raise ValueError(f"need {len(column)} phases, got {len(phases)}")
    values = phases[0] * identity
    values[surface.level // 2] = np.asarray(phases, dtype=np.float64) @ column
    return from_idempotent(values / len(column))


def sweep_surfaces(max_k: int, max_r: int, max_h: int,
                   gamma_cap: int = 2**9) -> Iterator[SurfaceData]:
    """Admissible surfaces with labels drawn from {0, 1, k/2, k}.

    The star label k/2 appears up to ``max_r`` times; the remaining pool
    labels appear at most once each.  Surfaces whose sign group exceeds
    ``gamma_cap`` are skipped.  The four bounds are checked when called,
    before the first surface is drawn: each must be an integer.
    """
    return _sweep(*map(_check_int, (max_k, max_r, max_h, gamma_cap),
                       ("max_k", "max_r", "max_h", "gamma_cap")))


def _sweep(max_k: int, max_r: int, max_h: int, gamma_cap: int) -> Iterator[SurfaceData]:
    seen = set()
    for k in range(max_k + 1):
        extras_pool = sorted(m for m in {0, 1, k} if 0 <= m <= k)
        star_counts = range(0, max_r + 1) if k % 2 == 0 else (0,)
        for r in star_counts:
            for h in range(max_h + 1):
                for n_extra in range(len(extras_pool) + 1):
                    for extras in combinations(extras_pool, n_extra):
                        labels = tuple(sorted([k // 2] * r + list(extras)))
                        key = (k, h, labels)
                        if key in seen:
                            continue
                        seen.add(key)
                        # screen before building: admissibility and |Gamma|
                        # read only k, h and the star count
                        stars = sum(2 * m == k for m in labels)
                        if _conditions_hold(k, h, stars) and _gamma_size(h, stars) <= gamma_cap:
                            yield SurfaceData(k, h, labels)


# ---------------------------------------------------------------------------
# individual checks


def check_s_matrix_symmetry(max_k: int) -> CheckResult:
    worst = 0.0
    for k in range(max_k + 1):
        smat = s_matrix(k)
        worst = max(worst, float(np.abs(smat - smat.T).max()))
    return CheckResult("s_matrix_symmetry", {"max_k": max_k}, worst < 1e-12, worst, 1e-12)


def check_s_matrix_orthogonality(max_k: int) -> CheckResult:
    worst = 0.0
    for k in range(max_k + 1):
        smat = s_matrix(k)
        worst = max(worst, float(np.abs(smat @ smat.T - np.eye(k + 1)).max()))
    return CheckResult("s_matrix_orthogonality", {"max_k": max_k}, worst < 1e-10, worst, 1e-10)


_SEED = 0  # of the checks' random draws: a report reproduces from its params


def check_evaluation_homomorphism(max_k: int) -> CheckResult:
    n_pairs = 200
    rng = random.Random(_SEED)
    worst = 0.0
    for _ in range(n_pairs):
        k = rng.randint(0, max_k)
        a = FusionElement(k, tuple(rng.randint(-5, 5) for _ in range(k + 1)))
        b = FusionElement(k, tuple(rng.randint(-5, 5) for _ in range(k + 1)))
        ab = a * b
        for l in range(k + 1):
            prod = a.evaluate(l) * b.evaluate(l)
            err = abs(ab.evaluate(l) - prod) / (1.0 + abs(prod))
            worst = max(worst, err)
    return CheckResult("evaluation_homomorphism",
                       {"max_k": max_k, "n_pairs": n_pairs, "seed": _SEED},
                       worst < 1e-8, worst, 1e-8)


def _float_fusion_product(k: int, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Level-k fusion product of float tau-coefficient vectors.

    Independent of the exact product's route: the Weyl numerators
    W_v = sum_m v_m (x^(m+1) - x^(-m-1)) are multiplied by convolution, and
    the product's numerator W_a W_b / (x - 1/x) is recovered by division,
    its coefficient of x^(j+1) being sum_{t >= 0} [x^(j+2+2t)] W_a W_b.
    """
    def weyl(v):  # coefficients of x^-(k+1) .. x^(k+1)
        w = np.zeros(2 * k + 3)
        w[k + 2:] = v
        w[k::-1] = -v
        return w

    # exponents 2 .. 2k+2 of the product, which runs from -2(k+1) to 2(k+1)
    upper = np.convolve(weyl(a), weyl(b))[2 * k + 4:]
    unfolded = np.empty_like(upper)
    unfolded[0::2] = np.cumsum(upper[0::2][::-1])[::-1]
    unfolded[1::2] = np.cumsum(upper[1::2][::-1])[::-1]
    return _fold(k, unfolded.tolist())


def check_idempotent_products(max_k: int) -> CheckResult:
    """taut_m taut_n = delta_{mn} taut_m, via float tau-basis products."""
    rng = random.Random(_SEED)
    worst = 0.0
    for k in range(max_k + 1):
        smat = s_matrix(k)
        pairs = {(m, m) for m in range(k + 1)} if k <= 6 else set()
        while len(pairs) < min((k + 1) ** 2, 12):
            pairs.add((rng.randint(0, k), rng.randint(0, k)))
        for m, n in sorted(pairs):
            cm = smat[0][m] * smat[:, m]
            cn = smat[0][n] * smat[:, n]
            out = _float_fusion_product(k, cm, cn)
            evals = np.asarray(out) @ (smat / smat[0])
            expected = np.zeros(k + 1)
            if m == n:
                expected[m] = 1.0
            worst = max(worst, float(np.abs(evals - expected).max()))
    return CheckResult("idempotent_products", {"max_k": max_k, "seed": _SEED},
                       worst < 1e-8, worst, 1e-8)


def check_structure_constants(max_k: int) -> CheckResult:
    worst = 0
    binary = True
    for k in range(max_k + 1):
        verlinde = structure_constants_verlinde(k)
        exact = structure_constants_from_multiply(k)
        worst = max(worst, int(np.abs(verlinde - exact).max()))
        binary = binary and bool(np.isin(exact, (0, 1)).all())
    return CheckResult("structure_constants", {"max_k": max_k},
                       worst == 0 and binary, float(worst))


def check_gamma_groups(max_k: int, max_r: int, max_h: int) -> CheckResult:
    bad = 0
    cases = 0
    for surface in sweep_surfaces(max_k, max_r, max_h):
        gammas = enumerate_gamma(surface)
        cases += 1
        if len(gammas) != surface.gamma_size() or not gammas[0].is_identity():
            bad += 1
            continue
        if any(g.star_weight % 2 for g in gammas):
            bad += 1
    return CheckResult("gamma_group_enumeration",
                       {"max_k": max_k, "max_r": max_r, "max_h": max_h, "cases": cases},
                       bad == 0, float(bad))


def check_choices(max_k: int, max_r: int, max_h: int) -> CheckResult:
    """Choice count, psi homomorphism property, orthogonality, inequivalence."""
    bad = 0
    cases = 0
    for surface in sweep_surfaces(max_k, max_r, max_h, gamma_cap=2**6):
        gammas = enumerate_gamma(surface)
        choices = enumerate_choices(surface)
        cases += 1
        if len(choices) != len(gammas) or not choices[0].is_trivial():
            bad += 1
            continue
        n = len(gammas)
        bits = np.array([g.bits for g in gammas], dtype=np.int64)
        psis = np.array([c.psi_bits for c in choices], dtype=np.int64)
        values = 1 - 2 * ((psis @ bits.T) % 2)  # (choice, gamma) sign table
        # gamma1 * gamma2 is the XOR of bit masks (at most 10 slots under the
        # 2^6 cap), looked up among the sorted masks; a product outside the
        # list counts as a failure
        masks = bits @ (1 << np.arange(bits.shape[1]))
        order = np.argsort(masks)
        products = masks[:, None] ^ masks[None, :]
        xor_table = order[np.searchsorted(masks[order], products).clip(max=n - 1)]
        if not ((masks[xor_table] == products).all() and
                (values[:, xor_table] == values[:, :, None] * values[:, None, :]).all()):
            bad += 1
        sums = values.sum(axis=1)
        if sums[0] != n or (len(sums) > 1 and np.abs(sums[1:]).max() > 0):
            bad += 1
        if len({tuple(row) for row in values}) != len(choices):
            bad += 1
    return CheckResult("prequant_choices",
                       {"max_k": max_k, "max_r": max_r, "max_h": max_h, "cases": cases},
                       bad == 0, float(bad))


def check_phase_factors(max_k: int, max_r: int, max_h: int) -> CheckResult:
    """phi'(identity) = 1 and blockwise factorization of phi'.

    psi itself is bilinear, so factorization over the star block and the
    individual doubles only needs checking for the choice-independent part;
    a couple of nontrivial choices ride along as representation coverage.
    """
    bad = 0
    cases = 0
    for surface in sweep_surfaces(max_k, max_r, max_h, gamma_cap=2**6):
        k = surface.level
        gammas = enumerate_gamma(surface)
        choices = enumerate_choices(surface)
        for choice in (choices[0], choices[len(choices) // 2], choices[-1]):
            cases += 1
            if phase_factor(k, choice, gammas[0]) != 1:
                bad += 1
            for gamma in gammas:
                blocks = _support_blocks(surface, gamma)
                if len(blocks) < 2:
                    continue
                prod_phases = 1
                for block in blocks:
                    prod_phases *= phase_factor(k, choice, block)
                if prod_phases != phase_factor(k, choice, gamma):
                    bad += 1
    return CheckResult("phase_factor_blockwise",
                       {"max_k": max_k, "max_r": max_r, "max_h": max_h, "cases": cases},
                       bad == 0, float(bad))


def _support_blocks(surface: SurfaceData, gamma: GammaElement) -> list[GammaElement]:
    """Split gamma into its star-block part and per-double parts."""
    s = surface.num_boundary
    n = surface.num_slots
    blocks = []
    star = [0] * n
    star[:s] = gamma.bits[:s]
    if any(star):
        blocks.append(GammaElement._trusted(tuple(star), gamma.star_slots, s))
    for i in range(surface.genus):
        part = [0] * n
        part[s + 2 * i] = gamma.bits[s + 2 * i]
        part[s + 2 * i + 1] = gamma.bits[s + 2 * i + 1]
        if any(part):
            blocks.append(GammaElement._trusted(tuple(part), gamma.star_slots, s))
    return blocks


def check_cross_paths(max_k: int, max_r: int, max_h: int) -> CheckResult:
    """Closed form vs S-matrix formula vs reduced scalar, over the sweep;
    it counts the requests (pairs), their distinct folded classes and the
    classes the paths compute, those of the folded surfaces (no label 0 or k)."""
    bad = 0
    pairs = 0
    negative = 0
    classes = set()
    computed = set()
    for surface in sweep_surfaces(max_k, max_r, max_h):
        for choice in enumerate_choices(surface):
            pairs += 1
            a_d = _canonical_class(surface, choice)[1:]
            classes.add((surface, *a_d))
            computed.add((surface._folded or surface, *a_d))
            closed = quantize_surface(surface, choice)
            through_s = fs_formula(surface, choice)
            if closed.element != through_s.element:
                bad += 1
            if reduced_quantization(surface, choice) != closed.reduced:
                bad += 1
            if any(c < 0 for c in closed.element.coeffs):
                negative += 1
    return CheckResult("cross_path_equality",
                       {"max_k": max_k, "max_r": max_r, "max_h": max_h,
                        "pairs": pairs, "classes": len(classes),
                        "computed_classes": len(computed),
                        "negative_coefficient_results": negative},
                       bad == 0, float(bad))


def check_literal_gamma_sum(max_k: int, max_r: int, max_h: int) -> CheckResult:
    """Closed form vs the literal sum over Gamma with the request's phases
    (``fs_formula_with_phases``), on every request of the sweep with
    |Gamma| <= 2^6.  Each class's value at t_{k/2} is written once, in the
    closed form's exact helpers, and every other path reads it there; the
    literal sum reads none of them, so it is the check on that value."""
    bad = 0
    requests = 0
    classes = set()
    for surface in sweep_surfaces(max_k, max_r, max_h, gamma_cap=2**6):
        for choice in enumerate_choices(surface):
            requests += 1
            classes.add((surface, *_canonical_class(surface, choice)[1:]))
            literal = fs_formula_with_phases(surface, phase_vector(surface, choice))
            if quantize_surface(surface, choice).element != literal:
                bad += 1
    return CheckResult("literal_gamma_sum",
                       {"max_k": max_k, "max_r": max_r, "max_h": max_h,
                        "requests": requests, "classes": len(classes)},
                       bad == 0, float(bad))


def check_localization(max_k: int, max_r: int) -> CheckResult:
    worst = 0.0
    for k in range(0, max_k + 1, 2):
        for r in range(0, max_r + 1):
            if r >= 3 and k % 4:
                continue
            for bits in product((0, 1), repeat=max(r - 1, 0)):
                psi = (0,) + bits if r else ()
                element = quantize_star_block(k, r, psi if r >= 2 else ())
                for l in range(k + 1):
                    loc = localization_evaluate(k, r, psi if r >= 2 else (), l)
                    err = abs(loc - element.evaluate(l))
                    worst = max(worst, err / (1.0 + abs(loc)))
    return CheckResult("localization_agreement", {"max_k": max_k, "max_r": max_r},
                       worst < 1e-8, worst, 1e-8)


def check_choice_sum_identity(max_k: int, max_r: int) -> CheckResult:
    """sum over psi of Q_psi equals the plain power (tau_{k/2})^r."""
    bad = 0
    for k in range(0, max_k + 1, 2):
        for r in range(2, min(max_r, 6) + 1):
            if r >= 3 and k % 4:
                continue
            total = FusionElement.zero(k)
            for bits in product((0, 1), repeat=r - 1):
                total = total + quantize_star_block(k, r, (0,) + bits)
            if total != FusionElement.tau(k, k // 2) ** r:
                bad += 1
    return CheckResult("choice_sum_identity", {"max_k": max_k, "max_r": max_r},
                       bad == 0, float(bad))


def check_r2_pair_identity(max_k: int) -> CheckResult:
    bad = 0
    for k in range(0, max_k + 1, 2):
        pair = quantize_star_block(k, 2, "+") + quantize_star_block(k, 2, "-")
        if pair != FusionElement.tau(k, k // 2) ** 2:
            bad += 1
    return CheckResult("r2_pair_identity", {"max_k": max_k}, bad == 0, float(bad))


def check_midpoint_symmetry(max_k: int) -> CheckResult:
    bad = 0
    for k in range(0, max_k + 1, 4):
        for psi in ((0, 0, 0), (0, 0, 1)):
            coeffs = quantize_star_block(k, 3, psi).coeffs
            if any(coeffs[m] != coeffs[k - m] for m in range(k + 1)):
                bad += 1
    return CheckResult("r3_midpoint_symmetry", {"max_k": max_k}, bad == 0, float(bad))


def check_tables_match(max_k: int) -> CheckResult:
    """Literal multiplicity tables against the block-fusion computation."""
    bad = 0
    for k in range(0, max_k + 1, 2):
        if quantize_star_block(k, 2, "+") != closed_form_tables(k, 2, "+"):
            bad += 1
        if quantize_star_block(k, 2, "-") != closed_form_tables(k, 2, "-"):
            bad += 1
        if tau_power(k, 2) != closed_form_tables(k, 2, "base"):
            bad += 1
        if k % 4:
            continue
        for r in (3, 4):
            if tau_power(k, r) != closed_form_tables(k, r, "base"):
                bad += 1
        class_counts = {"trivial": 0, "sum_zero": 0, "sum_minus_two": 0}
        for bits in product((0, 1), repeat=2):
            psi = (0,) + bits
            label = star_choice_class(3, psi)
            if quantize_star_block(k, 3, psi) != closed_form_tables(k, 3, label):
                bad += 1
        for bits in product((0, 1), repeat=3):
            psi = (0,) + bits
            label = star_choice_class(4, psi)
            class_counts[label] += 1
            if quantize_star_block(k, 4, psi) != closed_form_tables(k, 4, label):
                bad += 1
        if class_counts != {"trivial": 1, "sum_zero": 4, "sum_minus_two": 3}:
            bad += 1
    return CheckResult("closed_form_tables_match", {"max_k": max_k}, bad == 0, float(bad))


def check_classical_verlinde(max_k: int, max_genus: int) -> CheckResult:
    bad = 0
    for k in range(min(max_k, 32) + 1):
        for genus in range(max_genus + 1):
            number = classical_verlinde_number(k, genus)
            baseline = verlinde_baseline(SurfaceData(k, genus, ()))
            if number != baseline.reduced:
                bad += 1
    return CheckResult("classical_verlinde_baseline",
                       {"max_k": min(max_k, 32), "max_genus": max_genus},
                       bad == 0, float(bad))


def check_double_su2_trace(max_k: int) -> CheckResult:
    bad = sum(1 for k in range(max_k + 1) if quantize_double_su2(k).trace != k + 1)
    return CheckResult("double_su2_trace", {"max_k": max_k}, bad == 0, float(bad))


def check_negative_control() -> CheckResult:
    """Flipping any single phase in a star-only r=3 run must be detected."""
    surface = SurfaceData(4, 0, (2, 2, 2))
    undetected = 0
    flips = 0
    for choice in enumerate_choices(surface):
        phases = phase_vector(surface, choice)
        for i in range(len(phases)):
            flips += 1
            corrupted = list(phases)
            corrupted[i] = -corrupted[i]
            try:
                fs_formula_with_phases(surface, corrupted)
            except NonIntegralCoefficient:
                continue
            undetected += 1
    return CheckResult("negative_control_phase_flip",
                       {"surface": surface.to_json_dict(), "flips": flips},
                       undetected == 0, float(undetected))


def run_verification_suite(max_k: int = 20, max_r: int = 5,
                           max_h: int = 2) -> VerificationReport:
    """Run every module invariant over the given parameter box.

    Failures are recorded in the report, not raised.  The coefficient
    non-negativity observation rides along inside the cross-path check as a
    count only; it is not a pass/fail criterion.  A negative bound, which
    would leave the box empty and every check passing, raises ValueError.
    """
    names = ("max_k", "max_r", "max_h")
    max_k, max_r, max_h = bounds = [_check_int(bound, f"verification bound {name}")
                                    for name, bound in zip(names, (max_k, max_r, max_h))]
    for name, bound in zip(names, bounds):
        if bound < 0:
            raise ValueError(f"verification bound {name} must be non-negative, got {bound}")
    report = VerificationReport()
    for check in (
        check_s_matrix_symmetry(max_k),
        check_s_matrix_orthogonality(max_k),
        check_evaluation_homomorphism(max_k),
        check_idempotent_products(max_k),
        check_structure_constants(max_k),
        check_gamma_groups(max_k, max_r, max_h),
        check_choices(max_k, max_r, max_h),
        check_phase_factors(max_k, max_r, max_h),
        check_cross_paths(max_k, max_r, max_h),
        check_literal_gamma_sum(max_k, max_r, max_h),
        check_localization(max_k, max_r),
        check_choice_sum_identity(max_k, max_r),
        check_r2_pair_identity(max_k),
        check_midpoint_symmetry(max_k),
        check_tables_match(max_k),
        check_classical_verlinde(max_k, max_h),
        check_double_su2_trace(max_k),
        check_negative_control(),
    ):
        report.add(check)
    return report
