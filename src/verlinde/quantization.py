"""Quantization of surface data as an element of the level-k fusion ring.

Three mutually cross-checking routes are implemented:

* ``quantize_surface`` - exact closed-form block fusion.  The surface
  factors into a star block (r copies of the trace-zero class modulo the
  even-parity sign group), plain conjugacy classes, and double factors;
  quantization is multiplicative over blocks, and each block has an exact
  integer formula.  A choice changes only the blocks' multiples of the
  alternating element chi, and chi x = x(t_{k/2}) chi with integer values
  x(t_{k/2}), so the product is (X + mu chi) / (2^(r-1) 4^h): one exact
  base X = tau_{k/2}^r D_SU(2)^h prod tau_m per surface, O(log r + log h)
  exact products, and per choice class an integer mu and one exact
  division, O(k + r^2 + h) steps.
* ``fs_formula`` - the S-matrix (generalized Verlinde) formula: the sum
  over Gamma of phase factors phi'(gamma) times twisted entries S^(z)[m,l]
  (1 for z = c, S[m,l] for z = e), taken block by block as both factor
  over blocks.  This path is floating point; the final integrality
  rounding doubles as a detector for wrong phase conventions.
* ``localization_evaluate`` - the fixed-point sum for the value of a star
  block at a special point.

``reduced_quantization`` computes the scalar (tau_0-coefficient) variant of
the S-matrix formula directly, and ``verlinde_baseline`` the simply
connected SU(2) product with no sign group at all.

A pre-quantization choice enters every path only through its phases, which
depend on two numbers: a, the psi bits set on star slots, and d, the
doubles with phi != (0, 0).  One front end, ``prequant._canonical_class``,
serves all three surface paths: it tests the admissibility boolean the
surface computed once (the report is built only for a failure message) and
returns the request's canonical choice with its class (a, d).  It keeps the
last (surface, choice) pair it classified, by identity, in one slot, so the
three paths of one request classify it once.  Each path then computes its
result once per class (surface, a, d) in a bounded cache and wraps it with
that choice.  The star entry points (``quantize_star_block``,
``localization_evaluate``) take their class from the same front end on a
star-only surface, after the star conditions (ii') and (iii).

Each shared rule is written once: the admissibility conditions in
``prequant._CONDITIONS``, the star signs in ``prequant.star_sign``, the
doubles' phases in ``_double_factor``, the exact division in
``_exact_divide`` and the folding rule in ``fusion_ring._fold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, repeat
from operator import add, and_, rshift
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .fusion_ring import (
    FusionElement,
    NonIntegralValue,
    _add_star_idempotent,
    _check_index,
    _check_level,
    _round_coefficients,
    _s_row,
    _sine_coefficients,
    _weyl_quotient,
    round_to_integer,
)
from .prequant import (
    PrequantChoice,
    SurfaceData,
    _canonical_class,
    _require_conditions,
    double_sign,
    star_sign,
)

__all__ = [
    "InexactDivision",
    "QuantizationResult",
    "chi_element",
    "tau_power",
    "quantize_star_block",
    "quantize_conjugacy_class",
    "quantize_double_su2",
    "quantize_double_so3",
    "quantize_surface",
    "fs_formula",
    "reduced_quantization",
    "verlinde_baseline",
    "localization_evaluate",
]


class InexactDivision(ArithmeticError):
    """A division that integrality theorems promise to be exact was not.

    Reaching this indicates an implementation bug or a wrong phase factor,
    never bad input.
    """


@dataclass(frozen=True)
class QuantizationResult:
    element: FusionElement
    reduced: int
    path: str
    choice: PrequantChoice | None = None

    @classmethod
    def of(cls, element: FusionElement, path: str,
           choice: PrequantChoice | None = None) -> "QuantizationResult":
        """The result for ``element``, its reduced value read off the trace;
        built like ``FusionElement._trusted``, as no field needs a check."""
        self = object.__new__(cls)
        vars(self).update(element=element, reduced=element.trace, path=path, choice=choice)
        return self

    def to_json_dict(self) -> dict:
        data = self.element.to_json_dict()
        data["reduced"] = self.reduced
        data["path"] = self.path
        data["choice"] = self.choice.to_json_dict() if self.choice else None
        return data


def _exact_divide(k: int, coeffs: Iterable[int], divisor: int) -> FusionElement:
    """The level-k element with coefficients ``coeffs`` / ``divisor``, a
    power of two; raises InexactDivision at the first remainder."""
    coeffs, mask = list(coeffs), divisor - 1
    if any(map(and_, coeffs, repeat(mask))):
        m, c = next((m, c) for m, c in enumerate(coeffs) if c & mask)
        raise InexactDivision(f"tau_{m} coefficient {c} is not divisible by {divisor}")
    return FusionElement._trusted(k, tuple(map(rshift, coeffs, repeat(mask.bit_length()))))


def _plus_chi(x: FusionElement, mu: int) -> Iterator[int]:
    """The tau-coefficients of x + mu chi, lazily: chi is +1 at m = 0 mod 4,
    -1 at m = 2 mod 4 and 0 at odd m."""
    return map(add, x.coeffs, cycle((mu, 0, -mu, 0)))


def chi_element(k: int) -> FusionElement:
    """The alternating element tau_0 - tau_2 + ... + (-1)^(k/2) tau_k.

    Its evaluations vanish at every special point except t_{k/2}, where the
    value is k/2 + 1.
    """
    k = _check_level(k)
    if k % 2:
        raise ValueError(f"the alternating element needs an even level, got {k}")
    return FusionElement(k, tuple(_plus_chi(FusionElement.zero(k), 1)))


@lru_cache(maxsize=128)  # the benchmark's tracer reads it by name
def tau_power(k: int, r: int) -> FusionElement:
    """(tau_{k/2})^r, cached; for r >= 1, k must meet condition (ii')."""
    if r == 0:
        return FusionElement.one(k)
    _require_conditions(k, 0, 1)
    return FusionElement.tau(k, k // 2) ** r


def _star_class(k: int, r: int, psi) -> int:
    """a, the psi bits set in the canonical form of ``psi`` on r star slots
    at level k, from ``_canonical_class`` on the star-only surface; 0 for
    r < 2, where psi is not read.  Raises NotAdmissible unless conditions
    (ii') and (iii) hold.  Accepts the shorthand "+"/"-" for the two r = 2
    choices."""
    if r < 0:
        raise ValueError(f"star count must be non-negative, got {r}")
    _require_conditions(k, 0, r)
    if r < 2:
        return 0
    if isinstance(psi, str):
        if psi not in ("+", "-"):
            raise ValueError(f"unknown psi shorthand {psi!r}")
        if psi == "-" and r != 2:
            raise ValueError("the +/- shorthand labels the two r=2 choices")
        psi = (0,) * r if psi == "+" else (0, 1)
    return _canonical_class(SurfaceData(k, 0, (k // 2,) * r), PrequantChoice(tuple(psi)))[1]


def _star_sum(k: int, r: int, a: int, term, lowest: int = 0):
    """psi(pattern) star_sign(k, r, w) term(w) summed over the even-parity star
    patterns of weight w >= lowest, psi having a bits set on the r star slots.
    Grouped by weight: sum_w star_sign(k, r, w) term(w) K_w(a), where
    K_w(a) = sum_i (-1)^i C(a, i) C(r-a, w-i) sums psi over the weight-w
    patterns; O(r^2) steps, not 2^(r-1)."""
    return sum(star_sign(k, r, w) * term(w)
               * sum((-1) ** i * math.comb(a, i) * math.comb(r - a, w - i) for i in range(w + 1))
               for w in range(lowest, r + 1, 2))


@lru_cache(maxsize=1024)  # one per (k, r, a): 2,410 of 2,532 sweep reads hit
def _chi_coefficient(k: int, r: int, a: int) -> int:
    """sum_{gamma != e} psi(gamma) (k/2+1)^(l/2 - 1) (-1)^(k/4 (r - l/2)) over
    the star block, l = l(gamma); for r <= 2 the sign is psi alone.  The
    sign equals (-1)^(kr/4) star_sign(k, r, l)."""
    total = _star_sum(k, r, a, lambda w: (k // 2 + 1) ** (w // 2 - 1), lowest=2)
    return -total if r >= 3 and (k * r // 4) % 2 else total


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _star_block(k: int, r: int, a: int) -> FusionElement:
    """The star block for psi with a bits set on the r star slots."""
    if r == 0:
        return FusionElement.one(k)
    if r == 1:
        return FusionElement.tau(k, k // 2)
    return _exact_divide(k, _plus_chi(tau_power(k, r), _chi_coefficient(k, r, a)), 2 ** (r - 1))


def quantize_star_block(k: int, r: int, psi=()) -> FusionElement:
    """Quantization of r fused star classes modulo the even sign group.

    r = 0 gives the unit, r = 1 gives tau_{k/2}, r = 2 gives
    (tau_{k/2}^2 +- chi)/2 according to psi, and for r >= 3 (needing k in
    4N) the sign-group sum

        2^(1-r) ( tau_{k/2}^r
                  + chi * sum_{gamma != e} psi(gamma)
                          (k/2+1)^(l(gamma)/2 - 1) (-1)^(k/4 (r - l(gamma)/2)) ).

    All divisions are checked to be exact.
    """
    k = _check_level(k)
    return _star_block(k, r, _star_class(k, r, psi))


def quantize_conjugacy_class(k: int, m: int) -> FusionElement:
    """tau_m: the quantization of the conjugacy class with label m."""
    _check_index(_check_level(k), m, "m")
    return FusionElement.tau(k, m)


def quantize_double_su2(k: int) -> FusionElement:
    """sum_m tau_m^2, the quantization of the SU(2) double.

    In closed form sum_{j even} (k - j + 1) tau_j: tau_m^2 is
    tau_0 + tau_2 + ... + tau_{min(2m, 2k-2m)}, so an even j occurs for the
    k - j + 1 labels j/2 <= m <= k - j/2.
    """
    k = _check_level(k)
    return FusionElement(k, tuple(0 if j % 2 else k - j + 1 for j in range(k + 1)))


@lru_cache(maxsize=128)  # the benchmark's tracer reads it by name
def quantize_double_so3(k: int, phi: tuple[int, int] = (0, 0)) -> FusionElement:
    """Quantization of the SO(3) double for the choice phi in Hom(Z x Z, {+-1}).

    The quarter-sum (Q(D(SU2)) + (-1)^(k/2) sum_{gamma != e} phi(gamma) chi)/4,
    exact by construction for even k; chi's multiple is ``_double_factor`` less 1.
    """
    k = _check_level(k)
    _require_conditions(k, 1, 0)
    phi = tuple(int(b) for b in phi)
    if len(phi) != 2 or any(b not in (0, 1) for b in phi):
        raise ValueError(f"phi must be two 0/1 bits, got {phi!r}")
    e = _double_factor(k, 1, phi != (0, 0)) - 1
    return _exact_divide(k, _plus_chi(quantize_double_su2(k), e), 4)


def _double_factor(k: int, h: int, d: int) -> int:
    """(4 / (k/2+1))^h times the value at t_{k/2} of h SO(3) doubles, d with
    phi != (0, 0): each double (D_SU(2) + e chi) / 4 gives 1 + e, e being
    double_sign(k) times phi summed over the three gamma != e in Z x Z
    (3 for phi = (0, 0), else -1).  1 for h = 0, so odd k, which allows
    no double, never reaches ``double_sign``."""
    if not h:
        return 1
    sign = double_sign(k)
    return (1 + 3 * sign) ** (h - d) * (1 - sign) ** d


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _label_product(k: int, labels: tuple[int, ...]) -> FusionElement:
    out = FusionElement.one(k)
    for m in labels:
        out = out * FusionElement.tau(k, m)
    return out


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _star_and_doubles(k: int, r: int, h: int) -> FusionElement:
    """tau_{k/2}^r D_SU(2)^h, the choice-free part of the star block and the
    h SO(3) doubles: both powers by binary powering (tau_{k/2}^r cached per
    (k, r)), O(log r + log h) exact products."""
    return tau_power(k, r) * quantize_double_su2(k) ** h


def _value_at_half(m: int) -> int:
    """tau_m(t_{k/2}) = sin((m+1) pi/2): (-1)^(m/2) for even m, else 0."""
    return 0 if m % 2 else 1 - 2 * (m // 2 % 2)


class _ClosedBase(NamedTuple):
    """Choice-independent data of one surface's closed form."""

    element: FusionElement  # X = tau_{k/2}^r D_SU(2)^h prod tau_m, non-star m
    divisor: int  # 2^(r-1) 4^h, with 2^(r-1) read as 1 for r = 0
    star: int  # tau_{k/2}^r at t_{k/2}, 0 or +-1
    weight: int  # (D_SU(2)^h prod tau_m)(t_{k/2}) = (k/2+1)^h or its negative, or 0


@lru_cache(maxsize=512)  # one per surface, read by each class: 3,771 of 4,912 sweep reads hit
def _closed_form_base(surface: SurfaceData) -> _ClosedBase:
    """X and the integers that give each class's multiple of chi.  X is
    ``_star_and_doubles``, shared by the surfaces with the same (k, r, h),
    times the non-star labels' product, cached per label tuple: one exact
    product per surface."""
    k, r, h = surface.level, surface.star_count, surface.genus
    base = _star_and_doubles(k, r, h) * _label_product(k, tuple(sorted(surface.nonstar_labels)))
    if k % 2:  # then r = h = 0: X is the whole answer
        return _ClosedBase(base, 1, 0, 0)
    weight = (k // 2 + 1) ** h * math.prod(map(_value_at_half, surface.nonstar_labels))
    return _ClosedBase(base, 2 ** (max(r, 1) - 1 + 2 * h), _value_at_half(k // 2) ** r, weight)


# Per-class results: 26,412 of the 31,324 sweep requests repeat a class.
# lru_cache stores no exception, so a class whose division fails raises
# again, with the same message, on every request.

@lru_cache(maxsize=1024)
def _closed_form_element(surface: SurfaceData, a: int, d: int) -> FusionElement:
    """The class (a, d)'s star block x doubles x non-star labels, as
    (X + mu chi) / (2^(r-1) 4^h).

    Every block is a choice-free part plus a multiple of chi: the star block
    (tau_{k/2}^r + c(a) chi) / 2^(r-1), c(a) = ``_chi_coefficient``, and each
    double (D_SU(2) + e chi) / 4 (``_double_factor``).  As chi x = x(t_{k/2}) chi
    (chi vanishes at every other special point), the product is the product
    of the choice-free parts, X, plus mu chi, where mu (k/2+1) is the
    product's value at t_{k/2} minus X's.  Those values are integers:
    tau_m(t_{k/2}) is 0 or +-1 and D_SU(2)(t_{k/2}) = chi(t_{k/2}) = k/2+1.
    So a class costs O(r^2 + h) integer steps and one O(k) pass."""
    base = _closed_form_base(surface)
    mu = 0
    if base.weight:
        k, c = surface.level, surface.level // 2 + 1
        star = base.star + _chi_coefficient(k, surface.star_count, a) * c
        doubles = _double_factor(k, surface.genus, d)
        mu = base.weight * (star * doubles - base.star) // c  # exact: see above
    if not mu and base.divisor == 1:
        return base.element
    return _exact_divide(surface.level, _plus_chi(base.element, mu), base.divisor)


def quantize_surface(surface: SurfaceData,
                     choice: PrequantChoice | None = None) -> QuantizationResult:
    """Closed-form quantization: star block x plain classes x doubles."""
    choice, a, d = _canonical_class(surface, choice)
    return QuantizationResult.of(_closed_form_element(surface, a, d), "closed_form", choice)


class _GammaData(NamedTuple):
    """Choice-independent O(k + r^2) data of one surface's S-matrix sum."""

    coeffs: np.ndarray  # tau-coefficients of the identity term / |Gamma|
    bound: float  # their rounding-error bound
    at_half: float  # the identity term / |Gamma| at l = k/2
    reduced: float  # the reduced identity term summed over l != k/2, / |Gamma|
    nonstar: float  # prod S[m, k/2] over the non-star labels
    s0_half: float  # S[0, k/2]
    star: tuple  # the star factor for a = 0..r psi bits set on star slots


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _fs_gamma_data(surface: SurfaceData) -> _GammaData:
    """The identity term prod_j S[m_j, l] / S[0, l]^(s+2h) / |Gamma| for every
    l, taken to the tau basis by one sine transform; its reduced form
    (exponent s+2h-2) summed over l != k/2; and the factors of the block
    sum at l = k/2.  Only the S-matrix rows of the labels, 0 and k/2 are
    read, from the row cache.  1/|Gamma| is exact, |Gamma| being a power of
    two; a value out of double range becomes inf or nan, without a warning,
    and its rounding raises PrecisionExhausted."""
    k, n, half = surface.level, surface.num_slots, surface.level // 2
    r = surface.star_count
    inverse = 1 / surface.gamma_size()
    row0 = _s_row(k, 0)
    rows = np.array([_s_row(k, m) for m in surface.labels]).reshape(len(surface.labels), k + 1)
    nonstar = math.prod(float(_s_row(k, m)[half]) for m in surface.nonstar_labels)
    with np.errstate(all="ignore"):
        full = np.prod(rows, axis=0)
        identity = full / row0 ** n * inverse
        try:  # fsum raises on an intermediate overflow and on inf - inf
            reduced = math.fsum(np.delete(full / row0 ** (n - 2), half).tolist()) * inverse
        except (OverflowError, ValueError):
            reduced = math.nan
        return _GammaData(*_sine_coefficients(identity), float(identity[half]), reduced,
                          nonstar, float(row0[half]), _fs_star_factors(k, r))


@lru_cache(maxsize=256)  # one per (k, r): 1,079 of 1,141 sweep surfaces hit
def _fs_star_factors(k: int, r: int) -> tuple:
    """The S-matrix star factor sum_w star_sign(w) S[k/2, k/2]^(r-w) K_w(a)
    for a = 0..r; it depends on the surface only through (k, r)."""
    s_star = float(_s_row(k, k // 2)[k // 2])
    return tuple(_star_sum(k, r, a, lambda w: s_star ** (r - w)) for a in range(r + 1))


def _block_sum(surface: SurfaceData, a: int, d: int, exponent: int) -> float:
    """sum_gamma phi'(gamma) prod_j S^(gamma_j)[m_j, k/2] / S[0, k/2]^exponent
    / |Gamma| for the class (a, d), a product of block sums: the star factor
    sum_w star_sign(w) S[k/2, k/2]^(r-w) K_w(a), read from
    ``_fs_gamma_data``, and per double the four-term sum 1 + e, whose
    product over the doubles is the exact integer ``_double_factor``.  That
    integer and |Gamma| are powers of two (or 0), so their quotient is an
    exact float of absolute value at most 1."""
    data = _fs_gamma_data(surface)
    power = data.s0_half ** exponent  # 0.0 past double range: inf, which rounding reports
    return (data.nonstar / power if power else math.inf) * data.star[a] \
        * (_double_factor(surface.level, surface.genus, d) / surface.gamma_size())


# Only a class whose rounding fails is read here again (``_fs_element``
# keeps the successes), so this holds the classes of the last few surfaces
# served, not as many as the result caches.  It pays on big_gamma, where 66
# of 145 reads hit: without it op_p50_ms rose by a fifth.
@lru_cache(maxsize=128)
def _fs_coefficients(surface: SurfaceData, a: int, d: int) -> tuple[np.ndarray, float]:
    """The raw tau-coefficients of the class (a, d) and their rounding-error
    bound, before rounding: a failing class, which ``_fs_element`` never
    stores, only re-rounds.

    The class's values differ from the identity term / |Gamma| only at
    l = k/2, where they are ``_block_sum``, so the coefficients
    are the identity term's (one sine transform per surface) plus the
    difference times taut_{k/2} (``fusion_ring._add_star_idempotent``).
    For odd k, Gamma = {e} and the identity term is the whole sum.
    """
    data = _fs_gamma_data(surface)
    if surface.level % 2:
        return data.coeffs, data.bound
    delta = _block_sum(surface, a, d, surface.num_slots) - data.at_half
    return _add_star_idempotent(surface.level, data.coeffs, data.bound, delta)


@lru_cache(maxsize=1024)  # per class, as ``_closed_form_element``
def _fs_element(surface: SurfaceData, a: int, d: int) -> FusionElement:
    return _round_coefficients(surface.level, *_fs_coefficients(surface, a, d))


@lru_cache(maxsize=1024)  # per class, as ``_closed_form_element``
def _reduced_value(surface: SurfaceData, a: int, d: int) -> int:
    value = _fs_gamma_data(surface).reduced + _block_sum(surface, a, d, surface.num_slots - 2)
    return round_to_integer(value, exc=NonIntegralValue, context="reduced quantization")


def fs_formula(surface: SurfaceData, choice: PrequantChoice | None = None) -> QuantizationResult:
    """Quantization through the S-matrix formula, summed block by block:
    the identity term / |Gamma| at l != k/2, ``_block_sum`` at l = k/2
    (floating point), back to the tau basis by a sine transform (once per
    surface) and an update along taut_{k/2} (once per choice class), then
    integrality rounding, once per class.  Raises PrecisionExhausted when
    the rounding-error bound is not below 1/2 (a sum out of double range
    included), and NonIntegralCoefficient when a coefficient fails to
    round."""
    choice, a, d = _canonical_class(surface, choice)
    return QuantizationResult.of(_fs_element(surface, a, d), "fs_float", choice)


def reduced_quantization(surface: SurfaceData, choice: PrequantChoice | None = None) -> int:
    """The scalar S-matrix sum (quantization of the symplectic quotient),
    summed block by block with exponent s+2h-2, once per choice class.
    Raises PrecisionExhausted when the sum is out of double range, and
    NonIntegralValue when it fails to round."""
    _, a, d = _canonical_class(surface, choice)
    return _reduced_value(surface, a, d)


def verlinde_baseline(surface: SurfaceData) -> QuantizationResult:
    """Simply connected baseline: prod_j tau_{m_j} x (sum_m tau_m^2)^h.

    No sign group acts; the reduced value is the classical SU(2) Verlinde
    number of the labelled surface.  This product is the closed form's
    choice-free base X = tau_{k/2}^r D_SU(2)^h prod tau_m (non-star m), read
    from the per-surface cache.
    """
    return QuantizationResult.of(_closed_form_base(surface).element, "closed_form")


def localization_evaluate(k: int, r: int, psi, l: int) -> float:
    """Fixed-point value of the star-block quantization at the point t_l.

    Away from l = k/2 only the discrete fixed points contribute,
    2^(1-r) tau_{k/2}(t_l)^r; at l = k/2 each nontrivial sign vector adds a
    torus contribution weighted by its phase.
    """
    k = _check_level(k)
    a = _star_class(k, r, psi)
    _check_index(k, l, "l")
    if r == 0:
        return 1.0
    tau_val = _weyl_quotient(k, l, ((k // 2, 1),))
    if r == 1:
        return tau_val
    half = k // 2
    chi_val = float(half + 1) if l == half else 0.0
    total = _chi_coefficient(k, r, a) if chi_val else 0
    return (tau_val ** r + chi_val * total) / 2 ** (r - 1)
