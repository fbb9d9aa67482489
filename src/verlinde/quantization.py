"""Quantization of surface data as an element of the level-k fusion ring.

Three mutually cross-checking routes are implemented:

* ``quantize_surface`` - exact closed-form block fusion.  The surface
  factors into a star block (r copies of the trace-zero class modulo the
  even-parity sign group), plain conjugacy classes, and double factors;
  quantization is multiplicative over blocks, and each block has an exact
  integer formula.  A choice changes only the blocks' multiples of the
  alternating element chi, and chi x = x(t_{k/2}) chi with integer values
  x(t_{k/2}), so the product is (X + mu chi) / (2^(r-1) 4^h): one exact
  base X = tau_{k/2}^r D_SU(2)^h prod tau_m per surface, and per choice
  class an integer mu and one exact division, O(k + r + h) steps.  X
  costs no dense product: one linear step (O(k) additions) per double
  past the first, per star and per label.  A double step multiplies by
  D_SU(2) through the tridiagonal solve ``fusion_ring._times_double``.
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

A pre-quantization choice enters every path only through its phases, and
they take fewer values than the choices do.  They depend on a, the psi bits
set on the r star slots, only through the star sum ``_krawtchouk_sum``,
which is unchanged by a -> r - a; and on d, the doubles with
phi != (0, 0), only through ``_double_factor``, which is 0 for every
d >= 1 when k is in 4N and depends on d mod 2 otherwise.  So a class is
the folded pair (min(a, r - a), min(d, 1) or d mod 2), the rule
``prequant._canonical_class`` states: at r = 3 the star choices fall in
two classes and at r = 4 in three, the classes of the literal tables
(``oracles.closed_form_tables``).  That function is the one front end of
all three surface paths: it tests the admissibility boolean the surface
derived when built (the report is built only for a failure message) and
returns the request's canonical choice with its folded class.  It keeps the
last (surface, choice) pair it classified, by identity, in one slot, so the
three paths of one request classify it once.  Each path then computes its
result once per class (surface, a, d) in a bounded cache and wraps it with
that choice.  The float paths cache a class's outcome, a failure to certify
its integers included, and raise a failure anew, with the same message, on
every request for the class.  The star entry points (``quantize_star_block``,
``localization_evaluate``) take their class from the same front end on a
star-only surface, after the star conditions (ii') and (iii).

A surface folds as well, to the surface its paths see.  A boundary circle
labelled 0 quantizes to tau_0, the unit, and every path is multiplicative
over the circles: in the closed form the basis step by tau_0 is the identity
and tau_0(t_{k/2}) = 1 in the weight; in the S-matrix sums the label's row
S[0, l] cancels one power of S[0, l], and |Gamma|, the class (a, d) and the
admissibility conditions read no non-star label.  So each per-class cache
(``_class_cache``) computes on ``SurfaceData._folded``, the surface without
its labels 0, built once with the surface: the sweep's 1,141 surfaces fold
to 581 and its 3,276 request classes to 1,678 computed ones.  The request
keeps its own surface for the front end, so its result carries the
canonical choice of all s + 2h slots.  The float paths' error bounds count
the folded surface's entries, fewer than the request's, and stay sound
bounds of the same sum.

Each shared rule is written once: the admissibility conditions in
``prequant._CONDITIONS``, the star signs in ``prequant.star_sign``, the
star block's sign-group sum in ``_krawtchouk_sum``, the doubles' phases in
``_double_factor``, the exact division in ``_exact_divide``, the folding
rule in ``fusion_ring._fold`` and the two linear steps it implies,
``fusion_ring._times_basis`` and ``fusion_ring._times_double``.
"""

from __future__ import annotations

import math
from functools import lru_cache, update_wrapper, wraps
from itertools import cycle, repeat
from operator import add, and_, rshift
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .fusion_ring import (
    FusionElement,
    InexactDivision,
    NonIntegralCoefficient,
    NonIntegralValue,
    PrecisionExhausted,
    _UNIT_ROUNDOFF,
    _add_star_idempotent,
    _check_index,
    _check_int,
    _check_level,
    _round_coefficients,
    _s_row,
    _sine_coefficients,
    _times_basis,
    _times_double,
    _weyl_quotient,
    round_to_integer,
)
from .prequant import (
    PrequantChoice,
    SurfaceData,
    _canonical_class,
    _check_bits,
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
    "quantize_double_su2",
    "quantize_double_so3",
    "quantize_surface",
    "fs_formula",
    "reduced_quantization",
    "verlinde_baseline",
    "localization_evaluate",
]


class QuantizationResult(NamedTuple):
    """A path's element, its reduced value (the trace) and the path's name,
    with the canonical choice for the surface paths; a named tuple, so a
    request builds it with no instance dict."""

    element: FusionElement
    reduced: int
    path: str
    choice: PrequantChoice | None = None

    @classmethod
    def of(cls, element: FusionElement, path: str,
           choice: PrequantChoice | None = None) -> "QuantizationResult":
        """The result for ``element``, its reduced value read off the trace
        (tau_0's coefficient); one tuple.__new__, as no field needs a check."""
        return tuple.__new__(cls, (element, element.coeffs[0], path, choice))

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
    return FusionElement._trusted(k, tuple(_plus_chi(FusionElement.zero(k), 1)))


def _checked_cache(check):
    """An lru cache of 128 entries read with the arguments ``check`` returns,
    so every call is checked, a hit too (the cache compares keys by ==, and
    True == 1.0 == 1); its counters stay on the function."""
    def decorate(fn):
        cached = lru_cache(maxsize=128)(fn)
        checked = wraps(fn)(lambda *args, **kwargs: cached(*check(*args, **kwargs)))
        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked
    return decorate


# the benchmark's tracer reads it by name
@_checked_cache(lambda k, r: (_check_level(k), _check_int(r, "star count")))
def tau_power(k: int, r: int) -> FusionElement:
    """(tau_{k/2})^r, cached; for r >= 1, k must meet condition (ii')."""
    if r == 0:
        return FusionElement.one(k)
    _require_conditions(k, 0, 1)
    return FusionElement.tau(k, k // 2) ** r


def _star_class(k: int, r: int, psi) -> tuple[int, int, int]:
    """k and r, checked, and a, the folded count of psi bits set in the
    canonical form of ``psi`` on r star slots at level k, from
    ``_canonical_class`` on the star-only surface; a = 0 for r < 2, where
    psi is not read.  Raises NotAdmissible unless conditions (ii') and
    (iii) hold.  Accepts the shorthand "+"/"-" for the two r = 2 choices."""
    k, r = _check_level(k), _check_int(r, "star count")
    if r < 0:
        raise ValueError(f"star count must be non-negative, got {r}")
    _require_conditions(k, 0, r)
    if r < 2:
        return k, r, 0
    if isinstance(psi, str):
        if psi not in ("+", "-"):
            raise ValueError(f"unknown psi shorthand {psi!r}")
        if psi == "-" and r != 2:
            raise ValueError("the +/- shorthand labels the two r=2 choices")
        psi = (0,) * r if psi == "+" else (0, 1)
    return k, r, _canonical_class(SurfaceData(k, 0, (k // 2,) * r), PrequantChoice(tuple(psi)))[1]


@lru_cache(maxsize=1024)  # one per (k, r, a): 3,704 of 3,800 sweep reads hit
def _krawtchouk_sum(k: int, r: int, a: int) -> int:
    """E = sum_w star_sign(k, r, w) (k/2+1)^(w/2) K_w(a) over even w, psi
    having a bits set on the r star slots: K_w(a), the y^w coefficient of
    (1-y)^a (1+y)^(r-a), sums psi over the weight-w star patterns.  As
    star_sign(k, r, w) = sigma^(w/2), sigma = star_sign(k, r, 2), E is the
    even part at y^2 = x = sigma (k/2+1): (1-x)^min(a, r-a) sum_i C(|r-2a|, 2i) x^i."""
    x, n = star_sign(k, r, 2) * (k // 2 + 1), abs(r - 2 * a)
    return (1 - x) ** min(a, r - a) * sum(math.comb(n, 2 * i) * x ** i for i in range(n // 2 + 1))


def _chi_coefficient(k: int, r: int, a: int) -> int:
    """sum_{gamma != e} psi(gamma) (k/2+1)^(l/2 - 1) (-1)^(k/4 (r - l/2)) over
    the star block, l = l(gamma); for r <= 2 the sign is psi alone.  The
    sign equals (-1)^(kr/4) star_sign(k, r, l), so this is +-(E - 1)/(k/2+1)
    for E = ``_krawtchouk_sum``, exact: E's terms past w = 0 have the factor k/2+1."""
    total = (_krawtchouk_sum(k, r, a) - 1) // (k // 2 + 1)
    return -total if r >= 3 and (k * r // 4) % 2 else total


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _star_block(k: int, r: int, a: int) -> FusionElement:
    """The star block for psi with a bits set on the r star slots (chi's
    multiple is 0 for r <= 1)."""
    return _exact_divide(k, _plus_chi(tau_power(k, r), _chi_coefficient(k, r, a)),
                         2 ** (max(r, 1) - 1))


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
    return _star_block(*_star_class(k, r, psi))


def quantize_double_su2(k: int) -> FusionElement:
    """sum_m tau_m^2, the quantization of the SU(2) double.

    In closed form sum_{j even} (k - j + 1) tau_j: tau_m^2 is
    tau_0 + tau_2 + ... + tau_{min(2m, 2k-2m)}, so an even j occurs for the
    k - j + 1 labels j/2 <= m <= k - j/2.
    """
    k = _check_level(k)
    coeffs = [0] * (k + 1)
    coeffs[::2] = range(k + 1, 0, -2)
    return FusionElement._trusted(k, tuple(coeffs))


# the benchmark's tracer reads it by name
@_checked_cache(lambda k, phi=(0, 0): (_check_level(k), _check_bits(phi, "psi bits")))
def quantize_double_so3(k: int, phi: tuple[int, int] = (0, 0)) -> FusionElement:
    """Quantization of the SO(3) double for the choice phi in Hom(Z x Z, {+-1}).

    The quarter-sum (Q(D(SU2)) + (-1)^(k/2) sum_{gamma != e} phi(gamma) chi)/4,
    exact by construction for even k; chi's multiple is ``_double_factor`` less 1.
    """
    _, _, d = _canonical_class(SurfaceData(k, 1, ()), PrequantChoice._trusted(phi))
    e = _double_factor(k, 1, d) - 1
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


def _times_labels(k: int, coeffs: Sequence[int], labels: Iterable[int]) -> FusionElement:
    """x tau_m1 tau_m2 ..., x the level-k element with ``coeffs``: one linear
    basis step (``fusion_ring._times_basis``) per label on a plain list,
    wrapped as an element once at the end."""
    for m in labels:
        coeffs = _times_basis(k, m, coeffs)
    return FusionElement._trusted(k, tuple(coeffs))


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _label_product(k: int, labels: tuple[int, ...]) -> FusionElement:
    """prod tau_m over ``labels``, by basis steps.  No quantization path
    reads it: ``_closed_form_base`` steps through its labels directly."""
    return _times_labels(k, FusionElement.one(k).coeffs, labels)


@lru_cache(maxsize=512)  # one per (k, r, h): 415 of the sweep's 581 folded surfaces hit
def _star_and_doubles(k: int, r: int, h: int) -> FusionElement:
    """tau_{k/2}^r D_SU(2)^h, the choice-free part of the star block and the
    h SO(3) doubles, with no dense product: D_SU(2) in closed form, h - 1
    double steps (``fusion_ring._times_double``), then r basis steps by
    tau_{k/2}; O((h + r) k) big-integer additions."""
    coeffs = (quantize_double_su2(k) if h else FusionElement.one(k)).coeffs
    for _ in range(h - 1):
        coeffs = _times_double(k, coeffs)
    return _times_labels(k, coeffs, repeat(k // 2, r))


def _value_at_half(m: int) -> int:
    """tau_m(t_{k/2}) = sin((m+1) pi/2): (-1)^(m/2) for even m, else 0."""
    return 0 if m % 2 else 1 - 2 * (m // 2 % 2)


class _ClosedBase(NamedTuple):
    """Choice-independent data of one surface's closed form."""

    element: FusionElement  # X = tau_{k/2}^r D_SU(2)^h prod tau_m, non-star m
    divisor: int  # 2^(r-1) 4^h, with 2^(r-1) read as 1 for r = 0
    star: int  # tau_{k/2}^r at t_{k/2}, 0 or +-1
    weight: int  # (D_SU(2)^h prod tau_m)(t_{k/2}) = (k/2+1)^h or its negative, or 0


# one per folded surface, read by each class: 1,097 of 1,678 sweep reads hit
@lru_cache(maxsize=512)
def _closed_form_base(surface: SurfaceData) -> _ClosedBase:
    """X and the integers that give each class's multiple of chi.  X is
    ``_star_and_doubles``, shared by the surfaces with the same (k, r, h),
    times one basis step per non-star label: no dense product."""
    k, r, h = surface.level, surface.star_count, surface.genus
    base = _times_labels(k, _star_and_doubles(k, r, h).coeffs, surface.nonstar_labels)
    if k % 2:  # then r = h = 0: X is the whole answer
        return _ClosedBase(base, 1, 0, 0)
    weight = (k // 2 + 1) ** h * math.prod(map(_value_at_half, surface.nonstar_labels))
    return _ClosedBase(base, 2 ** (max(r, 1) - 1 + 2 * h), _value_at_half(k // 2) ** r, weight)


def _class_cache(fn):
    """``fn``, one path's computation for a class (surface, a, d), in an lru
    cache of 1024 entries keyed by the request's surface and computed on its
    folded surface (``SurfaceData._folded``, no label 0): a miss on a surface
    that folds returns the cached result of its folded form, which is then
    kept under the request's own key too, so a repeat request hits by
    identity.  ``__wrapped__`` is ``fn``, which computes on the surface it is given."""
    @lru_cache(maxsize=1024)
    def cached(surface: SurfaceData, a: int, d: int):
        folded = surface._folded
        return fn(surface, a, d) if folded is None else cached(folded, a, d)
    return update_wrapper(cached, fn)


# Per-class results: 28,048 of the 31,324 sweep requests repeat a class of
# their surface, and 1,598 of the 3,276 request classes are read from their
# folded surface's entry, so 1,678 classes are computed.  This cache keeps
# successes only: its one failure, InexactDivision, is a bug, so a class
# that raises it raises again on every request.  The float paths keep
# failures too (``_class_outcome``).

@_class_cache
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
    So a class costs O(r + h) integer steps and one O(k) pass."""
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
    """Choice-independent O(k) data of one surface's S-matrix sum."""

    coeffs: np.ndarray  # tau-coefficients of the identity term / |Gamma|
    bound: float  # their rounding-error bound
    at_half: float  # the identity term / |Gamma| at l = k/2
    reduced: float  # the reduced identity term summed over l != k/2, / |Gamma|
    mass: float  # the sum of its terms' absolute values, / |Gamma|
    nonstar: float  # prod S[m, k/2] over the non-star labels
    s0_half: float  # S[0, k/2]
    star_half: float  # S[k/2, k/2]


# The relative error of one value the S-matrix sum transforms: an identity
# term prod_j S[m_j, l] / S[0, l]^n / |Gamma|, or the block sum at l = k/2.
# Each S-matrix entry is within 6.36u of its value, relative, a priori, at
# any k (``fusion_ring._s_entries``; tests/test_exact_angles.py derives it),
# and a value reads s + n of them, s the label count and n the slot count,
# S[0, l] n times through the power: 6.36 (s + n) u.  The identity term adds
# s - 1 products, the power (within one ulp, 2u) and the division: s + 2
# roundings.  The block sum reads at most s entries besides S[0, k/2] (the
# non-star labels' and S[k/2, k/2] for odd r) and adds s' - 1 products of the
# s' <= s non-star entries, the power, the division, the star factor (one
# division of integers, one product) and its product: s' + 5 roundings.  The
# double factor over |Gamma| and 1/|Gamma| are exact powers of two.  One
# more u takes the second-order terms, below u while s + n < 10^6.  So
# (6.36 (s + n) + s + 6) u bounds both.
def _value_error(surface: SurfaceData) -> float:
    """The relative error bound above of the surface's summed values."""
    s = len(surface.labels)
    return (6.36 * (s + surface.num_slots) + s + 6) * _UNIT_ROUNDOFF


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _fs_gamma_data(surface: SurfaceData) -> _GammaData:
    """The identity term prod_j S[m_j, l] / S[0, l]^(s+2h) / |Gamma| for every
    l, taken to the tau basis by one sine transform, whose error bound covers
    the values' own error (``_value_error``) as well; its reduced form
    (exponent s+2h-2) summed over l != k/2; and the factors of the block
    sum at l = k/2.  Only the S-matrix rows of the labels, 0 and k/2 are
    read, from the row cache.  The reduced form keeps the sum of its terms'
    absolute values beside it, the scale of its rounding error.  1/|Gamma|
    is exact, |Gamma| being a power of two; a value out of double range
    becomes inf or nan, without a warning, and its rounding raises
    PrecisionExhausted."""
    k, n, half = surface.level, surface.num_slots, surface.level // 2
    inverse = 1 / surface.gamma_size()
    row0 = _s_row(k, 0)
    rows = np.array([_s_row(k, m) for m in surface.labels]).reshape(len(surface.labels), k + 1)
    nonstar = math.prod(float(_s_row(k, m)[half]) for m in surface.nonstar_labels)
    with np.errstate(all="ignore"):
        full = np.prod(rows, axis=0)
        identity = full / row0 ** n * inverse
        terms = np.delete(full / row0 ** (n - 2), half).tolist()
        try:  # fsum raises on an intermediate overflow and on inf - inf
            reduced = math.fsum(terms) * inverse
        except (OverflowError, ValueError):
            reduced = math.nan
        try:
            mass = math.fsum(map(abs, terms)) * inverse
        except OverflowError:
            mass = math.inf
        return _GammaData(*_sine_coefficients(identity, _value_error(surface)),
                          float(identity[half]), reduced, mass, nonstar, float(row0[half]),
                          float(_s_row(k, half)[half]))


def _fs_star_factor(k: int, r: int, a: int, star_half: float) -> float:
    """sum_w star_sign(k, r, w) S[k/2, k/2]^(r-w) K_w(a), ``star_half`` being
    S[k/2, k/2] as the row cache holds it.  For k in 4N,
    S[k/2, k/2]^2 = 1/(k/2+1): S[k/2, k/2]^(r mod 2) E / (k/2+1)^(r//2) for
    E = ``_krawtchouk_sum``, one correctly rounded division (PrecisionExhausted
    past double range).  Else r <= 2 and S[k/2, k/2] = 0 (the float row holds
    exactly 0.0, its angle reduced in integers): only w = r is left, 1, 0 or
    the chi coefficient for r = 0, 1, 2."""
    if k % 4:
        return _chi_coefficient(k, r, a) if r == 2 else 1 - r
    try:
        return star_half ** (r % 2) * (_krawtchouk_sum(k, r, a) / (k // 2 + 1) ** (r // 2))
    except OverflowError:
        raise PrecisionExhausted(f"the star factor of {r} star labels at level {k} is out "
                                 "of double range") from None


def _block_sum(surface: SurfaceData, a: int, d: int, exponent: int) -> float:
    """sum_gamma phi'(gamma) prod_j S^(gamma_j)[m_j, k/2] / S[0, k/2]^exponent
    / |Gamma| for the class (a, d), a product of block sums: the star factor
    ``_fs_star_factor`` of the class, the non-star labels' S[m, k/2] read
    from ``_fs_gamma_data``, and per double the four-term sum 1 + e, whose
    product over the doubles is the exact integer ``_double_factor``.  That
    integer and |Gamma| are powers of two (or 0), so their quotient is an
    exact float of absolute value at most 1."""
    k, data = surface.level, _fs_gamma_data(surface)
    power = data.s0_half ** exponent  # 0.0 past double range: inf, which rounding reports
    return (data.nonstar / power if power else math.inf) \
        * _fs_star_factor(k, surface.star_count, a, data.star_half) \
        * (_double_factor(k, surface.genus, d) / surface.gamma_size())


def _fs_coefficients(surface: SurfaceData, a: int, d: int) -> tuple[np.ndarray, float]:
    """The raw tau-coefficients of the class (a, d) and an a priori bound on
    their error, before rounding; computed once per class, on a miss of
    ``_fs_element``, which keeps the outcome of rounding them.

    The class's values differ from the identity term / |Gamma| only at
    l = k/2, where they are ``_block_sum``, so the coefficients
    are the identity term's (one sine transform per surface) plus the
    difference times taut_{k/2} (``fusion_ring._add_star_idempotent``).
    The bound is the whole sum's: the transform's, which covers the
    identity term's own error, plus the block sum's, relative error
    ``_value_error`` of |block|.  The identity term's value at l = k/2
    enters the transform along taut_{k/2} and leaves with the difference,
    so its error cancels; the transform's bound counts it anyway.  For odd
    k, Gamma = {e} and the identity term is the whole sum.
    """
    data = _fs_gamma_data(surface)
    if surface.level % 2:
        return data.coeffs, data.bound
    block = _block_sum(surface, a, d, surface.num_slots)
    return _add_star_idempotent(surface.level, data.coeffs, data.bound, block - data.at_half,
                                _value_error(surface) * abs(block))


def _class_outcome(fn):
    """``fn``, a float path's computation for one class (surface, a, d), in
    a ``_class_cache`` of outcomes: the value, or the NonIntegralCoefficient
    (PrecisionExhausted included) or NonIntegralValue it raised.  The
    exception is stored as a new one of the same class and message that was
    never raised, so it pins no traceback (frames and their per-surface
    arrays) and no context; the caller raises a copy of it.  A class the
    float path cannot certify is thus computed once, like any other, and
    raised again on a repeat request without a new sum.  No benchmark
    workload repeats a failing class: big_gamma fails no request, and
    high_level's 8 failing ``fs_formula`` requests per pass are 8 classes."""
    @_class_cache
    @wraps(fn)
    def outcome(surface: SurfaceData, a: int, d: int):
        try:
            return fn(surface, a, d)
        except (NonIntegralCoefficient, NonIntegralValue) as exc:
            return type(exc)(*exc.args)
    return outcome


@_class_outcome
def _fs_element(surface: SurfaceData, a: int, d: int) -> FusionElement:
    """The class's element, its coefficients rounded once; cached as its
    outcome, so a class that fails to round is read back as the
    NonIntegralCoefficient or PrecisionExhausted it raised."""
    return _round_coefficients(surface.level, *_fs_coefficients(surface, a, d))


# The reduced sum's rounding error per unit of sum |terms| and per factor
# (label or slot).  A term is s entries S[m_j, l] over S[0, l]^(n-2), s the
# label count and n the slot count; the block sum's factors at l = k/2 are
# the same entries.  Taking each entry as computed to within 2u of its value
# (its sine, sqrt and division), the term's relative error is at most 2u per
# entry, S[0, l]'s multiplied by n - 2 in the power, plus u per product, the
# power and the division: (3s + 2n - 3) u.  The fsum and the final sum add
# 2u relative to sum |terms|, and 1/|Gamma|, a power of two, is exact; so
# c = 3 covers the sum, as 3s + 2n - 1 <= 3 (s + n).  With every angle
# reduced in integers (``fusion_ring._fold_angle``) an entry is within 6.36u
# a priori and 2.7u measured against mpmath (tests/test_exact_angles.py),
# at any k, and an entry that is 0 is exactly 0.0; but 2u per entry is below
# the a priori figure, so the bound is a floor: a sum that reaches 1/2 is
# refused, one below it is not thereby certified.
_REDUCED_ERROR = 3 * _UNIT_ROUNDOFF


@_class_outcome
def _reduced_value(surface: SurfaceData, a: int, d: int) -> int:
    """The class's reduced value, rounded once; cached as its outcome, as
    ``_fs_element``, a NonIntegralValue or PrecisionExhausted included.
    PrecisionExhausted comes too when the sum's rounding error floor
    c (s + n) u sum |terms| (``_REDUCED_ERROR``) is not below 1/2."""
    data = _fs_gamma_data(surface)
    block = _block_sum(surface, a, d, surface.num_slots - 2)
    bound = _REDUCED_ERROR * (len(surface.labels) + surface.num_slots) * (data.mass + abs(block))
    return round_to_integer(data.reduced + block, exc=NonIntegralValue,
                            context="reduced quantization", bound=bound)


def fs_formula(surface: SurfaceData, choice: PrequantChoice | None = None) -> QuantizationResult:
    """Quantization through the S-matrix formula, summed block by block:
    the identity term / |Gamma| at l != k/2, ``_block_sum`` at l = k/2
    (floating point), back to the tau basis by a sine transform (once per
    surface) and an update along taut_{k/2} (once per choice class), then
    integrality rounding, once per class.  Raises PrecisionExhausted when
    the rounding-error bound is not below 1/2 (a sum out of double range
    included) or a coefficient is not below 2^53, and NonIntegralCoefficient
    when a coefficient fails to round; a class's failure is computed once
    and raised anew, with the same message, on every request."""
    choice, a, d = _canonical_class(surface, choice)
    element = _fs_element(surface, a, d)
    if isinstance(element, ArithmeticError):
        raise type(element)(*element.args)
    return QuantizationResult.of(element, "fs_float", choice)


def reduced_quantization(surface: SurfaceData, choice: PrequantChoice | None = None) -> int:
    """The scalar S-matrix sum (quantization of the symplectic quotient),
    summed block by block with exponent s+2h-2, once per choice class.
    Raises PrecisionExhausted when the sum is out of double range, not
    below 2^53, or formed from terms so large that its rounding error floor
    (``_REDUCED_ERROR``) is not below 1/2, and NonIntegralValue when it
    fails to round; a class's failure is computed once and raised anew on
    every request."""
    _, a, d = _canonical_class(surface, choice)
    value = _reduced_value(surface, a, d)
    if isinstance(value, ArithmeticError):
        raise type(value)(*value.args)
    return value


def verlinde_baseline(surface: SurfaceData) -> QuantizationResult:
    """Simply connected baseline: prod_j tau_{m_j} x (sum_m tau_m^2)^h.

    No sign group acts; the reduced value is the classical SU(2) Verlinde
    number of the labelled surface.  This product is the closed form's
    choice-free base X = tau_{k/2}^r D_SU(2)^h prod tau_m (non-star m), read
    from the per-surface cache.
    """
    return QuantizationResult.of(_closed_form_base(surface._folded or surface).element,
                                 "closed_form")


def localization_evaluate(k: int, r: int, psi, l: int) -> float:
    """Fixed-point value of the star-block quantization at the point t_l.

    Away from l = k/2 only the discrete fixed points contribute,
    2^(1-r) tau_{k/2}(t_l)^r; at l = k/2 each nontrivial sign vector adds a
    torus contribution weighted by its phase.
    """
    k, r, a = _star_class(k, r, psi)
    l, half = _check_index(k, l, "l"), k // 2
    chi = float(half + 1) * _chi_coefficient(k, r, a) if l == half else 0.0
    return (_weyl_quotient(k, l, ((half, 1),)) ** r + chi) / 2 ** (max(r, 1) - 1)
