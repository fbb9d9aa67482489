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
  (1 for z = c, S[m,l] for z = e).  At l != k/2 only gamma = e survives,
  the identity term, in floating point; at l = k/2 the sum factors over
  the blocks into the closed form's exact value ``_half_value``, rounded
  once.  The final integrality rounding checks the float part; the literal
  Gamma sum (``oracles.fs_formula_with_phases``) checks the value at t_{k/2}.
* ``localization_evaluate`` - the fixed-point sum for the value of a star
  block at a special point, ``_half_value`` at t_{k/2}.

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
returns the request's canonical choice with its folded class, found in a
few integer operations on the choice's bits as an int and the masks the
surface derived when built (``prequant._classify``).  It keeps the last
(surface, choice) pair it classified, by identity, in one slot, and reads
that slot before its checks, which the pair has passed: the three paths of
one request check and classify it once.  Each path then computes its
result once per class (surface, a, d) in a bounded cache and wraps it with
that choice.  A class that cannot be certified raises where it fails, on
every request, and leaves no entry.  The star entry points
(``quantize_star_block``, ``localization_evaluate``) take their class from
the same front end on a star-only surface, after the star conditions (ii')
and (iii), and ``quantize_star_block`` and ``quantize_double_so3`` read the
closed form of the star-only and the genus-1 surface.

A surface folds as well, to the surface its paths see.  A boundary circle
labelled 0 quantizes to tau_0, the unit, and one labelled k to tau_k, the
simple current: tau_k x reflects x's coefficients (c_m -> c_{k-m}), its
value at t_l is (-1)^l, and tau_k^2 = tau_0.  Every path is multiplicative
over the circles: in the closed form the basis step by tau_0 is the
identity; in the S-matrix sums the label's row S[0, l] cancels one power
of S[0, l], and S[k, l] = (-1)^l S[0, l], bit for bit as every angle is
reduced in integers; and |Gamma|, the class (a, d) and the admissibility
conditions read no non-star label (for k > 0, neither 0 nor k is the star
label k/2).  So each per-class cache (``_class_cache``) computes on
``SurfaceData._folded``, the surface without its labels 0 and k, built once
with the surface, and an odd count of labels k (``SurfaceData._reflected``)
reflects the folded result: the closed form and fs reverse the folded
element, reduced sums the folded terms times (-1)^l, and
``verlinde_baseline`` reverses its product.  The sweep's 1,141 surfaces
fold to 301 (581 with labels 0 alone) and its 3,276 request classes to 879
computed ones (1,678).  The request keeps its own surface for the front
end, so its result carries the canonical choice of all s + 2h slots.  The
float paths' error bounds count the folded surface's entries, fewer than
the request's, and stay sound bounds of the same sum, whose terms differ
only in sign.

Each shared rule is written once: the admissibility conditions in
``prequant._CONDITIONS``, the star signs in ``prequant.star_sign``, the
star block's sign-group sum in ``_krawtchouk_sum``, the doubles' phases in
``_double_factor``, each class's value at t_{k/2}, the one point where a
choice acts, in ``_half_value``, the exact division in ``_exact_divide``,
the folding rule in ``fusion_ring._fold`` and the two linear steps it
implies, ``fusion_ring._times_basis`` and ``fusion_ring._times_double``.
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
    NonIntegralValue,
    PrecisionExhausted,
    _UNIT_ROUNDOFF,
    _add_star_idempotent,
    _check_index,
    _check_int,
    _check_level,
    _round_coefficients,
    _s_entries,
    _sin_pi,
    _sine_bound,
    _sine_transform,
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
    """(tau_{k/2})^r by basis steps, cached; for r >= 1, k must meet condition (ii')."""
    if r < 0:
        raise ValueError("negative powers are not defined in the fusion ring")
    _require_conditions(k, 0, min(r, 1))
    return _star_and_doubles(k, r, 0)


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


@lru_cache(maxsize=1024)  # one per (k, r, a): 3,264 of 3,360 sweep reads hit
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
    """The star block for psi with a bits set on the r star slots: the
    closed form of the star-only surface."""
    return _closed_form_element(SurfaceData(k, 0, (k // 2,) * r), a, 0)


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
    exact by construction for even k: the closed form of the genus-1 surface
    with no boundary, whose chi multiple is ``_double_factor`` less 1.
    """
    surface = SurfaceData(k, 1, ())
    _, a, d = _canonical_class(surface, PrequantChoice(phi))
    return _closed_form_element(surface, a, d)


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


@lru_cache(maxsize=512)  # one per (k, r, h): 135 of the sweep's 301 folded surfaces hit
def _star_and_doubles(k: int, r: int, h: int) -> FusionElement:
    """tau_{k/2}^r D_SU(2)^h, the choice-free part of the star block and the
    h SO(3) doubles, with no dense product: D_SU(2) in closed form, h - 1
    double steps (``fusion_ring._times_double``), then r basis steps by
    tau_{k/2}; O((h + r) k) big-integer additions."""
    coeffs = (quantize_double_su2(k) if h else FusionElement.one(k)).coeffs
    for _ in range(h - 1):
        coeffs = _times_double(k, coeffs)
    return _times_labels(k, coeffs, repeat(k // 2, r))


def _tau_at_half(m: int) -> int:
    """tau_m(t_{k/2}) = sin((m+1) pi/2): (-1)^(m/2) for even m, else 0."""
    return 0 if m % 2 else 1 - 2 * (m // 2 % 2)


def _half_value(surface: SurfaceData, a: int, d: int) -> int:
    """|Gamma| times the class (a, d)'s value at t_{k/2}, k even, as an int:
    the product of the blocks' values, each times its share of |Gamma|.  The
    non-star labels give prod tau_m(t_{k/2}) and the choice-free part of the
    doubles (k/2+1)^h; the star block (tau_{k/2}^r + c(a) chi) gives
    tau_{k/2}(t_{k/2})^r + c(a) (k/2+1), c(a) = ``_chi_coefficient``; and the
    doubles' choices ``_double_factor``.  The one statement of that value:
    every path reads it, and only at t_{k/2} does a choice change a value."""
    k, r, h = surface.level, surface.star_count, surface.genus
    nonstar = (k // 2 + 1) ** h * math.prod(map(_tau_at_half, surface.nonstar_labels))
    star = _tau_at_half(k // 2) ** r + _chi_coefficient(k, r, a) * (k // 2 + 1)
    return nonstar * star * _double_factor(k, h, d)


def _half_float(surface: SurfaceData, a: int, d: int, scale: int = 1) -> float:
    """``_half_value`` / (scale |Gamma|), the class's value at t_{k/2} over
    ``scale``, as the nearest double: an int / int division, correctly
    rounded.  PrecisionExhausted past double range."""
    try:
        return _half_value(surface, a, d) / (scale * surface.gamma_size())
    except OverflowError:
        k = surface.level
        raise PrecisionExhausted(f"the value of class (a={a}, d={d}) at t_{k // 2} is out of "
                                 f"double range (t_{{k/2}} at level {k})") from None


class _ClosedBase(NamedTuple):
    """Choice-independent data of one surface's closed form."""

    element: FusionElement  # X = tau_{k/2}^r D_SU(2)^h prod tau_m, non-star m
    at_half: int  # X(t_{k/2}) = c_0 - c_2 + c_4 - ..., read for even k


# one per folded surface, read by each class: 578 of 879 sweep reads hit
@lru_cache(maxsize=512)
def _closed_form_base(surface: SurfaceData) -> _ClosedBase:
    """X and its value at t_{k/2}, from X's own coefficients, as
    tau_m(t_{k/2}) = ``_tau_at_half``.  X is ``_star_and_doubles``, shared
    by the surfaces with the same (k, r, h), times one basis step per
    non-star label: no dense product."""
    k = surface.level
    base = _times_labels(k, _star_and_doubles(k, surface.star_count, surface.genus).coeffs,
                         surface.nonstar_labels)
    return _ClosedBase(base, sum(base.coeffs[::4]) - sum(base.coeffs[2::4]))


def _class_cache(fn):
    """``fn``, one path's computation for a class (surface, a, d), in an lru
    cache of 1024 entries keyed by the request's surface and computed on its
    folded surface (``SurfaceData._folded``, no label 0 and no label k): a
    miss on a surface that folds returns the cached result of its folded
    form, or, when its labels k are odd in number (``_reflected``), that
    result times tau_k, ``fn(folded, a, d, True)``, cached under the key
    (folded, a, d, True) for every surface that folds to the same one; it is
    then kept under the request's own key too, so a repeat request hits by
    identity.  ``__wrapped__`` is ``fn``, which computes on the surface it
    is given."""
    @lru_cache(maxsize=1024)
    def cached(surface: SurfaceData, a: int, d: int, reflected: bool = False):
        folded = surface._folded
        if folded is None:
            return fn(surface, a, d, reflected)
        return cached(folded, a, d, True) if surface._reflected else cached(folded, a, d)
    return update_wrapper(cached, fn)


def _reflect(x: FusionElement) -> FusionElement:
    """tau_k x, x at level k: its coefficients reversed, c_m -> c_{k-m}."""
    return FusionElement._trusted(x.level, x.coeffs[::-1])


# Per-class results: 28,048 of the 31,324 sweep requests repeat a class of
# their surface, and 2,397 of the 3,276 request classes are answered from
# their folded surface's entry or its reflection (799 reflections: an
# element reversed, or a reduced sum alternated), so 879 classes are
# computed.  Each
# per-class cache keeps values only: a class that raises (InexactDivision
# here, a failure to certify on the float paths) raises again on every
# request.  The star entry points read this cache on their star-only surfaces.

@_class_cache
def _closed_form_element(surface: SurfaceData, a: int, d: int,
                         reflected: bool = False) -> FusionElement:
    """The class (a, d)'s star block x doubles x non-star labels, as
    (X + mu chi) / |Gamma|, |Gamma| = 2^(r-1) 4^h; ``reflected``, that
    times tau_k.

    Every block is a choice-free part plus a multiple of chi: the star block
    (tau_{k/2}^r + c(a) chi) / 2^(r-1), c(a) = ``_chi_coefficient``, and each
    double (D_SU(2) + e chi) / 4 (``_double_factor``).  As chi x = x(t_{k/2}) chi
    (chi vanishes at every other special point), the product is the product
    of the choice-free parts, X, plus mu chi, where mu (k/2+1) is the
    product's value at t_{k/2} times |Gamma| (``_half_value``) minus X's.
    Both values are integers, so mu is an exact division, checked: its
    remainder raises InexactDivision.  A class costs O(r + h) integer steps
    and one O(k) pass."""
    if reflected:
        return _reflect(_closed_form_element(surface, a, d))
    base, k = _closed_form_base(surface), surface.level
    if k % 2:  # then r = h = 0 and Gamma = {e}: X is the whole answer
        return base.element
    excess = _half_value(surface, a, d) - base.at_half
    if excess % (k // 2 + 1):
        raise InexactDivision(f"the class (a={a}, d={d}) differs from X at t_{k // 2} by "
                              f"{excess}, not divisible by {k // 2 + 1}")
    mu, size = excess // (k // 2 + 1), surface.gamma_size()
    if not mu and size == 1:
        return base.element
    return _exact_divide(k, _plus_chi(base.element, mu), size)


def quantize_surface(surface: SurfaceData,
                     choice: PrequantChoice | None = None) -> QuantizationResult:
    """Closed-form quantization: star block x plain classes x doubles."""
    choice, a, d = _canonical_class(surface, choice)
    return QuantizationResult.of(_closed_form_element(surface, a, d), "closed_form", choice)


class _GammaData(NamedTuple):
    """Choice-independent O(k) data of one surface's S-matrix sum, its
    values at t_{k/2} left out (each class adds its own)."""

    coeffs: np.ndarray | None  # tau-coefficients of the identity term / |Gamma|; None if refused
    bound: float  # their rounding-error bound
    reduced: float  # the reduced identity term summed, / |Gamma|
    alternating: float  # its terms at l summed times (-1)^l, / |Gamma|
    mass: float  # the sum of its terms' absolute values, / |Gamma|


# The relative error of one value the S-matrix sum transforms, an identity
# term prod_j S[m_j, l] / S[0, l]^n / |Gamma| at l != k/2.  Each S-matrix
# entry is within 6.36u of its value, relative, a priori, at any k
# (``fusion_ring._s_entries``; tests/test_exact_angles.py derives it), and a
# value reads s + n of them, s the label count and n the slot count, S[0, l]
# n times through the power: 6.36 (s + n) u.  The identity term adds s - 1
# products, the power (within one ulp, 2u) and the division: s + 2
# roundings; 1/|Gamma| is an exact power of two.  One more u takes the
# second-order terms, below u while s + n < 10^6.  So (6.36 (s + n) + s + 3) u
# bounds it.  (The value at t_{k/2} is one correctly rounded division of
# integers, ``_half_float``, counted where it is added.)
def _value_error(surface: SurfaceData) -> float:
    """The relative error bound above of the surface's summed values."""
    s = len(surface.labels)
    return (6.36 * (s + surface.num_slots) + s + 3) * _UNIT_ROUNDOFF


def _fs_rows(k: int, labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sines sin((l+1) pi/(k+2)), l = 0..k, the transform's weights,
    and the S-matrix rows of 0 and of each label: one ``fusion_ring._sin_pi``
    pass over the (s+1) x (k+1) products (m+1)(l+1) and one division by
    sqrt(k/2+1) (``fusion_ring._s_entries``), bit-identical to the same
    rows of ``s_matrix(k)``; the weights are that pass's row 0."""
    sines = _sin_pi(k + 2, np.outer(np.array((0, *labels)) + 1, np.arange(1, k + 2)))
    return sines[0], _s_entries(k, sines)


@lru_cache(maxsize=512)  # the benchmark's tracer reads it by name
def _fs_gamma_data(surface: SurfaceData) -> _GammaData:
    """The identity term prod_j S[m_j, l] / S[0, l]^(s+2h) / |Gamma| for every
    l != k/2, 0 at l = k/2 (k even), taken to the tau basis by one sine
    transform, whose error bound covers the values' own error
    (``_value_error``) as well; and its reduced form (exponent s+2h-2)
    summed over the same l, plainly and times (-1)^l, which is tau_k's value
    at t_l (``_reduced_value``).  The S-matrix rows of 0 and of the labels, and
    the transform's weights, come from one pass (``_fs_rows``).  The bound
    is formed before the transform, and a surface whose bound is not below
    1/2 keeps no coefficients (None) and runs no transform: every class of
    it is refused for that bound when it is rounded.  The reduced form keeps
    the sum of its terms' absolute values beside it, the scale of its
    rounding error.  1/|Gamma| is exact, |Gamma| being a power of two; a
    value out of double range becomes inf or nan, without a warning, and
    its rounding raises PrecisionExhausted."""
    k, n = surface.level, surface.num_slots
    inverse = 1 / surface.gamma_size()
    weights, rows = _fs_rows(k, surface.labels)
    row0 = rows[0]
    with np.errstate(all="ignore"):
        full = np.prod(rows[1:], axis=0)
        identity = full / row0 ** n * inverse
        terms = full / row0 ** (n - 2)
        if not k % 2:  # the class's value there is ``_half_value``
            identity[k // 2] = terms[k // 2] = 0.0
        reduced = _sum(terms, inverse)
        terms[1::2] *= -1
        alternating = _sum(terms, inverse)
        terms = terms.tolist()
        try:
            mass = math.fsum(map(abs, terms)) * inverse
        except OverflowError:
            mass = math.inf
        x, bound = _sine_bound(identity, _value_error(surface), weights)
    coeffs = None
    if bound < 0.5:  # else every class is refused for the bound, whatever its coefficients
        coeffs = _sine_transform(x) * (2.0 / (k + 2))  # as ``_sine_coefficients``
        coeffs.setflags(write=False)
    return _GammaData(coeffs, bound, reduced, alternating, mass)


def _sum(terms: np.ndarray, scale: float) -> float:
    """The exactly rounded sum of ``terms`` times ``scale``, nan when it
    leaves double range."""
    try:  # fsum raises on an intermediate overflow and on inf - inf
        return math.fsum(terms.tolist()) * scale
    except (OverflowError, ValueError):
        return math.nan


def _fs_coefficients(surface: SurfaceData, a: int, d: int) -> tuple[np.ndarray, float]:
    """The raw tau-coefficients of the class (a, d) and an a priori bound on
    their error, before rounding; computed on a miss of ``_fs_element``.

    The class's values are the identity term / |Gamma| at l != k/2, and at
    l = k/2 its own value, ``_half_float``, so the coefficients are the
    transform of the identity term with l = k/2 left out (one per surface)
    plus that value times taut_{k/2} (``fusion_ring._add_star_idempotent``).
    The bound is the whole sum's: the transform's, which covers the
    identity term's own error, plus the update's, which counts the value's
    one rounding.  For odd k, Gamma = {e} and the identity term is the
    whole sum.
    """
    data = _fs_gamma_data(surface)
    if surface.level % 2:
        return data.coeffs, data.bound
    return _add_star_idempotent(surface.level, data.coeffs, data.bound,
                                _half_float(surface, a, d))


@_class_cache
def _fs_element(surface: SurfaceData, a: int, d: int, reflected: bool = False) -> FusionElement:
    """The class's element, its coefficients rounded once, and ``reflected``,
    that times tau_k; a class that fails to round raises
    NonIntegralCoefficient or PrecisionExhausted on every request, and its
    cache keeps no entry."""
    if reflected:
        return _reflect(_fs_element(surface, a, d))
    return _round_coefficients(surface.level, *_fs_coefficients(surface, a, d))


# The reduced sum's rounding error per unit of sum |terms| and per factor
# (label or slot).  A term is s entries S[m_j, l] over S[0, l]^(n-2), s the
# label count and n the slot count.  Taking each entry as computed to within
# 2u of its value (its sine, sqrt and division), the term's relative error
# is at most 2u per entry, S[0, l]'s multiplied by n - 2 in the power, plus
# u per product, the power and the division: (3s + 2n - 3) u.  The value at
# l = k/2 is one correctly rounded division of integers (u).  The fsum and
# the final sum add 2u relative to sum |terms|, and 1/|Gamma|, a power of
# two, is exact; so c = 3 covers the sum, as 3s + 2n - 1 <= 3 (s + n).  With
# every angle reduced in integers (``fusion_ring._fold_angle``) an entry is
# within 6.36u a priori and 2.7u measured against mpmath
# (tests/test_exact_angles.py), at any k, and an entry that is 0 is exactly
# 0.0; but 2u per entry is below the a priori figure, so the bound is a
# floor: a sum that reaches 1/2 is refused, one below it is not thereby
# certified.
_REDUCED_ERROR = 3 * _UNIT_ROUNDOFF


@_class_cache
def _reduced_value(surface: SurfaceData, a: int, d: int, reflected: bool = False) -> int:
    """The class's reduced value, rounded once: the reduced identity term
    summed over l != k/2 plus the class's term at l = k/2, its value times
    S[0, k/2]^2 = 1/(k/2+1) (``_half_float``).  ``reflected``, the class's
    value times tau_k, which is (-1)^l at t_l: the same terms, alternating.
    A class that fails to round raises NonIntegralValue or
    PrecisionExhausted, as ``_fs_element`` does.  PrecisionExhausted comes
    too when the sum's rounding error floor c (s + n) u sum |terms|
    (``_REDUCED_ERROR``) is not below 1/2."""
    k, data = surface.level, _fs_gamma_data(surface)
    half = 0.0 if k % 2 else _half_float(surface, a, d, k // 2 + 1)
    bound = _REDUCED_ERROR * (len(surface.labels) + surface.num_slots) * (data.mass + abs(half))
    if reflected:  # (-1)^l at l = k/2 too
        total = data.alternating + (-half if k // 2 % 2 else half)
    else:
        total = data.reduced + half
    return round_to_integer(total, exc=NonIntegralValue,
                            context="reduced quantization", bound=bound)


def fs_formula(surface: SurfaceData, choice: PrequantChoice | None = None) -> QuantizationResult:
    """Quantization through the S-matrix formula, summed block by block:
    the identity term / |Gamma| at l != k/2 (floating point) and the
    class's exact value at l = k/2 (``_half_value``, rounded once), back to
    the tau basis by a sine transform (once per surface) and an update
    along taut_{k/2} (once per choice class), then integrality rounding,
    once per class.  Raises PrecisionExhausted when the rounding-error
    bound is not below 1/2 (a sum out of double range included) or a
    coefficient is not below 2^53, and NonIntegralCoefficient when a
    coefficient fails to round."""
    choice, a, d = _canonical_class(surface, choice)
    return QuantizationResult.of(_fs_element(surface, a, d), "fs_float", choice)


def reduced_quantization(surface: SurfaceData, choice: PrequantChoice | None = None) -> int:
    """The scalar S-matrix sum (quantization of the symplectic quotient),
    summed block by block with exponent s+2h-2, once per choice class.
    Raises PrecisionExhausted when the sum is out of double range, not
    below 2^53, or formed from terms so large that its rounding error floor
    (``_REDUCED_ERROR``) is not below 1/2, and NonIntegralValue when it
    fails to round."""
    _, a, d = _canonical_class(surface, choice)
    return _reduced_value(surface, a, d)


def verlinde_baseline(surface: SurfaceData) -> QuantizationResult:
    """Simply connected baseline: prod_j tau_{m_j} x (sum_m tau_m^2)^h.

    No sign group acts; the reduced value is the classical SU(2) Verlinde
    number of the labelled surface.  This product is the closed form's
    choice-free base X = tau_{k/2}^r D_SU(2)^h prod tau_m (non-star m), read
    from the per-surface cache, reflected when the surface's labels k are
    odd in number (``SurfaceData._reflected``).
    """
    base = _closed_form_base(surface._folded or surface).element
    return QuantizationResult.of(_reflect(base) if surface._reflected else base, "closed_form")


def localization_evaluate(k: int, r: int, psi, l: int) -> float:
    """Fixed-point value of the star-block quantization at the point t_l.

    Away from l = k/2 only the discrete fixed points contribute,
    2^(1-r) tau_{k/2}(t_l)^r, formed as 2 (tau_{k/2}(t_l) / 2)^r (halving is
    exact) for r >= 1; at l = k/2 each nontrivial sign vector adds a torus
    contribution weighted by its phase, and the value is the exact rational
    ``_half_value`` / |Gamma| of the star-only surface, rounded once.
    Raises PrecisionExhausted only when the value is out of double range.
    """
    k, r, a = _star_class(k, r, psi)
    l, half = _check_index(k, l, "l"), k // 2
    if 2 * l == k:
        return _half_float(SurfaceData(k, 0, (half,) * r), a, 0)
    try:  # the power raises past double range; doubling returns inf
        value = 2 * (_weyl_quotient(k, l, ((half, 1),)) / 2) ** r if r else 1.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise PrecisionExhausted(f"the star block's value at t_{l} is out of double range")
    return value
