"""Exact arithmetic in R(SU(2)) and the level-k fusion rings R_k(SU(2)).

The representation ring R(SU(2)) is the free Z-module on the irreducible
characters chi_0, chi_1, ... with the Clebsch-Gordan product

    chi_m * chi_n = chi_{m+n} + chi_{m+n-2} + ... + chi_{|m-n|}.

The level-k fusion ring is the quotient by the ideal generated by
chi_{k+1}; it is free on the images tau_0, ..., tau_k, and chi_j maps to
0 or +-tau_i by affine reflection (``_fold``).

The exact product never expands chi_m * chi_n term by term, which costs
O(k^3) for dense level-k vectors.  By the Weyl character formula
chi_m = (x^(m+1) - x^(-m-1))/(x - 1/x), the product's Weyl numerator is the
numerator of one factor times the Laurent expansion of the other, whose
coefficients are O(k) suffix sums.  Both are packed into Python ints with
signed digits (Kronecker substitution), so a product is O(k) Python steps
plus one big-integer multiplication, then one fold into level k.  A factor
that is a scaled basis element skips the multiplication.

Characters are evaluated at the special torus points t_l = j(q^{l+1}),
q = exp(i*pi/(k+2)), where the ideal vanishes, so

    tau_m(t_l) = sin((m+1)(l+1)pi/(k+2)) / sin((l+1)pi/(k+2)).

The Kac-Peterson matrix S[m,l] = (k/2+1)^(-1/2) sin(pi(l+1)(m+1)/(k+2)) is
orthogonal; its columns give the idempotent basis

    taut_l = sum_m S[0,l] S[m,l] tau_m,      taut_m(t_l) = delta_{m,l},

which diagonalizes the fusion product.  All tau-basis coefficients are
arbitrary-precision Python integers; floating point enters only through
evaluation and the basis change, which are cross-checks against the exact
path, never the authority.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "NonIntegralCoefficient",
    "NonIntegralValue",
    "CharacterPoly",
    "FusionElement",
    "IdempotentVector",
    "integrality_tolerance",
    "round_to_integer",
    "reduce_character",
    "s_matrix_entry",
    "s_matrix",
    "to_idempotent",
    "from_idempotent",
]

DEFAULT_TOLERANCE = 1e-6
TOLERANCE_ENV_VAR = "VERLINDE_TOLERANCE"

# Coefficients beyond 53 bits are serialized as decimal strings so that JSON
# consumers relying on IEEE doubles never see them silently truncated.
_JSON_SAFE_BOUND = 2**53


class NonIntegralCoefficient(ArithmeticError):
    """A reconstructed tau-coefficient is not within tolerance of an integer."""


class NonIntegralValue(ArithmeticError):
    """A numeric sum expected to be an integer failed the integrality check."""


def integrality_tolerance() -> float:
    """Integrality tolerance, overridable through VERLINDE_TOLERANCE."""
    return float(os.environ.get(TOLERANCE_ENV_VAR, DEFAULT_TOLERANCE))


def _valid_tolerance(tol: float | None) -> float:
    """``tol``, or the configured tolerance when None; ValueError outside (0, 0.5)."""
    if tol is None:
        tol = integrality_tolerance()
    if not 0.0 < tol < 0.5:  # also rejects nan
        raise ValueError(f"integrality tolerance must be in (0, 0.5), got {tol!r}")
    return tol


def round_to_integer(value: float, tol: float | None = None,
                     exc: type[ArithmeticError] = NonIntegralValue,
                     context: str = "value") -> int:
    """Round ``value`` to the nearest integer, checking it is close enough.

    The allowed deviation scales with the magnitude of the value (floating
    point error in the Verlinde-type sums grows with their size) but is
    capped below 1/2 so a genuinely half-integral result always raises.
    A tolerance outside (0, 0.5), nan included, raises ValueError.
    """
    tol = _valid_tolerance(tol)
    nearest = round(value)
    allowed = min(tol * (1.0 + abs(value)), 0.499)
    if abs(value - nearest) > allowed:
        raise exc(f"{context} = {value!r} is not integral "
                  f"(deviation {abs(value - nearest):.3e}, allowed {allowed:.3e})")
    return int(nearest)


def _check_level(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise TypeError(f"level must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    return int(k)


def _check_index(k: int, idx: int, name: str) -> int:
    if not 0 <= idx <= k:
        raise IndexError(f"{name}={idx} out of range 0..{k}")
    return int(idx)


def special_angle(k: int, l: int) -> float:
    """Torus angle of the special point t_l, i.e. (l+1)*pi/(k+2)."""
    return (l + 1) * math.pi / (k + 2)


def s_matrix_entry(k: int, m: int, l: int) -> float:
    """Kac-Peterson S-matrix entry (k/2+1)^(-1/2) sin(pi(l+1)(m+1)/(k+2))."""
    _check_level(k)
    _check_index(k, m, "m")
    _check_index(k, l, "l")
    return math.sin((m + 1) * special_angle(k, l)) / math.sqrt(k / 2 + 1)


@lru_cache(maxsize=64)
def s_matrix(k: int) -> np.ndarray:
    """The full (k+1) x (k+1) S-matrix as a read-only float array."""
    _check_level(k)
    mm = np.arange(1, k + 2)
    mat = np.sin(np.outer(mm, mm) * (math.pi / (k + 2))) / math.sqrt(k / 2 + 1)
    mat.setflags(write=False)
    return mat


def _weyl_quotient(k: int, l: int, terms: Iterable[tuple[int, int]]) -> float:
    """sum c chi_m(t_l) over the (m, c) in ``terms``, by the Weyl character
    formula: sum c sin((m+1) theta) / sin(theta), theta the angle of t_l,
    the sum exactly rounded (math.fsum)."""
    theta = special_angle(k, _check_index(k, l, "l"))
    return math.fsum(c * math.sin((m + 1) * theta) for m, c in terms) / math.sin(theta)


class CharacterPoly:
    """Finitely supported integer combination of SU(2) characters chi_m.

    Stored in canonical sparse form: the coefficient map never contains
    zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        for m, c in (coeffs or {}).items():
            m = int(m)
            c = int(c)
            if m < 0:
                raise ValueError(f"character degree must be non-negative, got {m}")
            if c != 0:
                clean[m] = c
        self.coeffs = clean

    @classmethod
    def chi(cls, m: int, coeff: int = 1) -> "CharacterPoly":
        return cls({m: coeff})

    @classmethod
    def zero(cls) -> "CharacterPoly":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, CharacterPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "CharacterPoly") -> "CharacterPoly":
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, 0) + c
        return CharacterPoly(merged)

    def __neg__(self) -> "CharacterPoly":
        return CharacterPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "CharacterPoly") -> "CharacterPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return CharacterPoly({m: c * int(other) for m, c in self.coeffs.items()})
        if not isinstance(other, CharacterPoly):
            return NotImplemented
        if not (self and other):
            return CharacterPoly()
        a, b = _dense(self), _dense(other)
        return CharacterPoly(dict(enumerate(_clebsch_gordan(a, _support(a), b, _support(b)))))

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def special_point_value(self, k: int, l: int) -> float:
        """Evaluate at the level-k special point t_l via the Weyl quotient."""
        return _weyl_quotient(k, l, self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "CharacterPoly(0)"
        terms = " + ".join(f"{c}*chi_{m}" for m, c in sorted(self.coeffs.items()))
        return f"CharacterPoly({terms})"


def _dense(p: CharacterPoly) -> list[int]:
    """Coefficients of chi_0..chi_degree as a list."""
    out = [0] * (p.degree + 1)
    for m, c in p.coeffs.items():
        out[m] = c
    return out


def _fold(k: int, c: Sequence) -> list:
    """Level-k tau-vector of sum_j c_j chi_j, given c_0..c_{2k+3} (or fewer).

    Affine folding: chi_j maps to tau_j for j <= k, to 0 for j = k+1 and
    j = 2k+3, and to -tau_{2k+2-j} for k+2 <= j <= 2k+2; beyond that the
    rule repeats with period 2(k+2).
    """
    c = list(c) + [0] * (2 * k + 4 - len(c))
    return list(map(sub, c[:k + 1], c[2 * k + 2:k + 1:-1]))


def _support(v: Sequence[int]) -> tuple[int, int]:
    """First and last index of a nonzero entry; (-1, -1) for a zero vector."""
    nonzero = bytes(map(bool, v))
    return nonzero.find(1), nonzero.rfind(1)


# array typecodes of the machine-word digit widths, by increasing width in bytes
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _digit_width(bound: int) -> int:
    """Bytes per signed digit holding any value of absolute value <= bound:
    the smallest machine word that fits, else the exact byte count."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in _WORD_CODES if w >= width), width)


def _bias(width: int, n: int) -> int:
    """sum_{i<n} 2^(8 width - 1) B^i with B = 2^(8 width): half of every digit."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(v: Sequence[int], width: int) -> int:
    """Kronecker substitution sum_i v_i B^i, B = 2^(8 width), |v_i| < B/2."""
    half = 1 << (8 * width - 1)
    code = _WORD_CODES.get(width)
    if code:
        digits = array(code, [c + half for c in v]).tobytes()
    else:
        digits = b"".join([(c + half).to_bytes(width, "little") for c in v])
    return int.from_bytes(digits, "little") - _bias(width, len(v))


def _unpack(x: int, width: int, n: int) -> list[int]:
    """The n signed base-B digits of x, each of absolute value below B/2."""
    half = 1 << (8 * width - 1)
    data = (x + _bias(width, n)).to_bytes(width * n, "little")
    code = _WORD_CODES.get(width)
    if code:
        return [d - half for d in memoryview(data).cast(code).tolist()]
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * n, width)]


def _laurent(b: Sequence[int], hi: int) -> list[int]:
    """beta_0..beta_hi of sum_n b_n chi_n = sum_e beta_|e| x^e (b_n = 0 past hi):
    beta_e = sum_{n >= e, n = e mod 2} b_n, a parity-strided suffix sum."""
    beta = list(b[hi::-1])
    beta[0::2] = accumulate(beta[0::2])
    beta[1::2] = accumulate(beta[1::2])
    beta.reverse()
    return beta


def _times_basis(k: int, c: int, m: int, b: Sequence[int], hi_b: int) -> list[int]:
    """c tau_m * b at level k, b nonzero with last nonzero entry at hi_b.

    The unfolded product chi_m * sum_n b_n chi_n has Weyl numerator
    (x^(m+1) - x^(-m-1)) sum_e beta_|e| x^e, so its chi_j coefficient is
    beta_|j-m| - beta_{j+m+2}, with beta from ``_laurent`` and beta_e = 0
    for e > hi_b.  Folding chi_{2k+2-i} onto -tau_i adds
    -beta_{2k+2-i-m}, so tau_i has coefficient
    c (beta_|i-m| - beta_{i+m+2} - beta_{2k+2-i-m}).
    """
    beta = _laurent(b, hi_b) + [0] * (2 * k + 2 - hi_b)
    near = beta[m:0:-1] + beta[:k + 1 - m]
    out = list(map(sub, map(sub, near, beta[m + 2:]), beta[2 * k + 2 - m:k + 1 - m:-1]))
    return out if c == 1 else [c * x for x in out]


def _clebsch_gordan(a: Sequence[int], support_a: tuple[int, int],
                    b: Sequence[int], support_b: tuple[int, int]) -> list[int]:
    """Unfolded product in R(SU(2)): (sum a_m chi_m)(sum b_n chi_n) = sum c_j chi_j.

    a and b are nonzero exact-integer coefficient vectors indexed by degree,
    with their supports as given by ``_support``; the result is c_0..c_J,
    J the sum of the two degrees.

    With the Weyl character formula chi_m = (x^(m+1) - x^(-m-1))/(x - 1/x),
    the product's Weyl numerator is sum_m a_m (x^(m+1) - x^(-m-1)) times the
    Laurent polynomial sum_n b_n chi_n = sum_e beta_e x^e, whose coefficient
    beta_e = sum_{n >= |e|, n = e mod 2} b_n is a parity-strided suffix sum.
    As that Laurent polynomial is symmetric, only Q = (sum_m a_m x^(m+1)) *
    (sum_e beta_e x^e) is formed, and c_j = [x^(j+1)]Q - [x^(-j-1)]Q.  The
    numerator (from the operand of narrower support, trimmed to it) and the
    Laurent coefficients beta_-hi..beta_hi are packed into one Python int
    each, with signed digits wide enough for every coefficient of Q, so Q
    costs one big-integer multiplication (Kronecker substitution).
    """
    (lo_a, hi_a), (lo_b, hi_b) = support_a, support_b
    # The operand with the narrower support supplies the numerator.
    if hi_a - lo_a > hi_b - lo_b:
        a, b, lo_a, hi_a, hi_b = b, a, lo_b, hi_b, hi_a
    numerator = a[lo_a:hi_a + 1]
    beta = _laurent(b, hi_b)
    laurent = beta[:0:-1] + beta  # beta_|e| for e = -hi_b..hi_b
    width = _digit_width(sum(map(abs, numerator)) * max(map(abs, beta)))
    n = len(numerator) + len(laurent) - 1
    q = _unpack(_pack(numerator, width) * _pack(laurent, width), width, n)
    # q[t] is the coefficient of x^(t + lo_a + 1 - hi_b) in Q.
    shift = hi_b - lo_a
    out = q[shift:] if shift >= 0 else [0] * -shift + q
    if shift >= 2:
        out[:shift - 1] = map(sub, out[:shift - 1], q[shift - 2::-1])
    return out


def multiply_coeff_vectors(k: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Fusion product of two level-k tau-coefficient vectors of exact ints.

    Two scaled basis elements c tau_m * d tau_n follow the level-k fusion
    rule, cd tau_j for j = |m-n|, |m-n|+2, ..., min(m+n, 2k-m-n); one scaled
    basis element times a general vector is read off suffix sums of the
    latter (``_times_basis``).  Otherwise the unfolded Clebsch-Gordan
    product comes from one big-integer multiplication of Kronecker-packed
    vectors (``_clebsch_gordan``) and is folded once into level k.  Every
    case takes O(k) Python-level steps plus, in the last, one Karatsuba
    multiplication of two ints of O(k (log k + bits)) bits, where the
    term-by-term Clebsch-Gordan expansion takes O(k^3) for dense inputs.
    """
    support_a, support_b = _support(a), _support(b)
    if support_a[1] < 0 or support_b[1] < 0:
        return [0] * (k + 1)
    if support_b[0] == support_b[1]:  # put a scaled basis element first
        a, b, support_a, support_b = b, a, support_b, support_a
    m, hi_a = support_a
    if m < hi_a:
        return _fold(k, _clebsch_gordan(a, support_a, b, support_b))
    n, hi_b = support_b
    if n < hi_b:
        return _times_basis(k, a[m], m, b, hi_b)
    out = [0] * (k + 1)
    span = range(abs(m - n), min(m + n, 2 * k - m - n) + 1, 2)
    out[span.start:span.stop:2] = [a[m] * b[n]] * len(span)
    return out


@dataclass(frozen=True)
class FusionElement:
    """Element of R_k(SU(2)) as a dense exact-integer vector in the tau basis."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        k = _check_level(self.level)
        coeffs = tuple(map(int, self.coeffs))
        if len(coeffs) != k + 1:
            raise ValueError(f"need {k + 1} coefficients at level {k}, got {len(coeffs)}")
        object.__setattr__(self, "level", k)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, k: int) -> "FusionElement":
        return cls(k, (0,) * (k + 1))

    @classmethod
    def tau(cls, k: int, m: int) -> "FusionElement":
        k = _check_level(k)
        m = _check_index(k, m, "m")
        return cls(k, (0,) * m + (1,) + (0,) * (k - m))

    @classmethod
    def one(cls, k: int) -> "FusionElement":
        return cls.tau(k, 0)

    def _require_same_level(self, other: "FusionElement"):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} != {other.level}")

    def __add__(self, other: "FusionElement") -> "FusionElement":
        self._require_same_level(other)
        return FusionElement(self.level, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FusionElement") -> "FusionElement":
        self._require_same_level(other)
        return FusionElement(self.level, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FusionElement":
        return FusionElement(self.level, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            c = int(other)
            return FusionElement(self.level, tuple(c * x for x in self.coeffs))
        if not isinstance(other, FusionElement):
            return NotImplemented
        self._require_same_level(other)
        if self._is_unit():
            return other
        if other._is_unit():
            return self
        return FusionElement(self.level,
                             tuple(multiply_coeff_vectors(self.level, self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FusionElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the fusion ring")
        result = FusionElement.one(self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _is_unit(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    @property
    def trace(self) -> int:
        """Coefficient of tau_0, i.e. the multiplicity of the trivial factor."""
        return self.coeffs[0]

    def evaluate(self, l: int) -> float:
        """Value at the special point t_l (the evaluation homomorphism)."""
        return _weyl_quotient(self.level, l, ((m, c) for m, c in enumerate(self.coeffs) if c))

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "coeffs": [c if abs(c) < _JSON_SAFE_BOUND else str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FusionElement":
        return cls(int(data["level"]), tuple(int(c) for c in data["coeffs"]))

    def __str__(self):
        terms = []
        for m, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"tau_{m}")
            elif c == -1:
                terms.append(f"-tau_{m}")
            else:
                terms.append(f"{c}*tau_{m}")
        if not terms:
            return "0"
        text = terms[0]
        for t in terms[1:]:
            text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return text


@dataclass(frozen=True)
class IdempotentVector:
    """Values of a fusion element at the special points t_0, ..., t_k.

    Entry l is the coefficient in the idempotent basis taut_l, which equals
    the evaluation at t_l.
    """

    level: int
    values: tuple[float, ...]

    def __post_init__(self):
        k = _check_level(self.level)
        values = tuple(float(v) for v in self.values)
        if len(values) != k + 1:
            raise ValueError(f"need {k + 1} values at level {k}, got {len(values)}")
        object.__setattr__(self, "level", k)
        object.__setattr__(self, "values", values)


def reduce_character(k: int, p: CharacterPoly) -> FusionElement:
    """Image of a character polynomial under R(SU(2)) -> R_k(SU(2))."""
    _check_level(k)
    period = 2 * (k + 2)
    c = [0] * period
    for m, x in p.coeffs.items():
        c[m % period] += x
    return FusionElement(k, tuple(_fold(k, c)))


def to_idempotent(a: FusionElement) -> IdempotentVector:
    """Expand in the idempotent basis by evaluating at every special point."""
    return IdempotentVector(a.level, tuple(a.evaluate(l) for l in range(a.level + 1)))


def from_idempotent(v: IdempotentVector, tol: float | None = None) -> FusionElement:
    """Recover tau-coefficients sum_l v[l] S[0,l] S[m,l], rounded to integers.

    Raises NonIntegralCoefficient when a coefficient is not integral within
    tolerance; that signals an inconsistent vector (or a wrong phase factor
    upstream), not a numerical hiccup.  The tolerance is read and checked
    once per call, then passed to ``round_to_integer`` for every coefficient.
    """
    tol = _valid_tolerance(tol)
    k = v.level
    smat = s_matrix(k)
    weighted = (smat[0] * np.asarray(v.values)) * smat  # row m: v[l] S[0,l] S[m,l]
    coeffs = []
    for m in range(k + 1):
        raw = math.fsum(weighted[m].tolist())
        coeffs.append(round_to_integer(raw, tol, NonIntegralCoefficient,
                                       f"tau_{m} coefficient"))
    return FusionElement(k, tuple(coeffs))
