"""Exact arithmetic in R(SU(2)) and the level-k fusion rings R_k(SU(2)).

The representation ring R(SU(2)) is the free Z-module on the irreducible
characters chi_0, chi_1, ... with the Clebsch-Gordan product

    chi_m * chi_n = chi_{m+n} + chi_{m+n-2} + ... + chi_{|m-n|}.

The level-k fusion ring is the quotient by the ideal generated by
chi_{k+1}; it is free on the images tau_0, ..., tau_k, and chi_j maps to
0 or +-tau_i by affine reflection.  ``_fold`` is the one statement of that
rule: every product, reduction and float cross-check folds through it.

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

Both basis changes are one type-I discrete sine transform (DST-I) of
length k+1, computed as the real FFT of its odd extension: O(k log k) time
and O(k) memory, with no S-matrix formed.  The odd extension and the sine
weights are built on each call from the input alone, with no cached
tables: the quantization paths make one transform per surface, not one
per request, and their only float cache is the S-matrix row cache
``_s_row``.  ``from_idempotent`` also bounds the rounding error of its own
arithmetic a priori (the FFT bound of Higham, *Accuracy and Stability of
Numerical Algorithms*, Thm 24.2, plus the weighting of the inputs) and
rounds only when that bound is below 1/2; otherwise it raises
``PrecisionExhausted``.  The bound covers the basis change alone, not the
error already in the values it is given.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping, Sequence

import numpy as np
import numpy.fft  # loaded with the package, not by the first transform

__all__ = [
    "DEFAULT_TOLERANCE",
    "NonIntegralCoefficient",
    "NonIntegralValue",
    "PrecisionExhausted",
    "CharacterPoly",
    "FusionElement",
    "integrality_tolerance",
    "round_to_integer",
    "reduce_character",
    "s_matrix_entry",
    "s_matrix",
    "to_idempotent",
    "from_idempotent",
]

DEFAULT_TOLERANCE = 1e-6

# Coefficients beyond 53 bits are serialized as decimal strings so that JSON
# consumers relying on IEEE doubles never see them silently truncated.
_JSON_SAFE_BOUND = 2**53


class NonIntegralCoefficient(ArithmeticError):
    """A reconstructed tau-coefficient is not within tolerance of an integer."""


class PrecisionExhausted(NonIntegralCoefficient):
    """The a priori rounding-error bound of a float basis change is not below
    1/2, or a float sum left double range, so double precision cannot
    certify the integers.

    A limit of the float path, not an inconsistency; it subclasses
    NonIntegralCoefficient so that existing handlers still catch it.
    """


class NonIntegralValue(ArithmeticError):
    """A numeric sum expected to be an integer failed the integrality check."""


def integrality_tolerance() -> float:
    """The integrality tolerance: the constant ``DEFAULT_TOLERANCE``."""
    return DEFAULT_TOLERANCE


def round_to_integer(value: float, *, exc: type[ArithmeticError] = NonIntegralValue,
                     context: str = "value") -> int:
    """Round ``value`` to the nearest integer, checking it is close enough.

    The allowed deviation, DEFAULT_TOLERANCE (1 + |value|), scales with the
    magnitude of the value (floating point error in the Verlinde-type sums
    grows with their size) but is capped below 1/2 so a genuinely
    half-integral result always raises ``exc``.  A value that is not finite
    (a float sum out of double range) raises PrecisionExhausted.
    """
    if not math.isfinite(value):
        raise PrecisionExhausted(f"{context} = {value!r} is out of double range")
    nearest = round(value)
    allowed = min(DEFAULT_TOLERANCE * (1.0 + abs(value)), 0.499)
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
    """Kac-Peterson S-matrix entry (k/2+1)^(-1/2) sin(pi(l+1)(m+1)/(k+2)),
    read from the row cache, so it equals ``s_matrix(k)[m, l]`` exactly."""
    k = _check_level(k)
    return float(_s_row(k, _check_index(k, m, "m"))[_check_index(k, l, "l")])


def _s_rows(k: int, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of the level-k S-matrix as a new read-only array.  Every
    S-matrix entry is computed by this one elementwise expression, so a row
    read alone is bit-identical to the same row of ``s_matrix``."""
    mm = np.arange(1, k + 2)
    mat = np.sin(np.outer(np.asarray(rows) + 1, mm) * (math.pi / (k + 2))) \
        / math.sqrt(k / 2 + 1)
    mat.setflags(write=False)
    return mat


def s_matrix(k: int) -> np.ndarray:
    """The full (k+1) x (k+1) S-matrix as a new read-only float array; the
    quantization paths read single rows (``_s_row``) instead."""
    k = _check_level(k)
    return _s_rows(k, range(k + 1))


# Cached: 6,633 of the sweep's 6,710 row reads hit, and one _s_rows call per
# surface instead cut sweep ops_per_s by 7 %.
@lru_cache(maxsize=1024)
def _s_row(k: int, m: int) -> np.ndarray:
    """Row m of ``s_matrix(k)`` without the matrix, read-only and bit-identical."""
    return _s_rows(k, (m,))[0]


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
    beta_|j-m| - beta_{j+m+2} (beta from ``_laurent``, beta_e = 0 for
    e > hi_b), zero for j > m + hi_b; ``_fold`` takes it to level k.
    """
    beta = _laurent(b, hi_b) + [0] * (2 * m + 2)
    near = beta[m:0:-1] + beta[:hi_b + 1]  # beta_|j-m| for j = 0..m+hi_b
    out = _fold(k, list(map(sub, near, beta[m + 2:])))
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

    A scaled basis element times anything is read off suffix sums of the
    other factor (``_times_basis``).  Otherwise the unfolded Clebsch-Gordan
    product comes from one big-integer multiplication of Kronecker-packed
    vectors (``_clebsch_gordan``).  Both unfolded products go through
    ``_fold`` once.  Either case takes O(k) Python-level steps plus, in the
    second, one Karatsuba multiplication of two ints of O(k (log k + bits))
    bits, where the term-by-term Clebsch-Gordan expansion takes O(k^3) for
    dense inputs.
    """
    support_a, support_b = _support(a), _support(b)
    if support_a[1] < 0 or support_b[1] < 0:
        return [0] * (k + 1)
    if support_b[0] == support_b[1]:  # put a scaled basis element first
        a, b, support_a, support_b = b, a, support_b, support_a
    m, hi_a = support_a
    if m < hi_a:
        return _fold(k, _clebsch_gordan(a, support_a, b, support_b))
    return _times_basis(k, a[m], m, b, support_b[1])


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
    def _trusted(cls, k: int, coeffs: tuple[int, ...]) -> "FusionElement":
        """An element from a checked level and a tuple of k + 1 exact ints
        (they were computed from valid elements); skips the checks."""
        self = object.__new__(cls)
        vars(self).update(level=k, coeffs=coeffs)
        return self

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
        return FusionElement._trusted(
            self.level, tuple(multiply_coeff_vectors(self.level, self.coeffs, other.coeffs)))

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


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53

# Per-stage error of the FFT.  Higham, *Accuracy and Stability of Numerical
# Algorithms* (2nd ed.), Thm 24.2: a radix-2 FFT of length n computes y = F x
# with ||y^ - y||_2 <= t eta / (1 - t eta) ||y||_2, t = log2 n,
# eta = mu + gamma_4 (sqrt(2) + mu), mu the error of the computed twiddle
# factors.  For mu <= u, eta < 6.7u; 8u also absorbs the denominator.
_FFT_ETA = 8 * _UNIT_ROUNDOFF

# Relative error of a weighted input sin(theta_l) v_l, of the final 2/N
# scaling and of one later sum per coefficient (``_add_star_idempotent``):
# the angle (three roundings; folded to theta <= pi/2, where the sine's
# condition number is at most 1), the sine (4 ulp = 8u), two products and
# the sum.
_WEIGHT_ERROR = 13 * _UNIT_ROUNDOFF

# Absolute allowance for gradual underflow: each operation loses at most
# 2^-1075 absolutely, and no transform here makes 2^52 operations.
_UNDERFLOW = 2.0 ** -1022


def _fft_error(n: int) -> float:
    """Relative 2-norm error bound of numpy's FFT of length n.  numpy's FFT
    is mixed radix, and for lengths with a large prime factor it uses
    Bluestein's algorithm: three transforms of length below 4n and a chirp
    product.  So the bound takes 3 eta per stage and log2(4n) stages, a
    conservative reading of Thm 24.2 for both."""
    return 3 * _FFT_ETA * math.ceil(math.log2(4 * n))


def _sines(k: int) -> np.ndarray:
    """sin((l+1) pi/(k+2)) for l = 0..k, the angle folded into (0, pi/2]."""
    l = np.arange(1, k + 2)
    return np.sin(np.minimum(l, k + 2 - l) * (math.pi / (k + 2)))


def _sine_transform(y: np.ndarray) -> np.ndarray:
    """The type-I DST sum_j y_j sin((i+1)(j+1) pi/N), i = 0..k, N = k+2: the
    real FFT of the odd extension (0, y, 0, -reversed y) has p-th term
    -2i sum_j y_j sin(p (j+1) pi/N)."""
    odd = np.concatenate(([0.0], y, [0.0], -y[::-1]))
    return np.fft.rfft(odd).imag[1:len(y) + 1] * -0.5


def _sine_coefficients(values: Sequence[float]) -> tuple[np.ndarray, float]:
    """Raw tau-coefficients c_m = sum_l v_l S[0,l] S[m,l] of the idempotent
    vector v (a read-only array), and an a priori bound on the rounding error
    of computing them.

    c = (2/N) DST-I(x) with x_l = sin((l+1) pi/N) v_l, N = k+2.  The
    transform's error is at most _fft_error(2N) sqrt(N) ||x||_2 per entry
    (the odd extension has norm sqrt(2) ||x||_2, its DFT sqrt(2N) times
    that, and the DST takes half an imaginary part); the weighting, the
    scaling and one later sum add at most _WEIGHT_ERROR sum |x_l| <=
    _WEIGHT_ERROR sqrt(N) ||x||_2, as |c_m| <= (2/N) sum |x_l|.  Both are
    scaled by 2/N, and _UNDERFLOW is added.  The values themselves are
    taken as exact.
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    x = v * _sines(n - 1)
    scale = 2.0 / (n + 1)
    coeffs = _sine_transform(x) * scale
    coeffs.setflags(write=False)
    norm = math.hypot(*x.tolist())  # ||x||_2; neither underflows nor overflows
    bound = scale * math.sqrt(n + 1) * norm * (_fft_error(2 * n + 2) + _WEIGHT_ERROR)
    return coeffs, bound + _UNDERFLOW


def _add_star_idempotent(k: int, coeffs: np.ndarray, bound: float,
                         delta: float) -> tuple[np.ndarray, float]:
    """Raw tau-coefficients ``coeffs`` from ``_sine_coefficients`` (rounding
    error at most ``bound``) plus delta taut_{k/2}, k even, where taut_{k/2}
    is exactly (2/N)(tau_0 - tau_2 + tau_4 - ...), N = k+2, as
    S[m, k/2] S[0, k/2] = (2/N) sin((m+1) pi/2).  The bound grows by the
    rounding of the step delta 2/N (forming delta as a difference of two
    values, 2/N and the product: 3u) and of its part in each sum (u); the
    sum's part from ``coeffs`` is in their bound already.  A bound that is
    not finite certifies nothing, and the coefficients are left as they are."""
    bound += 5 * _UNIT_ROUNDOFF * abs(delta) * (2.0 / (k + 2))
    if not math.isfinite(bound):
        return coeffs, bound
    star = np.zeros(k + 1)
    star[0::4] = 2.0 / (k + 2)
    star[2::4] = -2.0 / (k + 2)
    out = coeffs + delta * star
    out.setflags(write=False)
    return out, bound


def _round_coefficients(k: int, coeffs: np.ndarray, bound: float) -> FusionElement:
    """Round the k + 1 raw tau-coefficients ``coeffs``, whose rounding error
    is at most ``bound``.

    Raises PrecisionExhausted unless the bound is below 1/2 (nan included).
    Then every coefficient is tested at once by ``round_to_integer``'s rule:
    the nearest integer, ties to even, within
    min(DEFAULT_TOLERANCE (1 + |c|), 0.499).  The first coefficient that
    fails goes to ``round_to_integer`` itself, which raises
    NonIntegralCoefficient (PrecisionExhausted if it is not finite).
    """
    if not bound < 0.5:
        raise PrecisionExhausted(
            f"the tau-coefficients at level {k} have a rounding error bound of "
            f"{bound:.3e}, not below 1/2: double precision cannot certify them")
    nearest = np.rint(coeffs)
    allowed = np.minimum(DEFAULT_TOLERANCE * (1.0 + np.abs(coeffs)), 0.499)
    fails = ~(np.abs(coeffs - nearest) <= allowed)
    if fails.any():
        m = int(fails.argmax())
        round_to_integer(float(coeffs[m]), exc=NonIntegralCoefficient,
                         context=f"tau_{m} coefficient")
    return FusionElement._trusted(k, tuple(map(int, nearest.tolist())))


def reduce_character(k: int, p: CharacterPoly) -> FusionElement:
    """Image of a character polynomial under R(SU(2)) -> R_k(SU(2))."""
    _check_level(k)
    period = 2 * (k + 2)
    c = [0] * period
    for m, x in p.coeffs.items():
        c[m % period] += x
    return FusionElement(k, tuple(_fold(k, c)))


def to_idempotent(a: FusionElement) -> np.ndarray:
    """Expand in the idempotent basis: the values at the special points
    t_0, ..., t_k as a read-only float64 array, entry l being
    sum_m c_m sin((m+1)(l+1) pi/N) / sin((l+1) pi/N), all at once by one
    sine transform (``FusionElement.evaluate`` is the per-point route)."""
    values = _sine_transform(np.array(a.coeffs, dtype=np.float64)) / _sines(a.level)
    values.setflags(write=False)
    return values


def from_idempotent(values: Sequence[float]) -> FusionElement:
    """Recover tau-coefficients sum_l v[l] S[0,l] S[m,l], rounded to integers,
    from the values v at t_0, ..., t_k; the level k is len(values) - 1, and
    empty or not one-dimensional values raise ValueError.

    The coefficients come from one sine transform with an a priori bound on
    its rounding error (``_sine_coefficients``).  Raises PrecisionExhausted
    when that bound is not below 1/2, and NonIntegralCoefficient when a
    coefficient is not integral within DEFAULT_TOLERANCE; the latter signals
    an inconsistent vector (or a wrong phase factor upstream), not a
    numerical hiccup.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or not len(v):
        raise ValueError(f"need a non-empty 1-D vector of values, got shape {v.shape}")
    return _round_coefficients(len(v) - 1, *_sine_coefficients(v))
