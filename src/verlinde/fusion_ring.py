"""Exact arithmetic in the level-k fusion rings R_k(SU(2)).

The representation ring R(SU(2)) is the free Z-module on the irreducible
characters chi_0, chi_1, ... with the Clebsch-Gordan product

    chi_m * chi_n = chi_{m+n} + chi_{m+n-2} + ... + chi_{|m-n|}.

The level-k fusion ring is the quotient by the ideal generated by
chi_{k+1}; it is free on the images tau_0, ..., tau_k, and chi_j maps to
0 or +-tau_i by affine reflection.  ``_fold`` is the one statement of that
rule: every dense product and float cross-check folds through it.  On
basis elements it gives the level-k fusion rule
tau_m tau_n = tau_|m-n| + tau_(|m-n|+2) + ... + tau_min(m+n, 2k-m-n),
which ``_times_basis`` applies directly (tests check it term by term).
The fold's ghosts tau_(-1) = tau_(k+1) = 0, tau_(-2) = -tau_0 and
tau_(k+2) = -tau_k are also the boundary conditions of ``_times_double``,
which multiplies by D_SU(2) = sum_m tau_m^2 through one tridiagonal solve.

The exact product never expands chi_m * chi_n term by term, which costs
O(k^3) for dense level-k vectors.  A factor that is a scaled basis element
tau_m costs one linear pass (``_times_basis``): each coefficient of the
product is a difference of two parity-strided prefix sums of the other
factor, so it takes O(k) additions, with no fold.  So does the factor
D_SU(2) (``_times_double``), which the closed form applies once per double.
Each step carries one parity class (``_basis_step``, ``_double_step``):
the ring is graded by m mod 2, tau_m moving a class by m and D_SU(2) being
even, so a product of basis elements and D_SU(2), as the closed form's
is, lives on one class, and its steps read and write k/2 + 1 coefficients,
not k + 1.  The dense steps are one graded step per class.  For two dense
factors, by the Weyl character formula
chi_m = (x^(m+1) - x^(-m-1))/(x - 1/x), the product's Weyl numerator is the
numerator of one factor times the Laurent expansion of the other, whose
coefficients are O(k) suffix sums.  Both are packed into Python ints with
signed digits (Kronecker substitution), so a product is O(k) Python steps
plus one big-integer multiplication, then one fold into level k.

Characters are evaluated at the special torus points t_l = j(q^{l+1}),
q = exp(i*pi/(k+2)), where the ideal vanishes, so

    tau_m(t_l) = sin((m+1)(l+1)pi/(k+2)) / sin((l+1)pi/(k+2)).

The Kac-Peterson matrix S[m,l] = (k/2+1)^(-1/2) sin(pi(l+1)(m+1)/(k+2)) is
orthogonal; its columns give the idempotent basis

    taut_l = sum_m S[0,l] S[m,l] tau_m,      taut_m(t_l) = delta_{m,l},

which diagonalizes the fusion product.  Every sine here, of an S-matrix
entry, a special-point value or a transform weight, is sin(e pi/N) for an
integer e, N = k+2, and ``_fold_angle`` reduces e in integers first:
sin(e pi/N) = +-sin(f pi/N) with 0 <= f <= N/2.  So no float angle exceeds
pi/2 in magnitude, where the sine's condition number is at most 1, and an
S-matrix entry is within 6.36 units of roundoff of its value however large
(m+1)(l+1) is, and exactly 0.0 where N divides (m+1)(l+1).  All tau-basis
coefficients are arbitrary-precision Python integers; floating point enters
only through evaluation and the basis change, which are cross-checks against
the exact path, never the authority.

Both basis changes are one type-I discrete sine transform (DST-I) of
length k+1, computed as the real FFT of its odd extension, built in one
array: O(k log k) time and O(k) memory, with no S-matrix formed.  Every
S-matrix row is read from one table per level of sin(e pi/N),
e = 0..2N-1, each entry folded by ``_fold_angle``, whose period in e is
2N: entry (m+1)(l+1) mod 2N is the sine of that product, bit for bit.  One
builder forms S-matrix arrays, ``_s_rows``: the rows of 0 and of given
labels gathered from the table in one pass, with that pass's row 0 before
the division by sqrt(k/2+1), the transform's weights.  ``s_matrix`` is its
case of every label; the transforms and the oracles form only the rows
they read, and ``s_matrix_entry`` computes its one entry.  numpy, with
``numpy.fft``, is imported on first need (``_numpy``), and no quantization
path needs it: the S-matrix formula is certified in integers
(``galois``), so no request loads numpy.
``from_idempotent`` takes its values as exact and bounds the rounding error
of its own transform a priori (``_transform_bound``: the FFT bound of
Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 24.2, plus the
weighting of the inputs).  The bound reads only the weighted values, so it
is formed first: a bound not below 1/2 raises ``PrecisionExhausted`` with
no transform, and otherwise each coefficient is rounded against it by
``round_to_integer``, the one rounding rule.  ``FusionElement.evaluate``
bounds its sum as well, and raises ``PrecisionExhausted`` where
cancellation leaves no certain digit.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, index, mul, neg, sub
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "NonIntegralCoefficient",
    "NonIntegralValue",
    "InexactDivision",
    "PrecisionExhausted",
    "FusionElement",
    "integrality_tolerance",
    "round_to_integer",
    "s_matrix_entry",
    "s_matrix",
    "to_idempotent",
    "from_idempotent",
]

DEFAULT_TOLERANCE = 1e-6

# Doubles hold every integer below 2^53 in magnitude and skip integers from
# there on.  So a float at or above it certifies no integer (it may be the
# double nearest a sum that was another integer), and a coefficient at or
# above it is serialized as a decimal string, so that JSON consumers relying
# on IEEE doubles never see it silently truncated.
_EXACT_INTEGER_BOUND = 2**53

def _numpy():
    """numpy, with numpy.fft, imported on first need: by the S-matrix arrays
    (``s_matrix``, ``s_matrix_entry``, ``_s_rows``), ``to_idempotent`` and
    ``from_idempotent`` (``oracles`` imports it itself).  No quantization
    request needs any of them, so none loads numpy."""
    import numpy
    import numpy.fft
    return numpy


class NonIntegralCoefficient(ArithmeticError):
    """A reconstructed tau-coefficient is not within tolerance of an integer."""


class PrecisionExhausted(NonIntegralCoefficient):
    """The a priori rounding-error bound of a float basis change is not below
    1/2, a float sum left double range, or a float to be rounded is at or
    above 2^53 in magnitude, where doubles skip integers, so double precision
    cannot certify the integers.

    A limit of the float path, not an inconsistency; it subclasses
    NonIntegralCoefficient so that existing handlers still catch it.
    """


class NonIntegralValue(ArithmeticError):
    """A numeric sum expected to be an integer failed the integrality check."""


class InexactDivision(ArithmeticError):
    """A division that integrality theorems promise to be exact was not.

    Reaching this indicates an implementation bug or a wrong phase factor,
    never bad input.
    """


def integrality_tolerance() -> float:
    """The integrality tolerance: the constant ``DEFAULT_TOLERANCE``."""
    return DEFAULT_TOLERANCE


def round_to_integer(value: float, *, exc: type[ArithmeticError] = NonIntegralValue,
                     context: str = "value", bound: float = 0.0) -> int:
    """Round ``value`` to the nearest integer, checking it is close enough:
    the one rounding rule of the package.

    A value that is not finite (a float sum out of double range) raises
    PrecisionExhausted, and so does one at or above 2^53 in magnitude:
    doubles there skip integers, so the nearest one may not be the integer
    the sum approximates.  So does a value whose rounding error ``bound``,
    given by the caller, is not below 1/2 (nan included): its nearest
    integer may be another.  Otherwise the allowed deviation is
    max(bound, min(DEFAULT_TOLERANCE (1 + |value|), 0.499)): the tolerance
    scales with the magnitude of the value but is capped below 1/2, so with
    bound 0 a genuinely half-integral result raises ``exc``; and a value
    within its bound of an integer is that integer, as the bound is below
    1/2.  A message that rejects the value names its deviation, the
    allowance and the bound.
    """
    if not math.isfinite(value):
        raise PrecisionExhausted(f"{context} = {value!r} is out of double range "
                                 f"(error bound {bound:.3e})")
    if abs(value) >= _EXACT_INTEGER_BOUND:
        raise PrecisionExhausted(f"{context} = {value!r} is not below 2^53 in magnitude, "
                                 "where doubles skip integers: double precision cannot "
                                 f"certify it (error bound {bound:.3e})")
    if not bound < 0.5:
        raise PrecisionExhausted(f"{context} = {value!r} has a rounding error bound of "
                                 f"{bound:.3e}, not below 1/2: double precision cannot "
                                 "certify it")
    allowed = max(bound, min(DEFAULT_TOLERANCE * (1.0 + abs(value)), 0.499))
    nearest = round(value)
    if abs(value - nearest) > allowed:
        raise exc(f"{context} = {value!r} is not integral (deviation "
                  f"{abs(value - nearest):.3e}, allowed {allowed:.3e}, error bound {bound:.3e})")
    return int(nearest)


def _check_int(value, what: str) -> int:
    """The one integer rule of every public entry point: a Python or numpy
    integer (``operator.index``) other than a bool, as an int; anything else,
    a float or a string too, raises TypeError.  Range checks stay with each
    entry point.  A numpy bool exists only once numpy is loaded, so it is
    looked for through ``sys.modules``, which loads nothing."""
    if type(value) is int:  # operator.index(value) is value
        return value
    numpy = sys.modules.get("numpy")
    if (isinstance(value, bool) or not hasattr(value, "__index__")
            or (numpy is not None and isinstance(value, numpy.bool_))):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return index(value)


def _check_ints(values: Iterable, what: str) -> tuple[int, ...]:
    try:  # one TypeError that shows all the values
        return tuple(map(_check_int, values, repeat(what)))
    except TypeError:
        raise TypeError(f"{what} must be integers, got {values!r}") from None


def _check_level(k: int) -> int:
    k = _check_int(k, "level")
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    return k


def _check_index(k: int, idx: int, name: str) -> int:
    idx = _check_int(idx, name)
    if not 0 <= idx <= k:
        raise IndexError(f"{name}={idx} out of range 0..{k}")
    return idx


def s_matrix_entry(k: int, m: int, l: int) -> float:
    """Kac-Peterson S-matrix entry (k/2+1)^(-1/2) sin(pi(l+1)(m+1)/(k+2)),
    by the expression of ``s_matrix``, so it equals ``s_matrix(k)[m, l]``
    exactly."""
    k = _check_level(k)
    e = (_check_index(k, m, "m") + 1) * (_check_index(k, l, "l") + 1)
    return float(_s_entries(k, _sin_pi(k + 2, _numpy().array([e])))[0])


def _fold_angle(n: int, e):
    """z with sin(e pi/n) = sin(z pi/(2n)) and |z| <= n, for an integer or a
    numpy integer array e: the one angle-reduction rule of every sine in the
    package, exact in integers.  In half steps pi/(2n) the angle is 2e; the
    triangle wave z = n - |2n - ((2e + n) mod 4n)|, of period 4n and slope
    +-1, equals 2e for |2e| <= n and takes every angle to one in
    [-pi/2, pi/2] with the same sine, as sin(x + 2 pi) = sin(pi - x) = sin x.
    It is the fold of r = e mod n to min(r, n - r), doubled and negated when
    e mod 2n > n: z is even, z/2 an integer of absolute value at most n/2,
    and z = 0, a sine of exactly +0.0, when n divides e."""
    return n - abs(2 * n - (2 * e + n) % (4 * n))


def _sin_pi(n: int, e: np.ndarray) -> np.ndarray:
    """sin(e pi/n) for a numpy integer array e, each angle folded by
    ``_fold_angle`` into [-pi/2, pi/2] before its sine.  z pi/(2n) rounds
    as (z/2) pi/n does, a power of two apart."""
    return _numpy().sin(_fold_angle(n, e) * (math.pi / (2 * n)))


def _s_entries(k: int, sines: np.ndarray) -> np.ndarray:
    """The level-k S-matrix entries (k/2+1)^(-1/2) sin(e pi/(k+2)) of the
    sines of the products e = (m+1)(l+1), as computed by ``_sin_pi``, as a
    new read-only array.  Every S-matrix entry is this one division of that
    one sine, so an entry or a set of rows formed alone is bit-identical to
    the same entries of ``s_matrix``.  The products, up to (k+1)^2, are
    reduced in integers, so an entry is exactly 0.0 where k+2 divides the
    product, and otherwise within 6.36u of its value relative, u = 2^-53:
    the folded angle's roundings, the sine's, and the square root's and the
    division's (tests/test_exact_angles.py derives it)."""
    mat = sines / math.sqrt(k / 2 + 1)
    mat.setflags(write=False)
    return mat


def _s_rows(k: int, labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sines sin((l+1) pi/(k+2)), l = 0..k, the sine transform's
    weights, and the S-matrix rows of 0 and of each label, a new read-only
    array: the level's table of sin(e pi/N), e = 0..2N-1, N = k+2, one
    ``_sin_pi`` pass, gathered at the (s+1) x (k+1) products (m+1)(l+1)
    mod 2N, and one division by sqrt(k/2+1) (``_s_entries``), the weights
    being the gather's row 0.  ``_fold_angle`` has period 2N in e, so each
    gathered sine is the one ``_sin_pi`` gives the product itself, bit for
    bit.  The one row builder: ``s_matrix`` is its case of every label, and
    every other reader forms only the rows it uses."""
    np = _numpy()
    n = k + 2
    table = _sin_pi(n, np.arange(2 * n))
    sines = table[np.outer(np.array((0, *labels)) + 1, np.arange(1, n)) % (2 * n)]
    return sines[0], _s_entries(k, sines)


def s_matrix(k: int) -> np.ndarray:
    """The full (k+1) x (k+1) S-matrix as a new read-only float array, the
    rows of every label from ``_s_rows``."""
    k = _check_level(k)
    return _s_rows(k, range(k + 1))[1][1:]


def _weyl_quotient(k: int, l: int, terms: Iterable[tuple[int, int]]) -> float:
    """sum c chi_m(t_l) over the (m, c) in ``terms``, by the Weyl character
    formula: sum c sin((m+1) theta) / sin(theta), theta = (l+1) pi/(k+2) the
    angle of t_l; k and l are checked by the caller.

    Each multiple of theta is reduced by ``_fold_angle`` to z = +-2f half
    steps, and the sine is odd, so the coefficients of one f are summed
    first, in integers: sum_f C_f sin(f pi/N), N = k+2, exactly rounded
    (math.fsum), the term f = 0, whose sine is 0, left out.
    Its error is bounded a priori by 13u sum_f |C_f sin_f| / |sin theta|,
    u = 2^-53: each term's coefficient rounded to double (u), its folded
    sine (4.36u, tests/test_exact_angles.py) and the product (u), the sum's
    rounding (u), and the sine of theta and the division (5.36u of the
    value, which is at most that sum over |sin theta|).  When that bound
    reaches the value's magnitude, no digit of it is certain: the value is
    exactly 0.0 if the sum of sines vanishes exactly (``_sines_cancel``),
    as chi's does away from t_{k/2}, and otherwise PrecisionExhausted is
    raised.  So is it when the value is out of double range."""
    n, half_step = k + 2, math.pi / (2 * (k + 2))
    folded = [0] * (n // 2 + 1)  # C_f; z = 2f is even
    for m, c in terms:
        z = _fold_angle(n, (m + 1) * (l + 1))
        folded[abs(z) // 2] += c if z > 0 else -c
    try:  # float(c) and fsum raise past double range; the division returns inf
        products = [c * math.sin(2 * f * half_step) for f, c in enumerate(folded) if c and f]
        sine = math.sin(_fold_angle(n, l + 1) * half_step)
        value = math.fsum(products) / sine
        bound = 13 * _UNIT_ROUNDOFF * math.fsum(map(abs, products)) / abs(sine)
    except OverflowError:
        value = bound = math.inf
    if not math.isfinite(value):
        raise PrecisionExhausted(f"a value at t_{l} is out of double range")
    if bound and not bound < abs(value):
        if _sines_cancel(n, folded):
            return 0.0
        raise PrecisionExhausted(
            f"the value {value!r} at t_{l} has a rounding error bound of {bound:.3e}, "
            "not below its magnitude: double precision cannot certify any digit of it")
    return value


def _mobius(d: int) -> int:
    """The Moebius function: (-1)^(number of prime factors) for squarefree d,
    else 0."""
    sign, p = 1, 2
    while p * p <= d:
        if not d % p:
            d //= p
            if not d % p:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


# One per m = 2(k+2): every point of a level whose values cancel reads it,
# and building it took 1.1 ms of the 1.4 ms of an evaluation at k = 1000.  An
# entry is a tuple of m - phi(m) small ints, about 8m bytes (10.8 kB at
# k = 1000, 44 kB at k = 4000).
@lru_cache(maxsize=16)
def _cyclotomic_cofactor(m: int) -> tuple[int, ...]:
    """The coefficients of (x^m - 1) / Phi_m(x), constant first, Phi_m the
    m-th cyclotomic polynomial: as Phi_m is the product of
    (x^(m/d) - 1)^mu(d) over the divisors d of m, this is the product of
    (x^(m/d) - 1)^(-mu(d)) over the divisors d > 1, the factors with
    mu(d) = -1 multiplied first and those with mu(d) = 1 divided out
    exactly: b (x^a - 1) = c gives b_i = b_(i-a) - c_i, so each residue
    class of b mod a is a negated prefix sum of c's."""
    poly = [1]
    for power, a in sorted(((-_mobius(d), m // d) for d in range(2, m + 1) if not m % d),
                           reverse=True):
        if power == 1:  # times x^a - 1
            poly = list(map(sub, [0] * a + poly, poly + [0] * a))
        elif power == -1:  # over x^a - 1
            quotient, top = [0] * (len(poly) - a), len(poly) - a
            for r in range(min(a, top)):
                quotient[r::a] = map(neg, accumulate(poly[r:top:a]))
            poly = quotient
    return tuple(poly)


def _sines_cancel(n: int, folded: Sequence[int]) -> bool:
    """Whether sum_f C_f sin(f pi/n) is exactly 0, C_f = folded[f], decided
    in integers.  With zeta = exp(i pi/n), a primitive m-th root of unity,
    m = 2n, 2i sin(f pi/n) = zeta^f - zeta^(m-f), so the sum vanishes
    exactly when P(x) = sum_f C_f (x^f - x^(m-f)) has zeta as a root, that
    is when Phi_m, zeta's minimal polynomial over Q, divides P; and as
    x^m - 1 = Phi_m Psi, that is when P Psi is 0 modulo x^m - 1.  P Psi is
    one big-integer product of Kronecker-packed vectors, as in
    ``_clebsch_gordan``, folded once by x^m = 1."""
    m = 2 * n
    p = [0] * m
    for f, c in enumerate(folded):
        if c and f:
            p[f] += c
            p[m - f] -= c
    psi = _cyclotomic_cofactor(m)
    width = _digit_width(sum(map(abs, p)) * max(map(abs, psi)))
    q = _unpack(_pack(p, width) * _pack(psi, width), width, m + len(psi) - 1)
    return not any(map(add, q[:m], q[m:] + [0] * m))


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


def _basis_step(k: int, m: int, p: int, v: Sequence[int]) -> list[int]:
    """tau_m * b at level k, b having v = b[p::2] on the class p and 0 on
    the other: the product's coefficients on its class, p + m mod 2.

    By the level-k fusion rule, tau_m tau_n has tau_j for j = |m-n|,
    |m-n|+2, ..., min(m+n, 2k-m-n), a set symmetric in n and j; so the tau_j
    coefficient is b_lo + b_(lo+2) + ... + b_hi, lo = |j-m| and
    hi = min(j+m, 2k-j-m), a difference P[hi+2] - P[lo] of the prefix sums
    P[p + 2i] = v_0 + ... + v_(i-1), kept at ``prefix[i + 1]`` behind one
    ghost.  As j runs over the class, hi+2 and lo each trace one rising and
    one falling run of them: four slices."""
    q = (p + m) % 2
    size, rise, fall = (k - q) // 2 + 1, (k - m - q) // 2 + 1, (m - q + 1) // 2
    up, down = (q + m - p) // 2 + 2, (q - m - p) // 2 + 1  # indices at j = q
    top = k + 4 - p - up  # the falling run's index at j = q
    prefix = [0, 0, *accumulate(v)]
    upper = prefix[up:] + prefix[top - rise:top - size:-1]
    lower = prefix[2 - p - down:2 - p - down - fall:-1] + prefix[down + fall:down + size]
    return list(map(sub, upper, lower))


def _times_basis(k: int, m: int, b: Sequence[int]) -> list[int]:
    """tau_m * b at level k, b any k + 1 coefficients: one step per class."""
    out = [0] * (k + 1)
    for p in (0, 1):
        out[(p + m) % 2::2] = _basis_step(k, m, p, b[p::2])
    return out


def _double_step(k: int, p: int, v: Sequence[int]) -> list[int]:
    """D_SU(2) * b at level k, b having v = b[p::2] on the class p and 0 on
    the other: the product's coefficients on the same class, D_SU(2) being
    even.  At t_l, theta = (l+1) pi/(k+2), D_SU(2) = sum_m tau_m^2 is
    S[0, l]^-2 = (k+2)/(2 sin^2 theta) and 3 - tau_2 is 4 sin^2 theta, so
    D_SU(2) = 2(k+2) / (3 - tau_2)."""
    return _class_quotient(k, p, v, 2 * (k + 2))


def _times_double(k: int, b: Sequence[int]) -> list[int]:
    """D_SU(2) * b at level k, b any k + 1 coefficients."""
    return _over_3_minus_tau2(k, b, 2 * (k + 2))


def _over_3_minus_tau2(k: int, b: Sequence[int], scale: int) -> list[int]:
    """scale b / (3 - tau_2) at level k, which must be integral: one
    ``_class_quotient`` per class."""
    out = [0] * (k + 1)
    for p in (0, 1):
        out[p::2] = _class_quotient(k, p, b[p::2], scale)
    return out


def _class_quotient(k: int, p: int, v: Sequence[int], scale: int) -> list[int]:
    """z_i = y_(2i+p), the class p of y = scale b / (3 - tau_2) at level k,
    b having v = b[p::2] there, which must be integral: O(k) additions.

    As tau_2 tau_n = tau_(n-2) + tau_n + tau_(n+2) with the ghosts that
    ``_fold`` gives, tau_(-1) = tau_(k+1) = 0, tau_(-2) = -tau_0 and
    tau_(k+2) = -tau_k, this is a second difference
    2 z_i - z_(i-1) - z_(i+1) = scale v_i on the class alone.  Shooting from
    the bottom ghost (z_(-1) = -z_0 on the even class, 0 on the odd one)
    gives z_i = s A_i + scale B_i, with A_i = 2i+1 on the even class and
    i+1 on the odd one, and B the negated double prefix sum of v.  The top
    ghost (z_n = 0 or -z_(n-1)) fixes the start s by one integer division;
    z is integral exactly when it is, so a remainder raises InexactDivision.
    """
    n = len(v)
    if not n:  # the odd class at k = 0
        return []
    neg = list(accumulate(accumulate(v), sub, initial=0))  # B_0..B_n
    step = 2 - p  # A_i = step i + 1
    if p + 2 * n == k + 2:  # top ghost tau_(k+2) = -tau_k: z_n + z_(n-1) = 0
        num, den = -scale * (neg[n] + neg[n - 1]), step * (2 * n - 1) + 2
    else:  # top ghost tau_(k+1) = 0: z_n = 0
        num, den = -scale * neg[n], step * n + 1
    s, rem = divmod(num, den)
    if rem:
        raise InexactDivision(f"the tau_{p} coefficient of {scale} b / (3 - tau_2) "
                              f"at level {k}, {num}/{den}, is not an integer")
    return list(map(add, accumulate(repeat(step * s, n - 1), initial=s),
                    map(mul, repeat(scale), neg[:n])))


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
    beta = list(b[hi_b::-1])  # accumulated by parity: beta_hi_b, ..., beta_0
    beta[0::2] = accumulate(beta[0::2])
    beta[1::2] = accumulate(beta[1::2])
    beta.reverse()
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

    A scaled basis element c tau_m times anything is the basis step
    ``_times_basis`` (prefix sums of the other factor, already at level k),
    scaled by c.  Otherwise the unfolded Clebsch-Gordan product comes from
    one big-integer multiplication of Kronecker-packed vectors
    (``_clebsch_gordan``), folded to level k once by ``_fold``.  Either case
    takes O(k) Python-level steps plus, in the second, one Karatsuba
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
    out = _times_basis(k, m, b)
    return out if a[m] == 1 else [a[m] * x for x in out]


def _value_class(cls):
    """``cls`` as a frozen dataclass with slots: an instance has no dict, so
    a trusted constructor sets each field through its slot descriptor.

    A pickle loads through the checked constructor from either state: the
    list of field values this layout writes, or the field dict an instance
    dict held before.  It is set after the class is built, so that no
    dataclass version puts its own slots ``__setstate__`` in its place: that
    one zips a dict's keys, not its values, into the fields."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __setstate__(self, state) -> None:
        if isinstance(state, Mapping):
            state = map(state.__getitem__, names)
        self.__init__(*state)

    cls.__setstate__ = __setstate__
    return cls


@_value_class
class FusionElement:
    """Element of R_k(SU(2)) as a dense exact-integer vector in the tau basis."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        k = _check_level(self.level)
        coeffs = _check_ints(self.coeffs, "coefficients")
        if len(coeffs) != k + 1:
            raise ValueError(f"need {k + 1} coefficients at level {k}, got {len(coeffs)}")
        object.__setattr__(self, "level", k)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trusted(cls, k: int, coeffs: tuple[int, ...]) -> "FusionElement":
        """An element from a checked level and a tuple of k + 1 exact ints
        (they were computed from valid elements); skips the checks."""
        self = object.__new__(cls)
        _set_level(self, k)
        _set_coeffs(self, coeffs)
        return self

    @classmethod
    def zero(cls, k: int) -> "FusionElement":
        k = _check_level(k)
        return cls._trusted(k, (0,) * (k + 1))

    @classmethod
    def tau(cls, k: int, m: int) -> "FusionElement":
        k = _check_level(k)
        m = _check_index(k, m, "m")
        return cls._trusted(k, (0,) * m + (1,) + (0,) * (k - m))

    @classmethod
    def one(cls, k: int) -> "FusionElement":
        return cls.tau(k, 0)

    def _require_same_level(self, other: "FusionElement"):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} != {other.level}")

    def __add__(self, other: "FusionElement") -> "FusionElement":
        if not isinstance(other, FusionElement):  # Python raises TypeError
            return NotImplemented
        self._require_same_level(other)
        return FusionElement._trusted(self.level, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "FusionElement") -> "FusionElement":
        if not isinstance(other, FusionElement):
            return NotImplemented
        self._require_same_level(other)
        return FusionElement._trusted(self.level, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "FusionElement":
        return FusionElement._trusted(self.level, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, FusionElement):
            c = _check_int(other, "scalar")
            return FusionElement._trusted(self.level, tuple(c * x for x in self.coeffs))
        self._require_same_level(other)
        return FusionElement._trusted(
            self.level, tuple(multiply_coeff_vectors(self.level, self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FusionElement":
        n = _check_int(n, "exponent")
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

    @property
    def trace(self) -> int:
        """Coefficient of tau_0, i.e. the multiplicity of the trivial factor."""
        return self.coeffs[0]

    def evaluate(self, l: int) -> float:
        """Value at the special point t_l (the evaluation homomorphism)."""
        return _weyl_quotient(self.level, _check_index(self.level, l, "l"),
                              ((m, c) for m, c in enumerate(self.coeffs) if c))

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "coeffs": [c if abs(c) < _EXACT_INTEGER_BOUND else str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FusionElement":
        # to_json_dict writes a coefficient past 2^53 as a decimal string
        return cls(data["level"], [int(c) if isinstance(c, str) else c for c in data["coeffs"]])

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


# The slot setters of ``FusionElement._trusted``: a frozen class's
# object.__setattr__ looks each name up, a descriptor's __set__ does not.
_set_level, _set_coeffs = FusionElement.level.__set__, FusionElement.coeffs.__set__


# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53

# Per-stage error of the FFT.  Higham, *Accuracy and Stability of Numerical
# Algorithms* (2nd ed.), Thm 24.2: a radix-2 FFT of length n computes y = F x
# with ||y^ - y||_2 <= t eta / (1 - t eta) ||y||_2, t = log2 n,
# eta = mu + gamma_4 (sqrt(2) + mu), mu the error of the computed twiddle
# factors.  For mu <= u, eta < 6.7u; 8u also absorbs the denominator.
_FFT_ETA = 8 * _UNIT_ROUNDOFF

# Relative error of a weighted input sin(theta_l) v_l and of the final 2/N
# scaling: the angle (three roundings; folded to theta <= pi/2, where the
# sine's condition number is at most 1), the sine (4 ulp = 8u), two
# products, and one u to spare.
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


def _sine_transform(y: np.ndarray) -> np.ndarray:
    """The type-I DST sum_j y_j sin((i+1)(j+1) pi/N), i = 0..k, N = k+2: the
    real FFT of the odd extension (0, y, 0, -reversed y), built in one
    array, has p-th term -2i sum_j y_j sin(p (j+1) pi/N)."""
    np = _numpy()
    n = len(y)
    odd = np.empty(2 * n + 2)
    odd[0] = odd[n + 1] = 0.0
    odd[1:n + 1] = y
    np.negative(y[::-1], out=odd[n + 2:])
    return np.fft.rfft(odd).imag[1:n + 1] * -0.5


def _transform_bound(x: np.ndarray) -> float:
    """An a priori bound on the error of every raw tau-coefficient
    c = (2/N) DST-I(x), N = len(x) + 1, of the weighted values x, which are
    taken as exact.  The transform's error is at most _fft_error(2N)
    sqrt(N) ||x||_2 per entry (the odd extension has norm sqrt(2) ||x||_2,
    its DFT sqrt(2N) times that, and the DST takes half an imaginary part);
    the weighting and the scaling add at most _WEIGHT_ERROR sum |x_l| <=
    _WEIGHT_ERROR sqrt(N) ||x||_2, as |c_m| <= (2/N) sum |x_l|.  Both are
    scaled by 2/N, and _UNDERFLOW is added.  It reads x alone, so it is
    formed before any transform; inf or nan in x make it inf or nan."""
    n = len(x) + 1
    norm = math.hypot(*x.tolist())  # ||x||_2; neither underflows nor overflows
    return 2.0 / n * math.sqrt(n) * norm * (_fft_error(2 * n) + _WEIGHT_ERROR) + _UNDERFLOW


def to_idempotent(a: FusionElement) -> np.ndarray:
    """Expand in the idempotent basis: the values at the special points
    t_0, ..., t_k as a read-only float64 array, entry l being
    sum_m c_m sin((m+1)(l+1) pi/N) / sin((l+1) pi/N), all at once by one
    sine transform (``FusionElement.evaluate`` is the per-point route);
    PrecisionExhausted when a coefficient or a value is out of double range."""
    np = _numpy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            coeffs = np.array(a.coeffs, dtype=np.float64)
            values = _sine_transform(coeffs) / _s_rows(a.level, ())[0]
    except (OverflowError, FloatingPointError):
        raise PrecisionExhausted(f"a level-{a.level} element is out of double range") from None
    values.setflags(write=False)
    return values


def from_idempotent(values: Sequence[float]) -> FusionElement:
    """Recover tau-coefficients sum_l v[l] S[0,l] S[m,l], rounded to integers,
    from the values v at t_0, ..., t_k; the level k is len(values) - 1, and
    empty or not one-dimensional values raise ValueError.

    The raw coefficients are c = (2/N) DST-I(x), N = k+2, of the weighted
    values x_l = sin((l+1) pi/N) v_l, by one sine transform, and their
    error is bounded a priori from x (``_transform_bound``, the values taken
    as exact).  When that bound is not below 1/2, PrecisionExhausted is
    raised and no transform runs.  Each coefficient is then rounded by
    ``round_to_integer`` with that bound: NonIntegralCoefficient when it is
    further from an integer than both the bound and DEFAULT_TOLERANCE
    allow, which signals an inconsistent vector (or a wrong phase factor
    upstream), not a numerical hiccup; PrecisionExhausted when it is not
    finite or not below 2^53.  No allowance is below
    max(bound, DEFAULT_TOLERANCE), so a coefficient within that of its
    nearest integer, and below 2^53, is that integer without the full rule.
    The values are read by numpy, which it loads.
    """
    np = _numpy()
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not len(values):
        raise ValueError(f"need a non-empty 1-D vector of values, got shape {values.shape}")
    k = len(values) - 1
    x = values * _s_rows(k, ())[0]
    bound = _transform_bound(x)
    if not bound < 0.5:
        raise PrecisionExhausted(
            f"the tau-coefficients at level {k} have a rounding error bound of "
            f"{bound:.3e}, not below 1/2: double precision cannot certify them")
    lenient = max(bound, DEFAULT_TOLERANCE)
    out = []
    for m, c in enumerate((_sine_transform(x) * (2.0 / (k + 2))).tolist()):
        nearest = round(c) if abs(c) < _EXACT_INTEGER_BOUND else None
        if nearest is None or abs(c - nearest) > lenient:
            nearest = round_to_integer(c, exc=NonIntegralCoefficient,
                                       context=f"tau_{m} coefficient", bound=bound)
        out.append(nearest)
    return FusionElement._trusted(k, tuple(out))
