"""Exact certificates of the closed form against the S-matrix formula,
mod one prime, at one point per Galois orbit.

An integer tau-vector is zero iff its values at the special points t_l
vanish, as S is invertible; and the value at t_l of sum_m c_m tau_m is
F(zeta^j), j = l+1, zeta = exp(i pi/N), N = k+2, for the integer Laurent
polynomial F = sum_m c_m chi_m.  The automorphisms zeta -> zeta^a,
gcd(a, 2N) = 1, permute the j that share g = gcd(j, 2N), so F vanishes at
one of them iff it vanishes at all: one point j = g per divisor g < N of 2N
checks every value, the Galois symmetry of modular data (Coste and Gannon,
Phys. Lett. B 323 (1994) 316; Washington, *Introduction to Cyclotomic
Fields*, ch. 2).  j = N/2 is t_{k/2}, an orbit of its own, the one point
where a choice acts.

Mod a prime p = 1 mod 2N, z of order 2N, Z[zeta] maps to F_p by zeta -> z,
and 2i sin(x pi/N) to w_x = z^x - z^-x.  So tau_m(t_l) maps to
w_((m+1)j) / w_j and D_SU(2)(t_l) = S[0, l]^-2 = N / (2 sin^2(j pi/N)) to
-2N / w_j^2.  Per level, ``_level`` holds p, drawn by a seeded search below
2^31 (in [2^28, 2^29) where it has one) and tested by deterministic
Miller-Rabin, the table w and the orbit representatives.  Per surface,
``certify`` compares, at each representative other than N/2, the value of
X = tau_{k/2}^r D_SU(2)^h prod tau_m (non-star m) from its coefficients
mod p, sum_m c_m w_((m+1)j) / w_j, with the product formula, both sides
times a power of w_j so that no inverse is taken.  A class's element
(X + mu chi) / |Gamma| takes X / |Gamma|'s value away from t_{k/2}, so that
covers every class of the surface there.  At t_{k/2}, ``check_half``
recomputes |Gamma| times each class's value from the blocks' literal sums.
A nonzero value can still vanish mod p when p divides its norm; p differs
from level to level and no one prime is built in, so this is a certificate
up to that chance, not a proof.  A failure raises ``CertificateMismatch``,
an InexactDivision: a real disagreement, never a precision limit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import NamedTuple

from .fusion_ring import FusionElement, InexactDivision
from .prequant import SurfaceData, double_sign, star_sign

__all__ = ["CertificateMismatch", "certify", "check_half"]


class CertificateMismatch(InexactDivision):
    """The closed form disagrees with the S-matrix formula mod the level's
    prime: at a named orbit, or in its grade."""


# Trial division before Miller-Rabin: the odd primes below 50, as one gcd.
_SMALL_PRIMES = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))

_SEED = 0x5EED  # of the per-level prime draws, with Knuth's multiplicative hash
_HASH = 2654435761


def _is_prime(n: int) -> bool:
    """Whether the odd n in [2^28, 2^31) is prime: trial division by the
    primes below 50, then Miller-Rabin to the bases 2, 7 and 61, which is
    exact below 4,759,123,141."""
    if math.gcd(n, _SMALL_PRIMES) != 1:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw_prime(m: int, seed: int) -> int:
    """A prime p = m t + 1 below 2^31: the first one from a point drawn from
    ``seed`` in [2^28, 2^29), searched upward and wrapped once, else in
    [2^29, 2^31), which only levels past about 10^7 reach.  Below 2^29 a sum
    of two residues is still below 2^30, one digit of a CPython int, where
    products and remainders take the fast paths: they cost half what they
    do at 31 bits."""
    for bottom, top in ((2**28, 2**29), (2**29, 2**31)):
        low, high = -(-(bottom - 1) // m), (top - 2) // m
        span, start = high - low + 1, seed * _HASH
        for i in range(span):
            p = m * (low + (start + i) % span) + 1
            if _is_prime(p):
                return p
    raise ValueError(f"no prime = 1 mod {m} below 2^31")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if not n % q:
            out.append(q)
            while not n % q:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


class _Level(NamedTuple):
    """The arithmetic of one level mod its prime."""

    prime: int
    w: list[int]  # w_x mod p in [0, p], x = 0..6N-1, three periods of 2N: w_(x+N) = -w_x
    orbits: tuple[int, ...]  # one representative j = g per orbit, g = N/2 left out
    parents: tuple[int, ...]  # g / (its least prime factor), 0 for g = 1 (``certify``)


# One per level: every surface of a level reads it, and the sweep and
# verify visit their levels in turn.  An entry holds 3N/2 ints below 2^30
# (w_(N-x) is w_x's object) and 6N references, about 98 N bytes: 39 kB at
# k = 400, 385 kB at k = 4000.  Eight entries: a workload of one request
# per level, as the benchmark's high_level, gets no hit from any.
@lru_cache(maxsize=8)
def _level(k: int) -> _Level:
    """Level k's prime p = 1 mod 2N, N = k+2, its table w_x = z^x - z^-x
    from a z of order 2N, and the orbit representatives: the divisors g < N
    of 2N other than N/2, each with its parent g / (least prime factor of
    g), a divisor of g and a representative itself (it is below N/2).
    z is the product over the primes q of 2N, q^v its power in 2N, of
    y^(2N/q^v), y = a^((p-1)/2N) for the first prime a whose y has the full
    q-part, y^(2N/q) != 1: elements of the coprime orders q^v, found with
    about half the powers that one a for every q at once needs.  w_0..w_(N/2)
    follow w_(x+1) = c w_x - w_(x-1), c = z + z^-1, from w_0 = 0, with
    z^-1 = z^N z^(N-1) = -z^(N-1); then w_(N-x) = w_x, as z^N = -1, and
    w_(x+N) = -w_x, kept as p - w_x, so entries lie in [0, p]: every reader
    reduces what it sums or compares."""
    n = k + 2
    m = 2 * n
    p = _draw_prime(m, _SEED + k)
    factors = _prime_factors(m)
    divisors, parts = [1], {}  # parts[q] = q^v, the power of q in 2N
    for q in factors:
        parts[q], multiples = 1, []
        while not m // parts[q] % q:
            parts[q] *= q
            multiples += [d * parts[q] for d in divisors]
        divisors += multiples
    t, z, missing = (p - 1) // m, 1, set(factors)
    for a in (a for a in range(2, p) if all(a % d for d in range(2, math.isqrt(a) + 1))):
        y = pow(a, t, p)
        for q in [q for q in missing if pow(y, m // q, p) != 1]:
            z = z * pow(y, m // parts[q], p) % p
            missing.remove(q)
        if not missing:
            break
    z_inv = -pow(z, n - 1, p)
    w, c = [0, (z - z_inv) % p], (z + z_inv) % p
    for _ in range(n // 2 - 1):
        w.append((c * w[-1] - w[-2]) % p)
    w += w[(n - 1) // 2:0:-1]  # w_(N-x) = w_x
    orbits = tuple(sorted(g for g in divisors if g < n and 2 * g != n))
    parents = tuple(g // next(q for q in factors if not g % q) if g > 1 else 0
                    for g in orbits)
    return _Level(p, (w + list(map(sub, repeat(p, n), w))) * 3, orbits, parents)


def _residues(e: list[int], period: int) -> list[int]:
    """e summed into its residues mod ``period``, e given as its first
    len(e) entries, the rest 0: e itself when it is no longer, else by
    strided sums or by fewer than 8 chunks."""
    n = len(e)
    if n <= period:
        return e
    if 8 * period <= n:
        return [sum(e[x::period]) for x in range(period)]
    folded = e[:period]
    for i in range(period, n, period):
        chunk = e[i:i + period]
        folded[:len(chunk)] = map(add, folded, chunk)
    return folded


def certify(surface: SurfaceData, x: FusionElement) -> tuple[int, tuple[int, ...]]:
    """The level's prime and orbit representatives, once X = ``x``, the
    surface's closed-form base, has matched the product formula
    tau_{k/2}(t_j)^r D(t_j)^h prod tau_m(t_j) mod p at every representative
    j = g other than N/2: X(t_j) w_j = sum_m c_m w_((m+1)j), and the
    formula's factors are w_((N/2)j), -2N and w_((m+1)j) over powers of
    w_j, so the two sides are compared times w_j^(r + 2h + s - 1), s the
    non-star label count (times w_j on the formula's side when that is -1).

    The fusion ring is graded by m mod 2, D_SU(2) is even, and so X has
    the grade pi of r k/2 plus the non-star labels: c_m = 0 for the other
    m, checked in integers first.  The sum reads the c_m of grade pi alone,
    reduced mod p once, e_i = c_(pi + 2i), each times w_((pi + 1 + 2i) g).
    That factor has period L = 2N/g in i, or N/g when g divides N, so e is
    summed into its L residues and dotted with one slice of L entries of
    the table.  The residues mod L are those of the parent's residues, mod
    a multiple of L, so each orbit folds its parent's, not all of e.
    Raises CertificateMismatch naming the surface, the prime and the orbit."""
    k, r, h = surface.level, surface.star_count, surface.genus
    labels = surface.nonstar_labels
    level = _level(k)
    p, w, n = level.prime, level.w, k + 2
    m = 2 * n
    grade = (r * (k // 2) + sum(labels)) % 2
    if any(x.coeffs[1 - grade::2]):
        raise CertificateMismatch(
            f"the closed form of {surface} disagrees with the S-matrix formula: its "
            f"tau_m coefficients with m + {grade} odd are not all 0, as the formula's "
            f"grade {grade} requires (prime {p})")
    residues = {0: [c % p for c in x.coeffs[grade::2]]}  # the parent of g = 1: e mod p
    power, doubles = r + 2 * h + len(labels) - 1, pow(-m, h, p)
    for g, parent in zip(level.orbits, level.parents):
        period = m // g if (n // g) * g != n else n // g
        start = (grade + 1) * g
        folded = residues[g] = _residues(residues[parent], period)
        value = sum(map(mul, folded, w[start:start + 2 * g * period:2 * g]))
        formula = doubles * pow(w[n // 2 * g % m], r, p) if r else doubles
        for label in labels:
            formula = formula * w[(label + 1) * g % m] % p
        if power < 0:
            formula *= w[g]
        else:
            value *= pow(w[g], power, p)
        if (value - formula) % p:
            raise CertificateMismatch(
                f"the closed form of {surface} disagrees with the S-matrix formula at "
                f"t_{g - 1}, the orbit of j = {g} mod 2N = {m}, mod the prime {p}")
    return p, level.orbits


def _times(f: tuple[int, int], g: tuple[int, int], x: int) -> tuple[int, int]:
    """(u + v y)(u' + v' y) in Z[y]/(y^2 - x)."""
    return f[0] * g[0] + x * f[1] * g[1], f[0] * g[1] + f[1] * g[0]


def _power(f: tuple[int, int], n: int, x: int) -> tuple[int, int]:
    """f^n in Z[y]/(y^2 - x), by binary powering."""
    out = (1, 0)
    while n:
        if n & 1:
            out = _times(out, f, x)
        n >>= 1
        if n:
            f = _times(f, f, x)
    return out


# The three gamma != e of one double, Z x Z, as bit pairs.
_DOUBLE_GAMMAS = ((1, 0), (0, 1), (1, 1))


def check_half(surface: SurfaceData, a: int, d: int, element: FusionElement) -> None:
    """Check |Gamma| times ``element``'s value at t_{k/2}, k even, against
    the class (a, d)'s literal block sums, read with none of the closed
    form's helpers:

    * the star block's sum over its sign group, prod_j (tau + psi_j y) over
      the r star slots, the even part at y^2 = sigma (k/2+1), where
      y^w = star_sign(k, r, w) (k/2+1)^(w/2), tau = tau_{k/2}(t_{k/2}), and
      psi_j = -1 on the a slots with a psi bit: by powering in Z[y]/(y^2 - x);
    * each double's (D_SU(2) + e chi) / 4 times 4, (k/2+1)(1 + e), e being
      double_sign(k) times phi summed over the three gamma != e, phi = (0, 1)
      on d doubles and (0, 0) on the others: their literal product;
    * each non-star label's sign tau_m(t_{k/2}) = w_((m+1)N/2) / w_(N/2).

    The element's value is c_0 - c_2 + c_4 - ..., as tau_m(t_{k/2}) =
    sin((m+1) pi/2).  Raises CertificateMismatch naming the class, the
    surface and the prime."""
    k, r, h = surface.level, surface.star_count, surface.genus
    level, n = _level(k), k + 2
    half, p = n // 2, level.prime
    unit = level.w[half] % p

    def sign(label: int) -> int:
        value = level.w[(label + 1) * half % (2 * n)] % p
        return 0 if not value else 1 if value == unit else -1

    tau, x = sign(k // 2), star_sign(k, r, 2) * half
    star = _times(_power((tau, -1), a, x), _power((tau, 1), r - a, x), x)[0]
    doubles = 1
    if h:
        trivial, flipped = (half * (1 + double_sign(k) * sum(
            (-1) ** (phi[0] & gamma[0] ^ phi[1] & gamma[1]) for gamma in _DOUBLE_GAMMAS))
            for phi in ((0, 0), (0, 1)))
        doubles = math.prod([flipped] * d + [trivial] * (h - d))
    want = math.prod(map(sign, surface.nonstar_labels)) * doubles * star
    c = element.coeffs
    got = surface.gamma_size() * (sum(c[::4]) - sum(c[2::4]))
    if got != want:
        raise CertificateMismatch(
            f"the class (a={a}, d={d}) of {surface} has {got} as |Gamma| times its value at "
            f"t_{k // 2}, the orbit of j = N/2 = {half}, where the literal block sums give "
            f"{want} (signs mod the prime {p})")
