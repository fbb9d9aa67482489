"""The certificate of the closed form against the S-matrix formula: the
level context, completeness over the Galois orbits, the mutants it must
catch, and the independence of its check at t_{k/2}."""

import math

import pytest

from verlinde import galois, oracles, quantization
from verlinde.cli import main
from verlinde.fusion_ring import FusionElement, _mobius
from verlinde.oracles import sweep_surfaces
from verlinde.prequant import SurfaceData, enumerate_choices

from test_oracles import _nonstar_sign_dropped


def _clear_quantization_caches():
    for obj in vars(quantization).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_quantization_caches()
    yield
    _clear_quantization_caches()


_SIEVE_LIMIT = math.isqrt(2**31) + 1


def _small_primes():
    sieve = bytearray([1]) * _SIEVE_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, _SIEVE_LIMIT, i)))
    return [i for i, flag in enumerate(sieve) if flag]


SMALL_PRIMES = _small_primes()


@pytest.mark.parametrize("k", [*range(0, 41), 124, 400, 1000, 4000])
def test_the_level_context(k):
    # The prime is a prime = 1 mod 2N in [2^28, 2^29), by trial division
    # here; the table is w_x = z^x - z^-x for z + 1/z = c: at every x the
    # Chebyshev step w_(x+1) + w_(x-1) = c w_x, over the whole period 2N;
    # w_x vanishes mod p only at x = 0 mod N, so z has order 2N; and the
    # orbits are the divisors g < N of 2N other than N/2.
    level, n = galois._level(k), k + 2
    p = level.prime
    assert 2**28 <= p < 2**29 and p % (2 * n) == 1
    assert all(p % q for q in SMALL_PRIMES)
    w = [level.w[x % (2 * n)] % p for x in range(2 * n + 1)]
    assert all(0 <= v < 2**30 for v in level.w)
    assert [x for x in range(2 * n + 1) if not w[x]] == [0, n, 2 * n]
    c = (w[2] * pow(w[1], -1, p)) % p
    assert all((w[x + 1] + w[x - 1] - c * w[x]) % p == 0 for x in range(1, 2 * n))
    assert level.orbits == tuple(g for g in range(1, n) if (2 * n) % g == 0 and 2 * g != n)
    assert galois._level.__wrapped__(k) == level  # the draw is seeded


def test_a_level_with_no_prime_below_2_29_draws_one_below_2_31():
    # 2N = 10^8 has no prime t 2N + 1 in [2^28, 2^29): the search goes on
    # in [2^29, 2^31), where Miller-Rabin to the bases 2, 7, 61 is still exact
    m = 10**8
    assert not any(galois._is_prime(m * t + 1) for t in range(3, 6))
    p = galois._draw_prime(m, 0)
    assert 2**29 <= p < 2**31 and p % m == 1 and all(p % q for q in SMALL_PRIMES)


def _orbit_element(k, g):
    """E_g, with coefficients c_q(m) - c_q(m+2), q = 2N/g, c_q(n) Ramanujan's
    sum, the sum over d | gcd(n, q) of mu(q/d) d: 2N times the sum of the
    idempotents of the orbit of g, so its values are 2N at t_(j-1) for
    gcd(j, 2N) = g and 0 at every other special point."""
    q = 2 * (k + 2) // g
    terms = [(d, _mobius(q // d) * d) for d in range(1, q + 1) if q % d == 0]
    c = [sum(t for d, t in terms if n % d == 0) for n in range(k + 3)]
    return FusionElement(k, tuple(c[m] - c[m + 2] for m in range(k + 1)))


_BASE = quantization._closed_form_base


def _with_base(monkeypatch, shift):
    """``quantization._closed_form_base`` with ``shift`` (a function of the
    surface) added to X, and the caches cleared."""
    monkeypatch.setattr(quantization, "_closed_form_base", lambda s: _BASE(s) + shift(s))
    _clear_quantization_caches()


def _graded(surf, element):
    """``element``'s part of the grade of the surface's X, the m with
    m = r k/2 + the non-star labels mod 2: the other part must be 0."""
    grade = (surf.star_count * (surf.level // 2) + sum(surf.nonstar_labels)) % 2
    return FusionElement(surf.level, tuple(c if (m - grade) % 2 == 0 else 0
                                           for m, c in enumerate(element.coeffs)))


def _grade_message(surf, p):
    grade = (surf.star_count * (surf.level // 2) + sum(surf.nonstar_labels)) % 2
    return (f"the closed form of {surf} disagrees with the S-matrix formula: its tau_m "
            f"coefficients with m + {grade} odd are not all 0, as the formula's grade "
            f"{grade} requires (prime {p})")


def _orbit_message(surf, g, p):
    return (f"the closed form of {surf} disagrees with the S-matrix formula at t_{g - 1}, "
            f"the orbit of j = {g} mod 2N = {2 * (surf.level + 2)}, mod the prime {p}")


def _caught_at(surf, g):
    """The orbit that catches X's grade part of E_g: E_g's values are 2N on
    the orbit of g and 0 elsewhere, and a grade's part has the values
    (v(t_j) +- v(t_(N-j))) / 2, so it is nonzero on the orbit of g and on
    that of N - g, the orbits being checked in rising order."""
    n = surf.level + 2
    return min(g, math.gcd(n - g, 2 * n))


@pytest.mark.parametrize("surf", [SurfaceData(400, 2, (91, 156, 200, 200)),
                                  SurfaceData(1000, 2, (500, 500, 7, 993)),
                                  SurfaceData(4000, 1, (2000, 2000, 7))],
                         ids=lambda s: f"k{s.level}")
def test_an_orbit_mutant_fails_at_its_orbit(monkeypatch, fresh_caches, surf):
    # X + |Gamma| E_g differs from X on the orbit of g alone, and still
    # divides by |Gamma|: its first request fails the certificate, which
    # names the surface and the prime: its part outside X's grade fails the
    # grade check, and its part in X's grade (nonzero on the orbits of g and
    # N - g) fails at the first of them.
    k, orbits = surf.level, galois._level(surf.level).orbits
    assert len(orbits) == {400: 9, 1000: 9, 4000: 21}[k]
    p, size = galois._level(k).prime, surf.gamma_size()
    for g in orbits:
        whole = _orbit_element(k, g)
        graded = _graded(surf, whole)
        cases = [(whole * size, _grade_message(surf, p) if graded != whole else None)]
        if not graded.is_zero():
            cases.append((graded * size, _orbit_message(surf, _caught_at(surf, g), p)))
        for mutant, message in cases:
            _with_base(monkeypatch, lambda s: mutant)
            for path in (quantization.fs_formula, quantization.reduced_quantization):
                with pytest.raises(galois.CertificateMismatch) as info:
                    path(surf, None)
                if message:
                    assert str(info.value) == message
    monkeypatch.undo()
    _clear_quantization_caches()
    closed = quantization.quantize_surface(surf)
    assert quantization.fs_formula(surf).element == closed.element


@pytest.mark.parametrize("k", range(1, 41))
def test_every_orbit_is_checked_at_every_small_level(monkeypatch, fresh_caches, k):
    surf = SurfaceData(k, 0, (2 if k > 2 else 0,))
    folded, level = surf._folded or surf, galois._level(k)
    for g in level.orbits:
        whole = _orbit_element(k, g)
        graded = _graded(folded, whole)
        assert not whole.is_zero()
        for mutant, message in ((whole, None), (graded, _orbit_message(
                folded, _caught_at(folded, g), level.prime))):
            if mutant.is_zero():
                continue
            _with_base(monkeypatch, lambda s: mutant)
            with pytest.raises(galois.CertificateMismatch) as info:
                quantization.fs_formula(surf)
            assert message is None or str(info.value) == message


@pytest.mark.parametrize("k", [400, 1000, 4000])
def test_one_more_in_one_coefficient_is_caught(monkeypatch, fresh_caches, k):
    # |Gamma| = 1, so the closed form divides nothing; an odd m leaves the
    # value at t_{k/2} alone, so only the orbits see it
    surf = SurfaceData(k, 0, (k // 2, 91, 156))
    for m in (1, 7, k // 2 + 1, k - 1):
        _with_base(monkeypatch, lambda s: FusionElement.tau(k, m))
        with pytest.raises(galois.CertificateMismatch, match="disagrees with the S-matrix"):
            quantization.fs_formula(surf)


def test_a_dropped_nonstar_sign_is_caught(monkeypatch, fresh_caches):
    # tau_2(t_4) = -1 at k = 8: with its sign dropped, the closed form still
    # divides exactly, and fs's check at t_{k/2} refuses the first request
    surf = SurfaceData(8, 1, (4, 2))
    monkeypatch.setattr(quantization, "_half_value", _nonstar_sign_dropped)
    _clear_quantization_caches()
    quantization.quantize_surface(surf)
    with pytest.raises(galois.CertificateMismatch, match=r"class \(a=0, d=0\) .* at t_4"):
        quantization.fs_formula(surf)
    with pytest.raises(galois.CertificateMismatch):
        quantization.reduced_quantization(surf)


def test_a_wrong_double_sign_is_caught(monkeypatch, fresh_caches):
    # _double_factor times (-1)^d: at k = 2 mod 4 the d = 1 classes change,
    # and each first request of one raises; d = 0 is unchanged
    double_factor = quantization._double_factor
    monkeypatch.setattr(quantization, "_double_factor",
                        lambda k, h, d: double_factor(k, h, d) * (-1) ** d)
    surf = SurfaceData(10, 1, (4,))
    for choice in enumerate_choices(surf):
        d = quantization._canonical_class(surf, choice)[2]
        if d:
            with pytest.raises(galois.CertificateMismatch, match=r"class \(a=0, d=1\)"):
                quantization.fs_formula(surf, choice)
        else:
            quantization.fs_formula(surf, choice)


def test_a_mismatch_exits_2_naming_the_surface_prime_and_orbit(monkeypatch, capsys,
                                                              fresh_caches):
    _with_base(monkeypatch, lambda s: _graded(s, _orbit_element(s.level, 2)) * s.gamma_size())
    argv = ["quantize", "--level", "64", "--genus", "2", "--labels", "32,32,32,32,57"]
    assert main(argv) == 0  # the closed path reads no certificate
    for path in (["--path", "fs"], ["--path", "closed", "--reduced"]):  # but --reduced does
        assert main([*argv, *path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: the closed form of "
                              "SurfaceData(level=64, genus=2, labels=(32, 32, 32, 32, 57))")
        assert (f"t_1, the orbit of j = 2 mod 2N = 132, mod the prime "
                f"{galois._level(64).prime}") in err


def _raising(*args):
    raise AssertionError("the check at t_{k/2} read a closed-form helper")


def test_the_check_at_half_reads_no_closed_form_helper(monkeypatch, fresh_caches):
    # Each class's value at t_{k/2} is written once, in these helpers; fs's
    # check there must compute without them, on the sweep and the label box.
    helpers = ("_half_value", "_chi_coefficient", "_krawtchouk_sum", "_double_factor",
               "_tau_at_half")
    check, calls = galois.check_half, []

    def guarded(*args):
        calls.append(args)
        with monkeypatch.context() as patch:
            for helper in helpers:
                patch.setattr(quantization, helper, _raising)
            return check(*args)

    monkeypatch.setattr(quantization, "check_half", guarded)
    requests = 0
    for surf in (*sweep_surfaces(12, 4, 2), *oracles._label_box(8, 4, 2)):
        for choice in enumerate_choices(surf):
            closed = quantization.quantize_surface(surf, choice)
            assert quantization.fs_formula(surf, choice).element == closed.element
            requests += 1
    assert requests > 5000 and len(calls) > 500
