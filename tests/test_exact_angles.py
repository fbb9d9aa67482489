"""Every sine of the package against mpmath: the S-matrix entries, the
special-point values of ``FusionElement.evaluate`` and the fixed-point values
of ``localization_evaluate``, at levels where (m+1)(l+1) is far past k+2.

Each value is sin(e pi/N), N = k+2, for an integer e, and the package folds e
in integers into +-f with 0 <= f <= N/2 before its sine
(``fusion_ring._fold_angle``).  The relative error bounds below follow from
the operations that remain, u being 2^-53 and second-order terms absorbed by
rounding the bound up:

* The angle.  math.pi is pi within 0.36u relative; pi/(2N) and 2f pi/(2N)
  round once each, so the float angle is f pi/N within 2.36u relative.
* One sine.  On [-pi/2, pi/2] the sine's condition number |x cot x| is at
  most 1, so the angle's error passes through at most 2.36u; the sine itself
  adds at most one ulp, 2u (libm's and numpy's double sines are within one
  ulp, and odd, so the sign the fold gives costs nothing).  So a sine is
  within 4.36u.
* An S-matrix entry divides the sine by sqrt(k/2+1): k/2+1 is exact, and the
  square root and the division round once each.  6.36u: ``S_BOUND``.
* tau_m(t_l) = sin((m+1)(l+1) pi/N) / sin((l+1) pi/N) sums one term c sin
  with c = 1, which fsum keeps exact, and divides once: two sines and one
  rounding, 9.72u: ``EVALUATE_BOUND``.
* The localization value at l != k/2 is tau_{k/2}(t_l)^r / 2^(r-1): at r = 2
  one square (pow, within one ulp, 2u) of a 9.72u value, 21.44u:
  ``LOCALIZATION_BOUND``.  chi is 0 away from l = k/2 and 2^(r-1) is a power
  of two, so neither adds an error.

A value with (m+1)(l+1) = 0 mod N is zero and must be exactly 0.0.  An angle
(m+1)(l+1) pi/N rounded before its sine would carry an absolute error of up
to about (k+1)^2 u pi/N, a relative error of order k^2 u near a zero of the
sine; these bounds rule that out.
"""

import numpy as np
import pytest

from verlinde.fusion_ring import FusionElement, s_matrix, s_matrix_entry
from verlinde.quantization import localization_evaluate

mpmath = pytest.importorskip("mpmath")

U = 2.0 ** -53
S_BOUND = 6.5 * U
EVALUATE_BOUND = 10 * U
LOCALIZATION_BOUND = 22 * U


def _exact_sines(n: int) -> list:
    """sin(e pi/n) for e = 0..2n-1 at 160 bits: every e' = e mod 2n has the
    same sine, so the table covers every integer e."""
    with mpmath.workprec(160):
        pi = +mpmath.pi
        return [mpmath.sin(pi * e / n) for e in range(2 * n)]


def _split(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Each mpmath value as a double-double hi + lo."""
    with mpmath.workprec(160):
        hi = [float(v) for v in values]
        lo = [float(v - mpmath.mpf(h)) for v, h in zip(values, hi)]
    return np.array(hi), np.array(lo)


def _relative_errors(got: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """|got - (hi + lo)| / |hi|: got - hi is exact (the two are within a
    factor of 2), so the error is measured to far below u."""
    return np.abs((got - hi) - lo) / np.abs(hi)


def _check(got: np.ndarray, e: np.ndarray, n: int, hi: np.ndarray, lo: np.ndarray,
           bound: float, what: str):
    """Exact zeros where n divides e; elsewhere within ``bound``."""
    zero = e % n == 0
    assert np.all(got[zero] == 0.0), (what, got[zero][got[zero] != 0.0][:5])
    errors = _relative_errors(got[~zero], hi[~zero], lo[~zero])
    worst = float(errors.max()) if errors.size else 0.0
    assert worst <= bound, f"{what}: worst relative error {worst / U:.2f}u"


@pytest.mark.parametrize("k", [*range(31), 124, 300])
def test_every_s_matrix_entry(k):
    n = k + 2
    with mpmath.workprec(160):
        scale = 1 / mpmath.sqrt(mpmath.mpf(k) / 2 + 1)
        hi, lo = _split([s * scale for s in _exact_sines(n)])
    idx = np.arange(1, k + 2)
    e = np.outer(idx, idx)
    _check(s_matrix(k), e, n, hi[e % (2 * n)], lo[e % (2 * n)], S_BOUND, f"S at k={k}")


@pytest.mark.parametrize("k", [1000, 4000])
def test_sampled_s_matrix_rows(k):
    """Whole rows, read entry by entry, of 12 seeded rows and the last."""
    n = k + 2
    with mpmath.workprec(160):
        scale = 1 / mpmath.sqrt(mpmath.mpf(k) / 2 + 1)
        hi, lo = _split([s * scale for s in _exact_sines(n)])
    rows = [*np.random.default_rng(k).choice(k + 1, 12, replace=False).tolist(), k]
    got = np.array([[s_matrix_entry(k, m, l) for l in range(k + 1)] for m in rows])
    e = np.outer(np.array(rows) + 1, np.arange(1, k + 2))
    _check(got, e, n, hi[e % (2 * n)], lo[e % (2 * n)], S_BOUND, f"S rows at k={k}")


@pytest.mark.parametrize("k", [*range(1, 41), 124, 300, 1000])
def test_the_row_of_k_is_the_row_of_0_alternated(k):
    # (k+1)(l+1) = (k+2)(l+1) - (l+1) folds to the angle of l+1, negated for
    # odd l, and the sine is odd: S[k, l] = (-1)^l S[0, l] bit for bit.  So
    # the S-matrix sums of a surface without its labels k have the same
    # terms up to sign, and no larger error bound.
    smat = s_matrix(k)
    assert np.array_equal(smat[k], np.where(np.arange(k + 1) % 2, -smat[0], smat[0]))


def _tau_values(k: int, m: int, power: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """tau_m(t_l)^power for l = 0..k as double-doubles."""
    n, sines = k + 2, _exact_sines(k + 2)
    with mpmath.workprec(160):
        return _split([(sines[(m + 1) * (l + 1) % (2 * n)] / sines[l + 1]) ** power
                       for l in range(k + 1)])


@pytest.mark.parametrize("k", [300, 1000])
def test_evaluate_at_large_products(k):
    for m in (k, k - 1, k // 2 + 1, (2 * k) // 3):
        got = np.array([FusionElement.tau(k, m).evaluate(l) for l in range(k + 1)])
        e = (m + 1) * np.arange(1, k + 2)
        _check(got, e, k + 2, *_tau_values(k, m), EVALUATE_BOUND, f"tau_{m} at k={k}")


@pytest.mark.parametrize("k", [300, 1000])
def test_localization_at_large_products(k):
    """r = 2 away from l = k/2: tau_{k/2}(t_l)^2 / 2, exactly 0.0 at odd l."""
    half = k // 2
    others = np.array([l for l in range(k + 1) if l != half])
    hi, lo = _tau_values(k, half, power=2)
    got = np.array([localization_evaluate(k, 2, (0, 0), l) for l in others.tolist()])
    e = (half + 1) * (others + 1)
    _check(got, e, k + 2, hi[others] / 2, lo[others] / 2, LOCALIZATION_BOUND,
           f"localization at k={k}")
