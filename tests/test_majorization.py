"""Singular values, and the Ky Fan and Schatten norms built from them."""

import numpy as np
import pytest

from bohrcheck.linalg import (
    DimensionError,
    complex_gaussian,
    eig_hermitian,
    make_rng,
    random_hermitian,
    random_unitary,
)
from bohrcheck.majorization import (
    ky_fan_max_estimate,
    schatten_of_values,
    singular_values,
)
from oracles import kyfan_ref, schatten_ref, svd_singular_values


def _ky_fan(a, k: int) -> float:
    """Ky Fan k-norm: the top-k partial sum of the library's singular values."""
    return float(np.sum(singular_values(a)[:k]))


def _schatten(a, p: float) -> float:
    """Schatten p-norm as the checkers form it: singular values, then the sum."""
    return schatten_of_values(singular_values(a), p)


# --- singular values ----------------------------------------------------------------


def test_singular_values_hand_cases():
    assert np.allclose(singular_values(np.array([[0.0, 1.0], [0.0, 0.0]])), [1.0, 0.0], atol=1e-12)
    assert np.allclose(singular_values(np.diag([-3.0, 2.0])), [3.0, 2.0], atol=1e-12)
    u = random_unitary(4, make_rng(32))
    assert np.allclose(singular_values(u), np.ones(4), atol=1e-11)


def test_singular_values_match_svd_oracle():
    rng = make_rng(33)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        a = complex_gaussian((n, n), rng) * float(rng.uniform(0.1, 3.0))
        got = singular_values(a)
        want = np.sort(svd_singular_values(a))[::-1]
        assert np.all(np.diff(got) <= 1e-12)
        assert np.allclose(got, want, atol=1e-9 * max(1.0, want[0]))
        assert np.all(got >= 0.0)


def test_singular_values_refuse_a_gram_matrix_that_overflows():
    # diag(1e200, 1) is finite but its A*A is not; eigvalsh gave [0, 0] for it.
    with pytest.raises(np.linalg.LinAlgError, match=r"^A\*A overflows"):
        singular_values(np.diag([1e200, 1.0]))
    assert singular_values(np.diag([1e150, 1.0]))[0] == pytest.approx(1e150, rel=1e-15)


def test_singular_values_rejects_rectangles():
    with pytest.raises(DimensionError):
        singular_values(np.zeros((2, 3)))


# --- Ky Fan norms --------------------------------------------------------------------


def test_ky_fan_norm_monotone_in_k_and_matches_oracle():
    rng = make_rng(34)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = complex_gaussian((n, n), rng)
        vals = [_ky_fan(a, k) for k in range(1, n + 1)]
        assert np.all(np.diff(vals) >= -1e-12)
        for k in range(1, n + 1):
            assert vals[k - 1] == pytest.approx(kyfan_ref(a, k), abs=1e-9)


def test_ky_fan_norm_unitary_invariance():
    rng = make_rng(35)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = complex_gaussian((n, n), rng)
        u = random_unitary(n, rng)
        v = random_unitary(n, rng)
        for k in (1, n):
            assert _ky_fan(u @ a @ v, k) == pytest.approx(_ky_fan(a, k), abs=1e-9)


def test_ky_fan_triangle_inequality():
    rng = make_rng(36)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = complex_gaussian((n, n), rng)
        b = complex_gaussian((n, n), rng)
        for k in range(1, n + 1):
            slack = _ky_fan(a, k) + _ky_fan(b, k) - _ky_fan(a + b, k)
            assert slack >= -1e-9


# --- Ky Fan dominance -------------------------------------------------------------------


def test_ky_fan_dominance_implies_schatten_domination():
    rng = make_rng(38)
    seen = 0
    while seen < 40:
        n = int(rng.integers(2, 6))
        a = complex_gaussian((n, n), rng)
        g = complex_gaussian((n, n), rng)
        b = a + 0.2 * g + 1.5 * np.eye(n)  # usually dominates
        if any(kyfan_ref(a, k) > kyfan_ref(b, k) + 1e-12 for k in range(1, n + 1)):
            continue
        seen += 1
        for p in (1.0, 1.5, 2.0, 3.0, 10.0):
            assert _schatten(a, p) <= _schatten(b, p) + 1e-8


# --- Schatten norms -------------------------------------------------------------------------


def test_schatten_norm_hand_cases():
    a = np.diag([3.0, 4.0])
    assert _schatten(a, 2.0) == pytest.approx(5.0, abs=1e-12)
    assert _schatten(a, 1.0) == pytest.approx(7.0, abs=1e-12)


def test_schatten_norm_p1_is_trace_norm():
    rng = make_rng(39)
    for _ in range(50):
        a = complex_gaussian((4, 4), rng)
        assert _schatten(a, 1.0) == pytest.approx(kyfan_ref(a, 4), abs=1e-10)


def test_schatten_norm_large_p_approaches_top_singular_value():
    rng = make_rng(40)
    for _ in range(20):
        a = complex_gaussian((5, 5), rng)
        top = singular_values(a)[0]
        assert abs(_schatten(a, 64.0) - top) <= 0.05 * top


def test_schatten_norm_overflow_safe_at_huge_scale():
    rng = make_rng(41)
    a = complex_gaussian((4, 4), rng)
    big = 1e40 * a
    got = _schatten(big, 10.0)
    assert np.isfinite(got)
    assert got == pytest.approx(1e40 * _schatten(a, 10.0), rel=1e-12)
    # The naive sum of tenth powers would have overflowed.
    with np.errstate(over="ignore"):
        assert svd_singular_values(big)[0] ** 10 == np.inf


def test_schatten_norm_matches_oracle_in_normal_range():
    rng = make_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = complex_gaussian((n, n), rng)
        p = float(rng.uniform(1.0, 8.0))
        assert _schatten(a, p) == pytest.approx(schatten_ref(a, p), rel=1e-10, abs=1e-10)


def test_schatten_of_values_is_the_norm_of_its_values():
    assert schatten_of_values([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-12)
    assert schatten_of_values([0.0, 0.0], 3.0) == 0.0
    with pytest.raises(ValueError):
        schatten_of_values([1.0], 0.5)
    rng = make_rng(46)
    for _ in range(50):
        a = complex_gaussian((4, 4), rng)
        p = float(rng.uniform(1.0, 8.0))
        s = singular_values(a)
        got = schatten_of_values(s, p)
        assert got == pytest.approx(schatten_ref(a, p), rel=1e-10)
        # Summation order is the caller's: reversed sums agree to roundoff.
        assert schatten_of_values(s[::-1], p) == pytest.approx(got, rel=1e-13)


def test_schatten_of_values_over_orders_is_each_order_alone():
    orders = (1.0, 1.5, 2.0, 3.0, 10.0)
    rng = make_rng(47)
    # On x86-64 numpy 2.4, one power with an array of exponents misses
    # numpy's exact square at p = 2 on these vectors; a scalar exponent
    # per order does not.
    pinned = [[2.8, 0.257, 2.535], [1.668, 0.72, 2.224], [2.381, 1.197, 1.782, 2.212]]
    drawn = [np.clip(3.0 * rng.standard_normal(int(rng.integers(1, 9))), 0.0, None) for _ in range(500)]
    for v in pinned + drawn + [[0.0, 0.0]]:
        got = schatten_of_values(v, orders)
        assert isinstance(got, list) and len(got) == len(orders)
        assert [x.hex() for x in got] == [schatten_of_values(v, q).hex() for q in orders]
    with pytest.raises(ValueError, match="p >= 1, got 0.5"):
        schatten_of_values([1.0], (2.0, 0.5))


# --- Ky Fan maximum principle ------------------------------------------------------------------


def test_ky_fan_max_estimate_diagonal_case():
    a = np.diag([3.0, 2.0, 1.0])
    got = ky_fan_max_estimate(a, 2, trials=50, rng=make_rng(43))
    assert got == pytest.approx(5.0, abs=1e-11)


def test_ky_fan_max_estimate_full_frame_is_trace():
    rng = make_rng(44)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_hermitian(n, (-2.0, 2.0), rng)
        got = ky_fan_max_estimate(a, n, trials=5, rng=rng)
        assert got == pytest.approx(float(np.real(np.trace(a))), abs=1e-10)


def test_ky_fan_max_estimate_never_beats_eigen_sum():
    rng = make_rng(45)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        a = random_hermitian(n, (-3.0, 3.0), rng)
        bound = float(np.sum(eig_hermitian(a).eigenvalues[:k]))
        got = ky_fan_max_estimate(a, k, trials=60, rng=rng)
        assert got <= bound + 1e-10
        assert got >= bound - 1e-11  # eigenvector frame attains the maximum


def test_ky_fan_max_estimate_validates_inputs():
    with pytest.raises(ValueError):
        ky_fan_max_estimate(np.eye(2), 0, trials=1, rng=make_rng(1))
    with pytest.raises(ValueError):
        ky_fan_max_estimate(np.eye(2), 1, trials=0, rng=make_rng(1))
