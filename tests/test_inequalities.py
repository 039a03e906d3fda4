"""Inequality checkers: hand values, equality families, gating, cross-checks."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from bohrcheck.calculus import make_function_spec
from bohrcheck.cpmaps import Congruence, DiagonalPOVM
from bohrcheck.inequalities import (
    NumericalError,
    _graded_report,
    check_cor_congruence,
    check_eigen_bohr,
    check_increasing_convex_eigen,
    check_jensen_map,
    check_jensen_vector,
    check_norm_bohr,
    check_pointwise_bohr_r2,
    check_scalar_bohr,
    check_sum_square,
    check_thm_weak_major,
    check_vasic_keckic,
)
from bohrcheck.linalg import (
    DimensionError,
    complex_gaussian,
    make_rng,
    random_hermitian,
    random_map_family,
    random_unitary,
)
from bohrcheck import serialize
from bohrcheck.harness import CampaignConfig, run_campaign, run_instance
from oracles import fun_hermitian_ref, graded_report_ref, partial_sums_desc

DIAG1 = np.diag([1.0, 0.0]).astype(complex)
DIAG2 = np.diag([0.0, 1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)


# --- conjugate weights ------------------------------------------------------------


def test_bohr_conjugate_exponent_reading():
    # The exponent is 1/(1-r), never 1/(r-1): for p=4, r=3 that is
    # 4^(-1/2) = 1/2 rather than 4^(1/2) = 2, so the Vasic-Keckic
    # constant (sum p^(1/(1-r)))^(r-1) is 1/4, not 4.
    rep = check_vasic_keckic([1.0], [4.0], 3.0)
    assert rep.extras["constant"] == pytest.approx(0.25, abs=1e-15)


# --- scalar Bohr ----------------------------------------------------------------------


def test_scalar_bohr_equality_at_unit_point():
    rep = check_scalar_bohr(1.0, 1.0, 2.0)
    assert rep.holds
    assert rep.partial_sums_lhs == (4.0,)
    assert rep.partial_sums_rhs == (4.0,)
    assert rep.min_slack == 0.0
    assert rep.extras["equality_case"]
    assert rep.extras["equality_ks"] == [1]


def test_scalar_bohr_equality_family_exact():
    rng = make_rng(80)
    for _ in range(100):
        p = float(rng.uniform(1.05, 5.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = (p - 1.0) * z
        rep = check_scalar_bohr(z, w, p)
        assert rep.holds
        scale = max(1.0, abs(z), abs(w))
        assert abs(rep.min_slack) <= 1e-12 * max(1.0, scale**2)
        assert rep.extras["equality_case"]


def test_scalar_bohr_generic_strictness_and_q():
    rep = check_scalar_bohr(1.0, 3.0, 1.5)
    assert rep.holds
    assert rep.extras["q"] == pytest.approx(3.0)
    assert rep.min_slack > 0.1  # not the equality configuration


def test_scalar_bohr_gates_on_p():
    for p in (1.0, 0.5, -2.0):
        rep = check_scalar_bohr(1.0, 1.0, p)
        assert rep.not_applicable and not rep.violated
        assert rep.failed_hypotheses() == ("p > 1",)
    with pytest.raises(ValueError):
        check_scalar_bohr(float("nan"), 1.0, 2.0)


# --- Vasic-Keckic -----------------------------------------------------------------------


def test_vasic_stationary_family():
    rng = make_rng(81)
    for _ in range(100):
        ell = int(rng.integers(1, 6))
        p = rng.uniform(0.5, 2.0, ell)
        r = float(rng.uniform(1.1, 4.0))
        z = p ** (1.0 / (1.0 - r))
        rep = check_vasic_keckic(z.astype(complex), p, r)
        assert rep.holds
        assert rep.extras["stationary_point"]
        scale = max(1.0, float(np.max(rep.partial_sums_rhs)))
        assert abs(rep.min_slack) <= 1e-10 * scale


def test_vasic_demo_value():
    p = np.array([0.5, 1.0, 2.0])
    r = 2.5
    z = p ** (1.0 / (1.0 - r))
    rep = check_vasic_keckic(z.astype(complex), p, r)
    assert rep.partial_sums_lhs[0] == pytest.approx(18.5673, abs=1e-3)
    assert rep.min_slack == pytest.approx(0.0, abs=1e-10)


def test_vasic_constant_and_random_holds():
    rng = make_rng(82)
    for _ in range(200):
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.3, 3.0, ell)
        r = float(rng.uniform(1.05, 4.0))
        z = rng.uniform(-2, 2, ell) + 1j * rng.uniform(-2, 2, ell)
        rep = check_vasic_keckic(z, p, r)
        assert rep.holds
        want = float(np.sum(p ** (1.0 / (1.0 - r)))) ** (r - 1.0)
        assert rep.extras["constant"] == pytest.approx(want, rel=1e-12)


def test_vasic_gating_and_malformed():
    rep = check_vasic_keckic([1.0 + 0j], [1.0], 1.0)
    assert rep.not_applicable and "r > 1" in rep.failed_hypotheses()
    rep = check_vasic_keckic([1.0 + 0j, 2.0], [1.0, -1.0], 2.0)
    assert rep.not_applicable and "weights positive" in rep.failed_hypotheses()
    with pytest.raises(DimensionError):
        check_vasic_keckic([1.0 + 0j, 2.0], [1.0], 2.0)
    with pytest.raises(DimensionError):
        check_vasic_keckic([], [], 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("p, constant", [([0.5, 2.0], 2.0), ([1.5, 2.0], 1.0 / 1.5)])
def test_vasic_constant_near_r_one_is_one_over_min_p(p, constant):
    # p^(1/(1-r)) overflows (some p_j < 1) or underflows (every p_j > 1)
    # next to r = 1, yet the constant tends to 1/min(p) and the inequality
    # holds.
    rep = check_vasic_keckic([1.0, 1.0], p, 1.0000001)
    assert rep.holds
    assert rep.extras["constant"] == pytest.approx(constant, rel=1e-9)
    assert rep.extras["stationary_point"] is False


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_vector_checkers_reject_nonfinite_entries(bad):
    f = make_function_spec("square", (-3, 3))
    a = np.diag([2.0, -1.0]).astype(complex)
    v = np.array([0.5, bad], dtype=complex)
    for check, args in (
        (check_vasic_keckic, (v, [1.0, 1.0], 2.0)),
        (check_jensen_vector, (f, a, v)),
        (check_jensen_map, (f, a, Congruence(EYE2), v, "unital")),
    ):
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            check(*args)


# --- Jensen (vector state) ------------------------------------------------------------------


def test_jensen_vector_eigenvector_equality():
    f = make_function_spec("square", (-3, 3))
    a = np.diag([2.0, -1.0]).astype(complex)
    rep = check_jensen_vector(f, a, np.array([1.0, 0.0], dtype=complex))
    assert rep.holds
    assert abs(rep.min_slack) <= 1e-12
    assert rep.extras["evaluation_point"] == pytest.approx(2.0)


def test_jensen_vector_short_vectors_need_f0():
    f = make_function_spec("square", (-3, 3))
    a = np.diag([2.0, -1.0]).astype(complex)
    rep = check_jensen_vector(f, a, np.array([0.5, 0.0], dtype=complex))
    assert rep.holds  # f(t/4) = t^2/16 <= t^2/4 since f(0) <= 0 fills the gap


def test_jensen_vector_random_holds():
    rng = make_rng(83)
    f = make_function_spec("abs_pow", (-3, 3), r=1.7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_hermitian(n, (-3.0, 3.0), rng)
        x = complex_gaussian((n,), rng)
        x = x / np.linalg.norm(x) * float(rng.uniform(0.2, 1.0))
        rep = check_jensen_vector(f, a, x)
        assert rep.holds


def test_jensen_vector_gating():
    f = make_function_spec("square", (-3, 3))
    a = np.diag([2.0, -1.0]).astype(complex)
    long_x = np.array([1.0, 0.5], dtype=complex)
    rep = check_jensen_vector(f, a, long_x)
    assert rep.not_applicable and "||x|| <= 1" in rep.failed_hypotheses()

    off_domain = make_function_spec("square", (-1.0, 1.0))
    rep = check_jensen_vector(off_domain, a, np.array([1.0, 0.0], dtype=complex))
    assert rep.not_applicable and "spectrum within domain" in rep.failed_hypotheses()

    shifted = make_function_spec("square", (1.0, 3.0))
    rep = check_jensen_vector(shifted, np.diag([2.0, 1.5]).astype(complex),
                              np.array([1.0, 0.0], dtype=complex))
    assert rep.not_applicable
    assert "0 in domain" in rep.failed_hypotheses()
    assert "f(0) <= 0" in rep.failed_hypotheses()

    with pytest.raises(DimensionError):
        check_jensen_vector(f, a, np.array([1.0, 0.0, 0.0], dtype=complex))


# --- Jensen (positive map) --------------------------------------------------------------------


def test_jensen_map_unital_congruence_unitary():
    f = make_function_spec("square", (-3, 3))
    a = np.diag([2.0, -1.0]).astype(complex)
    rep = check_jensen_map(f, a, Congruence(EYE2), np.array([1.0, 0.0], dtype=complex), "unital")
    assert rep.holds
    assert abs(rep.min_slack) <= 1e-12
    assert rep.extras["variant"] == "unital"


def test_jensen_map_subunital_random_holds():
    rng = make_rng(84)
    f = make_function_spec("abs_pow", (-3, 3), r=2.0)
    held = 0
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        (x_block,) = random_map_family(1, n, m, [1.0], rng)
        spec = Congruence(0.9 * x_block)
        a = random_hermitian(n, (-3.0, 3.0), rng)
        xv = complex_gaussian((m,), rng)
        xv = xv / np.linalg.norm(xv) * float(rng.uniform(0.3, 1.0))
        rep = check_jensen_map(f, a, spec, xv, "subunital")
        assert not rep.violated
        held += rep.holds
    assert held > 60  # most draws satisfy the strict positivity hypothesis


def test_jensen_map_povm_unital():
    f = make_function_spec("expm1", (-3, 3))
    effects = tuple(np.outer(e, e).astype(complex) for e in np.eye(3))
    spec = DiagonalPOVM(effects)
    a = random_hermitian(3, (-2.5, 2.5), make_rng(85))
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    rep = check_jensen_map(f, a, spec, x, "unital")
    assert rep.holds


def test_jensen_map_gating():
    f = make_function_spec("square", (-9, 9))
    a = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([1.0, 0.0], dtype=complex)
    big = Congruence(2.0 * EYE2)  # Phi(I) = 4I, not subunital
    rep = check_jensen_map(f, a, big, x, "subunital")
    assert rep.not_applicable and "Phi(I) <= I" in rep.failed_hypotheses()

    rep = check_jensen_map(f, a, Congruence(0.5 * EYE2), x, "unital")
    assert rep.not_applicable and "Phi(I) = I" in rep.failed_hypotheses()

    rep = check_jensen_map(f, a, Congruence(EYE2), 0.5 * x, "unital")
    assert rep.not_applicable and "||x|| = 1" in rep.failed_hypotheses()

    with pytest.raises(ValueError):
        check_jensen_map(f, a, Congruence(EYE2), x, "other")
    with pytest.raises(DimensionError):
        check_jensen_map(f, a, Congruence(np.eye(3, dtype=complex)), x, "unital")


def test_jensen_map_evaluation_point_gate():
    # Phi shrinks the spectrum toward zero; with a domain that misses 0 the
    # evaluation point leaves the domain and the check must abstain.
    f = make_function_spec("square", (1.0, 5.0))
    a = np.diag([2.0, 2.0]).astype(complex)
    spec = Congruence(0.1 * EYE2)
    x = np.array([1.0, 0.0], dtype=complex)
    rep = check_jensen_map(f, a, spec, x, "subunital")
    assert rep.not_applicable
    assert "evaluation point within domain" in rep.failed_hypotheses()


# --- weak-majorization theorem (weighted positive maps) -----------------------------------------


def test_thm_weak_major_identity_map_equality():
    f = make_function_spec("abs_pow", (-3, 3), r=2.0)
    a = random_hermitian(4, (-2.5, 2.5), make_rng(86))
    rep = check_thm_weak_major(f, a, [(1.0, Congruence(np.eye(4, dtype=complex)))])
    assert rep.holds
    assert abs(rep.min_slack) <= 1e-10
    assert rep.extras["equality_ks"] == [1, 2, 3, 4]


def test_thm_weak_major_random_families_hold():
    rng = make_rng(87)
    f = make_function_spec("square", (-4, 4))
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        ell = int(rng.integers(1, 4))
        alphas = rng.uniform(0.2, 1.0, ell)
        xs = random_map_family(ell, n, m, alphas, rng)
        pairs = [(float(al), Congruence(x)) for al, x in zip(alphas, xs)]
        a = random_hermitian(n, (-2.0, 2.0), rng)
        rep = check_thm_weak_major(f, a, pairs)
        assert not rep.violated
        if rep.not_applicable:
            # Only the mixed-spectrum escape is legitimate here.
            assert set(rep.failed_hypotheses()) <= {"mixed spectrum within domain"}


def test_thm_weak_major_lhs_sorts_after_applying_f():
    # A nonmonotone f reorders the spectrum: f(-2) > f(1). The checker must
    # sort the f-values, not apply f to the sorted eigenvalues.
    f = make_function_spec("abs_pow", (-3, 3), r=2.0)
    a = np.diag([1.0, -2.0]).astype(complex)
    rep = check_thm_weak_major(f, a, [(1.0, Congruence(EYE2))])
    assert rep.partial_sums_lhs == pytest.approx([4.0, 5.0])
    assert rep.partial_sums_rhs == pytest.approx([4.0, 5.0])


def test_thm_weak_major_gating():
    f = make_function_spec("square", (-3, 3))
    a = np.diag([1.0, -1.0]).astype(complex)
    rep = check_thm_weak_major(f, a, [(-0.5, Congruence(EYE2))])
    assert rep.not_applicable and "weights nonnegative" in rep.failed_hypotheses()
    rep = check_thm_weak_major(f, a, [(2.0, Congruence(EYE2))])
    assert rep.not_applicable and "combined map subunital" in rep.failed_hypotheses()
    with pytest.raises(DimensionError):
        check_thm_weak_major(f, a, [])


# --- congruence corollary with submultiplicative f ------------------------------------------------


def test_cor_congruence_identity_equality():
    f = make_function_spec("abs_pow", (-5, 5), r=2.0)
    a = random_hermitian(3, (-2.0, 2.0), make_rng(88))
    rep = check_cor_congruence(f, [a], [np.eye(3, dtype=complex)], [1.0])
    assert rep.holds
    assert abs(rep.min_slack) <= 1e-10


def test_cor_congruence_random_holds():
    rng = make_rng(89)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 4))
        alphas = rng.uniform(0.3, 2.0, ell)
        xs = random_map_family(ell, n, n, alphas, rng)
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        reach = max(
            [3.0, float(np.max(1.0 / alphas))]
            + [float(np.max(np.abs(np.linalg.eigvalsh(m)))) for m in mats]
        )
        f = make_function_spec("abs_pow", (-10 * reach, 10 * reach), r=2.5)
        rep = check_cor_congruence(f, mats, xs, alphas)
        assert rep.holds


def test_cor_congruence_gating_on_submultiplicativity():
    f = make_function_spec("relu", (-5, 5))
    a = np.diag([1.0, -1.0]).astype(complex)
    rep = check_cor_congruence(f, [a], [EYE2], [1.0])
    assert rep.not_applicable
    assert "f submultiplicative" in rep.failed_hypotheses()


def test_cor_congruence_gating_on_domain_window():
    # 1/alpha = 10 sits outside a narrow domain, so the check abstains.
    f = make_function_spec("abs_pow", (-5, 5), r=2.0)
    a = np.diag([1.0, -1.0]).astype(complex)
    rep = check_cor_congruence(f, [a], [0.1 * EYE2], [0.1])
    assert rep.not_applicable
    assert "domain covers evaluation points" in rep.failed_hypotheses()


# --- eigenvalue Bohr --------------------------------------------------------------------------------


def test_eigen_bohr_hand_example():
    rep = check_eigen_bohr([DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], 2.0)
    assert rep.holds
    assert rep.partial_sums_lhs == pytest.approx([1.0, 2.0], abs=1e-12)
    assert rep.partial_sums_rhs == pytest.approx([2.0, 4.0], abs=1e-12)
    assert rep.extras["constant"] == pytest.approx(4.0, abs=1e-12)
    assert rep.min_slack == pytest.approx(1.0, abs=1e-12)


def test_eigen_bohr_single_term_equality():
    rng = make_rng(90)
    for r in (1.5, 2.0, 3.0):
        a = random_hermitian(4, (-2.0, 2.0), rng)
        rep = check_eigen_bohr([a], [np.eye(4, dtype=complex)], [1.0], r)
        assert rep.holds
        assert rep.extras["constant"] == pytest.approx(1.0)
        assert abs(rep.min_slack) <= 1e-10


def test_eigen_bohr_partial_sums_match_reference():
    rng = make_rng(91)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(1, 4))
        r = float(rng.uniform(1.2, 3.5))
        p = rng.uniform(0.3, 3.0, ell)
        conj = p ** (1.0 / (1.0 - r))
        xs = random_map_family(ell, n, n, conj / np.sum(conj), rng)
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        rep = check_eigen_bohr(mats, xs, p, r)
        assert rep.holds

        mixed = sum(x.conj().T @ m @ x for m, x in zip(mats, xs))
        lhs = partial_sums_desc(np.abs(np.linalg.eigvalsh((mixed + mixed.conj().T) / 2)) ** r)
        right = sum(
            w * (x.conj().T @ fun_hermitian_ref(lambda t: np.abs(t) ** r, m) @ x)
            for w, m, x in zip(p, mats, xs)
        )
        const = float(np.sum(conj)) ** (r - 1.0)
        rhs = [const * s for s in partial_sums_desc(np.linalg.eigvalsh((right + right.conj().T) / 2))]
        assert np.allclose(rep.partial_sums_lhs, lhs, atol=1e-10 * max(1.0, max(lhs)))
        assert np.allclose(rep.partial_sums_rhs, rhs, atol=1e-10 * max(1.0, max(rhs)))


def test_eigen_bohr_gating_on_r_and_constraint():
    rep = check_eigen_bohr([DIAG1], [EYE2], [1.0], 0.5)
    assert rep.not_applicable and not rep.violated
    assert "r > 1" in rep.failed_hypotheses()

    rep = check_eigen_bohr([DIAG1], [3.0 * EYE2], [1.0], 2.0)
    assert rep.not_applicable
    assert any("X_i*X_i" in h for h in rep.failed_hypotheses())


def test_eigen_bohr_rhs_scale_mutation_hook():
    clean = check_eigen_bohr([DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], 2.0)
    mutated = check_eigen_bohr(
        [DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], 2.0, rhs_scale=0.25
    )
    assert clean.holds and mutated.violated
    assert mutated.extras["rhs_scale"] == 0.25
    with pytest.raises(ValueError):
        check_eigen_bohr([DIAG1], [EYE2], [1.0], 2.0, rhs_scale=0.0)


# --- norm Bohr (Ky Fan certificate) --------------------------------------------------------------------


def test_norm_bohr_hand_example():
    rep = check_norm_bohr([DIAG1, DIAG2], [0.5, 0.5], 2.0)
    assert rep.holds
    assert rep.partial_sums_lhs == pytest.approx([1.0, 2.0], abs=1e-12)
    assert rep.partial_sums_rhs == pytest.approx([2.0, 4.0], abs=1e-12)
    assert rep.extras["schatten_ok"]
    assert set(rep.extras["schatten_orders"]) == {"1", "1.5", "2", "3", "10"}


def test_norm_bohr_single_term_equality():
    a = random_hermitian(3, (-2.0, 2.0), make_rng(92))
    rep = check_norm_bohr([a], [1.0], 1.7)
    assert rep.holds and abs(rep.min_slack) <= 1e-10


def test_norm_bohr_equal_matrices_substitution():
    # A_i = A with p_i = 1/ell: LHS = ell^r |A|^r and RHS = ell * ell^(r-1)
    # |A|^r, so the two sides agree exactly for every admissible r.
    a = random_hermitian(3, (-2.0, 2.0), make_rng(93))
    for ell in (2, 3):
        for r in (1.3, 2.0):
            rep = check_norm_bohr([a] * ell, [1.0 / ell] * ell, r)
            assert rep.holds
            ratio = np.array(rep.partial_sums_lhs) / np.array(rep.partial_sums_rhs)
            assert np.allclose(ratio, 1.0, rtol=1e-9)


def test_norm_bohr_gating():
    rep = check_norm_bohr([DIAG1, DIAG2], [0.5, 0.5], 2.5)
    assert rep.not_applicable and "1 < r <= 2" in rep.failed_hypotheses()
    rep = check_norm_bohr([DIAG1, DIAG2], [0.5, 0.4], 2.0)
    assert rep.not_applicable and "weights sum to 1" in rep.failed_hypotheses()
    with pytest.raises(ValueError):
        check_norm_bohr([np.array([[0.0, 1.0], [0.0, 0.0]])], [1.0], 2.0)


def test_norm_bohr_schatten_cross_check_random():
    rng = make_rng(94)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        r = float(rng.uniform(1.05, 2.0))
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        rep = check_norm_bohr(mats, p, r)
        assert rep.holds
        assert rep.extras["schatten_ok"]


# --- pointwise r >= 2 ---------------------------------------------------------------------------------------


def test_overflowed_sum_is_a_numerical_error():
    # Each A is finite, so the input is well formed; only sum_i A_i overflows.
    a = np.diag([1e308, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="^zh: the sum of the matrices"):
            check_norm_bohr([a, a], [0.5, 0.5], 1.5)
        with pytest.raises(NumericalError, match="^prop-r2: the sum of the matrices"):
            check_pointwise_bohr_r2([a, a], [0.5, 0.5], 2.0)


def test_overflowed_gram_matrix_is_a_linalg_error():
    # Each A_i and their sum are finite; only A*A overflows. The left side
    # once read [0.0, 0.0].
    b = np.diag([1e200, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match=r"^A\*A overflows"):
            check_pointwise_bohr_r2([b, b / 2], [0.5, 0.5], 2.0)


def test_pointwise_r2_hand_example():
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    rep = check_pointwise_bohr_r2([a1, a2], [0.5, 0.5], 2.0)
    assert rep.holds
    assert rep.extras["comparison"] == "pointwise"
    assert rep.partial_sums_lhs == pytest.approx([1.0, 1.0], abs=1e-12)
    assert rep.partial_sums_rhs == pytest.approx([2.0, 2.0], abs=1e-12)


def test_pointwise_r2_proportional_equality():
    rng = make_rng(95)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        r = float(rng.uniform(2.0, 4.0))
        a = complex_gaussian((n, n), rng)
        rep = check_pointwise_bohr_r2([w * a for w in p], p, r)
        assert rep.holds
        scale = max(1.0, float(np.max(rep.partial_sums_rhs)))
        assert abs(rep.min_slack) <= 1e-10 * scale


def test_pointwise_r2_random_non_hermitian_holds():
    rng = make_rng(96)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        r = float(rng.uniform(2.0, 4.0))
        mats = [complex_gaussian((n, n), rng) for _ in range(ell)]
        rep = check_pointwise_bohr_r2(mats, p, r)
        assert rep.holds


def test_pointwise_r2_gating():
    rep = check_pointwise_bohr_r2([DIAG1, DIAG2], [0.5, 0.5], 1.5)
    assert rep.not_applicable and "r >= 2" in rep.failed_hypotheses()


# --- sum of squares certificate --------------------------------------------------------------------------------


def test_sum_square_hand_example():
    rep = check_sum_square([DIAG1, DIAG2], [0.5, 0.5])
    assert rep.holds
    assert rep.extras["comparison"] == "certificate"
    assert rep.extras["spread_min_eigenvalue"] == pytest.approx(0.5, abs=1e-12)
    assert rep.extras["dispersion_min_eigenvalue"] == pytest.approx(0.25, abs=1e-12)
    assert rep.extras["identity_residual"] <= rep.extras["identity_budget"]


def test_sum_square_identical_matrices():
    a = complex_gaussian((3, 3), make_rng(97))
    rep = check_sum_square([a, a, a], [0.2, 0.3, 0.5])
    assert rep.holds
    assert rep.extras["identity_residual"] <= 1e-13


def test_sum_square_random_non_hermitian():
    rng = make_rng(98)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        mats = [complex_gaussian((n, n), rng) * float(rng.uniform(0.2, 2.0)) for _ in range(ell)]
        rep = check_sum_square(mats, p)
        assert rep.holds
        assert rep.extras["identity_residual"] <= rep.extras["identity_budget"]


def test_sum_square_gating():
    rep = check_sum_square([DIAG1, DIAG2], [0.6, 0.6])
    assert rep.not_applicable and "weights sum to 1" in rep.failed_hypotheses()


# --- increasing convex eigenvalue inequality ----------------------------------------------------------------------


def test_increasing_convex_linear_equality():
    f = make_function_spec("linear", (-4, 4))
    rng = make_rng(99)
    mats = [random_hermitian(3, (-3.0, 3.0), rng) for _ in range(3)]
    rep = check_increasing_convex_eigen(f, mats, [0.2, 0.3, 0.5])
    assert rep.holds
    assert abs(rep.min_slack) <= 1e-10


def test_increasing_convex_diagonal_scalar_jensen():
    f = make_function_spec("expm1", (-3, 3))
    mats = [np.diag([1.0, -1.0]).astype(complex), np.diag([-2.0, 2.0]).astype(complex)]
    rep = check_increasing_convex_eigen(f, mats, [0.5, 0.5])
    assert rep.holds
    mixture = np.diag([-0.5, 0.5])
    lhs = sorted(np.expm1(np.diag(mixture)), reverse=True)
    rhs = sorted(0.5 * np.expm1([1.0, -1.0]) + 0.5 * np.expm1([-2.0, 2.0]), reverse=True)
    assert rep.partial_sums_lhs == pytest.approx(lhs, abs=1e-12)
    assert rep.partial_sums_rhs == pytest.approx(rhs, abs=1e-12)


def test_increasing_convex_relu_random():
    f = make_function_spec("relu", (-4, 4))
    rng = make_rng(100)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        mats = [random_hermitian(n, (-3.5, 3.5), rng) for _ in range(ell)]
        rep = check_increasing_convex_eigen(f, mats, p)
        assert rep.holds


def test_increasing_convex_rejects_nonmonotone_f():
    f = make_function_spec("abs_pow", (-3, 3), r=2.0)
    rep = check_increasing_convex_eigen(f, [DIAG1, DIAG2], [0.5, 0.5])
    assert rep.not_applicable and not rep.violated
    assert "f increasing on domain" in rep.failed_hypotheses()


# --- domain hypotheses: apply_fun's own test, member by member -------------------------------------------


def test_increasing_convex_gates_each_member_at_its_own_scale():
    # -2e-9 escapes [0, 3] beyond A2's own tolerance 1e-9 * max(1, 0.5),
    # though not beyond 1e-9 * 3 at the family's scale; apply_fun judges
    # A2 alone and would raise, so the gate must abstain.
    f = make_function_spec("relu", (0.0, 3.0))
    a1, a2 = np.diag([3.0, 1.0]), np.diag([0.5, -2e-9])
    rep = check_increasing_convex_eigen(f, [a1, a2], [0.5, 0.5])
    assert rep.not_applicable
    assert rep.failed_hypotheses() == ("spectra within domain",)


def test_cor_congruence_gates_each_member_at_its_own_scale():
    # -1 - 5e-9 escapes [-1, 12] beyond A2's own tolerance of about 1e-9,
    # though not beyond 1e-9 * 10.5 at the scale of all points at once.
    f = make_function_spec("abs_pow", (-1.0, 12.0), r=2.0)
    a1, a2 = np.diag([10.0, 0.0]), np.diag([0.5, -1.0 - 5e-9])
    rep = check_cor_congruence(f, [a1, a2], [EYE2, EYE2], [0.5, 0.5])
    assert rep.not_applicable
    assert rep.failed_hypotheses() == ("domain covers evaluation points",)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_infinite_eigenvalue_fails_the_domain_gate():
    # eigh of this finite matrix returns [inf, 7.3e290, -3.6e292]; the gate
    # once passed it and graded f at the evaluation point 8e307.
    f = make_function_spec("square", (-3, 3))
    rep = check_jensen_vector(f, 8e307 * np.ones((3, 3)), [1, 0, 0])
    assert rep.not_applicable
    assert rep.failed_hypotheses() == ("spectrum within domain",)


def _edge_instance(theorem, k, seed=3):
    """An instance whose first member has one eigenvalue k tolerances of
    SPECTRUM_CLAMP_RTOL * max(1, |lambda|) below the domain's low end -2."""
    rng = make_rng(seed)
    u, v = random_unitary(3, rng), random_unitary(3, rng)
    low = -2.0 - k * 1e-9 * 2.0
    a1 = u @ np.diag([low, 0.5, 1.0]) @ u.conj().T
    a2 = v @ np.diag([0.3, 0.1, 0.2]) @ v.conj().T
    x = np.array([0.9, 0.0, 0.0], dtype=complex)
    square = make_function_spec("square", (-2.0, 3.0))
    if theorem == "jensen-vec":
        return check_jensen_vector, (square, a1, x)
    if theorem == "jensen-map":
        return check_jensen_map, (square, a1, Congruence(0.8 * v), x)
    if theorem == "thm1":
        maps = [(0.5, Congruence(np.eye(3))), (0.5, Congruence(0.5 * v))]
        return check_thm_weak_major, (square, a1, maps)
    if theorem == "cornew":
        return check_cor_congruence, (square, [a1, a2], [np.eye(3)] * 2, [0.5, 0.5])
    relu = make_function_spec("relu", (-2.0, 3.0))
    return check_increasing_convex_eigen, (relu, [a1, a2], [0.5, 0.5])


@pytest.mark.parametrize(
    "theorem, failed",
    [
        ("jensen-vec", ("spectrum within domain",)),
        ("jensen-map", ("spectrum within domain",)),
        ("thm1", ("spectrum within domain",)),
        ("cornew", ("domain covers evaluation points",)),
        ("inc-convex", ("spectra within domain",)),
    ],
)
def test_domain_gates_draw_apply_funs_line(theorem, failed):
    # k = 0.5 and 2 stay clear of the edge k = 1; the next test covers it.
    checker, args = _edge_instance(theorem, 0.5)
    assert checker(*args).holds
    checker, args = _edge_instance(theorem, 2.0)
    rep = checker(*args)
    assert rep.not_applicable
    assert rep.failed_hypotheses() == failed


@pytest.mark.parametrize("k", [0.999, 1.0, 1.001, 2.0])
@pytest.mark.parametrize(
    "theorem, failed",
    [
        ("jensen-vec", ("spectrum within domain",)),
        ("jensen-map", ("spectrum within domain",)),
        ("thm1", ("spectrum within domain",)),
        ("cornew", ("domain covers evaluation points",)),
        ("inc-convex", ("spectra within domain",)),
    ],
)
def test_domain_gates_judge_the_spectrum_f_is_applied_to(theorem, failed, k):
    # Each checker gates on the eigenvalues of the one decomposition it
    # applies f from. At k = 1 a separate eigvalsh and eigh disagree by
    # roundoff on some of these seeds (seed 1, say), and a gate that passed
    # then met a DomainError from apply_fun.
    for seed in range(8):
        checker, args = _edge_instance(theorem, k, seed)
        rep = checker(*args)
        if k > 1.0 or (k == 1.0 and rep.not_applicable):
            assert rep.failed_hypotheses() == failed, seed
        else:
            assert rep.holds, seed


# --- family validation ------------------------------------------------------------------------------------------


def _family_checker(theorem):
    square = make_function_spec("square", (-3, 3))
    return {
        "cornew": lambda a, w, x: check_cor_congruence(square, a, x, w),
        "cor45": lambda a, w, x: check_eigen_bohr(a, x, w, 2.0),
        "zh": lambda a, w, x: check_norm_bohr(a, w, 1.5),
        "prop-r2": lambda a, w, x: check_pointwise_bohr_r2(a, w, 2.0),
        "sumsq": lambda a, w, x: check_sum_square(a, w),
        "inc-convex": lambda a, w, x: check_increasing_convex_eigen(square, a, w),
    }[theorem]


@pytest.mark.parametrize("theorem", ["cornew", "cor45", "zh", "prop-r2", "sumsq", "inc-convex"])
def test_family_checkers_reject_malformed_families(theorem):
    check = _family_checker(theorem)
    half = [0.5, 0.5]
    check([DIAG1, DIAG2], half, [EYE2, EYE2])  # well formed: no exception
    with pytest.raises(DimensionError, match="at least one matrix"):
        check([], [], [])
    with pytest.raises(DimensionError, match="matrix 1 has shape"):
        check([DIAG1, np.eye(3)], half, [EYE2, EYE2])
    with pytest.raises(DimensionError, match="2 matrices but 3 weights"):
        check([DIAG1, DIAG2], [0.2, 0.3, 0.5], [EYE2, EYE2])
    if theorem in ("cornew", "cor45"):
        with pytest.raises(DimensionError, match="2 matrices but 1 blocks"):
            check([DIAG1, DIAG2], half, [EYE2])
        with pytest.raises(DimensionError, match="block 1 has shape"):
            check([DIAG1, DIAG2], half, [EYE2, np.eye(3)])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("theorem", ["cornew", "cor45", "zh", "prop-r2", "sumsq", "inc-convex"])
def test_family_messages_name_the_bad_member(theorem, k):
    check = _family_checker(theorem)
    third = [1 / 3] * 3
    mats = [DIAG1, DIAG2, EYE2]
    mats[k] = np.eye(3, dtype=complex)
    bad, shape, expected = (1, (2, 2), (3, 3)) if k == 0 else (k, (3, 3), (2, 2))
    message = f"matrix {bad} has shape {shape}, expected {expected}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        check(mats, third, [EYE2] * 3)
    mats[k] = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    if theorem in ("prop-r2", "sumsq"):  # their members need not be Hermitian
        check(mats, third, [EYE2] * 3)
    else:
        with pytest.raises(ValueError, match=f"^matrix {k} is not Hermitian: "):
            check(mats, third, [EYE2] * 3)


def test_graded_report_matches_the_numpy_grader():
    cases = [
        ([1.0, 2.0], [1.5, 2.0]),  # a zero slack
        ([1.0, 3.0, 4.0], [1.0 + 2e-10, 3.0 - 1e-11, 5.0]),  # ties within EQUALITY_RTOL * scale
        ([2.0, 5.0], [1.0, 5.0 + 1e-9]),  # violated
        ([-7.5e-9], [-1.5e-8]),  # inside the default tolerance, outside tol=0
        ([0.0, 0.0, 0.25], [0.0, 0.0, 1.0]),
        ([1e300], [2e300]),
    ]
    rng = make_rng(211)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        lhs = np.cumsum(rng.standard_normal(k) * 10.0 ** float(rng.uniform(-3, 3)))
        cases.append((lhs, lhs + rng.choice([0.0, 1e-12, -1e-7, 1.0], size=k)))
    for lhs, rhs in cases:
        for tol in (None, 0.0, 1e-3):
            for comparison in ("partial-sums", "pointwise"):
                args = ("t", lhs, rhs, {"h": True}, tol, {"x": 1}, comparison)
                got, want = _graded_report(*args), graded_report_ref(*args)
                assert got == want
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("theorem", ["cornew", "cor45", "zh", "prop-r2", "sumsq", "inc-convex"])
def test_campaign_reports_regrade_alike_on_numpy(theorem):
    for rec in run_campaign(CampaignConfig(theorem, 40, seed=17)).records:
        rep = rec.report
        if rep is None or rep.min_slack is None:
            continue
        extras = {k: v for k, v in rep.extras.items() if k not in ("comparison", "equality_ks")}
        args = (theorem, rep.partial_sums_lhs, rep.partial_sums_rhs, rep.hypothesis_report)
        want = graded_report_ref(*args, None, extras, rep.extras["comparison"])
        assert json.dumps(rep.to_json()) == json.dumps(replace(want, input_digest=rep.input_digest).to_json())


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_exponent_checkers_reject_nonfinite_r(bad):
    checks = (
        lambda r: check_vasic_keckic([1.0, 2.0], [0.5, 0.5], r),
        lambda r: check_eigen_bohr([DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], r),
        lambda r: check_norm_bohr([DIAG1, DIAG2], [0.5, 0.5], r),
        lambda r: check_pointwise_bohr_r2([DIAG1, DIAG2], [0.5, 0.5], r),
    )
    for check in checks:
        with pytest.raises(ValueError, match="exponent r must be finite"):
            check(bad)


# --- cross-route consistency -------------------------------------------------------------------------------------


def test_consistency_norm_bohr_from_eigen_bohr():
    # The norm statement is the congruence statement at X_i = I with
    # weights q_i = p_i^(1-r): then sum q_i^(1/(1-r)) = sum p_i = 1, the
    # constant is 1, and both right-hand matrices coincide.
    rng = make_rng(111)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(1, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        r = float(rng.uniform(1.05, 2.0))
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        eye = [np.eye(n, dtype=complex)] * ell
        via_eigen = check_eigen_bohr(mats, eye, p ** (1.0 - r), r)
        via_norm = check_norm_bohr(mats, p, r)
        assert via_eigen.holds and via_norm.holds
        scale = max(1.0, float(np.max(via_norm.partial_sums_rhs)))
        assert np.allclose(
            via_eigen.partial_sums_lhs, via_norm.partial_sums_lhs, atol=1e-10 * scale
        )
        assert np.allclose(
            via_eigen.partial_sums_rhs, via_norm.partial_sums_rhs, atol=1e-10 * scale
        )


def test_consistency_pointwise_implies_partial_sums():
    rng = make_rng(112)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        ell = int(rng.integers(2, 5))
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        point = check_pointwise_bohr_r2(mats, p, 2.0)
        norm = check_norm_bohr(mats, p, 2.0)
        assert point.holds and norm.holds
        # Cumulative sums of the pointwise rows reproduce the partial sums.
        assert np.allclose(
            np.cumsum(point.partial_sums_lhs), norm.partial_sums_lhs,
            atol=1e-9 * max(1.0, norm.partial_sums_rhs[-1]),
        )
        assert np.allclose(
            np.cumsum(point.partial_sums_rhs), norm.partial_sums_rhs,
            atol=1e-9 * max(1.0, norm.partial_sums_rhs[-1]),
        )


def test_verdicts_invariant_under_common_unitary_conjugation():
    rng = make_rng(113)
    for _ in range(30):
        n = 4
        ell = 3
        p = rng.uniform(0.2, 1.0, ell)
        p = p / p.sum()
        mats = [random_hermitian(n, (-3.0, 3.0), rng) for _ in range(ell)]
        u = random_unitary(n, rng)
        rotated = [u.conj().T @ m @ u for m in mats]

        for checker, args in (
            (check_norm_bohr, (1.8,)),
            (check_pointwise_bohr_r2, (2.5,)),
        ):
            before = checker(mats, p, *args)
            after = checker(rotated, p, *args)
            assert before.verdict == after.verdict
            scale = max(1.0, float(np.max(before.partial_sums_rhs)))
            assert before.min_slack == pytest.approx(after.min_slack, abs=1e-9 * scale)

        # The certificate checker's third row is a roundoff residual, which
        # is not a rotation invariant; compare the two eigenvalue rows.
        before = check_sum_square(mats, p)
        after = check_sum_square(rotated, p)
        assert before.verdict == after.verdict
        for key in ("spread_min_eigenvalue", "dispersion_min_eigenvalue"):
            assert before.extras[key] == pytest.approx(after.extras[key], abs=1e-9)


# --- report plumbing -----------------------------------------------------------------------------------------------


def test_report_json_excludes_elapsed_and_is_serializable():
    rep = check_scalar_bohr(1.0, 2.0, 2.0)
    obj = rep.to_json()
    assert "elapsed" not in obj
    json.dumps(obj, allow_nan=False)
    assert obj["theorem_id"] == "bohr"
    assert obj["holds"] is True


def test_report_digest_traces_back_to_payload():
    # A checker knows no wire format: a direct call carries no digest.
    rep = check_eigen_bohr([DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], 2.0)
    assert rep.input_digest is None
    # The harness stamps the digest of the checker arguments it ran.
    args = {"a_list": [DIAG1, DIAG2], "x_list": [EYE2, EYE2], "p": [0.5, 0.5], "r": 2.0}
    payload = serialize.instance_to_json("cor45", **args)
    stamped = run_instance(payload)
    assert stamped.input_digest == serialize.digest("cor45", args)
    assert stamped.to_json() | {"input_digest": None} == rep.to_json()
    # The rhs_scale mutation hook is not part of the payload, so the digest stays.
    mutated = run_instance(payload, rhs_scale=0.25)
    assert mutated.violated
    assert mutated.input_digest == stamped.input_digest


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nonfinite_side_is_a_numerical_error_not_a_verdict():
    # |z_j|^r and |sum z_j|^r overflow at r = 800, so both sides are infinite.
    with pytest.raises(NumericalError, match="non-finite"):
        check_vasic_keckic([10.0, 10.0], [0.5, 2.0], 800.0)
    assert issubclass(NumericalError, ValueError)
    # The sides are checked before they are subtracted: inf - inf would be
    # an invalid operation, which this errstate turns into FloatingPointError.
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(NumericalError, match="non-finite"):
            check_vasic_keckic([10.0, 10.0], [0.5, 2.0], 800.0)


def test_tolerance_override_is_respected():
    rep = check_eigen_bohr(
        [DIAG1, DIAG2], [EYE2, EYE2], [0.5, 0.5], 2.0, tol=123.0, rhs_scale=0.25
    )
    assert rep.tol_used == 123.0
    assert rep.holds  # a huge tolerance absorbs the mutated constant
