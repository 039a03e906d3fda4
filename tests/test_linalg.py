"""Core linear algebra: intervals, seeded streams, eigensolver, samplers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcheck.linalg import (
    DimensionError,
    Interval,
    as_complex_matrix,
    as_interval,
    complex_gaussian,
    eig_hermitian,
    frob,
    hermitize,
    make_rng,
    mix64,
    random_hermitian,
    random_map_family,
    random_unitary,
    require_hermitian,
    require_square,
    stream_key,
    synthesize,
)
from bohrcheck.calculus import abs_power
from bohrcheck.majorization import singular_values
from oracles import random_hermitian_ref, random_map_family_ref, splitmix64_ref
from oracles import synthesis_inline, synthesis_inline_2d

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


# --- intervals ---------------------------------------------------------------


def test_interval_validate_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0).validate()
    with pytest.raises(ValueError):
        Interval(0.0, float("inf")).validate()
    assert Interval(1.0, 1.0).validate() == (1.0, 1.0)


def test_interval_clamp():
    iv = as_interval((-1.0, 2.0))
    assert np.allclose(iv.clamp([-5.0, 0.5, 7.0]), [-1.0, 0.5, 2.0])


# --- seeded streams ----------------------------------------------------------


def test_mix64_matches_reference_finalizer():
    for x in (0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert mix64(x) == splitmix64_ref(x)


def test_stream_keys_distinct_across_trials():
    keys = {stream_key(7, t) for t in range(1000)}
    assert len(keys) == 1000


def test_make_rng_reproducible_and_stream_separated():
    a = make_rng(7, 3).standard_normal(8)
    b = make_rng(7, 3).standard_normal(8)
    c = make_rng(7, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- constructors and validation ----------------------------------------------


def test_as_complex_matrix_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        as_complex_matrix(np.zeros((0, 0)))


def test_require_square_and_hermitian():
    with pytest.raises(DimensionError):
        require_square(np.zeros((2, 3)))
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.0]])
    assert np.allclose(require_hermitian(a), a)
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_tolerates_roundoff_asymmetry():
    a = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
    out = require_hermitian(a)
    assert frob(out - out.conj().T) <= 1e-12


@pytest.mark.parametrize("bad", [[[1.0, 1e200], [0.0, 1.0]], [[0.0, 1e308], [-1e308, 0.0]]])
def test_require_hermitian_refuses_a_matrix_whose_norms_overflow(bad):
    # ||A - A*||_F and ||A||_F both overflowed to inf, and inf > 1e-12 * inf
    # is false, so both once passed; eig_hermitian of the second gave [0, 0].
    bad = np.array(bad)
    with pytest.raises(ValueError, match="^matrix is not Hermitian: "):
        require_hermitian(bad)
    with pytest.raises(ValueError, match="^matrix is not Hermitian: "):
        eig_hermitian(bad)
    with pytest.raises(ValueError, match="^matrix 1 is not Hermitian: "):
        require_hermitian([np.eye(2), bad, np.eye(2)], stack="matrix")
    # Hermitian matrices of the same size still pass.
    big = np.array([[1e308, 1e308 - 1e308j], [1e308 + 1e308j, -1e308]])
    assert require_hermitian(big) is not None
    assert require_hermitian([np.eye(2), big], stack="matrix").shape == (2, 2, 2)


def test_overflows_that_linalg_handles_do_not_warn():
    # np.linalg.norm and matmul overflow inside; the decision is made on the
    # inf they give, so a warning would only repeat it (numpy warns from its
    # own module, which the bohrcheck warning filter does not reach).
    big = np.array([[1e200, 1.0], [1.0, 2e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert require_hermitian(big) is not None
        assert require_hermitian([np.eye(2), big], stack="matrix").shape == (2, 2, 2)
        for power in (singular_values, lambda a: abs_power(a, 2.0)):
            with pytest.raises(np.linalg.LinAlgError, match=r"^A\*A overflows"):
                power(np.diag([1e200, 1.0]))


def test_hermitize_halves_the_defect():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    h = hermitize(a)
    assert np.allclose(h, np.array([[1.0, 0.5], [0.5, 1.0]]))


# --- eigensolver ---------------------------------------------------------------


def test_eig_hermitian_identity():
    w, _ = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eig_hermitian_analytic_2x2():
    w, _ = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)


def test_eig_hermitian_pauli_y():
    w, v = eig_hermitian(PAULI_Y)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eig_hermitian_reconstruction_and_descending_order():
    rng = make_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = random_hermitian(n, (-4.0, 4.0), rng)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) <= 0)
        recon = v @ np.diag(w) @ v.conj().T
        assert frob(a - recon) <= 1e-11 * max(1.0, frob(a))
        assert frob(v.conj().T @ v - np.eye(n)) <= 1e-11


def test_eig_hermitian_trace_preservation():
    rng = make_rng(102)
    for _ in range(100):
        a = random_hermitian(int(rng.integers(2, 9)), (-3.0, 3.0), rng)
        w = eig_hermitian(a).eigenvalues
        tr = float(np.real(np.trace(a)))
        assert abs(float(np.sum(w)) - tr) <= 1e-10 * max(1.0, abs(tr))


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_eig_hermitian_of_a_stack_is_each_member_alone():
    rng = make_rng(16)
    for n in range(1, 9):
        # A repeated eigenvalue exercises the stable order of ties.
        mats = [random_hermitian(n, (-2.0, 2.0), rng) for _ in range(3)] + [np.eye(n) * 0.5]
        w, u = eig_hermitian(np.stack(mats), stack="matrix")
        for i, m in enumerate(mats):
            wi, ui = eig_hermitian(m)
            assert _same_bits(w[i], wi) and _same_bits(u[i], ui)


def test_synthesize_is_the_inline_product_bit_for_bit():
    # Seeded unitaries and spectra, stacked and alone, with a signed zero
    # in every spectrum: synthesize is each inline U diag(v) U* it replaced.
    rng = make_rng(17)
    for _ in range(200):
        n, k = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        u = np.stack([random_unitary(n, rng) for _ in range(k)])
        v = rng.uniform(-3.0, 3.0, size=(k, n))
        v[:, int(rng.integers(n))] = rng.choice([0.0, -0.0], size=k)
        assert _same_bits(synthesize(u, v), synthesis_inline(u, v))
        for ui, vi in zip(u, v):
            got = synthesize(ui, vi)
            assert _same_bits(got, synthesis_inline(ui, vi))
            assert _same_bits(got, synthesis_inline_2d(ui, vi))


def test_validators_take_a_stack_only_when_asked():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    for check in (as_complex_matrix, require_square, require_hermitian, eig_hermitian):
        with pytest.raises(DimensionError):
            check(stack)
    assert require_hermitian(stack, stack="matrix").shape == (3, 2, 2)
    assert require_hermitian(list(stack), stack="matrix").shape == (3, 2, 2)
    with pytest.raises(DimensionError, match="expected at least one block"):
        as_complex_matrix([], stack="block")
    with pytest.raises(DimensionError, match="expected square matrices"):
        require_square([np.zeros((2, 3))] * 2, stack="matrix")
    with pytest.raises(DimensionError):
        require_square(np.eye(2), stack="matrix")  # one matrix is not a stack
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        as_complex_matrix([np.eye(2), np.full((2, 2), np.nan)], stack="matrix")


@pytest.mark.parametrize("k", [0, 2])
def test_stacked_validators_name_the_bad_member(k):
    mats = [np.eye(2, dtype=complex) for _ in range(3)]
    mats[k] = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=f"^effect {k} is not Hermitian: "):
        require_hermitian(mats, stack="effect")
    mats[k] = np.eye(3, dtype=complex)
    # Member 0 sets the expected shape, so a bad member 0 is reported at 1.
    bad, shape, expected = (1, (2, 2), (3, 3)) if k == 0 else (k, (3, 3), (2, 2))
    message = f"block {bad} has shape {shape}, expected {expected}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        as_complex_matrix(mats, stack="block")


def test_weyl_monotonicity_under_psd_bump():
    rng = make_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_hermitian(n, (-3.0, 3.0), rng)
        g = complex_gaussian((n, n), rng)
        p = g @ g.conj().T
        wa = eig_hermitian(a).eigenvalues
        wb = eig_hermitian(a + p).eigenvalues
        assert np.all(wa <= wb + 1e-10)


# --- matrix absolute value |A| = abs_power(A, 1) ---------------------------------


def test_abs_matrix_diagonal():
    assert np.allclose(abs_power(np.diag([-3.0, 2.0]), 1.0), np.diag([3.0, 2.0]), atol=1e-12)


def test_abs_matrix_nilpotent():
    assert np.allclose(abs_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0), np.diag([0.0, 1.0]), atol=1e-12)


def test_abs_matrix_golden_ratio_eigenvalues():
    # |A| for the unipotent shear has the golden ratio and its inverse as
    # eigenvalues: A*A = [[1,1],[1,2]] has eigenvalues phi^2 and phi^-2.
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    w = eig_hermitian(abs_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)).eigenvalues
    assert np.allclose(w, [phi, 1.0 / phi], atol=1e-12)


def test_abs_matrix_psd_square_law_and_frobenius_identity():
    rng = make_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = complex_gaussian((n, n), rng)
        m = abs_power(a, 1.0)
        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-11
        assert frob(m @ m - a.conj().T @ a) <= 1e-10 * max(1.0, frob(a) ** 2)
        assert abs(frob(m) - frob(a)) <= 1e-10 * max(1.0, frob(a))


# --- random samplers -------------------------------------------------------------


def test_random_unitary_scalar_case():
    u = random_unitary(1, make_rng(5))
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, make_rng(7))
    u2 = random_unitary(4, make_rng(7))
    assert np.array_equal(u1, u2)
    assert frob(u1.conj().T @ u1 - np.eye(4)) <= 1e-12
    assert abs(abs(np.linalg.det(u1)) - 1.0) <= 1e-10


def test_random_hermitian_degenerate_intervals():
    rng = make_rng(8)
    assert np.allclose(random_hermitian(3, (0.0, 0.0), rng), np.zeros((3, 3)), atol=1e-14)
    c = random_hermitian(3, (2.5, 2.5), rng)
    assert np.allclose(c, 2.5 * np.eye(3), atol=1e-13)


def test_random_hermitian_spectrum_inside_interval():
    rng = make_rng(9)
    for _ in range(50):
        a = random_hermitian(5, (-1.0, 2.0), rng)
        w = eig_hermitian(a).eigenvalues
        assert np.all(w >= -1.0 - 1e-10) and np.all(w <= 2.0 + 1e-10)
        assert frob(a - a.conj().T) <= 1e-13


def test_random_map_family_respects_constraint():
    rng = make_rng(10)
    for _ in range(50):
        ell = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        w = rng.uniform(0.1, 2.0, ell)
        xs = random_map_family(ell, n, m, w, rng)
        gram = sum(wi * (x.conj().T @ x) for wi, x in zip(w, xs))
        top = float(np.linalg.eigvalsh(hermitize(gram))[-1])
        assert top <= 1.0 + 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_random_hermitian_family_is_its_sequential_draws(n):
    # A family consumes the stream as k sequential draws do, and member i
    # is the i-th draw bit for bit, factored alone or one member at a time.
    for k in range(1, 5):
        seed = 100 * n + k
        family_rng, single_rng, ref_rng = make_rng(seed), make_rng(seed), make_rng(seed)
        family = random_hermitian(n, (-3.0, 3.0), family_rng, k)
        assert family.shape == (k, n, n)
        for member in family:
            assert _same_bits(member, random_hermitian(n, (-3.0, 3.0), single_rng))
            assert _same_bits(member, random_hermitian_ref(n, -3.0, 3.0, ref_rng))
        assert family_rng.uniform() == single_rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("n", range(1, 9))
def test_random_map_family_is_its_member_by_member_draws(n):
    for ell in range(1, 5):
        for m, weights in ((n, np.linspace(0.2, 2.0, ell)), (9 - n, np.zeros(ell))):
            seed = 1000 * n + 10 * ell + m
            got_rng, ref_rng = make_rng(seed), make_rng(seed)
            got = random_map_family(ell, n, m, weights, got_rng)
            ref = random_map_family_ref(ell, n, m, weights, ref_rng)
            assert got.shape == (ell, n, m)
            assert all(_same_bits(x, y) for x, y in zip(got, ref))
            assert got_rng.uniform() == ref_rng.uniform()


def test_random_map_family_zero_weights_unscaled():
    rng = make_rng(11)
    xs = random_map_family(2, 3, 3, [0.0, 0.0], rng)
    assert len(xs) == 2
    # Unscaled Ginibre blocks have Frobenius norm around n, far above the
    # contractive regime, so the vacuous constraint is observable.
    assert max(frob(x) for x in xs) > 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_matches_reference_everywhere(x):
    assert mix64(x) == splitmix64_ref(x)
