"""Function registry, hypothesis-flag scans, and Hermitian functional calculus."""

import math

import numpy as np
import pytest

from bohrcheck.calculus import (
    DomainError,
    abs_power,
    apply_fun,
    function_registry,
    make_function_spec,
    scan_function_flags,
)
from bohrcheck.linalg import (
    DimensionError,
    complex_gaussian,
    eig_hermitian,
    frob,
    hermitize,
    make_rng,
    random_hermitian,
    random_unitary,
)
from oracles import REGISTRY_FORMULAS, abs_via_svd, fun_hermitian_ref, svd_singular_values
from oracles import scan_function_flags as full_grid_scan


def test_registry_contents():
    assert function_registry() == ("abs_pow", "expm1", "half_pow", "linear", "relu", "square")


def test_registry_functions_are_their_formulas_bit_for_bit():
    # Signed zeros and the domain ends are on every grid; bytes tell -0.0
    # from 0.0, which a float comparison would not.
    assert set(REGISTRY_FORMULAS) == set(function_registry())
    for fid, formula in REGISTRY_FORMULAS.items():
        domains = [(0.0, 3.0), (0.0, 1e3)] if fid == "half_pow" else [(-3.0, 3.0), (-50.0, 50.0)]
        for r in (1.0, 1.7, 2.0, 3.0, 7.5) if fid in ("abs_pow", "half_pow") else (None,):
            for lo, hi in domains:
                spec = make_function_spec(fid, (lo, hi), r)
                grid = np.concatenate([[-0.0, 0.0, lo, hi], np.linspace(lo, hi, 257)])
                if fid == "half_pow":
                    grid = grid[1:]  # -0.0 is below a [0, hi] domain only in sign
                want = formula(grid, r).tobytes()
                assert spec(grid).tobytes() == want, (fid, r, lo, hi)
                assert spec.fn(grid).tobytes() == want, (fid, r, lo, hi)
                assert spec(grid.tolist()).tobytes() == want, (fid, r, lo, hi)


def test_make_function_spec_parameter_validation():
    with pytest.raises(KeyError):
        make_function_spec("tanh", (-1, 1))
    with pytest.raises(ValueError):
        make_function_spec("abs_pow", (-1, 1))           # r required
    with pytest.raises(ValueError):
        make_function_spec("square", (-1, 1), r=2.0)     # r forbidden
    with pytest.raises(ValueError):
        make_function_spec("abs_pow", (-1, 1), r=-2.0)
    with pytest.raises(ValueError):
        make_function_spec("abs_pow", (-1, 1), r=float("nan"))
    with pytest.raises(DomainError):
        make_function_spec("half_pow", (-1.0, 4.0), r=2.0)


def test_spec_is_frozen_and_callable():
    f = make_function_spec("square", (-2, 2))
    assert f(3.0) == 9.0
    with pytest.raises((AttributeError, TypeError)):
        f.r = 5.0


# --- flag scans ----------------------------------------------------------------


def test_abs_pow_flags():
    f = make_function_spec("abs_pow", (-3, 3), r=2.0)
    assert f.flag("convex_on_J")
    assert f.flag("zero_in_J")
    assert f.flag("f0_nonpositive")
    assert not f.flag("increasing")
    # |uv|^r = |u|^r |v|^r holds with equality, so the scan must not be
    # defeated by roundoff at large grid values.
    assert f.flag("submultiplicative")


def test_abs_pow_submultiplicative_on_wide_windows():
    f = make_function_spec("abs_pow", (-3000.0, 3000.0), r=2.7)
    assert f.flag("submultiplicative")
    assert f.flag("convex_on_J")


def test_relu_flags():
    f = make_function_spec("relu", (-2, 2))
    assert f.flag("convex_on_J")
    assert f.flag("increasing")
    assert f.flag("f0_nonpositive")
    # max(uv, 0) can exceed max(u,0)max(v,0): u = v = -1 gives 1 > 0.
    assert not f.flag("submultiplicative")


def test_expm1_flags():
    f = make_function_spec("expm1", (-1, 1))
    assert f.flag("convex_on_J")
    assert f.flag("increasing")
    assert f.flag("zero_in_J")
    assert f.flag("f0_nonpositive")
    # u = 1/2, v = -1/2: expm1(-1/4) > expm1(1/2) expm1(-1/2).
    assert not f.flag("submultiplicative")


def test_linear_flags():
    f = make_function_spec("linear", (-1, 1))
    assert f.flag("convex_on_J")
    assert f.flag("increasing")
    assert f.flag("f0_nonpositive")
    # The identity is exactly multiplicative, so the scan passes.
    assert f.flag("submultiplicative")


def test_half_pow_flags_on_nonnegative_domain():
    f = make_function_spec("half_pow", (0.0, 4.0), r=3.0)
    assert f.flag("convex_on_J")
    assert f.flag("increasing")
    assert f.flag("zero_in_J")
    assert f.flag("f0_nonpositive")


def test_zero_outside_domain_disables_zero_flags():
    f = make_function_spec("square", (1.0, 3.0))
    assert not f.flag("zero_in_J")
    assert not f.flag("f0_nonpositive")
    assert f.flag("convex_on_J")
    assert f.flag("increasing")


def test_scan_detects_nonconvexity_of_cubic():
    report = scan_function_flags(lambda t: np.asarray(t, dtype=float) ** 3, (-1.0, 1.0))
    assert not report.flags["convex_on_J"]
    assert report.flags["increasing"]
    assert report.worst["convex_on_J"] > 0


def test_scan_detects_decreasing_function():
    report = scan_function_flags(lambda t: -np.asarray(t, dtype=float), (-1.0, 1.0))
    assert not report.flags["increasing"]
    assert report.flags["convex_on_J"]


def test_scan_submultiplicative_unsampled_when_products_leave_domain():
    # On [2, 3] every product of two grid points lands outside the domain,
    # so the scan has no evidence and must not claim the flag.
    report = scan_function_flags(lambda t: np.asarray(t, dtype=float) ** 2, (2.0, 3.0))
    assert not report.flags["submultiplicative"]
    assert np.isnan(report.worst["submultiplicative"])


def test_spec_flags_hold_on_a_finer_rescan():
    f = make_function_spec("abs_pow", (-3, 3), r=1.5)
    report = scan_function_flags(f.fn, f.domain, 1000)
    assert report.grid_size == 1000
    for name, value in f.flags.items():
        assert report.flags[name] == value


#: Domains of the full-grid comparison: symmetric, one-sided, tiny, wide,
#: negative, and one where no product u*v stays inside.
ORACLE_DOMAINS = (
    (-3.0, 3.0),
    (0.0, 3.0),
    (1.0, 3.0),
    (-2.0, 0.5),
    (-1e-8, 1e-8),
    (-45.0, 45.0),
    (-30.0, -2.0),
    (2.0, 3.0),
)


@pytest.mark.parametrize("grid_size", [3, 33, 129, 1000])
def test_triangle_scan_matches_full_grid_oracle(grid_size):
    # The library scans pairs i <= j only; the oracle evaluates every
    # ordered pair. Flags and worst values must agree exactly, NaN included.
    compared = 0
    for fid in function_registry():
        for lo, hi in ORACLE_DOMAINS:
            if fid == "half_pow" and lo < 0:
                continue
            for r in (1.0, 1.7, 2.0, 3.0) if fid in ("abs_pow", "half_pow") else (None,):
                fn = make_function_spec(fid, (lo, hi), r).fn
                report = scan_function_flags(fn, (lo, hi), grid_size)
                flags, worst = full_grid_scan(fn, lo, hi, grid_size)
                assert report.flags == flags, (fid, lo, hi, r)
                for name, value in worst.items():
                    got = report.worst[name]
                    assert got == value or (math.isnan(got) and math.isnan(value)), (
                        fid, lo, hi, r, name, got, value,
                    )
                compared += 1
    assert compared >= 6 * len(ORACLE_DOMAINS)


# --- functional calculus ----------------------------------------------------------


def test_apply_fun_square_diagonal():
    f = make_function_spec("square", (-3, 3))
    out = apply_fun(f, np.diag([1.0, -2.0]))
    assert np.allclose(out, np.diag([1.0, 4.0]), atol=1e-12)


def test_apply_fun_expm1_at_zero():
    f = make_function_spec("expm1", (-1, 1))
    assert np.allclose(apply_fun(f, np.zeros((3, 3))), np.zeros((3, 3)), atol=1e-13)


def test_apply_fun_abs_pow_on_symmetric_flip():
    f = make_function_spec("abs_pow", (-2, 2), r=1.5)
    out = apply_fun(f, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_apply_fun_identity_function_is_identity():
    f = make_function_spec("linear", (-4, 4))
    rng = make_rng(21)
    for _ in range(20):
        a = random_hermitian(int(rng.integers(1, 7)), (-3.5, 3.5), rng)
        assert frob(apply_fun(f, a) - a) <= 1e-11 * max(1.0, frob(a))


def test_apply_fun_matches_reference_calculus():
    rng = make_rng(22)
    f = make_function_spec("expm1", (-3, 3))
    for _ in range(50):
        a = random_hermitian(int(rng.integers(2, 7)), (-2.9, 2.9), rng)
        assert frob(apply_fun(f, a) - fun_hermitian_ref(np.expm1, a)) <= 1e-9


def test_apply_fun_spectral_mapping_and_commutation():
    rng = make_rng(23)
    f = make_function_spec("abs_pow", (-3, 3), r=2.5)
    for _ in range(50):
        a = random_hermitian(int(rng.integers(2, 7)), (-3.0, 3.0), rng)
        fa = apply_fun(f, a)
        expect = np.sort(np.abs(eig_hermitian(a).eigenvalues) ** 2.5)[::-1]
        assert np.allclose(eig_hermitian(fa).eigenvalues, expect, atol=1e-9)
        assert frob(fa @ a - a @ fa) <= 1e-9 * max(1.0, frob(a) * frob(fa))


def test_apply_fun_unitary_equivariance():
    rng = make_rng(24)
    f = make_function_spec("relu", (-3, 3))
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_hermitian(n, (-2.5, 2.5), rng)
        u = random_unitary(n, rng)
        lhs = apply_fun(f, u @ a @ u.conj().T)
        rhs = u @ apply_fun(f, a) @ u.conj().T
        assert frob(lhs - rhs) <= 1e-10 * max(1.0, frob(a))


def test_apply_fun_clamps_roundoff_but_rejects_real_excursions():
    f = make_function_spec("square", (-1.0, 1.0))
    # 1e-12 past the endpoint is eigensolver noise; clamp and proceed.
    near = np.diag([1.0 + 1e-12, 0.0])
    assert np.allclose(apply_fun(f, near), np.diag([1.0, 0.0]), atol=1e-9)
    with pytest.raises(DomainError):
        apply_fun(f, np.diag([1.5, 0.0]))


def test_apply_fun_on_a_stack_is_each_member_alone():
    rng = make_rng(52)
    for fid, domain in (("expm1", (-3.0, 3.0)), ("relu", (-3.0, 3.0)), ("half_pow", (0.0, 3.0))):
        f = make_function_spec(fid, domain, 2.5 if fid == "half_pow" else None)
        for n in range(1, 9):
            # A scalar member has repeated eigenvalues, whose order is a tie.
            mats = np.stack([random_hermitian(n, domain, rng) for _ in range(3)] + [np.eye(n)])
            out = apply_fun(f, mats)
            assert out.shape == mats.shape
            for got, m in zip(out, mats):
                want = apply_fun(f, m)
                assert got.tobytes() == want.tobytes()


def test_covers_is_false_exactly_when_apply_fun_raises():
    # Seeded stacks with one eigenvalue per member a few tolerances inside
    # or outside a domain edge. covers() reads the eigenvalues apply_fun
    # itself computes, so the two must agree member by member, both ways.
    f = make_function_spec("square", (-2.0, 3.0))
    rng = make_rng(11)
    seen = set()
    for _ in range(200):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        w = rng.uniform(-1.0, 2.0, size=(k, n))
        edge = rng.choice([-2.0, 3.0], size=k)
        w[:, 0] = edge * (1.0 + rng.uniform(-3e-9, 3e-9, size=k))
        u = np.stack([random_unitary(n, rng) for _ in range(k)])
        mats = hermitize((u * w[:, None, :]) @ u.conj().swapaxes(-1, -2))
        spectra = eig_hermitian(mats, stack="matrix").eigenvalues
        try:
            apply_fun(f, mats)
            raised = False
        except DomainError:
            raised = True
        assert f.covers(spectra) is not raised
        for m, spectrum in zip(mats, spectra):
            try:
                apply_fun(f, m)
                assert f.covers(spectrum)
            except DomainError:
                assert not f.covers(spectrum)
        seen.add(raised)
    assert seen == {False, True}


def test_covers_reads_each_row_as_its_own_spectrum():
    f = make_function_spec("relu", (0.0, 3.0))
    # -2e-9 is outside [0, 3] beyond 1e-9 * max(1, 0.5) but within
    # 1e-9 * max(1, 3): a row is judged at its own scale, not the stack's.
    assert not f.covers([[3.0, 1.0], [0.5, -2e-9]])
    assert f.covers([3.0, 1.0, 0.5, -2e-9])
    assert f.covers([[3.0, 1.0], [0.5, -0.5e-9]])
    assert f.covers(3.0 + 2e-9) and not f.covers(3.0 + 4e-9)
    assert not f.covers(float("nan"))


def test_apply_fun_on_a_stack_reports_the_escaping_member():
    f = make_function_spec("square", (-1.0, 1.0))
    mats = np.stack([np.diag([0.5, 0.0]), np.diag([1.5, -0.25]), np.diag([2.0, 0.0])])
    message = r"^spectrum \[-0\.25, 1\.5\] escapes domain \[-1, 1\] beyond tolerance 1\.5e-09$"
    with pytest.raises(DomainError, match=message):
        apply_fun(f, mats)
    with pytest.raises(DomainError, match=message):
        apply_fun(f, mats[1])
    with pytest.raises(ValueError, match="^matrix 1 is not Hermitian"):
        apply_fun(f, np.stack([np.eye(2), np.triu(np.ones((2, 2)))]))


def test_apply_fun_rejects_nonfinite_values():
    f = make_function_spec("linear", (-2, 2))
    bad = type(f)(
        id="bad", domain=f.domain, fn=lambda t: np.full_like(np.asarray(t, float), np.inf),
        flags=dict(f.flags), r=None,
    )
    with pytest.raises(ValueError):
        apply_fun(bad, np.eye(2))


# --- abs_power -------------------------------------------------------------------


def test_abs_power_squares_nilpotent():
    out = abs_power(np.array([[0.0, 2.0], [0.0, 0.0]]), 2.0)
    assert np.allclose(out, np.diag([0.0, 4.0]), atol=1e-12)


def test_abs_power_diagonal_cubes():
    out = abs_power(np.diag([-2.0, 1.0]), 3.0)
    assert np.allclose(out, np.diag([8.0, 1.0]), atol=1e-12)


def test_abs_power_eigenvalues_are_singular_values_to_r():
    rng = make_rng(26)
    from bohrcheck.linalg import complex_gaussian

    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = complex_gaussian((n, n), rng)
        r = float(rng.uniform(1.0, 4.0))
        got = eig_hermitian(abs_power(a, r)).eigenvalues
        want = np.sort(svd_singular_values(a) ** r)[::-1]
        assert np.allclose(got, want, atol=1e-9 * max(1.0, want[0]))


def test_abs_power_matches_svd_oracle_matrix():
    rng = make_rng(27)
    from bohrcheck.linalg import complex_gaussian

    for _ in range(20):
        a = complex_gaussian((3, 3), rng)
        direct = abs_power(a, 1.0)
        assert frob(direct - abs_via_svd(a)) <= 1e-9 * max(1.0, frob(a))


def test_abs_power_rejects_sub_one_exponent_and_rectangles():
    with pytest.raises(DomainError):
        abs_power(np.eye(2), 0.5)
    with pytest.raises(DimensionError):
        abs_power(np.zeros((2, 3)), 2.0)


def test_abs_power_stack_slices_equal_single_calls():
    # One stacked call must give each slice's single-matrix result bit for
    # bit, and so must one stacked eigvalsh; the checkers rely on it for
    # byte-identical reports.
    rng = make_rng(28)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        ell = int(rng.integers(1, 5))
        r = float(rng.uniform(1.0, 4.0))
        mats = [float(rng.uniform(0.3, 3.0)) * complex_gaussian((n, n), rng) for _ in range(ell)]
        stacked = abs_power(np.stack(mats), r)
        assert stacked.shape == (ell, n, n)
        herm = [hermitize(m) for m in mats]
        spectra = np.linalg.eigvalsh(np.stack(herm))
        for i in range(ell):
            assert np.array_equal(stacked[i], abs_power(mats[i], r))
            assert np.array_equal(spectra[i], np.linalg.eigvalsh(herm[i]))


def test_abs_power_refuses_a_gram_matrix_that_overflows():
    # The finite diag(1e200, 1) once gave an all-NaN |A|: A*A overflowed.
    big = np.diag([1e200, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in (big, np.stack([np.eye(2), big, 2.0 * np.eye(2)])):
            with pytest.raises(np.linalg.LinAlgError, match=r"^A\*A overflows"):
                abs_power(a, 1.0)
    fine = abs_power(np.stack([np.eye(2), np.diag([1e150, 1.0])]), 1.0)
    assert np.allclose(fine[1], np.diag([1e150, 1.0]), rtol=1e-12, atol=0.0)


def test_abs_power_rejects_malformed_stacks():
    good = np.stack([np.eye(3), 2.0 * np.eye(3)])
    assert abs_power(good, 2.0).shape == (2, 3, 3)
    with pytest.raises(DimensionError):
        abs_power(np.zeros((2, 3, 4)), 2.0)
    with pytest.raises(DimensionError):
        abs_power(np.zeros(3), 2.0)
    bad = good.astype(complex)
    bad[1, 2, 0] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        abs_power(bad, 2.0)
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        abs_power(bad, 2.0)
    with pytest.raises(DomainError):
        abs_power(good, 0.5)
