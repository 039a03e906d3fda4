"""Function registry, hypothesis-flag scans, and Hermitian functional calculus."""

import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

import bohrcheck.calculus as calculus
from bohrcheck.calculus import (
    DEFAULT_SCAN_GRID,
    FLAG_NAMES,
    SCAN_TOL,
    DomainError,
    abs_power,
    apply_fun,
    function_registry,
    make_function_spec,
    scan_function_flags,
)
from bohrcheck.cpmaps import Congruence
from bohrcheck.inequalities import check_jensen_map
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
from oracles import abs_power_inline, apply_fun_inline
from oracles import local_scan_flags
from oracles import scan_function_flags as pairwise_scan


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
    # The library scans product pairs i <= j only and evaluates f once; the
    # oracle evaluates every ordered product pair and grades the local
    # convexity test point by point. Flags and worst values must agree
    # exactly, NaN included.
    compared = 0
    for fid in function_registry():
        for lo, hi in ORACLE_DOMAINS:
            if fid == "half_pow" and lo < 0:
                continue
            for r in (1.0, 1.7, 2.0, 3.0) if fid in ("abs_pow", "half_pow") else (None,):
                fn = make_function_spec(fid, (lo, hi), r).fn
                report = scan_function_flags(fn, (lo, hi), grid_size)
                flags, worst = local_scan_flags(fn, lo, hi, grid_size)
                assert report.flags == flags, (fid, lo, hi, r)
                for name, value in worst.items():
                    got = report.worst[name]
                    assert got == value or (math.isnan(got) and math.isnan(value)), (
                        fid, lo, hi, r, name, got, value,
                    )
                compared += 1
    assert compared >= 6 * len(ORACLE_DOMAINS)


def _random_domains(count, seed=2022):
    """Seeded domains: wide and narrow, one-sided, symmetric and tiny."""
    rng = np.random.default_rng(seed)
    domains = []
    for k in range(count):
        if k % 4 == 0:
            lo, hi = sorted(rng.uniform(-50.0, 50.0, 2))
        elif k % 4 == 1:
            lo, hi = sorted(rng.uniform(0.0, 10.0, 2))
        elif k % 4 == 2:
            s = 10.0 ** rng.uniform(-8.0, 3.0)
            lo, hi = -s * rng.uniform(), s
        else:
            lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        domains.append((float(lo), float(hi)))
    return domains


def _registry_specs(domains, rng):
    """Every registry function on every domain it accepts, r in {1, 1.7, 2,
    3, one drawn from [1, 4]}; builds that overflow are skipped."""
    for fid in function_registry():
        for lo, hi in domains:
            if fid == "half_pow" and lo < 0:
                continue
            takes_r = fid in ("abs_pow", "half_pow")
            for r in (1.0, 1.7, 2.0, 3.0, float(rng.uniform(1.0, 4.0))) if takes_r else (None,):
                try:
                    yield make_function_spec(fid, (lo, hi), r)
                except ValueError:  # expm1 overflows on the widest domains
                    continue


@pytest.mark.parametrize(
    "domains, grid_sizes",
    [(ORACLE_DOMAINS, (3, 33, 129, 1000)), (_random_domains(300), (3, 33, 129))],
    ids=["oracle-domains", "random-domains"],
)
def test_scan_flags_match_the_pairwise_scan(domains, grid_sizes):
    # The pairwise midpoint scan is the reference: on the registry
    # functions every flag equals its flag.
    compared = 0
    for spec in _registry_specs(domains, np.random.default_rng(7)):
        lo, hi = spec.domain
        for grid_size in grid_sizes:
            with np.errstate(over="ignore"):  # the oracle's f(u)f(v) on expm1's widest domains
                flags, _ = pairwise_scan(spec.fn, lo, hi, grid_size)
            assert scan_function_flags(spec.fn, spec.domain, grid_size).flags == flags, (
                spec.id, lo, hi, spec.r, grid_size,
            )
            compared += 1
    assert compared >= 4 * len(domains) * len(grid_sizes)


def test_fingerprint_campaign_specs_keep_their_pairwise_flags(monkeypatch, tmp_path):
    # Every spec that the fingerprint campaigns build at 100 trials. One
    # usable CPU keeps every trial in this process, where the scans are seen.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    loader = importlib.util.spec_from_file_location("fingerprint_tool", path)
    tool = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tool)

    scans = []
    real = calculus.scan_function_flags

    def recording(fn, domain, grid_size=DEFAULT_SCAN_GRID):
        report = real(fn, domain, grid_size)
        scans.append((fn, domain, grid_size, report.flags))
        return report

    monkeypatch.setattr(calculus, "scan_function_flags", recording)
    tool.fingerprint_lines(100, tmp_path)
    assert len(scans) >= 100
    for fn, (lo, hi), grid_size, got in scans:
        assert got == pairwise_scan(fn, lo, hi, grid_size)[0], (fn, lo, hi)


#: Non-convex or non-monotone functions outside the registry.
FOREIGN_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "-t^2": lambda t: -np.square(t),
    "|t|^0.5": lambda t: np.abs(t) ** 0.5,
    "t^3": lambda t: t**3,
    "t^4 - t^2": lambda t: t**4 - t**2,
}


@pytest.mark.parametrize("name", FOREIGN_FUNCTIONS)
def test_foreign_functions_keep_their_pairwise_flags(name):
    fn = FOREIGN_FUNCTIONS[name]
    for lo, hi in ORACLE_DOMAINS[:4]:
        flags, _ = pairwise_scan(fn, lo, hi, DEFAULT_SCAN_GRID)
        assert scan_function_flags(fn, (lo, hi)).flags == flags, (lo, hi)


def test_a_dip_between_grid_points_fails_the_local_test():
    # The dip sits between grid points 0 and 1 of the 129-point grid on
    # [0, 3], where no pairwise midpoint lands: the pairwise test passes it
    # and the half-step grid sees it. This is the direction the local test
    # is stricter in.
    def dipped(t):
        return np.square(t) - 1e-3 * np.exp(-(((t - 0.0117) / 0.003) ** 2))

    assert pairwise_scan(dipped, 0.0, 3.0, DEFAULT_SCAN_GRID)[0]["convex_on_J"]
    report = scan_function_flags(dipped, (0.0, 3.0))
    assert not report.flags["convex_on_J"]
    assert report.worst["convex_on_J"] > 1e-6


def test_concavity_below_each_local_slack_is_caught_by_the_widest_pair():
    # Each local test grants SCAN_TOL, and over s half steps that adds up
    # to about SCAN_TOL * s^2: t^(1 - 5e-7) on [1, 1.5] passes every local
    # test, though the pairwise scan finds it concave by 1e-8 of its scale.
    # The widest pair centred on each point catches it, and the unital
    # Jensen map inequality does not apply, where it would be violated.
    spec = make_function_spec("half_pow", (1.0, 1.5), r=2.0 - 1e-6)
    flags, worst = pairwise_scan(spec.fn, 1.0, 1.5, DEFAULT_SCAN_GRID)
    assert not flags["convex_on_J"] and worst["convex_on_J"] > 1e-8
    y = spec(np.linspace(1.0, 1.5, 2 * DEFAULT_SCAN_GRID - 1))
    assert np.max(y[1:-1] - (0.5 * y[:-2] + 0.5 * y[2:])) <= SCAN_TOL
    assert not spec.flag("convex_on_J")
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    report = check_jensen_map(spec, np.diag([1.0, 1.5]), Congruence(np.eye(2)), x, "unital")
    assert report.verdict == "not_applicable"


def test_a_scan_evaluates_f_once():
    calls = []

    def counting(t):
        calls.append(t.size)
        return np.square(t)

    scan_function_flags(counting, (-3.0, 3.0))
    assert len(calls) == 1 and calls[0] > 257 + 33 + 1  # grid, subgrid, products, 0
    scan_function_flags(counting, (2.0, 3.0))
    assert calls[1:] == [257 + 33]  # no product and not 0 inside


@pytest.mark.filterwarnings("error")
def test_scans_at_the_top_of_the_float_range_do_not_warn():
    # Products overflow on (-3, 1e300), and grid sums on (0, 1.7e308); f is
    # finite on both, so both build with the flags the scan supports.
    assert dict(make_function_spec("linear", (-3.0, 1e300)).flags) == dict.fromkeys(FLAG_NAMES, True)
    assert make_function_spec("linear", (0.0, 1.7e308)).flag("increasing")
    with pytest.raises(ValueError, match="interval width hi - lo = inf"):
        make_function_spec("linear", (-1e308, 1e308))
    # A test whose own arithmetic overflows is no evidence either way.
    report = scan_function_flags(lambda t: np.where(t < 0, -1.7e308, 1.7e308), (-1.0, 1.0))
    assert not report.flags["submultiplicative"]


# --- functional calculus ----------------------------------------------------------


def test_apply_fun_square_diagonal():
    f = make_function_spec("square", (-3, 3))
    out = apply_fun(f, eig_hermitian(np.diag([1.0, -2.0])))
    assert np.allclose(out, np.diag([1.0, 4.0]), atol=1e-12)


def test_apply_fun_expm1_at_zero():
    f = make_function_spec("expm1", (-1, 1))
    assert np.allclose(apply_fun(f, eig_hermitian(np.zeros((3, 3)))), np.zeros((3, 3)), atol=1e-13)


def test_apply_fun_abs_pow_on_symmetric_flip():
    f = make_function_spec("abs_pow", (-2, 2), r=1.5)
    out = apply_fun(f, eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_apply_fun_identity_function_is_identity():
    f = make_function_spec("linear", (-4, 4))
    rng = make_rng(21)
    for _ in range(20):
        a = random_hermitian(int(rng.integers(1, 7)), (-3.5, 3.5), rng)
        assert frob(apply_fun(f, eig_hermitian(a)) - a) <= 1e-11 * max(1.0, frob(a))


def test_apply_fun_matches_reference_calculus():
    rng = make_rng(22)
    f = make_function_spec("expm1", (-3, 3))
    for _ in range(50):
        a = random_hermitian(int(rng.integers(2, 7)), (-2.9, 2.9), rng)
        assert frob(apply_fun(f, eig_hermitian(a)) - fun_hermitian_ref(np.expm1, a)) <= 1e-9


def test_apply_fun_spectral_mapping_and_commutation():
    rng = make_rng(23)
    f = make_function_spec("abs_pow", (-3, 3), r=2.5)
    for _ in range(50):
        a = random_hermitian(int(rng.integers(2, 7)), (-3.0, 3.0), rng)
        fa = apply_fun(f, eig_hermitian(a))
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
        lhs = apply_fun(f, eig_hermitian(u @ a @ u.conj().T))
        rhs = u @ apply_fun(f, eig_hermitian(a)) @ u.conj().T
        assert frob(lhs - rhs) <= 1e-10 * max(1.0, frob(a))


def test_apply_fun_clamps_roundoff_but_rejects_real_excursions():
    f = make_function_spec("square", (-1.0, 1.0))
    # 1e-12 past the endpoint is eigensolver noise; clamp and proceed.
    near = np.diag([1.0 + 1e-12, 0.0])
    assert np.allclose(apply_fun(f, eig_hermitian(near)), np.diag([1.0, 0.0]), atol=1e-9)
    with pytest.raises(DomainError):
        apply_fun(f, eig_hermitian(np.diag([1.5, 0.0])))


def test_apply_fun_on_a_stack_is_each_member_alone():
    rng = make_rng(52)
    for fid, domain in (("expm1", (-3.0, 3.0)), ("relu", (-3.0, 3.0)), ("half_pow", (0.0, 3.0))):
        f = make_function_spec(fid, domain, 2.5 if fid == "half_pow" else None)
        for n in range(1, 9):
            # A scalar member has repeated eigenvalues, whose order is a tie.
            mats = np.stack([random_hermitian(n, domain, rng) for _ in range(3)] + [np.eye(n)])
            out = apply_fun(f, eig_hermitian(mats, stack="matrix"))
            assert out.shape == mats.shape
            for got, m in zip(out, mats):
                want = apply_fun(f, eig_hermitian(m))
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
        eig = eig_hermitian(mats, stack="matrix")
        spectra = eig.eigenvalues
        try:
            apply_fun(f, eig)
            raised = False
        except DomainError:
            raised = True
        assert f.covers(spectra) is not raised
        for m, spectrum in zip(mats, spectra):
            try:
                apply_fun(f, eig_hermitian(m))
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


def _signed_zero_diagonals(mats: np.ndarray, rng) -> np.ndarray:
    """``mats`` with one diagonal entry of each member set to +0.0 or -0.0."""
    mats = np.array(mats, dtype=complex)
    i = int(rng.integers(mats.shape[-1]))
    mats[:, i, i] = rng.choice([0.0, -0.0], size=len(mats))
    return mats


def test_apply_fun_is_the_inline_calculus_bit_for_bit():
    # Every registry function on seeded single matrices and stacks, with
    # signed-zero diagonals: the same bytes, or the same DomainError.
    rng = make_rng(29)
    specs = [make_function_spec(fid, (-2.0, 2.0)) for fid in ("expm1", "linear", "relu", "square")]
    specs += [make_function_spec("abs_pow", (-2.0, 2.0), 2.5)]
    specs += [make_function_spec("half_pow", (0.0, 2.0), 3.0)]
    outcomes = set()
    for _ in range(60):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        lo = float(rng.choice([-2.0, 0.0]))
        mats = np.stack([random_hermitian(n, (lo, 2.0), rng) for _ in range(k)])
        for family in (mats, _signed_zero_diagonals(mats, rng)):
            for a, stack in ((family, "matrix"), (family[0], None)):
                eig = eig_hermitian(a, stack=stack)
                for f in specs:
                    try:
                        want = apply_fun_inline(f, a)
                    except DomainError:
                        with pytest.raises(DomainError):
                            apply_fun(f, eig)
                        outcomes.add("escapes")
                        continue
                    assert apply_fun(f, eig).tobytes() == want.tobytes()
                    outcomes.add("applied")
    assert outcomes == {"applied", "escapes"}


def test_abs_power_is_the_inline_kernel_bit_for_bit():
    rng = make_rng(30)
    for _ in range(100):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        r = float(rng.choice([1.0, 2.0, float(rng.uniform(1.0, 4.0))]))
        mats = complex_gaussian((k, n, n), rng)
        for family in (mats, _signed_zero_diagonals(mats, rng), np.real(mats)):
            for a in (family, family[0]):
                assert abs_power(a, r).tobytes() == abs_power_inline(a, r).tobytes()
    diag = np.diag([0.0, -0.0, 2.0])
    assert abs_power(diag, 3.0).tobytes() == abs_power_inline(diag, 3.0).tobytes()


def test_a_non_finite_spectrum_escapes_every_domain():
    # An infinite end once made the tolerance 1e-9 * |end| infinite, so
    # covers() passed it and apply_fun clamped inf to the domain's end.
    f = make_function_spec("square", (-3.0, 3.0))
    for spectrum in ([0.0, np.inf], [-np.inf, 0.0], [[0.0, 1.0], [0.0, np.inf]], [np.nan, 0.0]):
        assert not f.covers(spectrum)
    message = r"^spectrum \[0, inf\] escapes domain \[-3, 3\] beyond tolerance inf$"
    with pytest.raises(DomainError, match=message):
        apply_fun(f, (np.array([np.inf, 0.0]), np.eye(2)))


def test_apply_fun_on_a_stack_reports_the_escaping_member():
    f = make_function_spec("square", (-1.0, 1.0))
    mats = np.stack([np.diag([0.5, 0.0]), np.diag([1.5, -0.25]), np.diag([2.0, 0.0])])
    message = r"^spectrum \[-0\.25, 1\.5\] escapes domain \[-1, 1\] beyond tolerance 1\.5e-09$"
    with pytest.raises(DomainError, match=message):
        apply_fun(f, eig_hermitian(mats, stack="matrix"))
    with pytest.raises(DomainError, match=message):
        apply_fun(f, eig_hermitian(mats[1]))
    with pytest.raises(ValueError, match="^matrix 1 is not Hermitian"):
        apply_fun(f, eig_hermitian(np.stack([np.eye(2), np.triu(np.ones((2, 2)))]), stack="matrix"))


def test_apply_fun_rejects_nonfinite_values():
    f = make_function_spec("linear", (-2, 2))
    bad = type(f)(
        id="bad", domain=f.domain, fn=lambda t: np.full_like(np.asarray(t, float), np.inf),
        flags=dict(f.flags), r=None,
    )
    with pytest.raises(ValueError):
        apply_fun(bad, eig_hermitian(np.eye(2)))


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
    # Each case is refused as the inline kernel refused it, and the good
    # stack gives the inline kernel's bytes.
    good = np.stack([np.eye(3), 2.0 * np.eye(3)])
    assert abs_power(good, 2.0).shape == (2, 3, 3)
    assert abs_power(good, 2.0).tobytes() == abs_power_inline(good, 2.0).tobytes()
    inf_entry, nan_entry = good.astype(complex), good.astype(complex)
    inf_entry[1, 2, 0] = complex(0.0, np.inf)
    nan_entry[1, 2, 0] = np.nan
    cases = [
        (np.zeros((2, 3, 4)), 2.0, DimensionError, None),
        (np.zeros(3), 2.0, DimensionError, None),
        (inf_entry, 2.0, ValueError, "finite"),
        (nan_entry, 2.0, ValueError, "finite"),
        (good, 0.5, DomainError, None),
    ]
    for a, r, error, words in cases:
        for kernel in (abs_power, abs_power_inline):
            with pytest.raises(error, match=words):
                kernel(a, r)
    # Stacks are (k, n, n): deeper or empty ones, which the inline kernel
    # took, are refused.
    for a in (np.zeros((2, 2, 3, 3)), np.zeros((0, 3, 3))):
        with pytest.raises(DimensionError):
            abs_power(a, 2.0)
