"""Independent reference implementations used as test oracles.

Everything here deliberately takes a different route from the library:
singular values come from np.linalg.svd instead of the Gram
eigendecomposition, Choi matrices are assembled with np.kron instead of
block writes, flag scans evaluate the full pair grid instead of its upper
triangle and test local convexity in plain Python floats instead of one
array expression, complete positivity is decided by applying the lifted map
to explicit positive inputs, partial sums are accumulated in plain
Python, random families are drawn and factored one member at a time
instead of as one stack, POVMs are applied and their blocks drawn one
effect at a time instead of in one broadcast or one draw, reports are
graded on numpy arrays instead of Python floats, map specs are
dispatched by isinstance chains on their kind instead of by the members
each kind owns, and f(A), |A|^r and U diag(v) U* are written out inline
instead of through the one synthesis kernel.
"""

from __future__ import annotations

import math

import numpy as np

from bohrcheck.calculus import SCAN_TOL, ConvexFunctionSpec, DomainError
from bohrcheck.cpmaps import (
    PSD_TOL,
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    MapSpec,
    SpecError,
    Transpose,
    WeightedSum,
    apply_map,
    map_dims,
)
from bohrcheck.inequalities import DEFAULT_RTOL, EQUALITY_RTOL, CheckReport
from bohrcheck.linalg import DimensionError, complex_gaussian, eig_hermitian, frob, gram, hermitize

MASK64 = (1 << 64) - 1


def partial_sums_desc(values) -> list[float]:
    """Top-k partial sums of the descending rearrangement, in plain Python."""
    ordered = sorted((float(v) for v in values), reverse=True)
    sums, acc = [], 0.0
    for v in ordered:
        acc += v
        sums.append(acc)
    return sums


def svd_singular_values(a) -> np.ndarray:
    return np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)


def abs_via_svd(a) -> np.ndarray:
    """|A| = V diag(s) V* from the SVD A = U diag(s) V*."""
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return vh.conj().T @ np.diag(s) @ vh


def fun_hermitian_ref(fn, a) -> np.ndarray:
    """f(A) by straight np.linalg.eigh, bypassing the library calculus."""
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    return v @ np.diag(fn(w)) @ v.conj().T


def kyfan_ref(a, k: int) -> float:
    s = np.sort(svd_singular_values(a))[::-1]
    return float(np.sum(s[:k]))


def schatten_ref(a, p: float) -> float:
    s = svd_singular_values(a)
    return float(np.sum(s**p) ** (1.0 / p))


def splitmix64_ref(x: int) -> int:
    """SplitMix64 finalizer written out step by step."""
    x &= MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return (x ^ (x >> 31)) & MASK64


def choi_via_kron(spec: MapSpec) -> np.ndarray:
    """Choi matrix assembled as sum_ij kron(E_ij, Phi(E_ij))."""
    n, m = map_dims(spec)
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, apply_map(spec, e))
    return c


def lifted_apply(spec: MapSpec, z) -> np.ndarray:
    """Apply the amplification Phi_k blockwise to a (k*n) x (k*n) matrix."""
    n, m = map_dims(spec)
    z = np.asarray(z, dtype=complex)
    if z.shape[0] % n:
        raise ValueError(f"block input of shape {z.shape} for input dimension {n}")
    k = z.shape[0] // n
    out = np.zeros((k * m, k * m), dtype=complex)
    for a in range(k):
        for b in range(k):
            block = z[a * n : (a + 1) * n, b * n : (b + 1) * n]
            out[a * m : (a + 1) * m, b * m : (b + 1) * m] = apply_map(spec, block)
    return out


def _relative_min_eig(mat: np.ndarray) -> float:
    h = (mat + mat.conj().T) / 2.0
    w = np.linalg.eigvalsh(h)
    return float(w[0]) / max(1.0, float(w[-1]))


def entangled_projector(n: int) -> np.ndarray:
    """omega omega* with omega = sum_a e_a (x) e_a; the worst-case CP input."""
    omega = np.zeros(n * n, dtype=complex)
    omega[:: n + 1] = 1.0
    return np.outer(omega, omega.conj())


def cp_by_lifted_positivity(spec: MapSpec, rng, probes: int = 50, tol: float = 1e-8) -> bool:
    """Complete positivity via the definition: Phi_n keeps PSD inputs PSD.

    Checks the maximally entangled projector (which is extremal, so a
    negative lifted output there decides non-CP exactly) together with
    random PSD probes.
    """
    n, _ = map_dims(spec)
    worst = _relative_min_eig(lifted_apply(spec, entangled_projector(n)))
    for _ in range(probes):
        g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        z = g @ g.conj().T / (n * n)
        worst = min(worst, _relative_min_eig(lifted_apply(spec, z)))
    return worst >= -tol


#: Each registry function's formula as a numpy expression of a float array
#: t and its parameter r (None where the function takes none).
REGISTRY_FORMULAS = {
    "abs_pow": lambda t, r: np.abs(t) ** r,
    "half_pow": lambda t, r: np.clip(t, 0.0, None) ** (r / 2.0),
    "square": lambda t, r: np.square(t),
    "expm1": lambda t, r: np.expm1(t),
    "relu": lambda t, r: np.maximum(t, 0.0),
    "linear": lambda t, r: t + 0.0,
}


def scan_function_flags(fn, lo: float, hi: float, grid_size: int) -> tuple[dict, dict]:
    """Flag scan over the full (u, v) grid: ``(flags, worst)``.

    Same tests, tolerances and grids as the library scan, but every ordered
    pair is evaluated, so symmetry of the pair tables is not assumed.
    """

    def ev(x):
        out = np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("function evaluated to a non-finite value on its domain")
        return out

    grid = np.linspace(lo, hi, grid_size)
    vals = ev(grid)
    zero_in = lo <= 0.0 <= hi
    f0 = float(ev([0.0])[0]) if zero_in else math.nan

    mid = ev((grid[:, None] + grid[None, :]) / 2.0)
    means = 0.5 * (vals[:, None] + vals[None, :])
    conv_worst = float(np.max((mid - means) / np.maximum(1.0, np.abs(means))))

    diffs = vals[1:] - vals[:-1]
    mono_worst = float(np.max(-diffs)) / max(1.0, float(np.max(np.abs(vals))))

    sub = np.linspace(lo, hi, min(33, grid_size))
    subvals = ev(sub)
    prod = sub[:, None] * sub[None, :]
    mask = (prod >= lo) & (prod <= hi)
    if np.any(mask):
        fprod = ev(prod[mask])
        fpair = (subvals[:, None] * subvals[None, :])[mask]
        sub_worst = float(np.max((fprod - fpair) / np.maximum(1.0, np.abs(fpair))))
    else:
        sub_worst = math.nan

    flags = {
        "convex_on_J": conv_worst <= SCAN_TOL,
        "zero_in_J": zero_in,
        "f0_nonpositive": zero_in and f0 <= SCAN_TOL,
        "increasing": mono_worst <= SCAN_TOL,
        "submultiplicative": sub_worst <= SCAN_TOL,
    }
    worst = {
        "convex_on_J": conv_worst,
        "f0_nonpositive": f0,
        "increasing": mono_worst,
        "submultiplicative": sub_worst,
    }
    return flags, worst


def local_scan_flags(fn, lo: float, hi: float, grid_size: int) -> tuple[dict, dict]:
    """The library's flag scan, ``(flags, worst)``, over the full grids.

    As :func:`scan_function_flags`, except that convexity compares each
    inner point y_k of the (2 grid_size - 1)-point grid y with the mean of
    f at y_{k-s} and y_{k+s}, for s = 1 and for the widest s, min(k, N - k)
    with N = 2 grid_size - 2, each mean halved before it is added; f is
    evaluated on y on its own and each test is graded one at a time.
    """
    flags, worst = scan_function_flags(fn, lo, hi, grid_size)
    y = [float(v) for v in fn(np.linspace(lo, hi, 2 * grid_size - 1))]
    n = len(y) - 1
    conv_worst = -math.inf
    for k in range(1, n):
        for s in (1, min(k, n - k)):
            mean = 0.5 * y[k - s] + 0.5 * y[k + s]
            conv_worst = max(conv_worst, (y[k] - mean) / max(1.0, abs(mean)))
    flags["convex_on_J"] = conv_worst <= SCAN_TOL
    worst["convex_on_J"] = conv_worst
    return flags, worst


def random_hermitian_ref(n: int, lo: float, hi: float, rng) -> np.ndarray:
    """One Haar-conjugated uniform spectrum, factored as a lone matrix."""
    lam = rng.uniform(lo, hi, size=n)
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    u = q * (d / np.abs(d))
    return hermitize((u * lam) @ u.conj().T)


def random_map_family_ref(ell: int, n: int, m: int, weights, rng) -> list[np.ndarray]:
    """Contractive Ginibre blocks, one Gram product per member."""
    ys = [complex_gaussian((n, m), rng) for _ in range(ell)]
    g = np.zeros((m, m), dtype=complex)
    for wi, y in zip(weights, ys):
        g += wi * (y.conj().T @ y)
    top = float(np.linalg.eigvalsh(hermitize(g))[-1]) if np.any(np.asarray(weights) > 0) else 0.0
    s = 1.0 / math.sqrt(max(1.0, top))
    return [s * y for y in ys]


def graded_report_ref(theorem_id, lhs, rhs, hyps, tol, extras=None, comparison="partial-sums"):
    """A report graded on numpy arrays (the checkers grade in Python floats)."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    slack = rhs - lhs
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    min_slack = float(np.min(slack))
    tol_used = float(tol) if tol is not None else DEFAULT_RTOL * scale
    near = np.nonzero(np.abs(slack) <= EQUALITY_RTOL * scale)[0]
    merged = {"comparison": comparison, "equality_ks": [int(k) + 1 for k in near]}
    merged.update(extras or {})
    return CheckReport(
        theorem_id=theorem_id,
        verdict="held" if min_slack >= -tol_used else "violated",
        partial_sums_lhs=tuple(float(x) for x in lhs),
        partial_sums_rhs=tuple(float(x) for x in rhs),
        min_slack=min_slack,
        tol_used=tol_used,
        hypothesis_report=dict(hyps),
        extras=merged,
    )


def povm_apply_loop(effects, a) -> np.ndarray:
    """sum_i A_ii P_i, one effect at a time from a +0 matrix."""
    effects = np.asarray(effects, dtype=complex)
    out = np.zeros(effects.shape[1:], dtype=complex)
    for i, p in enumerate(effects):
        out += a[i, i] * p
    return out


def povm_blocks_loop(n: int, m: int, rng) -> np.ndarray:
    """n Gaussian m x m blocks, one complex_gaussian call each."""
    return np.stack([complex_gaussian((m, m), rng) for _ in range(n)])


# --- map kinds by isinstance dispatch -----------------------------------------
# The three chains the map classes' dims, _apply and _post_conjugate members
# replaced, kept as they were written, with normalize_unital and Phi(I) on
# top of them.


def map_dims_chain(spec: MapSpec) -> tuple[int, int]:
    if isinstance(spec, Congruence):
        return spec.x.shape[0], spec.x.shape[1]
    if isinstance(spec, DiagonalPOVM):
        return len(spec.effects), spec.effects[0].shape[0]
    if isinstance(spec, BlockExtraction):
        return spec.block_count * spec.x.shape[0], spec.x.shape[1]
    if isinstance(spec, WeightedSum):
        return map_dims_chain(spec.terms[0][1])
    if isinstance(spec, Transpose):
        return spec.n, spec.n
    raise SpecError(f"unknown map spec type {type(spec).__name__}")


def apply_chain(spec: MapSpec, m: np.ndarray) -> np.ndarray:
    if isinstance(spec, Congruence):
        return spec.x.conj().T @ m @ spec.x
    if isinstance(spec, DiagonalPOVM):
        terms = np.diagonal(m)[:, None, None] * spec.effects
        terms[0] += 0.0
        return np.add.accumulate(terms)[-1]
    if isinstance(spec, BlockExtraction):
        d = spec.x.shape[0]
        i = spec.index
        block = m[i * d : (i + 1) * d, i * d : (i + 1) * d]
        return spec.x.conj().T @ block @ spec.x
    if isinstance(spec, WeightedSum):
        return sum(alpha * apply_chain(sub, m) for alpha, sub in spec.terms)
    if isinstance(spec, Transpose):
        return m.T.copy()
    raise SpecError(f"unknown map spec type {type(spec).__name__}")


def post_conjugate_chain(spec: MapSpec, s: np.ndarray) -> MapSpec:
    if isinstance(spec, Congruence):
        return Congruence(spec.x @ s)
    if isinstance(spec, DiagonalPOVM):
        return DiagonalPOVM(s.conj().T @ spec.effects @ s)
    if isinstance(spec, BlockExtraction):
        return BlockExtraction(spec.index, spec.block_count, spec.x @ s)
    if isinstance(spec, WeightedSum):
        return WeightedSum(tuple((a, post_conjugate_chain(sub, s)) for a, sub in spec.terms))
    raise SpecError(
        f"cannot absorb a conjugation into map kind {type(spec).__name__}"
    )


def applied_to_identity_chain(spec: MapSpec) -> np.ndarray:
    n_in, _ = map_dims_chain(spec)
    return hermitize(apply_chain(spec, np.eye(n_in, dtype=complex)))


def normalize_unital_chain(spec: MapSpec) -> MapSpec:
    t = applied_to_identity_chain(spec)
    if frob(t - np.eye(t.shape[0])) <= PSD_TOL * math.sqrt(t.shape[0]):
        return spec
    w, u = np.linalg.eigh(t)
    if w[-1] <= 0 or w[0] <= 1e-10 * float(w[-1]):
        raise SpecError(
            f"Phi(I) must be positive definite; eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    s = hermitize((u * w ** -0.5) @ u.conj().T)
    return post_conjugate_chain(spec, s)


# --- spectral steps written inline ---------------------------------------------
# U diag(v) U*, f(A) and |A|^r as each was written before linalg.synthesize
# and apply_fun(spec, eig) replaced them; the domain test reads covers().


def synthesis_inline(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """U diag(v) U* of a matrix or stack, as random_hermitian wrote it."""
    return hermitize((u * values[..., None, :]) @ u.conj().swapaxes(-1, -2))


def synthesis_inline_2d(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """U diag(v) U* of one matrix, as normalize_unital wrote it."""
    return hermitize((u * values) @ u.conj().T)


def apply_eig_inline(spec: ConvexFunctionSpec, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    iv = spec.domain
    if not spec.covers(w):
        raise DomainError(f"spectrum escapes domain [{iv.lo:g}, {iv.hi:g}]")
    fw = np.asarray(spec.fn(np.asarray(iv.clamp(w), dtype=float)), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function evaluated to a non-finite value on its domain")
    return hermitize((u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2))


def apply_fun_inline(spec: ConvexFunctionSpec, a) -> np.ndarray:
    """f(A) of one matrix or a (k, n, n) family, validated and decomposed."""
    return apply_eig_inline(spec, *eig_hermitian(a, stack="matrix" if np.ndim(a) == 3 else None))


def abs_power_inline(a, r: float) -> np.ndarray:
    """|A|^r of a matrix or (..., n, n) stack, with its own validation."""
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise DomainError(f"exponent must satisfy r >= 1, got {r}")
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] < 1 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices of shape (..., n, n), got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    w, u = np.linalg.eigh(gram(m))
    w = np.clip(w, 0.0, None)
    return hermitize((u * (w ** (r / 2.0))[..., None, :]) @ u.conj().swapaxes(-1, -2))
