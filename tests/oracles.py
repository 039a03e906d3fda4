"""Independent reference implementations used as test oracles.

Everything here deliberately takes a different route from the library:
singular values come from np.linalg.svd instead of the Gram
eigendecomposition, Choi matrices are assembled with np.kron instead of
block writes, complete positivity is decided by applying the lifted map
to explicit positive inputs, and partial sums are accumulated in plain
Python.
"""

from __future__ import annotations

import numpy as np

from bohrcheck.cpmaps import MapSpec, apply_map, map_dims

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
