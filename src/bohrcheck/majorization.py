"""Singular values and unitarily invariant norms.

Ky Fan norms are the top-k partial sums of singular values, so weak
majorization of singular value vectors is exactly simultaneous domination
in every Ky Fan norm, and by Fan dominance in every unitarily invariant
norm, Schatten norms included. The checkers grade weak majorization of
their own partial sums; this module supplies the singular values and the
Schatten sums they are compared by. :func:`ky_fan_max_estimate` probes the variational characterization of
top-k eigenvalue sums over orthonormal frames.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import complex_gaussian, eig_descending, gram, require_hermitian, require_square

__all__ = [
    "SINGULAR_CLAMP",
    "singular_values",
    "schatten_of_values",
    "ky_fan_max_estimate",
]

#: Eigenvalues of A*A above this noise floor must be nonnegative; values in
#: [-SINGULAR_CLAMP, 0) are clamped to zero before the square root.
SINGULAR_CLAMP = 1e-11


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, descending.

    Derived from the spectrum of A*A; eigenvalue noise down to
    -SINGULAR_CLAMP is clamped to zero, anything lower is an error. An
    A*A that overflows raises ``numpy.linalg.LinAlgError``.
    """
    m = require_square(a)
    w = np.linalg.eigvalsh(gram(m))
    floor = SINGULAR_CLAMP * max(1.0, float(w[-1]) if w[-1] > 0 else 1.0)
    if w[0] < -floor:
        raise ValueError(f"Gram matrix eigenvalue {w[0]:.3e} below noise floor {-floor:.3e}")
    w = np.clip(w, 0.0, None)
    return np.sqrt(w)[::-1]


def schatten_of_values(values, p):
    """(sum_j v_j^p)^(1/p) of nonnegative values v, for p >= 1.

    ``p`` is one order, giving a float, or a sequence of orders, giving a
    list with one sum per order in one stacked reduction. Sums in the
    order given, so callers fix their own roundoff. The largest value is
    factored out so v^p cannot overflow for large p.
    """
    orders = [float(q) for q in np.atleast_1d(p)]
    for q in orders:
        if not math.isfinite(q) or q < 1.0:
            raise ValueError(f"Schatten order must satisfy p >= 1, got {q}")
    v = np.asarray(values, dtype=float)
    top = float(np.max(v))
    if top == 0.0:
        norms = [0.0] * len(orders)
    else:
        u = v / top
        # One power per order: a scalar exponent keeps numpy's exact
        # square at p = 2, which an array of exponents does not.
        sums = np.sum([u**q for q in orders], axis=-1).tolist()
        norms = [top * s ** (1.0 / q) for q, s in zip(orders, sums)]
    return norms if np.ndim(p) else norms[0]


def ky_fan_max_estimate(a, k: int, trials: int, rng: np.random.Generator) -> float:
    """Sampled maximum of sum_j <A x_j, x_j> over orthonormal k-frames.

    Gaussian n x k draws are orthonormalized by QR; the eigenvector frame
    of the top-k eigenspace is always included, so the estimate attains the
    true maximum (the top-k eigenvalue sum) up to roundoff and never falls
    below what any sampled frame achieves.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m = require_hermitian(a)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    _, u = eig_descending(m)
    frame = u[:, :k]
    best = float(np.real(np.trace(frame.conj().T @ m @ frame)))
    for _ in range(trials):
        z = complex_gaussian((n, k), rng)
        q, _ = np.linalg.qr(z)
        val = float(np.real(np.trace(q.conj().T @ m @ q)))
        best = max(best, val)
    return best
