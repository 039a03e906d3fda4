"""Dense complex linear algebra with reproducible randomness.

Everything downstream sits on this module: validated complex matrices,
Hermitian eigendecomposition with a fixed (descending) eigenvalue order,
and seeded generators for structured random inputs. Randomized helpers
take an explicit ``numpy.random.Generator``; independent work items get
decorrelated counter-based streams via :func:`make_rng` so campaigns
replay bit-identically. The matrix absolute value |A|^r lives in
:func:`calculus.abs_power`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MASK64",
    "HERMITIAN_RTOL",
    "DimensionError",
    "Interval",
    "as_interval",
    "mix64",
    "stream_key",
    "make_rng",
    "as_complex_matrix",
    "require_square",
    "require_hermitian",
    "hermitize",
    "gram",
    "frob",
    "EigenDecomposition",
    "eig_hermitian",
    "eig_descending",
    "synthesize",
    "complex_gaussian",
    "random_unitary",
    "random_hermitian",
    "random_map_family",
]

MASK64 = (1 << 64) - 1

#: Relative tolerance for accepting a matrix as Hermitian:
#: ||A - A*||_F <= HERMITIAN_RTOL * max(1, ||A||_F).
HERMITIAN_RTOL = 1e-12


class DimensionError(ValueError):
    """Input shape is unusable for the requested operation."""


class Interval(NamedTuple):
    """Closed real interval [lo, hi]; degenerate (lo == hi) is allowed."""

    lo: float
    hi: float

    def validate(self) -> "Interval":
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got {self!r}")
        if self.hi < self.lo:
            raise ValueError(f"interval is empty: {self!r}")
        return self

    def clamp(self, values) -> np.ndarray:
        return np.clip(np.asarray(values, dtype=float), self.lo, self.hi)


def as_interval(obj) -> Interval:
    """Coerce a 2-sequence (lo, hi) to a validated Interval."""
    if isinstance(obj, Interval):
        return obj.validate()
    lo, hi = obj
    return Interval(float(lo), float(hi)).validate()


# --- seeded stream derivation ---------------------------------------------

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer; bijective mixing on 64-bit integers."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _SPLITMIX_M1) & MASK64
    x ^= x >> 27
    x = (x * _SPLITMIX_M2) & MASK64
    x ^= x >> 31
    return x


def stream_key(seed: int, stream: int) -> int:
    """64-bit key for a (seed, stream) pair.

    Distinct streams under one seed are decorrelated, so per-trial
    generators can be derived without sharing mutable state.
    """
    return mix64((int(seed) + _SPLITMIX_GAMMA * (int(stream) + 1)) & MASK64)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Identical pairs yield identical sequences on every platform, which is
    what makes fuzz campaigns byte-reproducible.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, stream)))


# --- validation helpers ----------------------------------------------------


def as_complex_matrix(a, *, stack: str | None = None) -> np.ndarray:
    """Coerce to a 2-d complex ndarray with finite entries.

    With ``stack``, ``a`` is a nonempty sequence of matrices of one shape,
    checked once as a ``(k, n, m)`` array; messages call a member
    ``f"{stack} {i}"`` and name the first one whose shape differs.
    """
    if stack is not None:
        # Compared before stacking, so numpy never sees a ragged family.
        shapes = [np.shape(x) for x in a]
        if not shapes:
            raise DimensionError(f"expected at least one {stack}")
        for i, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise DimensionError(f"{stack} {i} has shape {shape}, expected {shapes[0]}")
    m = np.asarray(a, dtype=complex)
    if m.ndim != (2 if stack is None else 3) or min(m.shape) < 1:
        raise DimensionError(
            f"expected 2-d matrices with positive dimensions, got shape {m.shape}"
        )
    # A complex entry is finite exactly when both of its parts are.
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def require_square(a, *, stack: str | None = None) -> np.ndarray:
    m = as_complex_matrix(a, stack=stack)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {m.shape}")
    return m


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a, "fro"))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2 of a matrix or of each matrix in a
    ``(..., n, n)`` stack; projects out roundoff asymmetry."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def gram(m: np.ndarray) -> np.ndarray:
    """Hermitian A*A of a finite matrix or of each matrix of a stack. An
    entry that overflows raises ``numpy.linalg.LinAlgError``, since an
    eigensolver would return zeros for it."""
    with np.errstate(over="ignore", invalid="ignore"):  # the check below says so
        g = hermitize(m.conj().swapaxes(-1, -2) @ m)
    if not np.isfinite(g).all():
        raise np.linalg.LinAlgError("A*A overflows: its Gram matrix has a non-finite entry")
    return g


def require_hermitian(a, rtol: float = HERMITIAN_RTOL, *, stack: str | None = None) -> np.ndarray:
    """Square matrix (or ``stack``, see :func:`as_complex_matrix`) with
    ||A - A*||_F <= rtol * max(1, ||A||_F) for each matrix."""
    m = require_square(a, stack=stack)
    defects, sizes = _hermitian_norms(m)
    if not math.isfinite(sizes if stack is None else sizes.max()):
        # ||A||_F overflowed: compare again in units u = 2^k >= 1 near each
        # matrix's largest real or imaginary part, where no norm can. The
        # division is exact and ||A||_F >= 1 in them if u > 1: the same rule.
        big = np.maximum(abs(m.real), abs(m.imag)).max(axis=(-2, -1))
        k = np.maximum(np.frexp(big)[1] - 1, 0)
        defects, sizes = _hermitian_norms(m / np.ldexp(1.0, k)[..., None, None])
    if stack is None:
        defect, size, name = defects, sizes, "matrix"
    else:
        i = int(np.argmax(defects > rtol * np.maximum(1.0, sizes)))
        defect, size, name = float(defects[i]), float(sizes[i]), f"{stack} {i}"
    if defect > rtol * max(1.0, size):
        raise ValueError(
            f"{name} is not Hermitian: ||A - A*||_F / max(1, ||A||_F) = "
            f"{defect / max(1.0, size):.3e} exceeds {rtol:g}"
        )
    return m


def _hermitian_norms(m: np.ndarray):
    """(||A - A*||_F, ||A||_F) of a matrix, or arrays of both for a stack; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        if m.ndim == 2:  # frob's dot products beat a per-slice norm on one matrix
            return frob(m - m.conj().T), frob(m)
        star = m.conj().swapaxes(-1, -2)
        return np.linalg.norm(m - star, axis=(-2, -1)), np.linalg.norm(m, axis=(-2, -1))


# --- eigendecomposition ----------------------------------------------------


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = U diag(w) U*.

    ``eigenvalues`` are real and sorted descending; column j of
    ``eigenvectors`` pairs with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a, *, stack: str | None = None) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Ties keep the backend's order (stable sort), so the output is a
    deterministic function of the input. A ``stack`` (see
    :func:`as_complex_matrix`) is decomposed in one call, each member bit
    for bit as alone. A backend that fails to converge raises
    ``numpy.linalg.LinAlgError``, which a campaign records as an error line.
    """
    return eig_descending(require_hermitian(a, stack=stack))


def eig_descending(m: np.ndarray) -> EigenDecomposition:
    """:func:`eig_hermitian` for input already validated Hermitian: a
    matrix or ``(k, n, n)`` stack that passed :func:`require_hermitian`."""
    w, u = np.linalg.eigh(hermitize(m))
    order = np.argsort(-w, axis=-1, kind="stable")
    if m.ndim == 2:  # plain indexing beats take_along_axis on one matrix
        return EigenDecomposition(w[order], u[:, order])
    return EigenDecomposition(
        np.take_along_axis(w, order, -1), np.take_along_axis(u, order[:, None, :], -1)
    )


def synthesize(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """U diag(v) U* from unitary columns ``u`` and real ``values``, for one
    matrix or each of a ``(k, n, n)`` stack; column j of U pairs with
    ``values[..., j]``. The one synthesis step of f(A), |A|^r and the
    random Hermitian draws."""
    return hermitize((u * values[..., None, :]) @ u.conj().swapaxes(-1, -2))


# --- random structured inputs ----------------------------------------------


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian array: (N(0,1) + i N(0,1)) / sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre draws z of shape (..., n, n): QR, with
    column phases fixed so the R factor has positive diagonal (without the
    fix QR's sign ambiguity skews the distribution)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Ginibre draw)."""
    if n < 1:
        raise DimensionError(f"unitary dimension must be >= 1, got {n}")
    return _haar(complex_gaussian((n, n), rng))


def random_hermitian(
    n: int, interval, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Random Hermitian matrix with spectrum drawn uniformly in an interval.

    Conjugates a uniform eigenvalue draw by a Haar unitary, so the spectrum
    lies in [lo, hi] by construction (degenerate intervals give lam * I).
    With ``count``, a ``(count, n, n)`` family: the members' numbers are
    drawn in turn, then factored and conjugated in one stacked call, so
    member i equals the i-th of ``count`` sequential calls bit for bit.
    """
    if n < 1:
        raise DimensionError(f"matrix dimension must be >= 1, got {n}")
    iv = as_interval(interval)
    k = 1 if count is None else count
    draws = [(rng.uniform(iv.lo, iv.hi, size=n), complex_gaussian((n, n), rng)) for _ in range(k)]
    lam, z = draws[0] if count is None else map(np.stack, zip(*draws))
    return synthesize(_haar(z), lam)


def random_map_family(
    ell: int, n: int, m: int, weights: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """Random n x m blocks X_i with sum_i w_i X_i* X_i <= I_m, as an
    ``(ell, n, m)`` stack.

    Draws Ginibre blocks Y_i and rescales them all by
    1/sqrt(max(1, lambda_max(sum_i w_i Y_i* Y_i))), which enforces the
    operator constraint without distorting relative block shapes. All-zero
    weights make the constraint vacuous and the draws are returned unscaled.
    """
    if ell < 1:
        raise DimensionError(f"family length must be >= 1, got {ell}")
    if n < 1 or m < 1:
        raise DimensionError(f"block dimensions must be >= 1, got {n} x {m}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (ell,):
        raise DimensionError(f"expected {ell} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    ys = np.stack([complex_gaussian((n, m), rng) for _ in range(ell)])
    g = sum(wi * gram for wi, gram in zip(w, ys.conj().swapaxes(-1, -2) @ ys))
    top = float(np.linalg.eigvalsh(hermitize(g))[-1]) if np.any(w > 0) else 0.0
    return ys * (1.0 / math.sqrt(max(1.0, top)))
