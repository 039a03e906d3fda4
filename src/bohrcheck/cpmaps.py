"""Structured positive linear maps on matrix algebras.

Maps are immutable spec objects built from four structural kinds, each
positive by construction:

- :class:`Congruence`: A -> X* A X
- :class:`DiagonalPOVM`: A -> sum_i A_ii P_i with PSD effects P_i
- :class:`BlockExtraction`: block matrix A -> X* A_ii X for one diagonal block
- :class:`WeightedSum`: nonnegative combination of sub-maps

:class:`Transpose` (A -> A^T) is also provided as a positive-but-not-CP
control for tests and is deliberately excluded from the JSON wire format.
The Choi matrix uses the convention C = sum_ij E_ij (x) Phi(E_ij); complete
positivity, Kraus extraction, and the Stinespring dilation all flow from
its spectral decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import (
    DimensionError,
    frob,
    hermitize,
    make_rng,
    random_hermitian,
    require_square,
)

__all__ = [
    "SpecError",
    "PSD_TOL",
    "KRAUS_KEEP_RTOL",
    "Congruence",
    "DiagonalPOVM",
    "BlockExtraction",
    "WeightedSum",
    "Transpose",
    "MapSpec",
    "map_dims",
    "apply_map",
    "applied_to_identity",
    "is_unital",
    "choi_matrix",
    "is_completely_positive",
    "kraus_from_choi",
    "kraus_operators",
    "StinespringDilation",
    "stinespring",
    "normalize_unital",
]


class SpecError(ValueError):
    """A map spec is structurally invalid or violates a precondition."""


#: Relative tolerance for PSD checks on effects and Choi matrices.
PSD_TOL = 1e-10

#: Choi eigenvalues at or below this fraction of the largest are dropped
#: when extracting Kraus operators.
KRAUS_KEEP_RTOL = 1e-10


def _frozen(a) -> np.ndarray:
    """Defensive copy marked read-only; specs are immutable by contract."""
    m = np.array(a, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Congruence:
    """A -> X* A X, mapping n x n inputs to m x m outputs via X (n x m)."""

    x: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.x, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise SpecError(f"congruence block must be a 2-d matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise SpecError("congruence block must have finite entries")
        object.__setattr__(self, "x", _frozen(m))


@dataclass(frozen=True, eq=False)
class DiagonalPOVM:
    """A -> sum_i A_ii P_i: diagonal entries weighted by PSD effects.

    Input dimension is the number of effects; every effect is an m x m PSD
    matrix (checked within PSD_TOL at construction, all effects in one
    stacked eigensolve).
    """

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effs = tuple(require_square(p) for p in self.effects)
        if not effs:
            raise SpecError("POVM needs at least one effect")
        m = effs[0].shape[0]
        for i, p in enumerate(effs):
            if p.shape != (m, m):
                raise SpecError(f"effect {i} has shape {p.shape}, expected {(m, m)}")
            if frob(p - p.conj().T) > PSD_TOL * max(1.0, frob(p)):
                raise SpecError(f"effect {i} is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(hermitize(np.stack(effs)))
        low = w[:, 0] < -PSD_TOL * np.maximum(1.0, w[:, -1])
        if low.any():
            i = int(np.argmax(low))
            raise SpecError(f"effect {i} has eigenvalue {w[i, 0]:.3e}, not PSD within tolerance")
        object.__setattr__(self, "effects", tuple(_frozen(p) for p in effs))


@dataclass(frozen=True, eq=False)
class BlockExtraction:
    """Block matrix A -> X* A_ii X for the i-th diagonal block.

    Inputs are (block_count * d) square matrices viewed as block_count^2
    blocks of size d = x.shape[0]; the selected diagonal block is congruated
    by X (d x m).
    """

    index: int
    block_count: int
    x: np.ndarray

    def __post_init__(self):
        if self.block_count < 1:
            raise SpecError(f"block_count must be >= 1, got {self.block_count}")
        if not 0 <= self.index < self.block_count:
            raise SpecError(
                f"block index {self.index} outside [0, {self.block_count})"
            )
        m = np.asarray(self.x, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise SpecError(f"extraction block must be a 2-d matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise SpecError("extraction block must have finite entries")
        object.__setattr__(self, "x", _frozen(m))


@dataclass(frozen=True, eq=False)
class WeightedSum:
    """sum_i alpha_i Phi_i with alpha_i >= 0 and matching dimensions."""

    terms: tuple[tuple[float, "MapSpec"], ...]

    def __post_init__(self):
        terms = tuple((float(a), spec) for a, spec in self.terms)
        if not terms:
            raise SpecError("weighted sum needs at least one term")
        dims = None
        for a, spec in terms:
            if not math.isfinite(a) or a < 0:
                raise SpecError(f"weights must be finite and nonnegative, got {a}")
            d = map_dims(spec)
            if dims is None:
                dims = d
            elif d != dims:
                raise SpecError(f"term dimensions {d} do not match {dims}")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Transpose:
    """A -> A^T on M_n: positive and unital but not completely positive.

    Test-support kind; it has no JSON encoding and cannot be produced by
    the instance generators.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecError(f"dimension must be >= 1, got {self.n}")


MapSpec = Union[Congruence, DiagonalPOVM, BlockExtraction, WeightedSum, Transpose]


def map_dims(spec: MapSpec) -> tuple[int, int]:
    """(input dim, output dim) of the map."""
    if isinstance(spec, Congruence):
        return spec.x.shape[0], spec.x.shape[1]
    if isinstance(spec, DiagonalPOVM):
        return len(spec.effects), spec.effects[0].shape[0]
    if isinstance(spec, BlockExtraction):
        return spec.block_count * spec.x.shape[0], spec.x.shape[1]
    if isinstance(spec, WeightedSum):
        return map_dims(spec.terms[0][1])
    if isinstance(spec, Transpose):
        return spec.n, spec.n
    raise SpecError(f"unknown map spec type {type(spec).__name__}")


def apply_map(spec: MapSpec, a) -> np.ndarray:
    """Apply the map to a square matrix of the spec's input dimension."""
    m = require_square(a)
    n_in, _ = map_dims(spec)
    if m.shape[0] != n_in:
        raise DimensionError(f"map expects {n_in} x {n_in} input, got {m.shape}")
    return _apply(spec, m)


def _apply(spec: MapSpec, m: np.ndarray) -> np.ndarray:
    """:func:`apply_map` on input already validated against ``spec``."""
    if isinstance(spec, Congruence):
        return spec.x.conj().T @ m @ spec.x
    if isinstance(spec, DiagonalPOVM):
        out = np.zeros((spec.effects[0].shape[0],) * 2, dtype=complex)
        for i, p in enumerate(spec.effects):
            out += m[i, i] * p
        return out
    if isinstance(spec, BlockExtraction):
        d = spec.x.shape[0]
        i = spec.index
        block = m[i * d : (i + 1) * d, i * d : (i + 1) * d]
        return spec.x.conj().T @ block @ spec.x
    if isinstance(spec, WeightedSum):
        n_out = map_dims(spec)[1]
        out = np.zeros((n_out, n_out), dtype=complex)
        for alpha, sub in spec.terms:
            out += alpha * _apply(sub, m)
        return out
    if isinstance(spec, Transpose):
        return m.T.copy()
    raise SpecError(f"unknown map spec type {type(spec).__name__}")


def applied_to_identity(spec: MapSpec) -> np.ndarray:
    """Phi(I) on the input dimension."""
    n_in, _ = map_dims(spec)
    return hermitize(apply_map(spec, np.eye(n_in)))


def is_unital(spec: MapSpec, tol: float = PSD_TOL) -> bool:
    """True when Phi(I) = I within tolerance."""
    t = applied_to_identity(spec)
    return frob(t - np.eye(t.shape[0])) <= tol * math.sqrt(t.shape[0])


def choi_matrix(spec: MapSpec) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij (x) Phi(E_ij), shape (n*m, n*m).

    Block (i, j) of C is Phi(E_ij); C is Hermitian for the kinds here
    because they are *-preserving.
    """
    n, m = map_dims(spec)
    c = np.zeros((n * m, n * m), dtype=complex)
    basis = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            basis[i, j] = 1.0
            c[i * m : (i + 1) * m, j * m : (j + 1) * m] = apply_map(spec, basis)
            basis[i, j] = 0.0
    return c


def is_completely_positive(spec: MapSpec, tol: float = PSD_TOL) -> bool:
    """True iff the Choi matrix is PSD within tol (relative to its top eigenvalue)."""
    c = choi_matrix(spec)
    if frob(c - c.conj().T) > 1e-10 * max(1.0, frob(c)):
        raise SpecError("Choi matrix is not Hermitian; map is not *-preserving")
    w = np.linalg.eigvalsh(hermitize(c))
    return bool(w[0] >= -tol * max(1.0, float(w[-1])))


def kraus_from_choi(c, n: int, m: int, tol: float = KRAUS_KEEP_RTOL) -> list[np.ndarray]:
    """Kraus operators K_s (n x m) from a PSD Choi matrix.

    Eigenpairs with eigenvalue <= tol * lambda_max are dropped as numerical
    zeros; eigenvalues below -tol * lambda_max raise. For the convention
    C = sum_ij E_ij (x) Phi(E_ij), each eigenvector v reshapes row-major to
    n x m and contributes K = sqrt(lam) * conj(V), giving
    Phi(A) = sum_s K_s* A K_s. Operators are returned largest-weight first.
    """
    cm = require_square(c)
    if cm.shape != (n * m, n * m):
        raise DimensionError(f"Choi matrix must be {n * m} x {n * m}, got {cm.shape}")
    if frob(cm - cm.conj().T) > 1e-10 * max(1.0, frob(cm)):
        raise SpecError("Choi matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hermitize(cm))
    top = max(0.0, float(w[-1]))
    if w[0] < -tol * max(1.0, top):
        raise SpecError(f"Choi matrix has eigenvalue {w[0]:.3e}; not PSD within tolerance")
    kraus = []
    for idx in range(len(w) - 1, -1, -1):
        lam = float(w[idx])
        if lam <= tol * top:
            break
        k = math.sqrt(lam) * np.conj(v[:, idx].reshape(n, m))
        kraus.append(k)
    return kraus


def kraus_operators(spec: MapSpec, tol: float = KRAUS_KEEP_RTOL) -> list[np.ndarray]:
    """Kraus decomposition of a completely positive spec."""
    n, m = map_dims(spec)
    return kraus_from_choi(choi_matrix(spec), n, m, tol)


def _dilation_apply(v: np.ndarray, k: int, a: np.ndarray) -> np.ndarray:
    """V* pi(A) V with pi the k-fold block-diagonal repetition of A."""
    pi = np.kron(np.eye(k), a)
    return v.conj().T @ pi @ v


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Phi(A) = V* pi(A) V with pi(A) = blockdiag(A, ..., A).

    ``isometry`` is the (block_count * n) x m vertical stack of the Kraus
    operators; ``recon_residual`` is the largest relative reconstruction
    error observed on the internal Hermitian test set. When Phi is unital,
    V is an isometry: V* V = I within tolerance.
    """

    isometry: np.ndarray
    kraus: tuple[np.ndarray, ...]
    block_count: int
    recon_residual: float

    def represent(self, a) -> np.ndarray:
        """Evaluate V* pi(A) V directly from the dilation."""
        m = require_square(a)
        k = self.block_count
        if k == 0:
            return np.zeros((self.isometry.shape[1],) * 2, dtype=complex)
        if self.isometry.shape[0] != k * m.shape[0]:
            raise DimensionError(
                f"dilation expects input dimension {self.isometry.shape[0] // k}, "
                f"got {m.shape}"
            )
        return _dilation_apply(self.isometry, k, m)


def stinespring(spec: MapSpec, tol: float = PSD_TOL) -> StinespringDilation:
    """Stinespring dilation of a completely positive spec.

    Raises :class:`SpecError` when the Choi matrix is not PSD within tol
    (the map is not CP, e.g. a transpose) or when the reconstruction
    residual on 20 fixed-seed random Hermitian inputs exceeds
    1e-10 * max(1, ||Phi(A)||_F).
    """
    n, m = map_dims(spec)
    kraus = kraus_from_choi(choi_matrix(spec), n, m, tol)
    v = np.vstack(kraus) if kraus else np.zeros((0, m), dtype=complex)
    k = len(kraus)
    rng = make_rng(0x57135)
    worst = 0.0
    for _ in range(20):
        a = random_hermitian(n, (-2.0, 2.0), rng)
        direct = apply_map(spec, a)
        via = (
            _dilation_apply(v, k, a)
            if k
            else np.zeros((m, m), dtype=complex)
        )
        worst = max(worst, frob(direct - via) / max(1.0, frob(direct)))
    if worst > 1e-10:
        raise SpecError(f"dilation reconstruction residual {worst:.3e} exceeds 1e-10")
    if is_unital(spec):
        gram = v.conj().T @ v
        defect = frob(gram - np.eye(m))
        if defect > 1e-10 * math.sqrt(m):
            raise SpecError(
                f"unital map produced non-isometric V: ||V*V - I||_F = {defect:.3e}"
            )
    return StinespringDilation(
        isometry=v, kraus=tuple(kraus), block_count=k, recon_residual=worst
    )


def normalize_unital(spec: MapSpec) -> MapSpec:
    """Unital normalization Psi(A) = Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2).

    Phi(I) must be positive definite (smallest eigenvalue above
    1e-10 * largest). An already-unital spec is returned unchanged; the
    conjugation is otherwise absorbed into the leaf blocks, so the result
    stays within the structural kinds.
    """
    t = applied_to_identity(spec)
    n_in = t.shape[0]
    if frob(t - np.eye(n_in)) <= 1e-12 * math.sqrt(n_in):
        return spec
    w, u = np.linalg.eigh(t)
    if w[-1] <= 0 or w[0] <= 1e-10 * float(w[-1]):
        raise SpecError(
            f"Phi(I) must be positive definite; eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    s = hermitize((u * w ** -0.5) @ u.conj().T)
    return _post_conjugate(spec, s)


def _post_conjugate(spec: MapSpec, s: np.ndarray) -> MapSpec:
    """Spec computing S* Phi(A) S, with Hermitian S pushed into the leaves."""
    if isinstance(spec, Congruence):
        return Congruence(spec.x @ s)
    if isinstance(spec, DiagonalPOVM):
        return DiagonalPOVM(tuple(s.conj().T @ p @ s for p in spec.effects))
    if isinstance(spec, BlockExtraction):
        return BlockExtraction(spec.index, spec.block_count, spec.x @ s)
    if isinstance(spec, WeightedSum):
        return WeightedSum(tuple((a, _post_conjugate(sub, s)) for a, sub in spec.terms))
    raise SpecError(
        f"cannot absorb a conjugation into map kind {type(spec).__name__}"
    )
