"""Structured positive linear maps on matrix algebras.

Maps are immutable spec objects built from four structural kinds, each
positive by construction:

- :class:`Congruence`: A -> X* A X
- :class:`DiagonalPOVM`: A -> sum_i A_ii P_i with PSD effects P_i
- :class:`BlockExtraction`: block matrix A -> X* A_ii X for one diagonal block
- :class:`WeightedSum`: nonnegative combination of sub-maps

:class:`Transpose` (A -> A^T, positive but not CP) has no wire format.
Each kind owns its ``dims``, ``_apply`` and ``_post_conjugate``.
The Choi matrix uses the convention C = sum_ij E_ij (x) Phi(E_ij); complete
positivity, Kraus extraction, and the Stinespring dilation all flow from
its spectral decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DimensionError,
    as_complex_matrix,
    frob,
    hermitize,
    make_rng,
    random_hermitian,
    require_hermitian,
    require_square,
    synthesize,
)

__all__ = [
    "SpecError",
    "PSD_TOL",
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


#: The one relative tolerance of this module's decisions: PSD effects and
#: Choi matrices, Hermitian Choi matrices, unitality (``_is_identity``), and
#: the Choi eigenvalues (as a fraction of the largest) kept as Kraus operators.
PSD_TOL = 1e-10


def _frozen(validate, a, **kwargs) -> np.ndarray:
    """``validate(a, **kwargs)`` as a read-only copy, since specs are
    immutable by contract; a rejected input raises :class:`SpecError`."""
    try:
        m = np.array(validate(a, **kwargs))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Congruence:
    """A -> X* A X, mapping n x n inputs to m x m outputs via X (n x m)."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(as_complex_matrix, self.x))

    @property
    def dims(self) -> tuple[int, int]:
        return self.x.shape

    def _apply(self, m: np.ndarray) -> np.ndarray:
        return self.x.conj().T @ m @ self.x

    def _post_conjugate(self, s: np.ndarray) -> Congruence:
        return Congruence(self.x @ s)


@dataclass(frozen=True, eq=False)
class DiagonalPOVM:
    """A -> sum_i A_ii P_i: diagonal entries weighted by PSD effects.

    Input dimension is the number of effects; every effect is an m x m PSD
    matrix (checked within PSD_TOL at construction, all effects at once).
    ``effects`` is a sequence of matrices or a ``(k, m, m)`` array, stored
    as one read-only ``(k, m, m)`` array.
    """

    effects: np.ndarray

    def __post_init__(self):
        effs = _frozen(require_hermitian, self.effects, rtol=PSD_TOL, stack="effect")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            h = hermitize(effs)
            # An entry that overflows, in h or in its eigenvalues, allows no
            # PSD decision; LAPACK, which may not converge on it, sees zeros.
            over = ~np.isfinite(h).all(axis=(-2, -1))
            h[over] = 0.0
            w = np.linalg.eigvalsh(h)
            over |= ~np.isfinite(w).all(axis=-1)
            low = over | (w[:, 0] < -PSD_TOL * np.maximum(1.0, w[:, -1]))
        if low.any():
            i = int(np.argmax(low))
            if not over[i]:
                raise SpecError(f"effect {i} has eigenvalue {w[i, 0]:.3e}, not PSD within tolerance")
            raise SpecError(f"effect {i} has eigenvalues that overflow; it cannot be shown PSD")
        object.__setattr__(self, "effects", effs)

    @property
    def dims(self) -> tuple[int, int]:
        return self.effects.shape[:2]

    def _apply(self, m: np.ndarray) -> np.ndarray:
        # Summed in effect order from +0, bit for bit the loop
        # out += m[i, i] * P_i; np.add.reduce sums in another order.
        terms = np.diagonal(m)[:, None, None] * self.effects
        terms[0] += 0.0
        return np.add.accumulate(terms)[-1]

    def _post_conjugate(self, s: np.ndarray) -> DiagonalPOVM:
        return DiagonalPOVM(s.conj().T @ self.effects @ s)


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
            raise SpecError(f"block index {self.index} outside [0, {self.block_count})")
        object.__setattr__(self, "x", _frozen(as_complex_matrix, self.x))

    @property
    def dims(self) -> tuple[int, int]:
        return self.block_count * self.x.shape[0], self.x.shape[1]

    def _apply(self, m: np.ndarray) -> np.ndarray:
        d, i = self.x.shape[0], self.index
        return self.x.conj().T @ m[i * d : (i + 1) * d, i * d : (i + 1) * d] @ self.x

    def _post_conjugate(self, s: np.ndarray) -> BlockExtraction:
        return BlockExtraction(self.index, self.block_count, self.x @ s)


@dataclass(frozen=True, eq=False)
class WeightedSum:
    """sum_i alpha_i Phi_i with alpha_i >= 0 and matching dimensions."""

    terms: tuple[tuple[float, "MapSpec"], ...]

    def __post_init__(self):
        terms = tuple((float(a), spec) for a, spec in self.terms)
        if not terms:
            raise SpecError("weighted sum needs at least one term")
        dims = map_dims(terms[0][1])
        for a, spec in terms:
            if not math.isfinite(a) or a < 0:
                raise SpecError(f"weights must be finite and nonnegative, got {a}")
            if map_dims(spec) != dims:
                raise SpecError(f"term dimensions {map_dims(spec)} do not match {dims}")
        object.__setattr__(self, "terms", terms)

    @property
    def dims(self) -> tuple[int, int]:
        return self.terms[0][1].dims

    def _apply(self, m: np.ndarray) -> np.ndarray:
        return sum(alpha * sub._apply(m) for alpha, sub in self.terms)

    def _post_conjugate(self, s: np.ndarray) -> WeightedSum:
        return WeightedSum(tuple((a, sub._post_conjugate(s)) for a, sub in self.terms))


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

    @property
    def dims(self) -> tuple[int, int]:
        return self.n, self.n

    def _apply(self, m: np.ndarray) -> np.ndarray:
        return m.T.copy()

    def _post_conjugate(self, s: np.ndarray):
        raise SpecError(f"cannot absorb a conjugation into map kind {type(self).__name__}")


MapSpec = Congruence | DiagonalPOVM | BlockExtraction | WeightedSum | Transpose


def map_dims(spec: MapSpec) -> tuple[int, int]:
    """(input dim, output dim) of the map."""
    dims = getattr(spec, "dims", None)
    if dims is None:
        raise SpecError(f"unknown map spec type {type(spec).__name__}")
    return dims


def apply_map(spec: MapSpec, a) -> np.ndarray:
    """Apply the map to a square matrix of the spec's input dimension."""
    m = require_square(a)
    n_in, _ = map_dims(spec)
    if m.shape[0] != n_in:
        raise DimensionError(f"map expects {n_in} x {n_in} input, got {m.shape}")
    return spec._apply(m)


def applied_to_identity(spec: MapSpec) -> np.ndarray:
    """Phi(I) on the input dimension."""
    n_in, _ = map_dims(spec)
    return hermitize(spec._apply(np.eye(n_in, dtype=complex)))


def is_unital(spec: MapSpec) -> bool:
    """True when Phi(I) = I within PSD_TOL."""
    return _is_identity(applied_to_identity(spec))


def _is_identity(t: np.ndarray) -> bool:
    """The one unital rule: ||Phi(I) - I||_F <= PSD_TOL * sqrt(n) for t = Phi(I)."""
    return frob(t - np.eye(t.shape[0])) <= PSD_TOL * math.sqrt(t.shape[0])


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


def _choi_eigh(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Ascending eigenpairs of a Choi matrix and whether it is PSD within
    PSD_TOL (relative to max(1, top eigenvalue)); the one place where a
    Choi matrix is checked Hermitian."""
    if frob(c - c.conj().T) > PSD_TOL * max(1.0, frob(c)):
        raise SpecError("Choi matrix is not Hermitian; the map is not *-preserving")
    w, v = np.linalg.eigh(hermitize(c))
    return w, v, bool(w[0] >= -PSD_TOL * max(1.0, float(w[-1])))


def is_completely_positive(spec: MapSpec) -> bool:
    """True iff the Choi matrix is PSD within PSD_TOL (Choi's criterion)."""
    return _choi_eigh(choi_matrix(spec))[2]


def kraus_from_choi(c, n: int, m: int) -> list[np.ndarray]:
    """Kraus operators K_s (n x m) from a PSD Choi matrix.

    A C that is not PSD within PSD_TOL raises; eigenpairs with eigenvalue
    <= PSD_TOL * lambda_max are dropped as numerical zeros. For the
    convention C = sum_ij E_ij (x) Phi(E_ij), each eigenvector v reshapes
    row-major to n x m and contributes K = sqrt(lam) * conj(V), giving
    Phi(A) = sum_s K_s* A K_s. Operators are returned largest-weight first.
    """
    cm = require_square(c)
    if cm.shape != (n * m, n * m):
        raise DimensionError(f"Choi matrix must be {n * m} x {n * m}, got {cm.shape}")
    w, v, psd = _choi_eigh(cm)
    if not psd:
        raise SpecError(f"Choi matrix has eigenvalue {w[0]:.3e}; not PSD within tolerance")
    keep = PSD_TOL * max(0.0, float(w[-1]))
    return [
        math.sqrt(float(w[i])) * np.conj(v[:, i].reshape(n, m))
        for i in range(len(w) - 1, -1, -1)
        if w[i] > keep
    ]


def kraus_operators(spec: MapSpec) -> list[np.ndarray]:
    """Kraus decomposition of a completely positive spec."""
    return kraus_from_choi(choi_matrix(spec), *map_dims(spec))


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Phi(A) = V* pi(A) V with pi(A) = blockdiag(A, ..., A).

    ``kraus`` is the (block_count, n, m) stack of Kraus operators, which
    keeps n even for the zero map, and ``isometry`` their vertical stack;
    ``recon_residual`` is the largest relative reconstruction error observed
    on the internal Hermitian test set. When Phi is unital, V is an
    isometry: V* V = I within tolerance.
    """

    kraus: np.ndarray
    recon_residual: float

    @property
    def block_count(self) -> int:
        return len(self.kraus)

    @property
    def isometry(self) -> np.ndarray:
        return self.kraus.reshape(-1, self.kraus.shape[2])

    def represent(self, a) -> np.ndarray:
        """Evaluate V* pi(A) V directly from the dilation."""
        m = require_square(a)
        k, n, _ = self.kraus.shape
        if m.shape[0] != n:
            raise DimensionError(f"dilation expects input dimension {n}, got {m.shape}")
        return self.isometry.conj().T @ np.kron(np.eye(k), m) @ self.isometry


def stinespring(spec: MapSpec) -> StinespringDilation:
    """Stinespring dilation of a completely positive spec, from its Kraus
    operators.

    Raises :class:`SpecError` when the Choi matrix is not PSD within
    PSD_TOL (the map is not CP, e.g. a transpose) or when the
    reconstruction residual of :meth:`StinespringDilation.represent` on 20
    fixed-seed random Hermitian inputs exceeds 1e-10 * max(1, ||Phi(A)||_F).
    """
    n, m = map_dims(spec)
    dil = StinespringDilation(np.array(kraus_operators(spec), complex).reshape(-1, n, m), 0.0)
    rng = make_rng(0x57135)
    worst = 0.0
    for _ in range(20):
        a = random_hermitian(n, (-2.0, 2.0), rng)
        direct = apply_map(spec, a)
        worst = max(worst, frob(direct - dil.represent(a)) / max(1.0, frob(direct)))
    if worst > 1e-10:
        raise SpecError(f"dilation reconstruction residual {worst:.3e} exceeds 1e-10")
    if is_unital(spec):
        defect = frob(dil.isometry.conj().T @ dil.isometry - np.eye(m))
        if defect > 1e-10 * math.sqrt(m):
            raise SpecError(f"unital map produced non-isometric V: ||V*V - I||_F = {defect:.3e}")
    return replace(dil, recon_residual=worst)


def normalize_unital(spec: MapSpec) -> MapSpec:
    """Unital normalization Psi(A) = Phi(I)^(-1/2) Phi(A) Phi(I)^(-1/2).

    Phi(I) must be positive definite (smallest eigenvalue above
    1e-10 * largest). A spec that :func:`is_unital` accepts is returned
    unchanged; the conjugation is otherwise absorbed into the leaf blocks,
    so the result stays within the structural kinds.
    """
    t = applied_to_identity(spec)
    if _is_identity(t):
        return spec
    w, u = np.linalg.eigh(t)
    if w[-1] <= 0 or w[0] <= 1e-10 * float(w[-1]):
        raise SpecError(
            f"Phi(I) must be positive definite; eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return spec._post_conjugate(synthesize(u, w ** -0.5))
