"""Scalar convex functions and Hermitian functional calculus.

A :class:`ConvexFunctionSpec` bundles a vectorized scalar function with the
hypothesis flags the inequality checkers consume (convexity, monotonicity,
submultiplicativity, behaviour at zero). Each registry row holds a kernel
f(t, r) on float arrays beside its rules for r and the domain, and
:func:`make_function_spec` binds r once. Flags come from numeric grid
scans, never from symbolic reasoning, so a spec can only claim what its
own evaluations support. :func:`apply_fun` lifts a spec to Hermitian
matrices through the spectral decomposition, and :func:`abs_power` computes
|A|^r for arbitrary square A, or for every matrix of a stack at once.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    DimensionError,
    Interval,
    as_interval,
    eig_hermitian,
    gram,
    hermitize,
)

__all__ = [
    "DomainError",
    "FLAG_NAMES",
    "SCAN_TOL",
    "DEFAULT_SCAN_GRID",
    "SPECTRUM_CLAMP_RTOL",
    "ConvexFunctionSpec",
    "FunctionFlagReport",
    "scan_function_flags",
    "function_registry",
    "make_function_spec",
    "apply_fun",
    "abs_power",
]


class DomainError(ValueError):
    """Evaluation point falls outside a function's domain."""


#: Hypothesis flags carried by every function spec.
FLAG_NAMES = (
    "convex_on_J",
    "zero_in_J",
    "f0_nonpositive",
    "increasing",
    "submultiplicative",
)

#: Additive slack granted to every grid scan.
SCAN_TOL = 1e-12

#: Grid size used when a spec is constructed; tests rescan at 1000.
DEFAULT_SCAN_GRID = 129

#: Eigenvalues within this relative distance outside the domain are clamped
#: to the nearest endpoint; anything further out raises DomainError. The
#: checkers' domain hypotheses draw the same line (``covers``).
SPECTRUM_CLAMP_RTOL = 1e-9

#: Point count of the coarser subgrid used for product (u*v) scans.
_PRODUCT_GRID = 33


@dataclass(frozen=True)
class ConvexFunctionSpec:
    """A scalar function on a closed interval with scanned hypothesis flags.

    ``fn`` must accept and return float ndarrays. ``flags`` maps each name
    in :data:`FLAG_NAMES` to the outcome of its numeric scan at
    construction time, read-only; a True flag means the property held on
    the scan grid, nothing stronger.
    """

    id: str
    domain: Interval
    fn: Callable[[np.ndarray], np.ndarray]
    flags: Mapping[str, bool]
    r: float | None = None

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def flag(self, name: str) -> bool:
        if name not in FLAG_NAMES:
            raise KeyError(f"unknown hypothesis flag {name!r}")
        return bool(self.flags.get(name, False))

    def covers(self, values) -> bool:
        """True when :func:`apply_fun` accepts every spectrum in ``values``."""
        return _escape(self.domain, values) is None


def _escape(iv: Interval, values) -> str | None:
    """The one domain rule for spectra: a spectrum (a 1-d set, or each row
    of a 2-d array) is inside ``iv`` when it lies within
    SPECTRUM_CLAMP_RTOL * max(1, its own largest |value|) of it. Returns
    the DomainError text of the first spectrum outside, or None."""
    w = np.atleast_2d(np.asarray(values, dtype=float))
    for bottom, top in zip(w.min(axis=-1).tolist(), w.max(axis=-1).tolist()):
        tol = SPECTRUM_CLAMP_RTOL * max(1.0, abs(top), abs(bottom))
        if not (bottom >= iv.lo - tol and top <= iv.hi + tol):
            return (
                f"spectrum [{bottom:.6g}, {top:.6g}] escapes domain "
                f"[{iv.lo:g}, {iv.hi:g}] beyond tolerance {tol:.3g}"
            )
    return None


@dataclass(frozen=True)
class FunctionFlagReport:
    """Outcome of re-running the hypothesis scans for one spec.

    ``flags`` holds the scanned verdicts; ``worst`` holds the largest
    signed violation seen per scanned property (negative or zero means the
    scan passed with margin). The submultiplicativity entry is NaN when no
    grid pair had its product inside the domain, in which case the flag is
    reported False for lack of evidence.
    """

    flags: dict[str, bool]
    worst: dict[str, float]
    grid_size: int


def _eval(fn, x) -> np.ndarray:
    out = np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("function evaluated to a non-finite value on its domain")
    return out


@functools.lru_cache(maxsize=4)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index pairs (i, j), i <= j, of a size x size table."""
    pairs = np.triu_indices(size)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def scan_function_flags(fn, domain, grid_size: int = DEFAULT_SCAN_GRID) -> FunctionFlagReport:
    """Numeric hypothesis scans for a scalar function on an interval.

    Convexity is the pairwise midpoint test f((u+v)/2) <= (f(u)+f(v))/2,
    monotonicity checks consecutive grid differences, and
    submultiplicativity checks f(u*v) <= f(u)f(v) over a coarser subgrid
    restricted to pairs whose product stays in the domain. Each test gets
    :data:`SCAN_TOL` of slack relative to the local value magnitude, so
    exact-equality cases (|t|^r is multiplicative) survive roundoff on
    wide domains; reported worst violations are in those relative units.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    iv = as_interval(domain)
    grid = np.linspace(iv.lo, iv.hi, grid_size)
    vals = _eval(fn, grid)
    val_scale = max(1.0, float(np.max(np.abs(vals))))

    zero_in = iv.lo <= 0.0 <= iv.hi
    f0_worst = float(_eval(fn, [0.0])[0]) if zero_in else math.nan

    # Both pair tables are symmetric in (u, v) bit for bit (float + and *
    # commute), so the pairs i <= j give the same flags and worst values.
    iu, ju = _upper_pairs(grid_size)
    midvals = _eval(fn, (grid[iu] + grid[ju]) / 2.0)
    means = 0.5 * (vals[iu] + vals[ju])
    conv_worst = float(np.max((midvals - means) / np.maximum(1.0, np.abs(means))))

    diffs = vals[1:] - vals[:-1]
    mono_worst = float(np.max(-diffs)) / val_scale if diffs.size else 0.0

    sub_size = min(_PRODUCT_GRID, grid_size)
    sub = np.linspace(iv.lo, iv.hi, sub_size)
    subvals = _eval(fn, sub)
    iu, ju = _upper_pairs(sub_size)
    prod = sub[iu] * sub[ju]
    mask = (prod >= iv.lo) & (prod <= iv.hi)
    sub_worst = math.nan
    if np.any(mask):
        fprod = _eval(fn, prod[mask])
        fpair = (subvals[iu] * subvals[ju])[mask]
        sub_worst = float(np.max((fprod - fpair) / np.maximum(1.0, np.abs(fpair))))

    worst = {
        "convex_on_J": conv_worst,
        "f0_nonpositive": f0_worst,
        "increasing": mono_worst,
        "submultiplicative": sub_worst,
    }
    flags = {name: value <= SCAN_TOL for name, value in worst.items()}
    flags["zero_in_J"] = zero_in
    return FunctionFlagReport(flags=flags, worst=worst, grid_size=grid_size)


# --- registry ---------------------------------------------------------------

#: id -> (kernel f(t, r) on float arrays, takes r, needs a nonnegative
#: domain). A spec binds r once; kernels that take none ignore it.
_REGISTRY: dict[str, tuple[Callable, bool, bool]] = {
    "abs_pow": (lambda t, r: np.abs(t) ** r, True, False),
    # t^(r/2) is defined for t >= 0 only; the clip only guards roundoff.
    "half_pow": (lambda t, r: np.clip(t, 0.0, None) ** (r / 2.0), True, True),
    "square": (lambda t, r: np.square(t), False, False),
    "expm1": (lambda t, r: np.expm1(t), False, False),
    "relu": (lambda t, r: np.maximum(t, 0.0), False, False),
    "linear": (lambda t, r: t + 0.0, False, False),  # + 0.0 turns -0.0 into 0.0
}


def function_registry() -> tuple[str, ...]:
    """Identifiers accepted by :func:`make_function_spec`, sorted."""
    return tuple(sorted(_REGISTRY))


def make_function_spec(fid: str, domain, r: float | None = None) -> ConvexFunctionSpec:
    """Build a registry function on a domain and scan its hypothesis flags.

    ``r`` is required for the parametric families (abs_pow, half_pow) and
    rejected otherwise. half_pow additionally requires a nonnegative
    domain, since t^(r/2) is only defined there.
    """
    if fid not in _REGISTRY:
        raise KeyError(f"unknown function id {fid!r}; known: {', '.join(function_registry())}")
    kernel, takes_r, nonneg_domain = _REGISTRY[fid]
    iv = as_interval(domain)
    if takes_r:
        if r is None:
            raise ValueError(f"function {fid!r} requires parameter r")
        r = float(r)
        if not math.isfinite(r) or r <= 0:
            raise ValueError(f"parameter r must be finite and positive, got {r}")
    elif r is not None:
        raise ValueError(f"function {fid!r} takes no parameter r")
    if nonneg_domain and iv.lo < 0:
        raise DomainError(f"function {fid!r} needs a nonnegative domain, got {iv}")
    fn = functools.partial(kernel, r=r)
    flags = types.MappingProxyType(scan_function_flags(fn, iv).flags)  # specs may be shared
    return ConvexFunctionSpec(id=fid, domain=iv, fn=fn, flags=flags, r=r)


# --- functional calculus ----------------------------------------------------


def apply_fun(spec: ConvexFunctionSpec, a) -> np.ndarray:
    """f(A) = U diag(f(lambda)) U* for Hermitian A with spectrum in f's domain.

    ``a`` is one n x n matrix or a ``(k, n, n)`` family, which is validated
    once and decomposed in one call; slice i of the result is f(a[i]), bit
    for bit. Eigenvalues within SPECTRUM_CLAMP_RTOL * max(1, spectral
    radius) outside the domain are clamped to the nearest endpoint;
    anything further out raises :class:`DomainError`, naming the first
    member's spectrum that escapes.
    """
    return _apply_eig(spec, *eig_hermitian(a, stack="matrix" if np.ndim(a) == 3 else None))


def _apply_eig(spec: ConvexFunctionSpec, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`apply_fun` from a validated matrix's or stack's decomposition
    (w, u), so a caller that gated on ``spec.covers(w)`` applies f to it."""
    iv = spec.domain
    escape = _escape(iv, w)
    if escape is not None:
        raise DomainError(escape)
    fw = _eval(spec.fn, iv.clamp(w))
    return hermitize((u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2))


def abs_power(a, r: float) -> np.ndarray:
    """|A|^r for any square A and real exponent r >= 1; r = 1 gives |A|.

    ``a`` is one n x n matrix or a stack of shape ``(..., n, n)``, which is
    validated once and decomposed in one call; slice i of the result is
    |a[i]|^r. Computed from the spectral decomposition of A*A as
    (A*A)^(r/2), which avoids forming |A| first; an A*A that overflows, for
    any member, raises ``numpy.linalg.LinAlgError``. r < 1 is rejected
    because the family used throughout is the convex one.
    """
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
