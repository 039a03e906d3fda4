"""Inequality checkers with structured reports.

Every checker follows one discipline:

- malformed inputs (wrong shapes, non-Hermitian where Hermitian is typed,
  non-finite data) raise exceptions;
- failed mathematical hypotheses (exponent ranges, weight constraints,
  operator inequalities, function flags) yield a ``not_applicable``
  verdict, never ``violated``;
- an applicable instance is graded by the minimum slack min(rhs - lhs)
  against an absolute tolerance, by default 1e-8 times
  max(1, largest |partial sum|).

``partial_sums_lhs/rhs`` hold top-k partial sums for the weak-majorization
statements and per-index values for the pointwise ones (``extras`` carries
a ``comparison`` tag). Near-ties within 1e-10 of scale are reported in
``extras["equality_ks"]`` but never required. A non-finite side, slack or
sum of valid inputs raises :class:`NumericalError` instead of a verdict.

Checkers know nothing of wire formats and leave their arguments as they
are: a report's ``input_digest`` is None here, and the harness, which
holds the instance, stamps the digest of the checker arguments on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .calculus import ConvexFunctionSpec, abs_power, apply_fun
from .cpmaps import MapSpec, map_dims, apply_map, applied_to_identity, is_unital
from .linalg import DimensionError, as_complex_matrix, eig_descending, frob, hermitize
from .linalg import require_hermitian, require_square
from .majorization import schatten_of_values, singular_values

__all__ = [
    "DEFAULT_RTOL",
    "EQUALITY_RTOL",
    "WEIGHT_SUM_TOL",
    "OPERATOR_HYP_TOL",
    "NumericalError",
    "CheckReport",
    "check_scalar_bohr",
    "check_vasic_keckic",
    "check_jensen_vector",
    "check_jensen_map",
    "check_thm_weak_major",
    "check_cor_congruence",
    "check_eigen_bohr",
    "check_norm_bohr",
    "check_pointwise_bohr_r2",
    "check_sum_square",
    "check_increasing_convex_eigen",
]

#: Default tolerance is DEFAULT_RTOL * max(1, largest |partial sum|).
DEFAULT_RTOL = 1e-8

#: Slack within EQUALITY_RTOL * scale of zero is flagged as a near-equality.
EQUALITY_RTOL = 1e-10

#: Normalized weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-12

#: Operator hypothesis checks (Phi(I) <= I etc.) get this relative slack.
OPERATOR_HYP_TOL = 1e-10

#: Tolerance on vector norm hypotheses (||x|| <= 1, ||x|| = 1).
_NORM_TOL = 1e-12


class NumericalError(ValueError):
    """A checker computed a non-finite side or slack; never a verdict."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``verdict`` is one of "held", "violated", "not_applicable";
    ``hypothesis_report`` records every hypothesis by name, and any False
    entry forces "not_applicable". ``min_slack`` is None for inapplicable
    instances. ``input_digest`` is None unless the harness stamped the
    digest of the instance's checker arguments on the report.
    """

    theorem_id: str
    verdict: str
    partial_sums_lhs: tuple[float, ...]
    partial_sums_rhs: tuple[float, ...]
    min_slack: float | None
    tol_used: float
    hypothesis_report: Mapping[str, bool]
    input_digest: str | None = None
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "held"

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"

    @property
    def not_applicable(self) -> bool:
        return self.verdict == "not_applicable"

    def failed_hypotheses(self) -> tuple[str, ...]:
        return tuple(k for k, v in self.hypothesis_report.items() if not v)

    def to_json(self) -> dict:
        """JSON-ready dict of every field."""
        return {
            "theorem_id": self.theorem_id,
            "verdict": self.verdict,
            "holds": self.holds,
            "partial_sums_lhs": list(self.partial_sums_lhs),
            "partial_sums_rhs": list(self.partial_sums_rhs),
            "min_slack": self.min_slack,
            "tol_used": self.tol_used,
            "hypothesis_report": dict(self.hypothesis_report),
            "input_digest": self.input_digest,
            "extras": dict(self.extras),
        }


def _weights(p) -> np.ndarray:
    w = np.asarray(p, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DimensionError(f"expected a nonempty weight vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def _vector(x, size: int) -> np.ndarray:
    """``x`` raveled to a complex vector of ``size`` finite entries."""
    v = np.asarray(x, dtype=complex).ravel()
    if v.size != size:
        raise DimensionError(f"vector length {v.size} does not match dimension {size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _exponent(r) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"exponent r must be finite, got {r}")
    return r


def _tol(tol) -> float:
    """A tolerance the caller gave, refused unless finite and >= 0, so that
    it cannot decide a verdict (a NaN one would call every slack violated)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be None or finite >= 0, got {tol!r}")
    return float(tol)


def _na_report(theorem_id, hyps, tol, extras=None) -> CheckReport:
    return CheckReport(
        theorem_id=theorem_id,
        verdict="not_applicable",
        partial_sums_lhs=(),
        partial_sums_rhs=(),
        min_slack=None,
        tol_used=0.0 if tol is None else _tol(tol),
        hypothesis_report=dict(hyps),
        extras=dict(extras or {}),
    )


def _graded_report(
    theorem_id, lhs, rhs, hyps, tol, extras=None, comparison="partial-sums"
) -> CheckReport:
    # Graded in Python floats, each step the IEEE operation numpy would do.
    # Sides are checked before they are subtracted, so no inf - inf is
    # computed; the slack of two finite sides can still overflow.
    lhs = np.asarray(lhs, dtype=float).tolist()
    rhs = np.asarray(rhs, dtype=float).tolist()
    sides_finite = all(map(math.isfinite, lhs)) and all(map(math.isfinite, rhs))
    slack = [r - l for l, r in zip(lhs, rhs)] if sides_finite else None
    if slack is None or not all(map(math.isfinite, slack)):
        raise NumericalError(f"{theorem_id}: non-finite comparison, lhs {lhs}, rhs {rhs}")
    scale = max([1.0, *map(abs, lhs), *map(abs, rhs)])
    tol_used = DEFAULT_RTOL * scale if tol is None else _tol(tol)
    min_slack = min(slack)
    equality_ks = [k for k, s in enumerate(slack, 1) if abs(s) <= EQUALITY_RTOL * scale]
    merged = {"comparison": comparison, "equality_ks": equality_ks}
    merged.update(extras or {})
    return CheckReport(
        theorem_id=theorem_id,
        verdict="held" if min_slack >= -tol_used else "violated",
        partial_sums_lhs=tuple(lhs),
        partial_sums_rhs=tuple(rhs),
        min_slack=min_slack,
        tol_used=tol_used,
        hypothesis_report=dict(hyps),
        extras=merged,
    )


def _family(a_list, weights, x_list=None, hermitian=True):
    """Validated family: n x n matrices A_i (Hermitian unless ``hermitian``
    is False), one finite weight each and, given ``x_list``, one n x n
    block X_i each. Returns ``(mats, weights, blocks)``, the matrices and
    the blocks as ``(ell, n, n)`` stacks (blocks None without ``x_list``),
    each checked once, so each family's spectral work runs as one stacked
    call. Messages name the first member that is ragged or not Hermitian.
    """
    # Validators are called by their module-global names, never captured,
    # so rebinding them (as tracing does) reaches every family.
    mats = (require_hermitian if hermitian else require_square)(a_list, stack="matrix")
    w = _weights(weights)
    if w.size != len(mats):
        raise DimensionError(f"{len(mats)} matrices but {w.size} weights")
    if x_list is None:
        return mats, w, None
    if len(x_list) != len(mats):
        raise DimensionError(f"{len(mats)} matrices but {len(x_list)} blocks")
    blocks = as_complex_matrix(x_list, stack="block")
    if blocks.shape != mats.shape:
        raise DimensionError(f"block 0 has shape {blocks.shape[1:]}, expected {mats.shape[1:]}")
    return mats, w, blocks


def _finite(theorem_id: str, m: np.ndarray) -> np.ndarray:
    """``m``, a sum of valid terms, unless it overflowed: NumericalError."""
    if not np.isfinite(m).all():
        raise NumericalError(f"{theorem_id}: the sum of the matrices is not finite")
    return m


def _eigvalsh(theorem_id: str, m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix that a checker formed;
    one that overflowed is refused before LAPACK sees it, which would fail
    to converge on it or answer NaN."""
    return np.linalg.eigvalsh(_finite(theorem_id, m))


def _descending(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))[::-1]


def _mix(weights, mats) -> np.ndarray:
    """Hermitian sum_i w_i M_i, summed in order from 0 as Python's sum does."""
    return hermitize(sum(w * m for w, m in zip(weights, mats)))


def _top_sums(theorem_id: str, m: np.ndarray) -> np.ndarray:
    """Top-k eigenvalue sums of a Hermitian matrix, k = 1..n."""
    return np.cumsum(_descending(_eigvalsh(theorem_id, m)))


def _bohr_right(pw: np.ndarray, mats: np.ndarray, r: float) -> np.ndarray:
    """sum_i p_i^(1-r) |A_i|^r, each weight a scalar power of its own."""
    return _mix([w ** (1.0 - r) for w in pw], abs_power(mats, r))


def _sum_weight_hyps(w: np.ndarray) -> dict[str, bool]:
    return {
        "weights in (0, 1]": bool(np.all(w > 0) and np.all(w <= 1.0 + _NORM_TOL)),
        "weights sum to 1": bool(abs(float(np.sum(w)) - 1.0) <= WEIGHT_SUM_TOL),
    }


# --- scalar inequalities -----------------------------------------------------


def check_scalar_bohr(z, w, p, tol: float | None = None) -> CheckReport:
    """|z + w|^2 <= p|z|^2 + q|w|^2 for conjugate exponents 1/p + 1/q = 1.

    Hypothesis: p > 1 (q is derived as p/(p-1)). Equality occurs exactly
    at w = (p-1) z, which is flagged in extras["equality_case"].
    """
    z = complex(z)
    w = complex(w)
    p = float(p)
    if not all(map(math.isfinite, (z.real, z.imag, w.real, w.imag, p))):
        raise ValueError("inputs must be finite")
    hyps = {"p > 1": p > 1.0}
    if not all(hyps.values()):
        return _na_report("bohr", hyps, tol)
    q = p / (p - 1.0)
    try:  # a float's ** and a complex's abs raise on overflow, not give inf
        lhs = abs(z + w) ** 2
        rhs = p * abs(z) ** 2 + q * abs(w) ** 2
        scale = max(1.0, abs(z), abs(w))
        equality = bool(abs(w - (p - 1.0) * z) <= 1e-12 * scale)
    except OverflowError as exc:
        raise NumericalError("bohr: non-finite comparison, a side overflows") from exc
    return _graded_report("bohr", [lhs], [rhs], hyps, tol, {"q": q, "equality_case": equality})


def check_vasic_keckic(z, p, r, tol: float | None = None) -> CheckReport:
    """|sum_j z_j|^r <= (sum_j p_j^(1/(1-r)))^(r-1) * sum_j p_j |z_j|^r.

    Hypotheses: r > 1 and every p_j > 0. The conjugate-power exponent is
    always read as 1/(1-r) (negative for r > 1). The stationary family
    z_j = p_j^(1/(1-r)) makes both sides equal and is flagged in
    extras["stationary_point"].
    """
    pw = _weights(p)
    zv = _vector(z, pw.size)
    r = _exponent(r)
    hyps = {"r > 1": r > 1.0, "weights positive": bool(np.all(pw > 0))}
    if not all(hyps.values()):
        return _na_report("vasic", hyps, tol)
    conj = pw ** (1.0 / (1.0 - r))
    const = float(np.sum(conj) ** (r - 1.0))
    if const == 0.0 or not math.isfinite(const):
        # Near r = 1 the direct form under- or overflows although the
        # constant tends to 1/min(p); log-sum-exp keeps it finite there.
        x = np.log(pw) / (1.0 - r)
        top = float(np.max(x))
        const = float(np.exp((r - 1.0) * (top + np.log(np.sum(np.exp(x - top))))))
    lhs = abs(np.sum(zv)) ** r
    rhs = const * float(np.sum(pw * np.abs(zv) ** r))
    scale = max(1.0, float(np.max(np.abs(zv))), float(np.max(conj)))
    stationary = np.all(np.isfinite(conj)) and np.all(np.abs(zv - conj) <= 1e-12 * scale)
    extras = {"constant": const, "stationary_point": bool(stationary)}
    return _graded_report("vasic", [lhs], [rhs], hyps, tol, extras)


# --- Jensen-type inequalities ------------------------------------------------


def check_jensen_vector(f: ConvexFunctionSpec, a, x, tol: float | None = None) -> CheckReport:
    """f(<Ax, x>) <= <f(A)x, x> for Hermitian A and ||x|| <= 1.

    Hypotheses: f convex on its domain, 0 in the domain with f(0) <= 0,
    ||x|| <= 1, and the spectrum of A inside the domain. The short vector
    is what lets the missing mass sit at 0, where f is nonpositive.
    """
    am = require_hermitian(a)
    xv = _vector(x, am.shape[0])
    eig = eig_descending(am)
    norm = float(np.linalg.norm(xv))
    hyps = {
        "f convex on domain": f.flag("convex_on_J"),
        "0 in domain": f.flag("zero_in_J"),
        "f(0) <= 0": f.flag("f0_nonpositive"),
        "||x|| <= 1": norm <= 1.0 + _NORM_TOL,
        "spectrum within domain": f.covers(eig.eigenvalues),
    }
    if not all(hyps.values()):
        return _na_report("jensen-vec", hyps, tol)
    t = float(np.real(xv.conj() @ am @ xv))
    lhs = float(f(f.domain.clamp(t)))
    rhs = float(np.real(xv.conj() @ apply_fun(f, eig) @ xv))
    return _graded_report(
        "jensen-vec", [lhs], [rhs], hyps, tol, {"evaluation_point": t}
    )


def check_jensen_map(
    f: ConvexFunctionSpec,
    a,
    spec: MapSpec,
    x,
    variant: str = "subunital",
    tol: float | None = None,
) -> CheckReport:
    """f(<Phi(A)x, x>) <= <Phi(f(A))x, x> for a positive map Phi.

    Two hypothesis profiles:

    - "subunital": 0 < Phi(I) <= I, ||x|| <= 1, f convex with 0 in the
      domain and f(0) <= 0;
    - "unital": Phi(I) = I and ||x|| = 1, f convex; no condition at 0.
    """
    if variant not in ("subunital", "unital"):
        raise ValueError(f"variant must be 'subunital' or 'unital', got {variant!r}")
    am = require_hermitian(a)
    xv = _vector(x, map_dims(spec)[1])
    eig = eig_descending(am)

    norm = float(np.linalg.norm(xv))
    hyps = {
        "f convex on domain": f.flag("convex_on_J"),
        "spectrum within domain": f.covers(eig.eigenvalues),
    }
    if variant == "subunital":
        wi = _eigvalsh("jensen-map", applied_to_identity(spec))
        hyps["Phi(I) > 0"] = bool(wi[0] > OPERATOR_HYP_TOL * max(1.0, float(wi[-1])))
        hyps["Phi(I) <= I"] = bool(wi[-1] <= 1.0 + OPERATOR_HYP_TOL)
        hyps["0 in domain"] = f.flag("zero_in_J")
        hyps["f(0) <= 0"] = f.flag("f0_nonpositive")
        hyps["||x|| <= 1"] = norm <= 1.0 + _NORM_TOL
    else:
        hyps["Phi(I) = I"] = is_unital(spec)
        hyps["||x|| = 1"] = abs(norm - 1.0) <= _NORM_TOL

    phi_a = hermitize(apply_map(spec, am))  # the one dimension check of A
    t = float(np.real(xv.conj() @ phi_a @ xv))
    hyps["evaluation point within domain"] = f.covers(t)
    if not all(hyps.values()):
        return _na_report("jensen-map", hyps, tol, {"variant": variant})
    lhs = float(f(f.domain.clamp(t)))
    rhs = float(np.real(xv.conj() @ spec._apply(apply_fun(f, eig)) @ xv))
    extras = {"variant": variant, "evaluation_point": t}
    return _graded_report("jensen-map", [lhs], [rhs], hyps, tol, extras)


# --- weak-majorization theorems ----------------------------------------------


def check_thm_weak_major(
    f: ConvexFunctionSpec, a, weighted_maps, tol: float | None = None
) -> CheckReport:
    """Top-k eigenvalue sums of f(sum_i a_i Phi_i(A)) vs sum_i a_i Phi_i(f(A)).

    The left side is weakly majorized by the right for convex f with 0 in
    the domain, f(0) <= 0, nonnegative combination weights, and
    0 <= sum_i a_i Phi_i(I) <= I. Both sides are compared through
    descending-cumulative sums; f's eigenvalues are sorted after applying f
    because f need not be monotone.
    """
    am = require_hermitian(a)
    pairs = [(float(alpha), spec) for alpha, spec in weighted_maps]
    if not pairs:
        raise DimensionError("expected at least one weighted map")
    if len({map_dims(spec) for _, spec in pairs}) > 1:
        raise DimensionError("all maps must share the same input/output dimensions")
    if not all(math.isfinite(alpha) for alpha, _ in pairs):
        raise ValueError("combination weights must be finite")

    eig = eig_descending(am)
    alphas = [alpha for alpha, _ in pairs]
    wi = _eigvalsh("thm1", _mix(alphas, (applied_to_identity(spec) for _, spec in pairs)))
    hyps = {
        "weights nonnegative": all(alpha >= 0 for alpha in alphas),
        "combined map subunital": bool(
            wi[0] >= -OPERATOR_HYP_TOL and wi[-1] <= 1.0 + OPERATOR_HYP_TOL
        ),
        "f convex on domain": f.flag("convex_on_J"),
        "0 in domain": f.flag("zero_in_J"),
        "f(0) <= 0": f.flag("f0_nonpositive"),
        "spectrum within domain": f.covers(eig.eigenvalues),
    }
    # A's dimension is checked once, by apply_map; map_dims matched the rest.
    images = [apply_map(pairs[0][1], am)] + [spec._apply(am) for _, spec in pairs[1:]]
    mu = _eigvalsh("thm1", _mix(alphas, images))
    hyps["mixed spectrum within domain"] = f.covers(mu)
    if not all(hyps.values()):
        return _na_report("thm1", hyps, tol)

    lhs = np.cumsum(_descending(f(f.domain.clamp(mu))))
    fa = apply_fun(f, eig)
    rhs = _top_sums("thm1", _mix(alphas, (spec._apply(fa) for _, spec in pairs)))
    return _graded_report("thm1", lhs, rhs, hyps, tol)


def check_cor_congruence(
    f: ConvexFunctionSpec, a_list, x_list, alpha, tol: float | None = None
) -> CheckReport:
    """Congruence form with submultiplicative f.

    Compares top-k eigenvalue sums of f(sum_i X_i* A_i X_i) against those
    of sum_i a_i f(1/a_i) X_i* f(A_i) X_i, for positive weights a_i with
    sum_i a_i X_i* X_i <= I, and f convex and submultiplicative with
    f(0) <= 0. The domain must cover the spectra of every A_i and of the
    congruence sum, and every scalar 1/a_i.
    """
    mats, aw, blocks = _family(a_list, alpha, x_list)

    xh = blocks.conj().swapaxes(-1, -2)
    wg = _eigvalsh("cornew", _mix(aw, xh @ blocks))
    mu = _eigvalsh("cornew", hermitize(sum(xh @ mats @ blocks)))
    eig = eig_descending(mats)
    hyps = {
        "weights positive": bool(np.all(aw > 0)),
        "sum a_i X_i*X_i <= I": bool(wg[-1] <= 1.0 + OPERATOR_HYP_TOL),
        "f convex on domain": f.flag("convex_on_J"),
        "f(0) <= 0": f.flag("f0_nonpositive"),
        "f submultiplicative": f.flag("submultiplicative"),
    }
    hyps["domain covers evaluation points"] = hyps["weights positive"] and (
        f.covers(eig.eigenvalues) and f.covers(mu) and f.covers(1.0 / aw)
    )
    if not all(hyps.values()):
        return _na_report("cornew", hyps, tol)

    lhs = np.cumsum(_descending(f(f.domain.clamp(mu))))
    weights = [a_i * float(f(f.domain.clamp(1.0 / a_i))) for a_i in aw]
    rhs = _top_sums("cornew", _mix(weights, xh @ apply_fun(f, eig) @ blocks))
    return _graded_report("cornew", lhs, rhs, hyps, tol)


def check_eigen_bohr(
    a_list,
    x_list,
    p,
    r,
    tol: float | None = None,
    rhs_scale: float = 1.0,
) -> CheckReport:
    """Eigenvalue Bohr inequality for congruence-compressed Hermitian families.

    Top-k eigenvalue sums of |sum_i X_i* A_i X_i|^r are compared against
    (sum_i p_i^(1/(1-r)))^(r-1) times those of sum_i p_i X_i* |A_i|^r X_i.
    Hypotheses: r > 1, p_i > 0, and
    sum_i p_i^(1/(1-r)) X_i* X_i <= (sum_i p_i^(1/(1-r))) I.

    ``rhs_scale`` multiplies the right-hand constant and exists only as a
    mutation hook for sensitivity testing; it is not part of the instance
    payload.
    """
    mats, pw, blocks = _family(a_list, p, x_list)
    r = _exponent(r)
    rhs_scale = float(rhs_scale)
    if not math.isfinite(rhs_scale) or rhs_scale <= 0:
        raise ValueError("rhs_scale must be finite and positive")

    hyps = {"r > 1": r > 1.0, "weights positive": bool(np.all(pw > 0))}
    xh = blocks.conj().swapaxes(-1, -2)
    if all(hyps.values()):
        conj = pw ** (1.0 / (1.0 - r))
        total = np.sum(conj)
        wg = _eigvalsh("cor45", _mix(conj, xh @ blocks))
        hyps["sum p_i^(1/(1-r)) X_i*X_i <= (sum p_i^(1/(1-r))) I"] = bool(
            wg[-1] <= total * (1.0 + OPERATOR_HYP_TOL)
        )
    else:
        hyps["sum p_i^(1/(1-r)) X_i*X_i <= (sum p_i^(1/(1-r))) I"] = False
    if not all(hyps.values()):
        return _na_report("cor45", hyps, tol)

    mixed = hermitize(sum(xh @ mats @ blocks))
    lhs = np.cumsum(_descending(np.abs(_eigvalsh("cor45", mixed)) ** r))
    const = float(total ** (r - 1.0)) * rhs_scale
    rhs = const * _top_sums("cor45", _mix(pw, xh @ abs_power(mats, r) @ blocks))
    extras = {"constant": const}
    if rhs_scale != 1.0:
        extras["rhs_scale"] = rhs_scale
    return _graded_report("cor45", lhs, rhs, hyps, tol, extras)


def check_norm_bohr(a_list, p, r, tol: float | None = None) -> CheckReport:
    """Ky Fan certificate for the norm Bohr inequality, 1 < r <= 2.

    For Hermitian A_i and weights p_i in (0, 1] summing to 1, the singular
    values of |sum_i A_i|^r are weakly majorized by the eigenvalues of
    sum_i p_i^(1-r) |A_i|^r; by Ky Fan dominance this certifies the
    inequality in every unitarily invariant norm at once. extras carries a
    Schatten cross-check at orders {1, 1.5, 2, 3, 10}.
    """
    mats, pw, _ = _family(a_list, p)
    r = _exponent(r)
    hyps = {"1 < r <= 2": 1.0 < r <= 2.0 + _NORM_TOL}
    hyps.update(_sum_weight_hyps(pw))
    if not all(hyps.values()):
        return _na_report("zh", hyps, tol)

    wl = _eigvalsh("zh", abs_power(_finite("zh", hermitize(sum(mats))), r))
    lhs = np.cumsum(_descending(wl))
    wr = _eigvalsh("zh", _bohr_right(pw, mats, r))
    rhs = np.cumsum(_descending(wr))

    # Both matrices are PSD: clip roundoff; the Schatten sums run in
    # eigvalsh's ascending order.
    orders = (1.0, 1.5, 2.0, 3.0, 10.0)
    left_norms = schatten_of_values(np.clip(wl, 0.0, None), orders)
    right_norms = schatten_of_values(np.clip(wr, 0.0, None), orders)
    schatten = {f"{q:g}": [ln, rn] for q, ln, rn in zip(orders, left_norms, right_norms)}
    schatten_ok = not any(
        ln > rn + DEFAULT_RTOL * max(1.0, ln, rn) for ln, rn in zip(left_norms, right_norms)
    )
    extras = {"schatten_orders": schatten, "schatten_ok": schatten_ok}
    return _graded_report("zh", lhs, rhs, hyps, tol, extras)


def check_pointwise_bohr_r2(a_list, p, r, tol: float | None = None) -> CheckReport:
    """Per-index Bohr inequality for r >= 2 and arbitrary square A_i.

    Compares s_j(sum_i A_i)^r (equivalently the descending eigenvalues of
    |sum_i A_i|^r) against the descending eigenvalues of
    sum_i p_i^(1-r) |A_i|^r, index by index, for weights p_i in (0, 1]
    summing to 1; p_i^(1-r) = 1/p_i^(r-1) >= 1. The comparison is
    pointwise, strictly stronger than its partial-sum consequence.
    """
    mats, pw, _ = _family(a_list, p, hermitian=False)
    r = _exponent(r)
    hyps = {"r >= 2": r >= 2.0 - _NORM_TOL}
    hyps.update(_sum_weight_hyps(pw))
    if not all(hyps.values()):
        return _na_report("prop-r2", hyps, tol)

    lhs = singular_values(_finite("prop-r2", sum(mats))) ** r
    rhs = _descending(_eigvalsh("prop-r2", _bohr_right(pw, mats, r)))
    return _graded_report(
        "prop-r2", lhs, rhs, hyps, tol, comparison="pointwise"
    )


def check_sum_square(a_list, p, tol: float | None = None) -> CheckReport:
    """PSD certificate behind the r = 2 case.

    With S = sum_{i,j} p_i p_j (A_i - A_j)*(A_i - A_j) and
    D = sum_j p_j |A_j|^2 - |sum_j p_j A_j|^2, checks that S and D are PSD
    and that D = S/2 holds as an identity within 1e-11 of scale. Report
    rows: (-min eig S, -min eig D, residual/budget) vs (0, 0, 1); the
    third row is normalized so the identity is enforced at its own budget
    rather than the looser slack tolerance. Weights must be positive and
    sum to 1.
    """
    mats, pw, _ = _family(a_list, p, hermitian=False)
    hyps = {"weights positive": bool(np.all(pw > 0))}
    hyps["weights sum to 1"] = bool(abs(float(np.sum(pw)) - 1.0) <= WEIGHT_SUM_TOL)
    if not all(hyps.values()):
        return _na_report("sumsq", hyps, tol)

    n = mats[0].shape[0]
    spread = np.zeros((n, n), dtype=complex)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            diff = mats[i] - mats[j]
            spread += 2.0 * pw[i] * pw[j] * (diff.conj().T @ diff)
    spread = hermitize(spread)
    mean = sum(w * m for w, m in zip(pw, mats))
    dispersion = hermitize(
        sum(w * (m.conj().T @ m) for w, m in zip(pw, mats)) - mean.conj().T @ mean
    )
    min_spread = float(_eigvalsh("sumsq", spread)[0])
    min_disp = float(_eigvalsh("sumsq", dispersion)[0])
    residual = frob(dispersion - 0.5 * spread)
    budget = 1e-11 * max(1.0, frob(dispersion), 0.5 * frob(spread))
    lhs = [-min_spread, -min_disp, residual / budget]
    rhs = [0.0, 0.0, 1.0]
    extras = {
        "spread_min_eigenvalue": min_spread,
        "dispersion_min_eigenvalue": min_disp,
        "identity_residual": residual,
        "identity_budget": budget,
    }
    return _graded_report(
        "sumsq", lhs, rhs, hyps, tol, extras, comparison="certificate"
    )


def check_increasing_convex_eigen(
    f: ConvexFunctionSpec, a_list, p, tol: float | None = None
) -> CheckReport:
    """Per-index f(lambda_j(sum p_i A_i)) <= lambda_j(sum p_i f(A_i)).

    Holds for increasing convex f on a domain containing every spectrum,
    with weights in [0, 1] summing to 1. Monotonicity is what upgrades the
    weak-majorization statement to a pointwise one.
    """
    mats, pw, _ = _family(a_list, p)
    eig = eig_descending(mats)
    hyps = {
        "f convex on domain": f.flag("convex_on_J"),
        "f increasing on domain": f.flag("increasing"),
        "spectra within domain": f.covers(eig.eigenvalues),
    }
    hyps.update(_sum_weight_hyps(pw))
    if not all(hyps.values()):
        return _na_report("inc-convex", hyps, tol)

    mu = _eigvalsh("inc-convex", _mix(pw, mats))
    hyps["mixture spectrum within domain"] = f.covers(mu)
    if not all(hyps.values()):
        return _na_report("inc-convex", hyps, tol)
    lhs = _descending(f(f.domain.clamp(mu)))
    rhs = _descending(_eigvalsh("inc-convex", _mix(pw, apply_fun(f, eig))))
    return _graded_report(
        "inc-convex", lhs, rhs, hyps, tol, comparison="pointwise"
    )
