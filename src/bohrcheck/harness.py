"""Seeded fuzzing campaigns, instance replay, and the worked-example demo.

A campaign draws one decorrelated random stream per trial from
(seed, trial_index), constructs a hypothesis-satisfying instance payload
(generation is constraint-aware; rejection sampling is only a capped
fallback), runs the matching checker, and emits one JSONL line per trial
plus a summary line. Timestamps and elapsed times never enter the output,
so two runs of the same config produce identical bytes. Violating
instances are additionally persisted as standalone JSON files next to the
report for replay, and so are the inputs of trials that end in a
numerical error.

:data:`THEOREM_TABLE` names each theorem's checker and generator. A
generator returns checker arguments; :func:`run_instance` decodes a
payload with :func:`serialize.instance_from_json` and calls the checker.
This module is the only one that digests instances, and it stamps the
digest on every report it returns: a campaign digests and checks the
generated arguments and encodes a payload only to write an artifact (or
when :attr:`TrialRecord.payload` is read); replay digests the arguments it
decoded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import inequalities, serialize
from .cpmaps import (
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    MapSpec,
    WeightedSum,
    applied_to_identity,
    normalize_unital,
    stinespring,
)
from .inequalities import CheckReport, NumericalError
from .calculus import make_function_spec
from .linalg import (
    complex_gaussian,
    make_rng,
    random_hermitian,
    random_map_family,
    stream_key,
)
from .serialize import canonical_theorem

__all__ = [
    "GenerationError",
    "HarnessError",
    "CampaignConfig",
    "TrialRecord",
    "CampaignResult",
    "THEOREM_TABLE",
    "generate_instance",
    "run_instance",
    "run_campaign",
    "replay",
    "demo",
    "demo_table",
]


class GenerationError(RuntimeError):
    """Instance generation exhausted its rejection-sampling budget or overflowed."""


class HarnessError(RuntimeError):
    """Replay mismatch or malformed campaign input."""


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration for one fuzzing campaign.

    ``r_range`` is sampled log-uniformly and clipped per theorem to its
    hypothesis range (zh needs r <= 2, prop-r2 needs r >= 2, half_pow
    needs r >= 2). ``variant`` forces one jensen-map profile; by default
    trials alternate between subunital and unital. ``rhs_scale`` rescales
    the right-hand constant of the eigenvalue Bohr checker and exists for
    mutation-sensitivity experiments only.
    """

    theorem: str
    trials: int
    seed: int
    n_range: tuple[int, int] = (2, 8)
    m_range: tuple[int, int] = (2, 8)
    ell_range: tuple[int, int] = (1, 4)
    r_range: tuple[float, float] = (1.1, 4.0)
    spectrum: tuple[float, float] = (-3.0, 3.0)
    function_ids: tuple[str, ...] = ("abs_pow", "square", "expm1", "relu")
    variant: str | None = None
    tol_override: float | None = None
    rhs_scale: float = 1.0
    max_attempts: int = 1000

    def __post_init__(self):
        canonical_theorem(self.theorem)
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        for name in ("n_range", "m_range", "ell_range", "r_range"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} is empty: ({lo}, {hi})")
        if self.ell_range[0] < 1 or self.n_range[0] < 1 or self.m_range[0] < 1:
            raise ValueError("dimension ranges must start at 1 or above")
        if self.r_range[0] <= 1.0:
            raise ValueError("r_range must stay strictly above 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    """One campaign trial: the checker arguments, their digest, stream id,
    and the report.

    ``report`` is None when generation failed (``args`` is None too) or
    when the checker raised :class:`NumericalError` or
    ``numpy.linalg.LinAlgError``; ``error`` then carries the reason.
    """

    trial_index: int
    stream: str
    digest: str | None
    theorem: str
    args: dict | None
    report: CheckReport | None
    error: str | None = None

    @property
    def payload(self) -> dict | None:
        """The instance payload of ``args``, encoded on each access."""
        return None if self.args is None else serialize.instance_to_json(self.theorem, **self.args)

    def to_json_line(self) -> str:
        obj = {"trial": self.trial_index, "stream": self.stream}
        if self.args is None:
            obj.update(generation_failed=True, error=self.error or "unknown")
        elif self.report is None:
            obj.update(digest=self.digest, error=self.error)
        else:
            obj.update(digest=self.digest, report=self.report.to_json())
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: list[TrialRecord]
    summary: dict
    violation_paths: list[str] = field(default_factory=list)
    error_paths: list[str] = field(default_factory=list)


# --- instance execution ------------------------------------------------------


def run_instance(payload: dict, tol: float | None = None, rhs_scale: float = 1.0) -> CheckReport:
    """Decode an instance payload and run its checker.

    The report carries the digest of the decoded arguments, so payloads
    that decode to the same instance share one digest.
    ``rhs_scale`` only affects the eigenvalue Bohr checker and is not part
    of the payload, so mutated runs keep the pristine digest.
    """
    theorem, args = serialize.instance_from_json(payload)
    # Digested after the check, so malformed input gets the checker's message.
    report = _check(theorem, args, tol, rhs_scale)
    return replace(report, input_digest=serialize.digest(theorem, args))


def _check(theorem, args, tol, rhs_scale) -> CheckReport:
    """Run ``theorem``'s checker on ``args``, which it leaves as they are."""
    mutation = {"rhs_scale": rhs_scale} if theorem == "cor45" else {}
    # Looked up by name on every call, so rebinding a checker reaches here.
    checker = getattr(inequalities, THEOREM_TABLE[theorem][0])
    # Overflow becomes inf or NaN and then a NumericalError, which already
    # says what happened, so numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        return checker(**args, **mutation, tol=tol)


# --- random building blocks --------------------------------------------------


def _draw_int(rng, bounds) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def _draw_log_uniform(rng, lo: float, hi: float) -> float:
    if hi < lo:
        raise GenerationError(f"empty parameter range [{lo}, {hi}]")
    if hi == lo:
        return float(lo)
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _draw_r(cfg: CampaignConfig, rng, lo_cap=None, hi_cap=None) -> float:
    lo, hi = cfg.r_range
    if lo_cap is not None:
        lo = max(lo, lo_cap)
    if hi_cap is not None:
        hi = min(hi, hi_cap)
    return _draw_log_uniform(rng, lo, hi)


def _sum_to_one_weights(ell: int, rng) -> np.ndarray:
    g = rng.uniform(0.2, 1.0, size=ell)
    return g / g.sum()


def _draw_function(cfg: CampaignConfig, rng, domain, ids=None):
    ids = tuple(ids if ids is not None else cfg.function_ids)
    fid = str(ids[_draw_int(rng, (0, len(ids) - 1))])
    r = None
    if fid == "abs_pow":
        # Cap at 3 to keep |t|^r values on the default spectrum modest.
        r = _draw_r(cfg, rng, hi_cap=3.0)
    elif fid == "half_pow":
        # t^(r/2) is convex increasing only from r >= 2 on.
        r = _draw_r(cfg, rng, lo_cap=2.0)
    return _function_spec(fid, domain, r)


def _function_spec(fid: str, domain, r):
    """:func:`make_function_spec`, with a failed flag scan a GenerationError."""
    try:
        return make_function_spec(fid, domain, r)
    except ValueError as exc:  # the flag scan overflowed on this domain
        raise GenerationError(f"cannot build {fid!r} on {tuple(domain)}: {exc}") from exc


def _random_leaf_spec(n: int, m: int, rng, need_pd: bool) -> MapSpec:
    """One random structural map M_n -> M_m; need_pd demands Phi(I) > 0."""
    kinds = ["povm"]
    if not need_pd or n >= m:
        kinds.append("congruence")
    block_splits = [b for b in range(2, n + 1) if n % b == 0]
    if need_pd:
        block_splits = [b for b in block_splits if n // b >= m]
    if block_splits:
        kinds.append("block")
    kind = kinds[_draw_int(rng, (0, len(kinds) - 1))]
    if kind == "congruence":
        return Congruence(complex_gaussian((n, m), rng) / math.sqrt(max(n, 1)))
    if kind == "block":
        b = block_splits[_draw_int(rng, (0, len(block_splits) - 1))]
        d = n // b
        return BlockExtraction(
            _draw_int(rng, (0, b - 1)), b, complex_gaussian((d, m), rng) / math.sqrt(d)
        )
    effects = []
    for _ in range(n):
        g = complex_gaussian((m, m), rng)
        effects.append(g @ g.conj().T / (n * m))
    return DiagonalPOVM(tuple(effects))


def _random_map_spec(n: int, m: int, rng, need_pd: bool = False) -> MapSpec:
    if rng.uniform() < 0.25:
        terms = tuple(
            (float(rng.uniform(0.3, 1.0)), _random_leaf_spec(n, m, rng, need_pd))
            for _ in range(2)
        )
        return WeightedSum(terms)
    return _random_leaf_spec(n, m, rng, need_pd)


def _subunital_spec(cfg: CampaignConfig, n: int, m: int, rng) -> MapSpec:
    """Random map with 0 < Phi(I) <= I, scaled constraint-aware."""
    for _ in range(cfg.max_attempts):
        spec = _random_map_spec(n, m, rng, need_pd=True)
        w = np.linalg.eigvalsh(applied_to_identity(spec))
        top = float(w[-1])
        if top <= 1e-9 or float(w[0]) / top < 1e-8:
            continue
        target = float(rng.uniform(0.4, 0.98))
        return WeightedSum(((target / top, spec),))
    raise GenerationError(f"no well-conditioned subunital map after {cfg.max_attempts} attempts")


def _unital_spec(cfg: CampaignConfig, n: int, m: int, rng) -> MapSpec:
    return normalize_unital(_subunital_spec(cfg, n, m, rng))


def _short_vector(m: int, rng, unit: bool) -> np.ndarray:
    v = complex_gaussian(m, rng)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = np.ones(m, dtype=complex)
        norm = float(np.linalg.norm(v))
    v = v / norm
    if not unit:
        v = v * float(rng.uniform(0.0, 1.0))
    return v


# --- per-theorem generators ---------------------------------------------------


def _gen_bohr(cfg, rng, trial) -> dict:
    p = _draw_r(cfg, rng)
    z = complex(complex_gaussian((), rng))
    w = complex(complex_gaussian((), rng))
    return {"z": z, "w": w, "p": p}


def _gen_vasic(cfg, rng, trial) -> dict:
    count = _draw_int(rng, cfg.ell_range)
    r = _draw_r(cfg, rng)
    p = rng.uniform(0.3, 3.0, size=count)
    z = complex_gaussian(count, rng)
    return {"z": z, "p": p, "r": r}


def _gen_jensen_vec(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    f = _draw_function(cfg, rng, cfg.spectrum)
    a = random_hermitian(n, cfg.spectrum, rng)
    x = _short_vector(n, rng, unit=False)
    return {"f": f, "a": a, "x": x}


def _gen_jensen_map(cfg, rng, trial: int) -> dict:
    n = _draw_int(rng, cfg.n_range)
    m = _draw_int(rng, cfg.m_range)
    variant = cfg.variant or ("subunital" if trial % 2 == 0 else "unital")
    if variant == "subunital":
        spec = _subunital_spec(cfg, n, m, rng)
        domain = cfg.spectrum
        f = _draw_function(cfg, rng, domain)
        x = _short_vector(m, rng, unit=False)
    elif variant == "unital":
        spec = _unital_spec(cfg, n, m, rng)
        # The unital profile has no condition at 0, so exercise domains
        # that exclude it about a third of the time.
        if rng.uniform() < 1.0 / 3.0:
            domain = (1.0, 3.0)
        else:
            domain = cfg.spectrum
        f = _draw_function(cfg, rng, domain)
        x = _short_vector(m, rng, unit=True)
    else:
        raise GenerationError(f"unknown jensen-map variant {variant!r}")
    a = random_hermitian(n, domain, rng)
    return {"f": f, "a": a, "spec": spec, "x": x, "variant": variant}


def _gen_thm1(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    m = _draw_int(rng, cfg.m_range)
    ell = _draw_int(rng, cfg.ell_range)
    for _ in range(cfg.max_attempts):
        specs = [_random_map_spec(n, m, rng) for _ in range(ell)]
        alphas = rng.uniform(0.2, 1.0, size=ell)
        total = sum(
            alpha * applied_to_identity(spec) for alpha, spec in zip(alphas, specs)
        )
        top = float(np.linalg.eigvalsh(total)[-1])
        if top <= 1e-9:
            continue
        alphas = alphas * (float(rng.uniform(0.4, 0.98)) / top)
        f = _draw_function(cfg, rng, cfg.spectrum)
        a = random_hermitian(n, cfg.spectrum, rng)
        return {"f": f, "a": a, "weighted_maps": list(zip(alphas, specs))}
    raise GenerationError(f"no usable map family after {cfg.max_attempts} attempts")


def _gen_cornew(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    alphas = rng.uniform(0.2, 2.0, size=ell)
    blocks = random_map_family(ell, n, n, alphas, rng)
    mats = [random_hermitian(n, cfg.spectrum, rng) for _ in range(ell)]
    mixed = sum(b.conj().T @ a @ b for a, b in zip(mats, blocks))
    reach = max(
        1.0,
        max(abs(float(x)) for x in np.linalg.eigvalsh(mixed)),
        max(abs(s) for s in cfg.spectrum),
        float(np.max(1.0 / alphas)),
    )
    # Window wide enough to stand in for "convex on all of R" at the
    # scale of every point the checker evaluates.
    window = (-10.0 * reach, 10.0 * reach)
    r = _draw_r(cfg, rng, hi_cap=3.0)
    f = _function_spec("abs_pow", window, r)
    return {"f": f, "a_list": mats, "x_list": blocks, "alpha": alphas}


def _gen_cor45(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    r = _draw_r(cfg, rng)
    p = rng.uniform(0.3, 3.0, size=ell)
    with np.errstate(over="ignore", invalid="ignore"):
        conj = p ** (1.0 / (1.0 - r))
        weights = conj / conj.sum()
    if not np.all(np.isfinite(weights)):
        raise GenerationError(f"conjugate powers p^(1/(1-r)) overflow at r={r!r}")
    blocks = random_map_family(ell, n, n, weights, rng)
    mats = [random_hermitian(n, cfg.spectrum, rng) for _ in range(ell)]
    return {"a_list": mats, "x_list": blocks, "p": p, "r": r}


def _gen_zh(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    r = _draw_r(cfg, rng, hi_cap=2.0)
    p = _sum_to_one_weights(ell, rng)
    mats = [random_hermitian(n, cfg.spectrum, rng) for _ in range(ell)]
    return {"a_list": mats, "p": p, "r": r}


def _gen_prop_r2(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    r = _draw_r(cfg, rng, lo_cap=2.0)
    p = _sum_to_one_weights(ell, rng)
    mats = [
        float(rng.uniform(0.3, 1.5)) * complex_gaussian((n, n), rng) for _ in range(ell)
    ]
    return {"a_list": mats, "p": p, "r": r}


def _gen_sumsq(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    p = _sum_to_one_weights(ell, rng)
    mats = [
        float(rng.uniform(0.3, 1.5)) * complex_gaussian((n, n), rng) for _ in range(ell)
    ]
    return {"a_list": mats, "p": p}


def _gen_inc_convex(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    ell = _draw_int(rng, cfg.ell_range)
    p = _sum_to_one_weights(ell, rng)
    ids = ("expm1", "relu", "linear", "half_pow")
    fid = ids[_draw_int(rng, (0, len(ids) - 1))]
    if fid == "half_pow":
        domain = (0.0, max(cfg.spectrum[1], 1.0))
        if cfg.r_range[1] < 2.0:
            fid = "expm1"
            domain = cfg.spectrum
    else:
        domain = cfg.spectrum
    f = _draw_function(cfg, rng, domain, ids=(fid,))
    mats = [random_hermitian(n, domain, rng) for _ in range(ell)]
    return {"f": f, "a_list": mats, "p": p}


#: Theorem id -> (checker name in :mod:`bohrcheck.inequalities`, generator).
#: A generator draws the checker's keyword arguments from (cfg, rng, trial).
#: Checkers are looked up by name at call time, so a rebound module
#: attribute (a wrapper installed by a profiler, say) takes effect.
THEOREM_TABLE = {
    "bohr": ("check_scalar_bohr", _gen_bohr),
    "vasic": ("check_vasic_keckic", _gen_vasic),
    "jensen-vec": ("check_jensen_vector", _gen_jensen_vec),
    "jensen-map": ("check_jensen_map", _gen_jensen_map),
    "thm1": ("check_thm_weak_major", _gen_thm1),
    "cornew": ("check_cor_congruence", _gen_cornew),
    "cor45": ("check_eigen_bohr", _gen_cor45),
    "zh": ("check_norm_bohr", _gen_zh),
    "prop-r2": ("check_pointwise_bohr_r2", _gen_prop_r2),
    "sumsq": ("check_sum_square", _gen_sumsq),
    "inc-convex": ("check_increasing_convex_eigen", _gen_inc_convex),
}


def generate_instance(cfg: CampaignConfig, trial: int, rng) -> dict:
    """Checker arguments of a constraint-aware random instance for the
    configured theorem. Checking them gives the report that
    :func:`run_instance` gives for their payload."""
    return THEOREM_TABLE[canonical_theorem(cfg.theorem)][1](cfg, rng, trial)


# --- campaign loop ------------------------------------------------------------


def _write_artifact(out_path: Path, kind: str, trial: int, obj: dict) -> str:
    """Write ``obj`` as ``<stem>.<kind>-NNNNNN.json`` next to the report."""
    stem = out_path.name
    if stem.endswith(".jsonl"):
        stem = stem[: -len(".jsonl")]
    path = out_path.with_name(f"{stem}.{kind}-{trial:06d}.json")
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return str(path)


def run_campaign(cfg: CampaignConfig, out_path: str | Path | None = None) -> CampaignResult:
    """Run a campaign; optionally stream JSONL records to out_path.

    The emitted stream is one line per trial in index order plus a final
    ``{"summary": ...}`` line, and is byte-identical across runs with the
    same config. A trial whose checker raises :class:`NumericalError` or
    ``numpy.linalg.LinAlgError`` (an eigensolver that did not converge on
    overflowed input) gets an error line and counts under ``errors``; any
    other exception aborts the campaign. The payloads of violating and of
    error trials are persisted next to the report file, as
    ``<stem>.violation-NNNNNN.json`` (``{"instance", "report"}``) and
    ``<stem>.error-NNNNNN.json`` (``{"instance", "error"}``).
    """
    theorem = canonical_theorem(cfg.theorem)
    records: list[TrialRecord] = []
    violation_paths: list[str] = []
    error_paths: list[str] = []
    held = violations = not_applicable = generation_failures = errors = 0
    min_slack_overall: float | None = None

    out = Path(out_path) if out_path is not None else None
    sink = open(out, "w", encoding="utf-8") if out is not None else None
    try:
        for trial in range(cfg.trials):
            rng = make_rng(cfg.seed, trial)
            stream = f"{stream_key(cfg.seed, trial):016x}"
            args = digest = report = error = None
            try:
                args = generate_instance(cfg, trial, rng)
                digest = serialize.digest(theorem, args)
                report = _check(theorem, args, cfg.tol_override, cfg.rhs_scale)
                report = replace(report, input_digest=digest)
            except GenerationError as exc:
                generation_failures += 1
                error = str(exc)
            except (NumericalError, np.linalg.LinAlgError) as exc:
                errors += 1
                error = f"{type(exc).__name__}: {exc}"
            else:
                if report.holds:
                    held += 1
                elif report.not_applicable:
                    not_applicable += 1
                else:
                    violations += 1
                if report.min_slack is not None:
                    min_slack_overall = (
                        report.min_slack
                        if min_slack_overall is None
                        else min(min_slack_overall, report.min_slack)
                    )
            record = TrialRecord(trial, stream, digest, theorem, args, report, error)
            records.append(record)
            if sink is None:
                continue
            sink.write(record.to_json_line() + "\n")
            if report is not None and report.violated:
                body = {"instance": record.payload, "report": report.to_json()}
                violation_paths.append(_write_artifact(out, "violation", trial, body))
            elif report is None and args is not None:
                body = {"instance": record.payload, "error": error}
                error_paths.append(_write_artifact(out, "error", trial, body))
        summary = {
            "theorem": theorem,
            "total": cfg.trials,
            "held": held,
            "not_applicable": not_applicable,
            "violations": violations,
            "generation_failures": generation_failures,
            "errors": errors,
            "min_slack_overall": min_slack_overall,
            "digest_alg": serialize.DIGEST_ALG,
        }
        if sink is not None:
            sink.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")
    finally:
        if sink is not None:
            sink.close()
    return CampaignResult(cfg, records, summary, violation_paths, error_paths)


def replay(source: str | Path | dict, tol: float | None = None) -> CheckReport:
    """Re-run a saved instance; verify against any stored report.

    Accepts a bare instance payload or a ``{"instance": ..., "report":
    ...}`` wrapper (the format of persisted violations); an error artifact
    (``{"instance": ..., "error": ...}``) re-runs its instance, which
    raises again. The stored run's
    tolerance and rhs_scale are reused unless ``tol`` is given, so a saved
    artifact reproduces under the arithmetic that produced it. A stored
    report must match the fresh one in verdict and min_slack (within
    1e-15); otherwise :class:`HarnessError` is raised.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise serialize.SerializationError(
                f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        obj = source
    stored = None
    if isinstance(obj, dict) and "instance" in obj:
        stored = obj.get("report")
        obj = obj["instance"]
    rhs_scale = 1.0
    if isinstance(stored, dict):
        extras = stored.get("extras") or {}
        rhs_scale = float(extras.get("rhs_scale", 1.0))
        if tol is None and stored.get("tol_used") is not None:
            tol = float(stored["tol_used"])
    report = run_instance(obj, tol, rhs_scale)
    if stored is not None:
        if stored.get("verdict") != report.verdict:
            raise HarnessError(
                f"replay verdict {report.verdict!r} does not match stored {stored.get('verdict')!r}"
            )
        old = stored.get("min_slack")
        new = report.min_slack
        if (old is None) != (new is None) or (
            old is not None and abs(float(old) - new) > 1e-15
        ):
            raise HarnessError(f"replay min_slack {new!r} does not match stored {old!r}")
    return report


# --- demo ----------------------------------------------------------------------


def demo() -> list[dict]:
    """Worked examples: each row reports LHS, RHS, and slack (or residual)."""
    rows = []

    rep = inequalities.check_scalar_bohr(1.0 + 0.0j, 1.0 + 0.0j, 2.0)
    rows.append(
        {
            "name": "scalar Bohr at the equality point w = (p-1)z",
            "lhs": rep.partial_sums_lhs[-1],
            "rhs": rep.partial_sums_rhs[-1],
            "slack": rep.min_slack,
            "verdict": rep.verdict,
        }
    )

    p = np.array([0.5, 1.0, 2.0])
    r = 2.5
    z = p ** (1.0 / (1.0 - r))
    rep = inequalities.check_vasic_keckic(z.astype(complex), p, r)
    rows.append(
        {
            "name": "Vasic-Keckic at the stationary family z_j = p_j^(1/(1-r))",
            "lhs": rep.partial_sums_lhs[-1],
            "rhs": rep.partial_sums_rhs[-1],
            "slack": rep.min_slack,
            "verdict": rep.verdict,
        }
    )

    dil = stinespring(Congruence(np.eye(3, dtype=complex)))
    gram_defect = float(
        np.linalg.norm(dil.isometry.conj().T @ dil.isometry - np.eye(3), "fro")
    )
    rows.append(
        {
            "name": "Stinespring dilation of the identity map on M_3",
            "lhs": dil.recon_residual,
            "rhs": gram_defect,
            "slack": 0.0,
            "verdict": "held" if max(dil.recon_residual, gram_defect) <= 1e-10 else "violated",
        }
    )

    a1 = np.diag([1.0, 0.0]).astype(complex)
    a2 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    rep = inequalities.check_eigen_bohr([a1, a2], [eye, eye], [0.5, 0.5], 2.0)
    rows.append(
        {
            "name": "eigenvalue Bohr on diag(1,0), diag(0,1), r=2, p=(1/2,1/2)",
            "lhs": rep.partial_sums_lhs,
            "rhs": rep.partial_sums_rhs,
            "slack": rep.min_slack,
            "verdict": rep.verdict,
        }
    )
    return rows


def _fmt_value(v) -> str:
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(f"{x:.6g}" for x in v) + ")"
    return f"{v:.6g}"


def demo_table(rows: Sequence[dict] | None = None) -> str:
    """Plain-text table for the demo rows."""
    rows = demo() if rows is None else rows
    lines = [f"{'case':<58} {'lhs':>18} {'rhs':>18} {'slack':>12} verdict"]
    for row in rows:
        lines.append(
            f"{row['name']:<58} {_fmt_value(row['lhs']):>18} "
            f"{_fmt_value(row['rhs']):>18} {row['slack']:>12.3g} {row['verdict']}"
        )
    return "\n".join(lines)
