"""Seeded fuzzing campaigns, instance replay, and the worked-example demo.

A campaign draws one decorrelated random stream per trial from
(seed, trial_index), constructs a hypothesis-satisfying instance payload
(generation is constraint-aware; rejection sampling is only a capped
fallback), runs the matching checker, and emits one JSONL line per trial
plus a summary line. Timestamps and elapsed times never enter the output,
so two runs of the same config produce identical bytes. Violating
instances are additionally persisted as standalone JSON files next to the
report for replay, and so are the inputs of trials that end in a
numerical error. A long campaign runs its later trials in forked workers,
one per usable CPU, and writes their records in index order, so its bytes
do not depend on how many CPUs it used.

:data:`THEOREM_TABLE` names each theorem's checker and generator. A
generator returns checker arguments; :func:`run_instance` decodes a
payload with :func:`serialize.instance_from_json` and calls the checker.
This module is the only one that digests instances, and it stamps the
digest on every report it returns: a campaign digests and checks the
generated arguments, keeps the outcome, and draws an instance again only
to write an artifact; replay digests the arguments it decoded.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import pickle
import signal
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    """Configuration for one fuzzing campaign; ``theorem`` is stored canonical.

    ``r_range`` is sampled log-uniformly and clipped per theorem to its
    hypothesis range (zh needs r <= 2, prop-r2 needs r >= 2, half_pow
    needs r >= 2). ``variant`` forces one jensen-map profile; by default
    trials alternate between subunital and unital. ``rhs_scale`` rescales
    the right-hand constant of the cor45 checker, for mutation experiments
    only; every other theorem requires 1.0. Every setting is checked here,
    its type first, so a bad one raises ValueError naming it before a
    campaign writes anything.
    """

    theorem: str
    trials: int
    seed: int
    n_range: tuple[int, int] = (2, 8)
    m_range: tuple[int, int] = (2, 8)
    ell_range: tuple[int, int] = (1, 4)
    r_range: tuple[float, float] = (1.1, 4.0)
    spectrum: tuple[float, float] = (-3.0, 3.0)
    variant: str | None = None
    tol_override: float | None = None
    rhs_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "theorem", canonical_theorem(self.theorem))
        for ok, name, rule in _config_rules(self):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def _config_rules(cfg: CampaignConfig):
    """(holds, setting, rule) for each rule, in order. The rules are lazy
    and types and pair shapes come first, so a later rule may compare and
    index what an earlier one passed."""
    dims = ("n_range", "m_range", "ell_range")
    for n in ("trials", "seed"):
        yield _is_int(getattr(cfg, n)), n, "an integer"
    for n in dims:
        yield _is_pair(getattr(cfg, n), _is_int), n, "a range of integers"
    for n in ("r_range", "spectrum"):
        yield _is_pair(getattr(cfg, n), _is_real), n, "a pair of real numbers"
    tol = cfg.tol_override
    yield tol is None or _is_real(tol), "tol_override", "None or a real number"
    yield _is_real(cfg.rhs_scale), "rhs_scale", "a real number"
    (lo, hi), (r_lo, r_hi) = cfg.spectrum, cfg.r_range
    yield cfg.trials >= 0, "trials", ">= 0"
    yield math.isfinite(float(hi) - float(lo)), "spectrum", "finite, with a finite width hi - lo"
    for n in (*dims, "r_range", "spectrum"):
        yield getattr(cfg, n)[0] <= getattr(cfg, n)[1], n, "a nonempty range (lo, hi)"
    for n in dims:
        yield getattr(cfg, n)[0] >= 1, n, "a range from 1 up"
    yield r_lo > 1.0 and math.isfinite(r_hi), "r_range", "finite, > 1"
    yield cfg.variant in (None, "subunital", "unital"), "variant", "None, subunital or unital"
    yield tol is None or math.isfinite(tol) and tol >= 0, "tol_override", "None or finite >= 0"
    yield math.isfinite(cfg.rhs_scale) and cfg.rhs_scale > 0, "rhs_scale", "finite > 0"
    yield cfg.rhs_scale == 1.0 or cfg.theorem == "cor45", "rhs_scale", _RHS_SCALE_RULE


def _is_pair(v, member) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(map(member, v))


def _is_real(v) -> bool:
    """A float, or an int that converts to one, so the rules may test it."""
    return isinstance(v, (float, np.floating)) or _is_int(v) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrialRecord:
    """One campaign trial's outcome. A record holds no instance: ``stream``
    is read from ``config``, and :attr:`args` and :attr:`payload` are drawn
    again from ``(config, trial_index)`` on each access.

    ``digest`` is None exactly when generation failed. ``report`` is None
    then, and when the checker raised :class:`NumericalError` or
    ``numpy.linalg.LinAlgError``; ``error`` then carries the reason.
    """

    config: CampaignConfig
    trial_index: int
    digest: str | None
    report: CheckReport | None
    error: str | None = None

    #: What json.dumps builds for these settings, built once for all lines.
    _encoder = json.JSONEncoder(separators=(",", ":"), allow_nan=False)

    @property
    def stream(self) -> str:
        return f"{stream_key(self.config.seed, self.trial_index):016x}"

    @property
    def args(self) -> dict | None:
        return None if self.digest is None else generate_instance(self.config, self.trial_index)

    @property
    def payload(self) -> dict | None:
        args = self.args
        return None if args is None else serialize.instance_to_json(self.config.theorem, **args)

    def to_json_line(self) -> str:
        obj = {"trial": self.trial_index, "stream": self.stream}
        if self.digest is None:
            obj.update(generation_failed=True, error=self.error or "unknown")
        elif self.report is None:
            obj.update(digest=self.digest, error=self.error)
        else:
            obj.update(digest=self.digest, report=self.report.to_json())
        return self._encoder.encode(obj)


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: list[TrialRecord]
    summary: dict
    violation_paths: list[str] = field(default_factory=list)
    error_paths: list[str] = field(default_factory=list)


# --- instance execution ------------------------------------------------------

#: Only the cor45 checker takes ``rhs_scale``.
_RHS_SCALE_RULE = "1.0 for every theorem but cor45"


def run_instance(payload: dict, tol: float | None = None, rhs_scale: float = 1.0) -> CheckReport:
    """Decode an instance payload and run its checker.

    The report carries the digest of the decoded arguments, so payloads
    that decode to the same instance share one digest.
    ``rhs_scale`` reaches the cor45 checker only (any other theorem needs
    1.0) and is not part of the payload, so mutated runs keep the digest.
    """
    return _check(*serialize.instance_from_json(payload), tol, rhs_scale)


def _check(theorem, args, tol, rhs_scale, digest=None) -> CheckReport:
    """Run ``theorem``'s checker on ``args``, which it leaves as they are,
    and stamp ``digest`` (by default the digest of ``args``) on the report."""
    if rhs_scale != 1.0 and theorem != "cor45":
        raise ValueError(f"rhs_scale must be {_RHS_SCALE_RULE}, got {rhs_scale!r}")
    mutation = {"rhs_scale": rhs_scale} if theorem == "cor45" else {}
    # Looked up by name on every call, so rebinding a checker reaches here.
    checker = getattr(inequalities, THEOREM_TABLE[theorem][0])
    with np.errstate(over="ignore", invalid="ignore"):  # as in generate_instance
        report = checker(**args, **mutation, tol=tol)
    # Digested after the check, so malformed input gets the checker's message.
    return replace(report, input_digest=digest or serialize.digest(theorem, args))


# --- random building blocks --------------------------------------------------


def _draw_int(rng, bounds) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def _draw_r(cfg: CampaignConfig, rng, lo_cap=-math.inf, hi_cap=math.inf) -> float:
    """Log-uniform draw from ``cfg.r_range`` cut to [lo_cap, hi_cap]."""
    lo, hi = max(cfg.r_range[0], lo_cap), min(cfg.r_range[1], hi_cap)
    if hi < lo:
        raise GenerationError(f"empty parameter range [{lo}, {hi}]")
    if hi == lo:
        return float(lo)
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _sum_to_one_weights(ell: int, rng) -> np.ndarray:
    g = rng.uniform(0.2, 1.0, size=ell)
    return g / g.sum()


#: Functions the campaign generators draw from (inc-convex draws its own).
_FUNCTION_IDS = ("abs_pow", "square", "expm1", "relu")

#: (lo_cap, hi_cap) on the r of each function that takes one: abs_pow is
#: capped at 3 to keep |t|^r values on the default spectrum modest, and
#: t^(r/2) is convex increasing only from r >= 2 on.
_R_CAPS = {"abs_pow": (-math.inf, 3.0), "half_pow": (2.0, math.inf)}


def _draw_function(cfg: CampaignConfig, rng, domain, ids=_FUNCTION_IDS):
    fid = str(ids[_draw_int(rng, (0, len(ids) - 1))])
    r = _draw_r(cfg, rng, *_R_CAPS[fid]) if fid in _R_CAPS else None
    return _function_spec(fid, domain, r)


#: Specs of the campaign running in this context, keyed by id and the bits
#: of the endpoints and r (-0.0 and 0.0 digest apart); unset outside one.
_campaign_specs: contextvars.ContextVar[dict] = contextvars.ContextVar("campaign_specs")


def _function_spec(fid: str, domain, r):
    """:func:`make_function_spec`, with a failed flag scan a GenerationError;
    built once per key within a campaign (a failed build is not kept)."""
    key = (fid, *(float(x).hex() for x in domain), None if r is None else float(r).hex())
    memo = _campaign_specs.get({})  # outside a campaign, a dict that nothing keeps
    if key not in memo:
        try:
            memo[key] = make_function_spec(fid, domain, r)
        except ValueError as exc:  # the flag scan overflowed on this domain
            raise GenerationError(f"cannot build {fid!r} on {tuple(domain)}: {exc}") from exc
    return memo[key]


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
    # Each block's real, then imaginary part: n complex_gaussian((m, m)) draws.
    z = rng.standard_normal((n, 2, m, m))
    g = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    return DiagonalPOVM(g @ g.conj().swapaxes(-1, -2) / (n * m))


def _random_map_spec(n: int, m: int, rng, need_pd: bool = False) -> MapSpec:
    if rng.uniform() < 0.25:
        terms = tuple(
            (float(rng.uniform(0.3, 1.0)), _random_leaf_spec(n, m, rng, need_pd))
            for _ in range(2)
        )
        return WeightedSum(terms)
    return _random_leaf_spec(n, m, rng, need_pd)


#: Rejection-sampling budget of the map generators.
_MAX_ATTEMPTS = 1000


def _subunital_spec(n: int, m: int, rng) -> MapSpec:
    """Random map with 0 < Phi(I) <= I, scaled constraint-aware."""
    for _ in range(_MAX_ATTEMPTS):
        spec = _random_map_spec(n, m, rng, need_pd=True)
        w = np.linalg.eigvalsh(applied_to_identity(spec))
        top = float(w[-1])
        if top <= 1e-9 or float(w[0]) / top < 1e-8:
            continue
        target = float(rng.uniform(0.4, 0.98))
        return WeightedSum(((target / top, spec),))
    raise GenerationError(f"no well-conditioned subunital map after {_MAX_ATTEMPTS} attempts")


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


def _family_shape(cfg: CampaignConfig, rng) -> tuple[int, int]:
    """Matrix size n, then family length ell, of a family generator."""
    return _draw_int(rng, cfg.n_range), _draw_int(rng, cfg.ell_range)


def _scaled_ginibre(n: int, ell: int, rng) -> list[np.ndarray]:
    """ell complex Ginibre n x n matrices, each scaled by its own U(0.3, 1.5)."""
    return [float(rng.uniform(0.3, 1.5)) * complex_gaussian((n, n), rng) for _ in range(ell)]


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
    spec, domain = _subunital_spec(n, m, rng), cfg.spectrum
    if variant == "unital":
        spec = normalize_unital(spec)
        # The unital profile has no condition at 0, so exercise domains
        # that exclude it about a third of the time.
        domain = (1.0, 3.0) if rng.uniform() < 1.0 / 3.0 else domain
    f = _draw_function(cfg, rng, domain)
    x = _short_vector(m, rng, unit=variant == "unital")
    a = random_hermitian(n, domain, rng)
    return {"f": f, "a": a, "spec": spec, "x": x, "variant": variant}


def _gen_thm1(cfg, rng, trial) -> dict:
    n = _draw_int(rng, cfg.n_range)
    m = _draw_int(rng, cfg.m_range)
    ell = _draw_int(rng, cfg.ell_range)
    for _ in range(_MAX_ATTEMPTS):
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
    raise GenerationError(f"no usable map family after {_MAX_ATTEMPTS} attempts")


def _gen_cornew(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    alphas = rng.uniform(0.2, 2.0, size=ell)
    blocks = random_map_family(ell, n, n, alphas, rng)
    mats = random_hermitian(n, cfg.spectrum, rng, ell)
    mixed = sum(blocks.conj().swapaxes(-1, -2) @ mats @ blocks)
    reach = max(
        1.0,
        max(abs(float(x)) for x in np.linalg.eigvalsh(mixed)),
        max(abs(s) for s in cfg.spectrum),
        float(np.max(1.0 / alphas)),
    )
    # Window wide enough to stand in for "convex on all of R" at the
    # scale of every point the checker evaluates.
    window = (-10.0 * reach, 10.0 * reach)
    f = _draw_function(cfg, rng, window, ids=("abs_pow",))  # takes no bits to pick
    return {"f": f, "a_list": mats, "x_list": blocks, "alpha": alphas}


def _gen_cor45(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    r = _draw_r(cfg, rng)
    p = rng.uniform(0.3, 3.0, size=ell)
    conj = p ** (1.0 / (1.0 - r))
    weights = conj / conj.sum()
    if not np.all(np.isfinite(weights)):
        raise GenerationError(f"conjugate powers p^(1/(1-r)) overflow at r={r!r}")
    blocks = random_map_family(ell, n, n, weights, rng)
    mats = random_hermitian(n, cfg.spectrum, rng, ell)
    return {"a_list": mats, "x_list": blocks, "p": p, "r": r}


def _gen_zh(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    r = _draw_r(cfg, rng, hi_cap=2.0)
    p = _sum_to_one_weights(ell, rng)
    mats = random_hermitian(n, cfg.spectrum, rng, ell)
    return {"a_list": mats, "p": p, "r": r}


def _gen_prop_r2(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    r = _draw_r(cfg, rng, lo_cap=2.0)
    p = _sum_to_one_weights(ell, rng)
    mats = _scaled_ginibre(n, ell, rng)
    return {"a_list": mats, "p": p, "r": r}


def _gen_sumsq(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    p = _sum_to_one_weights(ell, rng)
    mats = _scaled_ginibre(n, ell, rng)
    return {"a_list": mats, "p": p}


def _gen_inc_convex(cfg, rng, trial) -> dict:
    n, ell = _family_shape(cfg, rng)
    p = _sum_to_one_weights(ell, rng)
    ids = ("expm1", "relu", "linear", "half_pow")
    fid = ids[_draw_int(rng, (0, len(ids) - 1))]
    domain = cfg.spectrum
    if fid == "half_pow" and cfg.r_range[1] < _R_CAPS[fid][0]:
        fid = "expm1"
    elif fid == "half_pow":
        domain = (0.0, max(cfg.spectrum[1], 1.0))
    f = _draw_function(cfg, rng, domain, ids=(fid,))
    mats = random_hermitian(n, domain, rng, ell)
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


def generate_instance(cfg: CampaignConfig, trial: int) -> dict:
    """Checker arguments of trial ``trial``'s constraint-aware random
    instance, drawn from ``make_rng(cfg.seed, trial)``; checking them gives
    the report that :func:`run_instance` gives for their payload."""
    # Overflow ends in an error that says so; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        return THEOREM_TABLE[cfg.theorem][1](cfg, make_rng(cfg.seed, trial), trial)


# --- campaign loop ------------------------------------------------------------


def _write_artifact(out_path: Path, kind: str, trial: int, obj: dict) -> str:
    """Write ``obj`` as ``<stem>.<kind>-NNNNNN.json`` next to the report."""
    path = out_path.with_name(f"{out_path.name.removesuffix('.jsonl')}.{kind}-{trial:06d}.json")
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return str(path)


def _summary(theorem: str, records: list[TrialRecord]) -> dict:
    """A campaign's summary line, counted from its trial records; the
    first of equal smallest slacks is kept, so a -0.0/0.0 tie is stable."""
    reports = [rec.report for rec in records if rec.report is not None]
    return {
        "theorem": theorem,
        "total": len(records),
        "held": sum(rep.holds for rep in reports),
        "not_applicable": sum(rep.not_applicable for rep in reports),
        "violations": sum(rep.violated for rep in reports),
        "generation_failures": sum(rec.digest is None for rec in records),
        "errors": sum(rec.digest is not None and rec.report is None for rec in records),
        "min_slack_overall": min(
            (rep.min_slack for rep in reports if rep.min_slack is not None), default=None
        ),
        "digest_alg": serialize.DIGEST_ALG,
    }


def _trial(cfg: CampaignConfig, trial: int) -> TrialRecord:
    """Trial ``trial`` of the campaign ``cfg``: a pure function of the two,
    since the trial draws from its own stream; the record drops its instance."""
    digest = report = error = None
    try:
        args = generate_instance(cfg, trial)
        digest = serialize.digest(cfg.theorem, args)
        report = _check(cfg.theorem, args, cfg.tol_override, cfg.rhs_scale, digest)
    except (GenerationError, serialize.NonFiniteError) as exc:
        # The digest refuses an instance whose draw overflowed.
        digest, error = None, str(exc)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(cfg, trial, digest, report, error)


#: Fewest trials that pay for one forked worker: an os.fork round trip
#: takes about 1.8 ms and a trial 0.1-1 ms; this counts trials, not cost.
_TRIALS_PER_WORKER = 64


def _shards(trials: int) -> list[range]:
    """Contiguous trial ranges in index order, one per process: one range
    per usable CPU, as long as each worker past the parent's gets
    :data:`_TRIALS_PER_WORKER` trials. There is one range where fork is
    missing, or unsafe because other threads run (a fork copies only the
    calling thread, not the locks the others hold)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = 1 + min(cpus - 1, trials // _TRIALS_PER_WORKER)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        jobs = 1
    bounds = [trials * j // jobs for j in range(jobs + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _worker(cfg: CampaignConfig, trials: range, parent: int, pipe: int, workers) -> None:
    """A forked worker: the records of ``trials`` it finished, up to the end
    of the range or the first trial that raised, pickled as one list to
    ``pipe``. It closes the read ends of ``workers``, its own too, so a
    write that no one reads fails, and stops once ``parent`` has gone. It
    leaves through ``os._exit`` (code 0 once it has reported), so buffers
    that the parent had open at the fork are never flushed twice."""
    code = 1
    try:
        for *_, recv in workers:
            recv.close()
        records = []
        try:
            for k in trials:
                if os.getppid() != parent:
                    return
                records.append(_trial(cfg, k))
        except Exception:  # the parent runs this trial again, and the rest
            pass
        with os.fdopen(pipe, "wb") as send:
            pickle.dump(records, send)
        code = 0
    finally:
        os._exit(code)


def _records(cfg: CampaignConfig) -> Iterator[TrialRecord]:
    """The trial records of ``cfg`` in index order, each ``_trial(cfg, k)``.

    With more than one range from :func:`_shards`, a forked worker runs
    each range after the first while this process runs the first. A
    worker pickles the records it finished through a pipe of its own, and
    this process runs the rest of the range itself: a trial that raises
    raises here, as the serial loop raises it. A worker that exits without
    a whole message raises :class:`HarnessError`. Each worker is reaped
    once, and killed first when the campaign stops early."""
    own, *later = _shards(cfg.trials)
    workers, parent = [], os.getpid()  # (trials, pid, read end) of each one not yet reaped
    try:
        for trials in later:
            recv, send = os.pipe()
            workers.append((trials, os.fork(), os.fdopen(recv, "rb")))
            if workers[-1][1] == 0:
                _worker(cfg, trials, parent, send, workers)
            os.close(send)  # the worker's end is then the only one: its death reads as EOF
        for k in own:
            yield _trial(cfg, k)
        while workers:
            trials, pid, recv = workers[0]
            try:
                records = pickle.load(recv)
            except (EOFError, pickle.UnpicklingError):  # a message cut short
                records = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            recv.close()
            del workers[0]
            if records is None:
                raise HarnessError(
                    f"the worker of trials {trials.start}-{trials.stop - 1} exited "
                    f"with code {code} without reporting"
                )
            yield from records
            yield from (_trial(cfg, k) for k in trials[len(records):])
    finally:  # GeneratorExit too, when the consumer stops early
        for _, pid, recv in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            recv.close()


def run_campaign(cfg: CampaignConfig, out_path: str | Path | None = None) -> CampaignResult:
    """Run a campaign; optionally stream JSONL records to out_path.

    The emitted stream is one line per trial in index order plus a final
    ``{"summary": ...}`` line, and is byte-identical across runs with the
    same config. A trial whose generator raises :class:`GenerationError`, or
    draws a non-finite instance (which the digest refuses with
    :class:`~bohrcheck.serialize.NonFiniteError`), gets a
    ``generation_failed`` line; one whose checker raises
    :class:`NumericalError` or ``numpy.linalg.LinAlgError`` (an A*A that
    overflows, or an eigensolver that fails) gets an error line and counts
    under ``errors``; any other exception aborts the campaign. The payloads
    of violating and of error trials, drawn again here, are persisted next
    to the report file, as ``<stem>.violation-NNNNNN.json`` (``{"instance",
    "report"}``) and ``<stem>.error-NNNNNN.json`` (``{"instance", "error"}``).
    Every record comes from :func:`_records`, which may run later trials in
    forked workers; the bytes, and an abort's line prefix, are the serial
    loop's.
    """
    records, violation_paths, error_paths = [], [], []

    out = Path(out_path) if out_path is not None else None
    sink = open(out, "w", encoding="utf-8") if out is not None else None
    token = _campaign_specs.set({})
    stream = _records(cfg)
    try:
        for record in stream:
            records.append(record)
            if sink is None:
                continue
            sink.write(record.to_json_line() + "\n")
            if record.report is not None and record.report.violated:
                body = {"instance": record.payload, "report": record.report.to_json()}
                violation_paths.append(_write_artifact(out, "violation", record.trial_index, body))
            elif record.report is None and record.digest is not None:
                body = {"instance": record.payload, "error": record.error}
                error_paths.append(_write_artifact(out, "error", record.trial_index, body))
        summary = _summary(cfg.theorem, records)
        if sink is not None:
            sink.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")
    finally:
        stream.close()  # joins the workers, and first stops them if a write failed
        _campaign_specs.reset(token)
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
    report must match the fresh one in verdict, and in min_slack within
    1e-12 of its grading scale; otherwise :class:`HarnessError` is raised,
    as it is for a stored report or ``extras`` that is not a JSON object, or
    a stored ``tol_used``, ``min_slack`` or ``rhs_scale`` that is not a
    finite JSON number.
    """
    obj = serialize.read_json(source) if isinstance(source, (str, Path)) else source
    stored = None
    if isinstance(obj, dict) and "instance" in obj:
        stored = obj.get("report")
        obj = obj["instance"]
    rhs_scale, old = 1.0, None
    if stored is not None:
        if not isinstance(stored, dict):
            raise HarnessError(f"stored 'report' is a {type(stored).__name__}, not a JSON object")
        extras = {} if stored.get("extras") is None else stored["extras"]
        if not isinstance(extras, dict):
            raise HarnessError(f"stored 'extras' is a {type(extras).__name__}, not a JSON object")
        rhs_scale = _stored_number(extras, "rhs_scale", 1.0)
        tol = _stored_number(stored, "tol_used", None) if tol is None else tol
        old = _stored_number(stored, "min_slack", None)
    report = run_instance(obj, tol, rhs_scale)
    if stored is not None:
        if stored.get("verdict") != report.verdict:
            raise HarnessError(
                f"replay verdict {report.verdict!r} does not match stored {stored.get('verdict')!r}"
            )
        new = report.min_slack
        scale = max(map(abs, (1.0, *report.partial_sums_lhs, *report.partial_sums_rhs)))
        if (old is None) != (new is None) or (
            old is not None and abs(old - new) > 1e-12 * scale
        ):
            raise HarnessError(f"replay min_slack {new!r} does not match stored {old!r}")
    return report


def _stored_number(obj: dict, key: str, default):
    """``obj[key]`` as a float, ``default`` if it is absent or null; a value
    that is not a finite JSON number (a boolean is not one) is refused."""
    value = obj.get(key)
    if value is None:
        return default
    if not (_is_real(value) and math.isfinite(value)):
        raise HarnessError(f"stored {key!r} is {value!r}, not a finite JSON number")
    return float(value)


# --- demo ----------------------------------------------------------------------


def demo() -> list[dict]:
    """Worked examples: each row reports LHS, RHS, and slack (or residual)."""

    def row(name, rep, sides=lambda sums: sums[-1]):
        lhs, rhs = sides(rep.partial_sums_lhs), sides(rep.partial_sums_rhs)
        slack, verdict = rep.min_slack, rep.verdict
        return {"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "verdict": verdict}

    p, r = np.array([0.5, 1.0, 2.0]), 2.5
    z = p ** (1.0 / (1.0 - r))
    dil = stinespring(Congruence(np.eye(3, dtype=complex)))
    gram_defect = float(np.linalg.norm(dil.isometry.conj().T @ dil.isometry - np.eye(3), "fro"))
    a1, a2 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return [
        row(
            "scalar Bohr at the equality point w = (p-1)z",
            inequalities.check_scalar_bohr(1.0 + 0.0j, 1.0 + 0.0j, 2.0),
        ),
        row(
            "Vasic-Keckic at the stationary family z_j = p_j^(1/(1-r))",
            inequalities.check_vasic_keckic(z.astype(complex), p, r),
        ),
        {
            "name": "Stinespring dilation of the identity map on M_3",
            "lhs": dil.recon_residual,
            "rhs": gram_defect,
            "slack": 0.0,
            "verdict": "held" if max(dil.recon_residual, gram_defect) <= 1e-10 else "violated",
        },
        row(
            "eigenvalue Bohr on diag(1,0), diag(0,1), r=2, p=(1/2,1/2)",
            inequalities.check_eigen_bohr([a1, a2], [eye, eye], [0.5, 0.5], 2.0),
            sides=lambda sums: sums,
        ),
    ]


def _fmt_value(v) -> str:
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(f"{x:.6g}" for x in v) + ")"
    return f"{v:.6g}"


def demo_table() -> str:
    """Plain-text table of the :func:`demo` rows."""
    lines = [f"{'case':<58} {'lhs':>18} {'rhs':>18} {'slack':>12} verdict"]
    for row in demo():
        lines.append(
            f"{row['name']:<58} {_fmt_value(row['lhs']):>18} "
            f"{_fmt_value(row['rhs']):>18} {row['slack']:>12.3g} {row['verdict']}"
        )
    return "\n".join(lines)
