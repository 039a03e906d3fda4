"""Metamorphic relations of the spectral Bohr checkers: cor45, zh and prop-r2.

A relation maps an instance payload to another whose verdict must be the
same and whose ``min_slack`` follows from the original's, so a checker is
tested against itself with no second implementation (Chen, Cheung and
Yiu, "Metamorphic testing", HKUST-CS98-01, 1998):

- unitary: eigenvalues and singular values are unitarily invariant
  (Bhatia, *Matrix Analysis*, 1997), so ``A_i -> U A_i U*`` with
  ``X_i -> U X_i`` (cor45), or ``A_i -> U A_i V`` (prop-r2, whose A_i
  need not be Hermitian), keeps every spectrum both sides compare;
- scaling: each inequality is positively homogeneous of degree r in the
  family, so ``A_i -> 2^k A_i`` multiplies both sides, and the slack, by
  ``2^(k r)``.

Every trial of these campaigns is applicable. The transformed
``min_slack`` must match within 1e-12 of the transformed report's scale,
the bound replay grades by.
"""

import functools

import numpy as np
import pytest

from bohrcheck.harness import CampaignConfig, generate_instance, run_instance
from bohrcheck.linalg import hermitize, make_rng, random_unitary
from bohrcheck.serialize import instance_to_json, matrix_from_json, matrix_to_json

THEOREMS = ("cor45", "zh", "prop-r2")
TRIALS, SEED = 100, 7

#: The scaling relation multiplies every A_i by 2^K, which is exact.
K = 20


def _matrices(payload, key):
    return [matrix_from_json(m) for m in payload[key]]


def _unitary(payload, rng):
    """A unitary change of basis; the slack stays as it is."""
    mats = _matrices(payload, "A")
    u = random_unitary(len(mats[0]), rng)
    if payload["theorem"] == "prop-r2":
        v = random_unitary(len(mats[0]), rng)
        moved = [u @ a @ v for a in mats]
    else:
        moved = [hermitize(u @ a @ u.conj().T) for a in mats]
    out = dict(payload, A=[matrix_to_json(a) for a in moved])
    if "X" in payload:
        out["X"] = [matrix_to_json(u @ x) for x in _matrices(payload, "X")]
    return out, 1.0


def _scaling(payload, rng):
    """Every A_i times 2^K; the slack is multiplied by 2^(K r)."""
    out = dict(payload, A=[matrix_to_json(2.0**K * a) for a in _matrices(payload, "A")])
    return out, 2.0 ** (K * payload["r"])


RELATIONS = {"unitary": _unitary, "scaling": _scaling}


@functools.cache
def _campaign(theorem):
    """(payload, report) of each trial of the theorem's campaign."""
    cfg = CampaignConfig(theorem, TRIALS, seed=SEED)
    payloads = [instance_to_json(theorem, **generate_instance(cfg, k)) for k in range(TRIALS)]
    return [(payload, run_instance(payload)) for payload in payloads]


def _scale(report):
    return max(map(abs, (1.0, *report.partial_sums_lhs, *report.partial_sums_rhs)))


def _worst_gap(theorem, relation):
    """The largest ``min_slack`` miss over the campaign, relative to the
    transformed report's scale; every verdict must be kept."""
    worst = 0.0
    for k, (payload, report) in enumerate(_campaign(theorem)):
        assert not report.not_applicable, f"trial {k}: {report.failed_hypotheses()}"
        moved, factor = RELATIONS[relation](payload, make_rng(SEED, 1000 + k))
        fresh = run_instance(moved)
        assert fresh.verdict == report.verdict, f"trial {k}"
        worst = max(worst, abs(fresh.min_slack - factor * report.min_slack) / _scale(fresh))
    return worst


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("theorem", THEOREMS)
def test_a_metamorphic_relation_keeps_verdict_and_slack(theorem, relation):
    assert _worst_gap(theorem, relation) <= 1e-12
