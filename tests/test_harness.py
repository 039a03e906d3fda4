"""Campaign configuration, generators, JSONL stream, replay, and demo."""

import contextlib
import gc
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import bohrcheck.harness as harness_mod
from bohrcheck import calculus, serialize
from bohrcheck.cpmaps import DiagonalPOVM, WeightedSum
from bohrcheck.inequalities import NumericalError
from bohrcheck.harness import (
    THEOREM_TABLE,
    CampaignConfig,
    GenerationError,
    HarnessError,
    TrialRecord,
    _TRIALS_PER_WORKER,
    _draw_int,
    _random_leaf_spec,
    _shards,
    _trial,
    demo,
    demo_table,
    generate_instance,
    replay,
    run_campaign,
    run_instance,
)
from bohrcheck.linalg import make_rng, stream_key
from bohrcheck.serialize import NonFiniteError, SerializationError
from oracles import povm_blocks_loop

ALL_THEOREMS = (
    "bohr",
    "vasic",
    "jensen-vec",
    "jensen-map",
    "thm1",
    "cornew",
    "cor45",
    "zh",
    "prop-r2",
    "sumsq",
    "inc-convex",
)


def _payload(cfg, trial):
    """Payload of the instance a campaign with ``cfg`` generates at ``trial``."""
    return serialize.instance_to_json(cfg.theorem, **generate_instance(cfg, trial))


# --- configuration -----------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(SerializationError):
        CampaignConfig("nonsense", 1, 0)
    with pytest.raises(ValueError):
        CampaignConfig("bohr", -1, 0)
    with pytest.raises(ValueError):
        CampaignConfig("bohr", 1, 0, n_range=(5, 2))
    with pytest.raises(ValueError):
        CampaignConfig("bohr", 1, 0, n_range=(0, 3))
    with pytest.raises(ValueError):
        CampaignConfig("bohr", 1, 0, r_range=(1.0, 2.0))


def test_config_rejects_bad_spectrum():
    # Each of these once aborted a campaign part-way instead.
    # (-1.7e308, 1.7e308) has finite ends but a width rng.uniform refuses.
    bad = ((3.0, -3.0), (float("nan"), 3.0), (-3.0, float("inf")), (-1.7e308, 1.7e308))
    for spectrum in bad:
        with pytest.raises(ValueError, match="^spectrum must be"):
            CampaignConfig("zh", 1, 0, spectrum=spectrum)


def test_config_rejects_bad_variant():
    with pytest.raises(ValueError, match="^variant must be"):
        CampaignConfig("jensen-map", 1, 0, variant="unitary")
    for variant in (None, "subunital", "unital"):
        CampaignConfig("jensen-map", 1, 0, variant=variant)


def test_config_rejects_unbounded_r_range():
    for r_range in ((1.5, float("inf")), (1.5, float("nan")), (float("nan"), 2.0)):
        with pytest.raises(ValueError, match="^r_range must be"):
            CampaignConfig("cor45", 1, 0, r_range=r_range)


def test_config_rejects_bad_tol_override():
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^tol_override must be"):
            CampaignConfig("zh", 1, 0, tol_override=tol)
    assert CampaignConfig("zh", 1, 0, tol_override=0.0).tol_override == 0.0


def test_config_rejects_bad_rhs_scale():
    for scale in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^rhs_scale must be"):
            CampaignConfig("cor45", 1, 0, rhs_scale=scale)
    # Only the cor45 checker takes rhs_scale; elsewhere it was once ignored,
    # so a mutation campaign on another theorem read as clean.
    others = [t for t in ALL_THEOREMS if t != "cor45"]
    assert len(others) == 10
    for theorem in others:
        for scale in (0.5, 2.0):
            with pytest.raises(ValueError, match="^rhs_scale must be 1.0 for every theorem but cor45"):
                CampaignConfig(theorem, 1, 0, rhs_scale=scale)
        assert CampaignConfig(theorem, 1, 0, rhs_scale=1.0).rhs_scale == 1.0
    assert CampaignConfig("cor4.5", 1, 0, rhs_scale=0.5).rhs_scale == 0.5


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("trials", "5", "an integer"),
        ("n_range", ("2", 8), "a range of integers"),
        ("n_range", (2,), "a range of integers"),
        ("r_range", (1.1, "4"), "a pair of real numbers"),
        ("spectrum", (0, "3"), "a pair of real numbers"),
        ("spectrum", (0, 10**400), "a pair of real numbers"),
        ("rhs_scale", "1", "a real number"),
        ("tol_override", "1e-3", "None or a real number"),
    ],
)
def test_config_reports_a_wrong_type_as_a_value_error(tmp_path, field, value, rule):
    # Each of these once escaped as a bare TypeError, IndexError or
    # OverflowError from a later rule that compared or indexed the value.
    settings = {"theorem": "cor45", "trials": 3, "seed": 3, field: value}
    out = tmp_path / "report.jsonl"
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {re.escape(repr(value))}$"):
        run_campaign(CampaignConfig(**settings), out)
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("trials", 2.5, "an integer"),
        ("trials", True, "an integer"),
        ("trials", 3.0, "an integer"),
        ("seed", 1.5, "an integer"),
        ("seed", False, "an integer"),
        ("n_range", (2.0, 8), "a range of integers"),
        ("m_range", (2, 8.5), "a range of integers"),
        ("ell_range", (True, 4), "a range of integers"),
    ],
)
def test_config_rejects_non_integer_counts(tmp_path, field, value, rule):
    # trials=2.5 once passed the config and then raised TypeError with the
    # report file already created; trials=True ran one trial and seed=1.5
    # silently ran seed 1.
    settings = {"theorem": "zh", "trials": 3, "seed": 3, field: value}
    out = tmp_path / "report.jsonl"
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {re.escape(repr(value))}$"):
        run_campaign(CampaignConfig(**settings), out)
    assert not out.exists()


def test_config_accepts_numpy_integers():
    cfg = CampaignConfig("zh", np.int64(2), np.uint32(3), n_range=(np.int32(2), 4))
    res = run_campaign(cfg)
    assert len(res.records) == 2
    assert res.records[1].stream == f"{stream_key(3, 1):016x}"


def test_run_instance_rejects_rhs_scale_off_cor45():
    payload = _payload(CampaignConfig("zh", 1, 3), 0)
    with pytest.raises(ValueError, match="^rhs_scale must be 1.0 for every theorem but cor45, got 0.5"):
        run_instance(payload, rhs_scale=0.5)
    assert run_instance(payload, rhs_scale=1.0).holds


def test_config_accepts_theorem_alias(tmp_path):
    # The config stores the canonical id, so an alias campaign is the
    # canonical one, byte for byte, violation artifacts included.
    cfg = CampaignConfig("cor4.5", 40, 5, rhs_scale=0.4)
    assert cfg.theorem == "cor45"
    written = {}
    for theorem in ("cor4.5", "cor45"):
        (tmp_path / theorem).mkdir()
        out = tmp_path / theorem / "run.jsonl"
        res = run_campaign(CampaignConfig(theorem, 40, 5, rhs_scale=0.4), out)
        assert res.violation_paths
        written[theorem] = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    assert written["cor4.5"] == written["cor45"]


# --- generators --------------------------------------------------------------------


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_generated_instances_satisfy_hypotheses(theorem):
    cfg = CampaignConfig(theorem, 0, seed=314, n_range=(2, 6), m_range=(2, 6))
    for trial in range(20):
        payload = _payload(cfg, trial)
        assert payload["theorem"] == serialize.canonical_theorem(theorem)
        report = run_instance(payload)
        assert report.holds, (theorem, trial, report.failed_hypotheses())


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_generated_payloads_are_deterministic(theorem):
    cfg = CampaignConfig(theorem, 0, seed=2718)
    for trial in (0, 3, 7):
        first = generate_instance(cfg, trial)
        second = generate_instance(cfg, trial)
        assert serialize.digest(theorem, first) == serialize.digest(theorem, second)


def test_generated_payloads_round_trip_canonical_json():
    # Decoding a generated payload's JSON text gives arguments that pack to
    # the same bytes as the generated ones.
    for theorem in ALL_THEOREMS:
        cfg = CampaignConfig(theorem, 0, seed=1)
        args = generate_instance(cfg, 0)
        text = json.dumps(serialize.instance_to_json(theorem, **args))
        decoded = serialize.instance_from_json(json.loads(text))
        assert serialize.digest(*decoded) == serialize.digest(theorem, args)


def test_jensen_map_variant_forcing():
    for variant in ("subunital", "unital"):
        cfg = CampaignConfig("jensen-map", 0, seed=9, variant=variant)
        for trial in range(6):
            assert generate_instance(cfg, trial)["variant"] == variant
    # Default alternates, so both profiles appear across trials.
    cfg = CampaignConfig("jensen-map", 0, seed=9)
    seen = {generate_instance(cfg, t)["variant"] for t in range(6)}
    assert seen == {"subunital", "unital"}


def test_theorem_specific_r_clipping():
    zh_cfg = CampaignConfig("zh", 0, seed=3, r_range=(1.1, 4.0))
    prop_cfg = CampaignConfig("prop-r2", 0, seed=3, r_range=(1.1, 4.0))
    for trial in range(25):
        assert generate_instance(zh_cfg, trial)["r"] <= 2.0
        assert generate_instance(prop_cfg, trial)["r"] >= 2.0


# --- run_instance dispatch ----------------------------------------------------------


# --- function specs: built once per campaign ------------------------------------


def _spec_key(f):
    """The memo key of spec ``f``: its id and the bits of its endpoints and r."""
    return (f.id, f.domain.lo.hex(), f.domain.hi.hex(), None if f.r is None else f.r.hex())


def test_trials_of_one_campaign_share_a_spec_per_key(monkeypatch):
    # A record draws its instance again outside the campaign, so the
    # sharing shows in the builds the campaign itself makes: one per key.
    built = []

    def counting(fid, domain, r=None):
        built.append((fid, domain, r))
        return calculus.make_function_spec(fid, domain, r)

    monkeypatch.setattr(harness_mod, "make_function_spec", counting)
    res = run_campaign(CampaignConfig("jensen-map", 60, seed=5))
    campaign_builds = len(built)
    keys = {_spec_key(rec.args["f"]) for rec in res.records}
    assert len(keys) < len(res.records)  # square, expm1 and relu recur
    assert campaign_builds == len(keys)


def test_campaigns_do_not_share_specs():
    cfg = CampaignConfig("thm1", 20, seed=6)
    first, second = run_campaign(cfg).records, run_campaign(cfg).records
    for a, b in zip(first, second):
        assert _spec_key(a.args["f"]) == _spec_key(b.args["f"])
        assert a.args["f"] is not b.args["f"]


def test_generate_instance_outside_a_campaign_builds_a_fresh_spec():
    cfg = CampaignConfig("jensen-vec", 4, seed=7)
    ran = run_campaign(cfg).records[2].args["f"]
    specs = [generate_instance(cfg, 2)["f"] for _ in range(2)]
    assert {_spec_key(f) for f in specs} == {_spec_key(ran)}
    assert specs[0] is not specs[1]
    assert all(f is not ran for f in specs)


def test_a_campaign_run_inside_another_leaves_the_outer_memo_in_place(monkeypatch):
    # Each campaign's memo is set for its own run and restored after it, so
    # the outer campaign keeps sharing its spec across the inner run.
    import bohrcheck.harness as harness_mod

    outer, inner = [], []

    def bohr(cfg, rng, trial):
        outer.append(harness_mod._function_spec("relu", (-1.0, 1.0), None))
        if trial == 0:
            run_campaign(CampaignConfig("vasic", 2, seed=1))
        return {"z": 1.0, "w": 1.0, "p": 2.0}

    def vasic(cfg, rng, trial):
        inner.append(harness_mod._function_spec("relu", (-1.0, 1.0), None))
        return {"z": np.ones(1, dtype=complex), "p": np.ones(1), "r": 2.0}

    monkeypatch.setitem(harness_mod.THEOREM_TABLE, "bohr", ("check_scalar_bohr", bohr))
    monkeypatch.setitem(harness_mod.THEOREM_TABLE, "vasic", ("check_vasic_keckic", vasic))
    run_campaign(CampaignConfig("bohr", 3, seed=1))
    assert outer[0] is outer[1] is outer[2]
    assert inner[0] is inner[1] and inner[0] is not outer[0]


def test_spec_memo_keeps_signed_zero_endpoints_apart(monkeypatch):
    # -0.0 and 0.0 compare equal but pack, and so digest, apart: a memo
    # keyed by float == would hand one trial the other's endpoints.
    import bohrcheck.harness as harness_mod

    built = []

    def gen(cfg, rng, trial):
        for domain in ((-0.0, 1.0), (0.0, 1.0)):
            built.append(harness_mod._function_spec("relu", domain, None))
        return {"z": 1.0, "w": 1.0, "p": 2.0}

    monkeypatch.setitem(harness_mod.THEOREM_TABLE, "bohr", ("check_scalar_bohr", gen))
    run_campaign(CampaignConfig("bohr", 2, seed=1))
    neg, pos, neg_again, pos_again = built
    assert neg is neg_again and pos is pos_again  # the memo is in use
    assert neg is not pos
    assert str(neg.domain.lo) == "-0.0" and str(pos.domain.lo) == "0.0"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failed_spec_builds_are_not_kept(monkeypatch):
    # expm1 overflows in the flag scan on [1, 1000]; every draw of it must
    # rebuild and fail with the same message, not replay a stored failure.
    import bohrcheck.harness as harness_mod

    builds = []
    real = harness_mod.make_function_spec

    def counting(fid, domain, r=None):
        builds.append(fid)
        return real(fid, domain, r)

    monkeypatch.setattr(harness_mod, "make_function_spec", counting)
    res = run_campaign(CampaignConfig("jensen-vec", 40, seed=3, spectrum=(1.0, 1000.0)))
    failures = [rec.error for rec in res.records if rec.args is None]
    assert len(failures) >= 2
    reason = "function evaluated to a non-finite value on its domain"
    assert set(failures) == {f"cannot build 'expm1' on (1.0, 1000.0): {reason}"}
    assert builds.count("expm1") == len(failures)


def test_spec_flags_are_shared_read_only():
    f = run_campaign(CampaignConfig("jensen-vec", 1, seed=1)).records[0].args["f"]
    with pytest.raises(TypeError):
        f.flags["convex_on_J"] = False


def test_povm_blocks_are_drawn_as_n_complex_gaussian_calls():
    # With n < m and need_pd, a POVM is the only leaf kind. Its blocks come
    # from one standard_normal call, which must give the bits and leave the
    # stream where n complex_gaussian((m, m)) calls do.
    for seed, (n, m) in enumerate([(1, 2), (2, 3), (3, 8), (5, 7), (7, 8)]):
        rng, ref = make_rng(seed), make_rng(seed)
        spec = _random_leaf_spec(n, m, rng, need_pd=True)
        _draw_int(ref, (0, 0))
        g = povm_blocks_loop(n, m, ref)
        assert isinstance(spec, DiagonalPOVM)
        expected = DiagonalPOVM(g @ g.conj().swapaxes(-1, -2) / (n * m))
        assert spec.effects.tobytes() == expected.effects.tobytes()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert rng.standard_normal() == ref.standard_normal()


def test_run_instance_requires_theorem_field():
    with pytest.raises(SerializationError):
        run_instance({"z": 1.0})
    with pytest.raises(SerializationError):
        run_instance([1, 2, 3])


def test_run_instance_reports_missing_field():
    with pytest.raises(SerializationError, match="^field 'p' is missing$"):
        run_instance({"theorem": "bohr", "z": {"re": 1.0, "im": 0.0}})


def test_run_instance_reports_a_ragged_family_in_the_checkers_words():
    # The digest is taken after the check, so malformed input gets the
    # family validator's message rather than numpy's.
    payload = serialize.instance_to_json("zh", a_list=[np.eye(2), np.eye(3)], p=[0.5, 0.5], r=1.5)
    with pytest.raises(ValueError, match=r"matrix 1 has shape \(3, 3\), expected \(2, 2\)"):
        run_instance(payload)


def test_trial_record_json_line_shapes():
    rep = run_instance({"theorem": "bohr", "z": {"re": 1.0, "im": 0.0},
                        "w": {"re": 1.0, "im": 0.0}, "p": 2.0})
    cfg = CampaignConfig("bohr", 8, seed=3)
    ok = TrialRecord(cfg, 4, "0123456789abcdef", rep)
    obj = json.loads(ok.to_json_line())
    assert obj["trial"] == 4 and obj["digest"] == "0123456789abcdef"
    assert obj["stream"] == f"{stream_key(3, 4):016x}"
    assert "elapsed" not in obj["report"]

    bad = TrialRecord(cfg, 5, None, None, "rejection cap hit")
    assert bad.args is None and bad.payload is None
    obj = json.loads(bad.to_json_line())
    assert obj["generation_failed"] is True and obj["error"] == "rejection cap hit"

    err = TrialRecord(cfg, 6, "00000000000000ff", None, "NumericalError: x")
    obj = json.loads(err.to_json_line())
    stream = f"{stream_key(3, 6):016x}"
    assert obj == {"trial": 6, "stream": stream, "digest": "00000000000000ff", "error": "NumericalError: x"}


# --- campaigns -----------------------------------------------------------------------


def test_campaign_zero_trials(tmp_path):
    out = tmp_path / "empty.jsonl"
    res = run_campaign(CampaignConfig("bohr", 0, 1), out)
    assert res.summary == {
        "theorem": "bohr",
        "total": 0,
        "held": 0,
        "not_applicable": 0,
        "violations": 0,
        "generation_failures": 0,
        "errors": 0,
        "min_slack_overall": None,
        "digest_alg": "blake2b-64-pack",
    }
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and "summary" in json.loads(lines[0])


def test_campaign_counts_and_stream_layout(tmp_path):
    out = tmp_path / "zh.jsonl"
    cfg = CampaignConfig("zh", 40, seed=17, n_range=(2, 5))
    res = run_campaign(cfg, out)
    s = res.summary
    assert s["total"] == 40
    assert s["held"] + s["not_applicable"] + s["violations"] + s["generation_failures"] == 40
    assert s["held"] == 40  # generators are constraint-aware
    assert s["min_slack_overall"] >= 0.0

    lines = out.read_text().splitlines()
    assert len(lines) == 41
    for trial, line in enumerate(lines[:-1]):
        obj = json.loads(line)
        assert obj["trial"] == trial
        assert obj["stream"] == f"{stream_key(17, trial):016x}"
        assert obj["report"]["verdict"] == "held"
    assert json.loads(lines[-1])["summary"] == s


def test_campaign_lines_reproducible_from_seed(tmp_path):
    out = tmp_path / "cor45.jsonl"
    cfg = CampaignConfig("cor45", 15, seed=23, n_range=(2, 5))
    run_campaign(cfg, out)
    for line in out.read_text().splitlines()[:-1]:
        obj = json.loads(line)
        payload = _payload(cfg, obj["trial"])
        assert serialize.digest(*serialize.instance_from_json(payload)) == obj["digest"]
        fresh = run_instance(payload)
        assert fresh.verdict == obj["report"]["verdict"]
        assert fresh.min_slack == obj["report"]["min_slack"]


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_campaign_digest_matches_replay_digest(tmp_path, theorem):
    # The campaign digests and checks the generated arguments; replay
    # decodes their payload and digests the decoded arguments. Both must
    # give the same report, so a campaign line is exactly what its
    # persisted payload reproduces.
    out = tmp_path / "c.jsonl"
    res = run_campaign(CampaignConfig(theorem, 6, seed=11), out)
    lines = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
    assert len(lines) == len(res.records) == 6
    for line, rec in zip(lines, res.records):
        assert rec.report is not None
        expected = serialize.digest(theorem, rec.args)
        assert line["digest"] == line["report"]["input_digest"] == expected
        fresh = run_instance(rec.payload)
        assert fresh.to_json() == rec.report.to_json()
        assert fresh.input_digest == expected
        assert replay(json.loads(json.dumps(rec.payload))).input_digest == expected


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_checkers_leave_their_arguments_unchanged(theorem):
    # Records keep the generated arguments and encode their payload on
    # demand, so the check must not alter them (cor45's rhs_scale included).
    cfg = CampaignConfig(theorem, 4, seed=13, rhs_scale=0.5 if theorem == "cor45" else 1.0)
    res = run_campaign(cfg)
    for rec in res.records:
        fresh = generate_instance(cfg, rec.trial_index)
        assert rec.report is not None and list(rec.args) == list(fresh)
        assert json.dumps(rec.payload) == json.dumps(serialize.instance_to_json(theorem, **fresh))


def test_clean_campaign_encodes_no_payload(tmp_path, monkeypatch):
    def refuse(theorem, **args):
        raise AssertionError("instance_to_json called")

    monkeypatch.setattr(serialize, "instance_to_json", refuse)
    for theorem in ALL_THEOREMS:
        res = run_campaign(CampaignConfig(theorem, 3, seed=5), tmp_path / f"{theorem}.jsonl")
        assert res.summary["held"] == 3


def test_replay_digests_the_canonical_re_encoding():
    # An alias id, int-valued floats and an unknown key all vanish on
    # decoding, so they leave the replayed digest unchanged: it is the
    # digest of the checker arguments themselves.
    canonical = {
        "theorem": "cor45",
        "r": 2.0,
        "p": [1.0, 2.0],
        "A": [serialize.matrix_to_json(np.eye(2)), serialize.matrix_to_json(np.diag([1.0, -1.0]))],
        "X": [serialize.matrix_to_json(np.eye(2))] * 2,
    }
    loose = dict(canonical, theorem="cor4.5", r=2, p=[1, 2], note="hand-written")
    assert json.dumps(loose) != json.dumps(canonical)
    assert replay(loose).input_digest == replay(canonical).input_digest
    args = {"r": 2.0, "p": [1.0, 2.0], "a_list": [np.eye(2), np.diag([1.0, -1.0])],
            "x_list": [np.eye(2)] * 2}
    assert replay(canonical).input_digest == serialize.digest("cor45", args)


def test_campaign_streams_are_byte_identical(tmp_path):
    cfg = CampaignConfig("cor45", 30, seed=42)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_campaign(cfg, a)
    run_campaign(cfg, b)
    assert a.read_bytes() == b.read_bytes()


def test_campaign_without_sink_returns_records():
    res = run_campaign(CampaignConfig("vasic", 5, seed=4))
    assert len(res.records) == 5
    assert all(r.report is not None and r.report.holds for r in res.records)
    assert res.violation_paths == []


def test_campaign_counts_generation_failures(tmp_path, monkeypatch):
    import bohrcheck.harness as harness_mod

    real = harness_mod.generate_instance

    def flaky(cfg, trial):
        if trial % 2 == 1:
            raise GenerationError("forced failure")
        return real(cfg, trial)

    monkeypatch.setattr(harness_mod, "generate_instance", flaky)
    out = tmp_path / "flaky.jsonl"
    res = harness_mod.run_campaign(CampaignConfig("bohr", 6, 8), out)
    assert res.summary["generation_failures"] == 3
    assert res.summary["held"] == 3
    # A trial that generated nothing is a generation failure, not an error.
    assert res.summary["errors"] == 0 and res.summary["total"] == 6
    failed = [json.loads(l) for l in out.read_text().splitlines()[:-1] if "generation_failed" in l]
    assert len(failed) == 3
    assert all(f["error"] == "forced failure" for f in failed)


SPECTRUM_THEOREMS = ("jensen-vec", "jensen-map", "thm1", "cornew", "cor45", "zh", "inc-convex")


@pytest.mark.parametrize("spectrum", [(0.0, 1.5e308), (-1e308, 1e307)])
@pytest.mark.parametrize("theorem", SPECTRUM_THEOREMS)
def test_campaign_at_an_extreme_spectrum_writes_every_line(tmp_path, theorem, spectrum):
    # Draws overflow here: a non-finite instance is a generation failure
    # and an overflowed sum a trial error; neither aborts the campaign.
    out = tmp_path / "run.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_campaign(CampaignConfig(theorem, 20, 7, spectrum=spectrum), out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 21 and lines[-1] == {"summary": res.summary}
    assert res.summary["violations"] == 0
    failed = [i for i, rec in enumerate(res.records) if rec.args is None]
    assert res.summary["generation_failures"] == len(failed)
    for i in failed:
        assert lines[i]["generation_failed"] and "digest" not in lines[i]
        assert not list(tmp_path.glob(f"run.*-{i:06d}.json"))


def test_non_finite_instance_is_a_generation_failure(tmp_path):
    out = tmp_path / "cor45.jsonl"
    res = run_campaign(CampaignConfig("cor45", 20, 7, spectrum=(0.0, 1.5e308)), out)
    nonfinite = [r for r in res.records if r.error == "field 'A': entries must be finite"]
    assert nonfinite and all(r.args is None and r.digest is None for r in nonfinite)
    assert res.summary["generation_failures"] >= len(nonfinite)
    assert res.summary["errors"] == len(res.error_paths)


def test_only_a_non_finite_digest_is_a_generation_failure(tmp_path, monkeypatch):
    checker = THEOREM_TABLE["bohr"][0]

    def draw(z):
        return checker, lambda cfg, rng, trial: {"p": 2.0, "z": z, "w": 1.0}

    monkeypatch.setitem(THEOREM_TABLE, "bohr", draw(complex(np.inf, 0.0)))
    res = run_campaign(CampaignConfig("bohr", 3, 0), tmp_path / "inf.jsonl")
    assert [r.error for r in res.records] == ["field 'z': entries must be finite"] * 3
    assert res.summary["generation_failures"] == 3
    # A generator that returns a wrong type is a bug, not a failed draw.
    monkeypatch.setitem(THEOREM_TABLE, "bohr", draw("not a number"))
    out = tmp_path / "text.jsonl"
    with pytest.raises(SerializationError, match="^field 'z': ") as info:
        run_campaign(CampaignConfig("bohr", 3, 0), out)
    assert not isinstance(info.value, NonFiniteError)
    assert out.read_text() == ""


@pytest.mark.parametrize("theorem", ["cornew", "jensen-vec", "inc-convex"])
def test_campaign_generation_leaks_no_numpy_warnings(theorem):
    # Each overflow at this spectrum is recorded as a GenerationError.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_campaign(CampaignConfig(theorem, 20, 7, spectrum=(-1e150, 1e150)))
    assert res.summary["generation_failures"] > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "theorem, overrides",
    [("cor45", {"r_range": (1.0000001, 1.0000002)})]
    + [
        (theorem, {"spectrum": (-800.0, 800.0)})
        for theorem in ("jensen-vec", "jensen-map", "thm1", "inc-convex")
    ]
    + [("cornew", {"spectrum": (-1e150, 1e150)})],
)
def test_generation_overflow_is_a_generation_failure(tmp_path, theorem, overrides):
    # cor45: p^(1/(1-r)) overflows for r next to 1; jensen-vec, jensen-map,
    # thm1 and inc-convex: expm1 overflows in the flag scan on a wide
    # spectrum; cornew: |t|^r overflows in the flag scan on its window, ten
    # times the reach of the spectra.
    out = tmp_path / "extreme.jsonl"
    res = run_campaign(CampaignConfig(theorem, 40, seed=3, **overrides), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert json.loads(lines[-1])["summary"] == res.summary
    assert res.summary["generation_failures"] >= 1


@pytest.mark.parametrize(
    "cfg, kind",
    [pytest.param(CampaignConfig(t, 6, 11), "report", id=t) for t in ALL_THEOREMS]
    + [
        pytest.param(
            CampaignConfig("cor45", 20, 7, spectrum=(0.0, 1.5e308)), "generation_failed",
            id="cor45-generation-failures",
        ),
        pytest.param(
            CampaignConfig("vasic", 10, 3, r_range=(800.0, 900.0)), "error", id="vasic-errors"
        ),
    ],
)
def test_a_trial_alone_and_out_of_order_is_the_campaign_trial(cfg, kind):
    # Each trial draws from its own stream and a spec is a pure build, so
    # trial k needs neither trials 0..k-1 nor the campaign's spec memo.
    records = run_campaign(cfg).records
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        alone = {k: _trial(cfg, k) for k in reversed(range(cfg.trials))}
    for k, rec in enumerate(records):
        assert alone[k].to_json_line() == rec.to_json_line()
        assert alone[k].payload == rec.payload
    assert any(f'"{kind}":' in rec.to_json_line() for rec in records)


@pytest.mark.parametrize(
    "theorem, overrides",
    [("cor45", {"r_range": (1.0000001, 1.0000002)}), ("jensen-vec", {"spectrum": (-800.0, 800.0)})],
)
def test_a_generator_called_alone_stays_quiet(theorem, overrides):
    # generate_instance silences numpy for every generator: the overflow
    # surfaces as a GenerationError, not as a RuntimeWarning before it.
    cfg = CampaignConfig(theorem, 40, 3, **overrides)
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(cfg.trials):
            try:
                generate_instance(cfg, trial)
            except GenerationError:
                failures += 1
    assert failures >= 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_numerical_error_is_a_trial_error_not_an_abort(tmp_path):
    # |z_j|^r and the constant overflow inside the vasic checker at
    # r in [800, 900], so a side is infinite on many trials.
    out = tmp_path / "extreme.jsonl"
    res = run_campaign(CampaignConfig("vasic", 40, 3, r_range=(800.0, 900.0)), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert json.loads(lines[-1])["summary"] == res.summary
    s = res.summary
    assert s["errors"] > 0
    assert s["held"] + s["not_applicable"] + s["violations"] + s["generation_failures"] + s["errors"] == 40
    errors = [json.loads(line) for line in lines[:-1] if '"report"' not in line]
    assert len(errors) == s["errors"]
    for obj in errors:
        assert set(obj) == {"trial", "stream", "digest", "error"}
        assert obj["error"].startswith("NumericalError: ")
        assert obj["digest"] == serialize.digest("vasic", res.records[obj["trial"]].args)
    assert s["violations"] == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("theorem", ["cor45", "prop-r2"])
def test_eigensolver_failure_is_a_trial_error_not_an_abort(tmp_path, theorem):
    # |A_i|^r overflows at r in [800, 900]; the non-finite sum is refused
    # before an eigensolver sees it, or a side comes out infinite.
    out = tmp_path / "extreme.jsonl"
    res = run_campaign(CampaignConfig(theorem, 40, 3, r_range=(800.0, 900.0)), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert json.loads(lines[-1])["summary"] == res.summary
    assert res.summary["violations"] == 0
    kinds = {r.error.split(":")[0] for r in res.records if r.error}
    assert kinds == {"NumericalError"}
    assert f"NumericalError: {theorem}: the sum of the matrices is not finite" in {
        r.error for r in res.records
    }
    assert res.summary["errors"] == sum(r.error is not None for r in res.records)


def test_functional_calculus_eigensolver_failure_is_a_trial_error(tmp_path, monkeypatch):
    # jensen-vec reaches np.linalg.eigh only through its one decomposition
    # of A, whose LinAlgError must end the trial, not the campaign.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    out = tmp_path / "eigh.jsonl"
    res = run_campaign(CampaignConfig("jensen-vec", 3, 1), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1])["summary"] == res.summary
    assert res.summary["errors"] == 3 and len(res.error_paths) == 3
    assert [r.error for r in res.records] == ["LinAlgError: Eigenvalues did not converge"] * 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_vasic_next_to_r_one_holds():
    # The constant under- or overflows in its direct form there; the
    # log-sum-exp fallback keeps it at its limit 1/min(p).
    res = run_campaign(CampaignConfig("vasic", 40, 3, r_range=(1.0000001, 1.0000002)))
    assert res.summary["held"] == 40 and res.summary["errors"] == 0


def test_campaign_persists_violations_for_replay(tmp_path):
    out = tmp_path / "mutated.jsonl"
    cfg = CampaignConfig("cor45", 40, seed=5, rhs_scale=0.4)
    res = run_campaign(cfg, out)
    assert res.summary["violations"] == 14
    assert len(res.violation_paths) == 14
    for vpath in res.violation_paths:
        name = vpath.rsplit("/", 1)[-1]
        assert name.startswith("mutated.violation-") and name.endswith(".json")
        saved = json.loads((tmp_path / name).read_text())
        assert set(saved) == {"instance", "report"}
        assert saved["report"]["verdict"] == "violated"
        assert saved["report"]["extras"]["rhs_scale"] == 0.4
        rep = replay(tmp_path / name)  # honors the stored rhs_scale
        assert rep.violated


def test_campaign_persists_error_payloads_for_replay(tmp_path):
    out = tmp_path / "extreme.jsonl"
    res = run_campaign(CampaignConfig("vasic", 40, 3, r_range=(800.0, 900.0)), out)
    errored = [r for r in res.records if r.report is None]
    assert res.summary["errors"] == len(errored) == len(res.error_paths) == 26
    assert res.violation_paths == []
    for rec, path in zip(errored, res.error_paths):
        assert path.endswith(f"extreme.error-{rec.trial_index:06d}.json")
        saved = json.loads((tmp_path / path.rsplit("/", 1)[-1]).read_text())
        assert saved == {"instance": rec.payload, "error": rec.error}
        with pytest.raises(NumericalError, match="non-finite"):
            replay(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["extreme.jsonl"] + [path.rsplit("/", 1)[-1] for path in res.error_paths]
    )
    # Without an output path nothing is written, so there is nothing to list.
    assert run_campaign(CampaignConfig("vasic", 5, 3, r_range=(800.0, 900.0))).error_paths == []


# --- sharded campaigns --------------------------------------------------------------

#: A campaign this long runs in the parent and one forked worker wherever
#: two CPUs are usable, and in no more processes than that.
SHARDED = _TRIALS_PER_WORKER

needs_two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2, reason="needs two usable CPUs"
)


def _one_cpu(monkeypatch):
    """Force the serial loop, as ``taskset -c 0`` does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _assert_no_children():
    with pytest.raises(ChildProcessError):  # not even a zombie is left
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than hang, when the block outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _campaign_files(cfg, folder):
    """The campaign's result and every file it wrote, by name."""
    folder.mkdir()
    res = run_campaign(cfg, folder / "c.jsonl")
    return res, {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


@pytest.mark.parametrize(
    "cpus, trials, jobs",
    [
        (1, 10_000, 1),
        (2, SHARDED - 1, 1),
        (2, SHARDED, 2),
        (2, 10_000, 2),
        (4, 2 * SHARDED + 1, 3),
        (4, 10_000, 4),
        (8, 3 * SHARDED, 4),
    ],
)
def test_shards_are_contiguous_ranges_one_per_usable_cpu(monkeypatch, cpus, trials, jobs):
    # Each worker past the parent's range takes at least SHARDED trials.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    shards = _shards(trials)
    assert len(shards) == jobs
    assert [k for r in shards for k in r] == list(range(trials))
    assert max(map(len, shards)) - min(map(len, shards)) <= 1


@pytest.mark.parametrize("why", ["no fork", "other threads"])
def test_without_a_safe_fork_a_campaign_is_one_range(monkeypatch, why):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert len(_shards(1000)) == 4
    if why == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert _shards(1000) == [range(1000)]


def _run_python(code, **kwargs):
    """Start ``code`` in a new interpreter that imports this checkout's bohrcheck."""
    src = str(Path(harness_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-c", code], text=True, env=env, **kwargs)


def test_a_serial_campaign_and_replay_do_not_import_multiprocessing(tmp_path):
    # Nor does a sharded one: its workers are plain forks.
    code = (
        "import os, sys\n"
        "from bohrcheck import harness\n"
        f"res = harness.run_campaign(harness.CampaignConfig('thm1', 1, 1), {str(tmp_path / 'a.jsonl')!r})\n"
        "harness.replay(res.records[0].payload)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert len(harness._shards({SHARDED})) == 2\n"
        f"harness.run_campaign(harness.CampaignConfig('bohr', {SHARDED}, 1))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    proc = _run_python(code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out == "False\n"


@needs_two_cpus
@pytest.mark.parametrize(
    "cfg",
    [pytest.param(CampaignConfig(t, SHARDED, 11), id=t) for t in ALL_THEOREMS]
    + [
        pytest.param(CampaignConfig("cor45", SHARDED, 5, rhs_scale=0.4), id="cor45-violations"),
        pytest.param(CampaignConfig("cor45", SHARDED, 1, spectrum=(0.0, 1.5e308)), id="cor45-errors"),
    ],
)
def test_a_sharded_campaign_writes_the_serial_bytes(cfg, tmp_path, monkeypatch):
    assert len(_shards(cfg.trials)) == 2
    sharded, files = _campaign_files(cfg, tmp_path / "sharded")
    _assert_no_children()
    _one_cpu(monkeypatch)
    serial, serial_files = _campaign_files(cfg, tmp_path / "serial")
    assert files == serial_files
    assert [r.to_json_line() for r in sharded.records] == [r.to_json_line() for r in serial.records]
    assert sharded.records == serial.records  # records hold no arrays, so they compare
    for rec in sharded.records:  # the worker's range too: each instance is drawn again alike
        if rec.digest is not None:
            assert serialize.digest(cfg.theorem, rec.args) == rec.digest
    assert sharded.summary == serial.summary
    artifacts = sorted(set(files) - {"c.jsonl"})
    assert sorted(Path(p).name for p in sharded.violation_paths + sharded.error_paths) == artifacts
    if cfg.rhs_scale != 1.0 or cfg.spectrum[1] > 1e300:
        # The worker's range writes artifacts too.
        assert any(int(name[-11:-5]) >= SHARDED // 2 for name in artifacts)


def test_three_workers_write_the_serial_bytes(tmp_path, monkeypatch):
    # Four usable CPUs: the parent's range and three forked workers.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    cfg = CampaignConfig("cor45", 4 * SHARDED, 5, rhs_scale=0.4)
    assert len(_shards(cfg.trials)) == 4
    with _deadline(120):
        sharded, files = _campaign_files(cfg, tmp_path / "sharded")
    _assert_no_children()
    _one_cpu(monkeypatch)
    serial, serial_files = _campaign_files(cfg, tmp_path / "serial")
    assert files == serial_files
    assert len(files) == 1 + 78  # the report and its violation artifacts
    assert sharded.records == serial.records
    assert sharded.summary == serial.summary
    assert [Path(p).name for p in sharded.violation_paths] == sorted(set(files) - {"c.jsonl"})


def _running(pid):
    """Whether process ``pid`` still runs; a zombie has finished."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_worker_leaves_once_its_parent_is_killed():
    # Each worker trial sleeps, so the worker would outlive its parent by
    # 63 trials of a quarter second; it checks for its parent before each.
    code = (
        "import os, time\n"
        "from bohrcheck import harness\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "parent, real = os.getpid(), harness.generate_instance\n"
        "def slow(cfg, trial):\n"
        "    if os.getpid() != parent:\n"
        f"        if trial == {SHARDED}:\n"
        "            print(os.getpid(), flush=True)\n"
        "        time.sleep(0.25)\n"
        "    return real(cfg, trial)\n"
        "harness.generate_instance = slow\n"
        f"harness.run_campaign(harness.CampaignConfig('bohr', {2 * SHARDED}, 1))\n"
    )
    proc, worker = _run_python(code, stdout=subprocess.PIPE), None
    try:
        with _deadline(60):
            worker = int(proc.stdout.readline())
        proc.kill()
        proc.wait()
        gone_by = time.monotonic() + 2.0
        while _running(worker) and time.monotonic() < gone_by:
            time.sleep(0.02)
        assert not _running(worker)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)


@needs_two_cpus
def test_a_worker_never_flushes_the_parents_buffers(tmp_path):
    # A worker that left through interpreter shutdown would flush every
    # buffered file it inherited, so the text would be written twice.
    path = tmp_path / "buffered.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("once\n")  # still in the buffer at the fork
        run_campaign(CampaignConfig("bohr", SHARDED, 1))
    assert path.read_text(encoding="utf-8") == "once\n"
    _assert_no_children()


@needs_two_cpus
def test_the_pipes_of_a_sharded_campaign_bypass_the_modules_open(tmp_path, monkeypatch):
    # A profiler may wrap the module's open to count the report's bytes;
    # only the report goes through it, in the parent and in the worker.
    def report_only(file, *args, **kwargs):
        assert isinstance(file, Path), f"opened {file!r}"
        return open(file, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "open", report_only, raising=False)
    with _deadline(30):
        res = run_campaign(CampaignConfig("bohr", SHARDED, 1), tmp_path / "c.jsonl")
    assert len(res.records) == SHARDED
    _assert_no_children()


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@needs_two_cpus
@pytest.mark.parametrize("where", ["parent", "worker"])
def test_an_aborting_trial_gives_the_serial_prefix_and_exception(where, tmp_path, monkeypatch):
    at = SHARDED // 4 if where == "parent" else SHARDED * 3 // 4
    real = harness_mod.generate_instance

    def boom(cfg, trial):
        if trial == at:
            raise RuntimeError(f"boom at {trial}")
        return real(cfg, trial)

    monkeypatch.setattr(harness_mod, "generate_instance", boom)
    cfg = CampaignConfig("cor45", SHARDED, 5, rhs_scale=0.4)  # violation artifacts on both sides
    runs = []
    for forced_serial in (False, True):
        if forced_serial:
            _one_cpu(monkeypatch)
        folder = tmp_path / str(forced_serial)
        folder.mkdir()
        with _deadline(60), pytest.raises(RuntimeError) as info:
            run_campaign(cfg, folder / "c.jsonl")
        _assert_no_children()
        files = {p.name: p.read_bytes() for p in folder.iterdir()}
        runs.append((type(info.value), str(info.value), files))
    assert runs[0] == runs[1]
    assert runs[0][:2] == (RuntimeError, f"boom at {at}")
    assert runs[0][2]["c.jsonl"].count(b"\n") == at  # no summary line
    assert len(runs[0][2]) > 1


@needs_two_cpus
def test_an_exception_that_cannot_cross_the_pipe_is_named(monkeypatch):
    real = harness_mod.generate_instance

    def boom(cfg, trial):
        if trial == SHARDED - 1:
            raise _Unpicklable(1, 2)
        return real(cfg, trial)

    monkeypatch.setattr(harness_mod, "generate_instance", boom)
    with _deadline(30), pytest.raises(HarnessError) as info:
        run_campaign(CampaignConfig("bohr", SHARDED, 1))
    assert str(info.value) == f"trial {SHARDED - 1} raised _Unpicklable: 1 and 2"
    _assert_no_children()


@needs_two_cpus
def test_a_worker_that_dies_unreported_names_its_range(monkeypatch):
    parent, real = os.getpid(), harness_mod.generate_instance

    def die(cfg, trial):
        if trial == SHARDED - 1 and os.getpid() != parent:
            os._exit(3)
        return real(cfg, trial)

    monkeypatch.setattr(harness_mod, "generate_instance", die)
    message = f"the worker of trials {SHARDED // 2}-{SHARDED - 1} exited with code 3 without reporting"
    with _deadline(30), pytest.raises(HarnessError, match=f"^{message}$"):
        run_campaign(CampaignConfig("bohr", SHARDED, 1))
    _assert_no_children()


@needs_two_cpus
def test_a_worker_whose_message_is_cut_short_names_its_range(monkeypatch):
    def cut_short(obj, file):  # only a worker dumps, and this one dies halfway
        data = pickle.dumps(obj)
        file.write(data[: len(data) // 2])
        file.flush()
        os._exit(5)

    monkeypatch.setattr(pickle, "dump", cut_short)
    message = f"the worker of trials {SHARDED // 2}-{SHARDED - 1} exited with code 5 without reporting"
    with _deadline(30), pytest.raises(HarnessError, match=f"^{message}$"):
        run_campaign(CampaignConfig("bohr", SHARDED, 1))
    _assert_no_children()


@needs_two_cpus
@pytest.mark.parametrize("stop", ["own trial raises", "write fails"])
def test_a_campaign_that_stops_early_terminates_its_worker(stop, tmp_path, monkeypatch):
    # The worker would take half a minute; the campaign must not wait for it.
    parent, real = os.getpid(), harness_mod.generate_instance

    def slow(cfg, trial):
        if os.getpid() != parent:
            time.sleep(1)
        elif trial == 3 and stop == "own trial raises":
            raise KeyError("stop")
        return real(cfg, trial)

    def line(record):
        if record.trial_index == 3:
            raise OSError("disk full")
        return real_line(record)

    real_line = TrialRecord.to_json_line
    monkeypatch.setattr(harness_mod, "generate_instance", slow)
    monkeypatch.setattr(TrialRecord, "to_json_line", line)
    with _deadline(10), pytest.raises(KeyError if stop == "own trial raises" else OSError):
        run_campaign(CampaignConfig("bohr", SHARDED, 1), tmp_path / "c.jsonl")
    _assert_no_children()


def _map_arrays(spec):
    if isinstance(spec, WeightedSum):
        return [a for _, sub in spec.terms for a in _map_arrays(sub)]
    return [v for v in vars(spec).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_a_pickled_record_keeps_its_digest_line_and_read_only_specs(theorem):
    # A record pickles without its instance, which it draws again, with
    # read-only specs, from its config and trial index.
    for rec in run_campaign(CampaignConfig(theorem, 6, seed=9)).records:
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        assert back.digest == rec.digest == serialize.digest(theorem, back.args)
        assert back.to_json_line() == rec.to_json_line()
        args = back.args
        assert json.dumps(serialize.instance_to_json(theorem, **args)) == json.dumps(rec.payload)
        maps = [s for _, s in args.get("weighted_maps", [])]
        maps += [args["spec"]] if "spec" in args else []
        for a in (a for m in maps for a in _map_arrays(m)):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        if "f" in args:
            assert dict(args["f"].flags) == dict(rec.args["f"].flags)
            with pytest.raises(TypeError):
                args["f"].flags["convex_on_J"] = False


@needs_two_cpus
def test_a_spec_that_cannot_be_pickled_still_shards(tmp_path, monkeypatch):
    # A kernel outside the module's namespace makes its spec unpicklable.
    # A worker sends outcomes only, so such a spec never crosses the pipe.
    monkeypatch.setitem(calculus._REGISTRY, "square", (lambda t, r: np.square(t), False, False))
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        pickle.dumps(calculus.make_function_spec("square", (-1.0, 1.0)))
    cfg = CampaignConfig("jensen-map", 2 * SHARDED, 3)
    assert len(_shards(cfg.trials)) == 2
    with _deadline(60):
        sharded, files = _campaign_files(cfg, tmp_path / "sharded")
    _assert_no_children()
    assert any(rec.args["f"].id == "square" for rec in sharded.records[SHARDED:])
    _one_cpu(monkeypatch)
    serial, serial_files = _campaign_files(cfg, tmp_path / "serial")
    assert files == serial_files
    assert sharded.records == serial.records


def test_a_campaign_draws_an_instance_again_only_for_an_artifact(tmp_path, monkeypatch):
    # Lines and the summary read the digest; only an artifact needs a payload.
    calls, real = [], harness_mod.generate_instance

    def counting(cfg, trial):
        calls.append(trial)
        return real(cfg, trial)

    monkeypatch.setattr(harness_mod, "generate_instance", counting)
    cfg = CampaignConfig("cor45", 40, seed=5, rhs_scale=0.4)
    res = run_campaign(cfg, tmp_path / "c.jsonl")
    again = sorted(int(Path(p).name[-11:-5]) for p in res.violation_paths + res.error_paths)
    assert again and len(again) < cfg.trials
    assert calls == sorted([*range(cfg.trials), *again])  # each artifact right after its trial


def _retained_bytes_per_record(cfg):
    """Bytes a campaign result holds once its run is over, per record."""
    run_campaign(cfg)  # imports and one-time caches are not a record's
    gc.collect()
    tracemalloc.start()
    try:
        res = run_campaign(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        count = len(res.records)
        del res
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / count
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("theorem", ["thm1", "jensen-map", "cor45"])
def test_a_record_holds_no_instance(theorem, monkeypatch):
    # A record that kept its matrices held 4.5-7 KB on these theorems;
    # its outcome alone is about 1.0-1.3 KB.
    _one_cpu(monkeypatch)
    assert _retained_bytes_per_record(CampaignConfig(theorem, 300, seed=2)) < 3000


# --- replay ---------------------------------------------------------------------------


def _bohr_payload():
    return {
        "theorem": "bohr",
        "z": {"re": 1.0, "im": 0.5},
        "w": {"re": -0.25, "im": 2.0},
        "p": 3.0,
    }


def test_replay_accepts_dict_and_path(tmp_path):
    payload = _bohr_payload()
    from_dict = replay(payload)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    from_path = replay(path)
    assert from_dict.verdict == from_path.verdict == "held"
    assert from_dict.min_slack == from_path.min_slack
    assert from_dict.input_digest == from_path.input_digest


def test_replay_verifies_stored_report(tmp_path):
    payload = _bohr_payload()
    fresh = run_instance(payload)
    wrapped = {"instance": payload, "report": fresh.to_json()}
    assert replay(wrapped).verdict == fresh.verdict

    tampered = json.loads(json.dumps(wrapped))
    tampered["report"]["verdict"] = "violated"
    with pytest.raises(HarnessError, match="verdict"):
        replay(tampered)

    tampered = json.loads(json.dumps(wrapped))
    tampered["report"]["min_slack"] += 1e-9
    with pytest.raises(HarnessError, match="min_slack"):
        replay(tampered)


def test_replay_forgives_a_few_ulps_of_slack_scale():
    # A stored slack that moved by BLAS roundoff (here 4 ulps of the report's
    # scale, about 1.1e-13 on zh seed 7 trial 0) must still replay; a move
    # of 1e-12 of scale and more is refused.
    record = run_campaign(CampaignConfig("zh", 1, seed=7)).records[0]
    fresh = record.report
    scale = max(map(abs, (1.0, *fresh.partial_sums_lhs, *fresh.partial_sums_rhs)))
    assert scale > 100.0
    wrapped = {"instance": record.payload, "report": fresh.to_json()}
    for step, ok in ((4 * np.spacing(scale), True), (-4 * np.spacing(scale), True),
                     (2e-12 * scale, False)):
        moved = json.loads(json.dumps(wrapped))
        moved["report"]["min_slack"] += step
        if ok:
            assert replay(moved).min_slack == fresh.min_slack
        else:
            with pytest.raises(HarnessError, match="min_slack"):
                replay(moved)


@pytest.mark.parametrize(
    "field, value",
    [("report", ["held"]), ("report", "held"), ("report", 0), ("extras", [1.0]), ("extras", "x")]
    + [(field, [1]) for field in ("tol_used", "min_slack", "rhs_scale")]
    + [("tol_used", True), ("min_slack", float("nan")), ("rhs_scale", "1")]
    + [pytest.param("tol_used", 10**400, id="tol_used-beyond-float")],
)
def test_replay_refuses_a_stored_report_that_is_not_an_object(field, value):
    # Such a report or extras once met a .get call and raised AttributeError,
    # and such a number met float() and raised TypeError.
    payload = _bohr_payload()
    wrapped = {"instance": payload, "report": run_instance(payload).to_json()}
    if field == "report":
        wrapped["report"] = value
    elif field in ("extras", "rhs_scale"):
        wrapped["report"]["extras"] = value if field == "extras" else {"rhs_scale": value}
    else:
        wrapped["report"][field] = value
    if field in ("report", "extras"):
        message = f"stored '{field}' is a {type(value).__name__}, not a JSON object"
    else:
        message = f"stored '{field}' is {value!r}, not a finite JSON number"
    with pytest.raises(HarnessError, match=f"^{re.escape(message)}$"):
        replay(wrapped)


def test_replay_reuses_stored_tolerance(tmp_path):
    payload = _bohr_payload()
    loose = run_instance(payload, tol=1e6)
    wrapped = {"instance": payload, "report": loose.to_json()}
    rep = replay(wrapped)
    assert rep.tol_used == 1e6 and rep.verdict == loose.verdict


def test_replay_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"theorem": "bohr",\n  "z": }\n')
    with pytest.raises(SerializationError, match="line 2"):
        replay(path)
    with pytest.raises(FileNotFoundError):
        replay(tmp_path / "missing.json")


# --- demo ------------------------------------------------------------------------------


def test_demo_rows():
    rows = demo()
    assert len(rows) == 4
    assert [r["verdict"] for r in rows] == ["held"] * 4

    scalar = rows[0]
    assert scalar["lhs"] == pytest.approx(4.0, abs=1e-14)
    assert scalar["rhs"] == pytest.approx(4.0, abs=1e-14)
    assert scalar["slack"] == pytest.approx(0.0, abs=1e-14)

    vasic = rows[1]
    assert vasic["lhs"] == pytest.approx(18.5673, abs=1e-3)
    assert vasic["slack"] == pytest.approx(0.0, abs=1e-10)

    dilation = rows[2]
    assert dilation["lhs"] <= 1e-12  # reconstruction residual
    assert dilation["rhs"] <= 1e-12  # isometry defect

    eigen = rows[3]
    assert tuple(eigen["lhs"]) == pytest.approx((1.0, 2.0), abs=1e-12)
    assert tuple(eigen["rhs"]) == pytest.approx((2.0, 4.0), abs=1e-12)
    assert eigen["slack"] == pytest.approx(1.0, abs=1e-12)


def test_demo_table_layout():
    text = demo_table()
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("case") and lines[0].rstrip().endswith("verdict")
    assert all("held" in line for line in lines[1:])
