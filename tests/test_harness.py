"""Campaign configuration, generators, JSONL stream, replay, and demo."""

import json

import numpy as np
import pytest

from bohrcheck import serialize
from bohrcheck.inequalities import NumericalError
from bohrcheck.harness import (
    CampaignConfig,
    GenerationError,
    HarnessError,
    TrialRecord,
    demo,
    demo_table,
    generate_instance,
    replay,
    run_campaign,
    run_instance,
)
from bohrcheck.linalg import make_rng, stream_key
from bohrcheck.serialize import SerializationError

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
    args = generate_instance(cfg, trial, make_rng(cfg.seed, trial))
    return serialize.instance_to_json(serialize.canonical_theorem(cfg.theorem), **args)


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
    with pytest.raises(ValueError):
        CampaignConfig("bohr", 1, 0, max_attempts=0)


def test_config_accepts_theorem_alias():
    cfg = CampaignConfig("cor4.5", 1, 0)
    assert cfg.theorem == "cor4.5"  # stored as given, canonicalized on use


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
        first = generate_instance(cfg, trial, make_rng(cfg.seed, trial))
        second = generate_instance(cfg, trial, make_rng(cfg.seed, trial))
        assert serialize.digest(theorem, first) == serialize.digest(theorem, second)


def test_generated_payloads_round_trip_canonical_json():
    # Decoding a generated payload's JSON text gives arguments that pack to
    # the same bytes as the generated ones.
    for theorem in ALL_THEOREMS:
        cfg = CampaignConfig(theorem, 0, seed=1)
        args = generate_instance(cfg, 0, make_rng(1, 0))
        text = json.dumps(serialize.instance_to_json(theorem, **args))
        decoded = serialize.instance_from_json(json.loads(text))
        assert serialize.digest(*decoded) == serialize.digest(theorem, args)


def test_jensen_map_variant_forcing():
    for variant in ("subunital", "unital"):
        cfg = CampaignConfig("jensen-map", 0, seed=9, variant=variant)
        for trial in range(6):
            assert generate_instance(cfg, trial, make_rng(9, trial))["variant"] == variant
    # Default alternates, so both profiles appear across trials.
    cfg = CampaignConfig("jensen-map", 0, seed=9)
    seen = {
        generate_instance(cfg, t, make_rng(9, t))["variant"] for t in range(6)
    }
    assert seen == {"subunital", "unital"}


def test_theorem_specific_r_clipping():
    zh_cfg = CampaignConfig("zh", 0, seed=3, r_range=(1.1, 4.0))
    prop_cfg = CampaignConfig("prop-r2", 0, seed=3, r_range=(1.1, 4.0))
    for trial in range(25):
        assert generate_instance(zh_cfg, trial, make_rng(3, trial))["r"] <= 2.0
        assert generate_instance(prop_cfg, trial, make_rng(3, trial))["r"] >= 2.0


# --- run_instance dispatch ----------------------------------------------------------


def test_run_instance_requires_theorem_field():
    with pytest.raises(SerializationError):
        run_instance({"z": 1.0})
    with pytest.raises(SerializationError):
        run_instance([1, 2, 3])


def test_run_instance_reports_missing_field():
    with pytest.raises(SerializationError, match="missing field"):
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
    ok = TrialRecord(4, "00ab", "0123456789abcdef", "bohr", {}, rep)
    obj = json.loads(ok.to_json_line())
    assert obj["trial"] == 4 and obj["digest"] == "0123456789abcdef"
    assert "elapsed" not in obj["report"]

    bad = TrialRecord(5, "00ac", None, "bohr", None, None, "rejection cap hit")
    assert bad.payload is None
    obj = json.loads(bad.to_json_line())
    assert obj["generation_failed"] is True and obj["error"] == "rejection cap hit"

    err = TrialRecord(6, "00ad", "00000000000000ff", "bohr", {}, None, "NumericalError: x")
    obj = json.loads(err.to_json_line())
    assert obj == {"trial": 6, "stream": "00ad", "digest": "00000000000000ff", "error": "NumericalError: x"}


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
    # demand, so the check must not alter them (rhs_scale included).
    cfg = CampaignConfig(theorem, 4, seed=13, rhs_scale=0.5)
    res = run_campaign(cfg)
    for rec in res.records:
        fresh = generate_instance(cfg, rec.trial_index, make_rng(cfg.seed, rec.trial_index))
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

    def flaky(cfg, trial, rng):
        if trial % 2 == 1:
            raise GenerationError("forced failure")
        return real(cfg, trial, rng)

    monkeypatch.setattr(harness_mod, "generate_instance", flaky)
    out = tmp_path / "flaky.jsonl"
    res = harness_mod.run_campaign(CampaignConfig("bohr", 6, 8), out)
    assert res.summary["generation_failures"] == 3
    assert res.summary["held"] == 3
    failed = [json.loads(l) for l in out.read_text().splitlines()[:-1] if "generation_failed" in l]
    assert len(failed) == 3
    assert all(f["error"] == "forced failure" for f in failed)


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
    # |A_i|^r overflows at r in [800, 900]; the eigensolver then fails to
    # converge on the non-finite sum, or a side comes out infinite.
    out = tmp_path / "extreme.jsonl"
    res = run_campaign(CampaignConfig(theorem, 40, 3, r_range=(800.0, 900.0)), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert json.loads(lines[-1])["summary"] == res.summary
    assert res.summary["violations"] == 0
    kinds = {r.error.split(":")[0] for r in res.records if r.error}
    assert kinds == {"LinAlgError", "NumericalError"}
    assert res.summary["errors"] == sum(r.error is not None for r in res.records)


def test_functional_calculus_eigensolver_failure_is_a_trial_error(tmp_path, monkeypatch):
    # jensen-vec reaches np.linalg.eigh only through apply_fun's
    # eig_hermitian, whose LinAlgError must end the trial, not the campaign.
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
