"""CLI subcommands, exit codes, and environment tolerance handling."""

import json
import subprocess
import sys

import numpy as np
import pytest

import bohrcheck.cli as cli
from bohrcheck.cli import main
from bohrcheck.harness import (
    CampaignConfig,
    CampaignResult,
    generate_instance,
    run_campaign,
    run_instance,
)
from bohrcheck.serialize import SerializationError, instance_to_json


def write_bohr_instance(path):
    payload = {
        "theorem": "bohr",
        "z": {"re": 1.0, "im": 0.5},
        "w": {"re": -0.25, "im": 2.0},
        "p": 3.0,
    }
    path.write_text(json.dumps(payload))
    return payload


def cor45_diag_payload():
    a1 = np.diag([1.0, 0.0]).astype(complex)
    a2 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return instance_to_json("cor45", a_list=[a1, a2], x_list=[eye, eye], p=[0.5, 0.5], r=2.0)


# --- check -----------------------------------------------------------------


def test_check_held_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_bohr_instance(path)
    assert main(["check", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "theorem:  bohr" in out
    assert "verdict:  held" in out
    assert "digest:" in out
    assert "min slack" in out and "at tolerance" in out


def test_check_inapplicable_instance_names_its_failed_hypotheses(tmp_path, capsys):
    path = tmp_path / "na.json"
    path.write_text(json.dumps(dict(write_bohr_instance(path), p=0.5)))
    assert main(["check", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict:  not_applicable" in out
    assert "failed hypotheses: p > 1" in out
    assert "min slack" not in out


def test_check_violated_instance_exits_two(tmp_path, capsys):
    payload = cor45_diag_payload()
    mutated = run_instance(payload, rhs_scale=0.25)
    assert mutated.violated
    path = tmp_path / "violation.json"
    path.write_text(json.dumps({"instance": payload, "report": mutated.to_json()}))
    assert main(["check", "--in", str(path)]) == 2
    assert "verdict:  violated" in capsys.readouterr().out


def test_check_explicit_tol_beats_stored_and_fails_verification(tmp_path, capsys):
    # Overriding the tolerance makes the fresh verdict diverge from the
    # stored one; the mismatch must surface as an error exit.
    payload = cor45_diag_payload()
    mutated = run_instance(payload, rhs_scale=0.25)
    path = tmp_path / "violation.json"
    path.write_text(json.dumps({"instance": payload, "report": mutated.to_json()}))
    assert main(["check", "--in", str(path), "--tol", "1e6"]) == 1
    assert "does not match stored" in capsys.readouterr().err


def test_check_missing_and_malformed_files(tmp_path, capsys):
    assert main(["check", "--in", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bohrcheck: error:" in err
    assert f"bohrcheck: error: {bad}: invalid JSON at line 1, column 2: " in err


@pytest.mark.parametrize("field", ["report", "extras", "tol_used", "min_slack", "rhs_scale"])
def test_check_malformed_stored_report_exits_one_naming_it(tmp_path, capsys, field):
    payload = cor45_diag_payload()
    report = run_instance(payload).to_json()
    body = {"instance": payload, "report": [report]}
    message = f"stored '{field}' is a list, not a JSON object"
    if field == "extras":
        body["report"] = dict(report, extras=[1.0])
    elif field == "rhs_scale":
        body["report"] = dict(report, extras={"rhs_scale": [1]})
    elif field != "report":
        body["report"] = dict(report, **{field: [1]})
    if field not in ("report", "extras"):
        message = f"stored '{field}' is [1], not a finite JSON number"
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(body))
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"bohrcheck: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env",
    [(["--tol", "nan"], None), (["--tol=-1.5"], None), ([], "nan")],
    ids=["tol-nan", "tol-negative", "env-nan"],
)
def test_check_refuses_a_tolerance_not_finite_and_nonnegative(
    tmp_path, capsys, monkeypatch, argv, env
):
    # lhs 1, rhs 2: a NaN or negative tolerance once graded this `violated`.
    path = tmp_path / "b.json"
    zero = {"re": 0.0, "im": 0.0}
    payload = {"theorem": "bohr", "p": 2.0, "z": dict(zero, re=1.0), "w": zero}
    path.write_text(json.dumps(payload))
    if env is not None:
        monkeypatch.setenv("BOHR_TOL", env)
    assert main(["check", "--in", str(path), *argv]) == 1
    captured = capsys.readouterr()
    assert "bohrcheck: error: tol must be None or finite >= 0, got " in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("command", ["check", "fuzz", "dilate"])
def test_a_directory_where_a_file_belongs_exits_one(tmp_path, capsys, command):
    # IsADirectoryError is an OSError but not a FileNotFoundError.
    argv = {
        "check": ["check", "--in", str(tmp_path)],
        "fuzz": ["fuzz", "--theorem", "bohr", "--trials", "1", "--seed", "0", "--out", str(tmp_path)],
        "dilate": ["dilate", "--map", str(tmp_path), "--out", str(tmp_path / "o.json")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bohrcheck: error: ") and "Is a directory" in err


@pytest.mark.parametrize("key, value", [("p", [float("inf")]), ("r", float("inf"))])
def test_check_nonfinite_float_field_exits_one_naming_it(tmp_path, capsys, key, value):
    # JSON's Infinity decodes to a float, which decoding must refuse.
    cfg = CampaignConfig("zh", 1, 3)
    payload = instance_to_json("zh", **generate_instance(cfg, 0))
    payload[key] = value
    path = tmp_path / "zh.json"
    path.write_text(json.dumps(payload))
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    named = f"{key}[0]" if isinstance(value, list) else key
    assert f"bohrcheck: error: field '{named}': expected a finite number, got inf" in err


BOHR = {"theorem": "bohr", "p": 2.0, "z": {"re": 1.0, "im": 0.0}, "w": {"re": 1.0, "im": 0.0}}
JENSEN_VEC = {
    "theorem": "jensen-vec",
    "f": {"id": "abs_pow", "J": [-3.0, 3.0], "r": 2.0},
    "A": {"n": 1, "re": [[0.5]], "im": [[0.0]]},
    "x": {"re": [0.5], "im": [0.0]},
}


@pytest.mark.parametrize(
    "base, named, value",
    [
        (BOHR, "p", "2"),
        (BOHR, "p", 10**400),
        (BOHR, "z.re", {"re": True, "im": "0"}),
        (BOHR, "w.re", {"re": "1e0", "im": False}),
        (JENSEN_VEC, "f.r", {"id": "abs_pow", "J": [-3.0, 3.0], "r": "2"}),
        (JENSEN_VEC, "f.J[0]", {"id": "abs_pow", "J": ["-3", True], "r": 2.0}),
        (JENSEN_VEC, "A.n", {"n": True, "re": [[0.5]], "im": [[0.0]]}),
        (JENSEN_VEC, "A", {"n": 1, "re": [["0.5"]], "im": [[False]]}),
    ],
)
def test_check_a_number_that_is_not_a_json_number_exits_one(tmp_path, capsys, base, named, value):
    # float(), np.asarray(dtype=float) and == read each of these as a number,
    # so the payload replayed as held. The refusal names the first one's path.
    assert run_instance(base).holds
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(base, **{named.split(".")[0]: value})))
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bohrcheck: error: field '{named}': ") and "Traceback" not in err


#: A thm1 payload whose one map is a "POVM" with effects diag(1e308, -1e308)
#: and diag(-1e308, 1e308): not positive, so Theorem 1 does not apply.
OVERFLOWING_POVM = {
    "theorem": "thm1",
    "f": {"id": "relu", "J": [-1e300, 1e300]},
    "A": {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0 + 2.0**-52]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    "maps": [{"alpha": 1.0, "map": {"kind": "povm", "P": [
        {"n": 2, "re": [[s * 1e308, 0.0], [0.0, -s * 1e308]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        for s in (1.0, -1.0)
    ]}}],
}


@pytest.mark.filterwarnings("error")
def test_check_a_povm_that_overflows_exits_one(tmp_path, capsys):
    # It used to decode, warn from hermitize and report a violated Theorem 1.
    with pytest.raises(SerializationError, match="effect 0 has eigenvalues that overflow"):
        run_instance(OVERFLOWING_POVM)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(OVERFLOWING_POVM))
    assert main(["check", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("bohrcheck: error: field 'maps[0].map': cannot build 'povm' map: effect 0 ")
    assert "violated" not in out + err


@pytest.mark.filterwarnings("error")
def test_check_a_domain_at_the_top_of_the_float_range(tmp_path, capsys):
    # The flag scan's products overflow on this domain; they lie outside it.
    payload = dict(JENSEN_VEC, f={"id": "linear", "J": [-3.0, 1e300]})
    assert run_instance(payload).verdict == "held"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(payload))
    assert main(["check", "--in", str(path)]) == 0
    assert "verdict:  held" in capsys.readouterr().out


def test_check_bohr_overflow_exits_one(tmp_path, capsys):
    path = tmp_path / "big.json"
    big = {"re": 1e200, "im": 0.0}
    path.write_text(json.dumps({"theorem": "bohr", "p": 2.0, "z": big, "w": big}))
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bohrcheck: error: bohr: non-finite comparison") and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_check_eigensolver_failure_exits_one(tmp_path, capsys):
    # |A_i|^r overflows at r in [800, 900], and the non-finite sum is
    # refused before an eigensolver sees it: an input error, not a verdict.
    cfg = CampaignConfig("cor45", 1, 3, r_range=(800.0, 900.0))
    payload = instance_to_json("cor45", **generate_instance(cfg, 0))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload))
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "bohrcheck: error: cor45: the sum of the matrices is not finite\n"


def test_check_error_artifact_exits_one(tmp_path, capsys):
    # A campaign persists each error trial's payload; checking that file
    # reproduces the error.
    out = tmp_path / "extreme.jsonl"
    argv = ["fuzz", "--theorem", "vasic", "--trials", "4", "--seed", "3",
            "--r-min", "800", "--r-max", "900", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    saved = sorted(tmp_path.glob("extreme.error-*.json"))
    assert saved
    for path in saved:
        assert f"error instance saved: {path}" in err
    assert main(["check", "--in", str(saved[0])]) == 1
    assert "bohrcheck: error: vasic: non-finite comparison" in capsys.readouterr().err


def test_check_env_tolerance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    write_bohr_instance(path)
    monkeypatch.setenv("BOHR_TOL", "0.125")
    assert main(["check", "--in", str(path)]) == 0
    assert "at tolerance 0.125" in capsys.readouterr().out

    monkeypatch.setenv("BOHR_TOL", "abc")
    assert main(["check", "--in", str(path)]) == 1
    assert "BOHR_TOL" in capsys.readouterr().err

    # Explicit --tol wins over the environment.
    monkeypatch.setenv("BOHR_TOL", "abc")
    assert main(["check", "--in", str(path), "--tol", "0.5"]) == 0
    assert "at tolerance 0.5" in capsys.readouterr().out


# --- fuzz ------------------------------------------------------------------


def test_fuzz_clean_campaign(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(
        ["fuzz", "--theorem", "cor45", "--trials", "12", "--seed", "3",
         "--n-max", "5", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["theorem"] == "cor45"
    assert summary["total"] == 12 and summary["held"] == 12
    assert len(out.read_text().splitlines()) == 13


def test_fuzz_accepts_theorem_alias(tmp_path, capsys):
    out = tmp_path / "alias.jsonl"
    code = main(
        ["fuzz", "--theorem", "cor4.5", "--trials", "3", "--seed", "3",
         "--n-max", "4", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "cor45"


@pytest.mark.parametrize("theorem", ["jensen-map", "cor45"])
def test_fuzz_defaults_are_the_config_defaults(tmp_path, capsys, theorem):
    # fuzz restates n, m, ell and r defaults; jensen-map draws n, m and r,
    # cor45 n, ell and r, so either would show a default that drifted.
    out, ref = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
    argv = ["fuzz", "--theorem", theorem, "--trials", "20", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    run_campaign(CampaignConfig(theorem, 20, 3), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_fuzz_violations_exit_two_and_persist(tmp_path, capsys):
    out = tmp_path / "mutated.jsonl"
    code = main(
        ["fuzz", "--theorem", "cor45", "--trials", "40", "--seed", "5",
         "--rhs-scale", "0.4", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["violations"] == 14
    assert "violation instance saved" in captured.err
    assert len(list(tmp_path.glob("mutated.violation-*.json"))) == 14


def test_fuzz_exit_code_precedence(monkeypatch, tmp_path):
    def fake_run_campaign(cfg, out_path):
        summary = {
            "theorem": "bohr", "total": 3, "held": 0, "not_applicable": 0,
            "violations": fake_run_campaign.violations,
            "generation_failures": fake_run_campaign.failures,
            "errors": fake_run_campaign.errors,
            "min_slack_overall": None,
            "digest_alg": "blake2b-64-pack",
        }
        return CampaignResult(cfg, [], summary, [])

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    args = ["fuzz", "--theorem", "bohr", "--trials", "3", "--seed", "1",
            "--out", str(tmp_path / "x.jsonl")]

    def outcome(violations, failures, errors):
        fake_run_campaign.violations = violations
        fake_run_campaign.failures = failures
        fake_run_campaign.errors = errors
        return main(args)

    assert outcome(1, 2, 1) == 2  # violations outrank failures and errors
    assert outcome(0, 2, 0) == 3
    assert outcome(0, 0, 1) == 3  # numerical errors share the failure code
    assert outcome(0, 0, 0) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_trials_print_no_runtime_warnings(tmp_path, capsys):
    # |A_i|^r overflows at r in [800, 900]; the error lines already say so,
    # so numpy must not warn as well (here any RuntimeWarning is an error).
    argv = ["fuzz", "--theorem", "prop-r2", "--trials", "5", "--seed", "3",
            "--r-min", "800", "--r-max", "900", "--out", str(tmp_path / "p.jsonl")]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["errors"] == 4


def test_fuzz_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--theorem", "made-up", "--trials", "1", "--seed", "1",
              "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 1

    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--theorem", "bohr", "--trials", "1", "--seed", "1"])
    assert exc.value.code == 1
    capsys.readouterr()

    # Bad numeric ranges surface via the config validator, not argparse.
    code = main(["fuzz", "--theorem", "bohr", "--trials", "1", "--seed", "1",
                 "--r-min", "0.5", "--out", str(tmp_path / "x.jsonl")])
    assert code == 1
    assert "r_range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--rhs-scale", "0", "rhs_scale"),
        ("--rhs-scale", "0.5", "rhs_scale"),  # zh takes no rhs_scale; it was once ignored
        ("--tol", "-1", "tol_override"),
        ("--r-max", "inf", "r_range"),
    ],
)
def test_fuzz_bad_setting_exits_one_before_writing_a_report(tmp_path, capsys, flag, value, field):
    # These once left a 0-byte report, or ran and recorded a verdict.
    out = tmp_path / "never.jsonl"
    argv = ["fuzz", "--theorem", "zh", "--trials", "3", "--seed", "1", flag, value, "--out", str(out)]
    assert main(argv) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


# --- dilate ----------------------------------------------------------------


def test_dilate_unital_map(tmp_path, capsys):
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = {
        "kind": "congruence",
        "X": {"n": 2, "re": u.tolist(), "im": np.zeros_like(u).tolist()},
    }
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(spec))
    outfile = tmp_path / "dilation.json"
    assert main(["dilate", "--map", str(mapfile), "--out", str(outfile)]) == 0
    assert "reconstruction residual" in capsys.readouterr().out

    saved = json.loads(outfile.read_text())
    assert set(saved) == {"V", "kraus", "pi_block_count", "recon_residual"}
    assert saved["pi_block_count"] == len(saved["kraus"]) == 1
    assert saved["recon_residual"] <= 1e-10
    v = np.array(saved["V"]["re"]) + 1j * np.array(saved["V"]["im"])
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10  # unital => isometry


def test_dilate_rejects_transpose_wire_and_bad_json(tmp_path, capsys):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"kind": "transpose", "n": 2}))
    assert main(["dilate", "--map", str(mapfile), "--out", str(tmp_path / "o.json")]) == 1
    mapfile.write_text("[1, 2,")
    assert main(["dilate", "--map", str(mapfile), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert "bohrcheck: error:" in err
    assert f"bohrcheck: error: {mapfile}: invalid JSON at line 1, column 7: " in err


#: Map files whose Choi matrix overflows: an entry, or its Hermitian part.
OVERFLOWING_MAPS = {
    "congruence 1e308": {"kind": "congruence", "X": {"n": 2, "re": [[1e308, 1e308]] * 2, "im": [[0, 0]] * 2}},
    "congruence 1e200": {"kind": "congruence", "X": {"n": 2, "re": [[1e200, 0], [0, 1e200]], "im": [[0, 0]] * 2}},
    "sum alpha 1e308": {
        "kind": "sum",
        "terms": [
            {"alpha": 1e308, "map": {"kind": "congruence", "X": {"n": 1, "re": [[1.0]], "im": [[0.0]]}}},
            {"alpha": 1.0, "map": {"kind": "congruence", "X": {"n": 1, "re": [[1.0]], "im": [[0.0]]}}},
        ],
    },
}


@pytest.mark.parametrize("name", OVERFLOWING_MAPS)
def test_dilate_refuses_a_map_whose_choi_matrix_overflows(name, tmp_path):
    # In a process of its own, so that any numpy warning reaches stderr.
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(OVERFLOWING_MAPS[name]))
    proc = subprocess.run(
        [sys.executable, "-m", "bohrcheck.cli", "dilate", "--map", str(mapfile), "--out", str(tmp_path / "o.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "bohrcheck: error: Choi matrix overflows; complete positivity cannot be decided\n"
    assert not (tmp_path / "o.json").exists()


# --- demo and packaging ------------------------------------------------------


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("case")
    assert len(lines) == 5


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bohrcheck.cli", "demo"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("case")
