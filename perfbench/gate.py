"""Correctness gate: fixed-seed outcomes compared with a committed reference.

Each workload runs a small fixed batch (campaign seed ``GATE_SEED``) and
compares every trial's verdict exactly and its ``min_slack`` within
``MIN_SLACK_RTOL * max(1, |reference|)`` with ``reference.json``. Digests
are not compared, so a change of digest algorithm passes the gate.

Re-record the reference only when verdicts or slacks are meant to change::

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

GATE_SEED = 7
GATE_TRIALS = {"maps": 100, "spectral": 100, "replay": 10}
MIN_SLACK_RTOL = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


def gate_batch(workload):
    """The workload's fixed gate inputs."""
    return workload.prepare(GATE_SEED, GATE_TRIALS[workload.name])


def compare(name: str, result) -> list[str]:
    """Problems of a gate pass: its own, plus every mismatch with the reference."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]
    problems = list(result.problems)
    if result.failed:
        problems.append(f"gate: {result.failed} of {result.attempted} trials failed")
    expected = ref["outcomes"]
    if len(expected) != len(result.outcomes):
        return problems + [f"gate: {len(result.outcomes)} outcomes, reference has {len(expected)}"]
    for i, ((theorem, verdict, slack), (r_theorem, r_verdict, r_slack)) in enumerate(
        zip(result.outcomes, expected)
    ):
        where = f"gate {name} #{i} ({theorem})"
        if theorem != r_theorem or verdict != r_verdict:
            problems.append(f"{where}: {theorem} {verdict}, reference {r_theorem} {r_verdict}")
        elif (slack is None) != (r_slack is None) or (
            slack is not None
            and not math.isclose(slack, r_slack, rel_tol=0.0, abs_tol=MIN_SLACK_RTOL * max(1.0, abs(r_slack)))
        ):
            problems.append(f"{where}: min_slack {slack!r}, reference {r_slack!r}")
    return problems


def record(root: Path, revision: str | None) -> None:
    import workloads

    entries = []
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=root / "perfbench" / "out") as tmp:
            workload = workloads.make(name, Path(tmp))
            result = workload.run(gate_batch(workload))
        if result.problems or result.failed:
            raise SystemExit(f"{name}: gate batch is not clean: {result.problems[:3]}")
        rows = ",\n   ".join(json.dumps(list(o)) for o in result.outcomes)
        entries.append(f' "{name}": {{"trials_per_theorem": {GATE_TRIALS[name]}, "outcomes": [\n   {rows}\n  ]}}')
    # One outcome per line, so a re-recording diffs trial by trial.
    REFERENCE.write_text(
        f'{{"recorded_at": {json.dumps(revision)}, "seed": {GATE_SEED}, "workloads": {{\n'
        + ",\n".join(entries)
        + "\n}}\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    import run

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/gate.py --record")
    root = run.prepare_environment()
    record(root, run.git_revision(root))
