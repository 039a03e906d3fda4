"""Smoke test of tools/fingerprint.py, the byte-identity check."""

import re
import subprocess
import sys
from pathlib import Path

from bohrcheck.serialize import THEOREMS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def _run(*flags):
    return subprocess.run(
        [sys.executable, str(TOOL), "--trials", "3", *flags],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout.splitlines()


def test_fingerprint_prints_one_sha256_per_output():
    lines = _run()
    expected = [f"{t} seed={seed} trials=3" for seed in (7, 42) for t in THEOREMS]
    expected += ["cor45 seed=5 trials=40 rhs_scale=0.4 artifacts=14", "demo_table"]
    assert [line.rsplit(" ", 1)[0] for line in lines] == expected
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    # Seeds 7 and 42 draw different instances, so their reports differ.
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == len(lines)


def test_mask_digests_changes_only_outputs_that_carry_digests():
    plain, masked = _run(), _run("--mask-digests")
    assert [line.rsplit(" ", 1)[0] for line in masked] == [line.rsplit(" ", 1)[0] for line in plain]
    # Every report carries digests; the demo table carries none.
    assert [a == b for a, b in zip(plain, masked)] == [False] * (len(plain) - 1) + [True]
