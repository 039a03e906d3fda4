"""Smoke test of tools/fingerprint.py, the byte-identity check."""

import re
import subprocess
import sys
from pathlib import Path

from bohrcheck.serialize import THEOREMS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_prints_one_sha256_per_output():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--trials", "3"],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    lines = out.splitlines()
    expected = [f"{t} seed={seed} trials=3" for seed in (7, 42) for t in THEOREMS]
    expected += ["cor45 seed=5 trials=40 rhs_scale=0.4 artifacts=14", "demo_table"]
    assert [line.rsplit(" ", 1)[0] for line in lines] == expected
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    # Seeds 7 and 42 draw different instances, so their reports differ.
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == len(lines)
