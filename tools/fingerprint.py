"""Print sha256 fingerprints of bohrcheck's deterministic output.

Run from anywhere; it imports ``bohrcheck`` from this checkout's ``src/``:

    python3 tools/fingerprint.py [--trials 100] [--mask-digests]

One line per output, each ending in a sha256:

- the JSONL report of every theorem at seeds 7 and 42 (default config,
  ``--trials`` trials each);
- the JSONL report of ``CampaignConfig("cor45", 40, seed=5, rhs_scale=0.4)``
  together with every artifact it writes next to it (file names included);
- ``demo_table()``.

Two checkouts that print the same lines produce the same bytes, digests
included. Compare a change against its parent with ``diff``.

``--mask-digests`` blanks the string values of ``digest``, ``input_digest``
and ``digest_alg`` (compact and indented JSON) before hashing, so a change
of digest algorithm can show every other byte identical.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bohrcheck import harness, serialize  # noqa: E402

SEEDS = (7, 42)

_DIGEST_VALUE = re.compile(rb'("(?:digest|input_digest|digest_alg)": ?)"[^"]*"')


def fingerprint_lines(trials: int, workdir: Path, mask_digests: bool = False) -> list[str]:
    def read(path: Path) -> bytes:
        data = path.read_bytes()
        return _DIGEST_VALUE.sub(rb'\1""', data) if mask_digests else data

    lines = []
    for seed in SEEDS:
        for theorem in serialize.THEOREMS:
            path = workdir / f"{theorem}-{seed}.jsonl"
            harness.run_campaign(harness.CampaignConfig(theorem, trials, seed), path)
            lines.append(f"{theorem} seed={seed} trials={trials} {_sha256(read(path))}")

    path = workdir / "cor45-mutated.jsonl"
    harness.run_campaign(harness.CampaignConfig("cor45", 40, seed=5, rhs_scale=0.4), path)
    h = hashlib.sha256(read(path))
    artifacts = sorted(workdir.glob("cor45-mutated.*.json"))
    for artifact in artifacts:
        h.update(artifact.name.encode("utf-8"))
        h.update(read(artifact))
    lines.append(f"cor45 seed=5 trials=40 rhs_scale=0.4 artifacts={len(artifacts)} {h.hexdigest()}")

    lines.append(f"demo_table {_sha256(harness.demo_table().encode('utf-8'))}")
    return lines


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100, help="trials per campaign (default 100)")
    parser.add_argument(
        "--mask-digests",
        action="store_true",
        help="blank digest, input_digest and digest_alg values before hashing",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for line in fingerprint_lines(args.trials, Path(tmp), args.mask_digests):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
