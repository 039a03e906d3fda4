"""Print sha256 fingerprints of bohrcheck's deterministic output.

Run from anywhere; it imports ``bohrcheck`` from this checkout's ``src/``:

    python3 tools/fingerprint.py [--trials 100] [--mask-digests]

One line per output, each ending in a sha256:

- the JSONL report of every theorem at seeds 7 and 42 (default config,
  ``--trials`` trials each);
- the JSONL report of ``CampaignConfig("cor45", 40, seed=5, rhs_scale=0.4)``
  together with every artifact it writes next to it (file names included);
- ``demo_table()``;
- the outputs of ``is_completely_positive``, ``is_unital``,
  ``kraus_operators`` and ``stinespring`` (Kraus and isometry bytes,
  ``repr(recon_residual)``, error texts) on a fixed seeded set of map specs:
  every wire kind, unital normalizations, and sums with a ``Transpose`` term.

Two checkouts that print the same lines produce the same bytes, digests
included. Compare a change against its parent with ``diff``.

The numpy version and the BLAS name and version go to stderr, so stdout
diffs stay clean. Stacked kernels are bitwise equal to their loops on the
BLAS they were checked on; when two machines print different lines,
compare those first: a BLAS difference can explain the mismatch.

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

import numpy as np  # noqa: E402

from bohrcheck import cpmaps, harness, serialize  # noqa: E402
from bohrcheck.linalg import complex_gaussian, make_rng  # noqa: E402

SEEDS = (7, 42)

#: Size of the seeded map-spec set of the CP line.
CP_SPECS = 300

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
    lines.append(f"cp specs={CP_SPECS} {cp_digest(CP_SPECS)}")
    return lines


def cp_specs(count: int) -> list:
    """``count`` seeded map specs: every wire kind, unital normalizations of
    them, and sums with a small ``Transpose`` term (CP or not by weight)."""
    rng = make_rng(0xC0FFEE)

    def leaf(n, m):
        kind = int(rng.integers(3))
        if kind == 0:
            return cpmaps.Congruence(complex_gaussian((n, m), rng) / np.sqrt(n))
        if kind == 1:
            g = complex_gaussian((n, m, m), rng)
            return cpmaps.DiagonalPOVM(g @ g.conj().swapaxes(-1, -2) / (n * m))
        b = int(rng.choice([b for b in range(1, n + 1) if n % b == 0]))
        return cpmaps.BlockExtraction(
            int(rng.integers(b)), b, complex_gaussian((n // b, m), rng) / np.sqrt(n // b)
        )

    specs = []
    while len(specs) < count:
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kind = len(specs) % 4
        if kind == 0:
            specs.append(leaf(n, m))
        elif kind == 1:
            specs.append(cpmaps.WeightedSum(((float(rng.uniform(0.2, 1.0)), leaf(n, m)),
                                             (float(rng.uniform(0.2, 1.0)), leaf(n, m)))))
        elif kind == 2:
            try:
                specs.append(cpmaps.normalize_unital(leaf(n, n)))
            except cpmaps.SpecError:  # Phi(I) is singular; draw again
                pass
        else:
            specs.append(cpmaps.WeightedSum(((float(rng.uniform(0.2, 1.0)), leaf(n, n)),
                                             (float(rng.uniform(0.001, 0.05)), cpmaps.Transpose(n)))))
    return specs


def cp_digest(count: int) -> str:
    """sha256 of every CP-path output, error texts included, on ``cp_specs(count)``."""
    h = hashlib.sha256()
    for spec in cp_specs(count):
        for fn in (cpmaps.is_completely_positive, cpmaps.is_unital,
                   cpmaps.kraus_operators, cpmaps.stinespring):
            try:
                out = fn(spec)
            except cpmaps.SpecError as exc:
                out = f"{fn.__name__}: {exc}"
            if isinstance(out, cpmaps.StinespringDilation):
                out = [out.isometry, *out.kraus, out.block_count, repr(out.recon_residual)]
            for part in out if isinstance(out, list) else [out]:
                h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def environment() -> str:
    """numpy version and BLAS name and version, from ``numpy.show_config``."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


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
    print(environment(), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for line in fingerprint_lines(args.trials, Path(tmp), args.mask_digests):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
