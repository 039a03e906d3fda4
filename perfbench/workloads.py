"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A pass is a closed loop with one caller: each trial starts when the previous
one has finished. Inputs are made untimed by ``prepare`` from a campaign
seed; ``run`` times only the calls into bohrcheck and checks their output
afterwards.

- ``maps``: equal-count campaigns of jensen-map (alternating subunital and
  unital trials) and thm1 at the default ``CampaignConfig`` sizes, written to
  JSONL. The only families that combine function specs, positive maps and
  the largest payloads, so calculus, cpmaps and serialize do most work here.
- ``spectral``: equal-count campaigns of cor45, zh, prop-r2 and sumsq at
  default sizes, written to JSONL. Many small Gram-eigh and ``abs_power``
  calls; calculus spec builds and cpmaps sit idle, so spec and map
  optimisations are bypassed here.
- ``replay``: ``{"instance", "report"}`` artifacts of all eleven theorems,
  replayed from files through ``harness.replay``: file read, decode (which
  rebuilds function specs), check and stored-report verification, with no
  generation and no JSONL writes. The read path beside the campaigns' write
  path.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from bohrcheck import harness, serialize


@dataclass
class PassResult:
    """Outcome of one timed pass over a batch of inputs."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    # (theorem, verdict, min_slack) per trial, in input order.
    outcomes: list = field(default_factory=list)
    # Correctness problems found in the output; empty when the pass is correct.
    problems: list = field(default_factory=list)
    # Hash of every byte the pass wrote (JSONL reports); None for replay.
    output_sha256: str | None = None

    @property
    def trials_per_s(self) -> float:
        return self.attempted / self.seconds


def pass_seed(seed: int, k: int) -> int:
    """Campaign seed of pass k of a run with benchmark seed ``seed``."""
    h = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") >> 2


class CampaignWorkload:
    """Equal-count seeded campaigns, one per theorem, written to JSONL."""

    def __init__(self, name: str, theorems: tuple[str, ...], workdir: Path):
        self.name = name
        self.theorems = theorems
        self.workdir = workdir

    def prepare(self, seed: int, per_theorem: int) -> list:
        return [
            harness.CampaignConfig(theorem=t, trials=per_theorem, seed=seed)
            for t in self.theorems
        ]

    def probe_args(self, batch) -> list[str]:
        cfg = batch[0]
        return ["campaign", cfg.theorem, str(cfg.seed), str(self.workdir / "probe.jsonl")]

    def run(self, batch) -> PassResult:
        out = PassResult()
        digest = hashlib.sha256()
        for cfg in batch:
            path = self.workdir / f"{cfg.theorem}.jsonl"
            out.attempted += cfg.trials
            t0 = time.perf_counter()
            try:
                result = harness.run_campaign(cfg, path)
            except Exception as exc:  # an aborted campaign fails its remaining trials
                out.seconds += time.perf_counter() - t0
                done = _checked_lines(path)
                out.failed += cfg.trials - done
                out.problems.append(f"{cfg.theorem} seed {cfg.seed} aborted after {done} checked trials: {exc!r}")
                continue
            out.seconds += time.perf_counter() - t0
            data = path.read_bytes()
            digest.update(data)
            for rec in result.records:
                if rec.report is None:
                    out.failed += 1
                    out.problems.append(f"{cfg.theorem} seed {cfg.seed} trial {rec.trial_index}: {rec.error}")
                    out.outcomes.append((cfg.theorem, "generation_failed", None))
                else:
                    out.outcomes.append((cfg.theorem, rec.report.verdict, rec.report.min_slack))
            out.problems += _check_report_file(cfg, data)
        out.output_sha256 = digest.hexdigest()
        return out


def _checked_lines(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if '"report":' in line)


def _check_report_file(cfg, data: bytes) -> list[str]:
    """One line per trial plus a clean summary line."""
    lines = data.decode("utf-8").splitlines()
    where = f"{cfg.theorem} seed {cfg.seed}"
    if len(lines) != cfg.trials + 1:
        return [f"{where}: {len(lines)} JSONL lines, expected {cfg.trials + 1}"]
    summary = json.loads(lines[-1]).get("summary", {})
    problems = []
    if summary.get("total") != cfg.trials:
        problems.append(f"{where}: summary total {summary.get('total')!r}")
    for key in ("violations", "generation_failures"):
        if summary.get(key) != 0:
            problems.append(f"{where}: summary {key} = {summary.get(key)!r}")
    return problems


class ReplayWorkload:
    """Saved artifacts of all eleven theorems, replayed from files."""

    name = "replay"
    theorems = serialize.THEOREMS

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, seed: int, per_theorem: int) -> list:
        """Write ``per_theorem`` artifacts per theorem, from campaign ``seed``.

        The files replace those of the previous batch.
        """
        folder = self.workdir / "artifacts"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir()
        batch = []
        for theorem in self.theorems:
            cfg = harness.CampaignConfig(theorem=theorem, trials=per_theorem, seed=seed)
            for rec in harness.run_campaign(cfg).records:
                if rec.report is None:
                    raise RuntimeError(f"{theorem} seed {seed}: no artifact: {rec.error}")
                path = folder / f"{theorem}-{rec.trial_index:04d}.json"
                doc = {"instance": rec.payload, "report": rec.report.to_json()}
                path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
                batch.append((theorem, path))
        return batch

    def probe_args(self, batch) -> list[str]:
        return ["replay", str(batch[0][1])]

    def run(self, batch) -> PassResult:
        out = PassResult()
        for theorem, path in batch:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                report = harness.replay(path)
            except Exception as exc:  # a stored-report mismatch lands here too
                out.seconds += time.perf_counter() - t0
                out.failed += 1
                out.problems.append(f"replay {path.name}: {exc!r}")
                out.outcomes.append((theorem, "error", None))
                continue
            out.seconds += time.perf_counter() - t0
            out.outcomes.append((theorem, report.verdict, report.min_slack))
            if report.violated:
                out.problems.append(f"replay {path.name}: violated")
        return out


def make(name: str, workdir: Path):
    if name == "maps":
        return CampaignWorkload(name, ("jensen-map", "thm1"), workdir)
    if name == "spectral":
        return CampaignWorkload(name, ("cor45", "zh", "prop-r2", "sumsq"), workdir)
    if name == "replay":
        return ReplayWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("maps", "spectral", "replay")

#: Trials per theorem in one pass. Campaign passes retain every record of a
#: campaign until it returns, so this also sets the peak memory they reach.
PASS_TRIALS = {"maps": 150, "spectral": 100, "replay": 10}
