"""Set-up probe: import bohrcheck in a fresh interpreter and finish one trial.

``run.py`` starts this script several times and times it up to the
``done`` line, which gives the workload's ``setup_s``. Usage::

    first_trial.py campaign <theorem> <seed> <out.jsonl>
    first_trial.py replay <artifact.json>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bohrcheck import harness  # noqa: E402

if sys.argv[1] == "campaign":
    theorem, seed, out = sys.argv[2:5]
    harness.run_campaign(harness.CampaignConfig(theorem=theorem, trials=1, seed=int(seed)), out)
elif sys.argv[1] == "replay":
    harness.replay(sys.argv[2])
else:
    raise SystemExit(f"unknown probe {sys.argv[1]!r}")
print("done", flush=True)
