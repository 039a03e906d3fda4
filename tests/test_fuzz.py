"""Seeded mutation fuzzing of instance payloads through run_instance.

Each theorem's generated payloads (seed 11, small dimensions) are mutated
one node at a time: the node is deleted, or replaced by each value of
:data:`REPLACEMENTS`. Every case must end in a report or in an exception
that ``cli.main`` turns into a clean error line (a ValueError, HarnessError,
GenerationError or OSError), with no warning, and the message must not
leak a LAPACK failure or a Python internal. References: Zeller et al.,
*The Fuzzing Book* (mutation-based fuzzing); MacIver et al.,
"Hypothesis", JOSS 4(43), 2019.
"""

import copy
import warnings

import pytest

from bohrcheck.harness import (
    CampaignConfig,
    GenerationError,
    HarnessError,
    generate_instance,
    run_instance,
)
from bohrcheck.serialize import THEOREMS, instance_to_json

#: JSON values each node is replaced by; 10**400 is beyond the float range.
REPLACEMENTS = (True, False, None, "2", 10**400, 1e308, -1e308, 0, -1, 2.5, [], {},
                [1, 2, 3], {"re": 1})

#: Text that a clean refusal never holds: a LAPACK failure on overflowed
#: input, or a TypeError message of Python's own.
LEAKS = ("did not converge", "object is not", "unpack", "float() argument")

#: Small families keep the case count near 10,000 over all theorems.
SIZES = {"n_range": (2, 2), "m_range": (2, 2), "ell_range": (1, 2)}


def _paths(node, path=()):
    """Path of every node below the root, parents before their children."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutants(payload):
    """(description, mutated copy) for every deletion and replacement."""
    for path in _paths(payload):
        for value in ("<deleted>", *REPLACEMENTS):
            mutant = copy.deepcopy(payload)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield f"{path} = {value!r}"[:120], mutant


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_mutated_payload_ends_in_a_report_or_a_clean_refusal(theorem):
    cfg = CampaignConfig(theorem, 2, 11, **SIZES)
    cases, faults = 0, []
    for trial in range(cfg.trials):  # jensen-map: the subunital, then the unital profile
        payload = instance_to_json(theorem, **generate_instance(cfg, trial))
        for case, mutant in _mutants(payload):
            cases += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    run_instance(mutant)
            except (HarnessError, GenerationError, OSError, ValueError) as exc:
                if any(leak in str(exc) for leak in LEAKS):
                    faults.append(f"{case}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - every other kind is the fault reported
                faults.append(f"{case}: uncaught {type(exc).__name__}: {exc}")
    assert cases > 100
    assert not faults, f"{len(faults)} of {cases} cases:\n" + "\n".join(faults[:20])
