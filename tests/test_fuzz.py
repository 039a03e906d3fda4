"""Seeded mutation fuzzing of the three inputs a user hands bohrcheck.

Each theorem's generated payloads (seed 11, small dimensions) are mutated
one node at a time: the node is deleted, or replaced by each value of
:data:`REPLACEMENTS`. The mutants are instance payloads run through
``run_instance``, the ``report`` of each payload's ``{"instance",
"report"}`` artifact run through ``replay``, and each generated map's JSON
run through ``bohrcheck dilate``. Every case must end in a result or in an
exception that ``cli.main`` turns into a clean error line (a ValueError,
HarnessError, GenerationError or OSError), with no warning, and the
message must not leak a LAPACK failure or a Python internal. A payload's
decode refusal names at most one path, on the mutated node's line (RFC
6901's JSON Pointer names a node the same way, by its path). References:
Zeller et al., *The Fuzzing Book* (mutation-based fuzzing); MacIver et
al., "Hypothesis", JOSS 4(43), 2019.
"""

import copy
import json
import re
import warnings

import pytest

from bohrcheck import cli
from bohrcheck.harness import (
    CampaignConfig,
    GenerationError,
    HarnessError,
    generate_instance,
    replay,
    run_instance,
)
from bohrcheck.serialize import THEOREMS, SerializationError, instance_to_json

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


def _mutants(payload, under=()):
    """(path, value, mutated copy) for every deletion and replacement of a
    node at or below the path ``under``."""
    for path in _paths(payload):
        if path[: len(under)] != under:
            continue
        for value in ("<deleted>", *REPLACEMENTS):
            mutant = copy.deepcopy(payload)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield path, value, mutant


def _payloads(theorem):
    """The payloads of two generated trials; for jensen-map, the subunital,
    then the unital profile."""
    cfg = CampaignConfig(theorem, 2, 11, **SIZES)
    return [instance_to_json(theorem, **generate_instance(cfg, trial)) for trial in range(cfg.trials)]


def _misnamed(message, path):
    """Why a refusal ``message`` fails to name its place, or None: it must
    carry at most one ``field '<path>'`` label, and that path must lie on
    the line of the mutated node at ``path``, above it or below it."""
    labels = re.findall(r"field '([^']*)'", message)
    if len(labels) > 1:
        return f"{len(labels)} labels"
    named = re.findall(r"[^.\[\]]+", labels[0]) if labels else []
    common = min(len(named), len(path))
    if named[:common] != [str(step) for step in path[:common]]:
        return f"names {labels[0]!r}"
    return None


def _assert_clean(cases, run, paths=False):
    """Run ``run`` on each (path, value, mutant) of ``cases``, with every
    warning an error, and fail on the faults the module docstring names;
    with ``paths``, also on each SerializationError that :func:`_misnamed`
    faults."""
    count, faults = 0, []
    for path, value, mutant in cases:
        case = f"{path} = {value!r}"[:120]
        count += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run(mutant)
        except (HarnessError, GenerationError, OSError, ValueError) as exc:
            if any(leak in str(exc) for leak in LEAKS):
                faults.append(f"{case}: {type(exc).__name__}: {exc}")
            elif paths and isinstance(exc, SerializationError) and (why := _misnamed(str(exc), path)):
                faults.append(f"{case}: {why}: {exc}")
        except Exception as exc:  # noqa: BLE001 - every other kind is the fault reported
            faults.append(f"{case}: uncaught {type(exc).__name__}: {exc}")
    assert count > 100
    assert not faults, f"{len(faults)} of {count} cases:\n" + "\n".join(faults[:20])


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_mutated_payload_ends_in_a_report_or_a_clean_refusal(theorem):
    cases = (case for payload in _payloads(theorem) for case in _mutants(payload))
    _assert_clean(cases, run_instance, paths=True)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_mutated_stored_report_replays_or_is_refused_cleanly(theorem):
    artifacts = [{"instance": p, "report": run_instance(p).to_json()} for p in _payloads(theorem)]
    cases = (case for artifact in artifacts for case in _mutants(artifact, under=("report",)))
    _assert_clean(cases, replay)


class _ErrorLine(ValueError):
    """The one clean error line that ``cli.main`` printed."""


def test_every_mutated_map_file_dilates_or_is_refused_cleanly(tmp_path, capsys):
    maps = [payload["map"] for payload in _payloads("jensen-map")]
    maps += [term["map"] for payload in _payloads("thm1") for term in payload["maps"]]
    mapfile, outfile = tmp_path / "map.json", tmp_path / "dilation.json"

    def dilate(mutant):
        mapfile.write_text(json.dumps(mutant), encoding="utf-8")
        code = cli.main(["dilate", "--map", str(mapfile), "--out", str(outfile)])
        err = capsys.readouterr().err
        if code == 1 and err.startswith("bohrcheck: error: ") and err.count("\n") == 1:
            raise _ErrorLine(err)
        assert (code, err) == (0, ""), f"exit {code}, stderr {err!r}"

    _assert_clean((case for spec in maps for case in _mutants(spec)), dilate)
