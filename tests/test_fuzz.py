"""Seeded mutation fuzzing of the three inputs a user hands bohrcheck.

Each theorem's generated payloads (seed 11, small dimensions) are mutated
one node at a time: the node is deleted, or replaced by each value of
:data:`REPLACEMENTS`. The mutants are instance payloads run through
``run_instance``, the ``report`` of each payload's ``{"instance",
"report"}`` artifact run through ``replay``, and each generated map's JSON
run through ``bohrcheck dilate``. Every case must end in a result or in an
exception that ``cli.main`` turns into a clean error line (a ValueError,
HarnessError, GenerationError or OSError), with no warning, and the
message must not leak a LAPACK failure or a Python internal. References:
Zeller et al., *The Fuzzing Book* (mutation-based fuzzing); MacIver et
al., "Hypothesis", JOSS 4(43), 2019.
"""

import copy
import functools
import json
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


def _mutants(payload, under=()):
    """(description, mutated copy) for every deletion and replacement of a
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
            yield f"{path} = {value!r}"[:120], mutant


def _payloads(theorem):
    """The payloads of two generated trials; for jensen-map, the subunital,
    then the unital profile."""
    cfg = CampaignConfig(theorem, 2, 11, **SIZES)
    return [instance_to_json(theorem, **generate_instance(cfg, trial)) for trial in range(cfg.trials)]


def _assert_clean(cases, run):
    """Run ``run`` on each (description, mutant) of ``cases``, with every
    warning an error, and fail on the faults the module docstring names."""
    count, faults = 0, []
    for case, mutant in cases:
        count += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run(mutant)
        except (HarnessError, GenerationError, OSError, ValueError) as exc:
            if any(leak in str(exc) for leak in LEAKS):
                faults.append(f"{case}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - every other kind is the fault reported
            faults.append(f"{case}: uncaught {type(exc).__name__}: {exc}")
    assert count > 100
    assert not faults, f"{len(faults)} of {count} cases:\n" + "\n".join(faults[:20])


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_mutated_payload_ends_in_a_report_or_a_clean_refusal(theorem):
    _assert_clean((case for payload in _payloads(theorem) for case in _mutants(payload)), run_instance)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_mutated_stored_report_replays_or_is_refused_cleanly(theorem):
    artifacts = [{"instance": p, "report": run_instance(p).to_json()} for p in _payloads(theorem)]
    cases = (
        (case, mutant)
        for artifact in artifacts
        for case, mutant in _mutants(artifact, under=("report",))
    )
    _assert_clean(cases, replay)


class _ErrorLine(ValueError):
    """The one clean error line that ``cli.main`` printed."""


def test_every_mutated_map_file_dilates_or_is_refused_cleanly(tmp_path, capsys, monkeypatch):
    # Building the argument parser takes most of a case; one serves them all.
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
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
