"""Span tracing of bohrcheck from outside the package.

:func:`installed` replaces every public function of the seven layer modules
with a wrapper that records a span (name, start, end, parent) in memory. A
function is replaced wherever it is bound: in its own module, in every
module that imported it by name (``inequalities.eig_hermitian``,
``serialize.make_function_spec``, ...) and in the package namespace.
``numpy.linalg.eigh``/``eigvalsh`` are wrapped too, and record a span only
when called from inside a bohrcheck span. Leaving the context restores every
original binding, so untraced passes run the unmodified package.

A span's self time is its duration minus the durations of its direct
children. Bookkeeping done by hooks (counting canonical-JSON bytes, for
instance) runs on a paused clock, so it is charged to no span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("harness", "serialize", "calculus", "linalg", "cpmaps", "majorization", "inequalities")

_EIG_SPANS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
_VALIDATORS = ("as_complex_matrix", "require_square", "require_hermitian")
_RANDOM = (
    "mix64", "stream_key", "make_rng", "complex_gaussian",
    "random_unitary", "random_hermitian", "random_map_family",
)


def category(name: str) -> str:
    """Per-layer time category of a span name: ``<layer>.<part>``."""
    layer, _, func = name.partition(".")
    if layer == "numpy":
        return "linalg.eig"
    if layer == "harness":
        if func == "generate_instance":
            return "harness.generate"
        if func in ("TrialRecord.to_json_line", "jsonl.write"):
            return "harness.write"
    elif layer == "serialize":
        if func in ("digest", "canonical_json", "fnv1a64"):
            return "serialize.digest"
        if func.endswith(("_payload", "_to_json")):
            return "serialize.encode"
        if func.endswith("_from_json"):
            return "serialize.decode"
    elif layer == "calculus":
        if func in ("scan_function_flags", "validate_function_spec"):
            return "calculus.scan"
        if func in ("apply_fun", "abs_power"):
            return f"calculus.{func}"
    elif layer == "linalg":
        if func in ("eig_hermitian", "eigvals_descending", "abs_matrix"):
            return "linalg.eig"
        if func in _VALIDATORS:
            return "linalg.validate"
        if func in _RANDOM:
            return "linalg.random"
    elif layer == "cpmaps":
        if func in ("apply_map", "applied_to_identity"):
            return "cpmaps.apply"
    elif layer == "majorization":
        if func == "singular_values":
            return "majorization.sv"
    elif layer == "inequalities":
        return "inequalities.check_self"
    return f"{layer}.other"


CATEGORIES = (
    "harness.generate", "harness.write", "harness.other",
    "serialize.digest", "serialize.encode", "serialize.decode", "serialize.other",
    "calculus.scan", "calculus.apply_fun", "calculus.abs_power", "calculus.other",
    "linalg.eig", "linalg.validate", "linalg.random", "linalg.other",
    "cpmaps.apply", "cpmaps.other",
    "majorization.sv", "majorization.other",
    "inequalities.check_self",
)


class Tracer:
    """Spans of one traced pass, kept in flat arrays, plus event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._child_ns = array("q")
        self.stack: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self._paused_ns = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def enter(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(self.now())
        self.span_end.append(0)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self._child_ns.append(0)
        self.stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        end = self.now()
        self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name_id = self.span_name[idx]
        self.self_ns[name_id] += dur - self._child_ns[idx]
        self.incl_ns[name_id] += dur
        self.calls[name_id] += 1
        if self.stack:
            self._child_ns[self.stack[-1]] += dur

    def paused(self, fn, *args) -> None:
        """Run bookkeeping with the span clock stopped."""
        t0 = time.perf_counter_ns()
        try:
            fn(*args)
        finally:
            self._paused_ns += time.perf_counter_ns() - t0

    def on_stack(self, name: str) -> bool:
        target = self._ids.get(name)
        return any(self.span_name[i] == target for i in self.stack)

    def root_ns(self) -> int:
        """Total duration of the top-level spans: the traced trial time."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def by_name(self, table: list[int], name: str) -> int:
        name_id = self._ids.get(name)
        return 0 if name_id is None else table[name_id]

    def category_ns(self) -> dict[str, int]:
        out = dict.fromkeys(CATEGORIES, 0)
        for name_id, name in enumerate(self.names):
            out[category(name)] += self.self_ns[name_id]
        return out

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent_index]."""
        doc = {
            "names": self.names,
            "spans": [
                [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                for i in range(len(self.span_name))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _canonical_bytes(obj) -> int:
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8"))


def _hook(tracer: Tracer, name: str):
    """Counter taken when a span of ``name`` ends, or None."""

    def digest(args, kwargs, result):
        tracer.counts["digest_bytes"] += _canonical_bytes(args[0] if args else kwargs["obj"])

    def check(args, kwargs, report):
        tracer.counts["checked"] += 1
        if report.verdict in ("held", "violated"):
            tracer.counts["applicable"] += 1

    def identity(args, kwargs, result):
        if tracer.on_stack("harness.generate_instance"):
            tracer.counts["identity_probes"] += 1

    if name == "serialize.digest":
        return digest
    if name == "cpmaps.applied_to_identity":
        return identity
    if name.startswith("inequalities.check_"):
        return check
    return None


def _wrap(tracer: Tracer, name: str, fn, hook=None, only_nested: bool = False):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if only_nested and not tracer.stack:
            return fn(*args, **kwargs)
        idx = tracer.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(idx)
        if hook is not None:
            tracer.paused(hook, args, kwargs, result)
        return result

    return traced


class _TracedFile:
    """File proxy whose ``write`` is a span and counts the bytes written."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer
        self._name_id = tracer.name_id("harness.jsonl.write")

    def write(self, text):
        idx = self._tracer.enter(self._name_id)
        try:
            n = self._fh.write(text)
        finally:
            self._tracer.leave(idx)
        self._tracer.paused(self._count, text)
        return n

    def _count(self, text):
        self._tracer.counts["jsonl_bytes"] += len(text.encode("utf-8"))

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


_MISSING = object()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap bohrcheck's public functions for the duration of the block."""
    import bohrcheck
    from bohrcheck import harness

    modules = {layer: sys.modules[f"bohrcheck.{layer}"] for layer in LAYERS}
    namespaces = [bohrcheck] + [m for n, m in sys.modules.items() if n.startswith("bohrcheck.")]
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = _wrap(tracer, name, fn, _hook(tracer, name))
            for ns in namespaces:
                for bound, obj in list(vars(ns).items()):
                    if obj is fn:
                        patch(ns, bound, wrapper)
    patch(
        harness.TrialRecord,
        "to_json_line",
        _wrap(tracer, "harness.TrialRecord.to_json_line", harness.TrialRecord.to_json_line),
    )
    patch(harness, "open", lambda *a, **k: _TracedFile(open(*a, **k), tracer))
    for span in _EIG_SPANS:
        attr = span.rsplit(".", 1)[1]
        patch(np.linalg, attr, _wrap(tracer, span, getattr(np.linalg, attr), only_nested=True))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, float]:
    """Per-trial per-layer figures of one traced pass.

    Every ``*_us`` is self time; ``*_share`` is that time as a percentage of
    the traced trial time (the top-level spans' total).
    """
    trial_ns = tracer.root_ns()
    out: dict[str, float] = {"trace.trial_us": trial_ns / 1e3 / trials}
    cats = tracer.category_ns()
    for cat, ns in cats.items():
        out[f"{cat}_us"] = ns / 1e3 / trials
        out[f"{cat}_share"] = 100.0 * ns / trial_ns
    c = counts(tracer)
    for key, value in c.items():
        out[key] = value / trials
    checked = tracer.counts["checked"]
    out["inequalities.applicable_ratio"] = tracer.counts["applicable"] / checked if checked else 0.0

    def per_call(ns: int, calls: int) -> float:
        return ns / 1e3 / calls if calls else 0.0

    out["serialize.digest_us_per_call"] = per_call(cats["serialize.digest"], c["serialize.digest_calls"])
    out["calculus.spec_build_us_per_call"] = per_call(
        tracer.by_name(tracer.incl_ns, "calculus.make_function_spec"), c["calculus.spec_builds"]
    )
    out["linalg.eig_us_per_call"] = per_call(cats["linalg.eig"], c["linalg.eig_calls"])
    out["cpmaps.apply_us_per_call"] = per_call(cats["cpmaps.apply"], c["cpmaps.apply_calls"])
    return out


def counts(tracer: Tracer) -> dict[str, int]:
    """Work counts of a pass; with fixed inputs these must repeat exactly."""
    calls = functools.partial(tracer.by_name, tracer.calls)
    return {
        "harness.jsonl_bytes": tracer.counts["jsonl_bytes"],
        "serialize.digest_calls": calls("serialize.digest"),
        "serialize.digest_bytes": tracer.counts["digest_bytes"],
        "calculus.spec_builds": calls("calculus.make_function_spec"),
        "linalg.eig_calls": sum(calls(n) for n in _EIG_SPANS),
        "linalg.validate_calls": sum(calls(f"linalg.{n}") for n in _VALIDATORS),
        "cpmaps.apply_calls": calls("cpmaps.apply_map"),
        "cpmaps.identity_probes": tracer.counts["identity_probes"],
        "majorization.sv_calls": calls("majorization.singular_values"),
        "inequalities.checked": tracer.counts["checked"],
    }
