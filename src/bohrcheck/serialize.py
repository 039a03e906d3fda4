"""JSON wire formats, instance payloads, and their digest.

Wire formats:

- matrix:   {"n": rows, "re": [[...]], "im": [[...]]}   (row-major doubles)
- vector:   {"re": [...], "im": [...]}
- scalar:   {"re": x, "im": y}
- function: {"id": "abs_pow", "r": 2.5, "J": [lo, hi]}  ("r" only when set)
- map:      {"kind": kind, ...}, one :data:`_MAP_KINDS` row per kind, e.g.
            {"kind": "block", "i": 0, "ell": 3, "X": {matrix}}

An instance payload is one flat JSON object per theorem with a "theorem"
key. :data:`INSTANCE_SCHEMA` describes each theorem's payload once, as
ordered (payload key, checker argument, codec) triples;
:func:`instance_to_json` and :func:`instance_from_json` are the only
encoder and decoder of payloads; decoding is exact, and a refusal names
the refused node by its path, ``field 'maps[0].map.X': ...``.

:func:`digest` hashes checker arguments, not their JSON text, with BLAKE2b
cut to 64 bits (:data:`DIGEST_ALG`, RFC 7693): the theorem id, then each
schema field's key and its value packed by the field's codec as tagged
shapes and little-endian ``<f8`` / ``<c16`` bytes. Generated arguments
and the arguments decoded from their payload therefore hash alike. The
harness stamps the digest on every report it returns, so any report line
can be traced back to its exact input.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .calculus import ConvexFunctionSpec, make_function_spec
from .cpmaps import (
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    MapSpec,
    SpecError,
    WeightedSum,
)
from .linalg import as_complex_matrix

__all__ = [
    "SerializationError",
    "NonFiniteError",
    "INSTANCE_SCHEMA",
    "THEOREMS",
    "THEOREM_ALIASES",
    "canonical_theorem",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "scalar_to_json",
    "scalar_from_json",
    "function_to_json",
    "function_from_json",
    "map_to_json",
    "map_from_json",
    "DIGEST_ALG",
    "digest",
    "instance_to_json",
    "instance_from_json",
    "read_json",
]


class SerializationError(ValueError):
    """Malformed wire-format object."""


class NonFiniteError(SerializationError):
    """A value to digest has a non-finite entry."""


# --- primitive codecs -------------------------------------------------------


def _finite(x) -> float:
    """A JSON number (an int or float, not a bool) as a float, refusing the
    ``Infinity`` and ``NaN`` that JSON lets through and ints beyond range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SerializationError(f"expected a JSON number, got {x!r}")
    v = float(x) if isinstance(x, float) or abs(x) <= sys.float_info.max else math.inf
    if not math.isfinite(v):
        raise SerializationError(f"expected a finite number, got {v!r}")
    return v


#: How a refusal names the JSON type of each value that json.loads returns.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(v) -> str:
    return _JSON_TYPES.get(type(v), type(v).__name__)


def _text(v) -> str:
    """A JSON string, refusing the ``true`` and ``[]`` that ``str`` takes."""
    if not isinstance(v, str):
        raise SerializationError(f"expected a JSON string, got {_json_type(v)}")
    return v


def _json_object(v, what: str) -> dict:
    """``v`` if it is a JSON object; ``what`` names it."""
    if not isinstance(v, dict):
        raise SerializationError(f"expected a {what} object, got {_json_type(v)}")
    return v


#: The types of an array: a JSON array, or a tuple or numpy array in Python.
_ARRAYS = frozenset((list, tuple, np.ndarray))


def _items(v):
    """``v`` if it is an array; anything else is refused."""
    if type(v) not in _ARRAYS:
        raise SerializationError(f"expected an array, got {_json_type(v)}")
    return v


def _count(v) -> int:
    """A JSON integer, refusing the ``true``, ``1.9`` and ``"2"`` that ``int`` takes."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise SerializationError(f"expected an integer, got {v!r}")
    return v


class _EntryError(SerializationError):
    """A refusal of the value at ``path`` (``maps[0].alpha``); each enclosing
    :func:`_at` prefixes its step. ``problem`` follows the quoted path:
    `` is missing``, ``: <reason>``."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"field {path!r}{problem}")
        self.path, self.problem = path, problem


def _at(step: str | int, decode, value):
    """``decode(value)``, the one place that names a refusal: ``step`` (a key,
    or entry ``i`` as ``[i]``) goes in front of the path of a refusal below it."""
    try:
        return decode(value)
    except (TypeError, ValueError) as exc:
        step = f"[{step}]" if isinstance(step, int) else step
        if isinstance(exc, _EntryError):  # named below: its path goes after the step
            raise _EntryError(step + ("" if exc.path[0] == "[" else ".") + exc.path, exc.problem) from exc
        raise _EntryError(step, f": {exc}") from exc


def _decoded(decode, obj, key):
    """``decode(obj[key])``; a refusal is named by its path from ``key``."""
    if key not in obj:
        raise _EntryError(key, " is missing")
    return _at(key, decode, obj[key])


def _each(convert):
    """Lift a one-value conversion to arrays, naming entry i as ``[i]``."""
    return lambda items: [_at(i, convert, x) for i, x in enumerate(_items(items))]


def _re_im_to_json(v: np.ndarray) -> dict:
    """The one re/im wire form of a complex vector or matrix."""
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _re_im_from_json(obj, ndim: int, what: str) -> np.ndarray:
    """Complex ``ndim``-d array of a re/im object, exact for signed zeros."""
    obj = _json_object(obj, what)
    parts = _decoded(_items, obj, "re"), _decoded(_items, obj, "im")
    rows = parts if ndim == 1 else [*parts[0], *parts[1]]
    if not set(map(type, rows)) <= _ARRAYS:  # a matrix row that is not an array: name it
        for key in ("re", "im"):
            _decoded(_each(_items), obj, key)
    # numpy reads true and "2" as numbers; JSON does not.
    for t in set(map(type, itertools.chain(*rows))):
        if t is bool or not issubclass(t, (int, float)):
            name = _JSON_TYPES.get(t, t.__name__)
            raise SerializationError(f"expected {what} entries as JSON numbers, got {name}")
    try:
        re = np.asarray(parts[0], dtype=float)
        im = np.asarray(parts[1], dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise SerializationError(f"malformed {what} object: {exc}") from exc
    except ValueError as exc:  # the one other refusal left: a ragged matrix
        raise SerializationError(f"{what} rows differ in length") from exc
    if re.ndim != ndim or re.shape != im.shape:
        raise SerializationError(f"{what} shape mismatch: re {re.shape}, im {im.shape}")
    # Not re + 1j * im, which turns a real part of -0.0 into 0.0.
    v = re.astype(complex)
    v.imag = im
    if not np.isfinite(v).all():
        raise SerializationError(f"{what} entries must be finite")
    return v


def matrix_to_json(a) -> dict:
    m = as_complex_matrix(a)
    return {"n": int(m.shape[0]), **_re_im_to_json(m)}


def matrix_from_json(obj) -> np.ndarray:
    m = _re_im_from_json(obj, 2, "matrix")
    n = _decoded(_count, obj, "n") if "n" in obj else None
    if m.shape[0] != n or m.shape[1] < 1:
        raise SerializationError(f"matrix shape mismatch: n={n!r}, re and im {m.shape}")
    return m


def vector_to_json(x) -> dict:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        raise SerializationError(f"expected a 1-d vector, got shape {v.shape}")
    return _re_im_to_json(v)


def vector_from_json(obj) -> np.ndarray:
    return _re_im_from_json(obj, 1, "vector")


def scalar_to_json(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def scalar_from_json(obj) -> complex:
    obj = _json_object(obj, "complex scalar")
    return complex(_decoded(_finite, obj, "re"), _decoded(_finite, obj, "im"))


def function_to_json(spec: ConvexFunctionSpec) -> dict:
    out = {"id": spec.id, "J": [float(spec.domain.lo), float(spec.domain.hi)]}
    if spec.r is not None:
        out["r"] = float(spec.r)
    return out


def function_from_json(obj) -> ConvexFunctionSpec:
    obj = _json_object(obj, "function")
    domain = _decoded(_each(_finite), obj, "J")
    if len(domain) != 2:
        raise _EntryError("J", f": expected [lo, hi], got {len(domain)} numbers")
    r = None if obj.get("r") is None else _decoded(_finite, obj, "r")
    fid = _decoded(_text, obj, "id")
    try:
        return make_function_spec(fid, domain, r)
    except KeyError as exc:  # str() of a KeyError would quote its text again
        raise SerializationError(f"cannot build function spec: {exc.args[0]}") from exc
    except ValueError as exc:
        raise SerializationError(f"cannot build function spec: {exc}") from exc


# --- packing for the digest ------------------------------------------------
#
# A packer feeds a BLAKE2b state one decoded value as tagged items: b"s"
# text (byte count, UTF-8), b"d" float64 and b"D" complex128 arrays (rank,
# shape, little-endian C-order bytes; rank 0 for a scalar, rank 3 for a
# list of matrices). Integers (block index and count) pack exactly as
# float64.


def _pack_text(h, text) -> None:
    data = str(text).encode("utf-8")
    h.update(struct.pack("<cq", b"s", len(data)) + data)


def _pack_array(dtype, h, a) -> None:
    a = np.asarray(a, dtype=dtype, order="C")
    if not np.isfinite(a).all():
        raise NonFiniteError("entries must be finite")
    h.update(struct.pack(f"<cB{a.ndim}q", dtype.char.encode(), a.ndim, *a.shape))
    h.update(a)


_pack_real = functools.partial(_pack_array, np.dtype("<f8"))
_pack_complex = functools.partial(_pack_array, np.dtype("<c16"))


def _pack_function(h, spec: ConvexFunctionSpec) -> None:
    _pack_text(h, spec.id)
    _pack_real(h, [spec.domain.lo, spec.domain.hi] + ([] if spec.r is None else [spec.r]))


# --- maps: each kind is one _MAP_KINDS row ---------------------------------


def _map_kind(spec: MapSpec) -> tuple[str, tuple]:
    if type(spec) not in _KIND_OF_CLASS:
        raise SerializationError(f"map kind {type(spec).__name__} has no wire format")
    return _KIND_OF_CLASS[type(spec)]


def map_to_json(spec: MapSpec) -> dict:
    kind, fields = _map_kind(spec)
    obj = {"kind": kind}
    for key, attr, (encode, _, _) in fields:
        obj[key] = encode(getattr(spec, attr))
    return obj


def map_from_json(obj) -> MapSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _MAP_KINDS:
        raise SerializationError(f"unknown map kind {kind!r}")
    cls, fields = _MAP_KINDS[kind]
    args = {attr: _decoded(decode, obj, key) for key, attr, (_, decode, _) in fields}
    try:
        return cls(**args)
    except (KeyError, TypeError, ValueError, SpecError) as exc:
        raise SerializationError(f"cannot build {kind!r} map: {exc}") from exc


def _pack_map(h, spec: MapSpec) -> None:
    """The kind, its counts as one float64 array, then its other fields."""
    kind, fields = _map_kind(spec)
    _pack_text(h, kind)
    counts = [getattr(spec, attr) for _, attr, (_, _, pack) in fields if pack is None]
    if counts:
        _pack_real(h, counts)
    for _, attr, (_, _, pack) in fields:
        if pack is not None:
            pack(h, getattr(spec, attr))


def _weighted_maps_to_json(weighted_maps) -> list[dict]:
    return [{"alpha": float(alpha), "map": map_to_json(spec)} for alpha, spec in weighted_maps]


def _weighted_term(t) -> tuple[float, MapSpec]:
    t = _json_object(t, "term")
    return _decoded(_finite, t, "alpha"), _decoded(map_from_json, t, "map")


def _pack_terms(h, terms) -> None:
    _pack_real(h, [alpha for alpha, _ in terms])
    for _, spec in terms:
        _pack_map(h, spec)


# A codec is an (encode, decode, pack) triple for one payload field; pack
# hashes the decoded value for :func:`digest`. A map's counts have no
# packer of their own: :func:`_pack_map` packs them together.
_FLOAT = (float, _finite, _pack_real)
_COUNT = (int, _count, None)
_TEXT = (str, _text, _pack_text)
_WEIGHTS = (_each(float), _each(_finite), _pack_real)
_SCALAR = (scalar_to_json, scalar_from_json, _pack_complex)
_VECTOR = (vector_to_json, vector_from_json, _pack_complex)
_MATRIX = (matrix_to_json, matrix_from_json, _pack_complex)
_MATRICES = (_each(matrix_to_json), _each(matrix_from_json), _pack_complex)
_FUNCTION = (function_to_json, function_from_json, _pack_function)
_MAP = (map_to_json, map_from_json, _pack_map)
_WEIGHTED_MAPS = (_weighted_maps_to_json, _each(_weighted_term), _pack_terms)

#: Wire format of every map kind: wire kind -> (class, fields), the fields
#: as (wire key, class attribute, codec) triples in wire key order.
#: :class:`~bohrcheck.cpmaps.Transpose` has no row, so no wire format.
_MAP_KINDS = {
    "congruence": (Congruence, (("X", "x", _MATRIX),)),
    "povm": (DiagonalPOVM, (("P", "effects", _MATRICES),)),
    "sum": (WeightedSum, (("terms", "terms", _WEIGHTED_MAPS),)),
    "block": (
        BlockExtraction,
        (("i", "index", _COUNT), ("ell", "block_count", _COUNT), ("X", "x", _MATRIX)),
    ),
}
_KIND_OF_CLASS = {cls: (kind, fields) for kind, (cls, fields) in _MAP_KINDS.items()}

#: Wire format of every theorem, in CLI order: the payload's fields as
#: (payload key, checker argument, codec) triples, in payload key order.
INSTANCE_SCHEMA = {
    "bohr": (("p", "p", _FLOAT), ("z", "z", _SCALAR), ("w", "w", _SCALAR)),
    "vasic": (("r", "r", _FLOAT), ("p", "p", _WEIGHTS), ("z", "z", _VECTOR)),
    "jensen-vec": (("f", "f", _FUNCTION), ("A", "a", _MATRIX), ("x", "x", _VECTOR)),
    "jensen-map": (
        ("variant", "variant", _TEXT),
        ("f", "f", _FUNCTION),
        ("A", "a", _MATRIX),
        ("map", "spec", _MAP),
        ("x", "x", _VECTOR),
    ),
    "thm1": (
        ("f", "f", _FUNCTION),
        ("A", "a", _MATRIX),
        ("maps", "weighted_maps", _WEIGHTED_MAPS),
    ),
    "cornew": (
        ("f", "f", _FUNCTION),
        ("A", "a_list", _MATRICES),
        ("X", "x_list", _MATRICES),
        ("alpha", "alpha", _WEIGHTS),
    ),
    "cor45": (
        ("r", "r", _FLOAT),
        ("p", "p", _WEIGHTS),
        ("A", "a_list", _MATRICES),
        ("X", "x_list", _MATRICES),
    ),
    "zh": (("r", "r", _FLOAT), ("p", "p", _WEIGHTS), ("A", "a_list", _MATRICES)),
    "prop-r2": (("r", "r", _FLOAT), ("p", "p", _WEIGHTS), ("A", "a_list", _MATRICES)),
    "sumsq": (("p", "p", _WEIGHTS), ("A", "a_list", _MATRICES)),
    "inc-convex": (("f", "f", _FUNCTION), ("p", "p", _WEIGHTS), ("A", "a_list", _MATRICES)),
}

#: Canonical theorem identifiers, in CLI order.
THEOREMS = tuple(INSTANCE_SCHEMA)

#: Accepted spellings of theorem identifiers besides the canonical ones.
THEOREM_ALIASES = {
    "cor4.5": "cor45",
    "jensen-vector": "jensen-vec",
    "jensen_vec": "jensen-vec",
    "jensen_map": "jensen-map",
    "prop_r2": "prop-r2",
    "inc_convex": "inc-convex",
}


def canonical_theorem(name: str) -> str:
    """Resolve a theorem identifier or alias to its canonical form."""
    t = THEOREM_ALIASES.get(str(name), str(name))
    if t not in INSTANCE_SCHEMA:
        raise SerializationError(f"unknown theorem {name!r}; known: {', '.join(THEOREMS)}")
    return t


def instance_to_json(theorem: str, **args) -> dict:
    """Instance payload of a canonical ``theorem`` from its checker's arguments."""
    payload = {"theorem": theorem}
    for key, arg, (encode, _, _) in INSTANCE_SCHEMA[theorem]:
        payload[key] = encode(args[arg])
    return payload


def instance_from_json(payload) -> tuple[str, dict]:
    """Canonical theorem id and checker keyword arguments of a payload.

    Keys outside the theorem's schema are ignored.
    """
    if not isinstance(payload, dict) or "theorem" not in payload:
        raise SerializationError("instance payload must carry a 'theorem' field")
    theorem = canonical_theorem(payload["theorem"])
    return theorem, {arg: _decoded(decode, payload, key)
                     for key, arg, (_, decode, _) in INSTANCE_SCHEMA[theorem]}


#: Name of the digest algorithm, recorded in every campaign summary.
DIGEST_ALG = "blake2b-64-pack"


def digest(theorem: str, args: dict) -> str:
    """16-hex-digit BLAKE2b-64 digest of a canonical ``theorem``'s checker
    arguments: the theorem id, then each field's payload key and packed value.
    A non-finite entry raises :class:`NonFiniteError`, naming the field."""
    h = hashlib.blake2b(digest_size=8)
    _pack_text(h, theorem)
    for key, arg, (_, _, pack) in INSTANCE_SCHEMA[theorem]:
        _pack_text(h, key)
        try:
            pack(h, args[arg])
        except NonFiniteError as exc:
            raise NonFiniteError(f"field {key!r}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"field {key!r}: {exc}") from exc
    return h.hexdigest()


def read_json(path: str | Path):
    """The JSON value in the UTF-8 file at ``path``; malformed text raises
    :class:`SerializationError` naming the path, line and column."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
