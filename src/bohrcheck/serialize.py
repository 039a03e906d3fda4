"""JSON wire formats, instance payloads, and their digest.

Wire formats:

- matrix:   {"n": rows, "re": [[...]], "im": [[...]]}   (row-major doubles)
- vector:   {"re": [...], "im": [...]}
- scalar:   {"re": x, "im": y}
- function: {"id": "abs_pow", "r": 2.5, "J": [lo, hi]}  ("r" only when set)
- map:      {"kind": "congruence", "X": {matrix}}
            {"kind": "povm", "P": [{matrix}, ...]}
            {"kind": "sum", "terms": [{"alpha": a, "map": {...}}, ...]}
            {"kind": "block", "i": 0, "ell": 3, "X": {matrix}}

An instance payload is one flat JSON object per theorem with a "theorem"
key. :data:`INSTANCE_SCHEMA` describes each theorem's payload once, as
ordered (payload key, checker argument, codec) triples;
:func:`instance_to_json` and :func:`instance_from_json` are the only
encoder and decoder of payloads; decoding is exact and rejects
non-finite numbers, naming the payload key.

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
import math
import struct

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
]


class SerializationError(ValueError):
    """Malformed wire-format object."""


# --- primitive codecs -------------------------------------------------------


def _finite(x) -> float:
    """``float(x)``, refusing the ``Infinity`` and ``NaN`` that JSON lets through."""
    v = float(x)
    if not math.isfinite(v):
        raise SerializationError(f"expected a finite number, got {v!r}")
    return v


def matrix_to_json(a) -> dict:
    m = as_complex_matrix(a)
    return {
        "n": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        n = int(obj["n"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed matrix object: {exc}") from exc
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != n:
        raise SerializationError(
            f"matrix shape mismatch: n={n}, re {re.shape}, im {im.shape}"
        )
    # Not re + 1j * im, which turns a real part of -0.0 into 0.0.
    m = re.astype(complex)
    m.imag = im
    return as_complex_matrix(m)


def vector_to_json(x) -> dict:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        raise SerializationError(f"expected a 1-d vector, got shape {v.shape}")
    return {
        "re": v.real.tolist(),
        "im": v.imag.tolist(),
    }


def vector_from_json(obj) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed vector object: {exc}") from exc
    if re.ndim != 1 or re.shape != im.shape:
        raise SerializationError(f"vector shape mismatch: re {re.shape}, im {im.shape}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SerializationError("vector entries must be finite")
    v = re.astype(complex)
    v.imag = im
    return v


def scalar_to_json(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def scalar_from_json(obj) -> complex:
    try:
        return complex(_finite(obj["re"]), _finite(obj["im"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed complex scalar: {exc}") from exc


def function_to_json(spec: ConvexFunctionSpec) -> dict:
    out = {"id": spec.id, "J": [float(spec.domain.lo), float(spec.domain.hi)]}
    if spec.r is not None:
        out["r"] = float(spec.r)
    return out


def function_from_json(obj) -> ConvexFunctionSpec:
    try:
        fid = str(obj["id"])
        lo, hi = obj["J"]
        r = obj.get("r")
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed function object: {exc}") from exc
    try:
        return make_function_spec(fid, (float(lo), float(hi)), None if r is None else float(r))
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"cannot build function spec: {exc}") from exc


def map_to_json(spec: MapSpec) -> dict:
    if isinstance(spec, Congruence):
        return {"kind": "congruence", "X": matrix_to_json(spec.x)}
    if isinstance(spec, DiagonalPOVM):
        return {"kind": "povm", "P": [matrix_to_json(p) for p in spec.effects]}
    if isinstance(spec, WeightedSum):
        return {"kind": "sum", "terms": _weighted_maps_to_json(spec.terms)}
    if isinstance(spec, BlockExtraction):
        return {
            "kind": "block",
            "i": int(spec.index),
            "ell": int(spec.block_count),
            "X": matrix_to_json(spec.x),
        }
    raise SerializationError(
        f"map kind {type(spec).__name__} has no wire format"
    )


def map_from_json(obj) -> MapSpec:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed map object: {exc}") from exc
    try:
        if kind == "congruence":
            return Congruence(matrix_from_json(obj["X"]))
        if kind == "povm":
            return DiagonalPOVM(tuple(matrix_from_json(p) for p in obj["P"]))
        if kind == "sum":
            return WeightedSum(_weighted_maps_from_json(obj["terms"]))
        if kind == "block":
            return BlockExtraction(int(obj["i"]), int(obj["ell"]), matrix_from_json(obj["X"]))
    except (KeyError, TypeError, ValueError, SpecError) as exc:
        raise SerializationError(f"cannot build {kind!r} map: {exc}") from exc
    raise SerializationError(f"unknown map kind {kind!r}")


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
        raise SerializationError("entries must be finite")
    h.update(struct.pack(f"<cB{a.ndim}q", dtype.char.encode(), a.ndim, *a.shape))
    h.update(a)


_pack_real = functools.partial(_pack_array, np.dtype("<f8"))
_pack_complex = functools.partial(_pack_array, np.dtype("<c16"))


def _pack_function(h, spec: ConvexFunctionSpec) -> None:
    _pack_text(h, spec.id)
    _pack_real(h, [spec.domain.lo, spec.domain.hi] + ([] if spec.r is None else [spec.r]))


def _pack_terms(h, terms) -> None:
    _pack_real(h, [alpha for alpha, _ in terms])
    for _, spec in terms:
        _pack_map(h, spec)


def _pack_map(h, spec: MapSpec) -> None:
    if isinstance(spec, Congruence):
        _pack_text(h, "congruence")
        _pack_complex(h, spec.x)
    elif isinstance(spec, DiagonalPOVM):
        _pack_text(h, "povm")
        _pack_complex(h, spec.effects)
    elif isinstance(spec, WeightedSum):
        _pack_text(h, "sum")
        _pack_terms(h, spec.terms)
    elif isinstance(spec, BlockExtraction):
        _pack_text(h, "block")
        _pack_real(h, [spec.index, spec.block_count])
        _pack_complex(h, spec.x)
    else:
        raise SerializationError(f"map kind {type(spec).__name__} has no wire format")


# --- instance payloads ------------------------------------------------------


def _each(convert):
    """Lift a one-value conversion to lists."""
    return lambda items: [convert(x) for x in items]


def _weighted_maps_to_json(weighted_maps) -> list[dict]:
    return [{"alpha": float(alpha), "map": map_to_json(spec)} for alpha, spec in weighted_maps]


def _weighted_maps_from_json(terms) -> list[tuple[float, MapSpec]]:
    return [(_finite(t["alpha"]), map_from_json(t["map"])) for t in terms]


# A codec is an (encode, decode, pack) triple for one payload field; pack
# hashes the decoded value for :func:`digest`.
_FLOAT = (float, _finite, _pack_real)
_TEXT = (str, str, _pack_text)
_WEIGHTS = (_each(float), _each(_finite), _pack_real)
_SCALAR = (scalar_to_json, scalar_from_json, _pack_complex)
_VECTOR = (vector_to_json, vector_from_json, _pack_complex)
_MATRIX = (matrix_to_json, matrix_from_json, _pack_complex)
_MATRICES = (_each(matrix_to_json), _each(matrix_from_json), _pack_complex)
_FUNCTION = (function_to_json, function_from_json, _pack_function)
_MAP = (map_to_json, map_from_json, _pack_map)
_WEIGHTED_MAPS = (_weighted_maps_to_json, _weighted_maps_from_json, _pack_terms)

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
    args = {}
    for key, arg, (_, decode, _) in INSTANCE_SCHEMA[theorem]:
        try:
            args[arg] = decode(payload[key])
        except KeyError as exc:
            raise SerializationError(f"instance for {theorem!r} is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"field {key!r}: {exc}") from exc
    return theorem, args


#: Name of the digest algorithm, recorded in every campaign summary.
DIGEST_ALG = "blake2b-64-pack"


def digest(theorem: str, args: dict) -> str:
    """16-hex-digit BLAKE2b-64 digest of a canonical ``theorem``'s checker
    arguments: the theorem id, then each field's payload key and packed value."""
    h = hashlib.blake2b(digest_size=8)
    _pack_text(h, theorem)
    for key, arg, (_, _, pack) in INSTANCE_SCHEMA[theorem]:
        _pack_text(h, key)
        try:
            pack(h, args[arg])
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"field {key!r}: {exc}") from exc
    return h.hexdigest()
