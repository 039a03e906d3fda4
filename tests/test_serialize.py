"""Wire formats, digests, and the instance schema."""

import hashlib
import json
import re
import struct
import typing

import numpy as np
import pytest

from bohrcheck.calculus import make_function_spec
from bohrcheck import cpmaps
from bohrcheck.cpmaps import (
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    Transpose,
    WeightedSum,
    apply_map,
    map_dims,
)
from bohrcheck.harness import THEOREM_TABLE, CampaignConfig, generate_instance
from bohrcheck.linalg import complex_gaussian, frob, make_rng
from bohrcheck.serialize import (
    _MAP_KINDS,
    INSTANCE_SCHEMA,
    THEOREM_ALIASES,
    THEOREMS,
    SerializationError,
    canonical_theorem,
    DIGEST_ALG,
    digest,
    function_from_json,
    function_to_json,
    instance_from_json,
    instance_to_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
    vector_from_json,
    vector_to_json,
)


# --- theorem ids -----------------------------------------------------------------


def test_theorem_tuple_contents():
    assert THEOREMS == (
        "bohr",
        "vasic",
        "jensen-vec",
        "jensen-map",
        "thm1",
        "cornew",
        "cor45",
        "zh",
        "prop-r2",
        "sumsq",
        "inc-convex",
    )


def test_canonical_theorem_aliases():
    assert canonical_theorem("cor4.5") == "cor45"
    assert canonical_theorem("jensen_vec") == "jensen-vec"
    assert canonical_theorem("jensen_map") == "jensen-map"
    assert canonical_theorem("prop_r2") == "prop-r2"
    assert canonical_theorem("inc_convex") == "inc-convex"
    for t in THEOREMS:
        assert canonical_theorem(t) == t
    with pytest.raises(SerializationError):
        canonical_theorem("nosuch")


# --- primitive codecs ----------------------------------------------------------------


def test_matrix_round_trip_bit_exact():
    rng = make_rng(70)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = complex_gaussian((n, n), rng)
        back = matrix_from_json(matrix_to_json(a))
        assert np.array_equal(a, back)


def test_matrix_json_shape():
    obj = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert obj["n"] == 2
    assert obj["re"] == [[1.0, 2.0], [3.0, 4.0]]
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_matrix_from_json_validation():
    with pytest.raises(SerializationError):
        matrix_from_json({"n": 2, "re": [[1.0]], "im": [[1.0]]})
    with pytest.raises(SerializationError):
        matrix_from_json({"n": 1, "re": [[1.0]]})
    with pytest.raises(SerializationError):
        matrix_from_json({"n": 2, "re": [[1.0, 2.0], [3.0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(SerializationError, match="matrix entries must be finite"):
        matrix_from_json({"n": 1, "re": [[float("nan")]], "im": [[0.0]]})
    with pytest.raises(SerializationError, match="matrix shape mismatch"):
        matrix_from_json({"n": 1, "re": [[]], "im": [[]]})
    with pytest.raises(SerializationError, match="^matrix shape mismatch: n=None"):
        matrix_from_json({"re": [[1.0]], "im": [[0.0]]})


def test_vector_and_scalar_round_trips():
    v = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)
    z = complex(-1.5, 2.5)
    assert scalar_from_json(scalar_to_json(z)) == z
    with pytest.raises(SerializationError):
        vector_from_json({"re": [1.0], "im": [1.0, 2.0]})
    with pytest.raises(SerializationError, match="vector entries must be finite"):
        vector_from_json({"re": [1.0, 0.0], "im": [0.0, float("inf")]})
    with pytest.raises(SerializationError):
        scalar_from_json({"re": 1.0})


def test_function_round_trip():
    f = make_function_spec("abs_pow", (-3.0, 3.0), r=2.5)
    obj = function_to_json(f)
    assert obj == {"id": "abs_pow", "J": [-3.0, 3.0], "r": 2.5}
    g = function_from_json(obj)
    assert g.id == f.id and g.domain == f.domain and g.r == f.r
    assert g.flags == f.flags
    square = function_to_json(make_function_spec("square", (-2.0, 2.0)))
    assert "r" not in square
    with pytest.raises(SerializationError):
        function_from_json({"id": "abs_pow", "J": [-1, 1]})  # r missing
    with pytest.raises(SerializationError):
        function_from_json({"id": "nosuch", "J": [-1, 1]})


@pytest.mark.parametrize(
    "decode, obj, message",
    [
        (scalar_from_json, {"re": True, "im": 0.0}, "expected a JSON number, got True"),
        (scalar_from_json, {"re": 1.0, "im": "0"}, "expected a JSON number, got '0'"),
        (scalar_from_json, {"re": 10**400, "im": 0.0}, "expected a finite number, got inf"),
        (function_from_json, {"id": "abs_pow", "J": [-3.0, 3.0], "r": "2"},
         "field 'r': expected a JSON number, got '2'"),
        (function_from_json, {"id": "square", "J": [-3.0, True]},
         "field 'J': expected a JSON number, got True"),
        (matrix_from_json, {"n": True, "re": [[0.5]], "im": [[0.0]]},
         "field 'n': expected an integer, got True"),
        (matrix_from_json, {"n": 1.0, "re": [[0.5]], "im": [[0.0]]},
         "field 'n': expected an integer, got 1.0"),
        (matrix_from_json, {"n": 1, "re": [["0.5"]], "im": [[0.0]]},
         "matrix has a str entry, not a JSON number"),
        (matrix_from_json, {"n": 1, "re": [[0.5]], "im": [[False]]},
         "matrix has a bool entry, not a JSON number"),
        (vector_from_json, {"re": [True, 1.5], "im": [0.0, 0.0]},
         "vector has a bool entry, not a JSON number"),
        (vector_from_json, {"re": [10**400], "im": [0.0]}, "malformed vector object"),
    ],
)
def test_decoders_take_only_json_numbers(decode, obj, message):
    # float() reads "2" and true, np.asarray(dtype=float) reads "0.5" and
    # false, and true == 1 passed the matrix's n.
    with pytest.raises(SerializationError, match=re.escape(message)):
        decode(obj)


def test_map_round_trip_all_kinds():
    rng = make_rng(71)
    x = complex_gaussian((3, 2), rng)
    effects = []
    for _ in range(2):
        g = complex_gaussian((2, 2), rng)
        effects.append(g @ g.conj().T)
    specs = [
        Congruence(x),
        DiagonalPOVM(tuple(effects)),
        BlockExtraction(1, 2, complex_gaussian((2, 2), rng)),
        WeightedSum(((0.5, Congruence(x)), (0.25, Congruence(2 * x)))),
        WeightedSum(((0.5, BlockExtraction(0, 2, x)), (0.25, DiagonalPOVM(effects * 3)))),
    ]
    for spec in specs:
        obj = json.loads(json.dumps(map_to_json(spec)))
        back = map_from_json(obj)
        assert type(back) is type(spec)
        assert map_to_json(back) == obj
        n_in = map_dims(spec)[0]
        probe = complex_gaussian((n_in, n_in), rng)
        probe = probe + probe.conj().T
        assert frob(apply_map(spec, probe) - apply_map(back, probe)) <= 1e-14


def test_map_kinds_name_every_structural_class_but_transpose():
    structural = set(typing.get_args(cpmaps.MapSpec))
    exported = {obj for obj in map(vars(cpmaps).get, cpmaps.__all__) if isinstance(obj, type)}
    assert structural == exported - {cpmaps.SpecError, cpmaps.StinespringDilation}
    assert {cls for cls, _ in _MAP_KINDS.values()} == structural - {Transpose}
    assert list(_MAP_KINDS) == ["congruence", "povm", "sum", "block"]


def test_map_json_kind_tags():
    assert map_to_json(Congruence(np.eye(2)))["kind"] == "congruence"
    assert map_to_json(DiagonalPOVM((np.eye(2),)))["kind"] == "povm"
    assert map_to_json(BlockExtraction(0, 2, np.eye(2)))["kind"] == "block"
    ws = map_to_json(WeightedSum(((1.0, Congruence(np.eye(2))),)))
    assert ws["kind"] == "sum"
    assert ws["terms"][0]["alpha"] == 1.0


def test_transpose_has_no_wire_format():
    with pytest.raises(SerializationError):
        map_to_json(Transpose(2))
    with pytest.raises(SerializationError):
        map_from_json({"kind": "transpose", "n": 2})


def test_map_from_json_rejects_malformed():
    with pytest.raises(SerializationError):
        map_from_json({"kind": "congruence"})
    with pytest.raises(SerializationError):
        map_from_json({"X": matrix_to_json(np.eye(2))})
    with pytest.raises(SerializationError):
        map_from_json({"kind": "sum", "terms": []})


@pytest.mark.parametrize("key", ["i", "ell"])
@pytest.mark.parametrize("bad", [1.9, "2", True, None])
def test_block_counts_decode_only_from_json_integers(key, bad):
    # int() would read 1.9 as 1, "2" as 2 and true as 1, and the map would
    # then re-encode to other bytes than it was read from.
    obj = map_to_json(BlockExtraction(1, 2, np.eye(2)))
    assert map_from_json(obj).index == 1
    obj[key] = bad
    with pytest.raises(SerializationError, match=f"field '{key}': expected an integer, got {bad!r}"):
        map_from_json(obj)


# --- digests ----------------------------------------------------------------------------


def _bohr_args(**changes):
    return {"z": 1 + 2j, "w": 3 - 1j, "p": 2.0} | changes


def test_digest_is_16_hex_and_insertion_order_free():
    d1 = digest("bohr", _bohr_args())
    d2 = digest("bohr", dict(reversed(_bohr_args().items())))
    assert d1 == d2
    assert len(d1) == 16
    int(d1, 16)
    assert digest("bohr", _bohr_args(p=3.0)) != d1
    # The theorem id is hashed too: zh and prop-r2 share one schema.
    args = {"r": 2.0, "p": [1.0], "a_list": [np.eye(2)]}
    assert digest("zh", args) != digest("prop-r2", args)


def test_digest_is_blake2b_64_of_packed_arguments():
    assert DIGEST_ALG == "blake2b-64-pack"

    def text(s):
        return struct.pack("<cq", b"s", len(s)) + s.encode()

    packed = (
        text("bohr")
        + text("p") + struct.pack("<cBd", b"d", 0, 2.0)
        + text("z") + struct.pack("<cBdd", b"D", 0, 1.0, 2.0)
        + text("w") + struct.pack("<cBdd", b"D", 0, 3.0, -1.0)
    )
    expected = hashlib.blake2b(packed, digest_size=8).hexdigest()
    assert digest("bohr", _bohr_args()) == expected
    # Pinned, so a change of algorithm or packing cannot pass unnoticed.
    assert expected == "43f954099c85428d"


def test_digest_packs_matrices_by_value_not_layout():
    rng = make_rng(72)
    a = rng.standard_normal((3, 3))
    reference = digest("jensen-vec", {"f": make_function_spec("square", (-9.0, 9.0)),
                                      "a": np.ascontiguousarray(a, dtype=complex),
                                      "x": np.ones(3, dtype=complex)})
    wide = rng.standard_normal((3, 6))
    wide[:, ::2] = a
    for layout in (a, np.asfortranarray(a), np.asfortranarray(a.astype(complex)), wide[:, ::2]):
        args = {"f": make_function_spec("square", (-9.0, 9.0)), "a": layout, "x": [1.0, 1.0, 1.0]}
        assert digest("jensen-vec", args) == reference
    # A signed zero is a different value.
    assert digest("jensen-vec", {"f": make_function_spec("square", (-9.0, 9.0)),
                                 "a": a + 0j, "x": [-0.0, 1.0, 1.0]}) != reference


def _jensen_map_specs():
    rng = make_rng(73)
    x = complex_gaussian((4, 2), rng)
    g = complex_gaussian((4, 2, 2), rng)
    y = complex_gaussian((2, 2), rng)
    return {
        "congruence": Congruence(x),
        "povm": DiagonalPOVM(g @ g.conj().swapaxes(-1, -2)),
        "block": BlockExtraction(1, 2, y),
        "sum": WeightedSum(((0.5, Congruence(x)), (0.25, BlockExtraction(0, 2, y)))),
    }


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("congruence", "88c1331fd271bf22"),
        ("povm", "1398ab88d7195e02"),
        ("block", "3f372727c6dd9ab6"),
        ("sum", "1f867c4a926cf35a"),
    ],
)
def test_digest_of_each_map_kind_is_pinned(kind, expected):
    # Pinned per wire kind, so a packing slip in one kind (a block's index
    # and count pack as one float64 pair ahead of X) cannot pass unnoticed.
    spec = _jensen_map_specs()[kind]
    assert map_to_json(spec)["kind"] == kind
    args = {"variant": "subunital", "f": make_function_spec("square", (-3.0, 3.0)),
            "a": np.diag([-1.0, -0.5, 0.5, 1.0]).astype(complex), "spec": spec,
            "x": np.full(2, 0.5, dtype=complex)}
    assert digest("jensen-map", args) == expected
    payload = json.loads(json.dumps(instance_to_json("jensen-map", **args)))
    assert digest(*instance_from_json(payload)) == expected


def test_digest_rejects_nonfinite_arguments_naming_the_field():
    with pytest.raises(SerializationError, match="field 'p'"):
        digest("bohr", _bohr_args(p=float("inf")))
    with pytest.raises(SerializationError, match="field 'z'"):
        digest("bohr", _bohr_args(z=complex(1.0, float("nan"))))
    with pytest.raises(SerializationError, match="field 'A'"):
        digest("zh", {"r": 2.0, "p": [1.0], "a_list": [np.full((2, 2), np.inf)]})


def test_signed_zeros_survive_decoding_and_the_digest():
    # re + 1j*im would turn a real part of -0.0 into 0.0 wherever the
    # imaginary part is +0.0, so the decoded arguments would pack to
    # other bytes than those the payload was encoded from.
    a = np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0)], [complex(0.0, -0.0), 1.0]])
    x = np.array([complex(-0.0, 0.0), complex(-0.0, -0.0)])
    args = {"f": make_function_spec("square", (-3.0, 3.0)), "a": a, "x": x}
    payload = json.loads(json.dumps(instance_to_json("jensen-vec", **args)))
    assert payload["A"]["re"][0] == [-0.0, -0.0] and str(payload["A"]["re"][0][0]) == "-0.0"
    theorem, decoded = instance_from_json(payload)
    assert np.array_equal(np.signbit(decoded["a"].real), np.signbit(a.real))
    assert np.array_equal(np.signbit(decoded["a"].imag), np.signbit(a.imag))
    assert np.array_equal(np.signbit(decoded["x"].real), np.signbit(x.real))
    assert digest(theorem, decoded) == digest("jensen-vec", args)


# --- instance payloads ----------------------------------------------------------------------


def test_bohr_payload_fields():
    obj = instance_to_json("bohr", z=1 + 2j, w=3 - 1j, p=2.0)
    assert obj["theorem"] == "bohr"
    assert scalar_from_json(obj["z"]) == 1 + 2j
    assert scalar_from_json(obj["w"]) == 3 - 1j
    assert obj["p"] == 2.0


def test_cor45_payload_fields_and_digest_stability():
    a = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    x = [np.eye(2, dtype=complex)] * 2
    obj = instance_to_json("cor45", a_list=a, x_list=x, p=[0.5, 0.5], r=2.0)
    assert obj["theorem"] == "cor45"
    assert obj["r"] == 2.0
    assert obj["p"] == [0.5, 0.5]
    assert len(obj["A"]) == 2 and len(obj["X"]) == 2
    args = {"a_list": a, "x_list": x, "p": [0.5, 0.5], "r": 2.0}
    assert digest("cor45", args) == digest(*instance_from_json(json.loads(json.dumps(obj))))


def test_jensen_payloads_embed_function_and_variant():
    f = make_function_spec("square", (-3.0, 3.0))
    a = np.diag([1.0, -1.0]).astype(complex)
    xv = np.array([0.6, 0.8], dtype=complex)
    vec = instance_to_json("jensen-vec", f=f, a=a, x=xv)
    assert vec["theorem"] == "jensen-vec"
    assert vec["f"]["id"] == "square"
    m = instance_to_json("jensen-map", f=f, a=a, spec=Congruence(np.eye(2)), x=xv, variant="unital")
    assert m["theorem"] == "jensen-map"
    assert m["variant"] == "unital"
    assert m["map"]["kind"] == "congruence"


def _generated(theorem, trial=0):
    cfg = CampaignConfig(theorem, 0, seed=11)
    return instance_to_json(theorem, **generate_instance(cfg, trial))


def test_theorem_table_and_aliases_match_the_schema():
    assert tuple(THEOREM_TABLE) == THEOREMS
    assert set(THEOREM_ALIASES.values()) <= set(THEOREMS)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_instance_round_trip_keeps_bytes_and_key_order(theorem):
    for trial in (0, 1):
        payload = _generated(theorem, trial)
        assert list(payload) == ["theorem"] + [key for key, _, _ in INSTANCE_SCHEMA[theorem]]
        name, args = instance_from_json(payload)
        assert name == theorem
        assert json.dumps(instance_to_json(name, **args)) == json.dumps(payload)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_instance_from_json_missing_field_message(theorem):
    payload = _generated(theorem)
    key = INSTANCE_SCHEMA[theorem][-1][0]
    del payload[key]
    with pytest.raises(SerializationError) as exc:
        instance_from_json(payload)
    assert str(exc.value) == f"instance for {theorem!r} is missing field {key!r}"


def test_instance_from_json_resolves_aliases_and_ignores_extra_keys():
    payload = dict(_generated("cor45"), theorem="cor4.5", note="ignored")
    theorem, args = instance_from_json(payload)
    assert theorem == "cor45"
    assert sorted(args) == ["a_list", "p", "r", "x_list"]


@pytest.mark.parametrize(
    "theorem, key, value",
    [
        ("zh", "r", "Infinity"),
        ("zh", "p", "[1.0, NaN]"),
        ("bohr", "p", "-Infinity"),
        ("bohr", "z", '{"re": Infinity, "im": 0.0}'),
        ("bohr", "w", '{"re": 0.0, "im": NaN}'),
        ("cornew", "alpha", "[Infinity]"),
        ("jensen-vec", "f", '{"id": "abs_pow", "J": [-3.0, 3.0], "r": Infinity}'),
        ("jensen-vec", "f", '{"id": "square", "J": [-Infinity, 3.0]}'),
        ("thm1", "maps", '[{"alpha": Infinity, "map": {"kind": "congruence", "X": %s}}]'),
        ("jensen-map", "map", '{"kind": "sum", "terms": [{"alpha": NaN, "map": '
         '{"kind": "congruence", "X": %s}}]}'),
    ],
)
def test_instance_from_json_rejects_nonfinite_numbers_naming_the_field(theorem, key, value):
    if "%s" in value:
        value %= json.dumps(matrix_to_json(np.eye(2)))
    payload = _generated(theorem)
    payload[key] = json.loads(value)
    with pytest.raises(SerializationError, match=f"field '{key}'"):
        instance_from_json(payload)
