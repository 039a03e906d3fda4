"""Positive and completely positive maps: Choi, Kraus, Stinespring, normalization."""

import dataclasses
import re
import typing
import warnings

import numpy as np
import pytest

from bohrcheck.cpmaps import (
    BlockExtraction,
    Congruence,
    DiagonalPOVM,
    MapSpec,
    SpecError,
    Transpose,
    WeightedSum,
    applied_to_identity,
    apply_map,
    choi_matrix,
    is_completely_positive,
    is_unital,
    kraus_from_choi,
    kraus_operators,
    map_dims,
    normalize_unital,
    stinespring,
)
from bohrcheck.linalg import (
    DimensionError,
    complex_gaussian,
    frob,
    hermitize,
    make_rng,
    random_hermitian,
    random_unitary,
)
from oracles import (
    applied_to_identity_chain,
    apply_chain,
    choi_via_kron,
    cp_by_lifted_positivity,
    entangled_projector,
    lifted_apply,
    map_dims_chain,
    normalize_unital_chain,
    povm_apply_loop,
)


def random_leaf(rng, n, m):
    """One structural leaf spec on input dim n, output dim m; CP by construction."""
    kind = int(rng.integers(3))
    if kind == 0:
        return Congruence(complex_gaussian((n, m), rng) / np.sqrt(n))
    if kind == 1:
        effects = []
        for _ in range(n):
            g = complex_gaussian((m, m), rng)
            effects.append(g @ g.conj().T / (n * m))
        return DiagonalPOVM(tuple(effects))
    splits = [b for b in range(1, n + 1) if n % b == 0]
    b = int(rng.choice(splits))
    return BlockExtraction(
        int(rng.integers(b)), b, complex_gaussian((n // b, m), rng) / np.sqrt(n // b)
    )


def random_structural(rng, n, m):
    if rng.uniform() < 0.3:
        terms = tuple(
            (float(rng.uniform(0.2, 1.0)), random_leaf(rng, n, m)) for _ in range(2)
        )
        return WeightedSum(terms)
    return random_leaf(rng, n, m)


# --- spec construction and application ----------------------------------------


def test_map_dims_per_kind():
    assert map_dims(Congruence(np.zeros((3, 2)))) == (3, 2)
    assert map_dims(DiagonalPOVM((np.eye(4), np.eye(4), np.eye(4)))) == (3, 4)
    assert map_dims(BlockExtraction(1, 3, np.zeros((2, 5)))) == (6, 5)
    assert map_dims(Transpose(4)) == (4, 4)
    ws = WeightedSum(((1.0, Congruence(np.zeros((3, 2)))),))
    assert map_dims(ws) == (3, 2)


def test_congruence_identity_and_scaling():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(apply_map(Congruence(np.eye(2)), a), a)
    assert np.allclose(apply_map(Congruence(2.0 * np.eye(2)), np.eye(2)), 4.0 * np.eye(2))


def test_povm_on_diagonal_input_with_eii_effects():
    effects = tuple(np.outer(e, e).astype(complex) for e in np.eye(3))
    spec = DiagonalPOVM(effects)
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.allclose(apply_map(spec, a), a, atol=1e-13)


def test_povm_rejects_non_psd_effect():
    with pytest.raises(SpecError):
        DiagonalPOVM((np.diag([1.0, -0.5]),))


@pytest.mark.parametrize(
    "first", [[1e308, -1e308], [-1e308, 1.0], [-1.0, 1e308], [1.0, 1e308, 1.0]]
)
def test_povm_refuses_an_effect_whose_eigenvalues_overflow(first):
    # Each first effect's Hermitian part overflows. The first three have a
    # negative eigenvalue and used to give NaN eigenvalues that passed the
    # PSD test; on the last, which is PSD, LAPACK did not converge.
    for dtype in (float, complex):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="^effect 0 has eigenvalues that overflow"):
                DiagonalPOVM([np.diag(first).astype(dtype), np.eye(len(first))])


@pytest.mark.parametrize("k", [0, 1, 3])
def test_povm_names_the_bad_effect(k):
    # All effects are checked in one stacked eigensolve; the message still
    # names the first failing effect.
    effects = [np.eye(2, dtype=complex) / 4 for _ in range(4)]
    effects[k] = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(SpecError, match=f"^effect {k} has eigenvalue -5.000e-01, not PSD"):
        DiagonalPOVM(tuple(effects))
    effects[k] = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(SpecError, match=f"^effect {k} is not Hermitian"):
        DiagonalPOVM(tuple(effects))
    # Effect 0 sets the expected shape, so a wrong-size effect 0 is
    # reported at effect 1.
    effects[k] = np.eye(3, dtype=complex)
    with pytest.raises(SpecError, match=f"^effect {max(k, 1)} has shape"):
        DiagonalPOVM(tuple(effects))
    # Ragged effects are named before numpy would try to stack them.
    effects[k] = np.ones(2, dtype=complex)
    with pytest.raises(SpecError, match=f"^effect {max(k, 1)} has shape"):
        DiagonalPOVM(tuple(effects))


def test_povm_from_a_stack_equals_povm_from_a_tuple():
    rng = make_rng(77)
    for n, m in ((1, 1), (3, 2), (4, 5)):
        g = np.stack([complex_gaussian((m, m), rng) for _ in range(n)])
        stacked = DiagonalPOVM(g @ g.conj().swapaxes(-1, -2) / (n * m))
        single = DiagonalPOVM(tuple(x @ x.conj().T / (n * m) for x in g))
        assert stacked.effects.shape == (n, m, m) and not stacked.effects.flags.writeable
        assert stacked.effects.tobytes() == single.effects.tobytes()
        a = random_hermitian(n, (-2.0, 2.0), rng)
        assert apply_map(stacked, a).tobytes() == apply_map(single, a).tobytes()
    # The spec keeps its own copy of the effects.
    effects = np.stack([np.eye(2, dtype=complex)] * 2)
    spec = DiagonalPOVM(effects)
    effects[0] = 0.0
    assert np.array_equal(spec.effects[0], np.eye(2))


def _povm_cases(count: int):
    """Seeded (spec, input) pairs: Gram effects, their real parts, some
    effects negated zero, with Hermitian, identity, zero, and
    signed-zero-diagonal inputs."""
    rng = make_rng(808)
    for case in range(count):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        g = complex_gaussian((n, m, m), rng)
        effects = g @ g.conj().swapaxes(-1, -2) / (n * m)
        if case % 3 == 1:
            effects = effects.real.astype(complex)
        elif case % 3 == 2:
            effects[rng.uniform(size=n) < 0.5] = -0.0
        spec = DiagonalPOVM(effects)
        signed = np.diag(rng.choice([-1.5, -0.0, 0.0, 2.0], size=n)).astype(complex)
        for a in (random_hermitian(n, (-2.0, 2.0), rng), np.eye(n), np.zeros((n, n)), signed):
            yield spec, np.asarray(a, dtype=complex)


def test_povm_apply_is_the_per_effect_loop_bit_for_bit():
    # One broadcast product summed in effect order from +0. np.add.reduce
    # over the effect axis sums in another order, and the count below shows
    # that these cases tell the two apart.
    reduce_differs = 0
    for spec, a in _povm_cases(600):
        expected = povm_apply_loop(spec.effects, a)
        assert spec._apply(a).tobytes() == expected.tobytes()
        assert apply_map(spec, a).tobytes() == expected.tobytes()
        terms = np.diagonal(a)[:, None, None] * spec.effects
        reduce_differs += np.add.reduce(terms, axis=0).tobytes() != expected.tobytes()
    assert reduce_differs > 0


def test_block_extraction_picks_the_right_block():
    x = np.eye(2, dtype=complex)
    spec = BlockExtraction(1, 2, x)
    a = np.zeros((4, 4), dtype=complex)
    a[2:, 2:] = np.array([[5.0, 1.0], [1.0, 7.0]])
    assert np.allclose(apply_map(spec, a), a[2:, 2:])
    with pytest.raises(SpecError):
        BlockExtraction(2, 2, x)


def test_weighted_sum_linearity_and_dim_checks():
    c1 = Congruence(np.eye(2))
    c2 = Congruence(2.0 * np.eye(2))
    ws = WeightedSum(((0.5, c1), (0.25, c2)))
    a = random_hermitian(2, (-1, 1), make_rng(50))
    want = 0.5 * apply_map(c1, a) + 0.25 * apply_map(c2, a)
    assert np.allclose(apply_map(ws, a), want)
    with pytest.raises(SpecError):
        WeightedSum(((1.0, c1), (1.0, Congruence(np.eye(3)))))
    with pytest.raises(SpecError):
        WeightedSum(((-0.5, c1),))


def test_apply_map_on_nested_weighted_sums_is_the_weighted_leaf_sum():
    rng = make_rng(51)
    n, m = 4, 3
    leaves = [random_leaf(rng, n, m) for _ in range(4)]
    inner = WeightedSum(((0.5, leaves[0]), (2.0, leaves[1])))
    middle = WeightedSum(((0.25, inner), (1.5, leaves[2])))
    outer = WeightedSum(((3.0, middle), (0.75, leaves[3])))
    coefficient = (3.0 * 0.25 * 0.5, 3.0 * 0.25 * 2.0, 3.0 * 1.5, 0.75)
    for _ in range(5):
        a = random_hermitian(n, (-2.0, 2.0), rng)
        want = sum(c * apply_map(leaf, a) for c, leaf in zip(coefficient, leaves))
        got = apply_map(outer, a)
        assert got.shape == (m, m)
        assert frob(got - want) <= 1e-12 * max(1.0, frob(want))
    with pytest.raises(DimensionError):
        apply_map(outer, np.eye(n + 1))


def test_apply_map_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_map(Congruence(np.eye(2)), np.eye(3))


def test_apply_map_preserves_positivity():
    rng = make_rng(51)
    for _ in range(200):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        g = complex_gaussian((n, n), rng)
        psd = g @ g.conj().T
        out = apply_map(spec, psd)
        w = np.linalg.eigvalsh(hermitize(out))
        assert w[0] >= -1e-9 * max(1.0, w[-1])


def test_transpose_application():
    a = np.array([[1.0, 2.0j], [0.0, 3.0]], dtype=complex)
    assert np.allclose(apply_map(Transpose(2), a), a.T)


# --- each kind's members against the isinstance chains they replaced -------------


def test_every_map_kind_owns_its_dims_application_and_conjugation():
    kinds = typing.get_args(MapSpec)
    assert len(kinds) == 5
    for cls in kinds:
        assert isinstance(cls.dims, property), cls
        assert callable(cls._apply) and callable(cls._post_conjugate), cls
    with pytest.raises(SpecError, match="^unknown map spec type ndarray$"):
        map_dims(np.eye(2))
    with pytest.raises(SpecError, match="^unknown map spec type ndarray$"):
        WeightedSum(((1.0, np.eye(2)),))
    with pytest.raises(SpecError, match="^cannot absorb a conjugation into map kind Transpose$"):
        Transpose(2)._post_conjugate(np.eye(2))


def _spec_bytes(spec) -> list:
    """A spec's kind and the bytes of its fields, its terms' recursively."""
    out = [type(spec).__name__]
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if f.name == "terms":
            out += [item for a, sub in v for item in (repr(a), *_spec_bytes(sub))]
        else:
            out.append(v.tobytes() if isinstance(v, np.ndarray) else repr(v))
    return out


def _specs_of_every_kind(rng):
    """Seeded leaves of each structural kind, transposes, and weighted sums
    nested two deep, on random dimensions; three terms make the summation
    order show in the bits."""
    specs = [Transpose(3), WeightedSum(((0.5, Transpose(3)), (2.0, Transpose(3))))]
    for _ in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        leaves = [random_leaf(rng, n, m) for _ in range(3)]
        inner = WeightedSum(((0.5, leaves[0]), (2.0, leaves[1])))
        outer = WeightedSum(((0.25, inner), (1.5, leaves[2]), (0.75, leaves[0])))
        specs += [*leaves, inner, outer]
    return specs


def test_map_members_match_the_isinstance_chains_bit_for_bit():
    rng = make_rng(64)
    specs = _specs_of_every_kind(rng)
    assert {type(spec) for spec in specs} == set(typing.get_args(MapSpec))
    normalized, refused = [], 0
    for spec in specs:
        try:
            psi = normalize_unital(spec)
        except SpecError as exc:
            with pytest.raises(SpecError, match=f"^{re.escape(str(exc))}$"):
                normalize_unital_chain(spec)
            refused += 1
            continue
        want = normalize_unital_chain(spec)
        assert (psi is spec) == (want is spec)
        assert _spec_bytes(psi) == _spec_bytes(want)
        if psi is not spec:
            normalized.append(psi)
    assert refused > 0 and len(normalized) > 100
    for spec in specs + normalized:
        n, m = map_dims(spec)
        assert (n, m) == map_dims_chain(spec)
        assert applied_to_identity(spec).tobytes() == applied_to_identity_chain(spec).tobytes()
        signed = np.diag(rng.choice([-1.5, -0.0, 0.0, 2.0], size=n)).astype(complex)
        for a in (random_hermitian(n, (-2.0, 2.0), rng), complex_gaussian((n, n), rng), signed):
            out = apply_map(spec, a)
            assert out.shape == (m, m)
            assert out.tobytes() == apply_chain(spec, a).tobytes()


# --- unitality ------------------------------------------------------------------


def test_unitality_predicates():
    assert is_unital(Congruence(np.eye(3)))
    assert is_unital(Transpose(3))
    half = Congruence(np.sqrt(0.5) * np.eye(3))
    assert not is_unital(half)
    big = Congruence(2.0 * np.eye(3))
    assert np.allclose(applied_to_identity(big), 4.0 * np.eye(3))


# --- Choi matrices -----------------------------------------------------------------


def test_choi_identity_map_eigenvalues():
    c = choi_matrix(Congruence(np.eye(2)))
    assert np.allclose(np.linalg.eigvalsh(c), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_transpose_is_swap():
    c = choi_matrix(Transpose(2))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.allclose(c, swap, atol=1e-13)
    assert np.allclose(np.linalg.eigvalsh(c), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_choi_of_normalized_trace_map():
    n = 3
    spec = DiagonalPOVM(tuple(np.eye(n, dtype=complex) / n for _ in range(n)))
    c = choi_matrix(spec)
    assert np.allclose(c, np.eye(n * n) / n, atol=1e-13)


def test_choi_matches_kron_oracle():
    rng = make_rng(52)
    for _ in range(60):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        assert frob(choi_matrix(spec) - choi_via_kron(spec)) <= 1e-12


def test_choi_linearity_over_weighted_sums():
    rng = make_rng(53)
    for _ in range(30):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        s1 = random_leaf(rng, n, m)
        s2 = random_leaf(rng, n, m)
        a1, a2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        combined = choi_matrix(WeightedSum(((a1, s1), (a2, s2))))
        assert frob(combined - a1 * choi_matrix(s1) - a2 * choi_matrix(s2)) <= 1e-11


def test_choi_equals_lifted_map_on_entangled_projector():
    rng = make_rng(54)
    for _ in range(20):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        assert frob(lifted_apply(spec, entangled_projector(n)) - choi_matrix(spec)) <= 1e-12


# --- complete positivity ----------------------------------------------------------


def test_structural_kinds_are_cp():
    rng = make_rng(55)
    for _ in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        assert is_completely_positive(random_structural(rng, n, m))


def test_transpose_is_not_cp():
    assert not is_completely_positive(Transpose(2))
    assert not is_completely_positive(Transpose(4))


def test_is_cp_agrees_with_lifted_positivity_oracle():
    rng = make_rng(56)
    for trial in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        if trial % 4 == 0:
            # Mix a non-CP transpose into an otherwise structural sum; the
            # verdict is genuinely data-dependent.
            spec = WeightedSum(
                (
                    (float(rng.uniform(0.1, 1.0)), random_leaf(rng, n, n)),
                    (float(rng.uniform(0.1, 1.0)), Transpose(n)),
                )
            )
        else:
            spec = random_structural(rng, n, m)
        assert is_completely_positive(spec) == cp_by_lifted_positivity(spec, rng)


# --- Kraus extraction ----------------------------------------------------------------


def test_kraus_identity_map_single_operator():
    ops = kraus_operators(Congruence(np.eye(2)))
    assert len(ops) == 1
    k = ops[0]
    phase = k[0, 0] / abs(k[0, 0])
    assert np.allclose(k / phase, np.eye(2), atol=1e-12)


def test_kraus_unitary_conjugation_single_operator():
    u = random_unitary(3, make_rng(57))
    ops = kraus_operators(Congruence(u))
    assert len(ops) == 1
    ratio = ops[0] / u
    assert np.allclose(ratio, ratio[0, 0] * np.ones((3, 3)), atol=1e-11)
    assert abs(abs(ratio[0, 0]) - 1.0) <= 1e-11


def test_kraus_count_equals_choi_rank():
    rng = make_rng(58)
    for _ in range(30):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        spec = random_structural(rng, n, m)
        c = choi_matrix(spec)
        w = np.linalg.eigvalsh(hermitize(c))
        rank = int(np.sum(w > 1e-10 * max(w[-1], 0.0)))
        assert len(kraus_operators(spec)) == rank


def test_kraus_reconstruction_round_trip():
    rng = make_rng(59)
    for _ in range(200):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        ops = kraus_operators(spec)
        for _ in range(3):
            a = random_hermitian(n, (-2.0, 2.0), rng)
            direct = apply_map(spec, a)
            via = sum(k.conj().T @ a @ k for k in ops)
            assert frob(direct - via) <= 1e-9 * max(1.0, frob(direct))


def test_kraus_from_choi_rejects_non_psd():
    with pytest.raises(SpecError):
        kraus_from_choi(choi_matrix(Transpose(2)), 2, 2)
    with pytest.raises(DimensionError):
        kraus_from_choi(np.eye(4), 3, 2)


# --- Stinespring dilation ---------------------------------------------------------------


def test_stinespring_identity_map():
    dil = stinespring(Congruence(np.eye(3)))
    assert dil.block_count == 1
    assert dil.recon_residual <= 1e-12
    phase = dil.isometry[0, 0] / abs(dil.isometry[0, 0])
    assert np.allclose(dil.isometry / phase, np.eye(3), atol=1e-12)


def test_stinespring_two_kraus_mixture():
    u = random_unitary(3, make_rng(60))
    spec = WeightedSum(((0.5, Congruence(np.eye(3))), (0.5, Congruence(u))))
    dil = stinespring(spec)
    assert dil.block_count == 2
    assert frob(dil.isometry.conj().T @ dil.isometry - np.eye(3)) <= 1e-10


def test_stinespring_unital_povm_isometry():
    effects = tuple(np.outer(e, e).astype(complex) for e in np.eye(3))
    dil = stinespring(DiagonalPOVM(effects))
    assert frob(dil.isometry.conj().T @ dil.isometry - np.eye(3)) <= 1e-10


def test_stinespring_zero_map_keeps_its_input_dimension():
    # With no Kraus operators the isometry has no rows, so only the Kraus
    # stack's shape records that the map acts on 3 x 3 inputs.
    zero = stinespring(Congruence(np.zeros((3, 2))))
    assert zero.block_count == 0 and zero.kraus.shape == (0, 3, 2)
    assert zero.isometry.shape == (0, 2)
    assert np.array_equal(zero.represent(np.eye(3)), np.zeros((2, 2)))
    one = stinespring(Congruence(np.ones((3, 2))))
    message = r"^dilation expects input dimension 3, got \(5, 5\)$"
    for dil in (zero, one):
        with pytest.raises(DimensionError, match=message):
            dil.represent(np.eye(5))


def test_stinespring_represent_matches_apply():
    rng = make_rng(61)
    for _ in range(30):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        dil = stinespring(spec)
        a = random_hermitian(n, (-2.0, 2.0), rng)
        assert frob(dil.represent(a) - apply_map(spec, a)) <= 1e-9 * max(
            1.0, frob(apply_map(spec, a))
        )


def test_stinespring_rejects_transpose():
    with pytest.raises(SpecError):
        stinespring(Transpose(3))


def _choi_path_specs(rng, count):
    """Seeded specs of every wire kind, unital normalizations of them, and
    weighted sums with a Transpose term, which are CP or not by their weights."""
    specs = []
    while len(specs) < count:
        n = int(rng.integers(2, 5))
        kind = len(specs) % 3
        if kind == 0:
            specs.append(random_structural(rng, n, int(rng.integers(2, 5))))
        elif kind == 1:
            try:
                specs.append(normalize_unital(random_structural(rng, n, n)))
            except SpecError:  # Phi(I) is singular; draw again
                pass
        else:
            terms = ((float(rng.uniform(0.2, 1.0)), random_leaf(rng, n, n)),
                     (float(rng.uniform(0.001, 0.05)), Transpose(n)))
            specs.append(WeightedSum(terms))
    return specs


def test_kraus_fails_exactly_when_not_cp_and_the_dilation_reconstructs():
    # is_completely_positive, kraus_from_choi and stinespring read one
    # Choi eigendecomposition, so their verdicts cannot drift apart.
    rng = make_rng(63)
    mixed = []  # verdicts on the sums with a Transpose term
    for spec in _choi_path_specs(rng, 150):
        n, m = map_dims(spec)
        cp = is_completely_positive(spec)
        if isinstance(spec, WeightedSum) and isinstance(spec.terms[-1][1], Transpose):
            mixed.append(cp)
        if not cp:
            with pytest.raises(SpecError, match="not PSD within tolerance"):
                kraus_from_choi(choi_matrix(spec), n, m)
            with pytest.raises(SpecError, match="not PSD within tolerance"):
                stinespring(spec)
            continue
        assert len(kraus_from_choi(choi_matrix(spec), n, m)) >= 1
        dil = stinespring(spec)
        for _ in range(3):
            a = random_hermitian(n, (-2.0, 2.0), rng)
            direct = apply_map(spec, a)
            assert frob(dil.represent(a) - direct) <= 1e-10 * max(1.0, frob(direct))
    assert mixed.count(False) >= 10 and mixed.count(True) >= 3


# --- unital normalization ---------------------------------------------------------------


def test_normalize_unital_fast_path_returns_same_object():
    spec = Congruence(np.eye(3))
    assert normalize_unital(spec) is spec
    tr = Transpose(3)
    assert normalize_unital(tr) is tr


def test_normalize_unital_keeps_what_is_unital_accepts():
    # ||Phi(I) - I||_F is about 1e-11 * sqrt(n): unital by PSD_TOL, so the
    # spec comes back as it is; 1e-9 * sqrt(n) is not, and is normalized.
    n = 3
    for delta, kept in ((1e-11, True), (1e-9, False)):
        spec = Congruence(np.sqrt(1.0 + delta) * np.eye(n))
        defect = frob(applied_to_identity(spec) - np.eye(n)) / np.sqrt(n)
        assert 0.5 * delta < defect < 2.0 * delta
        assert is_unital(spec) is kept
        assert (normalize_unital(spec) is spec) is kept
        assert is_unital(normalize_unital(spec))


def test_normalize_unital_congruence():
    rng = make_rng(62)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        x = complex_gaussian((n, n), rng) + 2.0 * np.eye(n)  # keep X*X well conditioned
        psi = normalize_unital(Congruence(x))
        assert frob(applied_to_identity(psi) - np.eye(n)) <= 1e-10 * np.sqrt(n)


def test_normalize_unital_matches_explicit_conjugation():
    rng = make_rng(63)
    for _ in range(30):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_structural(rng, n, m)
        t = applied_to_identity(spec)
        w, u = np.linalg.eigh(t)
        if w[0] <= 1e-6 * w[-1]:
            continue
        s = (u * w**-0.5) @ u.conj().T
        psi = normalize_unital(spec)
        a = random_hermitian(n, (-2.0, 2.0), rng)
        want = s @ apply_map(spec, a) @ s
        assert frob(apply_map(psi, a) - want) <= 1e-9 * max(1.0, frob(want))


def test_normalize_unital_rejects_singular_phi_of_identity():
    x = np.zeros((2, 2), dtype=complex)
    x[0, 0] = 1.0  # X*X = diag(1, 0), singular
    with pytest.raises(SpecError):
        normalize_unital(Congruence(x))


def test_normalize_unital_rejects_nonunital_transpose_composition():
    # A scaled transpose is not unital and its conjugation cannot be pushed
    # into leaves of a non-structural kind.
    spec = WeightedSum(((0.5, Transpose(3)),))
    with pytest.raises(SpecError):
        normalize_unital(spec)
