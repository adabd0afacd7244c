import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlbounds import (
    AllocationPlan,
    GeneratorSet,
    HermitianOperator,
    InvalidArgumentError,
    QfiMatrix,
    ReparamMatrix,
    ResourceLimitError,
    SaturabilityReport,
    SimplexSpectrum,
    allocate,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    combine,
    eigenvalue_patterns,
    elfving_variance_oracle,
    max_spread_over_sphere,
    optimize_orthogonal_bound,
    rotated_spreads,
    rotation_bound_ceiling,
    rotation_bound_value,
    spread,
    walsh_hadamard,
)
import hlbounds.operators as operators_module
from hlbounds.catalog import figure_ratio_data
from hlbounds.bounds import (
    jnt_lower_bound,
    orthogonal_restricted_sep_plus,
    sep_plus_lower_bound,
)
from hlbounds.qfi import qfi_pure, saturability
from hlbounds.states import PhaseStateCoefficients, PureState, evolve, uniform_state

SQ2 = math.sqrt(2.0)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# spread / combine


def test_spread_sigma_z_half():
    assert spread(HermitianOperator(np.diag([0.5, -0.5]))) == pytest.approx(1.0)


def test_spread_two_sector_generator():
    # direct eigenvalue list of diag(a, -a, b, -b)/2 with a=1, b=0.5
    op = HermitianOperator(0.5 * np.diag([1.0, -1.0, 0.5, -0.5]))
    assert spread(op) == pytest.approx(1.0, abs=1e-12)


def test_spread_zero_matrix():
    assert spread(HermitianOperator(np.zeros((3, 3)))) == 0.0


def test_combine_basis_vector():
    gens = build_fixed_atom_generators(2)
    out = combine(gens, [1.0, 0.0])
    np.testing.assert_allclose(out.entries, gens.generators[0].entries)


def test_combine_uniform_fixed_atoms():
    gens = build_fixed_atom_generators(2)
    out = combine(gens, np.array([1.0, 1.0]) / SQ2)
    assert spread(out) == pytest.approx(SQ2, abs=1e-12)


def test_combine_uniform_free_atoms():
    # orthogonal supports: eigenvalues +-1/(2 sqrt(2)), so the spread is
    # 1/sqrt(2) (explicit diagonalization of the combination)
    gens = build_free_atom_generators(2)
    out = combine(gens, np.array([1.0, 1.0]) / SQ2)
    w = np.linalg.eigvalsh(out.entries)
    np.testing.assert_allclose(sorted(np.abs(w)), [1 / (2 * SQ2)] * 4, atol=1e-12)
    assert spread(out) == pytest.approx(1 / SQ2, abs=1e-12)


def test_combine_length_mismatch():
    gens = build_fixed_atom_generators(2)
    with pytest.raises(InvalidArgumentError):
        combine(gens, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# constructors


def test_fixed_atoms_p1():
    gens = build_fixed_atom_generators(1)
    np.testing.assert_allclose(gens.generators[0].entries, np.diag([0.5, -0.5]))
    assert gens.commuting


def test_fixed_atoms_p2_spreads():
    gens = build_fixed_atom_generators(2)
    assert gens.dim == 4
    for g in gens.generators:
        assert g.is_diagonal()
        assert spread(g) == pytest.approx(1.0)


def test_fixed_atoms_p3_second_generator():
    gens = build_fixed_atom_generators(3)
    expected = 0.5 * np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=float)
    np.testing.assert_allclose(np.diag(gens.generators[1].entries).real, expected)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_fixed_atom_patterns_match_the_kronecker_products(p):
    # reference: sigma_z / 2 on atom i as a Kronecker product
    sz = np.diag([0.5, -0.5])
    dense = [np.kron(np.kron(np.eye(2 ** i), sz), np.eye(2 ** (p - i - 1))) for i in range(p)]
    np.testing.assert_array_equal(build_fixed_atom_generators(p).matrices(), dense)


def test_fixed_atoms_cap():
    with pytest.raises(ResourceLimitError):
        build_fixed_atom_generators(13)


def _peak_bytes(fn):
    """The tracemalloc peak while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_free_atoms_cap_fails_before_any_allocation():
    def build():
        with pytest.raises(ResourceLimitError):
            build_free_atom_generators(2049)

    assert _peak_bytes(build) < 100_000


def test_fixed_atoms_p10_patterns_take_under_10_mb():
    # a fresh build (past the cache) and its distinct patterns
    build = build_fixed_atom_generators.__wrapped__
    assert _peak_bytes(lambda: operators_module.distinct_patterns(build(10))) < 10 * 2 ** 20


def test_diagonal_sets_hold_only_their_patterns():
    gens = build_fixed_atom_generators.__wrapped__(6)
    psi = uniform_state(64)
    qfi_pure(gens, np.zeros(6), psi)
    saturability(gens, np.zeros(6), psi)
    optimize_orthogonal_bound(gens)
    assert "generators" not in vars(gens)
    assert gens.patterns.shape == (64, 6) and not gens.patterns.flags.writeable
    # the dense matrices are built on request and hold the same patterns
    mats = gens.matrices()
    np.testing.assert_array_equal(np.diagonal(mats, axis1=1, axis2=2).T, gens.patterns)
    assert np.count_nonzero(mats) == 6 * 64


def test_dense_diagonal_input_becomes_patterns():
    dense = GeneratorSet((np.diag([0.5, -0.5, 0.0, 0.0]), np.diag([0.0, 0.0, 0.5, -0.5])))
    built = build_free_atom_generators(2)
    assert dense.diagonal and dense.commuting
    np.testing.assert_array_equal(dense.patterns, built.patterns)
    assert np.all(np.signbit(built.patterns) == (built.patterns < 0))  # no -0.0
    assert not build_pauli_generators("xy").diagonal
    assert build_pauli_generators("xy").patterns is None
    np.testing.assert_array_equal(build_pauli_generators("z").patterns, [[0.5], [-0.5]])


def test_pattern_paths_match_the_dense_paths_in_a_rotated_basis():
    # U Lambda U^dagger is the same model in another basis and takes the dense
    # branches of spread_ceiling, combine, evolve and the QFI overlap
    rng = np.random.default_rng(8)
    diag = GeneratorSet(tuple(np.diag(rng.standard_normal(5)) for _ in range(3)))
    u = random_unitary(5, rng)
    dense = GeneratorSet(tuple(u @ m @ u.conj().T for m in diag.matrices()))
    assert diag.diagonal and not dense.diagonal and dense.commuting
    assert operators_module.spread_ceiling(diag) == pytest.approx(
        operators_module.spread_ceiling(dense), rel=1e-12)
    a, theta = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(np.sort(np.diag(combine(diag, a).entries).real),
                               np.linalg.eigvalsh(combine(dense, a).entries), atol=1e-12)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(u @ evolve(diag, theta, PureState(v)).amplitudes,
                               evolve(dense, theta, PureState(u @ v)).amplitudes, atol=1e-12)
    np.testing.assert_allclose(qfi_pure(diag, theta, PureState(v)).entries,
                               qfi_pure(dense, theta, PureState(u @ v)).entries, atol=1e-12)


@pytest.mark.parametrize("patterns", [
    [[math.nan]], [[math.inf, 1.0]], [[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0],
    np.zeros((0, 2)),
], ids=["nan", "inf", "dependent", "one-dimensional", "empty"])
def test_from_patterns_rejects_bad_input(patterns):
    with pytest.raises(InvalidArgumentError):
        GeneratorSet.from_patterns(patterns)


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
@pytest.mark.parametrize("eps, independent", [(1e-3, True), (1e-6, False)])
def test_independence_test_is_relative(eps, independent, scale):
    # the pattern Gram [[1, 1], [1, 1 + eps^2]] has eigenvalues of about eps^2 / 2
    # and 2; the test rejects a ratio at or below 1e-10, at any scale of the set
    patterns = scale * np.array([[1.0, 1.0], [0.0, eps], [0.0, 0.0]])
    if independent:
        assert GeneratorSet.from_patterns(patterns).p == 2
    else:
        with pytest.raises(InvalidArgumentError, match="not linearly independent"):
            GeneratorSet.from_patterns(patterns)


@pytest.mark.parametrize("scale", [1e-14, 1e-5, 1.0, 1e5])
@pytest.mark.parametrize("components", ["xz", "xyz"])
def test_generator_classification_is_relative(components, scale):
    # s Lambda is classified as Lambda, and gives every constant over s^2
    # (an absolute test read xz as commuting at 1e-5 and as diagonal, hence
    # dependent, at 1e-14)
    base = build_pauli_generators(components)
    gens = GeneratorSet([scale * m for m in base.matrices()])
    assert not gens.commuting and not gens.diagonal
    for paradigm in ("cr", "mm"):
        for bound in (sep_plus_lower_bound, jnt_lower_bound):
            assert bound(gens, paradigm).constant * scale ** 2 == pytest.approx(
                bound(base, paradigm).constant, rel=1e-14, abs=0)


_ROUNDED = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 0.25, -0.25, 1.0, 1.0 + 1e-13, -1.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(_ROUNDED, min_size=k, max_size=k), min_size=1, max_size=20)))
def test_unique_matches_numpy(rows):
    # np.round turns the +-1e-13 entries into +-0.0, which are equal
    x = np.round(np.array(rows), 12)
    got, got_index = operators_module.unique(x)
    want, want_index = np.unique(x, axis=0, return_index=True)
    assert got.tobytes() == want.tobytes()
    assert got_index.tolist() == want_index.tolist()
    for column in x.T:
        assert operators_module.unique(column).tobytes() == np.unique(column).tobytes()


def test_free_atoms():
    gens = build_free_atom_generators(2)
    np.testing.assert_allclose(
        np.diag(gens.generators[0].entries).real, [0.5, -0.5, 0.0, 0.0]
    )
    np.testing.assert_allclose(
        np.diag(gens.generators[1].entries).real, [0.0, 0.0, 0.5, -0.5]
    )
    for p in (1, 3, 5):
        for g in build_free_atom_generators(p).generators:
            assert spread(g) == pytest.approx(1.0)


def test_pauli_generators():
    gens = build_pauli_generators("xyz")
    assert gens.p == 3 and not gens.commuting
    for g in gens.generators:
        assert spread(g) == pytest.approx(1.0)
    assert not build_pauli_generators("xy").commuting
    assert build_pauli_generators("z").commuting
    with pytest.raises(InvalidArgumentError):
        build_pauli_generators("")
    with pytest.raises(InvalidArgumentError):
        build_pauli_generators("xq")


def test_two_sector_requires_ordered_strengths():
    with pytest.raises(InvalidArgumentError):
        build_two_sector_generators(0.5, 1.0)


_BAD_STRENGTHS = [
    (math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf), (1.0, -math.inf),
    (1.0, 0.0), (1.0, 1.0), (1e76, 0.5), (1e308, 0.5), (1e-76, 1e-77), (1e-200, 1e-201),
]


@pytest.mark.parametrize("alpha, beta", _BAD_STRENGTHS)
def test_two_sector_strengths_are_checked_before_any_square(alpha, beta):
    # past 1e75 (or below 1e-75) alpha^4 overflows (or underflows): the
    # closed form would read inf, 0 or nan instead of failing
    with pytest.raises(InvalidArgumentError):
        operators_module.check_two_sector_strengths(alpha, beta)
    with pytest.raises(InvalidArgumentError):
        build_two_sector_generators(alpha, beta)
    with pytest.raises(InvalidArgumentError):
        orthogonal_restricted_sep_plus((alpha, beta))
    with pytest.raises(InvalidArgumentError):
        figure_ratio_data(alpha, [beta])


@pytest.mark.parametrize("alpha", [1e-75, 1e75])
def test_two_sector_strength_range_ends_are_accepted(alpha):
    rows = figure_ratio_data(alpha, [alpha / 4, alpha / 2, 3 * alpha / 4])
    assert [r["ratio"] for r in rows] == pytest.approx([1.3840830449826989, 1.44, 1.2544])
    assert build_two_sector_generators(alpha, alpha / 2).p == 2


_NAN = math.nan


@pytest.mark.parametrize("build", [
    lambda: PhaseStateCoefficients(1, [_NAN, 0]),
    lambda: PureState([_NAN, 1]),
    lambda: HermitianOperator([[_NAN, 0], [0, 1]]),
    lambda: QfiMatrix([[_NAN]]),
    lambda: allocate([1, _NAN], 1),
    lambda: GeneratorSet((np.diag([_NAN, 1.0]),)),
    lambda: SimplexSpectrum(2, 0.1, 1.0, 1, _NAN, np.zeros((1, 2)), np.ones(1), np.ones(1)),
], ids=["phase_coefficients", "pure_state", "hermitian", "qfi", "allocate", "generator_set",
        "simplex_residual"])
def test_constructors_reject_nan(build):
    # each check is written so that a NaN fails it
    with pytest.raises(InvalidArgumentError):
        build()


# ---------------------------------------------------------------------------
# reparametrizations


def test_walsh_hadamard_small():
    assert walsh_hadamard(0).entries.tolist() == [[1.0]]
    np.testing.assert_allclose(
        walsh_hadamard(1).entries, np.array([[1, 1], [1, -1]]) / SQ2
    )
    o = walsh_hadamard(2)
    np.testing.assert_allclose(o.entries.T @ o.entries, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_walsh_hadamard_symmetric_involutory(r):
    o = walsh_hadamard(r).entries
    np.testing.assert_allclose(o, o.T, atol=0)
    np.testing.assert_allclose(o @ o, np.eye(2 ** r), atol=1e-14)


def test_rotate_fixed_atoms_hadamard():
    gens = build_fixed_atom_generators(2)
    spreads = rotated_spreads(gens, walsh_hadamard(1))
    np.testing.assert_allclose(spreads, [SQ2, SQ2], atol=1e-12)


def test_rotate_free_atoms_hadamard():
    gens = build_free_atom_generators(2)
    spreads = rotated_spreads(gens, walsh_hadamard(1))
    np.testing.assert_allclose(spreads, [1 / SQ2, 1 / SQ2], atol=1e-12)


def test_rotate_identity_is_noop():
    gens = build_free_atom_generators(3)
    np.testing.assert_allclose(rotated_spreads(gens, ReparamMatrix(np.eye(3))),
                               [spread(g) for g in gens.generators])


def test_rotate_dimension_mismatch():
    gens = build_free_atom_generators(3)
    with pytest.raises(InvalidArgumentError):
        rotated_spreads(gens, walsh_hadamard(1))


def test_rotation_convention_is_a_transpose():
    # generator i of the rotated set is sum_j A[j, i] Lambda_j: with columns
    # (1, 0) and (2, 1) the free-atom spreads are 1 and 2 (A Lambda would
    # give 2 and 1)
    gens = build_free_atom_generators(2)
    a = ReparamMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    np.testing.assert_allclose(rotated_spreads(gens, a), [1.0, 2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# searches


def test_max_spread_fixed_atoms_p4():
    a, value = max_spread_over_sphere(build_fixed_atom_generators(4))
    assert value == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(np.abs(a), 0.5, atol=1e-10)


def test_max_spread_free_atoms():
    _, value = max_spread_over_sphere(build_free_atom_generators(3))
    assert value == pytest.approx(1.0, abs=1e-10)


def test_max_spread_pauli():
    # a . sigma/2 has the same eigenvalues for every unit a
    _, value = max_spread_over_sphere(build_pauli_generators("xyz"))
    assert value == pytest.approx(1.0, abs=1e-8)


def test_orthogonal_bound_fixed_atoms():
    o, value = optimize_orthogonal_bound(build_fixed_atom_generators(2))
    assert value == pytest.approx(2.0, abs=1e-9)
    # the identity parametrization is optimal here
    np.testing.assert_allclose(np.abs(o.entries), np.eye(2), atol=1e-6)


def test_orthogonal_bound_free_atoms():
    _, value = optimize_orthogonal_bound(build_free_atom_generators(2))
    assert value == pytest.approx(4.0, abs=1e-9)


def test_orthogonal_bound_pauli_xy():
    _, value = optimize_orthogonal_bound(build_pauli_generators("xy"))
    assert value == pytest.approx(2.0, abs=1e-9)


def test_orthogonal_bound_diagonal_path_matches_dense_path():
    # U Lambda_i U^dagger still commutes but is not diagonal, so its search
    # takes the eigvalsh path instead of the rotated-diagonal ranges; free
    # atoms at p=3 stay below their ceiling, so both searches run
    gens = build_free_atom_generators(3)
    u = random_unitary(gens.dim, np.random.default_rng(5))
    dense = GeneratorSet(tuple(u @ m @ u.conj().T for m in gens.matrices()))
    assert not any(g.is_diagonal() for g in dense.generators)
    _, diagonal_value = optimize_orthogonal_bound(gens)
    _, dense_value = optimize_orthogonal_bound(dense)
    assert dense_value == pytest.approx(diagonal_value, rel=1e-9)


# ---------------------------------------------------------------------------
# invariants


def test_spread_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianOperator(h + h.conj().T)
        u = random_unitary(5, rng)
        rotated = HermitianOperator(u @ h.entries @ u.conj().T)
        assert spread(rotated) == pytest.approx(spread(h), abs=1e-10)


def test_spread_convex_in_coefficients():
    gens = build_pauli_generators("xyz")
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        mid = spread(combine(gens, (a + b) / 2))
        avg = 0.5 * (spread(combine(gens, a)) + spread(combine(gens, b)))
        assert mid <= avg + 1e-10


def test_orthogonal_rotation_preserves_gram_and_independence():
    gens = build_two_sector_generators(1.0, 0.5)

    def gram_det(gs):
        mats = gs.matrices()
        g = np.real(np.einsum("aij,bij->ab", mats.conj(), mats))
        return np.linalg.det(g)

    o = walsh_hadamard(1).entries
    rotated = GeneratorSet(tuple(combine(gens, col) for col in o.T))  # raises if dependent
    assert np.sign(gram_det(rotated)) == np.sign(gram_det(gens))


def test_max_spread_at_least_each_generator():
    for gens in (
        build_fixed_atom_generators(3),
        build_free_atom_generators(4),
        build_pauli_generators("xyz"),
        build_two_sector_generators(1.0, 0.3),
    ):
        _, value = max_spread_over_sphere(gens)
        assert value >= max(spread(g) for g in gens.generators) - 1e-10


def test_orthogonal_bound_at_least_identity_value():
    for gens in (
        build_fixed_atom_generators(3),
        build_free_atom_generators(3),
        build_pauli_generators("xyz"),
    ):
        identity = ReparamMatrix(np.eye(gens.p))
        _, value = optimize_orthogonal_bound(gens)
        assert value >= rotation_bound_value(gens, identity) - 1e-10


@pytest.mark.parametrize("build", [lambda: build_free_atom_generators(3),
                                   lambda: build_pauli_generators("xyz"),
                                   lambda: build_fixed_atom_generators(4),
                                   lambda: build_free_atom_generators(8)],
                         ids=["free-atoms-3", "pauli3", "fixed-atoms-4", "free-atoms-8"])
def test_orthogonal_bound_value_is_the_bound_sum_of_its_rotation(build):
    gens = build()
    o, value = optimize_orthogonal_bound(gens)
    assert value == rotation_bound_value(gens, o)


# ---------------------------------------------------------------------------
# the certified stop of the rotation-bound search


@pytest.mark.parametrize(
    "gens,winner,closed_form",
    [(build_fixed_atom_generators(p), 0, p) for p in range(2, 7)]
    + [(build_free_atom_generators(p), 1, p * p) for p in (2, 4, 8)],
    ids=[f"fixed-atoms-{p}" for p in range(2, 7)] + [f"free-atoms-{p}" for p in (2, 4, 8)],
)
def test_rotation_search_stops_at_a_seed_on_the_ceiling(caplog, minimize_runs, gens,
                                                         winner, closed_form):
    # fixed atoms meet the ceiling p at the identity (seed 0), free atoms p^2
    # at the Walsh-Hadamard seed (1)
    ceiling = rotation_bound_ceiling(gens)
    with caplog.at_level(logging.DEBUG, logger="hlbounds.operators"):
        _, value = optimize_orthogonal_bound(gens)
    assert minimize_runs == []
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.operators"]
    last = 4 if 2 ** round(math.log2(gens.p)) == gens.p else 3
    assert messages == [
        f"optimize_orthogonal_bound certified by seed {winner}: "
        f"value={value!r} ceiling={ceiling!r}; starts 0-{last} skipped"
    ]
    assert value == pytest.approx(closed_form, rel=1e-12, abs=0)
    assert ceiling == pytest.approx(closed_form, rel=1e-12, abs=0)


@pytest.mark.parametrize("build", [lambda: build_free_atom_generators(3),
                                   lambda: build_pauli_generators("xyz")],
                         ids=["free-atoms-3", "pauli3"])
def test_rotation_search_runs_every_start_below_the_ceiling(caplog, minimize_runs, build):
    # free atoms at p=3: ceiling 9, best value found 6.75 (no Hadamard matrix
    # of order 3); pauli3 does not commute and has no ceiling.  Both run the
    # identity and 3 random starts.
    with caplog.at_level(logging.DEBUG, logger="hlbounds.operators"):
        optimize_orthogonal_bound(build())
    assert len(minimize_runs) == 4
    assert not any("certified" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("p,earlier", [(3, 6.479630695273974), (5, 14.640581777254123),
                                       (6, 22.16419024470768)])
def test_free_atom_rotation_search_below_the_ceiling(p, earlier):
    # orders with no Hadamard matrix: the search value is a certified lower
    # bound, at least the local maximum the earlier seeds (11, 23, 47) found
    # and at most the ceiling p^2
    gens = build_free_atom_generators(p)
    _, value = optimize_orthogonal_bound(gens)
    assert earlier <= value <= rotation_bound_ceiling(gens) * (1 + 1e-12)
    assert rotation_bound_ceiling(gens) == pytest.approx(p * p, rel=1e-12)


# ---------------------------------------------------------------------------
# the certified stop of the sphere search


@pytest.mark.parametrize("components", ["xy", "xyz"], ids=["pauli2", "pauli3"])
def test_sphere_search_stops_at_the_first_axis_on_the_ceiling(caplog, minimize_runs,
                                                               components):
    # every a . sigma/2 has eigenvalues +-1/2, and G = I/2 gives the ceiling 1
    gens = build_pauli_generators(components)
    with caplog.at_level(logging.DEBUG, logger="hlbounds.operators"):
        _, value = max_spread_over_sphere(gens)
    assert minimize_runs == []
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.operators"]
    assert messages == [
        "max_spread_over_sphere certified by seed 0: value=1.0 ceiling=1.0; "
        f"starts 0-{gens.p + 3} skipped"
    ]
    assert value == 1.0


def test_sphere_search_runs_every_start_below_the_ceiling(caplog, minimize_runs):
    # spin 3/2: every unit a . S has spread 3, while tr S_i S_j = 5 delta_ij
    # gives the ceiling sqrt(10)
    m = np.array([1.5, 0.5, -0.5, -1.5])
    raising = np.diag(np.sqrt(1.5 * 2.5 - m[1:] * (m[1:] + 1)), 1)
    gens = GeneratorSet(((raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m)))
    assert operators_module.spread_ceiling(gens) == pytest.approx(math.sqrt(10), rel=1e-14)
    with caplog.at_level(logging.DEBUG, logger="hlbounds.operators"):
        _, value = max_spread_over_sphere(gens)
    assert len(minimize_runs) == 7
    assert not any("certified" in r.getMessage() for r in caplog.records)
    assert value == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("gens", [build_fixed_atom_generators(p) for p in (2, 5, 8)]
                         + [build_free_atom_generators(4), build_two_sector_generators(1.0, 0.3)],
                         ids=["fixed-atoms-2", "fixed-atoms-5", "fixed-atoms-8", "free-atoms-4",
                              "two-sector"])
def test_diagonal_spread_objective_equals_the_dense_eigensolve(gens):
    # a diagonal set takes the range of the combined diagonal, which must be
    # bit-identical to the eigvalsh spread of the dense combination
    objective = operators_module._sphere_objective(gens)
    rng = np.random.default_rng(11)
    directions = [rng.standard_normal(gens.p) for _ in range(5)]
    directions.append(operators_module.exact_max_spread(gens)[0])
    for x in directions:
        w = np.linalg.eigvalsh(np.tensordot(x / np.linalg.norm(x), gens.matrices(), axes=(0, 0)))
        assert objective(x) == float(w[-1] - w[0])


@st.composite
def hermitian_sets(draw):
    """p = 2 or 3 random Hermitian d x d generators, d = 2..4, that do not
    all commute."""
    d = draw(st.integers(2, 4))
    p = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(p):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((z + z.conj().T) * draw(st.sampled_from([0.1, 1.0, 10.0])))
    gens = GeneratorSet(tuple(mats))
    assume(not gens.commuting)
    return gens


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(gens=hermitian_sets(), seed=st.integers(0, 2 ** 32 - 1))
def test_no_unit_vector_spreads_beyond_the_ceiling(gens, seed):
    ceiling = operators_module.spread_ceiling(gens)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        a = rng.standard_normal(gens.p)
        assert spread(combine(gens, a / np.linalg.norm(a))) <= ceiling * (1 + 1e-12)


EIGHTHS = st.integers(-16, 16).map(lambda n: n / 8)


@st.composite
def commuting_diagonal_sets(draw):
    """A diagonal set of p = 2 or 3 generators from k random joint patterns
    (multiples of 1/8 times a drawn scale), symmetric under x -> -x or not."""
    p = draw(st.integers(2, 3))
    k = draw(st.integers(p, 5))
    points = np.array(draw(st.lists(st.lists(EIGHTHS, min_size=p, max_size=p),
                                    min_size=k, max_size=k)))
    if draw(st.booleans()):
        points = np.vstack([points, -points])
    points = points * draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    try:
        return GeneratorSet(tuple(np.diag(col) for col in points.T))
    except InvalidArgumentError:
        assume(False)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(gens=commuting_diagonal_sets(), seed=st.integers(0, 2 ** 32 - 1))
def test_no_rotation_exceeds_the_ceiling(gens, seed):
    p = gens.p
    ceiling = rotation_bound_ceiling(gens)
    pts = eigenvalue_patterns(gens)
    flat = np.linalg.matrix_rank(pts - pts[0], tol=1e-9) < p
    # a flat difference body has a direction of zero spread: no ceiling
    assert (ceiling is None) == flat
    if flat:
        return
    # the size gate counts on this many distinct differences (Freiman, Heppes
    # and Uhrin) for points that span R^p
    d = len(np.unique(pts, axis=0))
    differences = np.unique((pts[:, None] - pts[None]).reshape(-1, p), axis=0)
    assert len(differences) >= (p + 1) * d - p * (p + 1) // 2
    rng = np.random.default_rng(seed)
    for _ in range(200):
        o = ReparamMatrix(np.linalg.qr(rng.standard_normal((p, p)))[0])
        assert rotation_bound_value(gens, o) <= ceiling * (1 + 1e-12)


def test_flat_difference_body_gets_no_ceiling():
    # patterns (1, 0) and (0, 1): every difference lies on the line x1 + x2 = 0,
    # and O with first column (1, 1)/sqrt(2) has a zero spread
    gens = GeneratorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert rotation_bound_ceiling(gens) is None
    assert rotation_bound_value(gens, walsh_hadamard(1)) == -math.inf


@pytest.mark.parametrize("p, at_least, distinct", [(8, 2259, None), (7, 988, 2185)],
                         ids=["fixed-atoms-8", "fixed-atoms-7"])
def test_size_gates_give_no_ceiling(monkeypatch, p, at_least, distinct):
    # the fixed-atom patterns without (1/2, ..., 1/2): neither a product nor
    # an axis set, so no closed form.  p=8 fails the Freiman-Heppes-Uhrin
    # count (9 * 255 - 36 > 1000) before any difference is formed; p=7 passes
    # it (8 * 127 - 28 = 988) but has 3^7 - 2 distinct differences.  Neither
    # builds a hull, and the Elfving oracle refuses both when it is built
    monkeypatch.setattr(operators_module, "ConvexHull", None)
    gens = GeneratorSet.from_patterns(eigenvalue_patterns(build_fixed_atom_generators(p))[1:])
    pts = eigenvalue_patterns(gens)
    assert (p + 1) * len(pts) - p * (p + 1) // 2 == at_least
    if distinct is not None:
        differences = np.unique((pts[:, None] - pts[None]).reshape(-1, p), axis=0)
        assert len(differences) == distinct
    assert rotation_bound_ceiling(gens) is None
    with pytest.raises(ResourceLimitError, match="size gates"):
        elfving_variance_oracle(gens, "cr")


def test_box_and_l1_bodies_past_the_gates_form_no_differences(monkeypatch):
    # fixed atoms at p = 7..12 have the box, rotation ceiling p; free atoms at
    # p = 9..16 the l1 ball, ceiling p^2.  No pattern difference is formed:
    # ``_distinct_rows`` sees the patterns alone, never their pairs
    distinct_rows = operators_module._distinct_rows

    def patterns_only(x, scale):
        assert len(x) <= gens.dim, "pattern differences were formed"
        return distinct_rows(x, scale)

    monkeypatch.setattr(operators_module, "_distinct_rows", patterns_only)
    for p in range(7, 13):
        gens = build_fixed_atom_generators(p)
        diffs, facets = operators_module.difference_body(gens)
        assert diffs is None
        np.testing.assert_array_equal(facets, np.vstack([np.eye(p), -np.eye(p)]))
        assert rotation_bound_ceiling(gens) == p
    for p in range(9, 17):
        gens = build_free_atom_generators(p)
        diffs, facets = operators_module.difference_body(gens)
        assert diffs is None and facets.shape == (2 ** p, p)
        assert np.all(abs(facets) == 1.0)
        assert len(operators_module.unique(facets)[0]) == 2 ** p
        assert rotation_bound_ceiling(gens) == p * p
    # past 2^16 rows the l1 body is refused
    gens = build_free_atom_generators(17)
    with pytest.raises(ResourceLimitError, match=r"2\^16"):
        operators_module.difference_body(gens)
    assert rotation_bound_ceiling(gens) is None


# ---------------------------------------------------------------------------
# difference-body facets in closed form


def _qhull_facets(diffs):
    from scipy.spatial import ConvexHull

    equations = np.unique(ConvexHull(diffs).equations, axis=0)
    return equations[:, :-1] / -equations[:, -1:]


def _sorted_rows(rows):
    return rows[np.lexsort(np.round(rows, 9).T[::-1])]


def _random_diagonal_pair():
    rng = np.random.default_rng(11)
    return GeneratorSet(tuple(np.diag(rng.standard_normal(6)) for _ in range(2)))


# box (fixed atoms) and weighted l1 ball (free atoms)
BOX_AND_CROSS_SETS = {
    **{f"fixed-atoms-{p}": (build_fixed_atom_generators, p) for p in range(2, 7)},
    **{f"free-atoms-{p}": (build_free_atom_generators, p) for p in range(2, 9)},
}
# perfbench's two-sector menu, two more pairs and a random diagonal pair
PLANAR_SETS = {
    **{f"two-sector-{a}-{b}": (lambda ab: build_two_sector_generators(*ab), (a, b))
       for a, b in ((1.0, 0.5), (1.0, 0.3), (1.0, 0.4), (1.0, 0.6), (2.0, 1.0), (2.0, 0.5),
                    (1.0, 0.2), (1.0, 0.7))},
    "random-diagonal": (lambda _: _random_diagonal_pair(), None),
}


@pytest.mark.parametrize("name", list(BOX_AND_CROSS_SETS))
def test_box_and_cross_facets_equal_qhull_bit_for_bit(name):
    build, arg = BOX_AND_CROSS_SETS[name]
    diffs, facets = operators_module.difference_body(build(arg))
    assert np.array_equal(_sorted_rows(facets), _sorted_rows(_qhull_facets(diffs)))


@pytest.mark.parametrize("name", list(PLANAR_SETS))
def test_planar_facets_equal_qhull(name):
    build, arg = PLANAR_SETS[name]
    diffs, facets = operators_module.difference_body(build(arg))
    ours, ref = _sorted_rows(facets), _sorted_rows(_qhull_facets(diffs))
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_closed_forms_run_no_qhull(monkeypatch):
    def no_qhull(points):
        raise AssertionError("qhull was called")

    monkeypatch.setattr(operators_module, "ConvexHull", no_qhull)
    for build, arg in list(BOX_AND_CROSS_SETS.values()) + list(PLANAR_SETS.values()):
        assert operators_module.difference_body(build(arg)) is not None
    # p = 1 is a box too: D = [-1, 1]
    for build in (build_fixed_atom_generators, build_free_atom_generators):
        np.testing.assert_array_equal(operators_module.difference_body(build(1))[1],
                                      [[1.0], [-1.0]])
    flat = GeneratorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    with pytest.raises(InvalidArgumentError, match="flat"):
        operators_module.difference_body(flat)


def test_other_sets_fall_back_to_qhull(monkeypatch):
    # three random diagonal generators: neither a product nor an axis set
    calls = []
    qhull = operators_module.ConvexHull
    monkeypatch.setattr(operators_module, "ConvexHull",
                        lambda points: calls.append(len(points)) or qhull(points))
    rng = np.random.default_rng(4)
    gens = GeneratorSet(tuple(np.diag(rng.standard_normal(5)) for _ in range(3)))
    diffs, facets = operators_module.difference_body(gens)
    assert calls == [len(diffs)] == [21]
    np.testing.assert_array_equal(facets, _qhull_facets(diffs))


def test_rotated_spreads_do_not_depend_on_the_basis():
    # a unitary change of basis leaves every spread as it is but makes the set
    # non-diagonal, so the eigenvalue branch must agree with the diagonal one
    diag = build_fixed_atom_generators(2)
    u = random_unitary(4, np.random.default_rng(3))
    rotated = GeneratorSet(tuple(u @ g.entries @ u.conj().T for g in diag.generators))
    assert diag.diagonal and not rotated.diagonal and rotated.commuting
    a = ReparamMatrix(np.array([[1.0, 0.3], [-0.2, 0.8]]))
    np.testing.assert_allclose(rotated_spreads(diag, a), [1.2, 1.1], rtol=1e-12)
    np.testing.assert_allclose(rotated_spreads(rotated, a), [1.2, 1.1], rtol=1e-12)


def test_eigenvalue_patterns_match_diagonals():
    gens = build_two_sector_generators(1.0, 0.5)
    pats = eigenvalue_patterns(gens)
    expected = 0.5 * np.array([[1, 0.5], [-1, -0.5], [0.5, 1], [-0.5, -1]])
    np.testing.assert_allclose(np.sort(pats, axis=0), np.sort(expected, axis=0))
    with pytest.raises(InvalidArgumentError):
        eigenvalue_patterns(build_pauli_generators("xy"))


# ---------------------------------------------------------------------------
# validation


def test_hermiticity_enforced():
    # relative to the largest entry: an anti-Hermitian part of 1e-13 of it
    # passes at every scale, one as large as it fails at every scale
    for scale in (1e-14, 1.0, 1e14):
        with pytest.raises(InvalidArgumentError, match="not Hermitian"):
            HermitianOperator(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert HermitianOperator(scale * np.array([[1.0, 1e-13], [0.0, 0.0]])).dim == 2


def test_linear_independence_enforced():
    sz = np.diag([0.5, -0.5])
    with pytest.raises(InvalidArgumentError):
        GeneratorSet((sz, 2.0 * sz))


def test_reparam_matrix_rejects_singular():
    with pytest.raises(InvalidArgumentError):
        ReparamMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries", [
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],  # rank 2
    [[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]],  # zero column
    [[1e200, 1e200], [1e200, 1e200]],
    [[1e-200, 1e-200], [1e-200, 1e-200]],
    np.diag([math.nan, 1.0, 1.0]),
    np.diag([math.inf, 1.0, 1.0]),
    np.diag([1.0, -math.inf, 1.0]),
    [[math.inf, math.inf], [1.0, 1.0]],
])
def test_reparam_matrix_rejects_degenerate_and_nonfinite(entries):
    with pytest.raises(InvalidArgumentError, match="singular"):
        ReparamMatrix(np.array(entries))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-110, 1e110, 1e200])
def test_reparam_matrix_test_is_scale_free(scale):
    # no square, norm product or determinant of the test may leave the
    # double range, whatever the scale of A or of one of its columns
    ReparamMatrix(scale * np.eye(3))
    ReparamMatrix(np.diag([scale, 1.0, 1.0 / scale]))
    ReparamMatrix(scale * np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.1], [0.0, 0.4, 1.0]]))


@pytest.mark.parametrize(
    "build, attr, array",
    [
        (ReparamMatrix, "entries", np.array([[1.0, 0.5], [0.0, 2.0]])),
        (HermitianOperator, "entries", np.array([[1.0, 1j], [-1j, -1.0]])),
        (QfiMatrix, "entries", np.array([[2.0, 0.5], [0.5, 1.0]])),
        (SaturabilityReport, "imag_parts", np.array([[0.0, 0.25], [-0.25, 0.0]])),
        (lambda c: AllocationPlan(1, c), "c", np.array([1.0, 4.0])),
        (lambda x: SimplexSpectrum(2, 0.5, 1.0, 1, 0.0, x, np.ones(2), np.ones(2)), "nodes",
         np.array([[0.0, 0.5], [0.5, 0.0]])),
        (lambda y: SimplexSpectrum(2, 0.5, 1.0, 1, 0.0, np.zeros((2, 2)), y, np.ones(2)),
         "eigenvector", np.array([1.0, 2.0])),
        (lambda w: SimplexSpectrum(2, 0.5, 1.0, 1, 0.0, np.zeros((2, 2)), np.ones(2), w),
         "weights", np.array([1.0, 4.0])),
    ],
    ids=["ReparamMatrix", "HermitianOperator", "QfiMatrix", "SaturabilityReport", "AllocationPlan",
         "SimplexSpectrum.nodes", "SimplexSpectrum.eigenvector", "SimplexSpectrum.weights"],
)
def test_constructor_copies_caller_array(build, attr, array):
    obj = build(array)
    stored = getattr(obj, attr)
    frozen = stored.copy()
    assert array.flags.writeable
    assert not stored.flags.writeable
    array.flat[0] = 7.0
    assert np.array_equal(getattr(obj, attr), frozen)
