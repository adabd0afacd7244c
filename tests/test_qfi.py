import math

import numpy as np
import pytest

from hlbounds import (
    GeneratorSet,
    InvalidArgumentError,
    PureState,
    QfiMatrix,
    UnsupportedConfigurationError,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    nuisance_variance,
    qfi_pure,
    saturability,
    superposed_noon_state,
    trace_inverse,
    uniform_state,
)
from hlbounds.states import evolve


def test_noon_qfi_is_n_squared():
    gens = build_fixed_atom_generators(1)
    psi = uniform_state(2)
    for n in range(1, 11):
        f = qfi_pure(gens, np.zeros(1), psi, n)
        assert abs(f.entries[0, 0] - n * n) <= 1e-9


def test_superposed_noon_qfi_diagonal():
    for p in (1, 2, 4):
        gens = build_free_atom_generators(p)
        f = qfi_pure(gens, np.zeros(p), superposed_noon_state(p, 1), 3)
        np.testing.assert_allclose(f.entries, 9.0 / p * np.eye(p), atol=1e-12)


def test_two_sector_qfi_matrix():
    # commuting-set covariance formula at the uniform four-level probe:
    # F = [[(a^2+b^2)/2, ab], [ab, (a^2+b^2)/2]], so trace_inverse is
    # 2/(a-b)^2 + 2/(a+b)^2
    gens = build_two_sector_generators(1.0, 0.5)
    f = qfi_pure(gens, np.zeros(2), uniform_state(4), 1)
    np.testing.assert_allclose(f.entries, [[0.625, 0.5], [0.5, 0.625]], atol=1e-12)
    assert trace_inverse(f) == pytest.approx(2 / 0.25 + 2 / 2.25, abs=1e-9)


def test_singularity_test_is_relative_to_the_model_scale():
    # two-sector at alpha = 1e-6, beta = 5e-7: every entry of F is below
    # 1e-10, yet F is invertible
    a, b = 1e-6, 5e-7
    f = qfi_pure(build_two_sector_generators(a, b), np.zeros(2), uniform_state(4), 1)
    np.testing.assert_allclose(np.linalg.eigvalsh(f.entries), [1.25e-13, 1.125e-12],
                               rtol=1e-9)
    exact = 2 / (a - b) ** 2 + 2 / (a + b) ** 2
    assert trace_inverse(f) == pytest.approx(exact, rel=1e-9)
    assert math.isfinite(nuisance_variance(f, 0))
    assert nuisance_variance(f, 0) + nuisance_variance(f, 1) == pytest.approx(exact, rel=1e-9)
    # sigma_x/2 on |+>: F is rounding noise (about 2e-32) where the exact value is 0
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    f = qfi_pure(build_pauli_generators("x"), np.zeros(1), plus, 1)
    assert trace_inverse(f) == math.inf
    assert nuisance_variance(f, 0) == math.inf
    # a multiple of the identity has F = 0 and no spread to scale by
    f = qfi_pure(GeneratorSet((np.eye(2),)), np.zeros(1), plus, 1)
    assert f.scale == 1.0
    assert trace_inverse(f) == math.inf
    with pytest.raises(InvalidArgumentError):
        QfiMatrix(np.eye(2), scale=0.0)


def test_a_shift_of_the_identity_does_not_cancel():
    # Lambda = 1e6 I + diag(1/2, -1/2) on (0.6, 0.8): F = 4 Var = 4 (0.25 - 0.14^2)
    gens = GeneratorSet((1e6 * np.eye(2) + np.diag([0.5, -0.5]),))
    f = qfi_pure(gens, np.zeros(1), PureState(np.array([0.6, 0.8])), 1)
    assert f.entries[0, 0] == pytest.approx(0.9216, rel=0, abs=1e-12)


@pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
def test_a_shift_of_the_identity_does_not_cancel_in_a_noncommuting_set(c):
    # (sigma_x/2 + cI, sigma_y/2, sigma_z/2 + cI) has the QFI and overlaps
    # of c = 0: centring each generator on psi removes the shift exactly
    pauli = build_pauli_generators("xyz").matrices()
    shift = np.array([c, 0.0, c])[:, None, None] * np.eye(2)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = PureState(z / np.linalg.norm(z))
    base, shifted = GeneratorSet(tuple(pauli)), GeneratorSet(tuple(pauli + shift))
    np.testing.assert_allclose(qfi_pure(shifted, np.zeros(3), psi, 3).entries,
                               qfi_pure(base, np.zeros(3), psi, 3).entries, rtol=0, atol=1e-13)
    np.testing.assert_allclose(saturability(shifted, np.zeros(3), psi).imag_parts,
                               saturability(base, np.zeros(3), psi).imag_parts,
                               rtol=0, atol=1e-14)


def test_noncommuting_requires_zero_expansion_point():
    gens = build_pauli_generators("xy")
    psi = PureState([1.0, 0.0])
    with pytest.raises(UnsupportedConfigurationError):
        qfi_pure(gens, np.array([0.1, 0.0]), psi, 1)


def test_trace_inverse_examples():
    assert trace_inverse(QfiMatrix(9.0 * np.eye(3))) == pytest.approx(3 / 9.0)
    assert trace_inverse(QfiMatrix(np.diag([4.0, 0.0]))) == math.inf


def test_nuisance_variance_examples():
    assert nuisance_variance(QfiMatrix(np.diag([5.0, 0.0])), 0) == pytest.approx(0.2)
    assert nuisance_variance(QfiMatrix([[2.0, 1.0], [1.0, 2.0]]), 0) == pytest.approx(2 / 3)
    assert nuisance_variance(QfiMatrix(np.diag([0.0, 3.0])), 0) == math.inf
    with pytest.raises(InvalidArgumentError):
        nuisance_variance(QfiMatrix(np.eye(2)), 2)


def test_saturability_real_commuting_model():
    gens = build_two_sector_generators(1.0, 0.5)
    report = saturability(gens, np.zeros(2), uniform_state(4))
    assert report.saturable
    np.testing.assert_allclose(report.imag_parts, 0.0, atol=1e-12)


def test_saturability_fixed_atoms_product_plus():
    report = saturability(build_fixed_atom_generators(2), np.zeros(2), uniform_state(4))
    assert report.saturable


def test_saturability_pauli_xy_regression():
    # frozen regression value: Im tr(rho L_x L_y) = +1 on |0> at zero field
    report = saturability(build_pauli_generators("xy"), np.zeros(2), PureState([1.0, 0.0]))
    assert not report.saturable
    assert report.imag_parts[0, 1] == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(report.imag_parts, -report.imag_parts.T, atol=1e-12)


# ---------------------------------------------------------------------------
# invariants


def test_qfi_scales_exactly_as_n_squared():
    gens = build_fixed_atom_generators(2)
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = PureState(amps / np.linalg.norm(amps))
    f1 = qfi_pure(gens, np.zeros(2), psi, 1)
    for n in (2, 3, 7):
        fn = qfi_pure(gens, np.zeros(2), psi, n)
        assert np.array_equal(fn.entries, n ** 2 * f1.entries)


def test_inverse_diagonal_dominates_reciprocal_diagonal():
    rng = np.random.default_rng(22)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        f = QfiMatrix(m @ m.T + 0.1 * np.eye(4))
        inv = np.linalg.inv(f.entries)
        for i in range(4):
            assert inv[i, i] >= 1.0 / f.entries[i, i] - 1e-12


def test_qfi_invariant_under_global_phase():
    gens = build_pauli_generators("xyz")
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = PureState(amps / np.linalg.norm(amps))
    shifted = PureState(np.exp(1j * 0.7) * psi.amplitudes)
    f1 = qfi_pure(gens, np.zeros(3), psi, 1)
    f2 = qfi_pure(gens, np.zeros(3), shifted, 1)
    np.testing.assert_allclose(f1.entries, f2.entries, atol=1e-9)


def test_single_generator_qfi_bounded_by_spread():
    gens = build_fixed_atom_generators(1)
    rng = np.random.default_rng(24)
    for n in (1, 5):
        for _ in range(20):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = PureState(amps / np.linalg.norm(amps))
            f = qfi_pure(gens, np.zeros(1), psi, n)
            assert f.entries[0, 0] <= n ** 2 * 1.0 + 1e-10


def _central_difference_overlap(gens, psi, n, h=1e-5):
    """4 <D_i|D_j> at theta0 = 0 from central differences of the evolution."""
    derivs = []
    for i in range(gens.p):
        step = np.zeros(gens.p)
        step[i] = n * h
        d = (evolve(gens, step, psi).amplitudes - evolve(gens, -step, psi).amplitudes) / (2 * h)
        derivs.append(d - (psi.amplitudes.conj() @ d) * psi.amplitudes)
    d = np.array(derivs)
    return 4.0 * (d.conj() @ d.T)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("build", [lambda: build_pauli_generators("xyz"),
                                   lambda: build_fixed_atom_generators(2)],
                         ids=["pauli3", "fixed-atoms-2"])
def test_exact_derivatives_match_central_differences(build, n):
    gens = build()
    rng = np.random.default_rng(25)
    amps = rng.standard_normal(gens.dim) + 1j * rng.standard_normal(gens.dim)
    psi = PureState(amps / np.linalg.norm(amps))
    reference = _central_difference_overlap(gens, psi, n)
    f = qfi_pure(gens, np.zeros(gens.p), psi, n).entries
    np.testing.assert_allclose(f, np.real(reference), rtol=0, atol=1e-6 * n * n)
    imag = saturability(gens, np.zeros(gens.p), psi).imag_parts
    np.testing.assert_allclose(imag, np.imag(reference) / (n * n), rtol=0, atol=1e-6)


def test_noncommuting_qfi_is_exact():
    f = qfi_pure(build_pauli_generators("xyz"), np.zeros(3), uniform_state(2), 4)
    np.testing.assert_allclose(f.entries, np.diag([0.0, 16.0, 16.0]), rtol=0, atol=1e-14)


def test_qfi_matrix_validation():
    with pytest.raises(InvalidArgumentError):
        QfiMatrix([[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(InvalidArgumentError):
        QfiMatrix([[-1.0, 0.0], [0.0, 1.0]])  # not PSD
