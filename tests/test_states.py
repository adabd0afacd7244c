import math

import numpy as np
import pytest

from hlbounds import (
    InvalidArgumentError,
    PhaseStateCoefficients,
    PureState,
    build_fixed_atom_generators,
    build_pauli_generators,
    evolve,
    noon_coefficients,
    sin_coefficients,
    superposed_noon_state,
    uniform_state,
)

SQ2 = math.sqrt(2.0)


def test_noon_coefficients():
    c1 = noon_coefficients(1)
    np.testing.assert_allclose(c1.c, [1 / SQ2, 1 / SQ2])
    c3 = noon_coefficients(3)
    np.testing.assert_allclose(c3.c, [1 / SQ2, 0, 0, 1 / SQ2])
    for n in (1, 2, 7, 50):
        assert np.sum(np.abs(noon_coefficients(n).c) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_sin_coefficients_small_cases():
    c1 = sin_coefficients(1)
    np.testing.assert_allclose(c1.c.real, [math.sqrt(0.5)] * 2, atol=1e-15)
    c2 = sin_coefficients(2)
    np.testing.assert_allclose(c2.c.real, [0.5, 1 / SQ2, 0.5], atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 10, 123, 500])
def test_sin_coefficients_normalized_symmetric_positive(N):
    c = sin_coefficients(N).c.real
    assert np.sum(c ** 2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(c, c[::-1], atol=1e-14)
    assert np.all(c > 0)  # no zero interior coefficient


def test_evolve_zero_theta_identity():
    gens = build_fixed_atom_generators(2)
    psi = uniform_state(4)
    out = evolve(gens, np.zeros(2), psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes)


def test_evolve_diagonal_phase_on_basis_state():
    gens = build_fixed_atom_generators(1)
    basis = PureState([1.0, 0.0])
    out = evolve(gens, [0.8], basis)
    np.testing.assert_allclose(out.amplitudes, [np.exp(1j * 0.4), 0.0], atol=1e-15)


def test_evolve_half_spin_pi_rotation():
    # exp(i pi sigma_z/2) on |+>: amplitudes (e^{i pi/2}, e^{-i pi/2})/sqrt(2)
    gens = build_fixed_atom_generators(1)
    out = evolve(gens, [math.pi], uniform_state(2))
    np.testing.assert_allclose(out.amplitudes, np.array([1j, -1j]) / SQ2, atol=1e-12)


def test_evolve_preserves_norm_random():
    gens = build_pauli_generators("xyz")
    rng = np.random.default_rng(11)
    for _ in range(10):
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = PureState(amps / np.linalg.norm(amps))
        theta = 3.0 * rng.standard_normal(3)
        out = evolve(gens, theta, psi)
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_evolve_composition_on_commuting_set():
    gens = build_fixed_atom_generators(2)
    rng = np.random.default_rng(12)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = PureState(amps / np.linalg.norm(amps))
    t1, t2 = rng.standard_normal(2), rng.standard_normal(2)
    seq = evolve(gens, t2, evolve(gens, t1, psi))
    joint = evolve(gens, t1 + t2, psi)
    np.testing.assert_allclose(seq.amplitudes, joint.amplitudes, atol=1e-12)


def test_evolve_dimension_mismatch():
    gens = build_fixed_atom_generators(2)
    with pytest.raises(InvalidArgumentError):
        evolve(gens, np.zeros(2), uniform_state(2))


def test_superposed_noon_state():
    s1 = superposed_noon_state(1, 5)
    np.testing.assert_allclose(s1.amplitudes, [1 / SQ2, 1 / SQ2])
    s2 = superposed_noon_state(2, 3)
    np.testing.assert_allclose(s2.amplitudes, [0.5] * 4)
    for p in (1, 2, 5):
        s = superposed_noon_state(p, 2)
        assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_pure_state_normalization_enforced():
    with pytest.raises(InvalidArgumentError):
        PureState([1.0, 1.0])


def test_states_do_not_alias_the_callers_array():
    a = np.array([1 + 0j, 0])
    state = PureState(a)
    a[0] = 5
    np.testing.assert_array_equal(state.amplitudes, [1, 0])
    c = np.array([1 + 0j, 0])
    coeffs = PhaseStateCoefficients(1, c)
    c[0] = 5
    np.testing.assert_array_equal(coeffs.c, [1, 0])
    assert not state.amplitudes.flags.writeable and not coeffs.c.flags.writeable
