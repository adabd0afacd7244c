import itertools
import logging
import math

import numpy as np
import pytest
from scipy import sparse
from scipy import special as sp
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.optimize import brentq

from hlbounds import (
    InvalidArgumentError,
    PhaseMeasurementModel,
    PhaseStateCoefficients,
    ResourceLimitError,
    airy_lower_bound,
    ball_upper_bound,
    noon_coefficients,
    phase_cost_analytic,
    phase_cost_monte_carlo,
    simplex_ground_energy,
    sin_coefficients,
)
import hlbounds.variational as variational_module
from hlbounds.solvers import cg
from hlbounds.variational import BALL_P_MAX, _interior_mask

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# cross-polytope ground state


def test_simplex_p1_matches_line_problem():
    spec = simplex_ground_energy(1, 200)
    assert spec.E == pytest.approx(PI2, rel=5e-4)
    assert spec.residual <= 1e-8 * spec.E


def test_simplex_p1_richardson():
    e1 = simplex_ground_energy(1, 200).E
    e2 = simplex_ground_energy(1, 400).E
    extrapolated = (4 * e2 - e1) / 3
    assert abs(extrapolated - PI2) / PI2 < 1e-6


def test_simplex_p2_matches_rotated_square():
    spec = simplex_ground_energy(2, 120)
    assert spec.E == pytest.approx(4 * PI2, rel=1e-2)


def test_simplex_converges_from_below():
    # node-exclusion Dirichlet data puts the effective boundary outside the
    # domain, so the discrete eigenvalue increases monotonically toward the
    # continuum value as the grid is refined
    e_coarse = simplex_ground_energy(2, 40).E
    e_fine = simplex_ground_energy(2, 80).E
    assert e_coarse < e_fine < 4 * PI2


def test_simplex_p2_eigenvector_profile():
    spec = simplex_ground_energy(2, 60)
    mu1, mu2 = spec.nodes[:, 0], spec.nodes[:, 1]
    analytic = 2.0 * np.cos(math.pi * (mu1 + mu2)) * np.cos(math.pi * (mu1 - mu2))
    v = spec.eigenvector.copy()
    scale = float(analytic @ v) / float(analytic @ analytic)
    assert np.max(np.abs(v - scale * analytic)) <= 1e-2 * np.max(np.abs(scale * analytic))


def test_simplex_p3_in_bound_bracket():
    spec = simplex_ground_energy(3, 32)
    airy_c = airy_lower_bound().constant
    assert airy_c <= spec.E / 27 <= ball_upper_bound(3) / 27
    assert spec.residual <= 1e-8 * spec.E


def _full_grid_ground_state(p, m):
    """Reference ground state: the 2p-point Laplacian on every interior node."""
    axes, mask = _interior_mask(p, m)
    second_difference = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m + 1, m + 1)) * m * m
    laplacian = sum(
        sparse.kron(sparse.kron(sparse.identity((m + 1) ** d), second_difference),
                    sparse.identity((m + 1) ** (p - 1 - d)))
        for d in range(p)
    ).tocsr()
    keep = np.flatnonzero(mask)
    dense = laplacian[keep][:, keep].toarray()
    values, vectors = eigh(dense, subset_by_index=[0, 0])
    nodes = axes[np.array(np.unravel_index(keep, mask.shape)).T]
    return values[0], nodes, vectors[:, 0], mask


@pytest.mark.parametrize(
    "p, m", [(1, 41), (1, 40), (2, 41), (2, 40), (3, 17), (3, 16), (4, 11), (4, 12)]
)
def test_simplex_orthant_fold_matches_full_grid(p, m):
    # odd M has no node on mu_d = 0; even M has one, with an unsymmetric fold
    e_ref, nodes_ref, v_ref, mask = _full_grid_ground_state(p, m)
    spec = simplex_ground_energy(p, m)
    assert spec.E == pytest.approx(e_ref, rel=1e-10, abs=0)
    assert np.array_equal(spec.nodes, nodes_ref)
    v = spec.eigenvector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(v - np.sign(v @ v_ref) * v_ref)) <= 1e-8
    grid = np.zeros(mask.shape)
    grid[mask] = v
    for d in range(p):
        assert np.array_equal(np.flip(grid, axis=d), grid)
    for perm in itertools.permutations(range(p)):
        assert np.max(np.abs(np.transpose(grid, perm) - grid)) <= 1e-8


def test_simplex_logs_one_debug_record(caplog, monkeypatch):
    cg_iterations = []

    def counting(matvec, b, **kwargs):
        steps = []
        result = cg(matvec, b, callback=steps.append, **kwargs)
        cg_iterations.append(len(steps))
        return result

    monkeypatch.setattr(variational_module, "cg", counting)
    with caplog.at_level(logging.DEBUG, logger="hlbounds.variational"):
        spec = simplex_ground_energy(3, 20)
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.variational"]
    assert len(messages) == 1
    msg = messages[0]
    assert msg.startswith(f"simplex_ground_energy p=3 M=20: nodes={spec.nodes.shape[0]} ")
    _, mask = _interior_mask(3, 20)
    assert f" unknowns={np.count_nonzero(mask[10:, 10:, 10:])} " in msg  # the orthant i_d >= M/2
    assert f"iterations={spec.iterations} E={spec.E!r} residual={spec.residual:.3e}" in msg
    # one matvec per CG iteration and one Rayleigh quotient per outer iteration
    assert len(cg_iterations) == spec.iterations
    assert msg.endswith(f" matvecs={sum(cg_iterations) + spec.iterations}")


# exact E, outer iterations and residual: any reordering of the floating-point sums
# in the matvec or CG moves them; both parities of M, and p = 4, whose neighbour sum
# follows numpy's pairwise order
@pytest.mark.parametrize("p, m, energy, iterations, residual", [
    (1, 200, 9.869401467147968, 10, 2.5209051074378338e-09),
    (2, 40, 39.39731009555941, 10, 1.1818786534086902e-08),
    (2, 41, 37.5507622311179, 12, 1.5159731533378204e-08),
    (3, 16, 91.93017369364871, 16, 3.612019205762306e-08),
    (3, 17, 92.32061228112671, 16, 2.8880549886128912e-08),
    (4, 11, 141.31721984881514, 17, 1.3421294000345863e-07),
    (4, 12, 165.35399441550533, 20, 8.563681527096558e-08),
])
def test_simplex_is_bit_identical(p, m, energy, iterations, residual):
    spec = simplex_ground_energy(p, m)
    assert spec.E == energy
    assert spec.iterations == iterations
    assert spec.residual == residual


def test_simplex_runs_under_a_tracing_cg(monkeypatch):
    # a tracer rebinds variational.cg and passes its own callback=, as
    # perfbench's counted_cg does; a callback from the solver would clash
    per_solve = []

    def traced(matvec, *args, **kwargs):
        counts = {"matvecs": 0, "callbacks": 0}

        def counted_matvec(z):
            counts["matvecs"] += 1
            return matvec(z)

        def callback(_xk):
            counts["callbacks"] += 1

        per_solve.append(counts)
        return cg(counted_matvec, *args, callback=callback, **kwargs)

    monkeypatch.setattr(variational_module, "cg", traced)
    spec = simplex_ground_energy(2, 40)
    assert spec.E == 39.39731009555941
    assert len(per_solve) == spec.iterations
    assert all(c["callbacks"] == c["matvecs"] > 0 for c in per_solve)


def test_simplex_validation():
    with pytest.raises(InvalidArgumentError):
        simplex_ground_energy(5, 40)
    with pytest.raises(InvalidArgumentError):
        simplex_ground_energy(1, 8)  # fewer than 8 interior points per axis
    with pytest.raises(InvalidArgumentError):
        simplex_ground_energy(4, 90)  # node cap


# ---------------------------------------------------------------------------
# Airy bound


def test_airy_bound_values():
    res = airy_lower_bound()
    assert res.a_prime_zero == pytest.approx(-1.019, abs=1e-3)
    assert 0.62 <= res.constant <= 0.64
    assert res.I_norm > 0 and res.I_mean > 0 and res.I_kinetic > 0


def _airy_oracle(cutoff):
    """(a0', I_norm, I_mean, I_kin) from scipy: ``ai_zeros`` and ``quad`` of
    ``airy`` over [a0', a0' + cutoff]."""
    a0 = sp.ai_zeros(1)[1][0]

    def integral(f):
        return quad(f, a0, a0 + cutoff, limit=200, epsabs=1e-14, epsrel=1e-13)[0]

    return (a0, integral(lambda t: sp.airy(t)[0] ** 2),
            integral(lambda t: (t - a0) * sp.airy(t)[0] ** 2),
            integral(lambda t: sp.airy(t)[1] ** 2))


def test_airy_bound_matches_an_independent_oracle():
    res = airy_lower_bound()
    a0, i_norm, i_mean, i_kin = _airy_oracle(14.0)
    assert res.a_prime_zero == pytest.approx(a0, rel=1e-12)
    assert res.I_norm == pytest.approx(i_norm, rel=1e-12)
    assert res.I_mean == pytest.approx(i_mean, rel=1e-12)
    assert res.I_kinetic == pytest.approx(i_kin, rel=1e-12)
    assert res.constant == pytest.approx(4 * i_kin * i_mean ** 2 / i_norm ** 3, rel=1e-12)
    assert res.constant == pytest.approx(16 / 27 * abs(a0) ** 3, rel=1e-14)


def test_airy_bound_tail_insensitive():
    # the closed form is the half-line limit: widening the oracle's window
    # from a0' + 14 to a0' + 28 changes nothing at 1e-12
    _, i_norm, i_mean, i_kin = _airy_oracle(28.0)
    assert airy_lower_bound().constant == pytest.approx(4 * i_kin * i_mean ** 2 / i_norm ** 3,
                                                        rel=1e-12)


def test_airy_bound_rejects_tiny_cutoff():
    # the closed form has no tail to cut: the function takes no cutoff at all
    with pytest.raises(TypeError):
        airy_lower_bound(tail_cutoff=1.0)


# ---------------------------------------------------------------------------
# inscribed-ball upper estimate


def test_ball_p1_is_exact_line_value():
    assert ball_upper_bound(1) == pytest.approx(PI2, abs=1e-8)


def test_ball_p2_value():
    assert ball_upper_bound(2) == pytest.approx(2 * (2 * 2.404825557695773) ** 2, rel=1e-9)


def test_ball_large_p_normalization_regression():
    # E/p^3 -> 1 only at rate p^(-2/3); at p = 40 the true value is ~1.48
    assert ball_upper_bound(40) / 40 ** 3 == pytest.approx(1.4809, abs=2e-3)


def _scipy_first_zero(nu):
    hi = nu + 3 + 2 * nu ** (1 / 3)
    return brentq(lambda x: sp.jv(nu, x), nu, hi, xtol=1e-14, rtol=1e-15)


@pytest.mark.parametrize("p", [41, 80, 150, 226, 400, BALL_P_MAX])
def test_ball_matches_scipy_at_large_p(p):
    exact = p * (2 * _scipy_first_zero(p / 2 - 1)) ** 2
    assert ball_upper_bound(p) == pytest.approx(exact, rel=1e-12, abs=0)


# values of the parent of the computed scan start, which must not move
BALL_PINS = {
    1: 9.869604401089358,
    2: 46.265487703574266,
    3: 118.4352528130723,
    4: 234.91153027398173,
    7: 930.0889335995146,
    40: 94776.0631570047,
    41: 101502.08225089415,
    400: 70567623.3370788,
    1000: 1056165532.9244698,
}


@pytest.mark.parametrize("p", sorted(BALL_PINS))
def test_ball_is_bit_identical(p):
    assert ball_upper_bound(p) == BALL_PINS[p]


def test_ball_resource_ceiling():
    assert BALL_P_MAX >= 1000
    with pytest.raises(ResourceLimitError):
        ball_upper_bound(BALL_P_MAX + 1)


def test_bound_chain_ordering():
    airy_c = airy_lower_bound().constant
    assert airy_c * 1 <= PI2 <= ball_upper_bound(1) + 1e-9
    assert ball_upper_bound(1) == pytest.approx(PI2, abs=1e-8)  # degenerate equality
    assert airy_c * 8 <= 4 * PI2 <= ball_upper_bound(2)


# ---------------------------------------------------------------------------
# covariant phase costs


@pytest.mark.parametrize("N", [1, 2, 5, 20, 100, 500])
def test_phase_cost_sine_closed_form(N):
    cost = phase_cost_analytic(sin_coefficients(N))
    assert abs(cost - 2 * (1 - math.cos(math.pi / (N + 2)))) <= 1e-12


def test_phase_cost_noon_saturates():
    for n in (2, 3, 10):
        assert phase_cost_analytic(noon_coefficients(n)) == pytest.approx(2.0, abs=1e-12)


def test_phase_cost_asymptotic_constant():
    n = 200
    cost = phase_cost_analytic(sin_coefficients(n))
    assert (n + 2) ** 2 * cost == pytest.approx(PI2, rel=1e-3)


def test_phase_cost_range_random_coefficients():
    rng = np.random.default_rng(41)
    for _ in range(20):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeffs = PhaseStateCoefficients(7, c / np.linalg.norm(c))
        cost = phase_cost_analytic(coeffs)
        assert -1e-12 <= cost <= 4.0 + 1e-12


def test_pdf_model_normalization_and_phase_invariance():
    coeffs = sin_coefficients(12)
    model = PhaseMeasurementModel(coeffs)
    du = 2 * math.pi / model.grid_points
    assert np.all(model.pdf >= 0)
    assert np.sum(model.pdf) * du == pytest.approx(1.0, abs=1e-8)
    shifted = PhaseStateCoefficients(12, np.exp(1j * 1.3) * coeffs.c)
    model2 = PhaseMeasurementModel(shifted)
    np.testing.assert_allclose(model2.pdf, model.pdf, atol=1e-12)


@pytest.mark.parametrize("N, grid", [(1, 2 ** 14), (4095, 2 ** 14), (4096, 2 ** 15),
                                     (5000, 2 ** 15)])
def test_pdf_model_default_grid_is_the_least_power_of_two_past_4_n_plus_1(N, grid):
    assert PhaseMeasurementModel(sin_coefficients(N)).grid_points == grid


def test_monte_carlo_concordance_and_determinism():
    model = PhaseMeasurementModel(sin_coefficients(20))
    mean, stderr = phase_cost_monte_carlo(model, 100_000, seed=7)
    exact = 2 * (1 - math.cos(math.pi / 22))
    assert abs(mean - exact) <= 3 * stderr
    again = phase_cost_monte_carlo(model, 100_000, seed=7)
    assert again == (mean, stderr)


def test_monte_carlo_flat_pdf():
    coeffs = PhaseStateCoefficients(1, [1.0, 0.0])  # flat outcome density
    model = PhaseMeasurementModel(coeffs)
    mean, stderr = phase_cost_monte_carlo(model, 50_000, seed=3)
    assert mean == pytest.approx(2.0, abs=5 * stderr)


def test_monte_carlo_seed_sensitivity():
    model = PhaseMeasurementModel(sin_coefficients(20))
    m1, s1 = phase_cost_monte_carlo(model, 20_000, seed=1)
    m2, s2 = phase_cost_monte_carlo(model, 20_000, seed=2)
    assert m1 != m2
    assert abs(m1 - m2) <= 6 * max(s1, s2)


def test_monte_carlo_minimum_samples():
    with pytest.raises(InvalidArgumentError):
        phase_cost_monte_carlo(PhaseMeasurementModel(sin_coefficients(4)), 10, seed=0)
