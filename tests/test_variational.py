import itertools
import logging
import math
import tracemalloc

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
from hlbounds.variational import BALL_P_MAX, INDEX_CAP, MC_SAMPLE_CAP, _cdf_index

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
    scale = float(analytic @ (spec.weights * v)) / float(analytic @ (spec.weights * analytic))
    assert np.max(np.abs(v - scale * analytic)) <= 1e-2 * np.max(np.abs(scale * analytic))


def test_simplex_p3_in_bound_bracket():
    # E/p^3 between the Airy and ball constants, also at p = 5 and 6
    airy_c = airy_lower_bound().constant
    for p in (3, 5, 6):
        spec = simplex_ground_energy(p, 32)
        assert airy_c <= spec.E / p ** 3 <= ball_upper_bound(p) / p ** 3
        assert spec.residual <= 1e-9 * spec.E


def _interior_mask(p, m):
    """The full (M + 1)^p grid's axis and its interior nodes, radial sums added
    in axis order."""
    axes = np.linspace(-0.5, 0.5, m + 1)
    radial = np.abs(axes)
    total = np.zeros((m + 1,) * p)
    for d in range(p):
        shape = [1] * p
        shape[d] = m + 1
        total += radial.reshape(shape)
    return axes, total < 0.5 - 1e-9 / m


def _unfold(spec, m):
    """The full-grid array of a wedge eigenvector, and the mask of the nodes it
    reaches: each wedge node's value goes to every permutation and sign choice
    of its indices, which must be as many nodes as its weight."""
    grid, reached = np.zeros((m + 1,) * spec.p), np.zeros((m + 1,) * spec.p, dtype=bool)
    for mu, u, w in zip(spec.nodes, spec.eigenvector, spec.weights):
        i = np.rint((mu + 0.5) * m).astype(int)
        images = {perm for flips in itertools.product(*[(j, m - j) for j in i])
                  for perm in itertools.permutations(flips)}
        assert len(images) == w
        for idx in images:
            assert not reached[idx]
            grid[idx], reached[idx] = u, True
    return grid, reached


def _full_grid_ground_state(p, m):
    """Reference ground state: the 2p-point Laplacian on every interior node,
    in C order of the full grid."""
    _, mask = _interior_mask(p, m)
    second_difference = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m + 1, m + 1)) * m * m
    laplacian = sum(
        sparse.kron(sparse.kron(sparse.identity((m + 1) ** d), second_difference),
                    sparse.identity((m + 1) ** (p - 1 - d)))
        for d in range(p)
    ).tocsr()
    keep = np.flatnonzero(mask)
    dense = laplacian[keep][:, keep].toarray()
    values, vectors = eigh(dense, subset_by_index=[0, 0])
    return values[0], vectors[:, 0], mask


@pytest.mark.parametrize(
    "p, m",
    [(1, 41), (1, 40), (2, 41), (2, 40), (3, 17), (3, 16), (4, 11), (4, 12), (5, 9), (5, 10)],
)
def test_simplex_orthant_fold_matches_full_grid(p, m):
    # odd M has no node on mu_d = 0; even M has one, with an unsymmetric fold
    e_ref, v_ref, mask = _full_grid_ground_state(p, m)
    spec = simplex_ground_energy(p, m)
    assert spec.E == pytest.approx(e_ref, rel=1e-10, abs=0)
    assert np.all(spec.nodes >= 0) and np.all(np.diff(spec.nodes, axis=1) >= 0)
    assert np.sum(spec.weights * spec.eigenvector ** 2) == pytest.approx(1.0, abs=1e-12)
    grid, reached = _unfold(spec, m)
    assert np.array_equal(reached, mask)
    v = grid[mask]  # in C order of the full grid, as ``v_ref``
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(v - np.sign(v @ v_ref) * v_ref)) <= 1e-8
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
    _, mask = _interior_mask(3, 20)
    assert msg.startswith(f"simplex_ground_energy p=3 M=20: nodes={np.count_nonzero(mask)} ")
    orbits = {tuple(sorted(np.abs(i - 10))) for i in np.argwhere(mask)}  # one per wedge node
    assert f" unknowns={len(orbits)} " in msg
    assert f"iterations={spec.iterations} E={spec.E!r} residual={spec.residual:.3e}" in msg
    # one matvec per CG iteration and one Rayleigh quotient per outer iteration
    assert len(cg_iterations) == spec.iterations
    assert msg.endswith(f" matvecs={sum(cg_iterations) + spec.iterations}")


# exact E, outer iterations and residual of the wedge solver: any reordering of the
# floating-point sums in the matvec or CG, or any change of the inner tolerances,
# moves them; both parities of M and every supported p
WEDGE_PINS = {
    (1, 200): (9.869401467148732, 10, 2.799145070009255e-09),
    (2, 40): (39.39731009555966, 10, 1.3172107152179062e-08),
    (2, 41): (37.55076223111739, 12, 1.9365367504075464e-08),
    (3, 16): (91.93017369364878, 16, 4.2041906101610254e-08),
    (3, 17): (92.32061228112659, 16, 3.1644591694198467e-08),
    (4, 11): (141.31721984881523, 18, 7.848634510261297e-08),
    (4, 12): (165.35399441550535, 20, 9.512123480051536e-08),
}


# the cases are named by the orthant solver's exact values, with 1e-12 rtol CG
# solves: the wedge holds the same discrete eigenproblem, so E agrees to rounding,
# and the inexact inner solves leave the outer convergence in place (within one
# outer step and a factor of two in the final residual)
@pytest.mark.parametrize("p, m, orthant_energy, orthant_iterations, orthant_residual", [
    (1, 200, 9.869401467147968, 10, 2.5209051074378338e-09),
    (2, 40, 39.39731009555941, 10, 1.1818786534086902e-08),
    (2, 41, 37.5507622311179, 12, 1.5159731533378204e-08),
    (3, 16, 91.93017369364871, 16, 3.612019205762306e-08),
    (3, 17, 92.32061228112671, 16, 2.8880549886128912e-08),
    (4, 11, 141.31721984881514, 17, 1.3421294000345863e-07),
    (4, 12, 165.35399441550533, 20, 8.563681527096558e-08),
])
def test_simplex_is_bit_identical(p, m, orthant_energy, orthant_iterations, orthant_residual):
    spec = simplex_ground_energy(p, m)
    energy, iterations, residual = WEDGE_PINS[p, m]
    assert spec.E == energy
    assert spec.iterations == iterations
    assert spec.residual == residual
    assert spec.E == pytest.approx(orthant_energy, rel=1e-12, abs=0)
    assert abs(spec.iterations - orthant_iterations) <= 1
    assert 0.5 <= spec.residual / orthant_residual <= 2.0


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
    assert spec.E == 39.39731009555966
    assert len(per_solve) == spec.iterations
    assert all(c["callbacks"] == c["matvecs"] > 0 for c in per_solve)


# the four perfbench sizes: wedge unknowns, outer iterations and matvecs from the
# DEBUG record, and E within 1e-12 of the orthant solver's
@pytest.mark.parametrize("p, m, unknowns, iterations, matvecs, orthant_energy", [
    (2, 160, 1640, 10, 347, 39.47334447498618),
    (3, 60, 950, 15, 263, 94.27327848853429),
    (3, 80, 2128, 15, 348, 94.35108275932373),
    (4, 30, 241, 18, 148, 177.8736874526231),
])
def test_simplex_work_is_pinned(caplog, p, m, unknowns, iterations, matvecs, orthant_energy):
    with caplog.at_level(logging.DEBUG, logger="hlbounds.variational"):
        spec = simplex_ground_energy(p, m)
    (msg,) = [r.getMessage() for r in caplog.records if r.name == "hlbounds.variational"]
    assert f" unknowns={unknowns} iterations={iterations} " in msg
    assert msg.endswith(f" matvecs={matvecs}")
    assert spec.E == pytest.approx(orthant_energy, rel=1e-12, abs=0)
    assert spec.residual <= 1e-9 * spec.E


def test_simplex_validation():
    with pytest.raises(InvalidArgumentError):
        simplex_ground_energy(0, 40)
    with pytest.raises(InvalidArgumentError):
        simplex_ground_energy(1, 8)  # fewer than 8 interior points per axis
    # at M = 9 every node of p >= 9 has radial sum >= p/18 >= 1/2
    with pytest.raises(InvalidArgumentError, match="no interior node"):
        simplex_ground_energy(9, 9)


# the largest grid and p under the index cap: p * C(floor(M/2) + p - 1, p) <= INDEX_CAP
@pytest.mark.parametrize("p, m", [(2, 6323), (4, 173), (13, 21)])
def test_simplex_index_cap_is_checked_first(p, m):
    assert p * math.comb(m // 2 + p - 1, p) <= INDEX_CAP
    for p_over, m_over in ((p, m + 1), (p + 1, m), (10 ** 200, m), (p, 10 ** 200),
                           (10 ** 200, 10 ** 200)):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError, match="index cap"):
                simplex_ground_energy(p_over, m_over)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 16
        finally:
            tracemalloc.stop()


def test_simplex_memory_stays_on_the_wedge():
    # 2,427 wedge unknowns at (4, 60); the full grid has 61^4 = 1.4e7 nodes (110 MB)
    tracemalloc.start()
    try:
        simplex_ground_energy(4, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


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


def test_monte_carlo_rejects_a_negative_seed():
    with pytest.raises(InvalidArgumentError, match="seed"):
        phase_cost_monte_carlo(PhaseMeasurementModel(sin_coefficients(4)), 1000, seed=-1)


def test_monte_carlo_above_the_sample_cap_allocates_nothing():
    model = PhaseMeasurementModel(sin_coefficients(4))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            phase_cost_monte_carlo(model, MC_SAMPLE_CAP + 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _grid_cdf(coeffs):
    model = PhaseMeasurementModel(coeffs)
    weights = model.pdf * (2.0 * np.pi / model.grid_points)
    return np.cumsum(weights), float(np.sum(weights))


def _zero_runs():
    """A cdf with runs of equal entries, keyed at each entry (three times) and
    on a uniform grid from 0 to the last."""
    weights = np.zeros(64)
    weights[[3, 4, 10, 30, 31, 32, 63]] = [1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 3.0]
    cum = np.cumsum(weights)
    r = np.concatenate([cum, np.repeat(cum, 3), np.linspace(0.0, cum[-1], 1001)])
    return cum, float(cum[-1]), r


def _sparse_random():
    """Random weights, two thirds of them zero, keyed at every cdf entry, 0
    and uniform draws."""
    rng = np.random.default_rng(5)
    weights = rng.random(4096) * (rng.random(4096) < 0.3)
    cum = np.cumsum(weights)
    total = float(np.sum(weights))
    r = np.concatenate([[0.0], rng.permutation(cum), rng.random(20_000) * total])
    return cum, total, r


def _flat_on_the_edges():
    """The flat density: its cdf entries sit on the bucket edges j total/g,
    so a start past the key's cell would show.  Keyed at every entry, at
    every edge and one ulp on either side of each."""
    cum, total = _grid_cdf(PhaseStateCoefficients(1, [1.0, 0.0]))
    edges = np.arange(cum.size) * (total / cum.size)
    keys = np.concatenate([cum, edges])
    r = np.concatenate([keys, np.nextafter(keys, -1.0), np.nextafter(keys, 2.0)])
    return cum, total, np.clip(r, 0.0, total)


def _total_past_the_cdf():
    """total above cum[-1], as where the pairwise np.sum exceeds the
    sequential cumsum: the keys in (cum[-1], total] belong to the last cell."""
    cum, total = _grid_cdf(sin_coefficients(5000))
    assert total > cum[-1]
    r = np.concatenate([np.linspace(cum[-1], total, 101), [np.nextafter(cum[-1], 2.0), 0.0]])
    return cum, total, r


def _wide_bucket():
    """The sine state at N = 12: a tail bucket spans more than 1000 cells."""
    cum, total = _grid_cdf(sin_coefficients(12))
    edges = np.arange(cum.size) * (total / cum.size) * (1.0 - 1e-12)
    assert np.diff(np.searchsorted(cum, edges)).max() > 1000
    r = np.random.Generator(np.random.Philox(1)).random(100_000) * total
    return cum, total, r


@pytest.mark.parametrize("case", [_zero_runs, _sparse_random, _flat_on_the_edges,
                                  _total_past_the_cdf, _wide_bucket],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_guide_table_lookup_equals_searchsorted(monkeypatch, case):
    cum, total, r = case()
    want = np.minimum(np.searchsorted(cum, r, "left"), cum.size - 1)
    searched = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    got = _cdf_index(cum, total, r)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, want)
    assert searched[0] == cum.size  # the guide table, then the keys still short
    if case is _wide_bucket:
        assert searched[1] > 0
