import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlbounds import (
    GeneratorSet,
    InvalidArgumentError,
    ReparamMatrix,
    ResourceLimitError,
    allocate,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    c_optimal_variance,
    elfving_variance_oracle,
    jnt_lower_bound,
    orthogonal_restricted_sep_plus,
    paradigm_constants,
    per_parameter_spread_constants,
    rotated_spreads,
    rotation_bound_value,
    sep_cost,
    sep_plus_lower_bound,
    sep_plus_optimize,
    spread_variance_oracle,
)
import hlbounds.bounds as bounds_module
from hlbounds.bounds import sep_plus_value
from hlbounds.operators import (
    SEARCH_SEEDS,
    generator_spreads,
    max_spread_over_sphere,
    optimize_orthogonal_bound,
    rotation_bound_ceiling,
    spread_ceiling,
)

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# single-parameter limits and allocation


def test_single_param_cr_examples():
    # diag(0, lam) has spread lam: the single-parameter CR constant is 1/lam^2
    for lam in (1.0, 2.0, 0.1):
        gens = GeneratorSet((np.diag([0.0, lam]),))
        assert per_parameter_spread_constants(gens, "cr")[0] == pytest.approx(1 / lam ** 2)
    with pytest.raises(InvalidArgumentError, match="degenerate spectrum"):
        per_parameter_spread_constants(GeneratorSet((np.diag([1.0, 1.0]),)), "cr")


def test_single_param_mm_examples():
    # diag(0, lam) has spread lam: the single-parameter MM constant is pi^2/lam^2
    for lam in (1.0, 2.0, 0.1):
        gens = GeneratorSet((np.diag([0.0, lam]),))
        assert per_parameter_spread_constants(gens, "mm")[0] == pytest.approx(PI2 / lam ** 2)
    with pytest.raises(InvalidArgumentError, match="degenerate spectrum"):
        per_parameter_spread_constants(GeneratorSet((np.diag([1.0, 1.0]),)), "mm")


def test_mm_to_cr_ratio_is_pi_squared():
    # the minimax constant is exactly pi^2 times the many-repetition one
    for lam in (1.0, 0.5, 3.0):
        gens = GeneratorSet((np.diag([0.0, lam]),))
        ratio = (per_parameter_spread_constants(gens, "mm")[0]
                 / per_parameter_spread_constants(gens, "cr")[0])
        assert ratio == pytest.approx(PI2, rel=1e-14)


def test_allocate_symmetric():
    plan = allocate([1.0, 1.0], 2)
    np.testing.assert_allclose(plan.shares, [0.5, 0.5])
    assert plan.total_constant == pytest.approx(8.0)


def test_allocate_sqrt_proportionality():
    plan = allocate([1.0, 4.0], 1)
    np.testing.assert_allclose(plan.shares, [1 / 3, 2 / 3])
    assert plan.total_constant == pytest.approx(9.0)


def test_allocate_three_phase_minimax():
    plan = allocate([PI2, PI2, PI2], 2)
    assert plan.total_constant == pytest.approx(27 * PI2)


def test_equal_constants_allocate_without_rounding():
    # p^(alpha+1) c exactly: the root round trip (pi^2)^(1/3) cubed loses a bit
    for p in (1, 2, 3, 5):
        assert allocate([PI2] * p, 2).total_constant == p ** 3 * PI2
        assert allocate([PI2] * p, 1).total_constant == p ** 2 * PI2
    for build in (build_fixed_atom_generators, build_free_atom_generators):
        sep = sep_cost(per_parameter_spread_constants(build(1), "mm"), "mm")
        assert sep.constant == PI2
    # free atoms at p=2, MM: the exact sep is no longer below the sep_plus floor
    gens = build_free_atom_generators(2)
    sep = sep_cost(per_parameter_spread_constants(gens, "mm"), "mm").constant
    assert sep >= sep_plus_lower_bound(gens, "mm").constant


def test_allocate_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        allocate([1.0, 0.0], 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [[1.0, math.inf], [math.inf, math.inf], [1.0, math.nan]])
@pytest.mark.parametrize("alpha", [1, 2])
def test_allocate_rejects_nonfinite(c, alpha):
    # inf/inf shares would be NaN; the check comes before any arithmetic
    with pytest.raises(InvalidArgumentError, match="finite"):
        allocate(c, alpha)


@pytest.mark.parametrize("alpha", [0, 3, -1, 1.5])
def test_sep_plus_value_rejects_an_unknown_alpha(alpha):
    # as ``allocate`` does: only CR (1) and MM (2) have a SEP+ cost
    gens = build_fixed_atom_generators(3)
    oracle = elfving_variance_oracle(gens, "cr")
    with pytest.raises(InvalidArgumentError, match="alpha must be 1"):
        sep_plus_value(ReparamMatrix(np.eye(3)), oracle, alpha)
    assert sep_plus_value(ReparamMatrix(np.eye(3)), oracle, 1) == 9.0


def test_allocate_matches_grid_oracle():
    # brute-force nested-grid minimization of sum c_i / x_i^alpha on the simplex
    rng = np.random.default_rng(31)
    for _ in range(6):
        for alpha in (1, 2):
            c = rng.uniform(0.2, 5.0, size=3)
            plan = allocate(c, alpha)
            assert plan.total_constant == pytest.approx(
                _grid_minimum(c, alpha), rel=1e-6
            )


def _grid_minimum(c, alpha, rounds=5, k=41):
    c = np.asarray(c)
    lo = np.zeros(len(c))
    hi = np.ones(len(c))
    best_x, best = None, math.inf
    for _ in range(rounds):
        g0 = np.linspace(lo[0], hi[0], k)
        g1 = np.linspace(lo[1], hi[1], k)
        x0, x1 = np.meshgrid(g0, g1, indexing="ij")
        x2 = 1.0 - x0 - x1
        ok = (x0 > 1e-9) & (x1 > 1e-9) & (x2 > 1e-9)
        val = np.where(
            ok,
            c[0] / np.maximum(x0, 1e-12) ** alpha
            + c[1] / np.maximum(x1, 1e-12) ** alpha
            + c[2] / np.maximum(x2, 1e-12) ** alpha,
            math.inf,
        )
        i, j = np.unravel_index(np.argmin(val), val.shape)
        if val[i, j] < best:
            best = float(val[i, j])
            best_x = (g0[i], g1[j])
        span0 = (hi[0] - lo[0]) / (k - 1)
        span1 = (hi[1] - lo[1]) / (k - 1)
        lo = np.array([max(best_x[0] - span0, 0.0), max(best_x[1] - span1, 0.0), 0.0])
        hi = np.array([min(best_x[0] + span0, 1.0), min(best_x[1] + span1, 1.0), 1.0])
    return best


# ---------------------------------------------------------------------------
# strategy costs


def test_sep_cost_fixed_atoms():
    for p in (2, 3, 5):
        gens = build_fixed_atom_generators(p)
        cr = sep_cost(per_parameter_spread_constants(gens, "cr"), "cr")
        assert cr.constant == pytest.approx(p ** 2, abs=1e-9)
        assert cr.status == "exact_asymptotic"
        mm = sep_cost(per_parameter_spread_constants(gens, "mm"), "mm")
        assert mm.constant == pytest.approx(PI2 * p ** 3, rel=1e-12)


def test_sep_cost_pauli3():
    gens = build_pauli_generators("xyz")
    cr = sep_cost(per_parameter_spread_constants(gens, "cr"), "cr")
    assert cr.constant == pytest.approx(9.0, abs=1e-9)


def test_sep_plus_lower_bound_examples():
    mm4 = sep_plus_lower_bound(build_fixed_atom_generators(4), "mm")
    assert mm4.constant == pytest.approx(PI2 * 16, rel=1e-10)
    assert mm4.status == "lower_bound"
    for p in (2, 3):
        mmf = sep_plus_lower_bound(build_free_atom_generators(p), "mm")
        assert mmf.constant == pytest.approx(PI2 * p ** 3, rel=1e-10)
    cr3 = sep_plus_lower_bound(build_pauli_generators("xyz"), "cr")
    assert cr3.constant == pytest.approx(9.0, rel=1e-7)


def test_jnt_lower_bound_examples():
    for p in (2, 3):
        mm = jnt_lower_bound(build_fixed_atom_generators(p), "mm")
        assert mm.constant == pytest.approx(PI2 * p, rel=1e-9)
    mm_free = jnt_lower_bound(build_free_atom_generators(2), "mm")
    assert mm_free.constant == pytest.approx(PI2 * 4, rel=1e-9)
    mm_pauli = jnt_lower_bound(build_pauli_generators("xyz"), "mm")
    assert mm_pauli.constant == pytest.approx(3 * PI2, rel=1e-9)
    cr_pauli = jnt_lower_bound(build_pauli_generators("xyz"), "cr")
    assert cr_pauli.constant == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("build", [build_fixed_atom_generators, build_free_atom_generators],
                         ids=["fixed-atoms", "free-atoms"])
def test_jnt_lower_bound_single_parameter(build):
    # one unit-spread generator: the single-parameter constants (the rotation
    # search needs p >= 2)
    assert jnt_lower_bound(build(1), "cr").constant == 1.0
    assert jnt_lower_bound(build(1), "mm").constant == PI2


@pytest.mark.parametrize("bound", [jnt_lower_bound, sep_plus_lower_bound],
                         ids=["jnt", "sep_plus_lower"])
@pytest.mark.parametrize("paradigm", ["cr", "mm"])
def test_single_generator_proportional_to_identity_is_rejected(bound, paradigm):
    # a spread of zero is an input error, not a division by zero
    with pytest.raises(InvalidArgumentError, match="degenerate spectrum"):
        bound(GeneratorSet((np.eye(2),)), paradigm)


# ---------------------------------------------------------------------------
# per-direction variance constants (c-optimal design values)


def test_c_optimal_variance_known_values():
    gens = build_two_sector_generators(1.0, 0.5)
    # coordinate direction: hull boundary of conv(+-(1,.5), +-(.5,1)) along
    # e1 sits at (0.5, 0), so the variance constant is 2^2 = 4
    assert c_optimal_variance(gens, [1.0, 0.0]) == pytest.approx(4.0, abs=1e-9)
    diag = c_optimal_variance(gens, np.array([1.0, 1.0]) / math.sqrt(2))
    assert diag == pytest.approx(8.0 / 9.0, abs=1e-9)
    free = build_free_atom_generators(2)
    assert c_optimal_variance(free, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert c_optimal_variance(
        free, np.array([1.0, 1.0]) / math.sqrt(2)
    ) == pytest.approx(2.0, abs=1e-9)


def test_c_optimal_variance_against_design_scan():
    # independent oracle: scan symmetric input designs q over the joint
    # eigenvalue patterns and minimize c^T Cov_q^{-1} c directly
    gens = build_two_sector_generators(1.0, 0.5)
    pts = np.array([[1.0, 0.5], [-1.0, -0.5], [0.5, 1.0], [-0.5, -1.0]])
    rng = np.random.default_rng(33)
    for _ in range(6):
        c = rng.standard_normal(2)
        c /= np.linalg.norm(c)
        best = math.inf
        for w in rng.dirichlet(np.ones(4), size=4000):
            m = (pts * w[:, None]).T @ pts - np.outer(w @ pts, w @ pts)
            try:
                best = min(best, float(c @ np.linalg.solve(m + 1e-12 * np.eye(2), c)))
            except np.linalg.LinAlgError:
                continue
        value = c_optimal_variance(gens, c)
        assert value <= best + 1e-6
        assert value == pytest.approx(best, rel=5e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("p", [3, 8], ids=["facets", "box-past-gates"])
def test_c_optimal_variance_rejects_a_nonfinite_direction(p, bad):
    # fixed atoms form their pattern differences at p = 3 and none past the
    # size gates at p = 8; both read the box and refuse the direction before
    # any arithmetic
    gens = build_fixed_atom_generators(p)
    assert (gens.geometry.body[0] is None) == (p == 8)
    c = np.ones(p)
    c[1] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        c_optimal_variance(gens, c)


def test_c_optimal_variance_of_an_asymmetric_single_generator():
    # patterns {1, 2}: the best probe is (|1> + |2>)/sqrt(2) with F = 4 Var = 1;
    # the difference body is [-1, 1], so the squared gauge of 1 is 1
    gens = GeneratorSet((np.diag([1.0, 2.0]),))
    assert c_optimal_variance(gens, [1.0]) == pytest.approx(1.0, rel=0, abs=1e-12)


def _min_over_probe_weights(points, c, rng):
    """min_w c^T (4 Cov_w)^{-1} c over probe weights w on the rows of
    ``points``, by Nelder-Mead over softmax logits from random starts."""
    from scipy.optimize import minimize

    def value(z):
        w = np.exp(z - np.max(z))
        w /= np.sum(w)
        mean = w @ points
        cov = (points * w[:, None]).T @ points - np.outer(mean, mean)
        try:
            return float(c @ np.linalg.solve(4.0 * cov, c))
        except np.linalg.LinAlgError:
            return math.inf

    return min(minimize(value, rng.standard_normal(len(points)), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000}).fun
               for _ in range(5))


def test_c_optimal_variance_of_the_triangle():
    # patterns (1, 0), (-1/2, +-sqrt(3)/2): the difference body is the hexagon
    # with vertices +-(3/2, +-sqrt(3)/2), +-(0, sqrt(3)), whose edge x = 3/2
    # gives e1 the squared gauge 4/9; the probe (1/2, 1/4, 1/4) attains it
    points = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    gens = GeneratorSet(tuple(np.diag(col) for col in points.T))
    e1 = np.array([1.0, 0.0])
    assert c_optimal_variance(gens, e1) == pytest.approx(4 / 9, rel=1e-12)
    direct = _min_over_probe_weights(points, e1, np.random.default_rng(5))
    assert 4 / 9 * (1 - 1e-12) <= direct <= 4 / 9 * (1 + 1e-8)


def test_scaled_design_keeps_its_facet_gauge():
    # a set scaled by 1e-5 keeps its difference body (rounding is relative to
    # the set's scale), and every gauge scales with it
    gens = build_fixed_atom_generators(3)
    scaled = GeneratorSet(tuple(1e-5 * g.entries for g in gens.generators))
    for c in ([1.0, 0.0, 0.0], [1.0, 2.0, -0.5], [0.3, -1.0, 0.7]):
        assert c_optimal_variance(scaled, c) == pytest.approx(
            1e10 * c_optimal_variance(gens, c), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-11, 1e-13])
@pytest.mark.parametrize("build", [lambda: build_fixed_atom_generators(3),
                                   lambda: build_free_atom_generators(4)],
                         ids=["fixed-atoms-3", "free-atoms-4"])
def test_constants_scale_with_the_set(build, scale):
    # every degeneracy and rounding threshold is relative to the set's scale:
    # scaling the generators by s scales every constant by 1/s^2
    gens = build()
    scaled = GeneratorSet(tuple(scale * g.entries for g in gens.generators))
    rng = np.random.default_rng(4)
    a = ReparamMatrix(np.eye(gens.p) + 0.3 * rng.standard_normal((gens.p, gens.p)))

    def constants(g):
        values = [rotation_bound_ceiling(g)]
        for paradigm in ("cr", "mm"):
            values += per_parameter_spread_constants(g, paradigm).tolist()
            values += [sep_plus_lower_bound(g, paradigm).constant,
                       jnt_lower_bound(g, paradigm).constant]
            values += spread_variance_oracle(g, paradigm)(a).tolist()
            values += elfving_variance_oracle(g, paradigm)(a).tolist()
        return values + [c_optimal_variance(g, np.arange(1.0, g.p + 1))]

    np.testing.assert_allclose(np.array(constants(scaled)) * scale ** 2, constants(gens),
                               rtol=1e-12, atol=0)


def test_sep_plus_optimize_two_sector():
    gens = build_two_sector_generators(1.0, 0.5)
    a, est = sep_plus_optimize(gens, "cr")
    expected = 2 / 0.25 + 2 / 2.25
    assert est.constant == pytest.approx(expected, abs=1e-7)
    assert est.status == "upper_bound"
    # the optimum is the non-orthogonal pairing transform, A^{-1} rows
    # proportional to the strength patterns (1, 1/2) and (1/2, 1)
    inv = np.linalg.inv(a.entries)
    inv = inv / inv[0, 0]
    np.testing.assert_allclose(inv, [[1.0, 0.5], [0.5, 1.0]], atol=1e-4)


def test_sep_plus_optimize_fixed_atoms_p2():
    _, est = sep_plus_optimize(build_fixed_atom_generators(2), "cr")
    assert est.constant == pytest.approx(2.0, abs=1e-7)


def test_sep_plus_optimize_free_atoms_matches_sep():
    gens = build_free_atom_generators(3)
    _, est = sep_plus_optimize(gens, "cr")
    sep = sep_cost(per_parameter_spread_constants(gens, "cr"), "cr")
    assert est.constant == pytest.approx(sep.constant, rel=1e-9)


def test_sep_plus_optimize_never_exceeds_sep_cost():
    # identity is a seed, and at the identity the exact nuisance-aware
    # per-parameter constants never beat the spread-based separate protocol
    for gens, paradigm in (
        (build_fixed_atom_generators(2), "mm"),
        (build_free_atom_generators(2), "cr"),
    ):
        sep = sep_cost(per_parameter_spread_constants(gens, paradigm), paradigm)
        _, est = sep_plus_optimize(gens, paradigm)
        assert est.constant <= sep.constant * (1 + 1e-9)


def test_spread_oracle_vs_elfving_oracle():
    gens = build_fixed_atom_generators(2)
    identity = ReparamMatrix(np.eye(2))
    spread_o = spread_variance_oracle(gens, "cr")
    exact_o = elfving_variance_oracle(gens, "cr")
    for i in range(2):
        # per-parameter sensing of a fixed-atom register is nuisance-free
        assert exact_o(identity)[i] == pytest.approx(spread_o(identity)[i], abs=1e-12)
    # at the identity the spread oracle underestimates the coupled model
    coupled = build_two_sector_generators(1.0, 0.5)
    assert spread_variance_oracle(coupled, "cr")(identity)[0] == pytest.approx(1.0)
    assert elfving_variance_oracle(coupled, "cr")(identity)[0] == pytest.approx(4.0, abs=1e-9)


def test_spread_oracle_scores_a_badly_scaled_matrix():
    # A's near-zero column makes the rotated pair numerically dependent; the
    # oracle must score that parameter instead of raising, and its degeneracy
    # test is relative to the column, so the SEP+ term is the scale-free 16
    gens = GeneratorSet((np.array([[0.0, 1.0], [1.0, 0.0]]) / 8, np.diag([1.0, -1.0]) / 8))
    a = ReparamMatrix(np.array([[0.0, 1.0], [8.4e-142, 0.0]]))
    np.testing.assert_allclose(rotated_spreads(gens, a), [2.1e-142, 0.25], rtol=1e-12)
    oracle = spread_variance_oracle(gens, "cr")
    assert oracle(a)[0] == pytest.approx(2.1e-142 ** -2, rel=1e-12)
    assert oracle(a)[1] == pytest.approx(16.0, rel=1e-12)
    assert sep_plus_value(a, oracle, 1) == pytest.approx(64.0, rel=1e-12)
    assert rotation_bound_value(gens, a) == -math.inf


# ---------------------------------------------------------------------------
# batched gauge queries and per-candidate oracles


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_fixed_atom_generators(3),
        lambda: build_fixed_atom_generators(4),
        lambda: build_free_atom_generators(4),
        lambda: build_two_sector_generators(1.0, 0.5),
    ],
    ids=["fixed-atoms-3", "fixed-atoms-4", "free-atoms-4", "two-sector"],
)
def test_batched_gauges_equal_single_row_queries(build):
    # the oracle's gauges of a stack equal c_optimal_variance on each row of
    # each A^{-1}, the single-row matvec form, bit for bit
    gens = build()
    stack = np.eye(gens.p) + 0.3 * np.random.default_rng(8).standard_normal((7, gens.p, gens.p))
    batched = elfving_variance_oracle(gens, "cr").many(stack)
    single = [[c_optimal_variance(gens, r) for r in b] for b in np.linalg.inv(stack)]
    assert np.array_equal(batched, single)
    assert np.array_equal(batched[0], _gauges(gens, np.linalg.inv(stack[0])) ** 2)


def _gauges(gens, rows) -> np.ndarray:
    """The gauge of each row of ``rows``: its largest facet value on the
    ``difference_body``."""
    facets = gens.geometry.body[1]
    return np.array([float(np.max(facets @ r)) for r in rows])


def _lp_gauge(gens, c) -> float:
    """An independent reference for the gauge of c: the linear program
    min ||beta||_1 / 2 subject to sum_s beta_s x_s = c, sum_s beta_s = 0 over
    the distinct patterns x_s (such a beta splits into pairs e_s - e_t),
    solved by HiGHS."""
    from scipy.optimize import linprog

    pts = gens.geometry.patterns
    a_eq = np.vstack([pts.T, np.ones(len(pts))])
    res = linprog(np.full(2 * a_eq.shape[1], 0.5), A_eq=np.hstack([a_eq, -a_eq]),
                  b_eq=np.append(c, 0.0), bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def test_lp_gauges_match_c_optimal_variance():
    # 3^8 pattern differences are past the hull's size gate; the box needs
    # none, and its squared gauges are the linear programs' squared values
    gens = build_fixed_atom_generators(8)
    rows = np.random.default_rng(9).standard_normal((3, 8))
    squared = [_lp_gauge(gens, r) ** 2 for r in rows]
    np.testing.assert_allclose([c_optimal_variance(gens, r) for r in rows], squared,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("build, gauge", [
    (lambda: build_fixed_atom_generators(8), lambda r: np.max(np.abs(r))),
    (lambda: build_free_atom_generators(9), lambda r: np.sum(np.abs(r))),
], ids=["fixed-atoms-8", "free-atoms-9"])
def test_lp_gauges_match_the_closed_form(build, gauge):
    # an independent reference: the fixed-atom patterns {-1/2, 1/2}^p have
    # the cube [-1, 1]^p as difference body, gauge max_k |c_k|; the free-atom
    # patterns +-e_k / 2 have the unit cross-polytope, gauge sum_k |c_k|.
    # Both are past the hull's size gates, and both have facets
    gens = build()
    assert gens.geometry.body[0] is None
    rows = np.random.default_rng(10).standard_normal((20, gens.p))
    expected = [gauge(r) for r in rows]
    np.testing.assert_allclose([_lp_gauge(gens, r) for r in rows], expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_gauges(gens, rows), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("build", [lambda: build_fixed_atom_generators(5),
                                   lambda: build_fixed_atom_generators(6),
                                   lambda: build_free_atom_generators(6)],
                         ids=["fixed-atoms-5", "fixed-atoms-6", "free-atoms-6"])
def test_facet_gauge_equals_the_lp_fallback(build):
    gens = build()
    rows = np.random.default_rng(9).standard_normal((4, gens.p))
    np.testing.assert_allclose(_gauges(gens, rows), [_lp_gauge(gens, r) for r in rows],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("factory", [elfving_variance_oracle, spread_variance_oracle])
def test_reused_oracle_equals_a_fresh_one(factory):
    gens = build_fixed_atom_generators(3)
    rng = np.random.default_rng(21)
    a1 = ReparamMatrix(np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
    a2 = ReparamMatrix(np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
    oracle = factory(gens, "mm")
    for a in (a1, a2, a1):
        assert np.array_equal(oracle(a), factory(gens, "mm")(a))


def test_search_logs_every_nelder_mead_run(caplog, minimize_runs):
    runs = minimize_runs
    # the free-atom rotation search at p = 3, the Nelder-Mead search the
    # command line runs: no seed meets the ceiling, so every start runs
    with caplog.at_level(logging.DEBUG, logger="hlbounds.operators"):
        optimize_orthogonal_bound(build_free_atom_generators(3))
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.operators"]
    assert len(messages) == len(runs) + 1 and len(runs) == 4
    # each round scores one point of every unfinished start, so the rounds
    # are the largest start's evaluations
    assert messages[0] == (
        f"optimize_orthogonal_bound searched {len(runs)} starts in "
        f"{max(res.nfev for res in runs)} batched rounds: "
        f"nfev={sum(res.nfev for res in runs)}, "
        f"{sum(not res.success for res in runs)} unconverged")
    for start, (msg, res) in enumerate(zip(messages[1:], runs)):
        assert msg.startswith(f"optimize_orthogonal_bound start {start}: nfev={res.nfev} ")
        assert f"success={res.success}" in msg


# ---------------------------------------------------------------------------
# the certified stop of the SEP+ search


# the two-sector pairs of the benchmark's search workload (perfbench/workloads.py)
TWO_SECTOR_PAIRS = ((1.0, 0.5), (1.0, 0.3), (1.0, 0.4), (1.0, 0.6), (2.0, 1.0), (2.0, 0.5))


@pytest.mark.parametrize(
    "gens,paradigm,winner,closed_form",
    [
        (build_fixed_atom_generators(2), "cr", 1, 2.0),
        (build_fixed_atom_generators(4), "mm", 1, 16 * PI2),
        (build_free_atom_generators(4), "mm", 0, 64 * PI2),
        (build_fixed_atom_generators(8), "mm", 1, 64 * PI2),
    ] + [
        (build_two_sector_generators(a, b), "cr", 2, 2 / (a - b) ** 2 + 2 / (a + b) ** 2)
        for a, b in TWO_SECTOR_PAIRS
    ],
    ids=["fixed-atoms-2-cr", "fixed-atoms-4-mm", "free-atoms-4-mm", "fixed-atoms-8-mm"]
    + [f"two-sector-{a}-{b}-cr" for a, b in TWO_SECTOR_PAIRS],
)
def test_search_stops_at_a_seed_on_the_floor(caplog, monkeypatch, minimize_runs, gens,
                                             paradigm, winner, closed_form):
    # fixed atoms meet p^2 pi^2 at the Walsh-Hadamard seed (1), free atoms
    # p^3 pi^2 at the identity (0); two-sector meets the CR design floor, its
    # joint constant, at the difference seed (2), which is built only when
    # no structured seed meets the floor; the random starts are never drawn
    floor = bounds_module._certified_search_floor(gens, paradigm)
    assert floor >= sep_plus_lower_bound(gens, paradigm).constant
    built, difference_seed = [], bounds_module._difference_seed
    monkeypatch.setattr(bounds_module, "_difference_seed",
                        lambda *args: built.append(1) or difference_seed(*args))
    with caplog.at_level(logging.DEBUG, logger="hlbounds.bounds"):
        _, est = sep_plus_optimize(gens, paradigm)
    assert minimize_runs == []
    assert len(built) == (winner == 2)
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.bounds"]
    assert len(messages) == 1
    assert messages[0] == (
        f"sep_plus_optimize certified by seed {winner}: "
        f"value={float(est.constant)!r} floor={floor!r}; starts 0-{max(winner, 1)} skipped"
    )
    assert est.constant == pytest.approx(closed_form, rel=1e-12, abs=0)
    assert est.status == "upper_bound"


@pytest.mark.parametrize("p", range(1, 7))
def test_cr_design_floor_of_the_atom_models(p):
    # fixed atoms: v in {+-1}^p, M = I, floor 2p - p; free atoms: v = +-e_i,
    # M = I/p, floor 2p^2 - p^2
    for build, expected in ((build_fixed_atom_generators, p),
                            (build_free_atom_generators, p * p)):
        vectors = 2.0 * build(p).geometry.patterns
        assert bounds_module._design_floor(vectors) == pytest.approx(expected, rel=1e-12)


def test_fixed_atoms_p8_search_uses_the_box(monkeypatch):
    # 3^8 pattern differences are past the hull's size gate, but the box
    # needs none: its facets are +-e_k, and the CR search meets its floor 8
    # at the Walsh-Hadamard seed without a linear program
    gens = build_fixed_atom_generators(8)
    diffs, facets = gens.geometry.body
    assert diffs is None
    np.testing.assert_array_equal(facets, np.vstack([np.eye(8), -np.eye(8)]))
    monkeypatch.setattr(bounds_module, "linprog", None)
    assert sep_plus_optimize(gens, "cr")[1].constant == 8.0


@pytest.mark.parametrize("patterns, error, match", [
    ([[1.0, 0.0], [0.0, 1.0]], InvalidArgumentError, r"flat: .* at u = \[1.0, 1.0\]"),
    (np.random.default_rng(3).standard_normal((12, 9)), ResourceLimitError, "size gates"),
], ids=["flat", "past-the-gates"])
def test_a_set_without_a_difference_body_fails_before_any_search(monkeypatch, patterns, error,
                                                                  match):
    # patterns (1, 0) and (0, 1): Lambda_1 + Lambda_2 = I has spread 0, so D
    # is a segment; twelve random patterns at p = 9 are neither a product nor
    # an axis set, and past the hull's p <= 8
    gens = GeneratorSet.from_patterns(patterns)
    monkeypatch.setattr(bounds_module, "search_from_starts", None)
    for call in (lambda: c_optimal_variance(gens, np.ones(gens.p)),
                 lambda: elfving_variance_oracle(gens, "cr"),
                 lambda: sep_plus_optimize(gens, "mm")):
        with pytest.raises(error, match=match):
            call()


def _random_qutrit_pair():
    """Two seeded random Hermitian 3 x 3 generators, which do not commute."""
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    return GeneratorSet(tuple(z + z.conj().transpose(0, 2, 1)))


NON_COMMUTING = {"pauli-xy": lambda: build_pauli_generators("xy"),
                 "pauli-xyz": lambda: build_pauli_generators("xyz"),
                 "random-qutrit-pair": _random_qutrit_pair}


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("name", list(NON_COMMUTING))
def test_non_commuting_sep_plus_search_is_refused_before_any_search(monkeypatch, minimize_runs,
                                                                     name, paradigm):
    # its answer is the sep_plus_lower_bound constant, with no search
    gens = NON_COMMUTING[name]()
    assert not gens.commuting
    monkeypatch.setattr(bounds_module, "search_from_starts", None)
    monkeypatch.setattr(bounds_module, "max_spread_over_sphere", None)
    with pytest.raises(InvalidArgumentError, match="commuting set; .* sep_plus_lower_bound"):
        sep_plus_optimize(gens, paradigm)
    assert minimize_runs == []


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("components", ["xy", "xyz"])
def test_spread_oracle_sep_plus_is_never_below_the_floor(components, paradigm):
    # term i of the spread oracle's SEP+ value is factor / spread(a_i . Lambda
    # / |a_i|)^2, at least factor / L*^2; the Pauli L* = 1 meets the Mirsky
    # ceiling, so the floor is exact, and no random A gets below it by more
    # than rounding
    gens = build_pauli_generators(components)
    assert max_spread_over_sphere(gens)[1] == pytest.approx(spread_ceiling(gens), rel=1e-12)
    alpha, _ = paradigm_constants(paradigm)
    floor = sep_plus_lower_bound(gens, paradigm).constant
    stack = np.random.default_rng(11).standard_normal((1000, gens.p, gens.p))
    values = bounds_module._sep_plus_values(stack, spread_variance_oracle(gens, paradigm), alpha)
    assert all(math.isfinite(v) for v in values)
    assert min(values) >= floor * (1 - 1e-12)


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("name", list(NON_COMMUTING))
def test_columns_tilted_toward_the_largest_spread_reach_the_floor(name, paradigm):
    # every column within 1e-6 of the direction u of the largest spread: each
    # term is within rounding of factor / L*^2, so the spread oracle's SEP+
    # value is the floor, its infimum.  The terms are summed by ``allocate``,
    # the same power mean, since at p = 3 ``nonsingular`` refuses so flat an A
    gens = NON_COMMUTING[name]()
    alpha, _ = paradigm_constants(paradigm)
    u = max_spread_over_sphere(gens)[0]
    a = u[:, None] + 1e-6 * np.random.default_rng(12).standard_normal((gens.p, gens.p))
    terms = np.sum(a * a, axis=0) * spread_variance_oracle(gens, paradigm).many(a[None])[0]
    floor = sep_plus_lower_bound(gens, paradigm).constant
    assert allocate(terms, alpha).total_constant == pytest.approx(floor, rel=1e-9, abs=0)


def test_search_certified_by_its_first_start(caplog, monkeypatch, minimize_runs):
    # Fixed atoms at p=3 in CR from the 3 random starts alone (no identity and
    # no difference seed, whose value 2 + sqrt(3) no start improves), under a
    # floor at the value the sweeps from start 0 reach: the fold logs start 0
    # and stops there; starts 1-2 were swept and are dropped unlogged, and
    # Nelder-Mead does not run
    gens = build_fixed_atom_generators(3)
    reached = 3.73205080756888
    monkeypatch.setattr(bounds_module, "structured_seeds", lambda _: [])
    monkeypatch.setattr(bounds_module, "_difference_seed", lambda *_: [])
    monkeypatch.setattr(bounds_module, "_certified_search_floor", lambda *_: reached)
    with caplog.at_level(logging.DEBUG, logger="hlbounds.bounds"):
        _, est = sep_plus_optimize(gens, "cr")
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.bounds"]
    assert minimize_runs == []
    assert messages == [
        "sep_plus_optimize swept 3 starts: 19 sweeps, 53 moves, 171 lines, 0 unconverged",
        f"sep_plus_optimize start 0: sweeps=5 moves=15 converged=True fun={reached!r}",
        "sep_plus_optimize certified by the search from start 0: "
        f"value={reached!r} floor={reached!r}; starts 1-2 skipped",
    ]
    assert est.constant == reached


@pytest.mark.parametrize("p,paradigm,best_known", [
    (3, "cr", 3.7320508075688767), (3, "mm", 110.32808106595299),
    (5, "cr", 5.5556), (5, "mm", 274.156), (6, "cr", 7.2), (6, "mm", 426.367)])
def test_fixed_atom_sweeps_converge_to_the_best_known_values(caplog, minimize_runs, p,
                                                             paradigm, best_known):
    # every start of the fixed-atom searches on the command line sweeps to
    # convergence; at p = 5 and 6 they reach the weighing-design values
    with caplog.at_level(logging.DEBUG, logger="hlbounds.bounds"):
        _, est = sep_plus_optimize(build_fixed_atom_generators(p), paradigm)
    messages = [r.getMessage() for r in caplog.records if r.name == "hlbounds.bounds"]
    starts = 5 if p == 3 else 4
    assert minimize_runs == []
    head, sweeps, moves, lines = re.fullmatch(
        r"(.*): (\d+) sweeps, (\d+) moves, (\d+) lines, 0 unconverged", messages[0]).groups()
    assert head == f"sep_plus_optimize swept {starts} starts"
    # every sweep values all p^2 lines
    assert int(lines) == int(sweeps) * p * p and int(moves) > 0
    assert [m.split(": ")[0] for m in messages[1:]] == [
        f"sep_plus_optimize start {i}" for i in range(starts)]
    assert all(" converged=True fun=" in m for m in messages[1:])
    assert est.constant <= best_known * (1 + 1e-9)
    assert est.constant >= sep_plus_lower_bound(build_fixed_atom_generators(p),
                                                paradigm).constant


def _fixed_atom_lines(p, paradigm):
    gens = build_fixed_atom_generators(p)
    alpha, factor = paradigm_constants(paradigm)
    return (elfving_variance_oracle(gens, paradigm), alpha, factor, gens.geometry.body[1],
            generator_spreads(gens))


# the error state the sweeps run their lines under
_LINE_ERRSTATE = dict(divide="ignore", invalid="ignore", over="ignore")


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 12])
def test_rank_one_line_equals_the_scorer(p, paradigm):
    # a random B whose rows lie in the cube D of fixed atoms: each candidate
    # of a line, valued by the rank-one form and by _sep_plus_values on the
    # inverse of the same B.  From p = 8 numpy sums the p terms pairwise
    oracle, alpha, factor, facets, extent = _fixed_atom_lines(p, paradigm)
    b = np.random.default_rng(p).uniform(-1.0, 1.0, (p, p))
    lines = bounds_module._Lines(np.linalg.inv(b), b, facets, factor, alpha)
    for j, k in ((0, 0), (p - 1, 0), (1, p - 1), (2, 1)):
        xs = extent[k] * np.linspace(-1.0, 1.0, bounds_module._LINE_POINTS)
        with np.errstate(**_LINE_ERRSTATE):
            values, _, _ = lines.values(j, k, xs)
        stack = np.repeat(b[None], len(xs), 0)
        stack[:, j, k] = xs
        want = np.array(bounds_module._sep_plus_values(np.linalg.inv(stack), oracle, alpha))
        # the few candidates next to a singular B have an A that
        # ``nonsingular`` refuses (at most 3 on a line at p <= 6, 7 on one at
        # p = 7, none at p = 12); the line ranks them far above the rest
        finite = np.isfinite(want)
        assert finite.sum() >= len(xs) - (3 if p <= 6 else 7)
        assert np.all(values[~finite] > 1e3 * values.min())
        np.testing.assert_allclose(values[finite], want[finite], rtol=1e-10, atol=0)


def _line_values_reference(a, b, facets, factor, alpha, j, k, xs):
    """``_Lines.values`` as first written, on the (L, p) and (L, facets)
    layouts with the facet max over the trailing axis: the reference that
    the kernel must match bit for bit."""
    gram = a.T @ a
    fb = facets @ b.T
    g2 = np.maximum.reduce(fb) ** 2
    d = xs - b[j, k]
    s = d / (1.0 + d * a[k, j])
    col = s[:, None]
    norms = np.diag(gram) + col * (col * (a[k] * a[k] * gram[j, j]) - 2.0 * a[k] * gram[j])
    gauge = np.maximum.reduce(fb[:, j] + d[:, None] * facets[:, k], 1)
    terms = norms * g2
    terms[:, j] = norms[:, j] * gauge * gauge
    values = factor * np.add.reduce(terms ** (1.0 / (alpha + 1)), 1) ** (alpha + 1)
    return np.where(values >= 0, values, math.inf), s, gauge


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("model,p", [("fixed-atoms", p) for p in range(2, 13)]
                         + [("free-atoms", p) for p in range(2, 7)])
def test_rank_one_line_is_the_reference_bit_for_bit(model, p, paradigm):
    # every line through a random B, and through a diagonal B of powers of
    # two, whose line (j, j) meets the singular B with row j zero at the
    # grid's middle point: the same values, steps and gauges as the
    # reference formula
    build = {"fixed-atoms": build_fixed_atom_generators,
             "free-atoms": build_free_atom_generators}[model]
    gens = build(p)
    alpha, factor = paradigm_constants(paradigm)
    facets, extent = gens.geometry.body[1], generator_spreads(gens)
    rng = np.random.default_rng(100 + p)
    bs = [rng.uniform(-1.0, 1.0, (p, p)) * extent, np.diag(2.0 ** -rng.integers(0, 3, p))]
    for b in bs:
        a = np.linalg.inv(b)
        lines = bounds_module._Lines(a, b, facets, factor, alpha)
        for j, k in np.ndindex(p, p):
            xs = extent[k] * np.linspace(-1.0, 1.0, bounds_module._LINE_POINTS)
            with np.errstate(**_LINE_ERRSTATE):
                got = lines.values(j, k, xs)
                want = _line_values_reference(a, b, facets, factor, alpha, j, k, xs)
            for name, g, w in zip(("values", "s", "gauge"), got, want):
                assert np.array_equal(g, w, equal_nan=True), (name, b, j, k)
    # the last B, the diagonal one: its line (0, 0) divides by zero there, to s = -inf
    middle = bounds_module._LINE_POINTS // 2
    with np.errstate(**_LINE_ERRSTATE):
        values, s, _ = lines.values(
            0, 0, extent[0] * np.linspace(-1.0, 1.0, bounds_module._LINE_POINTS))
    assert s[middle] == -math.inf and values[middle] == math.inf


@pytest.mark.parametrize("p,paradigm", [(6, "cr"), (7, "mm")])
def test_sweeps_leak_no_warning_and_score_under_the_callers_error_state(monkeypatch, p,
                                                                         paradigm):
    # the lines divide by zero where a start's line crosses a singular B (the
    # identity's line (j, j) does at its middle point) under the sweeps' own
    # np.errstate; nothing escapes it, and the scorer and the moves (each
    # move builds the lines of its new B) run under the caller's error
    # state, which is the same after the sweeps
    oracle, _, _, facets, extent = _fixed_atom_lines(p, paradigm)
    scored, built, valued = [], [], []
    real_score = bounds_module._sep_plus_values
    real_init, real_values = bounds_module._Lines.__init__, bounds_module._Lines.values

    def recording(*args):
        scored.append(np.geterr())
        return real_score(*args)

    def recording_init(self, *args):
        built.append(np.geterr())
        real_init(self, *args)

    def recording_values(self, *args):
        valued.append(np.geterr())
        return real_values(self, *args)

    monkeypatch.setattr(bounds_module, "_sep_plus_values", recording)
    monkeypatch.setattr(bounds_module._Lines, "__init__", recording_init)
    monkeypatch.setattr(bounds_module._Lines, "values", recording_values)
    starts = [np.eye(p)] + [np.eye(p) + 0.3 * np.random.default_rng(seed).standard_normal((p, p))
                            for seed in SEARCH_SEEDS]
    caller = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs, _ = bounds_module._coordinate_sweeps(facets, extent, oracle, paradigm)(
            [x.ravel() for x in starts])
    assert len(runs) == len(starts) and all(r.converged for r in runs)
    assert len(built) == len(starts) + sum(r.moves for r in runs)
    assert scored and all(state == caller for state in scored + built)
    assert all(state == {**caller, **_LINE_ERRSTATE} for state in valued)
    assert np.geterr() == caller


def test_sweep_keeps_no_move_the_scorer_does_not_lower(monkeypatch):
    # from the identity, a fixed point of the sweep, each line reports its
    # worst finite candidate as its best: the scorer scores every one of
    # them and keeps none, so the start ends after one sweep where it began
    oracle, _, _, facets, extent = _fixed_atom_lines(3, "cr")
    values = bounds_module._Lines.values

    def worst_first(self, j, k, xs):
        v, s, gauge = values(self, j, k, xs)
        fake = np.full_like(v, math.inf)
        fake[np.argmax(np.where(np.isfinite(v), v, -math.inf))] = 0.0
        return fake, s, gauge

    scored, real = [], bounds_module._sep_plus_values

    def counting(stack, *args):
        scored.append(stack)
        return real(stack, *args)

    monkeypatch.setattr(bounds_module._Lines, "values", worst_first)
    monkeypatch.setattr(bounds_module, "_sep_plus_values", counting)
    local = bounds_module._coordinate_sweeps(facets, extent, oracle, "cr")
    [run], summary = local([np.eye(3).ravel()])
    assert (run.sweeps, run.moves, run.converged) == (1, 0, True)
    assert np.array_equal(run.x, np.eye(3).ravel()) and run.fun == 9.0
    assert len(scored) == 1 + 9
    assert summary == "swept 1 starts: 1 sweeps, 0 moves, 9 lines, 0 unconverged"


@pytest.mark.parametrize("paradigm,value", [("cr", 2 + math.sqrt(3)), ("mm", 110.32808106595)])
def test_difference_seed_of_fixed_atoms_p3(paradigm, value):
    # the best inverse of three of the 13 directions of {-1, 0, 1}^3
    gens = build_fixed_atom_generators(3)
    oracle = elfving_variance_oracle(gens, paradigm)
    alpha = paradigm_constants(paradigm)[0]
    [seed] = bounds_module._difference_seed(gens, oracle, alpha)
    assert np.allclose(np.linalg.inv(seed), np.round(np.linalg.inv(seed)), atol=1e-12)
    assert sep_plus_value(ReparamMatrix(seed), oracle, alpha) == pytest.approx(value, rel=1e-12)


def test_asymmetric_pattern_set_has_a_certificate():
    # patterns {1, 2}: the difference body [-1, 1] has the spread as its
    # support function, so the spread floor 1 bounds both oracles; the design
    # floor on the centred vectors +-1 is 1 as well
    gens = GeneratorSet((np.diag([1.0, 2.0]),))
    assert gens.geometry.max_spread is not None
    assert bounds_module._certified_search_floor(gens, "cr") == 1.0
    assert bounds_module._certified_search_floor(gens, "mm") == PI2
    for paradigm, alpha in (("cr", 1), ("mm", 2)):
        floor = bounds_module._certified_search_floor(gens, paradigm)
        for scale in (0.5, 1.0, 3.0):
            a = ReparamMatrix([[scale]])
            for factory in (spread_variance_oracle, elfving_variance_oracle):
                value = sep_plus_value(a, factory(gens, paradigm), alpha)
                assert value >= floor * (1 - 1e-12)


EIGHTHS = st.integers(-16, 16).map(lambda n: n / 8)


@st.composite
def diagonal_models(draw):
    """A commuting diagonal set from k random joint patterns (multiples of
    1/8, so rounding to 12 digits of the scale is exact), optionally with
    their negatives."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(p, 4))
    points = np.array(draw(st.lists(st.lists(EIGHTHS, min_size=p, max_size=p),
                                    min_size=k, max_size=k)))
    symmetric = draw(st.booleans())
    patterns = np.vstack([points, -points]) if symmetric else points
    try:
        gens = GeneratorSet(tuple(np.diag(col) for col in patterns.T))
    except InvalidArgumentError:
        assume(False)
    return gens, symmetric


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    model=diagonal_models(),
    entries=st.lists(EIGHTHS, min_size=9, max_size=9),
    paradigm=st.sampled_from(["cr", "mm"]),
)
def test_certified_floor_bounds_both_oracles(model, entries, paradigm):
    gens, symmetric = model
    p, alpha = gens.p, 1 if paradigm == "cr" else 2
    exact = gens.geometry.max_spread
    assume(exact is not None)
    a = np.reshape(entries[:p * p], (p, p))
    # a well-conditioned A keeps the rotated generators linearly independent
    assume(np.linalg.cond(a) < 1e3)
    a = ReparamMatrix(a)
    floor = sep_plus_lower_bound(gens, paradigm).constant
    value = sep_plus_value(a, spread_variance_oracle(gens, paradigm), alpha)
    assert value >= floor * (1 - 1e-12)
    # symmetric or not: the spread floor, and in CR the design floor on the
    # patterns centred at their midrange (0 for a symmetric set)
    pts = gens.geometry.patterns
    centre = (pts.max(axis=0) + pts.min(axis=0)) / 2
    if symmetric:
        assert np.all(centre == 0)
    design = bounds_module._design_floor(2.0 * (pts - centre))
    if paradigm == "cr" and design is not None:
        floor = max(floor, design)
    certified = bounds_module._certified_search_floor(gens, paradigm)
    assert certified == floor
    if np.linalg.matrix_rank(pts - pts[0]) < p:
        # a flat difference body: some u . Lambda has spread 0
        with pytest.raises(InvalidArgumentError, match="flat"):
            elfving_variance_oracle(gens, paradigm)
        return
    value = sep_plus_value(a, elfving_variance_oracle(gens, paradigm), alpha)
    assert value >= certified * (1 - 1e-12)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    patterns=st.lists(st.lists(EIGHTHS, min_size=3, max_size=3), min_size=2, max_size=4),
    p=st.integers(1, 3),
    entries=st.lists(EIGHTHS, min_size=9, max_size=9),
)
def test_elfving_sep_plus_is_above_the_design_floor(patterns, p, entries):
    # every CR SEP+ value is a joint design's tr M_w^{-1}, which the tangent
    # floor at the uniform design bounds from below
    points = np.array(patterns)[:, :p]
    points = np.vstack([points, -points])
    design = bounds_module._design_floor(2.0 * points)
    assume(design is not None)
    a = np.reshape(entries[:p * p], (p, p))
    assume(np.linalg.cond(a) < 1e3)
    gens = GeneratorSet(tuple(np.diag(col) for col in points.T))
    value = sep_plus_value(ReparamMatrix(a), elfving_variance_oracle(gens, "cr"), 1)
    assert value >= design * (1 - 1e-12)


# ---------------------------------------------------------------------------
# orthogonal-restricted reparametrization (two-sector model)


def test_orthogonal_restricted_decoupled_limit():
    beta = 1e-3
    general = 2 / (1 - beta) ** 2 + 2 / (1 + beta) ** 2
    ratio = orthogonal_restricted_sep_plus((1.0, beta)) / general
    assert abs(ratio - 1.0) < 1e-2


def test_orthogonal_restricted_strictly_worse_at_half():
    general = 2 / 0.25 + 2 / 2.25
    value = orthogonal_restricted_sep_plus((1.0, 0.5))
    assert value / general > 1.01
    assert value >= general - 1e-9


def _scalar_angle_scan(alpha_beta, angle_grid):
    """The rotation-angle scan the closed form replaced: a uniform grid on
    [0, pi/2] and seven local refinements, one gauge query per angle."""
    alpha, beta = alpha_beta
    gens = build_two_sector_generators(alpha, beta)

    def value(phi):
        c, s = math.cos(phi), math.sin(phi)
        total = 0.0
        for g in _gauges(gens, np.array([[c, s], [-s, c]])).tolist():
            if not math.isfinite(g):
                return math.inf
            total += g
        return total ** 2

    lo, hi = 0.0, math.pi / 2
    grid = np.linspace(lo, hi, max(angle_grid, 8) + 1)
    vals = [value(x) for x in grid]
    i = int(np.argmin(vals))
    best_phi, best_val = float(grid[i]), vals[i]
    width = (hi - lo) / max(angle_grid, 8)
    for _ in range(7):
        local = np.linspace(best_phi - width, best_phi + width, 25)
        lvals = [value(x) for x in local]
        j = int(np.argmin(lvals))
        if lvals[j] < best_val:
            best_phi, best_val = float(local[j]), lvals[j]
        width /= 10.0
    return best_val


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
def test_batched_angle_scan_equals_the_scalar_scan_on_the_ratio_figure(alpha):
    # betas from the `figure ratio` grid alpha (i + 1) / 51: the closed form
    # is the minimum the scan approaches from above
    for i in (0, 10, 25, 40, 49):
        beta = alpha * (i + 1) / 51
        closed = orthogonal_restricted_sep_plus((alpha, beta))
        assert closed <= _scalar_angle_scan((alpha, beta), 180) <= closed * (1 + 1e-9)


@pytest.mark.parametrize("alpha_beta", [(1.0, 0.5), (1.0, 0.3), (1.0, 0.4), (1.0, 0.6),
                                        (2.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("angle_grid", [1, 8, 90, 180])
def test_batched_angle_scan_equals_the_scalar_scan(alpha_beta, angle_grid):
    closed = orthogonal_restricted_sep_plus(alpha_beta)
    scan = _scalar_angle_scan(alpha_beta, angle_grid)
    assert closed <= scan <= closed * (1 + 1e-8)
    if angle_grid >= 90:
        assert scan <= closed * (1 + 1e-9)


@pytest.mark.parametrize("alpha_beta", [(1.0, 0.5), (1.0, 0.3), (1.0, 0.6), (2.0, 1.0),
                                        (2.0, 0.5), (1.0, 1e-3), (1.0, 0.99)])
def test_orthogonal_restricted_closed_form_is_the_gauge_sum_at_the_optimal_angle(alpha_beta):
    alpha, beta = alpha_beta
    phi = math.atan((alpha - beta) / (alpha + beta)) - math.pi / 4
    c, s = math.cos(phi), math.sin(phi)
    gens = build_two_sector_generators(alpha, beta)
    value = float(np.sum(_gauges(gens, np.array([[c, s], [-s, c]])))) ** 2
    assert value == pytest.approx(orthogonal_restricted_sep_plus(alpha_beta), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# ordering invariants


@pytest.mark.parametrize(
    "maker,p",
    [(build_fixed_atom_generators, 2), (build_fixed_atom_generators, 3),
     (build_free_atom_generators, 2), (build_free_atom_generators, 4),
     (lambda p: build_pauli_generators("xyz"), 3),
     (lambda p: build_pauli_generators("xy"), 2)],
)
def test_strategy_ordering_chain(maker, p):
    gens = maker(p)
    for paradigm, alpha in (("cr", 1), ("mm", 2)):
        sep = sep_cost(per_parameter_spread_constants(gens, paradigm), paradigm)
        sp = sep_plus_lower_bound(gens, paradigm)
        jnt = jnt_lower_bound(gens, paradigm)
        assert jnt.constant <= sp.constant * (1 + 1e-12)
        assert sp.constant <= sep.constant * (1 + 1e-12)
        assert sep.constant <= p ** alpha * jnt.constant * (1 + 1e-12)


def test_paradigm_constants():
    assert paradigm_constants("cr") == (1, 1.0)
    assert paradigm_constants("mm") == (2, PI2)
    with pytest.raises(InvalidArgumentError):
        paradigm_constants("bayes")


@pytest.mark.parametrize(
    "bound",
    [lambda gens, paradigm: sep_cost(np.ones(gens.p), paradigm),
     sep_plus_lower_bound, jnt_lower_bound, sep_plus_optimize],
    ids=["sep_cost", "sep_plus_lower_bound", "jnt_lower_bound", "sep_plus_optimize"],
)
def test_unknown_paradigm_fails_before_any_search(minimize_runs, bound):
    with pytest.raises(InvalidArgumentError, match="paradigm"):
        bound(build_pauli_generators("xyz"), "bayes")
    assert minimize_runs == []


@pytest.mark.parametrize("factory", [elfving_variance_oracle, spread_variance_oracle])
def test_sep_plus_values_of_an_all_singular_stack(factory):
    # a lockstep round can score singular matrices alone
    oracle = factory(build_fixed_atom_generators(3), "cr")
    stack = np.array([np.zeros((3, 3)), np.ones((3, 3))])
    assert bounds_module._sep_plus_values(stack, oracle, 1) == [math.inf, math.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-40, -100, -449, -450, -600, 40, 600])
def test_spread_oracle_degeneracy_is_relative_to_the_column(k):
    # column 0 of A scaled by 2^k scales its spread alike: the Pauli xyz cost
    # stays 9, with no overflow warning from the column's squares at 2^600
    oracle = spread_variance_oracle(build_pauli_generators("xyz"), "cr")
    a = np.diag([2.0 ** k, 1.0, 1.0])
    assert sep_plus_value(ReparamMatrix(a), oracle, 1) == pytest.approx(9.0, rel=1e-12)


def test_sep_plus_value_scale_invariance():
    gens = build_two_sector_generators(1.0, 0.5)
    oracle = elfving_variance_oracle(gens, "cr")
    a = np.array([[1.0, 0.2], [-0.3, 1.1]])
    v1 = sep_plus_value(ReparamMatrix(a), oracle, 1)
    # columns scaled past the double range of their squares, 2^+-600, too;
    # a 2^600 column's squares overflow before it is rescaled
    for scale in ([2.0, 0.5], [2.0 ** 600, 1.0], [1.0, 2.0 ** -600], [2.0 ** 600, 2.0 ** -600]):
        with np.errstate(over="ignore"):
            v2 = sep_plus_value(ReparamMatrix(a * np.array(scale)), oracle, 1)
        assert v1 == pytest.approx(v2, rel=1e-9)
