"""Cost bounds and strategy costs for both resource paradigms.

Resource bookkeeping is leading-order only: a CR (many-repetition) cost
estimate with constant C means a total variance C/(k n^2); a minimax (MM)
estimate means C/N^2.  Separate strategies split the repetition budget k
(alpha = 1) or the total gate budget N (alpha = 2) optimally across
parameters via the power-mean allocation rule.  A constant depends on the
paradigm only through alpha and the single-shot factor (1 for CR, pi^2 for
MM), and ``paradigm_constants`` is the one place that picks them.

Per-parameter variance constants for individual estimation come from one of
two oracles: the spread oracle 1/lambda'^2 (pi^2/lambda'^2 for MM), which
ignores nuisance parameters and is attainable only when the rotated
generator can be sensed undisturbed, or the exact commuting-model oracle
based on the classical c-optimal design value over the joint eigenvalue
patterns, which accounts for nuisance parameters and is what the
reparametrization optimizer uses by default on commuting sets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import InvalidArgumentError
from .operators import (
    DET_TOL,
    SEARCH_SEEDS,
    GeneratorSet,
    ReparamMatrix,
    distinct_patterns,
    eigenvalue_patterns,
    exact_max_spread,
    max_spread_over_sphere,
    optimize_orthogonal_bound,
    rotated_spread_kernel,
    spread,
    walsh_hadamard,
)

logger = logging.getLogger(__name__)

PI2 = math.pi ** 2


def paradigm_constants(paradigm: str) -> tuple[int, float]:
    """``(alpha, factor)`` of a paradigm: the exponent of the divisible
    resource (the repetitions k in CR, the gates N in MM) and the factor of
    the single-shot constant 1/lambda^2.  Raises on an unknown paradigm."""
    if paradigm == "cr":
        return 1, 1.0
    if paradigm == "mm":
        return 2, PI2
    raise InvalidArgumentError("paradigm must be 'cr' or 'mm'")


@dataclass(frozen=True)
class CostEstimate:
    """A leading-order asymptotic cost record.

    ``constant`` multiplies 1/(k n^2) in the CR paradigm and 1/N^2 in MM
    (or 1/(k n (n+2)) when ``finite_n`` is set, for the finite-n parallel
    field-sensing results).  ``variant`` tells apart records of one
    strategy, such as the bounds of a bracket.
    """

    paradigm: str
    strategy: str
    constant: float
    p_exponent: int
    status: str
    provenance: str = ""
    finite_n: bool = False
    variant: str = ""

    _STATUSES = ("exact_asymptotic", "lower_bound", "upper_bound", "cited")

    def __post_init__(self):
        paradigm_constants(self.paradigm)
        if self.status not in self._STATUSES:
            raise InvalidArgumentError(f"unknown status {self.status!r}")
        if not self.constant > 0:
            raise InvalidArgumentError("cost constant must be positive")

    @property
    def scaling(self) -> str:
        """The resource scaling that ``constant`` multiplies."""
        if self.paradigm == "mm":
            return "1/N^2"
        return "1/(k n (n+2))" if self.finite_n else "1/(k n^2)"

    def row(self) -> dict:
        """The record as one output row (the ``bounds`` columns, in order)."""
        return {
            "strategy": self.strategy,
            "variant": self.variant,
            "constant": self.constant,
            "p_exponent": self.p_exponent,
            "scaling": self.scaling,
            "status": self.status,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class AllocationPlan:
    """Optimal split of a divisible resource across p independent tasks.

    With per-task constants c_i and variance c_i / x_i^alpha at share x_i,
    shares are proportional to c_i^(1/(alpha+1)) and the achievable total is
    (sum_i c_i^(1/(alpha+1)))^(alpha+1) in units of the full budget^alpha.
    """

    alpha: int
    c: np.ndarray
    shares: np.ndarray = field(init=False)
    total_constant: float = field(init=False)

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise InvalidArgumentError("c must be a nonempty vector")
        if np.any(c <= 0):
            raise InvalidArgumentError("all allocation constants must be positive")
        if self.alpha not in (1, 2):
            raise InvalidArgumentError("alpha must be 1 (CR) or 2 (MM)")
        roots = c ** (1.0 / (self.alpha + 1))
        shares = roots / np.sum(roots)
        if np.all(c == c[0]):
            # p^(alpha+1) c exactly: the root round trip would lose the last bit
            total = float(c.size ** (self.alpha + 1) * c[0])
        else:
            total = float(np.sum(roots) ** (self.alpha + 1))
        c.flags.writeable = False
        shares.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "total_constant", total)


def allocate(c, alpha: int) -> AllocationPlan:
    """Lagrange-optimal resource split for variances c_i / x_i^alpha, sum x_i = 1."""
    return AllocationPlan(alpha, np.asarray(c, dtype=float))


# ---------------------------------------------------------------------------
# per-parameter variance oracles


def design_vectors(gens: GeneratorSet) -> np.ndarray:
    """Rows 2 * (joint eigenvalue pattern) of a commuting set, deduplicated
    up to sign.  The achievable QFI matrices are exactly the second-moment
    matrices of symmetric designs on these vectors."""
    pts = 2.0 * eigenvalue_patterns(gens)
    pts = np.round(pts, 12)
    canon = []
    for row in pts:
        nz = row[np.abs(row) > 0]
        if nz.size == 0:
            continue
        canon.append(row if nz[0] > 0 else -row)
    if not canon:
        raise InvalidArgumentError("all eigenvalue patterns are zero")
    return np.unique(np.array(canon), axis=0)


class _GaugeSolver:
    """Gauge of c with respect to conv(+-vectors): min ||b||_1 with V^T b = c.

    The minimum is attained on a basic solution supported on p vectors, so
    for small designs all invertible p-subsets are inverted once up front
    and ``gauges`` solves every queried row (all p rows of A^{-1} at once)
    against every subset in one batched product; large designs fall back to
    a linear program per row.
    """

    _SUBSET_LIMIT = 3000

    def __init__(self, vectors: np.ndarray):
        self.vectors = np.asarray(vectors, dtype=float)
        self.m, self.p = self.vectors.shape
        self._inverses = None
        if math.comb(self.m, self.p) <= self._SUBSET_LIMIT:
            from itertools import combinations

            invs = []
            for subset in combinations(range(self.m), self.p):
                sub = self.vectors[list(subset)].T
                # scale-free: |det| is at most the product of the column norms
                if abs(np.linalg.det(sub)) > DET_TOL * np.prod(np.linalg.norm(sub, axis=0)):
                    invs.append(np.linalg.inv(sub))
            if invs:
                self._inverses = np.stack(invs)

    def gauges(self, rows: np.ndarray) -> np.ndarray:
        """Gauges of the rows of ``rows`` (shape (r, p)); +inf where infeasible."""
        if self._inverses is not None:
            # One (p, p) @ (p, 1) matvec per (subset, row) pair, rounding as a
            # single-row query does; ``self._inverses @ rows.T`` rounds
            # differently and would change the searches' trajectories.
            coeffs = self._inverses[:, None] @ rows[None, :, :, None]
            return np.min(np.sum(np.abs(coeffs[..., 0]), axis=2), axis=0)
        return np.array([self._lp_gauge(c) for c in rows])

    def _lp_gauge(self, c: np.ndarray) -> float:
        res = linprog(
            np.ones(2 * self.m),
            A_eq=np.hstack([self.vectors.T, -self.vectors.T]),
            b_eq=c,
            bounds=[(0, None)] * (2 * self.m),
            method="highs",
        )
        if not res.success:
            return math.inf
        return float(res.fun)


def c_optimal_variance(gens: GeneratorSet, c) -> float:
    """Smallest achievable c^T F^{-1} c over input states, commuting sets.

    This is the squared gauge of c with respect to the symmetric convex hull
    of the design vectors (the classical c-optimal design value); it is the
    exact per-direction variance constant with the remaining parameters
    treated as nuisance.  Returns +inf when the direction is not estimable.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (gens.p,):
        raise InvalidArgumentError(f"direction has shape {c.shape}, expected ({gens.p},)")
    g = float(_GaugeSolver(design_vectors(gens)).gauges(c[None])[0])
    return g * g if math.isfinite(g) else math.inf


def spread_variance_oracle(gens: GeneratorSet, paradigm: str):
    """Oracle A -> the p constants 1/lambda'_i^2 (CR) or pi^2/lambda'_i^2 (MM),
    +inf where lambda'_i < 1e-12.

    Ignores nuisance parameters; a valid constant only when parameter i can
    be sensed undisturbed in the A-parametrization, a certified lower bound
    per direction otherwise.
    """
    _, factor = paradigm_constants(paradigm)
    spreads = rotated_spread_kernel(gens)

    def oracle(a: ReparamMatrix) -> np.ndarray:
        # scalar ``lam ** 2`` is pow(), which an array square does not round alike
        return np.array([factor / lam ** 2 if lam >= 1e-12 else math.inf
                         for lam in spreads(a.entries)])

    return oracle


def elfving_variance_oracle(gens: GeneratorSet, paradigm: str):
    """Exact nuisance-aware oracle for commuting sets (c-optimal design value):
    A -> the p constants, one per row of A^{-1}, +inf where not estimable."""
    _, factor = paradigm_constants(paradigm)
    solver = _GaugeSolver(design_vectors(gens))

    def oracle(a: ReparamMatrix) -> np.ndarray:
        g = solver.gauges(np.linalg.inv(a.entries))
        return factor * g * g

    return oracle


def per_parameter_spread_constants(gens: GeneratorSet, paradigm: str) -> np.ndarray:
    """Single-shot constants 1/lambda_i^2 (CR) or pi^2/lambda_i^2 (MM)."""
    _, factor = paradigm_constants(paradigm)
    lams = np.array([spread(g) for g in gens.generators])
    if np.any(lams < 1e-12):
        raise InvalidArgumentError("a generator has degenerate spectrum")
    return factor / lams ** 2


# ---------------------------------------------------------------------------
# strategy costs


def sep_cost(per_param_constants, paradigm: str) -> CostEstimate:
    """Fixed-parametrization separate-strategy cost from per-parameter constants.

    ``per_param_constants`` are the single-shot constants (1/lambda_i^2 for
    CR, pi^2/lambda_i^2 for MM); the repetition budget k (CR) or gate budget
    N (MM) is split optimally.  The status is exact: the constants are taken
    to belong to per-parameter protocols unobstructed by nuisance parameters.
    """
    alpha, _ = paradigm_constants(paradigm)
    plan = allocate(per_param_constants, alpha)
    return CostEstimate(
        paradigm=paradigm,
        strategy="sep",
        constant=plan.total_constant,
        p_exponent=alpha + 1,
        status="exact_asymptotic",
        provenance="computed: optimal resource split of per-parameter protocols",
    )


def sep_plus_lower_bound(gens: GeneratorSet, paradigm: str) -> CostEstimate:
    """Reparametrized separate-strategy lower bound from the best combined spread.

    CR: p^2/(k n^2 L*^2); MM: p^3 pi^2/(N^2 L*^2), where L* is the maximal
    spread of a . Lambda over unit vectors a.
    """
    alpha, _ = paradigm_constants(paradigm)
    _, lam_star = max_spread_over_sphere(gens)
    return CostEstimate(
        paradigm=paradigm,
        strategy="sep_plus",
        constant=_spread_floor(gens.p, paradigm, lam_star),
        p_exponent=alpha + 1,
        status="lower_bound",
        provenance="computed: single-vector spread maximization",
    )


def _spread_floor(p: int, paradigm: str, lam_star: float) -> float:
    """p^2/L*^2 (CR) or p^3 pi^2/L*^2 (MM) for the largest combined spread L*."""
    alpha, factor = paradigm_constants(paradigm)
    if lam_star < 1e-12:
        raise InvalidArgumentError("a generator has degenerate spectrum")
    return factor * p ** (alpha + 1) / lam_star ** 2


def _certified_search_floor(gens: GeneratorSet, paradigm: str) -> float | None:
    """A value no SEP+ search objective can go below, or None.

    Column i of A combines the generators into a . Lambda with spread at most
    |a_i| L*, so each oracle value v_i is at least factor/(|a_i| L*)^2 and
    every term [A^T A]_ii v_i of ``sep_plus_value`` at least factor/L*^2: the
    whole sum is at least the ``sep_plus_lower_bound`` constant.  That needs
    L* exact (``exact_max_spread``), and for the Elfving oracle, whose design
    vectors are 2 x pattern, a pattern set symmetric under x -> -x: only then
    is 2 |x . a| at most the spread of a . Lambda.  In CR the larger of this
    spread floor and ``_design_floor`` is returned.
    """
    if not gens.commuting:
        return None
    pts = distinct_patterns(gens)
    if not np.array_equal(pts, np.unique(-pts, axis=0)):
        return None
    exact = exact_max_spread(gens)
    if exact is None:
        return None
    floor = _spread_floor(gens.p, paradigm, exact[1])
    design = _design_floor(2.0 * pts) if paradigm == "cr" else None
    return float(floor if design is None else max(floor, design))


def _design_floor(vectors: np.ndarray) -> float | None:
    """2 tr M^{-1} - max_s v_s^T M^{-2} v_s for the uniform design
    M = V^T V / m on the rows v_s of ``vectors``; None when M is singular.

    Stacking the separate estimators of a CR SEP+ strategy gives one linear
    unbiased estimator of all parameters, so by Gauss-Markov every SEP+
    value is at least the joint A-optimal value min_w tr M_w^{-1} over
    designs w on the v_s (Kiefer and Wolfowitz 1960).  tr M_w^{-1} is
    convex in w, so its tangent plane at the uniform design lies below it,
    and over the simplex that plane is least at a vertex: this value.
    """
    m = vectors.T @ vectors / len(vectors)
    if not np.linalg.det(m) > DET_TOL * np.prod(np.diag(m)):
        return None
    m_inv = np.linalg.inv(m)
    leverage = np.sum((vectors @ m_inv) ** 2, axis=1)
    return float(2.0 * np.trace(m_inv) - np.max(leverage))


def jnt_lower_bound(gens: GeneratorSet, paradigm: str) -> CostEstimate:
    """Joint-strategy lower bound from the orthogonal-rotation bound sum.

    The constant is max_O sum_i 1/lambda^2([O^T Lambda]_i), multiplied by
    pi^2 in the MM paradigm.
    """
    _, factor = paradigm_constants(paradigm)
    if gens.p == 1:
        lam = spread(gens.generators[0])
        if lam < 1e-12:
            raise InvalidArgumentError("a generator has degenerate spectrum")
        value = 1.0 / lam ** 2
    else:
        _, value = optimize_orthogonal_bound(gens)
    return CostEstimate(
        paradigm=paradigm,
        strategy="jnt",
        constant=factor * value,
        p_exponent=1,
        status="lower_bound",
        provenance="computed: orthogonal-rotation bound search",
    )


def sep_plus_value(a: ReparamMatrix, variance_oracle, alpha: int) -> float:
    """Reparametrized separate cost (sum_i ([A^T A]_ii v_i)^(1/(alpha+1)))^(alpha+1),
    summed in index order over the p constants v of one ``variance_oracle(a)``
    call; +inf if any v_i is.  Equal terms give p^(alpha+1) times the term
    exactly, as in ``AllocationPlan``."""
    terms = (np.sum(a.entries ** 2, axis=0) * variance_oracle(a)).tolist()
    if not all(map(math.isfinite, terms)):
        return math.inf
    if terms.count(terms[0]) == len(terms):
        return a.p ** (alpha + 1) * terms[0]
    return sum(t ** (1.0 / (alpha + 1)) for t in terms) ** (alpha + 1)


def _pattern_inverse_seed(gens: GeneratorSet) -> np.ndarray | None:
    """Candidate A whose inverse rows are extreme design vectors, one per
    parameter (the construction that decouples paired-sector models)."""
    try:
        vectors = design_vectors(gens)
    except InvalidArgumentError:
        return None
    rows = []
    for i in range(gens.p):
        order = np.lexsort(np.vstack([vectors.T[::-1], -np.abs(vectors[:, i])]))
        rows.append(vectors[order[0]])
    b = np.array(rows)
    if abs(np.linalg.det(b)) < 1e-10:
        return None
    return np.linalg.inv(b)


def sep_plus_optimize(gens: GeneratorSet, paradigm: str):
    """Minimize the reparametrized separate cost over invertible A.

    Seeds: the identity, the Walsh-Hadamard transform (when p is a power of
    two), the inverse-pattern construction for commuting sets, and fixed
    random starts, each refined in turn by a derivative-free simplex search.
    Every seed is evaluated before the first search.  Singular candidates
    are discarded.  Returns ``(A, CostEstimate)`` with status
    ``upper_bound`` on the true reparametrized-separate optimum.

    The searches stop early, before the next start, once the best value is
    within 1e-12 relative of a floor no candidate can beat: the
    ``sep_plus_lower_bound`` constant, or in CR the joint-design floor when
    that is larger (see ``_certified_search_floor``).  This certificate
    applies to commuting sets whose largest combined spread is exact and
    whose eigenvalue patterns are symmetric under sign flip.  Free atoms
    reach it at the identity seed, fixed atoms at the Walsh-Hadamard seed
    when p is a power of two, and the two-sector model (CR) at the
    pattern-inverse seed.  The stop is logged at DEBUG with the winning
    seed or search, its value and the floor.
    """
    p = gens.p
    alpha, _ = paradigm_constants(paradigm)
    oracle_factory = elfving_variance_oracle if gens.commuting else spread_variance_oracle
    variance_oracle = oracle_factory(gens, paradigm)
    floor = _certified_search_floor(gens, paradigm)

    def objective(flat):
        try:
            a = ReparamMatrix(flat.reshape(p, p))
        except InvalidArgumentError:
            return 1e300
        val = sep_plus_value(a, variance_oracle, alpha)
        return val if math.isfinite(val) else 1e300

    seeds = [np.eye(p)]
    r = int(round(math.log2(p)))
    if 2 ** r == p:
        seeds.append(walsh_hadamard(r).entries)
    pattern_seed = _pattern_inverse_seed(gens)
    if pattern_seed is not None:
        seeds.append(pattern_seed)
    for seed in SEARCH_SEEDS:
        rng = np.random.default_rng(seed)
        seeds.append(np.eye(p) + 0.3 * rng.standard_normal((p, p)))

    seeds = [np.asarray(s, dtype=float) for s in seeds]
    best_a, best_val, best_origin = None, math.inf, None
    for start, s in enumerate(seeds):
        v0 = objective(s.ravel())
        if v0 < best_val - 1e-15:
            best_a, best_val, best_origin = s, v0, f"seed {start}"
    for start, s in enumerate(seeds):
        if floor is not None and best_val <= floor * (1 + 1e-12):
            logger.debug("sep_plus_optimize certified by %s: value=%r floor=%r; "
                         "starts %d-%d skipped",
                         best_origin, float(best_val), floor, start, len(seeds) - 1)
            break
        res = minimize(
            objective,
            s.ravel(),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12,
                     "maxiter": min(600 * p * p, 4000)},
        )
        logger.debug("sep_plus_optimize start %d: nfev=%d nit=%d success=%s fun=%r",
                     start, res.nfev, res.nit, res.success, float(res.fun))
        if res.fun < best_val - 1e-15:
            best_a, best_val = res.x.reshape(p, p), float(res.fun)
            best_origin = f"the search from start {start}"
    if best_a is None:
        raise InvalidArgumentError("no invertible reparametrization candidate found")
    estimate = CostEstimate(
        paradigm=paradigm,
        strategy="sep_plus",
        constant=best_val,
        p_exponent=alpha + 1,
        status="upper_bound",
        provenance="computed: reparametrization search over invertible A",
    )
    return ReparamMatrix(best_a), estimate


def orthogonal_restricted_sep_plus(alpha_beta) -> float:
    """Best orthogonally-reparametrized separate CR constant for the
    two-sector model, 4 alpha^2/((alpha^2 + beta^2)(alpha - beta)^2) in
    units of 1/k at n = 1.

    A rotation by phi has rows (cos phi, sin phi) and (-sin phi, cos phi);
    each row's exact nuisance-aware constant is its squared gauge with
    respect to conv(+-(alpha, beta), +-(beta, alpha)), and the cost is
    (g_1 + g_2)^2.  With u = cos phi + sin phi and v = cos phi - sin phi
    (so u^2 + v^2 = 2) the two gauges are max(|u|/(alpha+beta), |v|/(alpha-beta))
    and max(|v|/(alpha+beta), |u|/(alpha-beta)).  Their sum is least where
    |u|/|v| = (alpha-beta)/(alpha+beta), i.e. at
    phi* = atan((alpha-beta)/(alpha+beta)) - pi/4, which gives the value
    above.  Over the general optimum 2/(alpha-beta)^2 + 2/(alpha+beta)^2 it
    is (alpha (alpha+beta)/(alpha^2+beta^2))^2.
    """
    alpha, beta = alpha_beta
    if not (0 < beta < alpha):
        raise InvalidArgumentError("require 0 < beta < alpha")
    return 4.0 * alpha ** 2 / ((alpha ** 2 + beta ** 2) * (alpha - beta) ** 2)
