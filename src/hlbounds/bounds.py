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
generator can be sensed undisturbed, or, for commuting sets, the exact
nuisance-aware oracle: the c-optimal design value over the probes' joint
eigenvalue patterns x_s, which is the squared gauge of c with respect to
their difference body D = conv{x_s - x_t} (``c_optimal_variance``).  The
reparametrization optimizer uses the latter.

Its gauges are D's largest facet values, and a set whose D is not built
(a flat D, or a set past the size gates with no closed form) is refused
when the oracle is built.  Its search (``sep_plus_optimize``) refines
each start by coordinate sweeps over the entries of A^{-1}, each line of
candidates valued by a rank-one update, on commuting sets only.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .operators import (
    DET_TOL,
    SEARCH_SEEDS,
    GeneratorSet,
    ReparamMatrix,
    check_two_sector_strengths,
    generator_spreads,
    max_spread_over_sphere,
    nonsingular,
    nonsingular_scaled,
    optimize_orthogonal_bound,
    rotated_spread_kernel,
    spread_tolerance,
    structured_seeds,
    unique,
)
from .record import Record
# ``minimize`` stays bound here, where the benchmark's tracer finds it
from .solvers import minimize, search_from_starts  # noqa: F401

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


class CostEstimate(Record):
    """A leading-order asymptotic cost record.

    ``constant`` multiplies 1/(k n^2) in the CR paradigm and 1/N^2 in MM
    (or 1/(k n (n+2)) when ``finite_n`` is set, for the finite-n parallel
    field-sensing results).  ``variant`` tells apart records of one
    strategy, such as the bounds of a bracket.
    """

    __slots__ = ("paradigm", "strategy", "constant", "p_exponent", "status", "provenance",
                 "finite_n", "variant")

    _STATUSES = ("exact_asymptotic", "lower_bound", "upper_bound", "cited")

    def __init__(self, paradigm: str, strategy: str, constant: float, p_exponent: int,
                 status: str, provenance: str = "", finite_n: bool = False, variant: str = ""):
        self._store(paradigm, strategy, constant, p_exponent, status, provenance, finite_n,
                    variant)
        self.__post_init__()

    def __post_init__(self):
        paradigm_constants(self.paradigm)
        if self.status not in self._STATUSES:
            raise InvalidArgumentError(f"unknown status {self.status!r}")
        if not self.constant > 0:
            raise InvalidArgumentError("cost constant must be positive")

    def replace(self, **changes) -> CostEstimate:
        """A copy with the fields in ``changes`` replaced, validated again."""
        return CostEstimate(**{name: getattr(self, name) for name in self.__slots__} | changes)

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


class AllocationPlan(Record):
    """Optimal split of a divisible resource across p independent tasks.

    With per-task constants c_i and variance c_i / x_i^alpha at share x_i,
    shares are proportional to c_i^(1/(alpha+1)) and the achievable total is
    (sum_i c_i^(1/(alpha+1)))^(alpha+1) in units of the full budget^alpha.
    ``shares`` and ``total_constant`` are derived.
    """

    __slots__ = ("alpha", "c", "shares", "total_constant")

    def __init__(self, alpha: int, c: np.ndarray):
        self._store(alpha, c)
        self.__post_init__()

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise InvalidArgumentError("c must be a nonempty vector")
        if not np.all((c > 0) & (c < np.inf)):
            raise InvalidArgumentError("all allocation constants must be positive and finite")
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call.  No gauge solves
    a linear program; it stays bound here, as ``minimize`` does, where the
    benchmark's tracer finds it."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def c_optimal_variance(gens: GeneratorSet, c) -> float:
    """Smallest achievable c^T F^{-1} c over input states, commuting sets:
    the squared gauge of c with respect to the difference body D
    (``PatternGeometry.body``).

    The QFIs are F_w = 4 Cov_w over probe weights w on the patterns x_s, and
    u^T F_w u <= h_D(u)^2, the squared spread of u . Lambda (Popoviciu), so
    c^T F_w^{-1} c >= (c . u)^2 / h_D(u)^2; u^T F_w u is concave in w and
    convex in u, so by the minimax theorem the best w attains the largest
    of these bounds.  It is the exact per-direction constant with the other
    parameters as nuisance.  Raises where D is not built: InvalidArgumentError
    for a flat D (some u . Lambda has spread 0), ResourceLimitError past the
    size gates with no closed form.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (gens.p,):
        raise InvalidArgumentError(f"direction has shape {c.shape}, expected ({gens.p},)")
    if not np.all(np.isfinite(c)):
        raise InvalidArgumentError("direction must be finite")
    g = float(np.max(gens.geometry.body[1] @ c))
    return g * g


def spread_variance_oracle(gens: GeneratorSet, paradigm: str):
    """Oracle A -> the p constants 1/lambda'_i^2 (CR) or pi^2/lambda'_i^2 (MM),
    +inf where lambda'_i is degenerate: at most ``spread_tolerance`` times the
    largest |entry| of column i of A, as the cost is invariant to column scale.

    Ignores nuisance parameters; a valid constant only when parameter i can
    be sensed undisturbed in the A-parametrization, a certified lower bound
    per direction otherwise.  Its SEP+ term i depends on the direction of
    column a_i alone, so its infimum over A is ``sep_plus_lower_bound``.
    """
    _, factor = paradigm_constants(paradigm)
    spreads = rotated_spread_kernel(gens)
    tol = spread_tolerance(gens)

    def many(stack: np.ndarray) -> np.ndarray:
        # scalar ``lam ** 2`` is pow(), which an array square does not round alike
        return np.array([[factor / lam ** 2 if lam > tol * size else math.inf
                          for lam, size in zip(spreads(a), np.maximum.reduce(abs(a)).tolist())]
                         for a in stack]).reshape(stack.shape[:2])

    return _oracle(many)


def _oracle(many):
    """A -> ``many(A[None])[0]``, with ``many``, (k, p, p) -> (k, p), as ``.many``."""

    def oracle(a: ReparamMatrix) -> np.ndarray:
        return many(a.entries[None])[0]

    oracle.many = many
    return oracle


def elfving_variance_oracle(gens: GeneratorSet, paradigm: str):
    """Exact nuisance-aware oracle for commuting sets: A -> the p constants
    factor g_i^2, g_i the difference-body gauge of row i of A^{-1}
    (``c_optimal_variance``).  Raises as ``c_optimal_variance`` does when
    it is built, before any query."""
    _, factor = paradigm_constants(paradigm)
    facets = gens.geometry.body[1]

    def many(stack: np.ndarray) -> np.ndarray:
        rows = np.linalg.inv(stack).reshape(-1, gens.p)
        # one (f, p) @ (p, 1) matvec per row, rounding as ``c_optimal_variance``
        # does; ``rows @ facets.T`` rounds differently
        g = np.maximum.reduce(facets @ rows[:, :, None], axis=(1, 2)).reshape(stack.shape[:2])
        return factor * g * g

    return _oracle(many)


def per_parameter_spread_constants(gens: GeneratorSet, paradigm: str) -> np.ndarray:
    """Single-shot constants 1/lambda_i^2 (CR) or pi^2/lambda_i^2 (MM)."""
    _, factor = paradigm_constants(paradigm)
    lams = generator_spreads(gens)
    if np.any(lams <= spread_tolerance(gens)):
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
    alpha, factor = paradigm_constants(paradigm)
    _, lam_star = max_spread_over_sphere(gens)
    if lam_star <= spread_tolerance(gens):
        raise InvalidArgumentError("a generator has degenerate spectrum")
    return CostEstimate(
        paradigm=paradigm,
        strategy="sep_plus",
        constant=factor * gens.p ** (alpha + 1) / lam_star ** 2,
        p_exponent=alpha + 1,
        status="lower_bound",
        provenance="computed: single-vector spread maximization",
    )


def _certified_search_floor(gens: GeneratorSet, paradigm: str) -> float:
    """A value no SEP+ search objective can go below.

    Column a_i of A gives a_i . Lambda a spread h at most |a_i| L*.  The
    spread is the difference body's support function at a_i, and row b_i of
    A^{-1} has b_i . a_i = 1, so the gauge of b_i is at least 1/h: the
    Elfving value v_i, like the spread oracle's, is at least
    factor/(|a_i| L*)^2, every term [A^T A]_ii v_i of ``sep_plus_value`` at
    least factor/L*^2, and the sum at least the ``sep_plus_lower_bound``
    constant, and every set with a difference body has an exact L*.
    In CR the larger of this and ``_design_floor`` on 2 (x_s - m) is
    returned, m the midrange of the patterns: 4 Cov_w <= sum_s w_s 4 (x_s -
    m)(x_s - m)^T for every m, so those designs dominate every QFI.
    """
    floor = sep_plus_lower_bound(gens, paradigm).constant
    pts = gens.geometry.patterns
    centred = 2.0 * (pts - (pts.max(axis=0) + pts.min(axis=0)) / 2)
    design = _design_floor(centred) if paradigm == "cr" else None
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
        value = per_parameter_spread_constants(gens, "cr")[0]
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
    summed in index order over the p constants v of one ``variance_oracle``
    call; +inf if any v_i is.  Equal terms give p^(alpha+1) times the term
    exactly, as in ``AllocationPlan``."""
    if alpha not in (1, 2):
        raise InvalidArgumentError("alpha must be 1 (CR) or 2 (MM)")
    return _sep_plus_values(a.entries[None], variance_oracle, alpha)[0]


def _sep_plus_values(stack: np.ndarray, variance_oracle, alpha: int) -> list[float]:
    """``sep_plus_value`` of each A of a (k, p, p) stack, +inf where A is
    singular, from one ``variance_oracle.many`` call on the stack as
    ``nonsingular_scaled`` tested it: a column it rescaled stays inside the
    double range with its oracle value, and its term is invariant to that."""
    a, squares, ok = nonsingular_scaled(stack)
    ok = ok.tolist()
    if not all(ok):
        a, squares = a[ok], squares[ok]
    terms = iter((squares * variance_oracle.many(a)).tolist())
    root, values = 1.0 / (alpha + 1), []
    for t in (next(terms) if good else [math.inf] for good in ok):
        if not all(map(math.isfinite, t)):
            values.append(math.inf)
        elif t.count(t[0]) == len(t):
            values.append(len(t) ** (alpha + 1) * t[0])
        else:
            values.append(sum([x ** root for x in t]) ** (alpha + 1))
    return values


# The most p-subsets of difference directions that are scored in one batch.
_SEED_SUBSETS = 3000


def _difference_seed(gens: GeneratorSet, variance_oracle, alpha: int) -> list:
    """[A] for the A of least ``sep_plus_value`` on ``variance_oracle`` whose
    inverse has p distinct difference directions as rows ([] where the
    difference body has no differences or past ``_SEED_SUBSETS``).
    Scaling a row of A^{-1} leaves its term as it is, so each direction is
    kept once.  It meets two-sector's CR design floor."""
    diffs = gens.geometry.body[0]
    if diffs is None:
        return []
    diffs = diffs[np.any(diffs != 0, axis=1)]
    # a direction's key: its unit vector at 12 decimals, first nonzero entry > 0
    keys = np.round(diffs / np.linalg.norm(diffs, axis=1)[:, None], 12)
    sign = np.sign(keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)])[:, None]
    dirs = (sign * diffs)[unique(sign * keys)[1]]
    if math.comb(len(dirs), gens.p) > _SEED_SUBSETS:
        return []
    b = dirs[np.array(list(combinations(range(len(dirs)), gens.p)))]
    b = b[nonsingular(b.transpose(0, 2, 1))]
    if not len(b):
        return []
    a = np.linalg.inv(b)
    best = int(np.argmin(_sep_plus_values(a, variance_oracle, alpha)))
    # row i of A^{-1} leans on parameter i where it can, as in the identity
    order = np.argsort(np.argmax(np.abs(b[best]), axis=1), kind="stable")
    return [a[best][:, order]]


# Grid points of each line of the coordinate sweep, and its most sweeps per
# start, a guard that no command reaches.
_LINE_POINTS = 401
_MAX_SWEEPS = 200


class SweepResult(NamedTuple):
    """The end ``x`` (A, flattened) and value ``fun`` of one start's
    coordinate sweeps, with the ``sweeps`` run, the ``moves`` kept, and
    ``converged``: the last sweep kept no move.  (A named tuple, as every
    plain record of the package is; the validated ones are ``Record``
    classes.  A frozen dataclass costs about 0.7 ms of every command's
    start-up.)"""

    x: np.ndarray
    fun: float
    sweeps: int
    moves: int
    converged: bool

    @property
    def record(self) -> str:
        """The run's counts as its DEBUG record of ``search_from_starts`` shows them."""
        return f"sweeps={self.sweeps} moves={self.moves} converged={self.converged}"


class _Lines:
    """The coordinate lines through one B = A^{-1} on the difference body
    {y : facets @ y <= 1}, for ``values``, which runs inside the sweeps'
    ``np.errstate``: a line through a singular B divides by zero."""

    def __init__(self, a, b, facets, factor: float, alpha: int):
        self.a, self.b, self.facets, self.factor, self.alpha = a, b, facets, factor, alpha
        self.gram = a.T @ a
        self.norms = np.diag(self.gram)[:, None]
        self.fb = facets @ b.T
        self.g2 = (np.maximum.reduce(self.fb) ** 2)[:, None]

    def values(self, j: int, k: int, xs):
        """``(values, s, gauge)``: the SEP+ values of B with entry (j, k) set
        to each of ``xs`` (+inf where B turns singular), with each
        candidate's Sherman-Morrison step s and the gauge of its row j.

        Setting B_jk = B_jk + d gives A' = A - s (A e_j)(e_k^T A), s = d /
        (1 + d A_kj), so column i of A' has squared norm G_ii + s (s A_ki^2
        G_jj - 2 A_ki G_ij) with G = A^T A, and only row j's gauge changes, to
        max(facets @ b_j + d facets[:, k]): O(p) per candidate.  These values
        only rank the candidates; ``_sep_plus_values`` scores the one kept.

        The candidates run along the last axis of every (p, L) and (facets,
        L) array, so each numpy call loops over all of them at once; the sum
        of the p terms runs on an (L, p) copy, since for p >= 8 numpy adds
        that axis pairwise and each value keeps its bits only in that order."""
        a, gram = self.a, self.gram
        d = xs - self.b[j, k]
        s = d / (1.0 + d * a[k, j])
        terms = (a[k] * a[k] * gram[j, j])[:, None] * s
        terms -= (2.0 * a[k] * gram[j])[:, None]
        terms *= s
        terms += self.norms
        gauge = self.facets[:, k, None] * d
        gauge += self.fb[:, j, None]
        gauge = np.maximum.reduce(gauge)
        row = terms[j] * gauge
        row *= gauge
        terms *= self.g2
        terms[j] = row
        terms **= 1.0 / (self.alpha + 1)
        values = np.add.reduce(terms.T.copy(), 1)
        values **= self.alpha + 1
        values *= self.factor
        return np.where(values >= 0, values, math.inf), s, gauge


def _sweep(a, facets, extent, score, factor: float, alpha: int) -> SweepResult:
    """Coordinate sweeps over the entries of B = A^{-1} from the start A.

    Each row of B is scaled to gauge 1, so it lies in the difference body
    and entry k in [-extent_k, extent_k]; each entry (j, k) in turn tries
    ``_LINE_POINTS`` values over that range (``_Lines.values``), and the
    best is kept when ``score`` (one A to its SEP+ value) puts it lower by
    more than 1e-13 relative.  A start ends after a sweep with no move.

    The lines run under one ``np.errstate`` that ignores division by zero,
    overflow and invalid values, entered once per start; the rescaling, the
    moves and ``score`` run under the caller's error state."""
    caller = np.geterr()
    b = np.linalg.inv(a)
    gauges = np.maximum.reduce(facets @ b.T)
    a, b = a * gauges, b / gauges[:, None]
    value, grids = score(a), np.outer(extent, np.linspace(-1.0, 1.0, _LINE_POINTS))
    lines = _Lines(a, b, facets, factor, alpha)
    sweeps = moves = 0
    moved = True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while moved and sweeps < _MAX_SWEEPS:
            moved, sweeps = False, sweeps + 1
            for j, k in np.ndindex(a.shape):
                xs = grids[k]
                values, s, gauge = lines.values(j, k, xs)
                i = int(np.argmin(values))
                if not values[i] < value - 1e-13 * value:
                    continue
                with np.errstate(**caller):
                    # A' column j and B' row j rescaled to gauge 1, which leaves the value
                    a_new = a - np.outer(a[:, j], s[i] * a[k])
                    a_new[:, j] *= gauge[i]
                    new = score(a_new)
                    if new < value - 1e-13 * value:
                        b[j, k] = xs[i]
                        b[j] /= gauge[i]
                        a, value, moves, moved = a_new, new, moves + 1, True
                        lines = _Lines(a, b, facets, factor, alpha)
    return SweepResult(np.ravel(a), value, sweeps, moves, not moved)


def _coordinate_sweeps(facets, extent, variance_oracle, paradigm: str):
    """``local`` of ``search_from_starts``: ``_sweep`` from each start."""
    alpha, factor = paradigm_constants(paradigm)

    def local(x0s):
        def score(a):
            return _sep_plus_values(a[None], variance_oracle, alpha)[0]

        runs = [_sweep(np.reshape(x, extent.shape * 2), facets, extent, score, factor, alpha)
                for x in x0s]
        sweeps = sum(r.sweeps for r in runs)
        # every sweep values all p^2 lines
        return runs, (f"swept {len(runs)} starts: {sweeps} sweeps, "
                      f"{sum(r.moves for r in runs)} moves, {sweeps * extent.size ** 2} lines, "
                      f"{sum(not r.converged for r in runs)} unconverged")

    return local


def sep_plus_optimize(gens: GeneratorSet, paradigm: str):
    """Minimize the reparametrized separate cost over invertible A on a
    commuting set.

    Seeds: the identity and the Walsh-Hadamard transform (when p is a power
    of two), then the best inverse of difference directions
    (``_difference_seed``), then fixed random starts, each later group
    built only when no earlier seed meets the floor; each is refined
    (``search_from_starts``) by coordinate sweeps over the entries of A^{-1}
    (``_sweep``), each entry k over the spread of generator k.  Returns
    ``(A, CostEstimate)`` with status ``upper_bound`` on the true
    reparametrized-separate optimum.  A non-commuting set, whose
    spread-oracle infimum is the ``sep_plus_lower_bound`` constant
    (``spread_variance_oracle``), and a set whose difference body is not
    built raise before any search.

    The search stops at a seed within 1e-12 relative of a floor no
    candidate can beat: the ``sep_plus_lower_bound`` constant, or in CR the
    joint-design floor when larger (``_certified_search_floor``).  Free atoms
    reach it at the identity seed, fixed atoms at the Walsh-Hadamard seed
    when p is a power of two, and the two-sector model (CR) at the
    difference seed; fixed atoms at p=3 reach 2 + sqrt(3) there, above the
    floor 3, and sweep every start, as at p = 5 and 6, where the sweeps
    reach 5.5556 in CR and 274.156 in MM (p = 5), 7.2 and 426.367 (p = 6),
    and p = 7 (8.6858 and 598.663).
    """
    p = gens.p
    alpha, _ = paradigm_constants(paradigm)
    if not gens.commuting:
        raise InvalidArgumentError("sep_plus_optimize needs a commuting set; a non-commuting "
                                   "set's spread-oracle SEP+ infimum is sep_plus_lower_bound")
    variance_oracle = elfving_variance_oracle(gens, paradigm)

    def objective(_, points: list) -> list[float]:
        return _sep_plus_values(np.array(points).reshape(-1, p, p), variance_oracle, alpha)

    local = _coordinate_sweeps(gens.geometry.body[1], generator_spreads(gens),
                               variance_oracle, paradigm)
    _, best_a, best_val = search_from_starts(
        logger, "sep_plus_optimize", objective, structured_seeds(p),
        certified=_certified_search_floor(gens, paradigm), local=local,
        later=[lambda: _difference_seed(gens, variance_oracle, alpha),
               lambda: [np.eye(p) + 0.3 * np.random.default_rng(seed).standard_normal((p, p))
                        for seed in SEARCH_SEEDS]])
    estimate = CostEstimate(
        paradigm=paradigm,
        strategy="sep_plus",
        constant=best_val,
        p_exponent=alpha + 1,
        status="upper_bound",
        provenance="computed: reparametrization search over invertible A",
    )
    return ReparamMatrix(best_a.reshape(p, p)), estimate


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
    check_two_sector_strengths(alpha, beta)
    return 4.0 * alpha ** 2 / ((alpha ** 2 + beta ** 2) * (alpha - beta) ** 2)
