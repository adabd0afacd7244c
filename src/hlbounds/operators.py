"""Generator algebra for unitary multiparameter models.

Provides Hermitian generators, their linear combinations and spectral
spreads, parameter-space reparametrizations (including the Walsh-Hadamard
transform), and the two searches used by the cost bounds: the largest
combined spread over unit coefficient vectors and the orthogonal-rotation
bound sum.  All search results are certified lower bounds: every reported
value was attained by an explicitly evaluated candidate.  A rotation bound
that meets the ceiling p/r^2 of a commuting set (``rotation_bound_ceiling``)
is moreover the certified optimum, and so is a largest spread that meets
Mirsky's ceiling sqrt(2 lambda_max(G)) on the Gram matrix G of the traceless
generators (``spread_ceiling``); both searches stop once they reach their
ceiling.  Spread and pattern thresholds are relative to the largest
generator spread, and the Hermiticity, diagonality, commutator and joint
diagonalization tests to the largest |entry| of the matrices they compare,
so a multiple s Lambda is classified as Lambda and gives every constant
over s^2.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .record import Record
from .solvers import search_from_starts

logger = logging.getLogger(__name__)

HERMITICITY_TOL = 1e-12
COMMUTATOR_TOL = 1e-10
INDEPENDENCE_TOL = 1e-10
DET_TOL = 1e-12
DEGENERATE_SPREAD_TOL = 1e-12


# Fixed seeds of every multi-start search (sphere, rotation, SEP+).
SEARCH_SEEDS = (5, 17, 29)

DIMENSION_CAP = 2 ** 12

# The difference body's closed forms need no pattern differences (the l1
# ball is listed up to 2^_AXIS_MAX_P facet rows); any other body is the hull
# of the distinct differences, formed only for at most _HULL_LIMIT of them
# and _HULL_MAX_P parameters: qhull's output grows with the dimension.
_HULL_LIMIT = 1000
_HULL_MAX_P = 8
_AXIS_MAX_P = 16


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
    return m


class HermitianOperator(Record):
    """A finite-dimensional Hermitian matrix housing one evolution generator."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        self._store(entries)
        self.__post_init__()

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        if m.shape[0] < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL * np.max(np.abs(m)):
            raise InvalidArgumentError("matrix is not Hermitian to 1e-12 relative")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_diagonal(self) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return bool(np.max(np.abs(off)) <= 1e-14 * np.max(np.abs(self.entries)))


class GeneratorSet:
    """The vector of generators of a unitary model exp(i theta . Lambda).

    ``diagonal`` (every generator diagonal) and ``commuting`` (every pairwise
    commutator [a, b] of max-norm <= 1e-10 max|a| max|b|) are computed at
    construction.  Generators must be linearly independent as vectors in
    matrix space.  A diagonal set is held as ``patterns`` alone, the real
    (d, p) matrix of its joint eigenvalue patterns (row s holds the s-th
    diagonal entries, imaginary parts and off-diagonal entries below 1e-14
    of the largest |entry| dropped); its dense ``generators`` and
    ``matrices()`` are built on request.  Other sets have ``patterns`` None.
    """

    def __init__(self, generators):
        gens = tuple(
            g if isinstance(g, HermitianOperator) else HermitianOperator(g)
            for g in generators
        )
        if not gens:
            raise InvalidArgumentError("a generator set needs at least one generator")
        if any(g.dim != gens[0].dim for g in gens):
            raise InvalidArgumentError("all generators must share one dimension")
        if all(g.is_diagonal() for g in gens):
            self._hold_patterns(np.stack([np.real(np.diag(g.entries)) for g in gens], axis=1))
            return
        stacked = np.stack([g.entries for g in gens])
        _check_linear_independence(np.real(np.einsum("aij,bij->ab", stacked.conj(), stacked)))
        self.generators, self.patterns = gens, None
        self.p, self.dim = len(gens), gens[0].dim
        self.diagonal, self.commuting = False, _all_commuting(gens)

    @classmethod
    def from_patterns(cls, patterns) -> GeneratorSet:
        """The diagonal set whose joint eigenvalue patterns are the rows of the
        real (d, p) array ``patterns``: Lambda_i = diag(patterns[:, i])."""
        gens = cls.__new__(cls)
        gens._hold_patterns(patterns)
        return gens

    def _hold_patterns(self, patterns):
        x = np.array(patterns, dtype=float)
        if x.ndim != 2 or 0 in x.shape or not np.all(np.isfinite(x)):
            raise InvalidArgumentError("expected a nonempty, finite (d, p) pattern matrix")
        _check_linear_independence(x.T @ x)
        x.flags.writeable = False
        self.patterns, self.dim, self.p = x, *x.shape
        self.diagonal = self.commuting = True

    @cached_property
    def generators(self) -> tuple:
        """The generators as ``HermitianOperator``s (built on first use for a
        diagonal set)."""
        return tuple(HermitianOperator(np.diag(col)) for col in self.patterns.T)

    def matrices(self) -> np.ndarray:
        """Stacked (p, dim, dim) array of generator entries."""
        return np.stack([g.entries for g in self.generators])


class ReparamMatrix(Record):
    """A real invertible parameter-space transformation theta = A theta'.

    Invertibility is checked at construction.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        self._store(entries)
        self.__post_init__()

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
        if not nonsingular(m[None])[0]:
            raise InvalidArgumentError("reparametrization matrix is singular")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def p(self) -> int:
        return self.entries.shape[0]


def nonsingular(stack: np.ndarray) -> np.ndarray:
    """The scale-free test |det A| > DET_TOL prod_j |a_j| of ``ReparamMatrix``
    on each A of a (k, p, p) stack, as k booleans (``nonsingular_scaled``)."""
    return nonsingular_scaled(stack)[2]


def nonsingular_scaled(stack: np.ndarray):
    """``(scaled, squares, ok)``: the stack as tested, its column sums of
    squares and the ``nonsingular`` decisions.

    An A whose column sums of squares and column-norm product all lie within
    2^+-900 is tested as given.  Any other A first has every column brought
    to max|entry| in [1/2, 1) by a power of two, which is exact and leaves
    the test and the SEP+ terms as they are; a zero or non-finite column
    then reads False."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.add.reduce(stack * stack, 1)
        # a sequential product in column order
        scale = np.multiply.reduce(np.sqrt(squares), 1)
        ranges = np.concatenate((squares, scale[:, None]), 1)
        if not (2.0 ** -900 < np.minimum.reduce(ranges, None, initial=math.inf)
                and np.maximum.reduce(ranges, None, initial=0.0) < 2.0 ** 900):
            plain = np.logical_and.reduce((2.0 ** -900 < ranges) & (ranges < 2.0 ** 900), 1)
            shift = np.where(plain[:, None], 0, -np.frexp(np.maximum.reduce(abs(stack), 1))[1])
            stack = np.ldexp(stack, shift[:, None, :])
            squares = np.add.reduce(stack * stack, 1)
            scale = np.multiply.reduce(np.sqrt(squares), 1)
        return stack, squares, abs(np.linalg.det(stack)) > DET_TOL * scale


def _all_commuting(gens) -> bool:
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i].entries, gens[j].entries
            size = np.max(np.abs(a)) * np.max(np.abs(b))
            if np.max(np.abs(a @ b - b @ a)) > COMMUTATOR_TOL * size:
                return False
    return True


def _check_linear_independence(gram: np.ndarray):
    """Raise unless the real symmetric Gram matrix of the generators is nonsingular."""
    w = abs(np.linalg.eigvalsh(gram))  # its singular values
    if w.min() <= INDEPENDENCE_TOL * max(w.max(), 1e-300):
        raise InvalidArgumentError("generators are not linearly independent")


# ---------------------------------------------------------------------------
# elementary operations


def spread(op: HermitianOperator) -> float:
    """Difference between the largest and smallest eigenvalues of ``op``."""
    if op.is_diagonal():
        d = np.real(np.diag(op.entries))
        return float(np.max(d) - np.min(d))
    w = np.linalg.eigvalsh(op.entries)
    return float(w[-1] - w[0])


def generator_spreads(gens: GeneratorSet) -> np.ndarray:
    """The ``spread`` of each generator, from the patterns of a diagonal set."""
    if gens.diagonal:
        return np.max(gens.patterns, axis=0) - np.min(gens.patterns, axis=0)
    return np.array([spread(g) for g in gens.generators])


def spread_tolerance(gens: GeneratorSet) -> float:
    """DEGENERATE_SPREAD_TOL times the largest generator spread: a spread at
    or below it is degenerate (only 0 when every generator is a multiple of I)."""
    return DEGENERATE_SPREAD_TOL * float(np.max(generator_spreads(gens)))


def combine(gens: GeneratorSet, a) -> HermitianOperator:
    """Linear combination sum_i a_i Lambda_i."""
    a = np.asarray(a, dtype=float)
    if a.shape != (gens.p,):
        raise InvalidArgumentError(
            f"coefficient vector has length {a.shape}, expected ({gens.p},)"
        )
    if gens.diagonal:
        return HermitianOperator(np.diag(gens.patterns @ a))
    return HermitianOperator(np.tensordot(a, gens.matrices(), axes=(0, 0)))


@lru_cache(maxsize=None)
def build_fixed_atom_generators(p: int) -> GeneratorSet:
    """Single layer of p spin-1/2 sensors at fixed positions.

    Lambda_i acts as sigma_z/2 on atom i of a 2^p-dimensional register and
    trivially elsewhere; all generators are diagonal and commute.  The
    patterns are {+1/2, -1/2}^p, atom 1 the most significant.
    """
    if p < 1:
        raise InvalidArgumentError("p must be >= 1")
    if p >= DIMENSION_CAP.bit_length():  # 2^p > DIMENSION_CAP, without forming 2^p
        raise ResourceLimitError(f"2^{p} exceeds the dimension cap {DIMENSION_CAP}")
    bits = (np.arange(2 ** p)[:, None] >> np.arange(p - 1, -1, -1)) & 1
    return GeneratorSet.from_patterns(0.5 - bits)


@lru_cache(maxsize=None)
def build_free_atom_generators(p: int) -> GeneratorSet:
    """Spin-1/2 sensors freely distributed over p sites (2p single-atom levels).

    Lambda_i = (|i,+><i,+| - |i,-><i,-|)/2; the nonzero eigenspaces of
    different generators are mutually orthogonal.  The patterns are
    +-e_i / 2.
    """
    if p < 1:
        raise InvalidArgumentError("p must be >= 1")
    if 2 * p > DIMENSION_CAP:
        raise ResourceLimitError(f"2*{p} exceeds the dimension cap {DIMENSION_CAP}")
    patterns = np.zeros((p, 2, p))
    patterns[np.arange(p), :, np.arange(p)] = 0.5, -0.5
    return GeneratorSet.from_patterns(patterns.reshape(2 * p, p))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def build_pauli_generators(components) -> GeneratorSet:
    """Spin-1/2 field components sigma_i/2 for i in ``components`` (subset of xyz)."""
    comps = [c for c in "xyz" if c in set(components)]
    if not comps or len(set(components) - set("xyz")) > 0:
        raise InvalidArgumentError("components must be a nonempty subset of {x, y, z}")
    return GeneratorSet(tuple(0.5 * _PAULI[c] for c in comps))


def check_two_sector_strengths(alpha: float, beta: float) -> None:
    """Raise unless 0 < beta < alpha and 1e-75 <= alpha <= 1e75, where alpha^4
    is a normal double: the spectra and the closed forms in alpha and beta
    neither overflow nor underflow to zero.  NaN fails both tests."""
    if not 0 < beta < alpha:
        raise InvalidArgumentError("require 0 < beta < alpha")
    if not 1e-75 <= alpha <= 1e75:
        raise InvalidArgumentError("alpha must lie in [1e-75, 1e75]")


def build_two_sector_generators(alpha: float, beta: float) -> GeneratorSet:
    """Two commuting 4-level generators with swapped strength patterns.

    Lambda_1 = diag(+a, -a, +b, -b)/2 and Lambda_2 = diag(+b, -b, +a, -a)/2
    with 0 < beta < alpha.  The pair is the canonical case where the optimal
    individual-measurement reparametrization is non-orthogonal.
    """
    check_two_sector_strengths(alpha, beta)
    return GeneratorSet.from_patterns(
        0.5 * np.array([[alpha, beta], [-alpha, -beta], [beta, alpha], [-beta, -alpha]]))


def walsh_hadamard(r: int) -> ReparamMatrix:
    """Orthogonal, involutory +-1/sqrt(p) transform on p = 2^r parameters."""
    if r < 0:
        raise InvalidArgumentError("r must be >= 0")
    p = 2 ** r
    if p > DIMENSION_CAP:
        raise ResourceLimitError(f"2^{r} exceeds the dimension cap {DIMENSION_CAP}")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(r):
        h = np.kron(h, block)
    return ReparamMatrix(h / math.sqrt(p))


def structured_seeds(p: int) -> list:
    """The identity and, when p is a power of two, the Walsh-Hadamard
    transform: the first seeds of the rotation and SEP+ searches."""
    seeds = [np.eye(p)]
    r = int(round(math.log2(p)))
    if 2 ** r == p:
        seeds.append(walsh_hadamard(r).entries)
    return seeds


def rotated_spread_kernel(gens: GeneratorSet):
    """``spreads(a)``: the spreads of the p generators of A^T Lambda for a
    (p, p) array A, without building the rotated set (so a badly scaled A
    gives a spread near zero, not an independence error).  A diagonal set
    stays diagonal: its spreads are the ranges of the rotated real diagonals
    (as in ``spread``); otherwise one batched ``eigvalsh`` gives them all.
    """
    if gens.diagonal:
        diagonals = np.ascontiguousarray(gens.patterns.T)

        def spreads(a: np.ndarray) -> np.ndarray:
            rotated = np.tensordot(a.T, diagonals, axes=(1, 0))
            return np.max(rotated, axis=1) - np.min(rotated, axis=1)
    else:
        mats = gens.matrices()

        def spreads(a: np.ndarray) -> np.ndarray:
            w = np.linalg.eigvalsh(np.tensordot(a.T, mats, axes=(1, 0)))
            return w[:, -1] - w[:, 0]
    return spreads


def rotated_spreads(gens: GeneratorSet, a: ReparamMatrix) -> np.ndarray:
    """Spreads of the reparametrized generators Lambda'_i = sum_j A[j, i]
    Lambda_j, i.e. A^T Lambda (see ``rotated_spread_kernel``)."""
    if a.p != gens.p:
        raise InvalidArgumentError(f"matrix is {a.p}x{a.p} but the set has p={gens.p}")
    return rotated_spread_kernel(gens)(a.entries)


def eigenvalue_patterns(gens: GeneratorSet) -> np.ndarray:
    """Joint eigenvalue patterns of a commuting set, one (d, p) row per level.

    Row s holds (lambda_1[s], ..., lambda_p[s]) in a common eigenbasis; the
    eigenvalues of a combination a . Lambda are then the values patterns @ a.
    Raises if the set does not commute to working precision.
    """
    if not gens.commuting:
        raise InvalidArgumentError("eigenvalue patterns require a commuting set")
    if gens.diagonal:
        return gens.patterns.copy()
    mats = gens.matrices()
    # Generic weights keep distinct joint patterns non-degenerate.
    weights = np.sqrt(np.arange(2, gens.p + 2, dtype=float))
    probe = np.tensordot(weights, mats, axes=(0, 0))
    _, basis = np.linalg.eigh(probe)
    patterns = np.empty((gens.dim, gens.p))
    for i, m in enumerate(mats):
        transformed = basis.conj().T @ m @ basis
        off = transformed - np.diag(np.diag(transformed))
        if np.max(np.abs(off)) > 1e-8 * np.max(np.abs(m)):
            raise InvalidArgumentError("failed to diagonalize the set simultaneously")
        patterns[:, i] = np.real(np.diag(transformed))
    return patterns


def unique(x: np.ndarray):
    """``np.unique(x)`` of a nonempty 1-D ``x``, ``np.unique(x, axis=0,
    return_index=True)`` of a 2-D one, without the ``numpy.ma`` import that
    ``np.unique`` makes.  Values are sorted as ``np.unique`` sorts them;
    rows by a stable lexicographic sort, each class of equal rows (0.0 ==
    -0.0) given by its first occurrence and that occurrence's index."""
    if x.ndim == 1:
        s = np.sort(x)
        return s[np.r_[True, s[1:] != s[:-1]]]
    order = np.lexsort(x.T[::-1])
    s = x[order]
    first = np.r_[True, np.any(s[1:] != s[:-1], axis=1)]
    return s[first], order[first]


def _distinct_rows(x: np.ndarray, scale: float) -> np.ndarray:
    """One row of ``x`` (the first) per class of rows that agree to 12
    decimals of ``scale``, in lexicographic order of the rounded rows."""
    digits = 12 - math.floor(math.log10(scale)) if scale > 0 else 12
    return x[unique(np.round(x, digits))[1]]


def distinct_patterns(gens: GeneratorSet) -> np.ndarray:
    """The distinct joint eigenvalue patterns of a commuting set: patterns
    that agree to 12 decimals of the largest generator spread are one."""
    pts = eigenvalue_patterns(gens)
    return _distinct_rows(pts, float(np.max(np.ptp(pts, axis=0))))


# ---------------------------------------------------------------------------
# searches


def _sphere_objective(gens):
    spreads = rotated_spread_kernel(gens)

    def value(x):
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            return 0.0
        return float(spreads((x / nrm)[:, None])[0])

    return value


def _diameter_direction(pts: np.ndarray):
    """Unit vector maximizing spread for a commuting set, via the diameter
    of its distinct eigenvalue patterns (exact for commuting models).  A
    product of coordinate value sets (fixed atoms) is a box, whose diameter
    is its corner diagonal, the coordinate ranges w; other sets compare
    every pair, up to 2048 patterns."""
    d = pts.shape[0]
    if math.prod(len(unique(col)) for col in pts.T) == d:
        w = np.ptp(pts, axis=0)
        nrm = np.linalg.norm(w)
        return w / nrm if nrm > 0.0 else None
    if d > 2048:
        return None  # pairwise diameter too large; other candidates still apply
    sq = np.sum(pts ** 2, axis=1)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    s, t = np.unravel_index(np.argmax(dist2), dist2.shape)
    direction = pts[s] - pts[t]
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        return None
    return direction / nrm


def exact_max_spread(gens: GeneratorSet):
    """``(a, value)`` of the largest spread of a . Lambda over unit vectors a
    when it is computed exactly, else None.

    Exact means a commuting set whose distinct joint eigenvalue patterns
    form a product of coordinate value sets, or number at most 2048 (their
    diameter is then found by comparing every pair).
    """
    if not gens.commuting:
        return None
    diam = _diameter_direction(distinct_patterns(gens))
    if diam is None:
        return None
    return diam, _sphere_objective(gens)(diam)


def spread_ceiling(gens: GeneratorSet) -> float:
    """sqrt(2 lambda_max(G)), a value no spread of a . Lambda over unit
    vectors a exceeds.

    G is the real Gram matrix Re tr(L_i L_j) of the traceless parts
    L_i = Lambda_i - tr(Lambda_i)/d I.  For H = a . Lambda with traceless
    part H~ = a . L, (lambda_max - lambda_min)^2 <= 2 ||H~||_F^2 = 2 a^T G a
    (Mirsky 1956), and a^T G a <= lambda_max(G) on the unit sphere.
    Equality needs a top eigenvector a of G whose H~ has eigenvalues +-c
    and otherwise 0, as every traceless 2 x 2 matrix has: spin-1/2 sets
    meet it.
    """
    if gens.diagonal:
        traceless = gens.patterns - np.sum(gens.patterns, axis=0) / gens.dim
        gram = traceless.T @ traceless
    else:
        mats = gens.matrices()
        shift = np.trace(mats, axis1=1, axis2=2) / gens.dim
        traceless = mats - shift[:, None, None] * np.eye(gens.dim)
        gram = np.real(np.einsum("aij,bij->ab", traceless.conj(), traceless))
    return math.sqrt(2.0 * float(np.linalg.eigvalsh(gram)[-1]))


def max_spread_over_sphere(gens: GeneratorSet):
    """Largest spread of a . Lambda over unit vectors a.

    Returns ``(a, value)``.  For commuting sets the maximum equals the
    diameter of the joint eigenvalue-pattern point set, which is computed
    exactly (``exact_max_spread``).  Otherwise structured candidates
    (coordinate axes, the uniform vector, seeded random vectors) are each
    evaluated and then refined by a simplex search, so the value is a
    certified lower bound on the true maximum.

    No search runs when a candidate is within 1e-12 relative of
    ``spread_ceiling``, which no unit vector can exceed; the value is then
    the certified maximum (``search_from_starts``).  The Pauli sets meet
    the ceiling 1 at the first axis; spin-3/2 (spread 3, ceiling sqrt 10)
    runs every start.
    """
    exact = exact_max_spread(gens)
    if exact is not None:
        return exact
    p = gens.p
    objective = _sphere_objective(gens)
    normals = [np.random.default_rng(seed).standard_normal(p) for seed in SEARCH_SEEDS]
    candidates = [np.eye(p)[i] for i in range(p)] + [np.full(p, 1.0 / math.sqrt(p))]
    candidates += [v / np.linalg.norm(v) for v in normals]
    _, best_a, best_val = search_from_starts(
        logger, "max_spread_over_sphere", lambda _, points: [objective(x) for x in points],
        candidates, {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        certified=spread_ceiling(gens), maximize=True)
    return best_a / np.linalg.norm(best_a), best_val


def rotation_bound_value(gens: GeneratorSet, a: ReparamMatrix) -> float:
    """The bound sum sum_i 1 / spread([A^T Lambda]_i)^2 for one rotation.

    Returns -inf when any rotated spread is degenerate (``spread_tolerance``),
    so the candidate never wins a maximization.
    """
    return _bound_sum(rotated_spreads(gens, a), spread_tolerance(gens))


def difference_body(gens: GeneratorSet):
    """``(differences, facets)`` of the difference body D = conv{x_s - x_t}
    of a commuting set's joint eigenvalue patterns x_s.

    D is {y : facets @ y <= 1}, one row per facet.  Its support function
    max_{s,t} (x_s - x_t) . u is the spread of u . Lambda.  The facets are a
    closed form where one applies (``_closed_form_facets``; always at
    p = 1), else the polygon at p = 2 or qhull's.  ``differences`` are the
    distinct x_s - x_t, 0 included, formed only within the size gates
    (p <= 8, at most 1000 of them), else None.  Raises InvalidArgumentError
    for a non-commuting set or a flat D (naming a u whose u . Lambda has
    spread 0), and ResourceLimitError past the gates with no closed form.
    """
    p = gens.p
    if not gens.commuting:
        raise InvalidArgumentError("the difference body needs a commuting set")
    pts = distinct_patterns(gens)
    scale = float(np.max(np.ptp(pts, axis=0)))
    values = [unique(pts[:, k]) for k in range(p)]
    # d points spanning R^p have at least (p + 1) d - p (p + 1) / 2 distinct
    # differences (Freiman, Heppes and Uhrin 1989), a product of value sets
    # V_k at least prod_k (2 |V_k| - 1); points that do not span it have a flat D
    at_least = (p + 1) * len(pts) - p * (p + 1) // 2
    if math.prod(map(len, values)) == len(pts):
        at_least = max(at_least, math.prod(2 * len(v) - 1 for v in values))
    diffs = None
    if p <= _HULL_MAX_P and at_least <= _HULL_LIMIT:
        diffs = _distinct_rows((pts[:, None] - pts[None]).reshape(-1, p), scale)
        diffs = diffs if len(diffs) <= _HULL_LIMIT else None
    facets = _closed_form_facets(pts, values)
    if facets is None and diffs is None:
        raise ResourceLimitError(f"the difference body has no closed form and is past the size "
                                 f"gates (p <= {_HULL_MAX_P}, at most {_HULL_LIMIT} differences)")
    if facets is None and p == 2:
        facets = _polygon_facets(diffs, scale)
    elif facets is None:
        hull = ConvexHull(diffs)
        # n . y + c <= 0 with unit n and c < 0; the triangles of a facet share it
        equations = np.empty((0, p + 1)) if hull is None else unique(hull.equations)[0]
        facets = equations[:, :-1] / -equations[:, -1:]
    if not len(facets):
        u = np.linalg.svd(pts - pts[0])[2][-1]
        raise InvalidArgumentError(f"the difference body is flat: u . Lambda has spread 0 at "
                                   f"u = {np.round(u / u[np.argmax(abs(u))], 6).tolist()}")
    return diffs, facets


def ConvexHull(points):
    """qhull's hull of ``points`` (``scipy.spatial.ConvexHull``, imported on
    first call), or None when the points are flat."""
    from scipy.spatial import ConvexHull as qhull, QhullError

    try:
        return qhull(points)
    except QhullError:
        return None


def _closed_form_facets(pts: np.ndarray, values: list):
    """The facet rows of D in closed form from the patterns and the value
    set V_k of each coordinate, without their differences; an empty array
    for a flat D, or None where no closed form applies.

    - A product of the V_k (fixed atoms) gives the box of the coordinate
      ranges w_k, facets +-e_k / w_k.
    - Patterns with at most one nonzero coordinate each, taking exactly the
      values +-a_k on axis k (free atoms), give the weighted l1 ball with
      vertices +-2 a_k e_k, facets s / (2 a) for every sign vector s; past
      2^16 rows it raises ResourceLimitError.
    """
    p = pts.shape[1]
    if math.prod(map(len, values)) == len(pts):
        if min(map(len, values)) < 2:
            return np.empty((0, p))
        widths = np.ptp(pts, axis=0)
        return np.vstack([np.eye(p) / widths, -np.eye(p) / widths])
    axes = [v[v != 0] for v in values]
    if (np.all(np.count_nonzero(pts, axis=1) <= 1)
            and all(len(a) == 2 and a[0] == -a[1] for a in axes)):
        if p > _AXIS_MAX_P:
            raise ResourceLimitError(f"the l1 difference body at p={p} has 2^{p} facet rows, "
                                     f"past the cap 2^{_AXIS_MAX_P}")
        # row i is -1 at the set bits of i, the first coordinate the highest bit
        signs = 1.0 - 2.0 * ((np.arange(2 ** p)[:, None] >> np.arange(p - 1, -1, -1)) & 1)
        return signs / (2.0 * np.array([a[1] for a in axes]))
    return None


def _polygon_facets(points: np.ndarray, scale: float) -> np.ndarray:
    """Facet rows (v_1 - u_1, u_0 - v_0) / (u_0 v_1 - u_1 v_0) of the edges
    u -> v of conv(points), counterclockwise around an interior origin
    (Andrew's monotone chain); empty when the points are collinear.  A point
    within 1e-12 scale^2 of the line through its neighbours is no vertex:
    the rounded midpoints of an edge stay off the hull."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    tol = 1e-12 * scale * scale
    hull = []
    for chain_order in (order, order[::-1]):
        chain = []
        for q in points[chain_order]:
            while len(chain) >= 2:
                (o0, o1), (a0, a1) = chain[-2], chain[-1]
                if (a0 - o0) * (q[1] - o1) - (a1 - o1) * (q[0] - o0) > tol:
                    break
                chain.pop()
            chain.append(q)
        hull += chain[:-1]
    if len(hull) < 3:
        return np.empty((0, 2))
    u = np.array(hull)
    v = np.roll(u, -1, axis=0)
    det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return np.column_stack([v[:, 1] - u[:, 1], u[:, 0] - v[:, 0]]) / det[:, None]


def rotation_bound_ceiling(gens: GeneratorSet) -> float | None:
    """p / r^2, a value no rotation's bound sum exceeds, or None.

    For a commuting set the spread of u . Lambda is the support function of
    the ``difference_body`` D.  Over unit vectors u it is at least r, the
    inradius of D (1 over the largest facet row norm), so each of the p
    terms of the bound sum is at most 1/r^2.  None where D is not built.
    """
    try:
        facets = difference_body(gens)[1]
    except (InvalidArgumentError, ResourceLimitError):
        return None
    return gens.p * float(np.max(np.sum(facets ** 2, axis=1)))


def _bound_sum(spreads, tol: float) -> float:
    """sum_i 1 / s_i^2 in index order, or -inf if any s_i is at most ``tol``."""
    total = 0.0
    for s in spreads:
        if s <= tol:
            return -math.inf
        total += 1.0 / s ** 2
    return float(total)


@lru_cache(maxsize=None)
def _upper_indices(p: int):
    return np.triu_indices(p, k=1)


def _skew_to_orthogonal(x: np.ndarray, p: int) -> np.ndarray:
    if not x.any():
        return np.eye(p)  # exp(0), which the eigensolver also returns exactly
    s = np.zeros((p, p))
    s[_upper_indices(p)] = x
    s = s - s.T
    # exp of a real skew-symmetric matrix via the Hermitian matrix iS
    w, v = np.linalg.eigh(1j * s)
    return np.real(v @ np.diag(np.exp(-1j * w)) @ v.conj().T)


def optimize_orthogonal_bound(gens: GeneratorSet):
    """Maximize sum_i 1/spread([O^T Lambda]_i)^2 over orthogonal O.

    Returns ``(ReparamMatrix, value)``.  The identity and (when p is a power
    of two) the Walsh-Hadamard transform are evaluated; local searches over
    O = O_seed exp(skew) start from them and from fixed random seeds.  The
    value is a certified lower bound on the supremum.  A rotation with a
    degenerate spread scores -1e300, and the search raises only when every
    candidate is degenerate.

    No search runs when a seed is within 1e-12 relative of
    ``rotation_bound_ceiling``, which no rotation can exceed; the value is
    then the certified optimum (``search_from_starts``).  Fixed atoms meet
    the ceiling p at the identity, free atoms the ceiling p^2 at the
    Walsh-Hadamard seed when p is a power of two.
    """
    p = gens.p
    if p < 2:
        raise InvalidArgumentError("the rotation bound needs p >= 2")
    spreads = rotated_spread_kernel(gens)
    tol = spread_tolerance(gens)
    nvars = p * (p - 1) // 2
    bases = structured_seeds(p)
    starts = [np.zeros(nvars)] * len(bases) + [
        0.5 * np.random.default_rng(seed).standard_normal(nvars) for seed in SEARCH_SEEDS]
    bases += [np.eye(p)] * len(SEARCH_SEEDS)

    def bound(indices, points):
        # -1e300 where a rotated spread is degenerate
        values = [_bound_sum(spreads(bases[i] @ _skew_to_orthogonal(x, p)), tol)
                  for i, x in zip(indices, points)]
        return [v if v > -math.inf else -1e300 for v in values]

    # only the structured starts are seeds, which need no eigensolver
    start, x, best_val = search_from_starts(
        logger, "optimize_orthogonal_bound", bound, starts,
        {"xatol": 1e-9, "fatol": 1e-11, "maxiter": 400 * max(nvars, 1)},
        certified=rotation_bound_ceiling(gens), maximize=True,
        seeds=len(starts) - len(SEARCH_SEEDS))
    if best_val == -1e300:
        raise InvalidArgumentError("every rotation candidate had a degenerate spread")
    return ReparamMatrix(bases[start] @ _skew_to_orthogonal(x, p)), best_val
