"""Minimax joint-estimation machinery: the Dirichlet ground state on the
cross-polytope, the Airy lower bound, the inscribed-ball upper bound, and
covariant phase-measurement costs with a Monte-Carlo verification harness.

The ground energy E of -Laplacian on {sum_i |mu_i| <= 1/2} with zero
boundary values estimates the joint minimax cost constant via cost = E/N^2.
Discretization is second-order central differences on a uniform
vertex-aligned grid; Dirichlet data is enforced by excluding boundary and
exterior nodes, and the smallest eigenvalue is found by inexact inverse
power iteration with matrix-free conjugate-gradient inner solves.  The
ground state is invariant under every sign flip and permutation of the
mu_i, so the full grid is never built: the iteration runs on the wedge
0 <= mu_1 <= ... <= mu_p alone (up to 2^p p! times fewer unknowns), whose
nodes carry weights w = number of full-grid copies (see ``SimplexSpectrum``),
with the symmetric operator W^(1/2) R W^(-1/2), whose norms and residuals
are those of the full grid.  One DEBUG record per solve on this module's
logger gives p, M, full-grid nodes (the sum of w), wedge unknowns, outer
iterations, E, the residual and the number of matvecs.

The Airy lower bound is a closed form in the first zero a0 of Ai' and
Ai(a0); no quadrature is run (see ``airy_lower_bound``).
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, NumericalError, ResourceLimitError
from .record import Record
from .solvers import cg
from .special import (
    MAX_ORDER,
    airy_ai_prime_first_zero,
    airy_ai_with_prime,
    bessel_j_first_zero,
)
from .states import PhaseStateCoefficients

INDEX_CAP = 10_000_000  # indices (tuples times p) the wedge enumeration may visit
MC_SAMPLE_CAP = 50_000_000  # about 16 bytes per sample at peak (16.2 at 4e6): 0.8 GB at the cap
MC_BLOCK = 2 ** 14  # samples drawn and costed at a time
RESIDUAL_RTOL = 1e-9
MAX_POWER_ITERATIONS = 200
MIN_PDF_GRID = 2 ** 14
BALL_P_MAX = 2 * MAX_ORDER + 2  # the Bessel order p/2 - 1 stays <= MAX_ORDER

logger = logging.getLogger(__name__)


class SimplexSpectrum(Record):
    """Converged ground-state data of the cross-polytope Dirichlet problem,
    on the symmetry wedge: ``nodes`` (n, p) are the grid nodes with
    0 <= mu_1 <= ... <= mu_p, ``eigenvector`` is u on them and ``weights``
    their orbit sizes w, so sum(w u^2) = 1.  Unfolded, u takes a node's value
    on every permutation and sign choice of its coordinates: w grid nodes."""

    __slots__ = ("p", "h", "E", "iterations", "residual", "nodes", "eigenvector", "weights")

    def __init__(self, p: int, h: float, E: float, iterations: int, residual: float,
                 nodes: np.ndarray, eigenvector: np.ndarray, weights: np.ndarray):
        self._store(p, h, E, iterations, residual, nodes, eigenvector, weights)
        self.__post_init__()

    def __post_init__(self):
        if not self.E > 0:
            raise InvalidArgumentError("ground energy must be positive")
        if not self.residual <= 1e-8 * self.E:
            raise InvalidArgumentError("eigen-residual exceeds 1e-8 * E")
        for name in ("nodes", "eigenvector", "weights"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


class AiryBoundResult(Record):
    """First Ai' zero, the three half-line integrals, and the p^3/N^2 coefficient."""

    __slots__ = ("a_prime_zero", "I_norm", "I_mean", "I_kinetic", "constant")

    def __init__(self, a_prime_zero: float, I_norm: float, I_mean: float, I_kinetic: float,
                 constant: float):
        self._store(a_prime_zero, I_norm, I_mean, I_kinetic, constant)
        self.__post_init__()

    def __post_init__(self):
        if not -1.1 < self.a_prime_zero < -0.9:
            raise NumericalError("Ai' zero outside the expected window")
        if not 0.5 < self.constant < 0.7:
            raise NumericalError("Airy bound constant outside the expected window")


def simplex_ground_energy(p: int, grid_points_per_axis: int) -> SimplexSpectrum:
    """Smallest Dirichlet eigenvalue of -Laplacian on {sum|mu_i| <= 1/2}.

    ``grid_points_per_axis`` is the number of grid intervals per axis
    (spacing h = 1/M).  Exact values: pi^2 for p = 1 and 4 pi^2 for p = 2;
    the discrete eigenvalue approaches the continuum limit from below at
    rate O(h^2).

    The ground state is invariant under the sign flips mu_d -> -mu_d and
    the permutations of the mu_d, so the solve runs on the wedge: the sorted
    index tuples ceil(M/2) <= i_1 <= ... <= i_p <= M - 1 inside the domain,
    in lexicographic order (at most ``INDEX_CAP`` indices are enumerated).
    A neighbour index i reflects to max(i, M - i), and the sorted neighbour
    is looked up by an integer key.  For odd M no node lies on mu_d = 0 and
    the -1 neighbour of the first node (mu_d = h/2) is the node itself.  For
    even M the -1 neighbour of the node on mu_d = 0 folds onto its +1
    neighbour, and on a diagonal i_d = i_e the +1 neighbours along d and e
    sort to one node, so the folded operator R is not symmetric.  With w
    the orbit size of a node (the product over axes of 1 on mu_d = 0, else
    2, times p!/prod(multiplicity of each index value)!), inverse iteration
    runs on the symmetric S = W^(1/2) R W^(-1/2) in z = W^(1/2) u.  Norms,
    Rayleigh quotients and residuals in z equal those of the symmetric
    full-grid vector, so E, ``residual`` and the stopping rule are the full
    grid's.  Each CG solve stops at rtol min(1e-2, max(1e-13, 0.05 r/E)),
    with r and E the previous outer step's residual and energy, and at 1e-2
    on the first step (inexact inverse iteration, Golub and Ye 2000); the
    residual of the stopping rule comes from a true matvec.
    """
    m = int(grid_points_per_axis)
    if p < 1 or m - 1 < 8:
        raise InvalidArgumentError("need p >= 1 and at least 8 interior grid points per axis")
    lo = (m + 1) // 2  # first orthant index, ceil(M/2)
    width = m - lo  # orthant indices of interior nodes: lo .. M - 1
    # C(width + p - 1, p) >= width + p - 1, so the first test keeps math.comb small
    if p * (width + p - 1) > INDEX_CAP or p * math.comb(width + p - 1, p) > INDEX_CAP:
        raise InvalidArgumentError(f"the wedge enumeration exceeds the {INDEX_CAP:.0e}-index cap")
    h = 1.0 / m
    axes = np.linspace(-0.5, 0.5, m + 1)
    tuples = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(lo, m), p)), np.int64).reshape(-1, p)
    total = np.add.accumulate(np.abs(axes)[tuples], axis=1)[:, -1]  # in axis order
    inside = total < 0.5 - 1e-9 / m
    wedge_idx, n = tuples[inside], np.count_nonzero(inside)
    if n == 0:
        raise InvalidArgumentError("the grid has no interior node")

    # a wedge node or folded neighbour has sum(i_d - lo) <= width, so only its last
    # min(p, width) indices can exceed lo: base-(width + 1) keys on them, < 2^41 at the cap
    tail = min(p, width)
    powers = (width + 1) ** np.arange(tail - 1, -1, -1, dtype=np.int64)
    keys = (wedge_idx[:, p - tail:] - lo) @ powers

    def fold(idx):
        """Compact wedge index of full-grid indices ``idx`` (rows); n outside the domain."""
        f = np.sort(np.maximum(idx, m - idx), axis=1)
        key = (f[:, p - tail:] - lo) @ powers
        pos = np.minimum(np.searchsorted(keys, key), n - 1)
        return np.where(keys[pos] == key, pos, n)

    # interior nodes have 1 <= i_d <= M - 1, so every neighbour is on the grid
    unit = np.eye(p, dtype=np.int64)
    neighbors = np.stack([fold(wedge_idx + step * unit[d]) for d in range(p) for step in (-1, 1)])
    run = np.ones(n)  # run[k] = position of index k within its run of equal indices
    stabilizer = np.ones(n)  # prod(multiplicity!) = prod of the run positions
    for d in range(1, p):
        run = np.where(wedge_idx[:, d] == wedge_idx[:, d - 1], run + 1, 1.0)
        stabilizer *= run
    signs = np.prod(np.where(2 * wedge_idx == m, 1.0, 2.0), axis=1)
    weights = signs * math.factorial(p) / stabilizer
    sqrt_w = np.sqrt(weights)

    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * p * inv_h2
    off_scale = inv_h2 * sqrt_w
    matvecs = 0

    def matvec(z):
        nonlocal matvecs
        matvecs += 1
        g = np.concatenate([z / sqrt_w, [0.0]]).take(neighbors)
        return diag * z - off_scale * g.sum(axis=0)

    x = (0.5 - total[inside]) * sqrt_w  # tent profile start
    x /= np.linalg.norm(x)

    energy = residual = math.inf
    rtol = 1e-2
    iterations = 0
    for iterations in range(1, MAX_POWER_ITERATIONS + 1):
        y = cg(matvec, x, rtol=rtol, atol=0.0, maxiter=20000)[0]
        y /= np.linalg.norm(y)
        ay = matvec(y)
        energy = float(y @ ay)
        residual = float(np.linalg.norm(ay - energy * y))
        x = y
        if residual <= RESIDUAL_RTOL * energy:
            break
        rtol = min(1e-2, max(1e-13, 0.05 * residual / energy))
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge (residual {residual:.3e})",
            residual=residual,
        )
    logger.debug("simplex_ground_energy p=%d M=%d: nodes=%d unknowns=%d iterations=%d "
                 "E=%r residual=%.3e matvecs=%d", p, m, int(weights.sum()), n, iterations, energy,
                 residual, matvecs)
    return SimplexSpectrum(
        p=p,
        h=h,
        E=energy,
        iterations=iterations,
        residual=residual,
        nodes=axes[wedge_idx],
        eigenvector=x / sqrt_w,
        weights=weights,
    )


def airy_lower_bound() -> AiryBoundResult:
    """Fundamental joint minimax bound coefficient from the Airy problem.

    Locates the first zero a0 of Ai' and returns the three half-line
    integrals of |Ai|^2, |Ai|^2 mu and |Ai'|^2 shifted by a0, and the
    coefficient 4 I_kin I_mean^2 / I_norm^3 of p^3/N^2 (about 0.63).  Since
    Ai'(a0) = 0, the Airy integral identities (DLMF 9.11(iv)) give all three
    in closed form from Ai(a0)^2: I_norm = -a0 Ai^2, I_mean = (2/3) a0^2 Ai^2
    and I_kin = a0^2 Ai^2 / 3, so the coefficient is (16/27) |a0|^3.
    """
    a0 = airy_ai_prime_first_zero()
    ai_sq = airy_ai_with_prime(a0)[0] ** 2
    i_norm = -a0 * ai_sq
    i_mean = 2.0 / 3.0 * a0 ** 2 * ai_sq
    i_kin = a0 ** 2 * ai_sq / 3.0
    return AiryBoundResult(
        a_prime_zero=a0,
        I_norm=i_norm,
        I_mean=i_mean,
        I_kinetic=i_kin,
        constant=4.0 * i_kin * i_mean ** 2 / i_norm ** 3,
    )


def ball_upper_bound(p: int) -> float:
    """Ground energy of the largest ball inscribed in the cross-polytope.

    The radius is 1/(2 sqrt(p)), so E = p (2 j_{p/2-1,1})^2 with j the first
    positive zero of the Bessel function of order p/2 - 1.  An admissible
    trial state, hence an upper estimate of the simplex ground energy (the
    coefficient of 1/N^2).  Since j_{nu,1} = nu + 1.8558 nu^(1/3) + O(nu^(-1/3)),
    E/p^3 -> 1 for large p, but only at rate p^(-2/3): E(40)/40^3 = 1.4809,
    and E/p^3 first lies within 0.15 of 1 at p = 226.  Supported for
    1 <= p <= BALL_P_MAX (1000); larger p raises ResourceLimitError.  The
    zero search scans up from a proven lower bound on j_{p/2-1,1} (see
    ``bessel_j_first_zero``).
    """
    if not p >= 1:  # also refuses NaN
        raise InvalidArgumentError("p must be a number >= 1")
    if p > BALL_P_MAX:
        raise ResourceLimitError(f"p must be <= {BALL_P_MAX} for the ball bound")
    j = bessel_j_first_zero(p / 2.0 - 1.0)
    return p * (2.0 * j) ** 2


# ---------------------------------------------------------------------------
# covariant phase-measurement costs


def phase_cost_analytic(coeffs: PhaseStateCoefficients) -> float:
    """Mean covariant-measurement cost of 4 sin^2(u/2) in closed form.

    Equals 2 - 2 Re sum_m conj(c_{m+1}) c_m; for the sine-profile
    coefficients this is exactly 2 (1 - cos(pi/(N+2))).
    """
    c = coeffs.c
    return float(2.0 - 2.0 * np.real(np.sum(np.conj(c[1:]) * c[:-1])))


class PhaseMeasurementModel(Record):
    """Covariant-measurement outcome density p(u) = |sum_m c_m e^{imu}|^2/(2 pi)
    of the mismatch u on [-pi, pi), tabulated on a uniform grid of
    ``grid_points`` points: the least power of two that is at least 2^14
    and 4(N+1), computed from the coefficients."""

    __slots__ = ("coeffs", "grid_points", "u", "pdf")

    def __init__(self, coeffs: PhaseStateCoefficients):
        self._store(coeffs)
        self.__post_init__()

    def __post_init__(self):
        g = max(MIN_PDF_GRID, 1 << (4 * (self.coeffs.N + 1) - 1).bit_length())
        c = self.coeffs.c
        m = np.arange(c.size)
        shifted = c * np.exp(-1j * m * np.pi)  # e^{im u} at u = -pi + 2 pi j / g
        amps = np.fft.ifft(shifted, n=g) * g
        pdf = np.abs(amps) ** 2 / (2.0 * np.pi)
        u = -np.pi + 2.0 * np.pi * np.arange(g) / g
        total = float(np.sum(pdf) * (2.0 * np.pi / g))
        if not abs(total - 1.0) <= 1e-8:
            raise NumericalError(f"pdf integrates to {total}, not 1")
        u.flags.writeable = False
        pdf.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "grid_points", g)


def phase_cost_monte_carlo(model: PhaseMeasurementModel, samples: int, seed: int):
    """Empirical mean and standard error of 4 sin^2(u/2) under the model pdf.

    Draws by exact inverse-CDF sampling on the tabulated grid (piecewise-
    constant density, linear within cells) with a counter-based generator,
    so results are deterministic for a fixed (seed >= 0, samples <=
    MC_SAMPLE_CAP, grid).  Key r lies in cell np.searchsorted(cum, r), found
    by a guide table (Chen and Asau 1974): bucket j = floor(r g/total) starts
    at the cell of e_j = (j total/g)(1 - 1e-12).  Rounding r g/total is
    monotone and the margin exceeds its few ulps, so e_j <= r: no start is
    past its cell.  Two steps over cum with +inf appended cannot overshoot;
    the keys still short are searched.

    Keys are drawn into one reused buffer and turned into costs MC_BLOCK
    at a time; the guide table is built once.  The Philox stream read block
    by block is the stream read at once, and every step is elementwise, so
    each cost is the same at any block size.  The costs fill one array of
    ``samples`` doubles, and np.std's deviations beside it make the peak,
    about 16 bytes a sample.
    """
    if samples < 1000:
        raise InvalidArgumentError("need at least 1000 samples")
    if samples > MC_SAMPLE_CAP:
        raise ResourceLimitError(f"samples exceed the {MC_SAMPLE_CAP:.0e}-sample cap")
    if seed < 0:
        raise InvalidArgumentError("seed must be nonnegative")
    du = 2.0 * np.pi / model.grid_points
    weights = model.pdf * du
    total = float(np.sum(weights))
    if not total > 0:
        raise NumericalError("pdf grid is not normalizable")
    cum = np.cumsum(weights)
    table, cum_inf = _guide_table(cum, total)
    generator = np.random.Generator(np.random.Philox(seed))
    costs = np.empty(samples)
    buffer = np.empty(MC_BLOCK)
    for start in range(0, samples, MC_BLOCK):
        r = generator.random(out=buffer[:min(MC_BLOCK, samples - start)])
        r *= total
        idx = _cdf_index(table, cum_inf, total, r)
        w = weights.take(idx)
        r -= cum.take(idx) - w  # r becomes the offset into its cell, then its fraction
        positive = w > 0
        np.divide(r, w, out=r, where=positive)
        r[~positive] = 0.5
        r *= du
        u = model.u.take(idx, out=w)  # w is spent: its buffer takes u
        u += r
        u *= 0.5
        np.square(np.sin(u, out=u), out=u)
        np.multiply(u, 4.0, out=costs[start:start + r.size])
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / math.sqrt(samples))
    return mean, stderr


def _guide_table(cum: np.ndarray, total: float) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of nondecreasing cum (size g, sum total) and cum with
    +inf appended, the two arrays ``_cdf_index`` reads."""
    g = cum.size
    table = np.searchsorted(cum, np.arange(g) * (total / g) * (1.0 - 1e-12))
    return table, np.append(cum, np.inf)


def _cdf_index(table: np.ndarray, cum_inf: np.ndarray, total: float,
               r: np.ndarray) -> np.ndarray:
    """np.minimum(np.searchsorted(cum, r), g - 1) for keys r in [0, total],
    with (table, cum_inf) = _guide_table(cum, total) (see
    ``phase_cost_monte_carlo``)."""
    g = table.size
    idx = table.take((r * (g / total)).astype(np.intp), mode="clip")
    for _ in range(2):
        idx += cum_inf.take(idx) < r
    short = np.flatnonzero(cum_inf.take(idx) < r)
    idx[short] = np.searchsorted(cum_inf, r[short])
    return np.minimum(idx, g - 1, out=idx)
