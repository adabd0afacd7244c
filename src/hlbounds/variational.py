"""Minimax joint-estimation machinery: the Dirichlet ground state on the
cross-polytope, the Airy lower bound, the inscribed-ball upper bound, and
covariant phase-measurement costs with a Monte-Carlo verification harness.

The ground energy E of -Laplacian on {sum_i |mu_i| <= 1/2} with zero
boundary values estimates the joint minimax cost constant via cost = E/N^2.
Discretization is second-order central differences on a uniform
vertex-aligned grid; Dirichlet data is enforced by excluding boundary and
exterior nodes, and the smallest eigenvalue is found by inverse power
iteration with matrix-free conjugate-gradient inner solves.  The ground
state is even in every mu_i, so the iteration runs on the orthant
mu_i >= 0 alone (2^p times fewer unknowns): mirror rows on the coordinate
planes, node weights w = number of full-grid copies, and the symmetric
operator W^(1/2) R W^(-1/2), whose norms and residuals are those of the
full grid.  The eigenvector is unfolded onto the full grid on return (see
``simplex_ground_energy``).  One DEBUG record per solve on this module's
logger gives p, M, full-grid nodes, orthant unknowns, outer iterations, E,
the residual and the number of matvecs.

The Airy lower bound is a closed form in the first zero a0 of Ai' and
Ai(a0); no quadrature is run (see ``airy_lower_bound``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, NumericalError, ResourceLimitError
from .solvers import cg
from .special import (
    MAX_ORDER,
    airy_ai_prime_first_zero,
    airy_ai_with_prime,
    bessel_j_first_zero,
)
from .states import PhaseStateCoefficients

NODE_CAP = 20_000_000
RESIDUAL_RTOL = 1e-9
MAX_POWER_ITERATIONS = 200
MIN_PDF_GRID = 2 ** 14
BALL_P_MAX = 2 * MAX_ORDER + 2  # the Bessel order p/2 - 1 stays <= MAX_ORDER

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimplexSpectrum:
    """Converged ground-state data of the cross-polytope Dirichlet problem."""

    p: int
    h: float
    E: float
    iterations: int
    residual: float
    nodes: np.ndarray
    eigenvector: np.ndarray

    def __post_init__(self):
        if not self.E > 0:
            raise InvalidArgumentError("ground energy must be positive")
        if self.residual > 1e-8 * self.E:
            raise InvalidArgumentError("eigen-residual exceeds 1e-8 * E")
        for name in ("nodes", "eigenvector"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AiryBoundResult:
    """First Ai' zero, the three half-line integrals, and the p^3/N^2 coefficient."""

    a_prime_zero: float
    I_norm: float
    I_mean: float
    I_kinetic: float
    constant: float

    def __post_init__(self):
        if not -1.1 < self.a_prime_zero < -0.9:
            raise NumericalError("Ai' zero outside the expected window")
        if not 0.5 < self.constant < 0.7:
            raise NumericalError("Airy bound constant outside the expected window")


def _interior_mask(p: int, m: int):
    axes = np.linspace(-0.5, 0.5, m + 1)
    radial = np.abs(axes)
    total = np.zeros((m + 1,) * p)
    for d in range(p):
        shape = [1] * p
        shape[d] = m + 1
        total = total + radial.reshape(shape)
    mask = total < 0.5 - 1e-9 / m
    return axes, mask


def simplex_ground_energy(p: int, grid_points_per_axis: int) -> SimplexSpectrum:
    """Smallest Dirichlet eigenvalue of -Laplacian on {sum|mu_i| <= 1/2}.

    ``grid_points_per_axis`` is the number of grid intervals per axis
    (spacing h = 1/M).  Exact values: pi^2 for p = 1 and 4 pi^2 for p = 2;
    the discrete eigenvalue approaches the continuum limit from below at
    rate O(h^2).

    The ground state is even under every sign flip mu_d -> -mu_d, so the
    solve runs on the orthant of grid indices i_d >= ceil(M/2), which holds
    2^p times fewer unknowns, with mirror rows on the coordinate planes: a
    neighbour index i folds to max(i, M - i).  For odd M no node lies on
    mu_d = 0 and the -1 neighbour of the first node (mu_d = h/2) is the node
    itself.  For even M the -1 neighbour of the node on mu_d = 0 folds onto
    its +1 neighbour, so the folded operator R is not symmetric.  With w the
    number of full-grid copies of a node (the product over axes of 1 on
    mu_d = 0, else 2), inverse iteration runs on the symmetric
    S = W^(1/2) R W^(-1/2) in z = W^(1/2) u.  Norms, Rayleigh quotients
    and residuals in z equal those of the symmetric full-grid vector, so E,
    ``residual`` and the stopping rule are the full grid's.  On return
    u = z/sqrt(w) is unfolded onto every interior node, in C order of the
    full grid, so ``nodes`` and the unit-norm ``eigenvector`` cover the
    whole cross-polytope.  The neighbour table is a contiguous (2p, n)
    array, gathered with one ``take`` and summed down its columns in the
    order numpy adds a row of 2p values (left to right below 8, a pairwise
    tree at 8), so every CG iterate equals that of the (n, 2p) row sum.
    """
    if p not in (1, 2, 3, 4):
        raise InvalidArgumentError("the simplex solver supports p in {1, 2, 3, 4}")
    m = int(grid_points_per_axis)
    if m - 1 < 8:
        raise InvalidArgumentError("grid too coarse: fewer than 8 interior points per axis")
    if (m + 1) ** p > NODE_CAP:
        raise InvalidArgumentError(f"grid exceeds the {NODE_CAP:.0e}-node cap")
    h = 1.0 / m
    axes, mask = _interior_mask(p, m)
    coords_idx = np.argwhere(mask)  # interior nodes in C order of the full grid

    lo = (m + 1) // 2  # first orthant index, ceil(M/2)
    orthant = mask[(slice(lo, None),) * p]
    n = int(np.count_nonzero(orthant))
    compact_of_orthant = np.full(orthant.shape, n, dtype=np.int64)  # n = padded zero slot
    compact_of_orthant[orthant] = np.arange(n)

    def fold(idx):
        """Compact orthant index of full-grid indices ``idx`` (k, p); n outside the domain."""
        return compact_of_orthant[tuple((np.maximum(idx, m - idx) - lo).T)]

    # interior nodes have 1 <= i_d <= M - 1, so every neighbour is on the grid
    orthant_idx = np.argwhere(orthant) + lo
    unit = np.eye(p, dtype=np.int64)
    neighbors = np.stack([fold(orthant_idx + step * unit[d]) for d in range(p) for step in (-1, 1)])
    sqrt_w = np.sqrt(np.prod(np.where(2 * orthant_idx == m, 1.0, 2.0), axis=1))

    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * p * inv_h2
    off_scale = inv_h2 * sqrt_w
    matvecs = 0

    def matvec(z):
        nonlocal matvecs
        matvecs += 1
        g = np.concatenate([z / sqrt_w, [0.0]]).take(neighbors)
        if p == 4:  # numpy adds a row of 8 as ((g0+g1)+(g2+g3))+((g4+g5)+(g6+g7))
            g = g[0::2] + g[1::2]
            g = g[0::2] + g[1::2]
        return diag * z - off_scale * g.sum(axis=0)

    x = (0.5 - np.sum(np.abs(axes[orthant_idx]), axis=1)) * sqrt_w  # tent profile start
    x /= np.linalg.norm(x)

    energy = residual = math.inf
    iterations = 0
    for iterations in range(1, MAX_POWER_ITERATIONS + 1):
        y = cg(matvec, x, rtol=1e-12, atol=0.0, maxiter=20000)[0]
        y /= np.linalg.norm(y)
        ay = matvec(y)
        energy = float(y @ ay)
        residual = float(np.linalg.norm(ay - energy * y))
        x = y
        if residual <= RESIDUAL_RTOL * energy:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge (residual {residual:.3e})",
            residual=residual,
        )
    logger.debug("simplex_ground_energy p=%d M=%d: nodes=%d unknowns=%d iterations=%d "
                 "E=%r residual=%.3e matvecs=%d", p, m, len(coords_idx), n, iterations, energy,
                 residual, matvecs)
    return SimplexSpectrum(
        p=p,
        h=h,
        E=energy,
        iterations=iterations,
        residual=residual,
        nodes=axes[coords_idx],
        eigenvector=(x / sqrt_w)[fold(coords_idx)],
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
    if p < 1:
        raise InvalidArgumentError("p must be >= 1")
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


@dataclass(frozen=True)
class PhaseMeasurementModel:
    """Covariant-measurement outcome density p(u) = |sum_m c_m e^{imu}|^2/(2 pi)
    of the mismatch u on [-pi, pi), tabulated on a uniform grid of
    ``grid_points`` points: the least power of two that is at least 2^14
    and 4(N+1), computed from the coefficients."""

    coeffs: PhaseStateCoefficients
    grid_points: int = field(init=False, default=None)
    u: np.ndarray = field(init=False, default=None)
    pdf: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        g = max(MIN_PDF_GRID, 1 << (4 * (self.coeffs.N + 1) - 1).bit_length())
        c = self.coeffs.c
        m = np.arange(c.size)
        shifted = c * np.exp(-1j * m * np.pi)  # e^{im u} at u = -pi + 2 pi j / g
        amps = np.fft.ifft(shifted, n=g) * g
        pdf = np.abs(amps) ** 2 / (2.0 * np.pi)
        u = -np.pi + 2.0 * np.pi * np.arange(g) / g
        total = float(np.sum(pdf) * (2.0 * np.pi / g))
        if abs(total - 1.0) > 1e-8:
            raise NumericalError(f"pdf integrates to {total}, not 1")
        u.flags.writeable = False
        pdf.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "grid_points", g)


def phase_cost_monte_carlo(model: PhaseMeasurementModel, samples: int, seed: int):
    """Empirical mean and standard error of 4 sin^2(u/2) under the model pdf.

    Draws by inverse-CDF sampling on the tabulated grid (piecewise-constant
    density, linear within cells) with a counter-based generator, so results
    are deterministic for a fixed (seed, samples, grid).
    """
    if samples < 1000:
        raise InvalidArgumentError("need at least 1000 samples")
    du = 2.0 * np.pi / model.grid_points
    weights = model.pdf * du
    total = float(np.sum(weights))
    if total <= 0:
        raise NumericalError("pdf grid is not normalizable")
    cum = np.cumsum(weights)
    rng = np.random.Generator(np.random.Philox(seed))
    r = rng.random(samples) * total
    idx = np.searchsorted(cum, r, side="left")
    idx = np.minimum(idx, model.grid_points - 1)
    prev = cum[idx] - weights[idx]
    frac = np.where(weights[idx] > 0, (r - prev) / np.where(weights[idx] > 0, weights[idx], 1.0), 0.5)
    u = model.u[idx] + frac * du
    costs = 4.0 * np.sin(0.5 * u) ** 2
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / math.sqrt(samples))
    return mean, stderr
