"""Quantum Fisher information for pure output states.

Both the QFI and the saturability test read one overlap matrix
<D_i|D_j> of the centred states |D_i> = (Lambda_i - <Lambda_i>) |psi> at
the evolved point psi, for every generator set.  The derivative states are
exact: for a commuting set, or at theta0 = 0 for any set, d/d theta_i
exp(i n theta . Lambda) |psi> = i n Lambda_i exp(i n theta . Lambda) |psi>,
so no finite differences are taken; noncommuting sets are supported only
at theta0 = 0.  The regularized trace-of-inverse and per-parameter
nuisance variances implement the epsilon -> 0+ limit semantics, returning
+inf for genuinely singular directions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, UnsupportedConfigurationError
from .operators import GeneratorSet, generator_spreads
from .record import Record
from .states import PureState, evolve

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10
SATURABILITY_TOL = 1e-9
SINGULARITY_TOL = 1e-10


class QfiMatrix(Record):
    """A p x p quantum Fisher information matrix (symmetric PSD).  An eigenvalue
    <= SINGULARITY_TOL * max(scale, largest eigenvalue) counts as zero."""

    __slots__ = ("entries", "scale")

    def __init__(self, entries: np.ndarray, scale: float = 1.0):
        self._store(entries, scale)
        self.__post_init__()

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
        if not np.max(np.abs(m - m.T)) <= SYMMETRY_TOL:
            raise InvalidArgumentError("QFI matrix is not symmetric to 1e-10")
        if not self.scale > 0:
            raise InvalidArgumentError("QFI scale must be positive")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL * max(w[-1], 1.0):
            raise InvalidArgumentError("QFI matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def p(self) -> int:
        return self.entries.shape[0]


class SaturabilityReport(Record):
    """Antisymmetric SLD overlap imaginary parts; zero means saturable
    (``saturable``, derived)."""

    __slots__ = ("imag_parts", "saturable")

    def __init__(self, imag_parts: np.ndarray):
        self._store(imag_parts)
        self.__post_init__()

    def __post_init__(self):
        m = np.array(self.imag_parts, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "imag_parts", m)
        object.__setattr__(self, "saturable", bool(np.max(np.abs(m)) <= SATURABILITY_TOL))

    @property
    def p(self) -> int:
        return self.imag_parts.shape[0]


def _validate_inputs(gens: GeneratorSet, theta0, psi_in: PureState):
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (gens.p,):
        raise InvalidArgumentError(f"theta0 has shape {theta0.shape}, expected ({gens.p},)")
    if psi_in.dim != gens.dim:
        raise InvalidArgumentError(
            f"state dimension {psi_in.dim} does not match generators ({gens.dim})"
        )
    if not gens.commuting and np.any(theta0 != 0.0):
        raise UnsupportedConfigurationError(
            "noncommuting generators are only supported at theta0 = 0"
        )
    return theta0


def _overlap_matrix(gens: GeneratorSet, theta0, psi_in: PureState):
    """<D_i|D_j> for the centred states |D_i> = (Lambda_i - <Lambda_i>) |psi>
    at the evolved point psi.  Callers scale its real or imaginary part by 4:
    4.0 times the complex matrix can flip the sign of a zero real part."""
    psi0 = evolve(gens, theta0, psi_in).amplitudes
    # centre the generator, not the product: a multiple of the identity
    # in Lambda_i would otherwise cancel catastrophically
    if gens.diagonal:
        # Lambda_i psi elementwise; adding 0.0 turns a -0.0 product into the
        # +0.0 that a matvec's sum gives
        lams = gens.patterns.T
        means = np.array([np.real(np.vdot(psi0, lam * psi0)) for lam in lams])
        ds = (lams - means[:, None]) * psi0 + 0.0
    else:
        means = [np.real(np.vdot(psi0, g.entries @ psi0)) for g in gens.generators]
        eye = np.eye(gens.dim)
        ds = np.stack([(g.entries - mu * eye) @ psi0 for g, mu in zip(gens.generators, means)])
    return ds.conj() @ ds.T


def qfi_pure(gens: GeneratorSet, theta0, psi_in: PureState, n: int = 1) -> QfiMatrix:
    """QFI matrix for n parallel uses, modeled as generator scaling n Lambda.

    F_ij = 4 n^2 Re<(Lambda_i - <Lambda_i>) psi|(Lambda_j - <Lambda_j>) psi>
    at the evolved point psi, one centred path for every generator set
    (noncommuting sets at theta0 = 0 only).
    ``scale`` is n^2 max_i spread(Lambda_i)^2, the largest F_ii (1 if that is 0).
    """
    theta0 = _validate_inputs(gens, theta0, psi_in)
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    try:
        n2 = float(n * n)
    except OverflowError:
        raise InvalidArgumentError("n^2 is beyond the double range") from None
    scale = n2 * float(np.max(generator_spreads(gens))) ** 2 or 1.0
    return QfiMatrix(n2 * (4.0 * np.real(_overlap_matrix(gens, theta0, psi_in))), scale)


def saturability(gens: GeneratorSet, theta0, psi_in: PureState) -> SaturabilityReport:
    """Imaginary parts Im tr(rho L_i L_j) from the pure-state SLDs.

    These are Im 4 <D_i|D_j> of the same centred states as ``qfi_pure``.
    The report is saturable iff the max entry is below 1e-9; only then is
    the multiparameter quantum Cramer-Rao bound asymptotically attainable
    with many repetitions.
    """
    theta0 = _validate_inputs(gens, theta0, psi_in)
    return SaturabilityReport(4.0 * np.imag(_overlap_matrix(gens, theta0, psi_in)))


def trace_inverse(f: QfiMatrix) -> float:
    """lim_{eps->0+} tr((F + eps)^{-1}); +inf when F is singular."""
    w = np.linalg.eigvalsh(f.entries)
    tol = SINGULARITY_TOL * max(f.scale, float(w[-1]))
    if w[0] <= tol:
        return math.inf
    return float(np.sum(1.0 / w))


def nuisance_variance(f: QfiMatrix, i: int) -> float:
    """lim_{eps->0+} [(F + eps)^{-1}]_{ii}, treating other parameters as nuisance.

    Finite whenever the coordinate direction i is supported on the invertible
    part of F (e.g. an invertible diagonal block containing i); +inf otherwise.
    """
    if not 0 <= i < f.p:
        raise InvalidArgumentError(f"index {i} out of range for p={f.p}")
    w, v = np.linalg.eigh(f.entries)
    tol = SINGULARITY_TOL * max(f.scale, float(w[-1]))
    comp2 = v[i, :] ** 2
    null = w <= tol
    if np.any(comp2[null] > 1e-12):
        return math.inf
    keep = ~null
    return float(np.sum(comp2[keep] / w[keep]))
