"""Probe-state constructors and exact unitary evolution of pure states.

Multi-copy parallel probes are represented in reduced bases (excitation
number or mode occupation), never in the full tensor space; the evolution
is computed by Hermitian eigendecomposition, exact to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .operators import GeneratorSet, combine

NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """A normalized pure state given by its complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise InvalidArgumentError("state vector must be nonempty")
        if not abs(np.sum(np.abs(v) ** 2) - 1.0) <= NORM_TOL:
            raise InvalidArgumentError("state vector is not normalized to 1e-12")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class PhaseStateCoefficients:
    """Coefficients c_m, m = 0..N, of an N-excitation phase probe."""

    N: int
    c: np.ndarray

    def __post_init__(self):
        if self.N < 1:
            raise InvalidArgumentError("N must be >= 1")
        v = np.array(self.c, dtype=complex).reshape(-1)
        if v.size != self.N + 1:
            raise InvalidArgumentError(f"expected {self.N + 1} coefficients, got {v.size}")
        if not abs(np.sum(np.abs(v) ** 2) - 1.0) <= NORM_TOL:
            raise InvalidArgumentError("coefficients are not normalized to 1e-12")
        v.flags.writeable = False
        object.__setattr__(self, "c", v)


def noon_coefficients(n: int) -> PhaseStateCoefficients:
    """Equal superposition of the m = 0 and m = n excitation components."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    c = np.zeros(n + 1, dtype=complex)
    c[0] = c[n] = 1.0 / math.sqrt(2.0)
    return PhaseStateCoefficients(n, c)


def sin_coefficients(N: int) -> PhaseStateCoefficients:
    """Sine-profile coefficients c_m = sqrt(2/(N+2)) sin((m+1) pi / (N+2)).

    Optimal probe for a completely unknown phase; its covariant-measurement
    cost is 2(1 - cos(pi/(N+2))), approaching pi^2/N^2.
    """
    if N < 1:
        raise InvalidArgumentError("N must be >= 1")
    m = np.arange(N + 1)
    c = math.sqrt(2.0 / (N + 2)) * np.sin((m + 1) * math.pi / (N + 2))
    return PhaseStateCoefficients(N, c.astype(complex))


def evolve(gens: GeneratorSet, theta, psi: PureState) -> PureState:
    """Apply exp(i theta . Lambda) to ``psi`` via eigendecomposition."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (gens.p,):
        raise InvalidArgumentError(f"theta has shape {theta.shape}, expected ({gens.p},)")
    if psi.dim != gens.dim:
        raise InvalidArgumentError(
            f"state dimension {psi.dim} does not match generators ({gens.dim})"
        )
    h = combine(gens, theta).entries
    if np.max(np.abs(h - np.diag(np.diag(h)))) <= 1e-15:
        phases = np.exp(1j * np.real(np.diag(h)))
        return PureState(phases * psi.amplitudes)
    w, v = np.linalg.eigh(h)
    out = v @ (np.exp(1j * w) * (v.conj().T @ psi.amplitudes))
    return PureState(out)


def uniform_state(dim: int) -> PureState:
    """Equal real amplitudes 1/sqrt(dim) on all basis states."""
    if dim < 1:
        raise InvalidArgumentError("dim must be >= 1")
    return PureState(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def superposed_noon_state(p: int, n: int) -> PureState:
    """Equally weighted superposition of per-site two-mode n00n probes.

    Joint free-atom probe over the 2p mode-occupation basis states
    {|n>_{i,+}, |n>_{i,-}}; at theta = 0 every amplitude equals
    1/sqrt(2p) for any excitation number n.
    """
    if p < 1 or n < 1:
        raise InvalidArgumentError("p and n must be >= 1")
    return uniform_state(2 * p)
