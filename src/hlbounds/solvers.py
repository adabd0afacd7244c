"""The two iterative solvers of the package, in numpy alone.

The Nelder-Mead simplex search (Nelder and Mead 1965) and the
unpreconditioned conjugate-gradient solve ``cg`` (Hestenes and Stiefel 1952)
are each ported step for step from scipy 1.17
(``scipy.optimize.minimize(method="Nelder-Mead")`` without bounds or
adaptive parameters, and ``scipy.sparse.linalg.cg`` from x0 = 0 with no
preconditioner).  Every arithmetic operation and sort is scipy's, and
every stopping test decides as scipy's does; importing scipy's solvers
would cost about 0.5 s per command.

The simplex search is one generator, ``_nelder_mead``, which yields each
point it needs scored and is sent back its value.  ``minimize_lockstep``
drives many independent searches together, scoring one pending point of
each with a single batched call per round; ``minimize`` drives one search,
one point per call.  Each search's trajectory, evaluation count and result
are bit-identical to scipy's from the same start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
# Initial simplex: relative step on nonzero entries, absolute on zeros.
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class MinimizeResult:
    """Best vertex ``x`` and value ``fun`` of a simplex search, its
    iterations ``nit`` and evaluations ``nfev``; ``success`` is False when
    the search stopped at ``maxiter``."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def minimize(fun, x0, args=(), method="Nelder-Mead", options=None) -> MinimizeResult:
    """Minimize ``fun(x, *args)`` by the Nelder-Mead simplex search.

    Takes scipy's ``minimize`` arguments for this method; ``options`` may
    hold ``xatol``, ``fatol`` (both 1e-4 by default) and ``maxiter``
    (200 per variable by default).  There is no evaluation cap.  The search
    stops once every vertex is within ``xatol`` of the best one in every
    coordinate and every value within ``fatol`` of the best, or after
    ``maxiter`` iterations.
    """
    if method != "Nelder-Mead":
        raise ValueError(f"only the Nelder-Mead method is available, not {method!r}")
    def fun_many(points):
        fx = fun(points[0], *args)
        return [fx if np.isscalar(fx) else np.asarray(fx).item()]

    return minimize_lockstep(fun_many, [x0], [options or {}])[0][0]


def minimize_lockstep(fun_many, x0s, options) -> tuple[list[MinimizeResult], int]:
    """The ``minimize`` search from each start of ``x0s``, with the ``options``
    dict of its index, in lockstep: each round scores the next point of every
    unfinished search with one call ``fun_many(points) -> values``, a list of
    1-D arrays (of any lengths) to a list of floats.  Returns the results in
    start order and the number of rounds."""
    searches = [_nelder_mead(x0, **opts) for x0, opts in zip(x0s, options, strict=True)]
    pending = {i: next(s) for i, s in enumerate(searches)}
    results, rounds = [None] * len(searches), 0
    while pending:
        rounds += 1
        for i, fx in zip(list(pending), fun_many(list(pending.values()))):
            try:
                pending[i] = searches[i].send(fx)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return results, rounds


def _nelder_mead(x0, xatol=1e-4, fatol=1e-4, maxiter=None):
    """The search as a generator: it yields each point to score (a copy,
    free to keep), is sent that point's value and returns the result."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    if maxiter is None:
        maxiter = 200 * n

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + _NONZDELT) * x0[k] if x0[k] != 0 else _ZDELT
    fsim = np.empty(n + 1)
    for j in range(n + 1):
        fsim[j] = yield sim[j].copy()
    nfev = n + 1
    # scipy sorts twice here; argsort does not keep ties in place, so both stay
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        # fsim is sorted, so max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]
        # (rounding is monotone); tested first, it spares the vertex test
        if (fsim[-1] - fsim[0] <= fatol
                and abs(sim[1:] - sim[0]).max() <= xatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = yield xr.copy()
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = yield xe.copy()
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = yield xc.copy()
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxc = yield xc.copy()
                accept = fxc < fsim[-1]
            nfev += 1
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = yield sim[j].copy()
                nfev += n
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    return MinimizeResult(x=sim[0], fun=np.min(fsim), nit=iterations, nfev=nfev,
                          success=iterations < maxiter)


def cg(matvec, b, rtol=1e-5, atol=0.0, maxiter=None, callback=None):
    """Solve A x = b for a symmetric positive definite A given as ``matvec``.

    Starts from x = 0 and stops once the residual norm is below
    max(atol, rtol ||b||), or after ``maxiter`` iterations (10 per unknown
    by default).  ``callback(x)`` runs after every iteration.  Returns
    ``(x, info)``: info is 0 on convergence, else the iteration count.
    """
    b = np.asarray(b, dtype=float).ravel()
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    if maxiter is None:
        maxiter = 10 * len(b)
    x = np.zeros(len(b))
    r = b.copy()
    for iteration in range(maxiter):
        rho_cur = np.dot(r, r)
        if math.sqrt(rho_cur) < atol:  # np.linalg.norm(r), bit for bit
            return x, 0
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += r
        else:
            p = r.copy()
        q = matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter
