"""The in-package Nelder-Mead and CG against scipy's, which they port: the
same trajectories, counts and results, bit for bit."""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg

import hlbounds.bounds as bounds_module
import hlbounds.variational as variational_module
from hlbounds import build_fixed_atom_generators, sep_plus_optimize, simplex_ground_energy
from hlbounds.solvers import cg, minimize, minimize_lockstep


def _sep_plus_search(monkeypatch):
    # the first search of sep_plus_optimize at fixed atoms p=3 in CR (from the
    # identity), with the batched objective that function hands to the
    # lockstep search, scoring one point per call
    calls = []

    def recording(fun_many, x0s, options):
        calls.append((lambda x: fun_many([x])[0], np.array(x0s[0]), (), options[0]))
        return minimize_lockstep(fun_many, x0s, options)

    monkeypatch.setattr(bounds_module, "minimize_lockstep", recording)
    sep_plus_optimize(build_fixed_atom_generators(3), "cr")
    return calls[0]


def _rosenbrock(x, shift):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1] - shift) ** 2))


def _walled_bowl(x):
    # 1e300 on the half-plane x0 < 0.3, as the searches score a singular A;
    # the bowl's own minimum lies beyond that wall
    if x[0] < 0.3:
        return 1e300
    return float((x[0] + 0.2) ** 2 + 3.0 * (x[1] + 0.4) ** 2 + 0.5 * x[0] * x[1])


MINIMIZE_CASES = {
    "sep-plus-fixed-atoms-3-cr": _sep_plus_search,
    "stopped-at-maxiter": lambda _: (
        _rosenbrock, np.array([-1.2, 1.0, 0.5, 0.0]), (0.25,),
        {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 60}),
    "walled-objective": lambda _: (
        _walled_bowl, np.array([1.0, 1.0]), (),
        {"xatol": 1e-9, "fatol": 1e-11, "maxiter": 800}),
}


@pytest.mark.parametrize("name", list(MINIMIZE_CASES))
def test_minimize_matches_scipy_nelder_mead(monkeypatch, name):
    fun, x0, args, options = MINIMIZE_CASES[name](monkeypatch)
    ours = minimize(fun, x0, args=args, method="Nelder-Mead", options=options)
    ref = scipy_minimize(fun, x0, args=args, method="Nelder-Mead", options=options)
    assert np.array_equal(ours.x, ref.x)
    assert ours.fun == ref.fun
    assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
    if name == "stopped-at-maxiter":
        assert not ours.success and ours.nit == 60
    else:
        assert ours.success


def test_lockstep_searches_match_scipy_nelder_mead(monkeypatch):
    # every case in one lockstep batch: the SEP+ search (9 variables, with
    # shrink steps), the maxiter stop (4) and the 1e300 wall (2, with shrink
    # steps); each point goes to its case's objective by its length
    cases = [MINIMIZE_CASES[name](monkeypatch) for name in MINIMIZE_CASES]
    by_length = {len(x0): (fun, args) for fun, x0, args, _ in cases}
    assert len(by_length) == len(cases)
    batches = []

    def fun_many(points):
        batches.append(len(points))
        return [by_length[len(x)][0](x, *by_length[len(x)][1]) for x in points]

    results, rounds = minimize_lockstep(fun_many, [c[1] for c in cases], [c[3] for c in cases])
    assert rounds == len(batches) == max(res.nfev for res in results)
    assert batches[0] == len(cases) and sum(batches) == sum(res.nfev for res in results)
    for (fun, x0, args, options), ours in zip(cases, results):
        ref = scipy_minimize(fun, x0, args=args, method="Nelder-Mead", options=options)
        assert np.array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, ref.success)
    assert [res.success for res in results] == [True, False, True]


def test_minimize_takes_only_its_options():
    with pytest.raises(TypeError):
        minimize(_walled_bowl, [1.0, 1.0], options={"maxfev": 10})
    with pytest.raises(ValueError):
        minimize(_walled_bowl, [1.0, 1.0], method="Powell")


@pytest.mark.parametrize("p, m", [(2, 40), (3, 20)])
def test_cg_matches_scipy_on_the_simplex_operator(monkeypatch, p, m):
    # every CG solve of the inverse iteration, repeated with scipy's solver
    solves = []

    def recording(matvec, b, **kwargs):
        solves.append((matvec, b.copy(), kwargs))
        return cg(matvec, b, **kwargs)

    monkeypatch.setattr(variational_module, "cg", recording)
    simplex_ground_energy(p, m)
    assert solves
    for matvec, b, kwargs in solves:
        ours_steps, ref_steps = [], []
        ours, info = cg(matvec, b, callback=ours_steps.append, **kwargs)
        op = LinearOperator((len(b), len(b)), matvec=matvec, dtype=float)
        ref, ref_info = scipy_cg(op, b, callback=ref_steps.append, **kwargs)
        assert np.array_equal(ours, ref)
        assert info == ref_info == 0
        assert len(ours_steps) == len(ref_steps) > 0
