"""The in-package Nelder-Mead and CG against scipy's, which they port: the
same trajectories, counts and results, bit for bit; and the multi-start
search against the same policy run one start at a time."""

import logging

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg

import hlbounds.solvers as solvers_module
import hlbounds.variational as variational_module
from hlbounds import build_pauli_generators, sep_plus_optimize, simplex_ground_energy
from hlbounds.solvers import cg, minimize, minimize_lockstep, search_from_starts


def _sep_plus_search(monkeypatch):
    # the first search of sep_plus_optimize on Pauli xy in CR (from the
    # identity), with the batched objective that function hands to the
    # lockstep search, scoring one point per call; commuting sets with a
    # difference body run coordinate sweeps instead
    calls = []

    def recording(fun_many, x0s, options):
        calls.append((lambda x: fun_many([0], [x])[0], np.array(x0s[0]), (), options[0]))
        return minimize_lockstep(fun_many, x0s, options)

    monkeypatch.setattr(solvers_module, "minimize_lockstep", recording)
    sep_plus_optimize(build_pauli_generators("xy"), "cr")
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
    "sep-plus-pauli-xy-cr": _sep_plus_search,
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
    # every case in one lockstep batch: the SEP+ search (4 variables, with
    # shrink steps), the maxiter stop (4) and the 1e300 wall (2, with shrink
    # steps); each point goes to the objective of its start
    cases = [MINIMIZE_CASES[name](monkeypatch) for name in MINIMIZE_CASES]
    batches = []

    def fun_many(starts, points):
        batches.append(len(points))
        return [cases[i][0](x, *cases[i][2]) for i, x in zip(starts, points)]

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


def _two_basins(x):
    # minimum 2.0 at (1, 1); a second basin of 2.5 around (-1, -1)
    return min(2.0 + (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2,
               2.5 + (x[0] + 1.0) ** 2 + (x[1] + 1.0) ** 2)


def _plateau(x):
    # every value within 2e-13 of 3, so no value beats another by 1e-12 relative
    return 3.0 + 1e-13 * float(np.tanh(x[0]))


_BASIN_STARTS = [np.array([-1.2, -0.8]), np.array([0.9, 1.3]), np.array([1.5, 0.2]),
                 np.array([0.3, 0.9])]
_OPTIONS = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400}

_ON_THE_MINIMUM = [_BASIN_STARTS[0], np.array([1.0, 1.0])] + _BASIN_STARTS[2:]

# (objective, starts, seeds, certificate)
SEARCH_CASES = {
    # seed 1 sits at the minimum, taken as the certificate: no search runs
    "seed-stop": (_two_basins, _ON_THE_MINIMUM, None, "seed 1"),
    # the same with start 0 the only seed: the search from start 1 stays
    # at the minimum and stops the fold there
    "unscored-seed": (_two_basins, _ON_THE_MINIMUM, 1, "seed 1"),
    # start 0 stays in the second basin; the value the search from start 1
    # reaches is the certificate, so starts 2-3 are dropped
    "search-stop": (_two_basins, _BASIN_STARTS, None, "start 1"),
    # seed 1 is 1.9e-13 better than seed 0 and no search gets 1e-12
    # relative past it: seed 0 stays the best
    "tie": (_plateau, [np.array([2.0, 0.0]), np.array([-2.0, 0.0]), np.array([0.5, 0.5])],
            None, None),
}


def _sequential_fold(logger, name, score, x0s, options, certified, maximize, seeds):
    """The multi-start policy one start at a time: every seed, then each
    start's own search in start order until the certificate."""
    sign = -1 if maximize else 1
    best, origin = None, None
    for k, x in enumerate(x0s[:seeds]):
        v = score([k], [x])[0]
        if best is None or sign * v < sign * best[2] - 1e-12 * abs(best[2]):
            best, origin = (k, x, v), f"seed {k}"
    for k, x in enumerate(x0s):
        if certified is not None and sign * best[2] <= sign * certified * (1 + sign * 1e-12):
            logger.debug("%s certified by %s: value=%r %s=%r; starts %d-%d skipped", name,
                         origin, float(best[2]), "ceiling" if maximize else "floor",
                         certified, k, len(x0s) - 1)
            break
        res = minimize(lambda y, k=k: sign * score([k], [y])[0], x, options=options)
        logger.debug("%s start %d: nfev=%d nit=%d success=%s fun=%r",
                     name, k, res.nfev, res.nit, res.success, float(res.fun))
        if res.fun < sign * best[2] - 1e-12 * abs(best[2]):
            best, origin = (k, res.x, sign * float(res.fun)), f"the search from start {k}"
    return best


@pytest.mark.parametrize("maximize", [False, True], ids=["minimize", "maximize"])
@pytest.mark.parametrize("name", list(SEARCH_CASES))
def test_search_from_starts_equals_the_sequential_fold(caplog, minimize_runs, name, maximize):
    # maximizing 10 - f keeps the values positive, as every floor and
    # ceiling of the package is
    fun, x0s, seeds, stop = SEARCH_CASES[name]
    sign = -1 if maximize else 1

    def score(starts, points):
        return [10.0 - fun(x) if maximize else fun(x) for x in points]

    certified = None
    if stop == "seed 1":
        certified = score([1], x0s[1:2])[0]
    elif stop == "start 1":
        certified = sign * minimize(lambda y: sign * score([1], [y])[0], x0s[1],
                                    options=_OPTIONS).fun
    logger = logging.getLogger("hlbounds.test_search")
    with caplog.at_level(logging.DEBUG, logger=logger.name):
        want = _sequential_fold(logger, "toy", score, x0s, _OPTIONS, certified, maximize, seeds)
        n_want, earlier_runs = len(caplog.records), len(minimize_runs)
        got = search_from_starts(logger, "toy", score, x0s, _OPTIONS, certified, maximize,
                                 seeds)
    messages = [r.getMessage() for r in caplog.records]
    runs = minimize_runs[earlier_runs:]
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]
    if name == "seed-stop":
        assert runs == [] and messages[n_want:] == messages[:n_want]
        assert messages[0].startswith("toy certified by seed 1: ")
        return
    # every start ran in lockstep; one summary record, then the sequential log
    assert len(runs) == len(x0s)
    assert messages[n_want].startswith(f"toy searched {len(x0s)} starts in ")
    assert messages[n_want + 1:] == messages[:n_want]
    if name == "tie":
        assert got[0] == 0 and np.array_equal(got[1], x0s[0]) and n_want == len(x0s)
    else:
        assert n_want == 3 and messages[2].startswith(
            "toy certified by the search from start 1: ")
        assert messages[2].endswith("; starts 2-3 skipped")


def test_search_tie_rule_is_relative(minimize_runs):
    # at a scale of 1e-120 every value is below an absolute 1e-12: seed 1
    # still replaces seed 0, and the search from it reaches the minimum
    def score(starts, points):
        return [1e-120 * _two_basins(x) for x in points]

    start, _, value = search_from_starts(logging.getLogger("hlbounds.test_search"), "tiny",
                                         score, _BASIN_STARTS, _OPTIONS)
    assert start == 1 and value == pytest.approx(2e-120, rel=1e-12)


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
