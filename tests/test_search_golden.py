"""Golden Nelder-Mead trajectories of the searches.

Every Nelder-Mead run made by the orthogonal-rotation search and the
sphere search (each start of their lockstep search) is recorded (the
calling module, nfev, nit, success and fun), together with the search's
returned value; the SEP+ search sweeps coordinates and records no run.
A change that alters the objective's arithmetic in any way shows up here
as a different nfev or fun.  nfev, nit and success must match exactly;
fun and the value to 1e-12 relative.  Regenerate cases with ``python
tests/test_search_golden.py [name ...]`` (all cases when no name is
given) and review the diff of ``golden/search_runs.json``.
"""

import contextlib
import json
import math
import sys
from pathlib import Path

import pytest

import hlbounds.bounds as bounds_module
import hlbounds.solvers as solvers_module
from hlbounds import (
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    max_spread_over_sphere,
    optimize_orthogonal_bound,
    sep_plus_optimize,
)

GOLDEN = Path(__file__).parent / "golden" / "search_runs.json"

CASES = {
    "sep_plus_fixed_atoms_3_cr": lambda: sep_plus_optimize(build_fixed_atom_generators(3), "cr"),
    "sep_plus_two_sector_cr": lambda: sep_plus_optimize(build_two_sector_generators(1.0, 0.5),
                                                        "cr"),
    "rotation_free_atoms_3": lambda: optimize_orthogonal_bound(build_free_atom_generators(3)),
    "rotation_pauli3": lambda: optimize_orthogonal_bound(build_pauli_generators("xyz")),
    "sphere_pauli3": lambda: max_spread_over_sphere(build_pauli_generators("xyz")),
}


@contextlib.contextmanager
def recorded_minimize(runs):
    """Record every Nelder-Mead result of the searches: each start of each
    ``minimize_lockstep`` call, in start order, with the module whose search
    called ``search_from_starts``."""
    lockstep = solvers_module.minimize_lockstep

    def recording(*args, **kwargs):
        out = lockstep(*args, **kwargs)
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == solvers_module.__name__:
            frame = frame.f_back
        module = frame.f_globals["__name__"].rsplit(".", 1)[1]
        for res in out[0]:
            runs.append({"module": module, "nfev": int(res.nfev), "nit": int(res.nit),
                         "success": bool(res.success), "fun": float(res.fun)})
        return out

    try:
        solvers_module.minimize_lockstep = recording
        yield runs
    finally:
        solvers_module.minimize_lockstep = lockstep


def capture(name):
    with recorded_minimize([]) as runs:
        _, result = CASES[name]()
    value = result.constant if isinstance(result, bounds_module.CostEstimate) else result
    return {"runs": runs, "value": float(value)}


def _same_number(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_search_trajectory_matches_golden(golden, name):
    want, got = golden[name], capture(name)
    assert len(got["runs"]) == len(want["runs"]), name
    for i, (g, w) in enumerate(zip(got["runs"], want["runs"])):
        for key in ("module", "nfev", "nit", "success"):
            assert g[key] == w[key], (name, i, key, g[key], w[key])
        assert _same_number(g["fun"], w["fun"]), (name, i, g["fun"], w["fun"])
    assert _same_number(got["value"], want["value"]), (name, got["value"], want["value"])


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        data[name] = capture(name)
    ordered = {name: data[name] for name in CASES if name in data}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(ordered, indent=1) + "\n")
