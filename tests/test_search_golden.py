"""Golden Nelder-Mead trajectories of the searches.

Every Nelder-Mead run made by the SEP+ search (each start of its lockstep
search), the orthogonal-rotation search and the sphere search is recorded
(the calling module, nfev, nit, success and fun), together with the
search's returned value.  A change that alters the objective's arithmetic
in any way shows up here as a different nfev or fun.  nfev, nit and success must match exactly; fun and the value to
1e-12 relative.  Regenerate cases with ``python tests/test_search_golden.py
[name ...]`` (all cases when no name is given) and review the diff of
``golden/search_runs.json``.
"""

import contextlib
import json
import math
import sys
from pathlib import Path

import pytest

import hlbounds.bounds as bounds_module
import hlbounds.operators as operators_module
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
    "sep_plus_pauli2_cr": lambda: sep_plus_optimize(build_pauli_generators("xy"), "cr"),
    "sep_plus_pauli3_mm": lambda: sep_plus_optimize(build_pauli_generators("xyz"), "mm"),
    "rotation_free_atoms_3": lambda: optimize_orthogonal_bound(build_free_atom_generators(3)),
    "rotation_pauli3": lambda: optimize_orthogonal_bound(build_pauli_generators("xyz")),
    "sphere_pauli3": lambda: max_spread_over_sphere(build_pauli_generators("xyz")),
}


@contextlib.contextmanager
def recorded_minimize(runs):
    """Record every Nelder-Mead result of the bounds and operators modules:
    each ``minimize`` call of operators, and each start of the lockstep
    search of bounds, in start order."""
    hooks = {(operators_module, "minimize"): False, (bounds_module, "minimize_lockstep"): True}
    originals = {key: getattr(*key) for key in hooks}

    def record(mod, res):
        runs.append({"module": mod.__name__.rsplit(".", 1)[1], "nfev": int(res.nfev),
                     "nit": int(res.nit), "success": bool(res.success),
                     "fun": float(res.fun)})

    def recording(mod, minimize, lockstep):
        def wrapper(*args, **kwargs):
            out = minimize(*args, **kwargs)
            for res in out[0] if lockstep else [out]:
                record(mod, res)
            return out

        return wrapper

    try:
        for (mod, name), lockstep in hooks.items():
            setattr(mod, name, recording(mod, originals[mod, name], lockstep))
        yield runs
    finally:
        for (mod, name), minimize in originals.items():
            setattr(mod, name, minimize)


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
