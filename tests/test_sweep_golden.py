"""Golden coordinate sweeps of the SEP+ search.

Every start that ``sep_plus_optimize`` sweeps on fixed atoms at p = 3, 5,
6 and 7, in CR and MM, is recorded (its ``sweeps``, ``moves``,
``converged``, ``fun`` as ``repr`` and the end A as ``x``), in the order
the search swept them.  A change to the line kernel or the scorer that
moves any candidate's value, step or gauge by one bit shows up here as a
different move, ``x`` or ``fun``; every field must match exactly.
Regenerate cases with ``python tests/test_sweep_golden.py [name ...]``
(all cases when no name is given) and review the diff of
``golden/sweep_runs.json``.
"""

import json
import sys
from pathlib import Path

import pytest

import hlbounds.bounds as bounds_module
from hlbounds import build_fixed_atom_generators, sep_plus_optimize

GOLDEN = Path(__file__).parent / "golden" / "sweep_runs.json"

CASES = {f"fixed_atoms_{p}_{paradigm}": (p, paradigm)
         for p in (3, 5, 6, 7) for paradigm in ("cr", "mm")}


def capture(name):
    """Every swept start of the search ``name`` names, in sweep order."""
    p, paradigm = CASES[name]
    runs, sweeps = [], bounds_module._coordinate_sweeps

    def recording(*args, **kwargs):
        local = sweeps(*args, **kwargs)

        def recorded(x0s):
            out = local(x0s)
            runs.extend({"sweeps": r.sweeps, "moves": r.moves, "converged": r.converged,
                         "fun": repr(r.fun), "x": r.x.tolist()} for r in out[0])
            return out

        return recorded

    bounds_module._coordinate_sweeps = recording
    try:
        sep_plus_optimize(build_fixed_atom_generators(p), paradigm)
    finally:
        bounds_module._coordinate_sweeps = sweeps
    return runs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_every_swept_start_matches_golden(golden, name):
    want, got = golden[name], capture(name)
    assert len(got) == len(want), name
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (name, i, {key: (g[key], w[key]) for key in w if g[key] != w[key]})


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        data[name] = capture(name)
    ordered = {name: data[name] for name in CASES if name in data}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(ordered, indent=1) + "\n")
