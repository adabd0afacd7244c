import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from hlbounds import (
    ResourceLimitError,
    build_fixed_atom_generators,
    figure_ball_data,
    figure_ratio_data,
    get_model,
    ordering_violations,
    rotation_bound_ceiling,
    table_one,
)
import hlbounds
from hlbounds import InvalidArgumentError
from hlbounds.catalog import (
    GENERATOR_MODELS,
    _fixed_cr_jnt,
    _fixed_mm_jnt,
    _free_cr_jnt,
    bounds_rows,
)
from hlbounds.cli import main
from hlbounds.variational import BALL_P_MAX

PI2 = math.pi ** 2


def test_get_model_builds_only_the_named_record():
    # a fresh process: bounds --model pauli3 computes no fixed-atom,
    # free-atom or Bessel constant of the other records
    code = ("from hlbounds import catalog; catalog.get_model('pauli3'); "
            "print([f.cache_info().currsize for f in (catalog.table_one, "
            "catalog._fixed_cr_sep_plus, catalog._fixed_cr_jnt, catalog._airy_constant)])")
    env = dict(os.environ, PYTHONPATH=str(Path(hlbounds.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[0, 0, 0, 0]\n"
    assert get_model("pauli3") is table_one()[2]

def _find(record, paradigm, strategy, variant=""):
    rows = [
        e for e in record.entries
        if e.estimate.paradigm == paradigm and e.estimate.strategy == strategy
        and e.estimate.variant == variant
    ]
    assert len(rows) == 1, (record.name, paradigm, strategy, variant, rows)
    return rows[0]


def test_registry_has_six_models():
    names = [r.name for r in table_one()]
    assert names == [
        "fixed_atoms", "free_atoms", "pauli3", "pauli2", "pauli1",
        "interferometer_p_arms",
    ]


def test_fixed_atoms_constants():
    record = get_model("fixed_atoms")
    assert _find(record, "cr", "sep").value(5) == pytest.approx(25.0, abs=1e-9)
    assert _find(record, "cr", "jnt").value(4) == pytest.approx(4.0, abs=1e-9)
    mm_jnt = _find(record, "mm", "jnt")
    assert mm_jnt.coefficient == pytest.approx(PI2, rel=1e-12)
    assert mm_jnt.estimate.p_exponent == 1
    assert _find(record, "mm", "sep_plus").value(4) == pytest.approx(16 * PI2, rel=1e-10)


def test_free_atoms_constants():
    record = get_model("free_atoms")
    for strategy in ("sep", "sep_plus", "jnt"):
        assert _find(record, "cr", strategy).value(3) == pytest.approx(9.0, abs=1e-9)
    lower = _find(record, "mm", "jnt", "lower")
    upper = _find(record, "mm", "jnt", "upper")
    assert lower.coefficient == pytest.approx(0.63, abs=0.01)
    assert lower.estimate.status == "lower_bound" and lower.computed
    assert upper.coefficient == 1.0 and upper.estimate.status == "upper_bound" and not upper.computed


def test_pauli_constants():
    p3 = get_model("pauli3")
    assert _find(p3, "cr", "sep").value(3) == pytest.approx(9.0, abs=1e-9)
    adaptive = _find(p3, "cr", "jnt", "adaptive")
    assert adaptive.coefficient == 3.0 and adaptive.estimate.status == "cited"
    parallel = _find(p3, "cr", "jnt", "parallel")
    assert parallel.estimate.finite_n
    assert parallel.at(3, 100).constant == pytest.approx(9 * 100 / 102)
    assert _find(p3, "mm", "jnt").coefficient == pytest.approx(4 * PI2, rel=1e-12)

    p2 = get_model("pauli2")
    xi = 2.404825557695773
    mm_jnt = _find(p2, "mm", "jnt")
    assert mm_jnt.coefficient == pytest.approx(4 * xi ** 2, abs=1e-6)
    assert mm_jnt.estimate.status == "cited"
    assert _find(p2, "cr", "jnt", "adaptive").coefficient == 2.0
    assert _find(p2, "mm", "sep").value(2) == pytest.approx(8 * PI2, rel=1e-10)


def test_single_parameter_cr_mm_ratio_exact():
    record = get_model("pauli1")
    cr = _find(record, "cr", "jnt").value(1)
    mm = _find(record, "mm", "jnt").value(1)
    assert mm / cr == PI2  # exactly pi^2


def test_interferometer_reference_rows():
    record = get_model("interferometer_p_arms")
    assert _find(record, "cr", "jnt").coefficient == 0.25
    assert _find(record, "cr", "jnt").estimate.status == "cited"
    assert _find(record, "mm", "jnt", "lower").coefficient == 1.89
    assert _find(record, "mm", "jnt", "upper").coefficient == 2.0
    assert _find(record, "cr", "sep").value(6) == pytest.approx(36.0, abs=1e-9)


def test_computed_entries_recompute_bit_for_bit():
    # the registry stores provenance closures, not copied numbers: values
    # must equal direct calls of the generating operations exactly
    from hlbounds import (
        ReparamMatrix,
        allocate,
        build_fixed_atom_generators,
        build_free_atom_generators,
        per_parameter_spread_constants,
        rotation_bound_value,
        sep_plus_lower_bound,
    )

    fixed = get_model("fixed_atoms")
    assert _find(fixed, "cr", "jnt").value(4) == _fixed_cr_jnt(4)
    g5 = build_fixed_atom_generators(5)
    assert _find(fixed, "cr", "sep").value(5) == allocate(
        per_parameter_spread_constants(g5, "cr"), 1
    ).total_constant
    g4 = build_fixed_atom_generators(4)
    assert _find(fixed, "mm", "jnt").value(4) == PI2 * rotation_bound_value(
        g4, ReparamMatrix(np.eye(4))
    )

    free = get_model("free_atoms")
    assert _find(free, "cr", "jnt").value(6) == _free_cr_jnt(6)
    assert _find(free, "mm", "sep_plus").value(3) == sep_plus_lower_bound(
        build_free_atom_generators(3), "mm"
    ).constant

    p3 = get_model("pauli3")
    assert _find(p3, "mm", "sep").value(3) == allocate([PI2] * 3, 2).total_constant

    for record in table_one():
        for entry in record.entries:
            assert entry.computed == entry.estimate.provenance.startswith("computed")


@pytest.mark.parametrize("p", range(2, 7))
def test_fixed_mm_jnt_meets_the_rotation_ceiling(p):
    # the registry reports the identity rotation as exact: no rotation of
    # fixed atoms has a bound sum above the ceiling p
    ceiling = rotation_bound_ceiling(build_fixed_atom_generators(p))
    assert _fixed_mm_jnt(p) == pytest.approx(PI2 * ceiling, rel=1e-12, abs=0)


def test_orderings_hold_across_registry():
    for record in table_one():
        for p in (4, 8):
            assert ordering_violations(record, p, n=100) == []


def test_figure_ball_rows():
    rows, analytic = figure_ball_data(5)
    assert len(rows) == 5 and len(analytic) == 2
    row2 = rows[1]
    assert row2["ball_norm"] == pytest.approx(46.2655 / 8, abs=1e-3)
    assert analytic[1]["analytic_norm"] == pytest.approx(4 * PI2 / 8)
    assert row2["ball_norm"] > analytic[1]["analytic_norm"]
    for row in rows:
        assert row["airy_norm"] < row["sep_norm"]
        assert row["airy_norm"] < row["ball_norm"]
    an = {a["p"]: a["analytic_norm"] for a in analytic}
    assert rows[0]["airy_norm"] < an[1] and rows[1]["airy_norm"] < an[2]


def test_figure_ball_large_p_regression():
    rows, _ = figure_ball_data(40)
    assert rows[-1]["ball_norm"] == pytest.approx(1.4809, abs=2e-3)


def test_figure_ball_norm_above_one_and_decreasing():
    # the trial state only bounds E from above, and E/p^3 -> 1 from above
    norms = [row["ball_norm"] for row in figure_ball_data(160)[0]]
    assert all(n > 1.0 for n in norms)
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx((2 * sp.jn_zeros(79, 1)[0] / 160) ** 2, rel=1e-12, abs=0)


def test_figure_ball_resource_ceiling():
    with pytest.raises(ResourceLimitError):
        figure_ball_data(BALL_P_MAX + 1)


def test_figure_ratio_curve():
    rows = figure_ratio_data(1.0, [0.05, 0.5, 0.95])
    ratios = [r["ratio"] for r in rows]
    assert all(r >= 1 - 1e-9 for r in ratios)
    assert ratios[1] > ratios[0] and ratios[1] > ratios[2]
    assert ratios[1] > 1.01
    with pytest.raises(Exception):
        figure_ratio_data(1.0, [1.5])


# ---------------------------------------------------------------------------
# rows of the bounds command

# the two-sector strength pairs of the benchmark menu
_TWO_SECTOR_MENU = ((1.0, 0.5), (1.0, 0.3), (1.0, 0.4), (1.0, 0.6), (2.0, 1.0), (2.0, 0.5))


def _bounds_cases():
    for model in GENERATOR_MODELS:
        for paradigm in ("cr", "mm"):
            if model == "two-sector":
                for alpha, beta in _TWO_SECTOR_MENU:
                    yield model, paradigm, 2, alpha, beta
            else:
                for p in range(1, 5):
                    yield model, paradigm, p, 1.0, 0.5


@pytest.mark.parametrize("model, paradigm, p, alpha, beta", list(_bounds_cases()))
def test_bounds_rows_are_the_rows_the_command_prints(model, paradigm, p, alpha, beta):
    argv = ["bounds", "--model", model, "--paradigm", paradigm, "--p", str(p), "--n", "7",
            "--alpha", repr(alpha), "--beta", repr(beta)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if model == "two-sector" and paradigm == "mm":
        assert code == 2 and "CR paradigm only" in err.getvalue()
        with pytest.raises(InvalidArgumentError, match="CR paradigm only"):
            bounds_rows(model, paradigm, p, 7, alpha, beta)
        return
    assert code == 0, err.getvalue()
    rows = [est.row() for est in bounds_rows(model, paradigm, p, 7, alpha, beta)]
    assert json.loads(out.getvalue()) == rows


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("model", ["fixed-atoms", "free-atoms"])
@pytest.mark.parametrize("p", range(1, 7))
def test_sep_plus_search_lies_between_its_floor_and_sep(p, model, paradigm):
    # the SEP+ part of the lower <= upper invariant: the search row, an upper
    # bound, is at least its floor and, the identity being one of its
    # seeds, at most the sep row
    rows = {(e.strategy, e.variant): e.constant
            for e in bounds_rows(model, paradigm, p, 100, 1.0, 0.5)}
    search = rows["sep_plus", "search"]
    assert search >= rows["sep_plus", "lower"] * (1 - 1e-9)
    assert search <= rows["sep", ""]


@pytest.mark.parametrize("n", [10 ** 20, 2 ** 1024 - 2 ** 970 - 3])
def test_finite_n_rows_stay_finite_where_v_n_overflows(n):
    # the parallel row is v n / (n + 2); at the largest accepted n, v n
    # overflows and the row is v (n / (n + 2)), while at n = 10^20 it keeps
    # the bytes of v n / (n + 2)
    [entry] = [e for e in get_model("pauli3").entries
               if e.estimate.paradigm == "cr" and e.estimate.variant == "parallel"]
    [row] = [e for e in bounds_rows("pauli3", "cr", 1, n, 1.0, 0.5) if e.variant == "parallel"]
    v = entry.value(3)
    want = v * n / (n + 2) if math.isfinite(v * n) else v * (n / (n + 2))
    assert math.isfinite(row.constant) and row.constant == want
    assert math.isfinite(v * n) == (n == 10 ** 20)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", "--model", "pauli3", "--paradigm", "cr", "--n", str(n),
                     "--format", "csv"]) == 0
    [cell] = [r["constant"] for r in csv.DictReader(io.StringIO(out.getvalue()))
              if r["variant"] == "parallel"]
    assert float(cell) == want


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_free_atom_mm_bracket_rows_are_the_registry_entries(p):
    rows = {est.variant: est for est in bounds_rows("free-atoms", "mm", p, 100, 1.0, 0.5)}
    registry = {e.estimate.variant: e.at(p, 100) for e in get_model("free_atoms").entries
                if e.estimate.paradigm == "mm" and e.estimate.strategy == "jnt"}
    for row, entry in (("airy_lower", "lower"), ("ball_limit_upper", "upper")):
        got, want = rows[row], registry[entry]
        assert (got.constant, got.status, got.provenance) == \
            (want.constant, want.status, want.provenance)
