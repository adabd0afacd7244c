import math

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
from hlbounds.catalog import _fixed_cr_jnt, _fixed_mm_jnt, _free_cr_jnt
from hlbounds.variational import BALL_P_MAX

PI2 = math.pi ** 2


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
