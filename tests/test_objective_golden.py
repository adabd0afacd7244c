"""Golden values of the SEP+ objective and of the singularity test, bit for bit.

``sep_plus_value`` is pinned with ``==`` at 20 seeded random A for four
models, three on the Elfving oracle and one on the spread oracle, and the
accept/reject decision of ``ReparamMatrix`` on a seeded batch of matrices
whose determinant test sits within a few ulps of its ``DET_TOL`` threshold.
Regenerate with ``python tests/test_objective_golden.py`` and review the diff
of ``golden/objective_values.json``.  The batched kernel of the search
objective is held to the one-matrix path with ``==`` on the same matrices.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hlbounds import (
    InvalidArgumentError,
    ReparamMatrix,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    elfving_variance_oracle,
    spread_variance_oracle,
)
from hlbounds.bounds import _sep_plus_values, paradigm_constants, sep_plus_value
from hlbounds.operators import nonsingular

GOLDEN = Path(__file__).parent / "golden" / "objective_values.json"

MODELS = {
    "fixed_atoms_3_cr": (lambda: build_fixed_atom_generators(3), "cr", elfving_variance_oracle),
    "two_sector_cr": (lambda: build_two_sector_generators(1.0, 0.5), "cr",
                      elfving_variance_oracle),
    "free_atoms_4_mm": (lambda: build_free_atom_generators(4), "mm", elfving_variance_oracle),
    "pauli3_mm": (lambda: build_pauli_generators("xyz"), "mm", spread_variance_oracle),
}

# Offsets, in ulps of the tuned entry, around the last accepted value.
OFFSETS = range(-3, 4)


def _random_matrices(p: int, seed: int):
    """10 matrices near the identity, as the searches start, then 10 with
    columns of unrelated scales (the objective is invariant to those)."""
    rng = np.random.default_rng(seed)
    for k in range(20):
        if k < 10:
            yield np.eye(p) + 0.3 * rng.standard_normal((p, p))
        else:
            yield rng.standard_normal((p, p)) * np.exp(rng.uniform(-3.0, 3.0, p))


def objective_values(name):
    build, paradigm, factory = MODELS[name]
    gens = build()
    oracle = factory(gens, paradigm)
    alpha, _ = paradigm_constants(paradigm)
    return [sep_plus_value(ReparamMatrix(m), oracle, alpha)
            for m in _random_matrices(gens.p, seed=list(MODELS).index(name))]


def _threshold_family():
    """Upper-triangular matrices with a free last diagonal entry t, their rows
    permuted and columns scaled: |det| is linear in t, so some t puts the
    determinant test at its threshold."""
    rng = np.random.default_rng(19)
    for case in range(40):
        p = 2 + case % 4
        u = np.triu(rng.uniform(-1.0, 1.0, (p, p)))
        np.fill_diagonal(u, rng.uniform(1.0, 2.0, p) * rng.choice([-1.0, 1.0], p))
        rows = rng.permutation(p) if case % 2 else np.arange(p)
        cols = rng.uniform(0.5, 4.0, p) if case % 3 else np.ones(p)
        yield u, rows, cols


def _with_entry(u, rows, cols, t):
    m = u.copy()
    m[-1, -1] = t
    return m[rows] * cols


def accepts(m) -> bool:
    try:
        ReparamMatrix(m)
    except InvalidArgumentError:
        return False
    return True


def _step(t, k):
    for _ in range(abs(k)):
        t = np.nextafter(t, np.inf if k > 0 else -np.inf)
    return float(t)


def threshold_cases():
    """For each family member, the smallest accepted t (by bisection) and the
    decisions at the ``OFFSETS`` around it."""
    cases = []
    for u, rows, cols in _threshold_family():
        lo, hi = 0.0, 1e-6
        while True:
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            if accepts(_with_entry(u, rows, cols, mid)):
                hi = mid
            else:
                lo = mid
        cases.append({"t": hi.hex(), "accept": [accepts(_with_entry(u, rows, cols, _step(hi, k)))
                                                for k in OFFSETS]})
    return cases


def capture():
    return {"sep_plus_value": {name: [v.hex() for v in objective_values(name)]
                               for name in MODELS},
            "reparam_threshold": threshold_cases()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(MODELS))
def test_sep_plus_value_is_bit_identical(golden, name):
    want = [float.fromhex(v) for v in golden["sep_plus_value"][name]]
    assert objective_values(name) == want


def test_singularity_decisions_at_the_threshold_are_unchanged(golden):
    cases = golden["reparam_threshold"]
    assert len(cases) == 40
    for (u, rows, cols), case in zip(_threshold_family(), cases):
        t = float.fromhex(case["t"])
        got = [accepts(_with_entry(u, rows, cols, _step(t, k))) for k in OFFSETS]
        assert got == case["accept"], case["t"]
    # the batch straddles the threshold: every case flips within its offsets
    assert all(not c["accept"][0] and c["accept"][-1] for c in cases)


def _threshold_matrices():
    """Each golden threshold case's matrices at its ``OFFSETS``, by size p."""
    by_p = {}
    for (u, rows, cols), case in zip(_threshold_family(), json.loads(GOLDEN.read_text())[
            "reparam_threshold"]):
        t = float.fromhex(case["t"])
        by_p.setdefault(len(u), []).extend(
            (_with_entry(u, rows, cols, _step(t, k)), want)
            for k, want in zip(OFFSETS, case["accept"]))
    return by_p


def _unscaled(p: int):
    return np.eye(p) + 0.3 * np.random.default_rng(p).standard_normal((p, p))


def _columns_scaled(a, first, last):
    m = a.copy()
    m[:, 0] *= first
    m[:, -1] *= last
    return m


def _edge_matrices(p: int):
    """A beyond the plain double range, with a non-finite entry, or rank-deficient."""
    a = _unscaled(p)
    # 2^+-400: the squares stay doubles, the norm product leaves 2^+-900 for p > 2;
    # 2^+-460 columns: their squares leave 2^+-900, the norm product stays inside
    out = [a * 2.0 ** 600, a * 2.0 ** -600, a * 2.0 ** 400, a * 2.0 ** -400,
           _columns_scaled(a, 2.0 ** 600, 2.0 ** -600),
           _columns_scaled(a, 2.0 ** 460, 2.0 ** -460)]
    for bad in (math.inf, -math.inf, math.nan):
        m = a.copy()
        m[-1, 0] = bad
        out.append(m)
    repeated, zero = a.copy(), a.copy()
    repeated[:, -1] = repeated[:, 0]
    zero[:, -1] = 0.0
    return out + [repeated, zero, np.outer(a[:, 0], a[0]), np.zeros((p, p))]


def _alone(m) -> bool:
    return bool(nonsingular(m[None])[0])


def test_batched_singularity_test_decides_as_one_matrix_at_a_time():
    for p, cases in _threshold_matrices().items():
        stack = np.array([m for m, _ in cases])
        want = [accept for _, accept in cases]
        assert nonsingular(stack).tolist() == want, p
        assert [_alone(m) for m in stack] == want, p
        edges = np.array(_edge_matrices(p))
        assert nonsingular(edges).tolist() == [accepts(m) for m in edges] == [
            True] * 6 + [False] * 7
        # a batch within the double range and one past it: the batch never
        # changes a decision
        for batch in (stack[[0, -1]], np.concatenate([stack, edges])):
            assert nonsingular(batch).tolist() == [_alone(m) for m in batch]


@pytest.mark.parametrize("name", list(MODELS))
def test_batched_objective_equals_the_one_matrix_path(golden, name):
    build, paradigm, factory = MODELS[name]
    gens = build()
    oracle = factory(gens, paradigm)
    alpha, _ = paradigm_constants(paradigm)
    random = list(_random_matrices(gens.p, seed=list(MODELS).index(name)))
    threshold = [m for m, _ in _threshold_matrices()[gens.p]]
    assert _sep_plus_values(np.array(random), oracle, alpha) == [
        float.fromhex(v) for v in golden["sep_plus_value"][name]]
    for stack in (random + _edge_matrices(gens.p), threshold):
        # 2^+-600 columns over- and underflow A^T A, and are rescaled, in both paths alike
        with np.errstate(over="ignore", invalid="ignore"):
            want = [sep_plus_value(ReparamMatrix(m), oracle, alpha) if accepts(m) else math.inf
                    for m in stack]
            assert _sep_plus_values(np.array(stack), oracle, alpha) == want
        assert sum(v < math.inf for v in want) > len(stack) // 2


@pytest.mark.parametrize("name", list(MODELS))
def test_rescaled_columns_score_as_the_unscaled_matrix(name):
    # 2^+-460 columns: squares past 2^+-900, so the rule rescales every
    # column of A, yet the value is the unscaled A's bit for bit
    build, paradigm, factory = MODELS[name]
    gens = build()
    oracle = factory(gens, paradigm)
    alpha, _ = paradigm_constants(paradigm)
    a = _unscaled(gens.p)
    assert _sep_plus_values(np.array([_columns_scaled(a, 2.0 ** 460, 2.0 ** -460)]), oracle,
                            alpha) == _sep_plus_values(a[None], oracle, alpha)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    sys.exit(0)
