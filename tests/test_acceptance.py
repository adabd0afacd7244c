"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np
from scipy import special as sp

import hlbounds as hl
from hlbounds.cli import main as cli_main

PI2 = math.pi ** 2


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_noon_qfi():
    t0 = time.perf_counter()
    gens = hl.build_fixed_atom_generators(1)
    psi = hl.uniform_state(2)
    worst = 0.0
    for n in range(1, 11):
        f = hl.qfi_pure(gens, np.zeros(1), psi, n)
        worst = max(worst, abs(f.entries[0, 0] - n * n))
    elapsed = time.perf_counter() - t0
    _report(1, "n00n QFI = n^2", worst <= 1e-9 and elapsed < 1.0,
            f"max |F - n^2| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sin_state_cost():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 501):
        cost = hl.phase_cost_analytic(hl.sin_coefficients(n))
        worst = max(worst, abs(cost - 2 * (1 - math.cos(math.pi / (n + 2)))))
    # Asymptotic-constant clause: the cost is exactly 2(1-cos(pi/(N+2))),
    # so the pi^2 constant emerges at the (N+2)^2 normalization; N^2 * cost
    # at N = 200 carries a systematic (N/(N+2))^2 = 2.0% offset and is
    # checked against that exact bias.
    cost200 = hl.phase_cost_analytic(hl.sin_coefficients(200))
    asym = (200 + 2) ** 2 * cost200
    n2_form = 200 ** 2 * cost200
    ok_asym = abs(asym - PI2) / PI2 < 1e-3
    ok_n2 = abs(n2_form - PI2 * (200 / 202) ** 2) / PI2 < 1e-4
    elapsed = time.perf_counter() - t0
    _report(2, "sine-probe cost", worst <= 1e-12 and ok_asym and ok_n2 and elapsed < 1.0,
            f"max closed-form dev = {worst:.1e}, (N+2)^2 cost = {asym:.6f}, {elapsed:.2f}s")


def test_criterion_03_monte_carlo_concordance():
    t0 = time.perf_counter()
    coeffs = hl.sin_coefficients(20)
    model = hl.PhaseMeasurementModel(coeffs)
    mean, stderr = hl.phase_cost_monte_carlo(model, 100_000, seed=7)
    exact = hl.phase_cost_analytic(coeffs)
    repeat = hl.phase_cost_monte_carlo(model, 100_000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = abs(mean - exact) <= 3 * stderr and repeat == (mean, stderr) and elapsed < 5.0
    _report(3, "Monte-Carlo concordance", ok,
            f"|mean-exact|/stderr = {abs(mean - exact) / stderr:.2f}, {elapsed:.2f}s")


def test_criterion_04_two_sector_reproduction():
    t0 = time.perf_counter()
    alpha, beta = 1.0, 0.5
    expected = 2 / (alpha - beta) ** 2 + 2 / (alpha + beta) ** 2
    gens = hl.build_two_sector_generators(alpha, beta)
    f = hl.qfi_pure(gens, np.zeros(2), hl.uniform_state(4), 1)
    trace = hl.trace_inverse(f)
    ok_trace = abs(trace - expected) <= 1e-9

    _, est = hl.sep_plus_optimize(gens, "cr")
    ok_search = abs(est.constant - expected) <= 1e-6

    ortho = hl.orthogonal_restricted_sep_plus((alpha, beta), 180)
    ok_ratio = ortho / expected > 1.01

    ratios = []
    for b in (0.02, 0.05, 0.5, 0.95, 0.99):
        g = 2 / (1 - b) ** 2 + 2 / (1 + b) ** 2
        ratios.append(hl.orthogonal_restricted_sep_plus((1.0, b), 120) / g)
    ok_shape = (
        ratios[0] < ratios[1] < ratios[2]
        and ratios[2] > ratios[3] > ratios[4]
        and all(r >= 1 - 1e-9 for r in ratios)
    )
    elapsed = time.perf_counter() - t0
    ok = ok_trace and ok_search and ok_ratio and ok_shape and elapsed < 10.0
    _report(4, "paired-sector reproduction", ok,
            f"trF^-1 = {trace:.9f}, search = {est.constant:.9f}, "
            f"ortho/general = {ortho / expected:.3f}, {elapsed:.2f}s")


def test_criterion_05_spread_balancing_spreads():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2, 4, 8):
        r = int(math.log2(p))
        o = hl.walsh_hadamard(r)
        fixed = hl.rotated_spreads(hl.build_fixed_atom_generators(p), o)
        free = hl.rotated_spreads(hl.build_free_atom_generators(p), o)
        worst = max(worst, float(np.max(np.abs(fixed - math.sqrt(p)))))
        worst = max(worst, float(np.max(np.abs(free - 1 / math.sqrt(p)))))
    elapsed = time.perf_counter() - t0
    _report(5, "balanced-transform spreads", worst <= 1e-10 and elapsed < 5.0,
            f"max deviation = {worst:.1e}, {elapsed:.2f}s")


def test_criterion_06_free_atom_joint_qfi():
    t0 = time.perf_counter()
    worst_f = worst_t = 0.0
    n = 3
    for p in range(1, 7):
        gens = hl.build_free_atom_generators(p)
        f = hl.qfi_pure(gens, np.zeros(p), hl.superposed_noon_state(p, n), n)
        worst_f = max(worst_f, float(np.max(np.abs(f.entries - (n * n / p) * np.eye(p)))))
        worst_t = max(worst_t, abs(hl.trace_inverse(f) - p * p / n ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst_f <= 1e-9 and worst_t <= 1e-9 and elapsed < 5.0
    _report(6, "free-atom joint QFI", ok,
            f"max |F - (n^2/p)I| = {worst_f:.1e}, max trace dev = {worst_t:.1e}, {elapsed:.2f}s")


def test_criterion_07_simplex_spectrum():
    t0 = time.perf_counter()
    e1 = hl.simplex_ground_energy(1, 200).E
    e1f = hl.simplex_ground_energy(1, 400).E
    richardson = (4 * e1f - e1) / 3
    ok_p1 = abs(richardson - PI2) / PI2 < 5e-4

    spec2 = hl.simplex_ground_energy(2, 160)
    ok_p2 = abs(spec2.E - 4 * PI2) / (4 * PI2) < 1e-2

    spec3 = hl.simplex_ground_energy(3, 40)
    airy_c = hl.airy_lower_bound().constant
    ok_p3 = (
        spec3.residual <= 1e-8 * spec3.E
        and airy_c <= spec3.E / 27 <= hl.ball_upper_bound(3) / 27
    )
    elapsed = time.perf_counter() - t0
    ok = ok_p1 and ok_p2 and ok_p3 and elapsed < 120.0
    _report(7, "simplex spectrum", ok,
            f"p1 Richardson dev = {abs(richardson - PI2) / PI2:.1e}, "
            f"p2 dev = {abs(spec2.E - 4 * PI2) / (4 * PI2):.1e}, "
            f"p3 E/27 = {spec3.E / 27:.3f}, {elapsed:.1f}s")


def test_criterion_08_airy_bound():
    t0 = time.perf_counter()
    res = hl.airy_lower_bound()
    elapsed = time.perf_counter() - t0
    ok = (
        0.62 <= res.constant <= 0.64
        and abs(res.a_prime_zero - (-1.019)) <= 1e-3
        and elapsed < 5.0
    )
    _report(8, "Airy bound", ok,
            f"constant = {res.constant:.6f}, zero = {res.a_prime_zero:.6f}, {elapsed:.2f}s")


def test_criterion_09_bessel_ball():
    t0 = time.perf_counter()
    e1 = hl.ball_upper_bound(1)
    ok_p1 = abs(e1 - PI2) <= 1e-8
    from hlbounds.special import bessel_j_first_zero

    j01 = bessel_j_first_zero(0.0)
    ok_j0 = abs(j01 - 2.404826) <= 1e-6
    # Large-p normalization clause: j_{p/2-1,1} = p/2 + 1.8558 (p/2)^{1/3}
    # + ..., so E(p)/p^3 = (2 j / p)^2 approaches 1 only at rate p^(-2/3):
    # E(40)/40^3 = 1.4809, and the value first enters the 15% window at
    # p = 226 (1.1496).  The window is applied at p = 400 (1.1026), where it
    # holds with margin, and both values are checked against scipy's zeros
    # so that a wrong Bessel zero cannot pass the window.
    ratio40 = hl.ball_upper_bound(40) / 40 ** 3
    exact40 = (2 * sp.jn_zeros(19, 1)[0] / 40) ** 2
    ok_p40 = abs(ratio40 - exact40) <= 1e-9 * exact40
    ratio400 = hl.ball_upper_bound(400) / 400 ** 3
    exact400 = (2 * sp.jn_zeros(199, 1)[0] / 400) ** 2
    ok_p400 = abs(ratio400 - exact400) <= 1e-9 * exact400 and abs(ratio400 - 1.0) < 0.15
    elapsed = time.perf_counter() - t0
    ok = ok_p1 and ok_j0 and ok_p40 and ok_p400 and elapsed < 5.0
    _report(9, "Bessel ball", ok,
            f"E(1) dev = {abs(e1 - PI2):.1e}, j01 dev = {abs(j01 - 2.404826):.1e}, "
            f"E(40)/40^3 = {ratio40:.4f} (oracle {exact40:.4f}), "
            f"E(400)/400^3 = {ratio400:.4f} (oracle {exact400:.4f}, gate: within 0.15 of 1), "
            f"{elapsed:.2f}s")


def test_criterion_10_ordering_invariants():
    t0 = time.perf_counter()
    problems = []
    for record in hl.table_one():
        for p in (4, 8):
            problems.extend(hl.ordering_violations(record, p, n=100))
    elapsed = time.perf_counter() - t0
    _report(10, "ordering invariants", not problems and elapsed < 1.0,
            f"{len(problems)} violations, {elapsed:.2f}s")


def test_criterion_11_allocation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 4))
        c = rng.uniform(0.1, 10.0, size=p)
        for alpha in (1, 2):
            plan = hl.allocate(c, alpha)
            brute = _simplex_grid_minimum(c, alpha)
            worst = max(worst, abs(plan.total_constant - brute) / brute)
    elapsed = time.perf_counter() - t0
    _report(11, "allocation oracle", worst <= 1e-6 and elapsed < 10.0,
            f"max relative deviation = {worst:.1e}, {elapsed:.2f}s")


def _simplex_grid_minimum(c, alpha, rounds=6, k=33):
    c = np.asarray(c, dtype=float)
    p = c.size
    center = np.full(p, 1.0 / p)
    width = 1.0
    best = math.inf
    for _ in range(rounds):
        axes = [np.linspace(max(center[i] - width, 1e-9),
                            min(center[i] + width, 1.0), k) for i in range(p - 1)]
        grids = np.meshgrid(*axes, indexing="ij")
        last = 1.0 - sum(grids)
        ok = last > 1e-9
        total = np.where(ok, c[p - 1] / np.maximum(last, 1e-12) ** alpha, math.inf)
        for i in range(p - 1):
            total = total + c[i] / grids[i] ** alpha
        idx = np.unravel_index(np.argmin(total), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            center = np.array([axes[i][idx[i]] for i in range(p - 1)] + [0.0])
            center[p - 1] = 1.0 - center[:-1].sum()
        width = 2.5 * width / (k - 1)
    return best


def test_criterion_12_table_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "table.json"
    assert cli_main(["table", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    index = {}
    for r in rows:
        index[(r["model"], r["paradigm"], r["strategy"], r["variant"])] = r

    def has(model, paradigm, strategy, variant, coeff, p_exp, status=None, tol=1e-9):
        row = index.get((model, paradigm, strategy, variant))
        if row is None:
            return False
        if abs(row["coefficient"] - coeff) > tol * max(1.0, abs(coeff)):
            return False
        if row["p_exponent"] != p_exp:
            return False
        if status and row["status"] != status:
            return False
        return True

    checks = [
        # spread-balanced separate strategy and product-probe joint strategy
        has("fixed_atoms", "cr", "sep_plus", "", 1.0, 1),
        has("fixed_atoms", "mm", "sep_plus", "", PI2, 2),
        has("fixed_atoms", "cr", "jnt", "", 1.0, 1),
        has("fixed_atoms", "mm", "jnt", "", PI2, 1),
        has("fixed_atoms", "cr", "sep", "", 1.0, 2),
        has("fixed_atoms", "mm", "sep", "", PI2, 3),
        # freely placed atoms
        has("free_atoms", "cr", "sep", "", 1.0, 2),
        has("free_atoms", "cr", "jnt", "", 1.0, 2),
        has("free_atoms", "mm", "sep", "", PI2, 3),
        has("free_atoms", "mm", "jnt", "lower", 0.63, 3, "lower_bound", tol=0.02),
        has("free_atoms", "mm", "jnt", "upper", 1.0, 3, "upper_bound"),
        # multiarm interferometer reference rows
        has("interferometer_p_arms", "cr", "sep", "", 1.0, 2),
        has("interferometer_p_arms", "cr", "jnt", "", 0.25, 2, "cited"),
        has("interferometer_p_arms", "mm", "sep", "", PI2, 3),
        has("interferometer_p_arms", "mm", "jnt", "lower", 1.89, 3, "cited"),
        has("interferometer_p_arms", "mm", "jnt", "upper", 2.0, 3, "cited"),
        # covariant field-sensing optima
        has("pauli3", "mm", "jnt", "", 4 * PI2, 0, "cited"),
        has("pauli2", "mm", "jnt", "", 4 * 2.404825557695773 ** 2, 0, "cited", tol=1e-6),
        # three- and two-component repetition-paradigm displays
        has("pauli3", "cr", "sep", "", 9.0, 0),
        has("pauli3", "cr", "jnt", "parallel", 9.0, 0, "cited"),
        has("pauli3", "cr", "jnt", "adaptive", 3.0, 0, "cited"),
        has("pauli3", "mm", "sep", "", 27 * PI2, 0),
        has("pauli2", "cr", "sep", "", 4.0, 0),
        has("pauli2", "cr", "jnt", "parallel", 4.0, 0, "cited"),
        has("pauli2", "cr", "jnt", "adaptive", 2.0, 0, "cited"),
        has("pauli2", "mm", "sep", "", 8 * PI2, 0),
    ]
    finite_n_ok = (
        index[("pauli3", "cr", "jnt", "parallel")]["scaling"] == "1/(k n (n+2))"
        and index[("pauli2", "cr", "jnt", "parallel")]["scaling"] == "1/(k n (n+2))"
    )
    computed_ok = all(
        index[key]["provenance"].startswith("computed")
        for key in (
            ("fixed_atoms", "mm", "jnt", ""),
            ("free_atoms", "cr", "jnt", ""),
            ("free_atoms", "mm", "jnt", "lower"),
            ("pauli3", "cr", "sep", ""),
        )
    )
    elapsed = time.perf_counter() - t0
    ok = all(checks) and finite_n_ok and computed_ok and elapsed < 5.0
    failed = [i for i, c in enumerate(checks) if not c]
    _report(12, "table reproduction", ok,
            f"{sum(checks)}/{len(checks)} constants present"
            f"{', missing idx ' + str(failed) if failed else ''}, {elapsed:.2f}s")
