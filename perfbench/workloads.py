"""Workload definitions and the metric catalogue of the hlbounds benchmark.

A workload is a fixed list of ``hlbounds`` CLI invocations.  The workload
seed draws only the inputs that vary (the two-sector strengths, the
figure-ratio alpha, the phase-state size and its Monte-Carlo seed) from
finite menus, so every command the benchmark can issue has a reference
output recorded in ``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import random

# Seeded input menus.  Every entry is covered by reference.json.  The
# two-sector pairs all cost the SEP+ search 13.7k-16.8k evaluations at the
# baseline, so the seed changes the inputs but not the amount of work; other
# pairs range from 4k ((1.0, 0.2)) to 28k ((1.0, 0.7)).
TWO_SECTOR_MENU = (
    (1.0, 0.5), (1.0, 0.3), (1.0, 0.4), (1.0, 0.6), (2.0, 1.0), (2.0, 0.5),
)
FIGURE_RATIO_ALPHA_MENU = (0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
PHASE_N_MENU = (12, 16, 20, 24, 28, 32, 40, 48)
PHASE_MC_SEED_MENU = (1, 7, 42, 2024)


# Workload name -> why it is in the benchmark.
WORKLOADS = {
    "search": "SEP+ Nelder-Mead search, Elfving oracle and orthogonal-bound search "
              "(bounds, operators); variational hardly runs",
    "simplex": "cross-polytope Dirichlet solver, matvec/CG path at p=2,3,4 "
               "(variational); bounds untouched",
    "registry": "one-shot table, figure, airy, ball, phase, qfi and pauli bounds commands "
                "where interpreter and import set-up dominate",
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of ``workload`` for workload seed ``seed``."""
    rng = random.Random(seed)
    if workload == "search":
        alpha, beta = rng.choice(TWO_SECTOR_MENU)
        return [
            ["bounds", "--model", "fixed-atoms", "--p", "4", "--paradigm", "mm"],
            ["bounds", "--model", "free-atoms", "--p", "4", "--paradigm", "mm"],
            ["bounds", "--model", "fixed-atoms", "--p", "3", "--paradigm", "cr"],
            ["bounds", "--model", "two-sector", "--paradigm", "cr",
             "--alpha", repr(alpha), "--beta", repr(beta)],
        ]
    if workload == "simplex":
        return [
            ["variational", "simplex", "--p", str(p), "--grid", str(m)]
            for p, m in ((2, 160), (3, 60), (3, 80), (4, 30))
        ]
    if workload == "registry":
        ratio_alpha = rng.choice(FIGURE_RATIO_ALPHA_MENU)
        phase_n = rng.choice(PHASE_N_MENU)
        mc_seed = rng.choice(PHASE_MC_SEED_MENU)
        return [
            ["table"],
            ["figure", "ball", "--p-max", "40"],
            ["figure", "ratio", "--beta-steps", "50", "--alpha", repr(ratio_alpha)],
            ["variational", "phase", "--family", "sin", "--mc-samples", "1000000",
             "--N", str(phase_n), "--seed", str(mc_seed)],
            ["variational", "airy"],
            ["variational", "ball", "--p", "3"],
            ["qfi", "--model", "fixed-atoms", "--p", "8"],
            ["qfi", "--model", "pauli3", "--n", "4"],
            ["bounds", "--model", "pauli3", "--paradigm", "mm"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_menu_commands() -> list[list[str]]:
    """Every distinct argv any seed can produce, for building reference.json."""
    seen, out = set(), []

    def add(argv):
        key = " ".join(argv)
        if key not in seen:
            seen.add(key)
            out.append(argv)

    for name in WORKLOADS:
        for argv in commands(name, 0):
            add(argv)
    for alpha, beta in TWO_SECTOR_MENU:
        add(["bounds", "--model", "two-sector", "--paradigm", "cr",
             "--alpha", repr(alpha), "--beta", repr(beta)])
    for a in FIGURE_RATIO_ALPHA_MENU:
        add(["figure", "ratio", "--beta-steps", "50", "--alpha", repr(a)])
    for n in PHASE_N_MENU:
        for s in PHASE_MC_SEED_MENU:
            add(["variational", "phase", "--family", "sin", "--mc-samples", "1000000",
                 "--N", str(n), "--seed", str(s)])
    return out


# ---------------------------------------------------------------------------
# metric catalogue: (name, unit, better, where it should move)

ALL = "search, simplex, registry"

# Every time is in seconds at the reference host speed (run.py, PROBE_REF_S).
END_TO_END = (
    ("setup_s", "s", "lower", ALL, "median per-command time from spawn until hlbounds.cli is imported"),
    ("compute_s", "s", "lower", ALL, "time inside cli.main summed over one pass; median over passes"),
    ("wall_s", "s", "lower", ALL, "spawn-to-exit time summed over one pass; median over passes"),
    ("cmd_tail_s", "s", "lower", ALL,
     "wall time of the slowest command: each command's median over passes, the largest"),
    ("peak_rss_mb", "MB", "lower", ALL, "largest child ru_maxrss in a pass; median over passes"),
)

PER_LAYER = (
    ("bounds.sep_plus_optimize.s", "s", "lower", "search"),
    ("bounds.sep_plus_optimize.self_s", "s", "lower", "search"),
    ("bounds.nm.runs", "count", "lower", "search"),
    ("bounds.nm.nfev", "count", "lower", "search"),
    ("bounds.nm.unconverged", "count", "lower", "search"),
    ("bounds.nm.converged_ratio", "ratio", "higher", "search"),
    ("bounds.sep_plus_value.calls", "count", "lower", "search"),
    ("bounds.sep_plus_value.s", "s", "lower", "search"),
    ("bounds.oracle.calls", "count", "lower", "search"),
    ("bounds.oracle.s", "s", "lower", "search"),
    ("bounds.oracle.us_per_call", "us", "lower", "search"),
    ("bounds.oracle_build.s", "s", "lower", "search"),
    ("bounds.lp.calls", "count", "lower", "search"),
    ("bounds.orthogonal_restricted_sep_plus.s", "s", "lower", "registry, search"),
    ("operators.optimize_orthogonal_bound.s", "s", "lower", "search"),
    ("operators.optimize_orthogonal_bound.nfev", "count", "lower", "search"),
    ("operators.max_spread_over_sphere.s", "s", "lower", "search"),
    ("operators.reparam.calls", "count", "lower", "search"),
    ("variational.simplex.s", "s", "lower", "simplex"),
    ("variational.simplex.setup_s", "s", "lower", "simplex"),
    ("variational.simplex.solve_s", "s", "lower", "simplex"),
    ("variational.simplex.unknowns", "count", "lower", "simplex"),
    ("variational.simplex.outer_iterations", "count", "lower", "simplex"),
    ("variational.cg.calls", "count", "lower", "simplex"),
    ("variational.cg.iterations", "count", "lower", "simplex"),
    ("variational.airy_lower_bound.s", "s", "lower", "registry"),
    ("variational.ball_upper_bound.s", "s", "lower", "registry"),
    ("variational.phase_model.s", "s", "lower", "registry"),
    ("variational.phase_mc.s", "s", "lower", "registry"),
    ("special.bessel_j.calls", "count", "lower", "registry"),
    ("special.bessel_j.s", "s", "lower", "registry"),
    ("special.airy_ai_with_prime.calls", "count", "lower", "registry"),
    ("catalog.table_one.s", "s", "lower", "registry"),
    ("catalog.figure_ball_data.s", "s", "lower", "registry"),
    ("catalog.figure_ratio_data.s", "s", "lower", "registry"),
    ("qfi.qfi_pure.calls", "count", "lower", "registry"),
    ("qfi.qfi_pure.s", "s", "lower", "registry"),
    ("qfi.saturability.s", "s", "lower", "registry"),
    ("states.evolve.calls", "count", "lower", "registry"),
    ("import.numpy_s", "s", "lower", ALL),
    ("import.scipy_s", "s", "lower", ALL),
    ("import.hlbounds_s", "s", "lower", ALL),
    ("cli.main.s", "s", "lower", ALL),
    ("cli.main.self_s", "s", "lower", ALL),
    ("trace.overhead_ratio", "ratio", "lower", ALL),
    ("host.probe_s", "s", "lower", ALL),
)

# Per-layer counts that must repeat exactly between runs on one seed.
WORK_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER if unit == "count")
