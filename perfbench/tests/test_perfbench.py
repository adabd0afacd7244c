"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

The end-to-end tests start the benchmark as a subprocess from the
repository root and take about six minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from checks import check_output  # noqa: E402
from run import PROBE_REF_S, end_to_end  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORK_COUNTS, WORKLOADS, commands  # noqa: E402

with open(os.path.join(BENCH, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)["outputs"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


# ---------------------------------------------------------------------------
# checks, on recorded outputs


def test_every_reference_output_passes_its_own_checks():
    for key, text in REFERENCE.items():
        assert check_output(key.split(" "), text, REFERENCE) == [], key


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m[:3] for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_seeded_command_has_a_reference():
    for name in WORKLOADS:
        for seed in range(200):
            for argv in commands(name, seed):
                assert " ".join(argv) in REFERENCE


def _bounds_case(model_args, edit):
    argv = ["bounds", *model_args]
    rows = json.loads(REFERENCE[" ".join(argv)])
    edit(rows)
    return check_output(argv, json.dumps(rows), REFERENCE)


P3_CR = ["--model", "fixed-atoms", "--p", "3", "--paradigm", "cr"]


def _set_search(rows, value):
    next(r for r in rows if r["variant"] == "search")["constant"] = value


def test_search_row_may_go_down_but_not_below_its_lower_bound():
    assert _bounds_case(P3_CR, lambda rows: _set_search(rows, 5.0)) == []
    assert _bounds_case(P3_CR, lambda rows: _set_search(rows, 5.8))
    assert _bounds_case(P3_CR, lambda rows: _set_search(rows, 2.9))


def test_closed_forms_catch_a_wrong_constant():
    def bump_jnt(rows):
        next(r for r in rows if r["strategy"] == "jnt")["constant"] *= 1 + 1e-8

    problems = _bounds_case(["--model", "fixed-atoms", "--p", "4", "--paradigm", "mm"],
                            bump_jnt)
    assert any("closed form" in p for p in problems)


def test_phase_monte_carlo_must_sit_within_five_stderr():
    argv = commands("registry", 1)[3]
    out = json.loads(REFERENCE[" ".join(argv)])
    out["monte_carlo"]["mean"] = out["analytic"] + 6 * out["monte_carlo"]["stderr"]
    assert any("5 stderr" in p for p in check_output(argv, json.dumps(out), REFERENCE))


def test_simplex_diagnostics_follow_the_solver_contract():
    argv = commands("simplex", 1)[0]
    out = json.loads(REFERENCE[" ".join(argv)])
    out["iterations"] += 3
    assert check_output(argv, json.dumps(out), REFERENCE) == []
    out["residual"] = out["E"] * 1e-8
    assert check_output(argv, json.dumps(out), REFERENCE)


# ---------------------------------------------------------------------------
# host-speed normalisation, on synthetic records


def _passes(slowdown):
    """Two passes of two commands; every duration is multiplied by ``slowdown``."""
    passes = []
    for k in range(2):
        recs = []
        for j, (setup, compute) in enumerate(((0.6, 5.0), (0.7, 1.0 + k))):
            t0 = 100.0 * (2 * k + j)
            recs.append({"argv": [f"cmd{j}"], "t_spawn": t0,
                         "t_exit": t0 + slowdown * (setup + compute + 0.1),
                         "report": {"t_numpy": t0 + slowdown * 0.15,
                                    "t_ready": t0 + slowdown * setup,
                                    "t_done": t0 + slowdown * (setup + compute),
                                    "maxrss_kb": 1024 * 80}})
        passes.append(recs)
    return passes


def test_times_are_scaled_by_the_host_probe():
    steady, _ = end_to_end(_passes(1.0))
    slow, detail = end_to_end(_passes(1.3))
    assert abs(detail["probe_s"] - 1.3 * 0.15) < 1e-9
    assert abs(detail["raw_s"]["compute_s"] - 1.3 * 6.5) < 1e-9
    for name, value in steady.items():
        assert abs(slow[name] - value) < 1e-9 * value, name
    assert abs(steady["compute_s"] - 6.5 * PROBE_REF_S / 0.15) < 1e-9
    assert steady["peak_rss_mb"] == 80.0


# ---------------------------------------------------------------------------
# the benchmark end to end


def test_work_counts_repeat_exactly_across_traced_runs():
    for name in WORKLOADS:
        runs = [bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
                for _ in range(2)]
        for rc, result, proc in runs:
            assert rc == 0 and result["correct"], proc.stdout[-2000:]
            assert set(result["metrics"]) == {m[0] for m in PER_LAYER}
        first, second = (r[1]["metrics"] for r in runs)
        for metric in WORK_COUNTS:
            assert first[metric]["value"] == second[metric]["value"], (name, metric)
        assert first["bounds.lp.calls"]["value"] == 0
        assert first["trace.overhead_ratio"]["value"] > 0
        if name == "search":
            assert first["bounds.nm.nfev"]["value"] > 0
            assert first["bounds.oracle.calls"]["value"] > 0
        if name == "simplex":
            assert first["variational.cg.iterations"]["value"] > 0
            assert first["variational.simplex.unknowns"]["value"] > 0
            assert first["bounds.nm.runs"]["value"] == 0


def test_held_out_seed_passes_with_the_same_metric_names():
    for name in WORKLOADS:
        rc, result, proc = bench("--workload", name, "--seed", "90210", "--seconds", "1",
                                 "--trace", "0")
        assert rc == 0 and result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
        assert set(result["metrics"]) == {m[0] for m in END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_benchmark(dest):
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest / "BENCHMARK.json")


def test_wrong_reference_value_makes_the_run_fail(tmp_path):
    _copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    key = "variational airy"
    out = json.loads(reference["outputs"][key])
    out["constant"] *= 1 + 1e-6
    reference["outputs"][key] = json.dumps(out, indent=2) + "\n"
    path.write_text(json.dumps(reference))
    rc, result, proc = bench("--workload", "registry", "--seed", "1", "--seconds", "1",
                             cwd=tmp_path)
    assert rc != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    rc, result, proc = bench("--workload", "registry", "--seed", "1", "--seconds", "1",
                             cwd=tmp_path)
    assert rc != 0 and result is None
    assert proc.stdout == ""


def test_list_metrics_names_every_metric():
    rc, result, proc = bench("--list-metrics")
    assert rc == 0
    for name, *_ in END_TO_END + PER_LAYER:
        assert f" {name} " in proc.stdout
