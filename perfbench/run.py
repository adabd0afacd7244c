"""hlbounds benchmark: fresh-process CLI workloads with output checks.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list-metrics

Run from the repository root.  Each workload is a fixed list of ``hlbounds``
commands (see ``workloads.py``); one pass runs them one after another, each
in a fresh interpreter, closed loop: one child at a time, one BLAS thread
(``BLAS_THREAD_VARS``).  Passes repeat for ``--seconds``, and at least
``MIN_PASSES`` times so that every median has three samples.  Reported times
are scaled to a reference host speed (``PROBE_REF_S``).  Fresh processes are the point:
users start the tool once per command, and much of its cost is cold
(imports, cache fills).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics, collected by the wrappers in ``child.py``.  Every output
is checked (``checks.py``); a failed check makes ``correct`` false and the
exit code 1.  At the end of the run the raw per-command data goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``: timings, checks, the
environment and, for traced commands, every span with its self time
(duration minus the time its child spans cover), keyed by command id.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORK_COUNTS, WORKLOADS, commands  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 165.0  # stop starting passes past this; the run must end within 180 s
MIN_PASSES = 3  # untraced passes in a --trace 0 run, however long they take
# Host-speed normalisation.  The probe is each child's time from spawn until
# numpy is imported (child.py imports it first): the same work in every
# command and every commit.  The speed of this shared host drifts by 20-40%
# over minutes, and the run's median probe moves with it, so every reported
# time is scaled by PROBE_REF_S / (median probe of the run): seconds on a host
# whose probe takes PROBE_REF_S, the typical probe on the 2-vCPU VM measured
# in README.md.  Raw seconds are printed beside them.
PROBE_REF_S = 0.15

ENV_PROBE = r"""
import ctypes, json, os, platform, re, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": None}
with open("/proc/self/maps") as fh:
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
print(json.dumps(info))
"""


# One BLAS thread per child.  With the default (one per core), any other
# load on the host makes BLAS calls wait for a second core: a competing
# process made `variational simplex --p 2 --grid 160` take 8-11 s instead of
# 0.2 s.  The environment line of every run records the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(root, env, argv, trace, timeout):
    """Run one command; returns a record with timings, output and any report."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, "1" if trace else "0", *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    t_exit = time.monotonic()
    report = None
    lines = err.splitlines()
    if lines and lines[-1].startswith("PERFBENCH "):
        report = json.loads(lines[-1][len("PERFBENCH "):])
        err = "\n".join(lines[:-1])
    return {"argv": argv, "trace": trace, "rc": proc.returncode, "timed_out": timed_out,
            "t_spawn": t_spawn, "t_exit": t_exit, "stdout": out, "stderr": err,
            "report": report}


def judge(rec, root, reference):
    """Fill ``rec['problems']``: nonzero exit, timeout, wrong module or wrong output."""
    problems = []
    if rec["timed_out"]:
        problems.append("timed out")
    elif rec["rc"] != 0:
        problems.append(f"exit code {rec['rc']}: {rec['stderr'][-500:]}")
    elif rec["report"] is None:
        problems.append("no timing report from the child")
    else:
        expected = os.path.join(root, "src", "hlbounds", "cli.py")
        if rec["report"]["hlbounds_file"] != expected:
            problems.append(f"imported {rec['report']['hlbounds_file']}, not {expected}")
        problems += check_output(rec["argv"], rec["stdout"], reference)
    rec["problems"] = problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes):
    """passes: list of lists of untraced records, one list per pass.

    Returns the metrics, in seconds at the reference host speed, and the
    detail of the run, raw seconds included.
    """
    per_cmd_setup, per_cmd_wall, probes = [], {}, []
    compute, wall, rss = [], [], []
    for recs in passes:
        rep = [r for r in recs if r["report"] is not None]
        per_cmd_setup += [r["report"]["t_ready"] - r["t_spawn"] for r in rep]
        probes += [r["report"]["t_numpy"] - r["t_spawn"] for r in rep]
        for r in recs:
            per_cmd_wall.setdefault(" ".join(r["argv"]), []).append(r["t_exit"] - r["t_spawn"])
        compute.append(sum(r["report"]["t_done"] - r["report"]["t_ready"] for r in rep))
        wall.append(sum(r["t_exit"] - r["t_spawn"] for r in recs))
        rss.append(max((r["report"]["maxrss_kb"] for r in rep), default=0) / 1024.0)
    # The slowest command's typical wait: each command's median wall time
    # over the passes, then the largest of these.
    tail_cmd, tail_walls = max(per_cmd_wall.items(), key=lambda kv: statistics.median(kv[1]))
    raw = {
        "setup_s": statistics.median(per_cmd_setup),
        "compute_s": statistics.median(compute),
        "wall_s": statistics.median(wall),
        "cmd_tail_s": statistics.median(tail_walls),
    }
    probe_s = statistics.median(probes)
    metrics = {name: value * PROBE_REF_S / probe_s for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics, {"cmd_tail_command": tail_cmd, "cmd_tail_samples": len(tail_walls),
                     "probe_s": probe_s, "probe_samples": len(probes), "raw_s": raw,
                     "compute_s_per_pass": compute, "wall_s_per_pass": wall}


def _self_times(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def layer_metrics(recs):
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = {name: 0.0 for name, _, _, _ in PER_LAYER}
    imports = {"numpy_s": [], "scipy_s": [], "hlbounds_s": []}
    for rec in recs:
        rep = rec["report"]
        if rep is None or "spans" not in rep:
            continue
        for k in imports:
            imports[k].append(rep["import"][k])
        spans = rep["spans"]
        self_s = _self_times(spans)
        names = [s[0] for s in spans]
        for idx, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            parent_name = names[parent] if parent is not None else None
            if name == "scipy.minimize":
                if parent_name == "bounds.sep_plus_optimize":
                    m["bounds.nm.runs"] += 1
                    m["bounds.nm.nfev"] += attrs["nfev"]
                    m["bounds.nm.unconverged"] += 0 if attrs["success"] else 1
                elif parent_name == "operators.optimize_orthogonal_bound":
                    m["operators.optimize_orthogonal_bound.nfev"] += attrs["nfev"]
                continue
            if name == "scipy.cg":
                m["variational.cg.calls"] += 1
                m["variational.cg.iterations"] += attrs["iterations"]
                continue
            if f"{name}.s" in m:
                m[f"{name}.s"] += dur
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] += self_s[idx]
            if name == "qfi.qfi_pure":
                m["qfi.qfi_pure.calls"] += 1
            if name == "variational.simplex":
                m["variational.simplex.unknowns"] += attrs["unknowns"]
                m["variational.simplex.outer_iterations"] += attrs["outer_iterations"]
                first_cg = next((s[1] for s in spans[idx + 1:]
                                 if s[0] == "scipy.cg" and s[3] == idx), end)
                m["variational.simplex.setup_s"] += first_cg - start
                m["variational.simplex.solve_s"] += end - first_cg
        hot = rep["hot"]
        for key, metric in (("bounds.sep_plus_value", "bounds.sep_plus_value"),
                            ("bounds.oracle", "bounds.oracle"),
                            ("special.bessel_j", "special.bessel_j")):
            calls, secs = hot.get(key, (0, 0.0))
            m[f"{metric}.calls"] += calls
            m[f"{metric}.s"] += secs
        for key, metric in (("bounds.lp", "bounds.lp.calls"),
                            ("operators.reparam", "operators.reparam.calls"),
                            ("special.airy_ai_with_prime", "special.airy_ai_with_prime.calls"),
                            ("states.evolve", "states.evolve.calls")):
            m[metric] += hot.get(key, (0, 0.0))[0]
    if m["bounds.oracle.calls"]:
        m["bounds.oracle.us_per_call"] = 1e6 * m["bounds.oracle.s"] / m["bounds.oracle.calls"]
    # With no Nelder-Mead runs, none was left unconverged.
    m["bounds.nm.converged_ratio"] = (1.0 - m["bounds.nm.unconverged"] / m["bounds.nm.runs"]
                                      if m["bounds.nm.runs"] else 1.0)
    for k, values in imports.items():
        if values:
            m[f"import.{k}"] = statistics.median(values)
    for name, unit, _, _ in PER_LAYER:
        if unit == "count":
            m[name] = int(m[name])
    return m


def per_layer(traced_passes, untraced_compute, traced_compute):
    by_pass = [layer_metrics(recs) for recs in traced_passes]
    counts_repeat = all(bp[k] == by_pass[0][k] for bp in by_pass for k in WORK_COUNTS)
    m = {}
    for name, unit, _, _ in PER_LAYER:
        values = [bp[name] for bp in by_pass]
        m[name] = values[0] if unit == "count" else statistics.median(values)
    m["trace.overhead_ratio"] = statistics.median(traced_compute) / statistics.median(
        untraced_compute)
    return m, counts_repeat


# ---------------------------------------------------------------------------


def list_metrics():
    print("end-to-end metrics (every workload; --trace 0):")
    for name, unit, better, where, what in END_TO_END:
        print(f"  {name:40s} {unit:6s} {better:7s} {where:28s} {what}")
    print("per-layer metrics (--trace 1; the workload each should move):")
    for name, unit, better, where in PER_LAYER:
        print(f"  {name:40s} {unit:6s} {better:7s} {where}")
    print("workloads:")
    for name, why in WORKLOADS.items():
        print(f"  {name:10s} {why}")


def probe_environment(root, env):
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": proc.stderr[-300:]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and workload, then exit")
    args = parser.parse_args()
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hlbounds", "cli.py")):
        print("error: run from the repository root (src/hlbounds/cli.py not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["outputs"]

    t_begin = time.monotonic()
    env = child_env(root)
    argvs = commands(args.workload, args.seed)
    # Untimed warm-up: byte-compiles src/ once and fills the page cache,
    # which users pay only on their first run.
    run_child(root, env, ["variational", "ball", "--p", "1"], False, 120)

    # Passes run until the next one would end past --seconds, but at least
    # MIN_PASSES of them (a traced run: one untraced and one traced pass),
    # unless the next one would end past DEADLINE_S.
    t_measure = time.monotonic()
    min_passes = 2 if args.trace else MIN_PASSES
    untraced, traced, all_recs = [], [], []
    for k in itertools.count():
        now = time.monotonic()
        next_end = now + (now - t_measure) / k if k else now
        enough = k >= min_passes and next_end - t_measure > args.seconds
        late = k >= 1 + args.trace and next_end - t_begin > DEADLINE_S
        if enough or late:
            break
        trace = bool(args.trace and k % 2 == 1)
        recs = []
        for j, argv in enumerate(argvs):
            remaining = DEADLINE_S - (time.monotonic() - t_begin)
            rec = run_child(root, env, argv, trace, max(5.0, remaining))
            rec["id"] = f"{k}.{j}"  # pass.command; shared by the command's spans
            judge(rec, root, reference)
            recs.append(rec)
        all_recs += recs
        (traced if trace else untraced).append(recs)

    failed = [r for r in all_recs if r["problems"]]
    e2e, detail = end_to_end(untraced)
    environment = probe_environment(root, env)

    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)} untraced"
          f" + {len(traced)} traced, {len(argvs)} commands each")
    for r in failed:
        print(f"FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    print(f"fail_ratio = {len(failed)}/{len(all_recs)} = {len(failed) / len(all_recs):.4f}")
    print(f"cmd_tail_s is the median of {detail['cmd_tail_samples']} wall times of the "
          f"slowest command, {detail['cmd_tail_command']}")
    print("environment " + json.dumps(environment))
    print(f"host probe (spawn until numpy imported): median {detail['probe_s']:.4f} s of "
          f"{detail['probe_samples']}; times below are scaled by {PROBE_REF_S} / that")
    for name, value in e2e.items():
        raw = detail["raw_s"].get(name)
        print(f"  {name:40s} {value:.6g}" + (f"   (raw {raw:.6g} s)" if raw is not None else ""))

    if args.trace:
        untraced_compute = detail["compute_s_per_pass"]
        traced_compute = [sum(r["report"]["t_done"] - r["report"]["t_ready"] for r in recs
                              if r["report"]) for recs in traced]
        metrics, counts_repeat = per_layer(traced, untraced_compute, traced_compute)
        metrics["host.probe_s"] = detail["probe_s"]
        if not counts_repeat:
            print("WARNING: work counts differ between traced passes")
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g}")
    else:
        metrics = e2e
        units = {name: unit for name, unit, _, _, _ in END_TO_END}

    for rec in all_recs:
        if rec["report"] and "spans" in rec["report"]:
            rec["report"]["self_s"] = _self_times(rec["report"]["spans"])
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "environment": environment, "detail": detail, "metrics": metrics,
           "commands": [{k: v for k, v in r.items() if k != "stdout"} for r in all_recs]}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)

    result = {
        "correct": not failed,
        "attempted": len(all_recs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
