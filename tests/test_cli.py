import argparse
import ast
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hlbounds
from hlbounds import get_model
from hlbounds.cli import build_parser, main

PI2 = math.pi ** 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_qfi_two_sector(capsys):
    data = run_json(capsys, "qfi", "--model", "two-sector", "--alpha", "1", "--beta", "0.5")
    assert data["trace_inverse"] == pytest.approx(80.0 / 9.0, abs=1e-9)
    assert data["saturable"] is True
    assert data["F"][0][0] == pytest.approx(0.625)


def test_qfi_fixed_atom_noon(capsys):
    data = run_json(
        capsys, "qfi", "--model", "fixed-atoms", "--p", "1", "--state", "noon", "--n", "4"
    )
    assert data["F"][0][0] == pytest.approx(16.0, abs=1e-9)


def test_qfi_free_atoms_superposed(capsys):
    data = run_json(
        capsys, "qfi", "--model", "free-atoms", "--p", "2",
        "--state", "superposed-noon", "--n", "5",
    )
    assert data["F"][0][0] == pytest.approx(12.5, abs=1e-9)
    assert data["F"][0][1] == pytest.approx(0.0, abs=1e-9)


def test_bounds_fixed_atoms_mm(capsys):
    rows = run_json(capsys, "bounds", "--model", "fixed-atoms", "--p", "4", "--paradigm", "mm")
    by = {(r["strategy"], r["variant"]): r["constant"] for r in rows}
    assert by[("jnt", "rotation_bound")] == pytest.approx(4 * PI2, rel=1e-9)
    assert by[("sep_plus", "lower")] == pytest.approx(16 * PI2, rel=1e-9)
    assert by[("sep", "")] == pytest.approx(64 * PI2, rel=1e-9)


def test_bounds_pauli3_cr(capsys):
    rows = run_json(capsys, "bounds", "--model", "pauli3", "--paradigm", "cr", "--n", "100")
    by = {(r["strategy"], r["variant"]): r for r in rows}
    assert by[("sep", "")]["constant"] == pytest.approx(9.0, abs=1e-9)
    assert by[("jnt", "parallel")]["constant"] == pytest.approx(9 * 100 / 102)
    adaptive = by[("jnt", "adaptive")]
    assert adaptive["constant"] == pytest.approx(3.0)
    assert adaptive["status"] == "cited"


def test_bounds_pauli3_cr_rows_cost_the_catalog_variance(capsys):
    # each row's constant divided by the units its scaling cell names is the
    # registry's variance
    n, k = 100, 3
    rows = run_json(capsys, "bounds", "--model", "pauli3", "--paradigm", "cr", "--n", str(n))
    units = {"1/(k n^2)": k * n ** 2, "1/(k n (n+2))": k * n * (n + 2)}
    entries = {
        (e.estimate.strategy, e.estimate.variant): e
        for e in get_model("pauli3").entries
        if e.estimate.paradigm == "cr"
    }
    assert len(rows) == len(entries)
    for row in rows:
        entry = entries[(row["strategy"], row["variant"])]
        want_units = k * n * (n + 2) if entry.estimate.finite_n else k * n ** 2
        assert row["constant"] / units[row["scaling"]] == pytest.approx(
            entry.value(3) / want_units, rel=1e-12)


def test_bounds_two_sector_at_a_small_scale(capsys):
    # an absolute determinant test would send this design's gauges to an LP
    # that returns 0 at 1e-6 (error: cost constant must be positive); at
    # 1e60 every constant is below 1e-118, and an absolute tie rule would
    # keep the identity seed (the sep value) as the search row; so no
    # absolute tolerance
    for a, b in ((1e-6, 5e-7), (1e60, 5e59)):
        rows = run_json(capsys, "bounds", "--model", "two-sector", "--paradigm", "cr",
                        "--alpha", repr(a), "--beta", repr(b))
        by = {(r["strategy"], r["variant"]): r["constant"] for r in rows}
        assert by[("sep", "")] == pytest.approx(4 / (a - b) ** 2, rel=1e-9, abs=0)
        exact = 2 / (a - b) ** 2 + 2 / (a + b) ** 2
        assert by[("sep_plus", "search")] == pytest.approx(exact, rel=1e-12, abs=0)
        # F has eigenvalues 1.25e-13 and 1.125e-12 at 1e-6: invertible there
        assert by[("jnt", "")] == pytest.approx(exact, rel=1e-9, abs=0)


def test_bounds_free_atoms_single_parameter(capsys):
    rows = run_json(capsys, "bounds", "--model", "free-atoms", "--p", "1", "--paradigm", "mm")
    by = {(r["strategy"], r["variant"]): r["constant"] for r in rows}
    assert by[("jnt", "rotation_bound")] == PI2


@pytest.mark.parametrize("paradigm", ["cr", "mm"])
@pytest.mark.parametrize("model", ["fixed-atoms", "free-atoms"])
def test_single_parameter_search_row_is_not_below_the_lower_row(capsys, model, paradigm):
    # the search is an upper bound; its single term is scaled exactly, so no
    # root round trip leaves it an ulp below the lower bound (pi^2 in MM)
    rows = run_json(capsys, "bounds", "--model", model, "--p", "1", "--paradigm", paradigm)
    by = {(r["strategy"], r["variant"]): r["constant"] for r in rows}
    assert by[("sep_plus", "search")] >= by[("sep_plus", "lower")]


def test_bounds_free_atoms_mm_bracket(capsys):
    rows = run_json(capsys, "bounds", "--model", "free-atoms", "--p", "3", "--paradigm", "mm")
    by = {(r["strategy"], r["variant"]): r["constant"] for r in rows}
    assert by[("sep", "")] == pytest.approx(27 * PI2, rel=1e-9)
    assert by[("jnt", "airy_lower")] == pytest.approx(0.6266 * 27, abs=0.05)
    assert by[("jnt", "ball_limit_upper")] == pytest.approx(27.0)
    # no order-3 Hadamard exists, so the certified rotation bound lies
    # strictly between the identity value p pi^2 and the p^2 pi^2 ideal
    assert 3 * PI2 - 1e-9 <= by[("jnt", "rotation_bound")] <= 9 * PI2 + 1e-9
    assert by[("jnt", "rotation_bound_as_published")] == pytest.approx(9.0)


def test_variational_simplex(capsys):
    data = run_json(capsys, "variational", "simplex", "--p", "2", "--grid", "100")
    assert data["E"] == pytest.approx(4 * PI2, rel=1e-2)
    assert data["residual"] <= 1e-8 * data["E"]


def test_variational_airy(capsys):
    data = run_json(capsys, "variational", "airy")
    assert data["constant"] == pytest.approx(0.63, abs=0.01)


def _traced_run(*argv):
    """The report of perfbench's traced child on one command."""
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    env = dict(os.environ, PYTHONPATH=str(Path(hlbounds.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(child), "1", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("PERFBENCH ")]
    assert len(lines) == 1
    return json.loads(lines[0][len("PERFBENCH "):])


def test_benchmark_tracer_binds_every_name():
    # perfbench's traced child rebinds about 25 hlbounds names on any command
    # (``special.airy_ai_with_prime``, ``bounds.linprog``, ``bounds.minimize``
    # among them); a rename would crash every traced run
    report = _traced_run("variational", "airy")
    # the a'_1 bisection: two bracket ends, 53 midpoints, and Ai(a'_1)
    assert report["hot"]["special.airy_ai_with_prime"][0] == 56


def test_benchmark_tracer_hooks_see_every_record_construction():
    # the tracer patches ``__post_init__`` on the ReparamMatrix and
    # PhaseMeasurementModel classes; a constructor that bypassed it would
    # read 0 in the benchmark
    report = _traced_run("bounds", "--model", "fixed-atoms", "--p", "4", "--paradigm", "mm")
    assert report["hot"]["operators.reparam"][0] == 4
    report = _traced_run("variational", "phase", "--family", "sin", "--mc-samples", "1000",
                         "--N", "4", "--seed", "1")
    assert "variational.phase_model" in [span[0] for span in report["spans"]]


def _run_python(code, cwd=None, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(Path(hlbounds.__file__).resolve().parents[1]),
               **env_vars)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True).stdout


def test_cli_import_leaves_out_scipy_integrate():
    # the Airy bound is a closed form: no command needs quadrature at import
    code = "import sys, hlbounds.cli; print('scipy.integrate' in sys.modules)"
    assert _run_python(code) == "False\n"


def test_cli_import_leaves_out_dataclasses():
    # no record is a dataclass: their code generation took about 10 ms of
    # every command's start-up (numpy alone does not import dataclasses)
    code = "import sys, numpy, hlbounds.cli; print('dataclasses' in sys.modules)"
    assert _run_python(code) == "False\n"


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    assert _run_python(f"import sys, hlbounds.cli; print({_SCIPY_MODULES})") == "[]\n"


def test_simplex_output_is_the_same_at_one_and_two_blas_threads():
    # 2,128 wedge unknowns: too few for OpenBLAS to split the CG dot products
    argv = ["variational", "simplex", "--p", "3", "--grid", "80"]
    code = f"from hlbounds.cli import main; main({argv!r})"
    outputs = [_run_python(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["E"] == pytest.approx(94.35108275932373, rel=1e-12, abs=0)


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [line.split()[1:] for line in readme.read_text().splitlines()
            if line.startswith("hlbounds ")]


def test_readme_and_small_bounds_commands_load_no_scipy(tmp_path):
    # numpy-only paths: the closed-form difference bodies, also past the
    # hull's size gates, the in-package Nelder-Mead and CG.  scipy stays for
    # qhull.
    commands = _readme_commands()
    assert len(commands) == 10
    for model, ps in (("fixed-atoms", range(1, 9)), ("free-atoms", (1, 2, 3, 4, 8, 16))):
        for p in ps:
            for paradigm in ("cr", "mm"):
                commands.append(["bounds", "--model", model, "--p", str(p),
                                 "--paradigm", paradigm])
    for paradigm in ("cr", "mm"):  # MM is refused after parsing
        commands.append(["bounds", "--model", "two-sector", "--paradigm", paradigm])
    # a strength out of range is refused before the search
    commands.append(["bounds", "--model", "two-sector", "--paradigm", "cr",
                     "--alpha", "inf", "--beta", "0.5"])
    code = f"""
import contextlib, io, json, sys
import hlbounds.cli as cli
loaded = {{}}
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    loaded[" ".join(argv)] = {_SCIPY_MODULES}
print(json.dumps(loaded))
"""
    loaded = json.loads(_run_python(code, cwd=tmp_path))
    assert set(loaded) == {" ".join(argv) for argv in commands}
    assert {cmd: mods for cmd, mods in loaded.items() if mods} == {}


def test_table_and_bounds_leave_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 15 ms per command; operators.unique does not
    code = """
import contextlib, io, sys
import hlbounds.cli as cli
for argv in (["table"], ["bounds", "--model", "fixed-atoms", "--p", "3", "--paradigm", "cr"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print("numpy.ma" in sys.modules)
"""
    assert _run_python(code, cwd=tmp_path) == "False\n"


def test_qfi_at_the_atom_caps(capsys):
    # fixed atoms at p = 12 fill the 2^12 cap; free atoms at p = 2049 pass it
    code, out, err = run_cli(capsys, "qfi", "--model", "fixed-atoms", "--p", "12")
    assert code == 0 and json.loads(out)["trace_inverse"] == pytest.approx(12.0, rel=1e-12)
    code, out, err = run_cli(capsys, "qfi", "--model", "free-atoms", "--p", "2049")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_no_module_level_scipy_import():
    src = Path(hlbounds.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # runs on call, not at import
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                stack.extend(ast.iter_child_nodes(node))
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_cli_builds_no_bounds_rows():
    # the rows of every model are built in catalog.bounds_rows; the command
    # line only parses flags and formats them
    tree = ast.parse((Path(hlbounds.__file__).resolve().parent / "cli.py").read_text())
    imported, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module or ""] + [alias.name for alias in node.names])
        elif isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    assert {name.rsplit(".", 1)[-1] for name in imported} & {"bounds", "operators"} == set()
    assert "CostEstimate" not in called


def test_only_solvers_runs_nelder_mead():
    # every search goes through solvers.search_from_starts, the one
    # multi-start policy; no other module drives a Nelder-Mead search
    callers = set()
    for path in (Path(hlbounds.__file__).resolve().parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("minimize", "minimize_lockstep"):
                    callers.add(path.stem)
    assert callers == {"solvers"}


def test_only_the_singularity_test_and_the_design_floor_take_a_determinant():
    # one singularity rule for every A (operators.nonsingular_scaled); the
    # design floor's test is on a Gram matrix, not on a reparametrization
    allowed = {"operators": "nonsingular_scaled", "bounds": "_design_floor"}
    outside, inside = [], set()
    for path in sorted((Path(hlbounds.__file__).resolve().parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and function.name == allowed.get(path.stem) for node in ast.walk(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "det") or (
                    isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "det"):
                if id(node) in exempt:
                    inside.add(path.stem)
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == [] and inside == set(allowed)


def test_no_function_solves_a_linear_program():
    # every gauge reads the difference body's facets; ``bounds.linprog``
    # stays bound for the benchmark's tracer, and nothing calls it
    calls = []
    for path in sorted((Path(hlbounds.__file__).resolve().parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "linprog":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("argv", [["table"], ["bounds", "--model", "pauli3", "--paradigm", "mm"]],
                         ids=["table", "pauli3-mm"])
def test_registry_commands_run_no_search(capsys, minimize_runs, argv):
    # the Pauli SEP+ floors take L* = 1 from the certified stop of the sphere
    # search, and no other registry row searches
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert minimize_runs == []


def test_variational_ball_large_p(capsys):
    data = run_json(capsys, "variational", "ball", "--p", "500")
    assert data["E_over_p3"] == pytest.approx(1.0886, abs=1e-4)


def test_variational_ball_above_ceiling_fails_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "variational", "ball", "--p", "1001")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert elapsed < 0.1


def test_variational_phase_with_monte_carlo(capsys):
    data = run_json(
        capsys, "variational", "phase", "--family", "sin", "--N", "20",
        "--mc-samples", "100000", "--seed", "7",
    )
    exact = 2 * (1 - math.cos(math.pi / 22))
    assert data["analytic"] == pytest.approx(exact, abs=1e-12)
    mc = data["monte_carlo"]
    assert mc["seed"] == 7
    assert abs(mc["mean"] - exact) <= 3 * mc["stderr"]


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--mc-samples", "50000001")])
def test_variational_phase_bad_monte_carlo_input_fails_fast(capsys, flag, value):
    argv = {"--seed": "1234", "--mc-samples": "1000", flag: value}
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "variational", "phase", *itertools.chain(*argv.items()))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Flags that take a float strength, seed or sample count, by command; each
# value below is a non-finite, a sign or an extreme magnitude.
_EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e200", "1e-200", "5e-324")
# Values of the integer size flags: argparse refuses the first two.
_INT_EDGES = ("nan", "1e3", "0", "-1")
# Each capped size flag, by command, with its cap: cap + 1 and 10^200 must
# fail, and do so before any large allocation
_CAPS = (
    (("qfi", "--model", "fixed-atoms"), "--p", 12),
    # the largest n whose n^2 rounds to a finite double
    (("qfi", "--model", "fixed-atoms"), "--n", math.isqrt(2 ** 1024 - 2 ** 970 - 1)),
    (("qfi", "--model", "free-atoms"), "--p", 2048),
    (("bounds", "--model", "fixed-atoms", "--paradigm", "mm"), "--p", 12),
    (("bounds", "--model", "free-atoms", "--paradigm", "cr"), "--p", 2048),
    # the wedge enumeration's index cap: p * C(floor(grid/2) + p - 1, p) <= 10^7
    (("variational", "simplex", "--grid", "20"), "--p", 13),
    (("variational", "simplex", "--p", "2"), "--grid", 6323),
    (("variational", "ball"), "--p", 1000),
    (("figure", "ball"), "--p-max", 1000),
    (("variational", "phase"), "--N", 100_000),
    (("figure", "ratio"), "--beta-steps", 10_000),
)
_EDGE_FLAGS = (
    (("qfi", "--model", "two-sector"), dict.fromkeys(("--alpha", "--beta"), _EDGE_VALUES)),
    (("bounds", "--model", "two-sector", "--paradigm", "cr"),
     dict.fromkeys(("--alpha", "--beta"), _EDGE_VALUES)),
    (("figure", "ratio", "--beta-steps", "3"), {"--alpha": _EDGE_VALUES}),
    (("variational", "phase"), dict.fromkeys(("--seed", "--mc-samples"), _EDGE_VALUES)),
    (("variational", "simplex", "--p", "2", "--grid", "20"),
     dict.fromkeys(("--seed", "--mc-samples"), _EDGE_VALUES)),
    # bounds --n has no cap: it scales the printed constants and is never
    # allocated, but an n past the double range is refused on every model
    (("bounds", "--model", "fixed-atoms", "--paradigm", "mm"),
     {"--n": _INT_EDGES + (str(10 ** 400),)}),
    (("bounds", "--model", "pauli3", "--paradigm", "cr"),
     {"--n": _INT_EDGES + (str(10 ** 400),)}),
    *((command, {flag: _INT_EDGES + (str(cap + 1), str(10 ** 200))})
      for command, flag, cap in _CAPS),
)


def test_free_atom_bounds_past_the_l1_cap_fail_in_one_line():
    # the l1 difference body at p = 17 would have 2^17 facet rows: refused
    # when the Elfving oracle is built, before any search
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["bounds", "--model", "free-atoms", "--p", "17", "--paradigm", "cr"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# inputs that crashed, printed a wrong number or passed a negative seed, and
# each cap + 1; each now ends in one error line
_MUST_FAIL = [
    ["bounds", "--model", "two-sector", "--paradigm", "cr", "--alpha=inf", "--beta=0.5"],
    *([*command, f"--alpha={a}"] for command, _ in _EDGE_FLAGS[:3] for a in ("1e308", "1e200")),
    ["qfi", "--model", "two-sector", "--alpha=inf"],
    ["figure", "ratio", "--beta-steps", "3", "--alpha=1e-200"],
    ["figure", "ratio", "--beta-steps", "3", "--alpha=1e100"],
    ["variational", "phase", "--seed=-1"],
    ["variational", "simplex", "--p", "2", "--grid", "20", "--seed=-5"],
    *(["bounds", "--model", model, "--paradigm", paradigm, f"--n={10 ** 400}"]
      for model, paradigm in (("fixed-atoms", "mm"), ("pauli3", "cr"))),
    *([*command, f"{flag}={value}"] for command, flag, cap in _CAPS
      for value in (cap + 1, 10 ** 200)),
]


@st.composite
def _edge_argv(draw):
    command, flags = draw(st.sampled_from(_EDGE_FLAGS))
    argv = list(command)
    for flag, values in flags.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_edge_argv())
def _edge_property(argv):
    code, err = _exit_code(argv)
    assert code in (0, 2), (argv, code)
    if argv in _MUST_FAIL:
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (argv, err)


for _argv in _MUST_FAIL:
    _edge_property = example(argv=_argv)(_edge_property)


def test_edge_values_exit_0_or_2():
    # no exception escapes main on any edge value; an argparse exit counts as 2
    t0 = time.perf_counter()
    _edge_property()
    assert time.perf_counter() - t0 < 5.0
    # each cap + 1 and 10^200 fail before any large allocation
    for command, flag, cap in _CAPS:
        for value in (cap + 1, 10 ** 200):
            tracemalloc.start()
            try:
                code, _ = _exit_code([*command, f"{flag}={value}"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and peak < 1_000_000, (command, flag, value, peak)


def test_table_contents(capsys):
    rows = run_json(capsys, "table")
    assert len(rows) == len({(r["model"], r["paradigm"], r["strategy"], r["variant"])
                             for r in rows})
    index = {(r["model"], r["paradigm"], r["strategy"], r["variant"]): r for r in rows}
    fixed_mm_jnt = index[("fixed_atoms", "mm", "jnt", "")]
    assert fixed_mm_jnt["coefficient"] == pytest.approx(PI2, rel=1e-12)
    assert fixed_mm_jnt["p_exponent"] == 1
    pauli2_mm = index[("pauli2", "mm", "jnt", "")]
    assert pauli2_mm["coefficient"] == pytest.approx(4 * 2.404825557695773 ** 2, abs=1e-6)
    assert pauli2_mm["status"] == "cited"


def test_table_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert main(["table", "--format", "csv", "--output", str(out1)]) == 0
    assert main(["table", "--format", "csv", "--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.decode().startswith("model,paradigm,strategy,")
    assert b"\r" not in b1


def test_figure_ball_rows(tmp_path, capsys):
    out = tmp_path / "ball.csv"
    assert main(["figure", "ball", "--p-max", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,p,sep_norm,ball_norm,airy_norm,analytic_norm"
    assert len(lines) == 1 + 5 + 2  # header + series + analytic points
    rerun = tmp_path / "ball2.csv"
    assert main(["figure", "ball", "--p-max", "5", "--output", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_figure_ratio_rows(capsys):
    code, out, err = run_cli(
        capsys, "figure", "ratio", "--alpha", "1", "--beta-steps", "5", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(r["ratio"] >= 1 - 1e-9 for r in rows)


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "qfi", "--model", "fixed-atoms", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert json.loads(json.dumps(data)) == data


def test_infinity_serialization(capsys):
    # a singular information matrix serializes its trace-inverse as "inf"
    data = run_json(capsys, "qfi", "--model", "free-atoms", "--p", "2", "--state", "basis0")
    assert data["trace_inverse"] == "inf"


def test_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "variational", "simplex", "--p", "5")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "n": 2}))
    data = run_json(
        capsys, "qfi", "--model", "free-atoms", "--state", "superposed-noon",
        "--config", str(cfg), "--n", "1",
    )
    assert data["p"] == 3  # from config
    assert data["n"] == 1  # flag wins over config


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"quux": 1}))
    code, out, err = run_cli(capsys, "qfi", "--model", "pauli1", "--config", str(cfg))
    assert code == 2 and "unknown config key" in err


# flags that reached no output: bounds --k/--N, and --seed outside variational;
# the Airy quadrature's tail cutoff and the two-sector angle grid, gone with
# the quadrature and the angle scan; and the phase pdf grid, now set by N
@pytest.mark.parametrize("argv", [
    ["bounds", "--model", "pauli3", "--paradigm", "cr", "--k", "3"],
    ["bounds", "--model", "pauli3", "--paradigm", "mm", "--N", "5"],
    ["table", "--seed", "1"],
    ["variational", "airy", "--cutoff", "14"],
    ["bounds", "--model", "two-sector", "--paradigm", "cr", "--angle-grid", "90"],
    ["figure", "ratio", "--angle-grid", "90"],
    ["variational", "phase", "--mc-samples", "1000", "--pdf-grid", "4096"],
], ids=["bounds-k", "bounds-N", "table-seed", "airy-cutoff", "bounds-angle-grid",
        "ratio-angle-grid", "phase-pdf-grid"])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, value", [
    (["bounds", "--model", "pauli3", "--paradigm", "cr"], "k", 3),
    (["table"], "seed", 1),
    (["variational", "airy"], "cutoff", 14),
    (["bounds", "--model", "two-sector", "--paradigm", "cr"], "angle_grid", 90),
    (["figure", "ratio"], "angle_grid", 90),
    (["variational", "phase", "--mc-samples", "1000"], "pdf_grid", 4096),
], ids=["bounds-k", "table-seed", "airy-cutoff", "bounds-angle-grid", "ratio-angle-grid",
        "phase-pdf-grid"])
def test_config_rejects_removed_flags(tmp_path, capsys, argv, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: unknown config key {key!r}\n"


# every option of every subcommand: a flag is added or removed only with an
# edit here
FLAG_INVENTORY = {
    "qfi": ["--alpha", "--beta", "--config", "--format", "--help", "--model", "--n",
            "--output", "--p", "--state", "-h"],
    "bounds": ["--alpha", "--beta", "--config", "--format", "--help", "--model", "--n",
               "--output", "--p", "--paradigm", "-h"],
    "variational": ["--N", "--config", "--family", "--format", "--grid", "--help",
                    "--mc-samples", "--output", "--p", "--seed", "-h"],
    "table": ["--config", "--format", "--help", "--output", "-h"],
    "figure": ["--alpha", "--beta-steps", "--config", "--format", "--help", "--output",
               "--p-max", "-h"],
}


def test_flag_inventory():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(opt for action in command._actions for opt in action.option_strings)
               for name, command in commands.choices.items()}
    assert options == FLAG_INVENTORY


CSV_COMMANDS = [
    ["table", "--format", "csv"],
    ["figure", "ball", "--p-max", "5"],
    ["figure", "ratio", "--beta-steps", "3"],
    ["bounds", "--model", "two-sector", "--paradigm", "cr", "--format", "csv"],
    ["bounds", "--model", "free-atoms", "--p", "2", "--paradigm", "mm", "--format", "csv"],
] + [
    ["bounds", "--model", model, "--paradigm", paradigm, "--format", "csv"]
    for model in ("pauli1", "pauli2", "pauli3")
    for paradigm in ("cr", "mm")
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=lambda argv: "-".join(argv[:4]))
def test_csv_rows_parse_to_the_header_length(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows), argv


@pytest.mark.parametrize("value", ["3", 2.5, True, [3]])
def test_config_rejects_a_wrong_type(tmp_path, capsys, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": value}))
    code, out, err = run_cli(capsys, "bounds", "--model", "fixed-atoms", "--paradigm", "cr",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: config key 'p' must be of type int\n"


def test_config_accepts_an_integer_for_a_float_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1}))
    data = run_json(capsys, "qfi", "--model", "two-sector", "--beta", "0.5",
                    "--config", str(cfg))
    assert data["trace_inverse"] == pytest.approx(80.0 / 9.0, abs=1e-9)
