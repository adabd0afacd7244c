"""Correctness checks on the output of one hlbounds CLI command.

Every value is compared with the output recorded at the baseline commit
(``reference.json``) at 1e-9 relative, with three exceptions:

* SEP+ ``search`` rows are upper bounds found by a local search: they may
  only go down from the reference, and never below the row's ``lower``
  bound.
* The simplex solver's diagnostics (``iterations``, ``residual``) may change
  with the solver; the residual must stay within the solver's own
  convergence contract, residual <= 1e-9 E.
* Values that are zero in exact arithmetic (finite-difference noise such as
  3.9e-31) pass with an absolute floor of 1e-12.

Closed forms are checked independently of the reference.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-9
ATOL = 1e-12
PI2 = math.pi ** 2


def parse(text: str):
    """JSON output as Python data, CSV output as a list of cell lists."""
    if text[:1] in ("{", "["):
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


def _number(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str) and v not in ("inf", "-inf", ""):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL)


def _compare(actual, ref, path, problems, skip=()):
    if isinstance(ref, dict):
        if not isinstance(actual, dict) or set(actual) != set(ref):
            problems.append(f"{path}: keys differ from the reference")
            return
        for k in ref:
            if k not in skip:
                _compare(actual[k], ref[k], f"{path}.{k}", problems, skip)
        return
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (x, y) in enumerate(zip(actual, ref)):
            _compare(x, y, f"{path}[{i}]", problems, skip)
        return
    a, r = _number(actual), _number(ref)
    if r is not None and a is not None:
        if not close(a, r):
            problems.append(f"{path}: {actual!r} != reference {ref!r}")
    elif actual != ref:
        problems.append(f"{path}: {actual!r} != reference {ref!r}")


def _flag(argv, name, cast=float):
    return cast(argv[argv.index(name) + 1])


def _expect(problems, label, value, expected):
    if not close(float(value), expected):
        problems.append(f"{label}: {value!r} != closed form {expected!r}")


def _check_bounds(argv, actual, ref, problems):
    """Search rows may only improve on the reference, never past the lower bound."""
    if len(actual) != len(ref):
        problems.append("rows: count differs from the reference")
        return
    lower = {r["strategy"]: r["constant"] for r in actual if r["status"] == "lower_bound"
             and r["variant"] == "lower"}
    for i, (row, ref_row) in enumerate(zip(actual, ref)):
        if row.get("variant") == "search" and row.get("status") == "upper_bound":
            _compare(row, ref_row, f"rows[{i}]", problems, skip=("constant",))
            value = float(row["constant"])
            if value > float(ref_row["constant"]) * (1 + RTOL):
                problems.append(f"rows[{i}]: search value {value!r} rose above "
                                f"reference {ref_row['constant']!r}")
            bound = lower.get(row["strategy"])
            if bound is not None and value < float(bound) * (1 - RTOL):
                problems.append(f"rows[{i}]: search value {value!r} fell below its "
                                f"lower bound {bound!r}")
        else:
            _compare(row, ref_row, f"rows[{i}]", problems)

    model = _flag(argv, "--model", str)
    rows = {(r["strategy"], r["variant"]): float(r["constant"]) for r in actual}
    if model in ("fixed-atoms", "free-atoms") and "mm" in argv:
        p = _flag(argv, "--p", int)
        sep_plus = p ** 2 * PI2 if model == "fixed-atoms" else p ** 3 * PI2
        jnt = p * PI2 if model == "fixed-atoms" else p ** 2 * PI2
        _expect(problems, "sep", rows[("sep", "")], p ** 3 * PI2)
        _expect(problems, "sep_plus lower", rows[("sep_plus", "lower")], sep_plus)
        _expect(problems, "sep_plus search", rows[("sep_plus", "search")], sep_plus)
        _expect(problems, "jnt rotation_bound", rows[("jnt", "rotation_bound")], jnt)
    elif model == "two-sector":
        a, b = _flag(argv, "--alpha"), _flag(argv, "--beta")
        optimum = 2.0 / (a - b) ** 2 + 2.0 / (a + b) ** 2
        _expect(problems, "sep", rows[("sep", "")], 4.0 / (a - b) ** 2)
        _expect(problems, "sep_plus search", rows[("sep_plus", "search")], optimum)
        _expect(problems, "jnt", rows[("jnt", "")], optimum)


def _check_simplex(actual, ref, problems):
    _compare(actual, ref, "simplex", problems, skip=("iterations", "residual"))
    if not (isinstance(actual.get("iterations"), int) and actual["iterations"] >= 1):
        problems.append(f"simplex: bad iteration count {actual.get('iterations')!r}")
    if not float(actual["residual"]) <= RTOL * float(actual["E"]):
        problems.append(f"simplex: residual {actual['residual']!r} > 1e-9 E")


def _check_phase(argv, actual, ref, problems):
    _compare(actual, ref, "phase", problems)
    n = _flag(argv, "--N", int)
    analytic = 2.0 * (1.0 - math.cos(math.pi / (n + 2)))
    _expect(problems, "phase analytic", actual["analytic"], analytic)
    mc = actual.get("monte_carlo")
    if mc is None:
        problems.append("phase: Monte-Carlo block missing")
    elif abs(mc["mean"] - analytic) > 5.0 * mc["stderr"]:
        problems.append(f"phase: MC mean {mc['mean']!r} is more than 5 stderr "
                        f"from {analytic!r}")


def check_output(argv, text: str, reference: dict) -> list:
    """Problems found in the stdout ``text`` of ``hlbounds <argv>`` (empty when correct)."""
    key = " ".join(argv)
    if key not in reference:
        return [f"no reference output for {key!r}"]
    try:
        actual = parse(text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    ref = parse(reference[key])
    problems = []
    try:
        if argv[0] == "bounds" and _flag(argv, "--model", str) not in ("pauli1", "pauli2",
                                                                       "pauli3"):
            _check_bounds(argv, actual, ref, problems)
        elif argv[:2] == ["variational", "simplex"]:
            _check_simplex(actual, ref, problems)
        elif argv[:2] == ["variational", "phase"]:
            _check_phase(argv, actual, ref, problems)
        else:
            _compare(actual, ref, "output", problems)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"output has an unexpected shape: {exc!r}")
    return problems
