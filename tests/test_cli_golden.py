"""Golden outputs of the command line: README commands, every ``bounds``
path, ``table`` as JSON and CSV, all five ``--state`` names and one error.

Exit codes and stderr must match exactly; JSON key order, every string
cell and the CSV header too; numbers match to 1e-12 relative.  Regenerate
entries with ``python tests/test_cli_golden.py [name ...]`` (all entries
when no name is given) and review the diff of ``golden/cli_outputs.json``.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from hlbounds.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

COMMANDS = {
    "readme_qfi_two_sector": ["qfi", "--model", "two-sector", "--alpha", "1", "--beta", "0.5"],
    "readme_qfi_noon": ["qfi", "--model", "fixed-atoms", "--p", "1", "--state", "noon",
                        "--n", "4"],
    "readme_bounds_fixed_mm": ["bounds", "--model", "fixed-atoms", "--p", "4",
                               "--paradigm", "mm"],
    "readme_bounds_pauli3_cr": ["bounds", "--model", "pauli3", "--paradigm", "cr",
                                "--n", "100"],
    "readme_simplex": ["variational", "simplex", "--p", "2", "--grid", "160"],
    "readme_airy": ["variational", "airy"],
    "readme_phase": ["variational", "phase", "--family", "sin", "--N", "20",
                     "--mc-samples", "100000", "--seed", "7"],
    "readme_table_csv": ["table", "--format", "csv", "--output", "table.csv"],
    "readme_figure_ball": ["figure", "ball", "--p-max", "20", "--output", "ball.csv"],
    "readme_figure_ratio": ["figure", "ratio", "--alpha", "1", "--beta-steps", "50",
                            "--output", "ratio.csv"],
    "figure_ball_p40": ["figure", "ball", "--p-max", "40", "--output", "ball.csv"],
    "bounds_pauli1_cr": ["bounds", "--model", "pauli1", "--paradigm", "cr"],
    "bounds_pauli1_mm": ["bounds", "--model", "pauli1", "--paradigm", "mm"],
    "bounds_pauli2_cr": ["bounds", "--model", "pauli2", "--paradigm", "cr", "--n", "7"],
    "bounds_pauli2_mm": ["bounds", "--model", "pauli2", "--paradigm", "mm"],
    "bounds_pauli3_cr_csv": ["bounds", "--model", "pauli3", "--paradigm", "cr", "--n", "10",
                             "--format", "csv"],
    "bounds_pauli3_mm": ["bounds", "--model", "pauli3", "--paradigm", "mm"],
    "bounds_fixed_cr": ["bounds", "--model", "fixed-atoms", "--p", "3", "--paradigm", "cr"],
    "bounds_fixed_p5_cr": ["bounds", "--model", "fixed-atoms", "--p", "5", "--paradigm", "cr"],
    "bounds_fixed_p5_mm": ["bounds", "--model", "fixed-atoms", "--p", "5", "--paradigm", "mm"],
    "bounds_fixed_p6_cr": ["bounds", "--model", "fixed-atoms", "--p", "6", "--paradigm", "cr"],
    "bounds_fixed_p6_mm": ["bounds", "--model", "fixed-atoms", "--p", "6", "--paradigm", "mm"],
    "bounds_free_cr": ["bounds", "--model", "free-atoms", "--p", "3", "--paradigm", "cr"],
    "bounds_free_mm": ["bounds", "--model", "free-atoms", "--p", "4", "--paradigm", "mm"],
    "bounds_free_p5_mm": ["bounds", "--model", "free-atoms", "--p", "5", "--paradigm", "mm"],
    "bounds_free_p8_mm": ["bounds", "--model", "free-atoms", "--p", "8", "--paradigm", "mm"],
    "bounds_two_sector_cr": ["bounds", "--model", "two-sector", "--paradigm", "cr",
                             "--alpha", "1.0", "--beta", "0.5"],
    "table_json": ["table"],
    "table_csv": ["table", "--format", "csv"],
    "state_uniform": ["qfi", "--model", "free-atoms", "--p", "2", "--n", "3",
                      "--state", "uniform"],
    "state_plus_product": ["qfi", "--model", "free-atoms", "--p", "2", "--n", "3",
                           "--state", "plus-product"],
    "state_noon": ["qfi", "--model", "free-atoms", "--p", "2", "--n", "3", "--state", "noon"],
    "state_superposed_noon": ["qfi", "--model", "free-atoms", "--p", "2", "--n", "3",
                              "--state", "superposed-noon"],
    "state_basis0": ["qfi", "--model", "free-atoms", "--p", "2", "--n", "3",
                     "--state", "basis0"],
    "qfi_pauli3_n4": ["qfi", "--model", "pauli3", "--n", "4"],
    "qfi_pauli1": ["qfi", "--model", "pauli1"],
    "qfi_fixed_p8": ["qfi", "--model", "fixed-atoms", "--p", "8"],
    "qfi_fixed_p3_plus_product_n2": ["qfi", "--model", "fixed-atoms", "--p", "3",
                                     "--state", "plus-product", "--n", "2"],
    "simplex_p3_grid60": ["variational", "simplex", "--p", "3", "--grid", "60"],
    "simplex_p4_grid30": ["variational", "simplex", "--p", "4", "--grid", "30"],
    "simplex_p5_grid40": ["variational", "simplex", "--p", "5", "--grid", "40"],
    "simplex_p6_grid30": ["variational", "simplex", "--p", "6", "--grid", "30"],
    "error_two_sector_mm": ["bounds", "--model", "two-sector", "--paradigm", "mm"],
}


def capture(argv):
    """Run one command in process; ``--output`` goes to a temporary file
    whose text is reported as the command's output."""
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if "--output" in argv:
            i = argv.index("--output") + 1
            argv[i] = str(Path(tmp) / argv[i])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        if "--output" in argv:
            text = Path(argv[argv.index("--output") + 1]).read_text()
    return {"exit": code, "output": text, "stderr": err.getvalue()}


def _same_number(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _assert_json_equal(got, want, where):
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_json_equal(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_equal(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _same_number(got, want), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _assert_csv_equal(got, want, where):
    got_rows = list(csv.reader(io.StringIO(got, newline="")))
    want_rows = list(csv.reader(io.StringIO(want, newline="")))
    assert got_rows[:1] == want_rows[:1], where
    assert len(got_rows) == len(want_rows), where
    for row, (g_cells, w_cells) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(g_cells) == len(w_cells) == len(want_rows[0]), (where, row)
        for g_cell, w_cell in zip(g_cells, w_cells):
            want_value = _cell(w_cell)
            if isinstance(want_value, float):
                assert _same_number(_cell(g_cell), want_value), (where, row, g_cell, w_cell)
            else:
                assert g_cell == w_cell, (where, row)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert list(golden) == list(COMMANDS)
    for name, argv in COMMANDS.items():
        assert golden[name]["argv"] == argv, name


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_output_matches_golden(golden, name):
    want = golden[name]
    got = capture(COMMANDS[name])
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    if want["output"].startswith(("{", "[")):
        _assert_json_equal(json.loads(got["output"]), json.loads(want["output"]), name)
    else:
        _assert_csv_equal(got["output"], want["output"], name)


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        data[name] = {"argv": COMMANDS[name], **capture(COMMANDS[name])}
    ordered = {name: data[name] for name in COMMANDS if name in data}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(ordered, indent=1) + "\n")
