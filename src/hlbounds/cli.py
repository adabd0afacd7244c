"""Command-line front end.

Subcommands: qfi, bounds, variational, table, figure.  Every command is
deterministic given its flags (seeds included); JSON output uses flat
snake_case keys with infinities serialized as the string "inf", CSV output
uses 17 significant digits with LF line endings, and a cell that holds a
comma or a quote is quoted.  Diagnostics go to stderr, data to stdout or
--output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import catalog
from . import variational as vr
from .errors import HlboundsError, InvalidArgumentError, ResourceLimitError
from .qfi import qfi_pure, saturability, trace_inverse
from .states import (
    PureState,
    noon_coefficients,
    sin_coefficients,
    superposed_noon_state,
    uniform_state,
)

# The most grid points of ``figure ratio``; each is one output row.
BETA_STEPS_CAP = 10_000


def _build_state(name, gens, p, n):
    if name in ("uniform", "plus-product", "noon"):
        return uniform_state(gens.dim)
    if name == "superposed-noon":
        return superposed_noon_state(p, n)
    if name == "basis0":
        amps = np.zeros(gens.dim, dtype=complex)
        amps[0] = 1.0
        return PureState(amps)
    raise InvalidArgumentError(f"unknown state {name!r}")


def _sanitize(obj):
    """Make a structure JSON-serializable; +-inf becomes the string 'inf'."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _emit(payload, args, csv_columns=None):
    fmt = args.format
    if fmt == "csv":
        if csv_columns is None:
            raise InvalidArgumentError("this command has no CSV representation")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_columns)
        for row in payload:
            # the writer turns None into an empty cell and other values into str()
            writer.writerow([
                ("inf" if math.isinf(v) else f"{v:.17g}") if isinstance(v, float) else v
                for v in (row.get(col, "") for col in csv_columns)
            ])
        text = buffer.getvalue()
    else:
        text = json.dumps(_sanitize(payload), indent=2) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_qfi(args):
    gens = catalog.build_model(args.model, args.p, args.alpha, args.beta)
    psi = _build_state(args.state, gens, args.p, args.n)
    theta0 = np.zeros(gens.p)
    f = qfi_pure(gens, theta0, psi, args.n)
    report = saturability(gens, theta0, psi)
    payload = {
        "model": args.model,
        "p": gens.p,
        "n": args.n,
        "state": args.state,
        "F": f.entries.tolist(),
        "trace_inverse": trace_inverse(f),
        "saturable": report.saturable,
        "imag_max": float(np.max(np.abs(report.imag_parts))),
    }
    _emit(payload, args)
    return 0


def cmd_bounds(args):
    rows = catalog.bounds_rows(args.model, args.paradigm, args.p, args.n, args.alpha, args.beta)
    _emit([est.row() for est in rows], args, csv_columns=[
        "strategy", "variant", "constant", "p_exponent", "scaling", "status", "provenance",
    ])
    return 0


def cmd_variational(args):
    if args.target == "simplex":
        spec = vr.simplex_ground_energy(args.p, args.grid)
        payload = {
            "target": "simplex",
            "p": spec.p,
            "grid": args.grid,
            "h": spec.h,
            "E": spec.E,
            "iterations": spec.iterations,
            "residual": spec.residual,
        }
    elif args.target == "airy":
        res = vr.airy_lower_bound()
        payload = {
            "target": "airy",
            "a_prime_zero": res.a_prime_zero,
            "I_norm": res.I_norm,
            "I_mean": res.I_mean,
            "I_kinetic": res.I_kinetic,
            "constant": res.constant,
        }
    elif args.target == "ball":
        e = vr.ball_upper_bound(args.p)
        payload = {"target": "ball", "p": args.p, "E": e, "E_over_p3": e / args.p ** 3}
    else:  # phase
        if args.family == "sin":
            coeffs = sin_coefficients(args.N)
        elif args.family == "noon":
            coeffs = noon_coefficients(args.N)
        else:
            raise InvalidArgumentError(f"unknown phase family {args.family!r}")
        payload = {
            "target": "phase",
            "family": args.family,
            "N": args.N,
            "analytic": vr.phase_cost_analytic(coeffs),
        }
        if args.mc_samples:
            model = vr.PhaseMeasurementModel(coeffs)
            mean, stderr = vr.phase_cost_monte_carlo(model, args.mc_samples, args.seed)
            payload["monte_carlo"] = {
                "samples": args.mc_samples,
                "seed": args.seed,
                "pdf_grid": model.grid_points,
                "mean": mean,
                "stderr": stderr,
            }
    _emit(payload, args)
    return 0


def cmd_table(args):
    rows = []
    for record in catalog.table_one():
        for e in record.entries:
            # the registry lists the p-free coefficient in the constant's place
            cells = e.estimate.row()
            cells["constant"] = e.coefficient
            rows.append({
                "model": record.name,
                "paradigm": e.estimate.paradigm,
                **{("coefficient" if k == "constant" else k): v for k, v in cells.items()},
            })
    _emit(rows, args, csv_columns=[
        "model", "paradigm", "strategy", "variant", "coefficient",
        "p_exponent", "scaling", "status", "provenance",
    ])
    return 0


def cmd_figure(args):
    if args.target == "ball":
        rows, analytic = catalog.figure_ball_data(args.p_max)
        out = []
        for r in rows:
            out.append({"kind": "series", **r, "analytic_norm": None})
        for r in analytic:
            out.append(
                {
                    "kind": "analytic",
                    "p": r["p"],
                    "sep_norm": None,
                    "ball_norm": None,
                    "airy_norm": None,
                    "analytic_norm": r["analytic_norm"],
                }
            )
        _emit(out, args, csv_columns=[
            "kind", "p", "sep_norm", "ball_norm", "airy_norm", "analytic_norm",
        ])
    else:  # ratio
        steps = args.beta_steps
        if steps > BETA_STEPS_CAP:
            raise ResourceLimitError(f"--beta-steps must be <= {BETA_STEPS_CAP}")
        grid = [args.alpha * (i + 1) / (steps + 1) for i in range(steps)]
        rows = catalog.figure_ratio_data(args.alpha, grid)
        _emit(rows, args, csv_columns=["beta_over_alpha", "ratio"])
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser):
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hlbounds",
        description="Optimal-precision costs for multiparameter quantum metrology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qfi", help="quantum Fisher information of a model/state pair")
    q.add_argument("--model", required=True, choices=catalog.GENERATOR_MODELS)
    q.add_argument("--p", type=int, default=2)
    q.add_argument("--n", type=int, default=1)
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--beta", type=float, default=0.5)
    q.add_argument("--state", default="uniform")
    _add_common(q)
    q.set_defaults(func=cmd_qfi, default_format="json")

    b = sub.add_parser("bounds", help="strategy cost constants for a model")
    b.add_argument("--model", required=True, choices=catalog.GENERATOR_MODELS)
    b.add_argument("--p", type=int, default=2)
    b.add_argument("--paradigm", required=True, choices=("cr", "mm"))
    b.add_argument("--n", type=int, default=100, help="n of the finite-n rows")
    b.add_argument("--alpha", type=float, default=1.0)
    b.add_argument("--beta", type=float, default=0.5)
    _add_common(b)
    b.set_defaults(func=cmd_bounds, default_format="json")

    v = sub.add_parser("variational", help="minimax variational computations")
    v.add_argument("target", choices=("simplex", "airy", "ball", "phase"))
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--grid", type=int, default=160)
    v.add_argument("--family", default="sin")
    v.add_argument("--N", type=int, default=20)
    v.add_argument("--mc-samples", type=int, default=0)
    v.add_argument("--seed", type=int, default=1234, help="Monte-Carlo seed of phase")
    _add_common(v)
    v.set_defaults(func=cmd_variational, default_format="json")

    t = sub.add_parser("table", help="the six-model cost-constant registry")
    _add_common(t)
    t.set_defaults(func=cmd_table, default_format="json")

    f = sub.add_parser("figure", help="figure data files (CSV by default)")
    f.add_argument("target", choices=("ball", "ratio"))
    f.add_argument("--p-max", type=int, default=20)
    f.add_argument("--alpha", type=float, default=1.0)
    f.add_argument("--beta-steps", type=int, default=50)
    _add_common(f)
    f.set_defaults(func=cmd_figure, default_format="csv")

    return parser


def _config_value(action, key, value):
    """``value`` as the flag ``action`` takes it, if its JSON type and the
    flag's choices allow it (an integer is a valid float)."""
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidArgumentError(f"config key {key!r} must be of type {kind.__name__}")
    if action.choices and value not in action.choices:
        raise InvalidArgumentError(f"config key {key!r} must be one of {action.choices}")
    return kind(value)


def _apply_config(parser, args, argv):
    """Config file values become the defaults of the command's flags, and
    ``argv`` is parsed again, so flags on the command line override them."""
    if not args.config:
        return args
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidArgumentError("config file must hold a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    flags = {action.dest: action for action in command._actions
             if action.option_strings and action.dest in vars(args)}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise InvalidArgumentError(f"unknown config key {key!r}")
        command.set_defaults(**{dest: _config_value(flags[dest], key, value)})
    return parser.parse_args(argv)


def _validate(args):
    positive = ("p", "n", "N", "grid", "p_max", "beta_steps")
    for name in positive:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise InvalidArgumentError(f"--{name.replace('_', '-')} must be positive")
    if getattr(args, "mc_samples", 0) < 0:
        raise InvalidArgumentError("--mc-samples must be nonnegative")
    if getattr(args, "seed", 0) < 0:
        raise InvalidArgumentError("--seed must be nonnegative")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        if args.format is None:
            args.format = getattr(args, "default_format", "json")
        _validate(args)
        return args.func(args)
    except HlboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
