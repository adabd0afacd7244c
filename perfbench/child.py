"""One hlbounds CLI command in a fresh interpreter, timed from the inside.

Usage: python3 perfbench/child.py <trace 0|1> <hlbounds argv...>

The command's own output goes to stdout untouched.  After it returns, one
line ``PERFBENCH <json>`` is appended to stderr with the child's clock
readings (``time.monotonic``, comparable with the parent's), its peak RSS
and, when tracing, the spans and counters recorded below.

numpy is imported first, before anything of hlbounds, and ``t_numpy``
records when that import ended.  Interpreter start plus the numpy import is
the same work in every command and every commit, so ``run.py`` uses its time
as the probe of how fast the host runs at the moment (see ``run.py``).

Tracing rebinds public functions, and scipy's ``minimize``/``cg``/``linprog``
as bound in the calling module, in every ``hlbounds`` module namespace that
holds them.  Wrappers only forward arguments and results, so outputs stay
bit-identical; the CG iteration count comes from a ``callback``.  Coarse
calls become spans; the hot boundaries (about 1e5 calls per command) only
bump a call counter and a time total.
"""

import time

T_START = time.monotonic()

import numpy  # noqa: E402, F401  (the host-speed probe; see the docstring)

T_NUMPY = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

perf = time.perf_counter

SPANS = (
    # (module, attribute, span name)
    ("cli", "main", "cli.main"),
    ("bounds", "sep_plus_optimize", "bounds.sep_plus_optimize"),
    ("bounds", "sep_plus_lower_bound", "bounds.sep_plus_lower_bound"),
    ("bounds", "jnt_lower_bound", "bounds.jnt_lower_bound"),
    ("bounds", "orthogonal_restricted_sep_plus", "bounds.orthogonal_restricted_sep_plus"),
    ("operators", "optimize_orthogonal_bound", "operators.optimize_orthogonal_bound"),
    ("operators", "max_spread_over_sphere", "operators.max_spread_over_sphere"),
    ("variational", "simplex_ground_energy", "variational.simplex"),
    ("variational", "airy_lower_bound", "variational.airy_lower_bound"),
    ("variational", "ball_upper_bound", "variational.ball_upper_bound"),
    ("variational", "phase_cost_monte_carlo", "variational.phase_mc"),
    ("catalog", "table_one", "catalog.table_one"),
    ("catalog", "figure_ball_data", "catalog.figure_ball_data"),
    ("catalog", "figure_ratio_data", "catalog.figure_ratio_data"),
    ("qfi", "qfi_pure", "qfi.qfi_pure"),
    ("qfi", "saturability", "qfi.saturability"),
)

HOT = (
    ("bounds", "sep_plus_value", "bounds.sep_plus_value"),
    ("bounds", "linprog", "bounds.lp"),
    ("special", "bessel_j", "special.bessel_j"),
    ("special", "airy_ai_with_prime", "special.airy_ai_with_prime"),
    ("states", "evolve", "states.evolve"),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent index, attrs]`` plus hot counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.hot = {}

    def _open(self, name):
        rec = [name, perf(), None, self.stack[-1] if self.stack else None, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf()
        self.stack.pop()

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec[4], result)
                return result
            finally:
                self._close(rec)

        return wrapper

    def counter(self, name, fn):
        stat = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf() - t0

        return wrapper

    def counted_cg(self, cg):
        """CG solve as a span; the iteration count comes from a callback."""

        @functools.wraps(cg)
        def wrapper(*args, **kwargs):
            rec = self._open("scipy.cg")
            iterations = 0

            def callback(_xk):
                nonlocal iterations
                iterations += 1

            try:
                return cg(*args, callback=callback, **kwargs)
            finally:
                rec[4]["iterations"] = iterations
                self._close(rec)

        return wrapper

    def oracle_factory(self, factory):
        """Building an oracle is a span; each query of the oracle is a hot call."""
        built = self.span("bounds.oracle_build", factory)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.counter("bounds.oracle", built(*args, **kwargs))

        return wrapper

    def install(self):
        import hlbounds.bounds as bounds
        import hlbounds.operators as operators
        import hlbounds.variational as variational

        mods = _hlbounds_modules()
        for mod, attr, name in SPANS:
            original = getattr(mods[mod], attr)
            on_result = _simplex_attrs if name == "variational.simplex" else None
            _rebind(mods, original, self.span(name, original, on_result))
        for mod, attr, name in HOT:
            original = getattr(mods[mod], attr)
            _rebind(mods, original, self.counter(name, original))
        _rebind(mods, bounds.minimize,
                self.span("scipy.minimize", bounds.minimize, _minimize_attrs))
        _rebind(mods, variational.cg, self.counted_cg(variational.cg))

        for attr in ("elfving_variance_oracle", "spread_variance_oracle"):
            factory = getattr(bounds, attr)
            _rebind(mods, factory, self.oracle_factory(factory))

        # class constructions: patched on the class, so every caller sees them
        reparam = operators.ReparamMatrix
        reparam.__post_init__ = self.counter("operators.reparam", reparam.__post_init__)
        phase_model = variational.PhaseMeasurementModel
        phase_model.__post_init__ = self.span("variational.phase_model",
                                              phase_model.__post_init__)

    def report(self):
        return {"spans": self.spans, "hot": self.hot}


def _simplex_attrs(attrs, spec):
    attrs["unknowns"] = int(spec.nodes.shape[0])
    attrs["outer_iterations"] = int(spec.iterations)


def _minimize_attrs(attrs, res):
    attrs["nfev"] = int(res.nfev)
    attrs["success"] = bool(res.success)


def _hlbounds_modules():
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("hlbounds.")
    }


def _rebind(mods, original, replacement):
    """Replace ``original`` by ``replacement`` wherever an hlbounds module binds it."""
    targets = list(mods.values()) + [sys.modules["hlbounds"]]
    for mod in targets:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    info = {"t_start": T_START, "t_numpy": T_NUMPY}
    if trace:
        t1 = time.monotonic()
        import scipy.integrate  # noqa: F401
        import scipy.optimize  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        t2 = time.monotonic()
        info["import"] = {"numpy_s": T_NUMPY - T_START, "scipy_s": t2 - t1}
    t_import = time.monotonic()
    import hlbounds.cli as cli

    info["hlbounds_file"] = os.path.abspath(cli.__file__)
    if trace:
        info["import"]["hlbounds_s"] = time.monotonic() - t_import
        tracer = Tracer()
        tracer.install()
    info["t_ready"] = time.monotonic()
    rc = cli.main(argv)
    info["t_done"] = time.monotonic()
    sys.stdout.flush()
    info["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        info.update(tracer.report())
    sys.stderr.write("PERFBENCH " + json.dumps(info) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
