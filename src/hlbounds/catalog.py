"""Reference registry of asymptotic cost constants for the six benchmark
models, mixing constants recomputed from this package's operations with
cited literature values; the generator models by command-line name and the
rows of the ``bounds`` command; and the data behind the ball-bound and
reparametrization-ratio figures.

Computed entries carry a provenance closure: ``value(p)`` re-runs the
generating operation rather than returning a stored number.  Cited entries
(adaptive field sensing, the covariant two- and three-component optima, the
multiarm-interferometer constants) are never recomputed and carry a
bibliographic tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .bounds import (
    PI2,
    CostEstimate,
    allocate,
    elfving_variance_oracle,
    jnt_lower_bound,
    orthogonal_restricted_sep_plus,
    paradigm_constants,
    per_parameter_spread_constants,
    sep_cost,
    sep_plus_lower_bound,
    sep_plus_optimize,
    sep_plus_value,
)
from .errors import InvalidArgumentError, ResourceLimitError
from .operators import (
    ReparamMatrix,
    build_fixed_atom_generators,
    build_free_atom_generators,
    build_pauli_generators,
    build_two_sector_generators,
    check_two_sector_strengths,
    rotation_bound_value,
    walsh_hadamard,
)
from .qfi import qfi_pure, trace_inverse
from .special import bessel_j_first_zero
from .states import superposed_noon_state, uniform_state
from .variational import BALL_P_MAX, airy_lower_bound, ball_upper_bound

_COM_SPLIT = "computed: optimal resource split of per-parameter protocols"

# Pauli model name -> its field components
_PAULI_COMPONENTS = {"pauli1": "z", "pauli2": "xy", "pauli3": "xyz"}

GENERATOR_MODELS = ("fixed-atoms", "free-atoms", *_PAULI_COMPONENTS, "two-sector")


def build_model(name: str, p: int, alpha: float, beta: float):
    """The generators of the model ``name`` (one of ``GENERATOR_MODELS``);
    ``p`` sizes the atom models, ``alpha`` and ``beta`` are the two-sector
    strengths."""
    if name == "fixed-atoms":
        return build_fixed_atom_generators(p)
    if name == "free-atoms":
        return build_free_atom_generators(p)
    if name in _PAULI_COMPONENTS:
        return build_pauli_generators(_PAULI_COMPONENTS[name])
    if name == "two-sector":
        return build_two_sector_generators(alpha, beta)
    raise InvalidArgumentError(f"unknown model {name!r}")


@dataclass(frozen=True)
class CatalogEntry:
    """One (paradigm, strategy) cost record of a benchmark model.

    ``estimate`` is the record at the reference p ``p_ref``; its leading
    constant is ``coefficient * p**p_exponent`` per 1/(k n^2) (CR) or 1/N^2
    (MM), or per 1/(k n (n+2)) for ``finite_n`` records.  ``recompute`` is
    the provenance closure of computed entries.
    """

    estimate: CostEstimate
    p_ref: int
    recompute: object = None

    @property
    def coefficient(self) -> float:
        """The p-free coefficient of the leading constant."""
        return self.estimate.constant / self.p_ref ** self.estimate.p_exponent

    def value(self, p: int) -> float:
        """Leading constant at p; recomputed from the generating operation
        when one exists."""
        if self.recompute is not None:
            return self.recompute(p)
        return self.coefficient * p ** self.estimate.p_exponent

    def at(self, p: int, n: int) -> CostEstimate:
        """The record at p, in 1/(k n^2) (CR) or 1/N^2 (MM) units at finite n."""
        v = self.value(p)
        if self.estimate.finite_n:
            return replace(self.estimate, constant=v * n / (n + 2), finite_n=False)
        return replace(self.estimate, constant=v)

    @property
    def computed(self) -> bool:
        return self.recompute is not None


@dataclass(frozen=True)
class ModelRecord:
    """A benchmark model with its cost entries and attainability notes."""

    name: str
    p_fixed: int | None
    entries: tuple
    notes: str


@lru_cache(maxsize=None)
def _airy_constant() -> float:
    return airy_lower_bound().constant


def _entry(paradigm, strategy, p_exponent, status, provenance,
           recompute=None, coefficient=None, p_ref=4, **kw):
    """Build an entry; computed entries take their constant from the
    closure at a reference p instead of a hand-copied number."""
    if recompute is not None:
        constant = recompute(p_ref)
    else:
        constant = coefficient * p_ref ** p_exponent
    estimate = CostEstimate(paradigm, strategy, float(constant), p_exponent, status,
                            provenance, **kw)
    return CatalogEntry(estimate, p_ref, recompute)


# --- provenance closures (cached per p: the registry re-runs operations) ---


@lru_cache(maxsize=None)
def _sep(build, paradigm, p):
    return sep_cost(per_parameter_spread_constants(build(p), paradigm), paradigm).constant


@lru_cache(maxsize=None)
def _sep_plus_floor(build, paradigm, p):
    return sep_plus_lower_bound(build(p), paradigm).constant


@lru_cache(maxsize=None)
def _fixed_cr_sep_plus(p):
    r = int(round(math.log2(p)))
    if 2 ** r != p:
        raise InvalidArgumentError("the spread-balancing transform needs p = 2^r")
    gens = build_fixed_atom_generators(p)
    oracle = elfving_variance_oracle(gens, "cr")
    return sep_plus_value(walsh_hadamard(r), oracle, 1)


@lru_cache(maxsize=None)
def _fixed_cr_jnt(p):
    gens = build_fixed_atom_generators(p)
    f = qfi_pure(gens, np.zeros(p), uniform_state(2 ** p), 1)
    return trace_inverse(f)


@lru_cache(maxsize=None)
def _fixed_mm_jnt(p):
    gens = build_fixed_atom_generators(p)
    return PI2 * rotation_bound_value(gens, ReparamMatrix(np.eye(p)))


@lru_cache(maxsize=None)
def _free_cr_jnt(p):
    gens = build_free_atom_generators(p)
    f = qfi_pure(gens, np.zeros(p), superposed_noon_state(p, 1), 1)
    return trace_inverse(f)


@lru_cache(maxsize=None)
def _free_mm_jnt_lower(p):
    return _airy_constant() * p ** 3


def _unit_sep(paradigm, p):
    alpha, factor = paradigm_constants(paradigm)
    return allocate([factor] * p, alpha).total_constant


def _single(paradigm, p):
    return paradigm_constants(paradigm)[1]


def _pauli_entries(p):
    no_gain = "computed: single-vector spread maximization (no reparametrization gain)"
    return (
        _entry("cr", "sep", 0, "exact_asymptotic", _COM_SPLIT,
               recompute=partial(_unit_sep, "cr"), p_ref=p),
        _entry("cr", "sep_plus", 0, "exact_asymptotic", no_gain,
               recompute=partial(_sep_plus_floor, _pauli_gens, "cr"), p_ref=p),
        _entry("cr", "jnt", 0, "cited",
               "cited: optimal parallel field-sensing scheme, valid n >= 6",
               coefficient=float(p ** 2), variant="parallel", finite_n=True),
        _entry("cr", "jnt", 0, "cited",
               "cited: ancilla-assisted adaptive scheme",
               coefficient=float(p), variant="adaptive"),
        _entry("mm", "sep", 0, "lower_bound",
               "computed: optimal resource split (attainability open)",
               recompute=partial(_unit_sep, "mm"), p_ref=p),
        _entry("mm", "sep_plus", 0, "lower_bound", no_gain,
               recompute=partial(_sep_plus_floor, _pauli_gens, "mm"), p_ref=p),
    )


@lru_cache(maxsize=None)
def _pauli_gens(p):
    return build_pauli_generators(_PAULI_COMPONENTS[f"pauli{p}"])


def _fixed_atoms() -> ModelRecord:
    return ModelRecord(
        name="fixed_atoms",
        p_fixed=None,
        notes=(
            "one gate = one p-atom layer; joint strategy beats separate ones "
            "only in the minimax paradigm (advantage grows linearly in p)"
        ),
        entries=(
            _entry("cr", "sep", 2, "exact_asymptotic", _COM_SPLIT,
                   recompute=partial(_sep, build_fixed_atom_generators, "cr")),
            _entry("cr", "sep_plus", 1, "exact_asymptotic",
                   "computed: spread-balancing orthogonal reparametrization",
                   recompute=_fixed_cr_sep_plus),
            _entry("cr", "jnt", 1, "exact_asymptotic",
                   "computed: trace of inverse information at the product probe",
                   recompute=_fixed_cr_jnt),
            _entry("mm", "sep", 3, "exact_asymptotic", _COM_SPLIT,
                   recompute=partial(_sep, build_fixed_atom_generators, "mm")),
            _entry("mm", "sep_plus", 2, "exact_asymptotic",
                   "computed: spread-balancing reparametrization saturates the "
                   "single-vector bound",
                   recompute=partial(_sep_plus_floor, build_fixed_atom_generators, "mm")),
            _entry("mm", "jnt", 1, "exact_asymptotic",
                   "computed: rotation bound at the original parametrization, "
                   "saturated by per-parameter sine probes",
                   recompute=_fixed_mm_jnt),
        ),
    )


def _free_atoms() -> ModelRecord:
    return ModelRecord(
        name="free_atoms",
        p_fixed=None,
        notes=(
            "one gate = one atom; no joint advantage in the repetition "
            "paradigm, constant-factor advantage (up to ~pi^2/0.63) in minimax"
        ),
        entries=(
            _entry("cr", "sep", 2, "exact_asymptotic", _COM_SPLIT,
                   recompute=partial(_sep, build_free_atom_generators, "cr")),
            _entry("cr", "sep_plus", 2, "exact_asymptotic",
                   "computed: single-vector spread maximization (no gain: "
                   "orthogonal nonzero eigenspaces)",
                   recompute=partial(_sep_plus_floor, build_free_atom_generators, "cr")),
            _entry("cr", "jnt", 2, "exact_asymptotic",
                   "computed: trace of inverse information at the superposed "
                   "per-site probe",
                   recompute=_free_cr_jnt),
            _entry("mm", "sep", 3, "exact_asymptotic", _COM_SPLIT,
                   recompute=partial(_sep, build_free_atom_generators, "mm")),
            _entry("mm", "sep_plus", 3, "exact_asymptotic",
                   "computed: single-vector spread maximization (no gain)",
                   recompute=partial(_sep_plus_floor, build_free_atom_generators, "mm")),
        ) + _free_mm_jnt_bracket(),
    )


def _free_mm_jnt_bracket():
    """The free-atom MM JNT lower (Airy) and upper (ball limit) entries."""
    return (
        _entry("mm", "jnt", 3, "lower_bound",
               "computed: symmetrized Airy variational bound",
               recompute=_free_mm_jnt_lower, variant="lower"),
        _entry("mm", "jnt", 3, "upper_bound",
               "cited: inscribed-ball trial state, large-p limit",
               coefficient=1.0, variant="upper"),
    )


def _pauli3() -> ModelRecord:
    return ModelRecord(
        name="pauli3",
        p_fixed=3,
        notes=(
            "noncommuting three-component field at zero field; parallel joint "
            "CR gain vanishes as n grows, adaptive scheme reaches 3/(k n^2); "
            "minimax joint optimum 4 pi^2 needs no adaptiveness"
        ),
        entries=_pauli_entries(3) + (
            _entry("mm", "jnt", 0, "cited",
                   "cited: covariant rotation-group optimum",
                   coefficient=4.0 * PI2),
        ),
    )


def _pauli2() -> ModelRecord:
    return ModelRecord(
        name="pauli2",
        p_fixed=2,
        notes="two-component field at zero field; minimax joint optimum 4 xi^2 "
              "with xi the first zero of the order-zero Bessel function",
        entries=_pauli_entries(2) + (
            _entry("mm", "jnt", 0, "cited",
                   "cited: covariant unit-vector transmission optimum",
                   coefficient=4.0 * bessel_j_first_zero(0.0) ** 2),
        ),
    )


def _pauli1() -> ModelRecord:
    return ModelRecord(
        name="pauli1",
        p_fixed=1,
        notes="single field component: the scalar phase problem",
        entries=(
            _entry("cr", "sep", 0, "exact_asymptotic",
                   "computed: single-parameter repetition optimum",
                   recompute=partial(_single, "cr"), p_ref=1),
            _entry("cr", "sep_plus", 0, "exact_asymptotic",
                   "computed: single-parameter repetition optimum",
                   recompute=partial(_single, "cr"), p_ref=1),
            _entry("cr", "jnt", 0, "exact_asymptotic",
                   "computed: single-parameter repetition optimum",
                   recompute=partial(_single, "cr"), p_ref=1),
            _entry("mm", "sep", 0, "exact_asymptotic",
                   "computed: single-parameter minimax optimum",
                   recompute=partial(_single, "mm"), p_ref=1),
            _entry("mm", "sep_plus", 0, "exact_asymptotic",
                   "computed: single-parameter minimax optimum",
                   recompute=partial(_single, "mm"), p_ref=1),
            _entry("mm", "jnt", 0, "exact_asymptotic",
                   "computed: single-parameter minimax optimum",
                   recompute=partial(_single, "mm"), p_ref=1),
        ),
    )


def _interferometer() -> ModelRecord:
    return ModelRecord(
        name="interferometer_p_arms",
        p_fixed=None,
        notes="p phases against one reference arm; reference rows only "
              "(no generator-level model in this package)",
        entries=(
            _entry("cr", "sep", 2, "exact_asymptotic",
                   "computed: optimal resource split of unit-spread phase protocols",
                   recompute=partial(_unit_sep, "cr")),
            _entry("cr", "jnt", 2, "cited",
                   "cited: multiarm-interferometer joint optimum",
                   coefficient=0.25),
            _entry("mm", "sep", 3, "exact_asymptotic",
                   "computed: optimal resource split of unit-spread phase protocols",
                   recompute=partial(_unit_sep, "mm")),
            _entry("mm", "jnt", 3, "cited",
                   "cited: multiarm-interferometer minimax bracket, lower",
                   coefficient=1.89, variant="lower"),
            _entry("mm", "jnt", 3, "cited",
                   "cited: multiarm-interferometer minimax bracket, upper",
                   coefficient=2.0, variant="upper"),
        ),
    )


# record name -> its builder, in registry order
_BUILDERS = {
    "fixed_atoms": _fixed_atoms,
    "free_atoms": _free_atoms,
    "pauli3": _pauli3,
    "pauli2": _pauli2,
    "pauli1": _pauli1,
    "interferometer_p_arms": _interferometer,
}


@lru_cache(maxsize=None)
def get_model(name: str) -> ModelRecord:
    """The registry record ``name``; only that record is built."""
    if name not in _BUILDERS:
        raise InvalidArgumentError(f"unknown catalog model {name!r}")
    return _BUILDERS[name]()


@lru_cache(maxsize=None)
def table_one() -> tuple:
    """The full registry: six models, both paradigms, all strategies."""
    return tuple(get_model(name) for name in _BUILDERS)


def ordering_violations(record: ModelRecord, p: int, n: int = 100) -> list:
    """Check JNT <= SEP+ <= SEP and SEP <= p^alpha * JNT for both paradigms.

    JNT brackets are compared through their smallest recorded constant.
    Returns human-readable violation strings (empty when all hold).
    """
    tol = 1e-9
    p_eval = record.p_fixed if record.p_fixed is not None else p
    problems = []
    for paradigm in ("cr", "mm"):
        rows = [e.at(p_eval, n) for e in record.entries if e.estimate.paradigm == paradigm]
        if not rows:
            continue
        by = {}
        for est in rows:
            by.setdefault(est.strategy, []).append(est.constant)
        sep = min(by.get("sep", [math.inf]))
        sep_plus = min(by.get("sep_plus", [math.inf]))
        jnt = min(by.get("jnt", [math.inf]))
        alpha, _ = paradigm_constants(paradigm)
        if "sep_plus" in by and sep_plus > sep * (1 + tol):
            problems.append(f"{record.name}/{paradigm}: SEP+ {sep_plus} > SEP {sep}")
        if "sep_plus" in by and jnt > sep_plus * (1 + tol):
            problems.append(f"{record.name}/{paradigm}: JNT {jnt} > SEP+ {sep_plus}")
        if jnt > sep * (1 + tol):
            problems.append(f"{record.name}/{paradigm}: JNT {jnt} > SEP {sep}")
        if sep > p_eval ** alpha * jnt * (1 + tol):
            problems.append(
                f"{record.name}/{paradigm}: SEP {sep} > p^{alpha} * JNT {jnt}"
            )
    return problems


# ---------------------------------------------------------------------------
# rows of the bounds command


def bounds_rows(model: str, paradigm: str, p: int, n: int, alpha: float, beta: float) -> list:
    """The cost records that the ``bounds`` command prints for ``model`` (one
    of ``GENERATOR_MODELS``) in ``paradigm``, in order: the registry rows at
    finite ``n`` for the Pauli models, computed rows for the others."""
    paradigm_constants(paradigm)
    if model in _PAULI_COMPONENTS:
        record = get_model(model)
        return [e.at(record.p_fixed, n) for e in record.entries
                if e.estimate.paradigm == paradigm]
    if model == "two-sector":
        return _two_sector_rows(paradigm, alpha, beta)
    gens = build_model(model, p, alpha, beta)
    rows = [
        sep_cost(per_parameter_spread_constants(gens, paradigm), paradigm),
        replace(sep_plus_lower_bound(gens, paradigm), variant="lower"),
        replace(sep_plus_optimize(gens, paradigm)[1], variant="search"),
        replace(jnt_lower_bound(gens, paradigm), variant="rotation_bound"),
    ]
    if model == "free-atoms" and paradigm == "mm":
        airy, ball = (e.at(p, n) for e in _free_mm_jnt_bracket())
        rows += [
            replace(airy, variant="airy_lower"),
            replace(ball, variant="ball_limit_upper"),
            CostEstimate("mm", "jnt", float(p ** 2), 2, "lower_bound",
                         "cited: rotation bound as published (pi^2 bookkeeping dropped)",
                         variant="rotation_bound_as_published"),
        ]
    return rows


def _two_sector_rows(paradigm, alpha, beta):
    if paradigm != "cr":
        raise InvalidArgumentError("the two-sector model is analyzed in the CR paradigm only")
    gens = build_two_sector_generators(alpha, beta)
    identity = ReparamMatrix(np.eye(2))
    return [  # computed in row order
        CostEstimate("cr", "sep", sep_plus_value(identity, elfving_variance_oracle(gens, "cr"), 1),
                     0, "exact_asymptotic",
                     "computed: per-parameter nuisance-aware constants at identity"),
        replace(sep_plus_optimize(gens, "cr")[1], variant="search"),
        CostEstimate("cr", "sep_plus", orthogonal_restricted_sep_plus((alpha, beta)),
                     0, "exact_asymptotic",
                     # worded before the closed form; perfbench/reference.json pins it
                     "computed: rotation-angle scan with nuisance-aware constants",
                     variant="orthogonal_restricted"),
        CostEstimate("cr", "jnt", trace_inverse(qfi_pure(gens, np.zeros(2), uniform_state(4), 1)),
                     0, "exact_asymptotic",
                     "computed: trace of inverse information at the uniform probe"),
    ]


# ---------------------------------------------------------------------------
# figure data


def figure_ball_data(p_max: int):
    """Normalized minimax constants (cost * N^2 / p^3) behind the ball figure.

    Returns ``(rows, analytic_points)``: one row per p with the separate
    strategy's pi^2, the inscribed-ball value E/p^3 and the Airy constant,
    plus the exact p = 1, 2 points pi^2 and 4 pi^2 / 8.
    """
    if p_max < 2:
        raise InvalidArgumentError("p_max must be >= 2")
    if p_max > BALL_P_MAX:
        raise ResourceLimitError(f"p_max must be <= {BALL_P_MAX} for the ball bound")
    airy_c = _airy_constant()
    rows = []
    for p in range(1, p_max + 1):
        e = ball_upper_bound(p)
        rows.append(
            {
                "p": p,
                "sep_norm": PI2,
                "ball_norm": e / p ** 3,
                "airy_norm": airy_c,
            }
        )
    analytic = [
        {"p": 1, "analytic_norm": PI2},
        {"p": 2, "analytic_norm": 4.0 * PI2 / 8.0},
    ]
    return rows, analytic


def figure_ratio_data(alpha: float, beta_grid):
    """Orthogonal-vs-general reparametrization cost ratio for the two-sector
    model over a grid of strength ratios beta/alpha: ``orthogonal_restricted_sep_plus``
    over 2/(alpha-beta)^2 + 2/(alpha+beta)^2, (alpha (alpha+beta)/(alpha^2+beta^2))^2."""
    rows = []
    for beta in beta_grid:
        check_two_sector_strengths(alpha, beta)
        general = 2.0 / (alpha - beta) ** 2 + 2.0 / (alpha + beta) ** 2
        ortho = orthogonal_restricted_sep_plus((alpha, beta))
        rows.append({"beta_over_alpha": beta / alpha, "ratio": ortho / general})
    return rows
