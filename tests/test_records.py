import copy
import pickle

import numpy as np
import pytest

from hlbounds import (
    AiryBoundResult,
    AllocationPlan,
    CatalogEntry,
    CostEstimate,
    HermitianOperator,
    InvalidArgumentError,
    ModelRecord,
    PhaseMeasurementModel,
    PhaseStateCoefficients,
    PureState,
    QfiMatrix,
    ReparamMatrix,
    SaturabilityReport,
    SimplexSpectrum,
    airy_lower_bound,
    allocate,
    get_model,
    noon_coefficients,
    simplex_ground_energy,
)
from hlbounds.solvers import MinimizeResult, minimize


def _cited_entry():
    # pauli3's cited CR joint optimum, 9 p^0 at p_ref 4 (no closure)
    return next(e for e in get_model("pauli3").entries if e.recompute is None)


def _cr_estimate():
    return CostEstimate("cr", "sep", 1.0, 2, "cited", "a test record")


# class -> (a valid instance, its constructions that must fail, each with
# the error message it raises)
RECORDS = {
    CostEstimate: (_cr_estimate, [
        (lambda: CostEstimate("cr", "sep", 0.0, 2, "cited"), "cost constant must be positive"),
        (lambda: CostEstimate("cr", "sep", 1.0, 2, "guessed"), "unknown status 'guessed'"),
        (lambda: CostEstimate("xx", "sep", 1.0, 2, "cited"), "paradigm must be 'cr' or 'mm'"),
        # the catalog's copies are validated again
        (lambda: _cr_estimate().replace(constant=-1.0), "cost constant must be positive"),
        (lambda: _cr_estimate().replace(status="guessed"), "unknown status 'guessed'"),
        (lambda: CatalogEntry(_cr_estimate(), 4).at(0, 100), "cost constant must be positive"),
    ]),
    AllocationPlan: (lambda: allocate([1.0, 2.0], 1), [
        (lambda: AllocationPlan(3, np.ones(2)), "alpha must be 1 .CR. or 2 .MM."),
    ]),
    CatalogEntry: (_cited_entry, []),
    ModelRecord: (lambda: get_model("pauli3"), []),
    HermitianOperator: (lambda: HermitianOperator(np.diag([0.5, -0.5])), [
        (lambda: HermitianOperator([[0.0, 1.0], [0.0, 0.0]]),
         "matrix is not Hermitian to 1e-12 relative"),
    ]),
    ReparamMatrix: (lambda: ReparamMatrix(np.eye(2)), [
        (lambda: ReparamMatrix([[1.0, 2.0], [2.0, 4.0]]), "reparametrization matrix is singular"),
    ]),
    QfiMatrix: (lambda: QfiMatrix(np.eye(2)), [
        (lambda: QfiMatrix(np.eye(2), scale=0.0), "QFI scale must be positive"),
    ]),
    SaturabilityReport: (lambda: SaturabilityReport(np.zeros((2, 2))), []),
    MinimizeResult: (lambda: minimize(lambda x: float(x @ x), [1.0, 1.0]), []),
    PureState: (lambda: PureState([1.0, 0.0]), [
        (lambda: PureState([1.0, 1.0]), "state vector is not normalized to 1e-12"),
    ]),
    PhaseStateCoefficients: (lambda: noon_coefficients(2), [
        (lambda: PhaseStateCoefficients(2, [1.0, 0.0]), "expected 3 coefficients, got 2"),
    ]),
    SimplexSpectrum: (lambda: simplex_ground_energy(2, 20), []),
    AiryBoundResult: (airy_lower_bound, []),
    PhaseMeasurementModel: (lambda: PhaseMeasurementModel(noon_coefficients(2)), []),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_and_keep_their_checks(cls):
    make, broken = RECORDS[cls]
    record = make()
    assert type(record) is cls
    assert not hasattr(cls, "__dataclass_fields__")
    fields = getattr(cls, "_fields", None) or cls.__slots__
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    # copy and pickle rebuild every field, as they do a frozen dataclass's
    assert repr(copy.copy(record)) == repr(record)
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    for construct, message in broken:
        with pytest.raises(InvalidArgumentError, match=message):
            construct()
