"""Golden values of the phase Monte-Carlo check, bit for bit.

``phase_cost_monte_carlo`` is pinned with ``==`` on the (mean, stderr) pair,
stored as ``float.hex``: the README case, the sine state at N = 12 and 48 for
two seeds at 10^6 samples, a NOON state, the flat density and a sine state
whose pdf grid is 2^15.  Any change to the sampler's arithmetic, its index
search or its generator shows up here.  Regenerate with
``python tests/test_phase_mc_golden.py`` and review the diff of
``golden/phase_mc.json``.
"""

import json
import sys
from pathlib import Path

import pytest

from hlbounds import (
    PhaseMeasurementModel,
    PhaseStateCoefficients,
    noon_coefficients,
    phase_cost_monte_carlo,
    sin_coefficients,
)

GOLDEN = Path(__file__).parent / "golden" / "phase_mc.json"

# name -> (coefficients, samples, seed)
CASES = {
    "readme_sin_20": (lambda: sin_coefficients(20), 100_000, 7),
    "sin_12_seed_1": (lambda: sin_coefficients(12), 1_000_000, 1),
    "sin_12_seed_2024": (lambda: sin_coefficients(12), 1_000_000, 2024),
    "sin_48_seed_1": (lambda: sin_coefficients(48), 1_000_000, 1),
    "sin_48_seed_2024": (lambda: sin_coefficients(48), 1_000_000, 2024),
    "noon_16_seed_42": (lambda: noon_coefficients(16), 1_000_000, 42),
    "flat": (lambda: PhaseStateCoefficients(1, [1.0, 0.0]), 100_000, 3),
    "sin_5000": (lambda: sin_coefficients(5000), 100_000, 5),
}


def mean_and_stderr(name):
    coeffs, samples, seed = CASES[name]
    return phase_cost_monte_carlo(PhaseMeasurementModel(coeffs()), samples, seed)


def capture():
    return {name: [v.hex() for v in mean_and_stderr(name)] for name in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_phase_monte_carlo_is_bit_identical(golden, name):
    want = tuple(float.fromhex(v) for v in golden[name])
    assert mean_and_stderr(name) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    sys.exit(0)
