import pytest

import hlbounds.solvers as solvers_module


@pytest.fixture
def minimize_runs(monkeypatch):
    """Every Nelder-Mead result of the searches, each ``minimize_lockstep``
    call's in start order."""
    runs = []
    lockstep = solvers_module.minimize_lockstep

    def counting_lockstep(*args, **kwargs):
        results, rounds = lockstep(*args, **kwargs)
        runs.extend(results)
        return results, rounds

    monkeypatch.setattr(solvers_module, "minimize_lockstep", counting_lockstep)
    return runs
