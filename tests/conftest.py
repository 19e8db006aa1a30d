import pytest

from kelvinwake.oracle import EvalPoint


@pytest.fixture(scope="session")
def pt_m8():
    """x = 0.40, rho = 0.005: M = 8."""
    return EvalPoint(0.4, 0.005, 0.0)


@pytest.fixture(scope="session")
def pt_m125():
    """x = 1.00, rho = 0.020: M = 12.5."""
    return EvalPoint(1.0, 0.02, 0.0)


@pytest.fixture
def ck_stalled_from_c4(monkeypatch):
    """C_k tables built while this is active stall at C_4 and above: their
    rounding floor is raised so that no bisection lowers it.  The table
    cache is emptied before and after."""
    from kelvinwake import oracle

    gk21 = oracle._ck_gk21

    def stalling(*args):
        value, err, floor = gk21(*args)
        floor[4:] *= 1e6
        return value, err, floor

    monkeypatch.setattr(oracle, "_ck_gk21", stalling)
    oracle.oracle_Ck.cache_clear()
    yield
    oracle.oracle_Ck.cache_clear()
