import pytest

from biquot.refchecks import run_all


@pytest.fixture(scope="session")
def reference_results():
    """One run of the verify-paper reference checks, (name, ok, detail)
    per check, shared by the tests that read it: the order-60 oracle sweep
    inside it is the slowest check."""
    return run_all()
