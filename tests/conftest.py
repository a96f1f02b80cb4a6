import pytest

from suisim import verify


@pytest.fixture(scope="session")
def verify_results():
    """One run of every ``verify`` check, shared by the acceptance and golden tests."""
    return verify.run_all()
