import pytest


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Every search reads PDFILL_BUDGET, so each test starts at the default
    budget whatever the shell sets; a test that wants another sets it."""
    monkeypatch.delenv("PDFILL_BUDGET", raising=False)
