import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "stabkit",
    deadline=None,
    database=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stabkit")


@pytest.fixture(scope="session")
def catalog():
    from stabkit.catalog import builtin_catalog

    return builtin_catalog()


@pytest.fixture(scope="session")
def k946(catalog):
    return catalog["9_46"]


@pytest.fixture(scope="session")
def k61(catalog):
    return catalog["6_1"]


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Smith memo for one test; the process memo is back afterwards."""
    from stabkit import linalg

    monkeypatch.setattr(linalg, "_tables", {})
