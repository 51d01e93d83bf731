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
def fresh_memo():
    """The Smith memo's four caches (blocks, pieces, decompositions, products), emptied.

    What the test adds to them stays for later tests.  A test that wants a
    cold memo again calls `cache_clear()` on each.
    """
    from stabkit import linalg

    caches = (linalg._reduced_block, linalg._piece, linalg._diagonal_only, linalg.product)
    for cache in caches:
        cache.cache_clear()
    return caches
