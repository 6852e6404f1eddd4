import pytest
from hypothesis import HealthCheck, settings

from signedkn import enumerate_tree_classes

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def classes_of():
    """Memoized isomorphism-class enumeration shared across test modules:
    one representative tree per class, in canonical-code order."""
    cache: dict[int, tuple] = {}

    def get(n: int):
        if n not in cache:
            cache[n] = tuple(enumerate_tree_classes(n).values())
        return cache[n]

    return get
