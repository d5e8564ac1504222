import functools

import pytest

from ncph.linalg import vec_add
from ncph.pipeline import Bundle, RunConfig


@functools.lru_cache(maxsize=None)
def bundle_for(type_label: str, rank: int, swap: bool = False) -> Bundle:
    """Shared, disk-cache-free bundle per group (heavy parts built lazily)."""
    return Bundle(RunConfig(type_label=type_label, rank=rank,
                            swap_classes=swap, cache=False))


def interior_point(system):
    """d_1 + ... + d_n: the dual rays' sum, inside the fundamental chamber,
    so a root is positive exactly when it pairs positively with it."""
    return functools.reduce(vec_add, system.dual_rays)


@pytest.fixture(scope="session")
def a2():
    return bundle_for("A", 2)


@pytest.fixture(scope="session")
def b3():
    return bundle_for("B", 3)


@pytest.fixture(scope="session")
def h3():
    return bundle_for("H", 3)
