"""Mutants shared by several test files, applied in-process, and the
cache reset that lets a mutant reach every engine."""

import importlib
import pkgutil

import pytest

import nscheck
import nscheck.enveloping as enveloping
from nscheck.algebra import AlgebraMode


@pytest.fixture
def flipped_extension(monkeypatch):
    """A call that flips the sign of the forced extension, L'(-1) = +L(-1),
    for the rest of the test; checks made before the call see the true one."""
    original = enveloping.l_prime

    def flipped(n, mode=AlgebraMode.K):
        return -original(n, mode) if n == -1 else original(n, mode)

    return lambda: monkeypatch.setattr(enveloping, "l_prime", flipped)


@pytest.fixture
def fresh_tables():
    """Clear every cache of the nscheck modules (each attribute with a
    ``cache_clear``, once) before and after the test, so that a mutant
    reaches every engine and leaks into no other test; yields the caches."""
    found = {}
    for info in pkgutil.iter_modules(nscheck.__path__):
        module = importlib.import_module(f"nscheck.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    caches = list(found.values())
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()
