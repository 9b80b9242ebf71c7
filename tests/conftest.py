"""Mutants shared by several test files, applied in-process."""

import pytest

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
