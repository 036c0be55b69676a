"""Shared fixtures: whole sieves, the first refined zero, numpy and sieve stubs."""

import pytest

from zdl import double_array, refine, scan_critical_line, sieve


@pytest.fixture(scope="session")
def sieve2k():
    """(omega, liouville) for rows 0..2000."""
    return sieve(2000)


@pytest.fixture(scope="session")
def sieve1m():
    """(omega, liouville) for rows 0..1_000_000."""
    return sieve(1_000_000)


@pytest.fixture(scope="session")
def first_zero():
    brackets = scan_critical_line(14.0, 14.3, 0.01)
    assert len(brackets) == 1
    return refine(brackets[0])


@pytest.fixture
def no_numpy(monkeypatch):
    """Call with a module to swap its numpy for a stub that fails on any use.

    A guard tested under the stub provably rejects its input before
    allocating anything.
    """

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the input check")

    return lambda module: monkeypatch.setattr(module, "np", NoNumpy())


@pytest.fixture
def sieved(monkeypatch):
    """The row range (n_lo, n_max) of every sieve LeeArray runs, in order."""
    ranges = []

    def record(n_max, n_lo=0):
        ranges.append((n_lo, n_max))
        return sieve(n_max, n_lo)

    monkeypatch.setattr(double_array, "sieve", record)
    return ranges


@pytest.fixture
def no_sieve(monkeypatch):
    """The row ranges LeeArray asks to sieve, each refused with an AssertionError.

    A refusal tested under the stub provably comes before any sieve.
    """
    ranges = []

    def refuse(n_max, n_lo=0):
        ranges.append((n_lo, n_max))
        raise AssertionError(f"asked to sieve rows {n_lo}..{n_max} before the input check")

    monkeypatch.setattr(double_array, "sieve", refuse)
    return ranges
