"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def survival_calls(monkeypatch):
    """The argument tuples of every survival-series kernel call made
    through ``secrecy._k`` during the test."""
    from kmusec import secrecy

    calls = []
    kernels = secrecy._k

    class Counting:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def survival_series(self, *args, **kwargs):
            calls.append(args)
            return kernels.survival_series(*args, **kwargs)

    monkeypatch.setattr(secrecy, "_k", Counting())
    return calls
