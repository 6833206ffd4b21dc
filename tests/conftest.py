"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def survival_calls(monkeypatch):
    """The argument tuples of every survival series summed through
    ``secrecy._k`` during the test: one per ``survival_series`` call and
    one per row of a ``survival_series_many`` call."""
    from kmusec import secrecy

    calls = []
    kernels = secrecy._k

    class Counting:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def survival_series(self, *args, **kwargs):
            calls.append(args)
            return kernels.survival_series(*args, **kwargs)

        def survival_series_many(self, rows, *args, **kwargs):
            rows = list(rows)
            calls.extend(rows)
            return kernels.survival_series_many(rows, *args, **kwargs)

    monkeypatch.setattr(secrecy, "_k", Counting())
    return calls
