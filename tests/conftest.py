"""Shared test fixtures."""

import pytest
import scipy.fft


@pytest.fixture
def inverse_transforms(monkeypatch):
    """List that gains one entry per scipy.fft.irfftn call during the test."""
    calls = []
    irfftn = scipy.fft.irfftn

    def counted(*args, **kwargs):
        calls.append(1)
        return irfftn(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "irfftn", counted)
    return calls
