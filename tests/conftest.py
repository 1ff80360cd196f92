"""Shared test fixtures."""

import pytest
import scipy.fft


def _counted(monkeypatch, name):
    """List that gains one entry per call of scipy.fft.<name> during the test."""
    calls = []
    transform = getattr(scipy.fft, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return transform(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, name, counted)
    return calls


@pytest.fixture
def inverse_transforms(monkeypatch):
    """List that gains one entry per inverse transform during the test:
    `geometry.from_spectrum` makes one scipy.fft.irfft call, on the last axis."""
    return _counted(monkeypatch, "irfft")


@pytest.fixture
def forward_transforms(monkeypatch):
    """List that gains one entry per scipy.fft.rfftn call during the test."""
    return _counted(monkeypatch, "rfftn")
