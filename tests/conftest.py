import pytest

from subsetsum import sumset


@pytest.fixture
def fft_hulls(monkeypatch):
    """Hull of every FFT row the level kernel computes during the test, in
    order: one per pair of each batched FFT."""
    hulls = []
    fft_rows = sumset._fft_rows

    def spy(level, pairs, nfft):
        for i in pairs.tolist():
            a, b = level[2 * i], level[2 * i + 1]
            hulls.append(int(a[-1] - a[0]) + int(b[-1] - b[0]) + 1)
        return fft_rows(level, pairs, nfft)

    monkeypatch.setattr(sumset, "_fft_rows", spy)
    return hulls
