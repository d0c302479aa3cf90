import pytest

from subsetsum import sumset


@pytest.fixture
def fft_hulls(monkeypatch):
    """Hull of every FFT the sumset kernels run during the test, in order."""
    hulls = []
    fft = sumset._fft_values

    def spy(a, b):
        hulls.append((a[-1] - a[0]) + (b[-1] - b[0]) + 1)
        return fft(a, b)

    monkeypatch.setattr(sumset, "_fft_values", spy)
    return hulls
