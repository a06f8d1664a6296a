import numpy as np
import pytest

import bandspec
from bandspec import BandedHermitian


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH
    return f"bandspec: {bandspec.__file__}"


def random_banded(n: int, bandwidth: int, rng: np.random.Generator) -> BandedHermitian:
    """Random Hermitian band matrix (not necessarily PSD)."""
    diag = rng.standard_normal(n)
    sub = tuple(
        rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
        for k in range(1, bandwidth + 1)
    )
    return BandedHermitian(diag, sub)


def dense_eigenvalues(a: BandedHermitian) -> np.ndarray:
    """Brute-force oracle: dense Hermitian solve."""
    return np.linalg.eigvalsh(a.to_dense())


@pytest.fixture
def rng():
    return np.random.default_rng(0xBA5EBA11)
