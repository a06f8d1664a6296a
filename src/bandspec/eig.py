"""Eigenvalues of Hermitian band matrices without densification.

LAPACK's band eigensolver (``scipy.linalg.eigvals_banded``) reduces the band
to real tridiagonal form by unitary rotations with bulge chasing and then
solves the tridiagonal problem; it handles every bandwidth, including the
diagonal (0) and tridiagonal (1) cases, and works on the band storage
directly.  The first eigensolve imports ``scipy.linalg``, so that runs with
none never load it.
"""
from __future__ import annotations

import numpy as np

from .band_matrix import BandedHermitian
from .spectral import EmpiricalSpectrum

__all__ = ["eigenvalues"]


def eigenvalues(a: BandedHermitian) -> EmpiricalSpectrum:
    """Full spectrum of a Hermitian band matrix as an EmpiricalSpectrum.

    Raises ``np.linalg.LinAlgError`` when the solve returns a non-finite
    eigenvalue, as it does once a finite band's rotations overflow.
    """
    ab = a.lower_band()
    # the complex band reduction mis-rotates subnormal entries (eigenvalues off
    # by up to 1e-2 at unit scale); zeroing them moves each eigenvalue by at
    # most (2b + 1) * 2.2e-308
    ab[np.abs(ab) < np.finfo(float).tiny] = 0.0
    eigs = eigvals_banded(ab, lower=True, check_finite=False)
    if not np.isfinite(eigs).all():
        raise np.linalg.LinAlgError("band eigensolve returned a non-finite eigenvalue")
    return EmpiricalSpectrum(eigs)


def eigvals_banded(ab, **kwargs):
    """:func:`scipy.linalg.eigvals_banded`, imported by the first call; tracing
    replaces it by name to count the LAPACK route."""
    from scipy import linalg
    return linalg.eigvals_banded(ab, **kwargs)
