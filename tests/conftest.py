"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from mzfidelity.optics import _beam_splitter


def _holevo_bits(coeffs, repeats=1):
    # averaged over a uniform phase, the state inside the interferometer is
    # diagonal in the phase-stage basis with weights |b_n|^2, b = W_R c =
    # K (p c) with p = i^(3n-N), so chi = -sum |b_n|^2 log2 |b_n|^2 bounds
    # the MI of every measurement
    # (Holevo, Probl. Peredachi Inf. 9(3), 3 (1973)).  Of R copies the phase
    # sees only the total count, so the averaged R-copy state is a sum of
    # pure blocks, one per total, weighted by the R-fold convolution of
    # |b_n|^2: chi_R is the entropy of that convolution
    k, phases, _ = _beam_splitter(coeffs.size - 1)
    single = np.abs(k @ (phases * coeffs)) ** 2
    weights = np.ones(1)
    for _ in range(repeats):
        weights = np.convolve(weights, single)
    weights = weights[weights > 0.0]
    return float(-np.sum(weights * np.log2(weights)))


@pytest.fixture
def holevo_bits():
    """chi(c, R): the Holevo bound on the bits R uses of the device carry."""
    return _holevo_bits
