"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from mzfidelity.optics import _transfer_matrices


def _holevo_bits(coeffs):
    # averaged over a uniform phase, the state inside the interferometer is
    # diagonal in the phase-stage basis with weights |b_n|^2, b = W_R c, so
    # chi = -sum |b_n|^2 log2 |b_n|^2 bounds the MI of every measurement
    # (Holevo, Probl. Peredachi Inf. 9(3), 3 (1973))
    weights = np.abs(_transfer_matrices(coeffs.size - 1)[1] @ coeffs) ** 2
    weights = weights[weights > 0.0]
    return float(-np.sum(weights * np.log2(weights)))


@pytest.fixture
def holevo_bits():
    """chi(c): the Holevo bound on the bits any one use of the device carries."""
    return _holevo_bits
