"""Uniform periodic phase grid over (-pi, pi]."""

import numpy as np

DEFAULT_GRID_SIZE = 8192


class PhaseGrid:
    """Uniform grid of ``size`` phase values covering (-pi, pi].

    The points are phi_k = -pi + 2*pi*k/size for k = 1..size, so -pi is
    excluded and the last point is exactly +pi.  ``weight`` is the
    quadrature weight 2*pi/size of the trapezoid rule on this grid (all
    integrands here are 2*pi-periodic, so every point carries the same
    weight).

    Parameters
    ----------
    size : int
        Number of grid points, at least 2.
    """

    def __init__(self, size: int):
        size = int(size)
        if size < 2:
            raise ValueError(f"phase grid needs at least 2 points, got {size}")
        self.size = size
        self.points = np.linspace(-np.pi, np.pi, size + 1)[1:]
        self.weight = 2.0 * np.pi / size

    def integrate(self, values: np.ndarray):
        """Periodic trapezoid-rule integral of sampled values over (-pi, pi]."""
        return self.weight * np.sum(values)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseGrid) and other.size == self.size

    def __repr__(self) -> str:
        return f"PhaseGrid(size={self.size})"
