"""Uniform periodic phase grid over (-pi, pi]."""

import numpy as np

DEFAULT_GRID_SIZE = 8192


def _integer(value, name: str, minimum: int = None) -> int:
    """``value`` as an int, or ValueError naming ``name`` if it is not an
    integer (8.7, inf, NaN, None, "3", True) or is below ``minimum``."""
    try:
        number = int(value)
        valid = (number == value and not isinstance(value, (bool, np.bool_))
                 and (minimum is None or number >= minimum))
    except (TypeError, OverflowError, ValueError):
        valid = False
    if not valid:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


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
        Number of grid points, an integer of at least 2 (a float that
        equals one is accepted; 8.7, inf and NaN are not).
    """

    def __init__(self, size: int):
        self.size = _integer(size, "grid size", minimum=2)
        self.points = np.linspace(-np.pi, np.pi, self.size + 1)[1:]
        self.weight = 2.0 * np.pi / self.size

    def integrate(self, values: np.ndarray):
        """Periodic trapezoid-rule integral of sampled values over (-pi, pi]."""
        return self.weight * np.sum(values)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseGrid) and other.size == self.size

    def __repr__(self) -> str:
        return f"PhaseGrid(size={self.size})"
