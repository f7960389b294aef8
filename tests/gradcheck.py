"""Gradient oracle shared by the net and hypergradient tests."""

import numpy as np


def finite_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g
