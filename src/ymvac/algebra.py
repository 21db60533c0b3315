"""Pauli matrices and the Levi-Civita symbol, shared across modules."""
from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)

# Pauli matrices tau^1, tau^2, tau^3.
TAU = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


EPS3 = _levi_civita()
