"""Pauli matrices, the Levi-Civita symbol and its contractions written out,
shared across modules.

cross and curl are the two Levi-Civita contractions the field and winding
integrands need.  Each output component is the difference of two products
(or two derivatives), so none of the 27 entries of EPS3 is ever multiplied
out; the einsum over EPS3 is their reference in the tests."""
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


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b along the first axis (the rest broadcast):
    (a x b)_i = eps_{ijk} a_j b_k."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def curl(dA: np.ndarray) -> np.ndarray:
    """eps_{ijk} d_j A_k of dA[n][j][k][...] (d_j A_k, the layout of
    StencilConfig._gradient of a vector field), shape [n][i][...]."""
    return np.stack([dA[:, 1, 2] - dA[:, 2, 1], dA[:, 2, 0] - dA[:, 0, 2], dA[:, 0, 1] - dA[:, 1, 0]], axis=1)
