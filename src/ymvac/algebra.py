"""Pauli matrices, the Levi-Civita symbol and its contractions written out,
the Euclidean norm of 3-vectors, and exact summation, shared across modules.

cross and curl are the two Levi-Civita contractions the field and winding
integrands need.  Each output component is the difference of two products
(or two derivatives), so none of the 27 entries of EPS3 is ever multiplied
out; the einsum over EPS3 is their reference in the tests.  norm, in their
layout, adds np.linalg.norm's squares in numpy's order: the same bits, faster.

exact_sums adds long float rows to the bits of math.fsum (correctly rounded,
so independent of the order of the terms) at numpy speed; the rotator's
theta and Green sums and the window sums H_k of the interference tail use
it."""
from __future__ import annotations

import math

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


def norm(v: np.ndarray) -> np.ndarray:
    """|v| along the first axis of length 3 (the rest broadcast), bit for bit
    np.linalg.norm over that axis: sqrt((v_0^2 + v_1^2) + v_2^2)."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def curl(dA: np.ndarray) -> np.ndarray:
    """eps_{ijk} d_j A_k of dA[n][j][k][...] (d_j A_k, the layout of
    StencilConfig._gradient of a vector field), shape [n][i][...]."""
    return np.stack([dA[:, 1, 2] - dA[:, 2, 1], dA[:, 2, 0] - dA[:, 0, 2], dA[:, 0, 1] - dA[:, 1, 0]], axis=1)


_FSUM_BELOW = 1024  # rows shorter than this go to math.fsum, which is faster there
_EXACT_MAX_TERMS = 1 << 22  # with |x| <= 2^1000 no sum then passes 2^1022: fsum never overflows
_CHUNK = 1 << 15  # elements per block: the two work arrays stay at 256 KiB each


def exact_sums(rows) -> list[float]:
    """math.fsum of each 1-D float row (a 2-D array gives its rows), bit for
    bit, in a few vectorized passes per block of _CHUNK elements.

    Each pass splits the block p at sigma = 2^k >= 2 len(p) max|p| (Rump, Ogita
    and Oishi's ExtractVector): q = (sigma + p) - sigma rounds p to a multiple
    of 2^-53 sigma, the partial sums of q are multiples of it below sigma and
    so exact in any order, and the remainder p - q is exact and at most
    2^-53 sigma.  Passes repeat on the remainder until it is zero, so the
    block sums tau hold the row's sum exactly, and math.fsum of the few tau
    rounds it once, correctly, as fsum of the row does.  Short rows, rows past
    _EXACT_MAX_TERMS, rows holding a value that is not finite or exceeds
    2^1000 in size (fsum's inf, nan and OverflowError) go to math.fsum itself."""
    sums = []
    for row in rows:
        row = np.asarray(row, dtype=float)
        taus = _exact_parts(row) if _FSUM_BELOW <= row.size <= _EXACT_MAX_TERMS else None
        if taus is None:  # a memoryview hands fsum one float at a time, not a list of them all
            sums.append(math.fsum(memoryview(np.ascontiguousarray(row))))
        elif not taus:  # a row of zeros: fsum's +0.0, or its sum of one -0.0 when all are -0.0
            sums.append(math.fsum(row[:1].tolist()) if np.signbit(row).all() else 0.0)
        else:
            sums.append(math.fsum(taus))
    return sums


def _exact_parts(row: np.ndarray) -> list[float] | None:
    """Floats whose exact sum is the row's (none for a row of zeros), or None
    when the row holds a value outside [-2^1000, 2^1000], NaN included."""
    taus = []
    for start in range(0, row.size, _CHUNK):
        block = row[start:start + _CHUNK]
        lo, hi = block.min(), block.max()
        if not (-2.0**1000 <= lo and hi <= 2.0**1000):  # False for NaN
            return None
        top = max(-lo, hi)
        if top == 0.0:
            continue
        grow = block.size.bit_length() + 1  # 2^grow >= 2 len(block)
        p = block.copy()
        q = np.empty_like(p)
        while top != 0.0:
            sigma = math.ldexp(1.0, math.frexp(top)[1] + grow)
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            taus.append(float(q.sum()))
            top = max(-p.min(), p.max())
    return taus
