"""Pauli matrices, the Levi-Civita symbol and its contractions written out,
the Euclidean norm of 3-vectors, and exact summation, shared across modules.

cross and curl are the two Levi-Civita contractions the field and winding
integrands need.  Each output component is the difference of two products
(or two derivatives), so none of the 27 entries of EPS3 is ever multiplied
out; the einsum over EPS3 is their reference in the tests.  norm, in their
layout, adds np.linalg.norm's squares in numpy's order: the same bits, faster.

exact_sums adds long float rows to the bits of math.fsum (correctly rounded,
so independent of the order of the terms) at numpy speed: it splits a row
into parts that add exactly only until a rounding test, the float sum of
what is left within a proven bound, decides the last bit.  The rotator's
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
_LEVELS = 3  # rounding tests of a one-block row before its remainder is split to zero


def exact_sums(rows) -> list[float]:
    """math.fsum of each 1-D float row (a 2-D array gives its rows), bit for
    bit, in a few vectorized passes per block of _CHUNK elements.

    A pass splits the block x at sigma = 2^e >= 2 len(x) max|x| (Rump, Ogita
    and Oishi's ExtractVector): q = (sigma + x) - sigma rounds x to a multiple
    of 2^(e-53), the partial sums of q are multiples of it below sigma and so
    exact in any order, and the remainder p = x - q is exact and at most
    2^(e-53) in size.  The sums tau of q and the remainder hold the row's sum
    exactly.

    A row of one block stops once its rounding is decided (their AccSum):
    the remainder's plain float sum r is within B = 2^(2 bitlen(n) + e - 105)
    > gamma_(n-1) n 2^(e-53) of its exact sum, in any order, so when math.fsum
    of the taus with r - B and with r + B is one float, that float is fsum of
    the row, rounding being monotone.  Otherwise the next pass splits the
    remainder at 2^(e - 53 + bitlen(n) + 1), which its bound alone fixes.
    After _LEVELS tests, when the interval holds zero (an exactly cancelling
    row), or once 2^(e-53) is subnormal, the remainder is split in place until
    it is zero, as each block of a longer row is, and math.fsum of all the
    taus rounds their sum once, correctly, as fsum of the row does.  The rows
    of one call share the two work arrays.  Short rows, rows past
    _EXACT_MAX_TERMS, rows holding a value that is not finite or exceeds
    2^1000 in size (fsum's inf, nan and OverflowError) go to math.fsum itself."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    sizes = [row.size for row in rows if _FSUM_BELOW <= row.size <= _EXACT_MAX_TERMS]
    work = np.empty((2, min(max(sizes), _CHUNK))) if sizes else None
    sums = []
    for row in rows:
        total = _exact_sum(row, work) if _FSUM_BELOW <= row.size <= _EXACT_MAX_TERMS else None
        if total is None:  # a memoryview hands fsum one float at a time, not a list of them all
            total = math.fsum(memoryview(np.ascontiguousarray(row)))
        sums.append(total)
    return sums


def _exact_sum(row: np.ndarray, work: np.ndarray) -> float | None:
    """math.fsum of the row, with work[0] and work[1] as the remainder p and
    the split q, or None when the row holds a value outside [-2^1000, 2^1000],
    NaN included."""
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
        p, q = work[:, :block.size]
        e = math.frexp(top)[1] + grow
        taus.append(_extract(block, e, p, q))
        if block.size == row.size:
            total = _decided(p, q, e, grow, taus)
            if total is not None:
                return total
        top = max(-p.min(), p.max())
        while top != 0.0:
            taus.append(_extract(p, math.frexp(top)[1] + grow, p, q))
            top = max(-p.min(), p.max())
    if not taus:  # a row of zeros: fsum's +0.0, or its sum of one -0.0 when all are -0.0
        return math.fsum(row[:1].tolist()) if np.signbit(row).all() else 0.0
    return math.fsum(taus)


def _extract(x: np.ndarray, e: int, p: np.ndarray, q: np.ndarray) -> float:
    """Split x at sigma = 2^e into q = (sigma + x) - sigma and the remainder
    p = x - q (p may be x itself); the exact sum of q."""
    sigma = math.ldexp(1.0, e)
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=p)
    return float(q.sum())


def _decided(p: np.ndarray, q: np.ndarray, e: int, grow: int, taus: list) -> float | None:
    """The correctly rounded sum of the taus and of the remainder p, split
    last at 2^e, once a rounding test decides it, with the taus of the further
    passes appended; None if no test decides it."""
    width = 2 * p.size.bit_length() - 105
    for level in range(_LEVELS):
        if e - 53 < -1022:  # 2^(e-53) subnormal: stop well before B could underflow
            return None
        if level:
            taus.append(_extract(p, e, p, q))
        r = float(p.sum())
        bound = math.ldexp(1.0, width + e)
        lo, hi = math.fsum(taus + [r, -bound]), math.fsum(taus + [r, bound])
        if lo == hi:
            return lo
        if lo <= 0.0 <= hi:
            return None
        e += grow - 53
    return None
