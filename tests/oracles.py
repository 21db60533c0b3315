"""Reference forms that the tests and bench/kernels.py compare the package
with: earlier, slower ways to compute what a kernel computes now, kept for
their bits, and a 40-digit route to the window averages.

Its name has no `test_` prefix, so pytest does not collect it.  It imports
ymvac only inside function bodies: bench/kernels.py loads this module next
to the ymvac of another source tree, where a name that tree lacks must not
stop the import.
"""
import functools
import math

import mpmath
import numpy as np


def _where_hedgehog_gauge(pts, g, radial_f):
    """The hedgehog gauge sampler as it was written before the masked divide
    and the vector sampler: r from np.linalg.norm, the r = 0 limit by two
    np.where, the six eps entries filled in place."""
    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    coef = np.where(r > 0, radial_f(r) / (g * safe**2), 0.0)
    x = pts * coef[:, None]
    A = np.zeros((len(pts), 3, 3), dtype=x.dtype)
    A[:, 0, 1], A[:, 1, 2], A[:, 2, 0] = x[:, 2], x[:, 0], x[:, 1]
    A[:, 1, 0], A[:, 2, 1], A[:, 0, 2] = -x[:, 2], -x[:, 0], -x[:, 1]
    return A


def mp_matrix(a):
    """An mpmath complex matrix with the entries of the array a."""
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(a)])


@functools.lru_cache(maxsize=None)
def resolvent_window_sums(p: tuple, windows: tuple = (100, 1000)) -> dict:
    """{L: S_L} for the default shift t, at 40 digits (good to 30), from the float inputs as given.

    With M = t^-1 p_slash, (p_slash + n t)^-1 = adj(n + M) t^-1 / det(n + M).
    Faddeev-LeVerrier writes adj(n + M) = sum_k B_k n^(7-k) and
    det(n + M) = sum_k c_k n^(8-k) exactly (no eigenvectors, so a defective M
    is no obstacle), and the window needs only the scalar sums of
    n^(7-k)/det(n + M).  No series and no truncation: a route independent of
    the kernel's Neumann tail.
    """
    from ymvac.algebra import ID2
    from ymvac.interference import color_shift_matrix, dirac_slash

    with mpmath.workdps(40):
        ph = mp_matrix(np.kron(dirac_slash(np.array(p)), ID2))
        t_inv = mpmath.inverse(mp_matrix(color_shift_matrix()))
        a = -(t_inv * ph)  # det(n - a) and adj(n - a) with a = -M
        b_k, c_k, ab = [], [mpmath.mpf(1)], mpmath.zeros(8)
        for k in range(1, 9):
            b_k.append(ab + c_k[-1] * mpmath.eye(8))
            ab = a * b_k[-1]
            c_k.append(-sum(ab[i, i] for i in range(8)) / k)
        sums, out = [mpmath.mpc(0)] * 8, {}
        for n in range(max(windows) // 2 + 1):
            for m in {n, -n}:
                det = c_k[0]
                for c in c_k[1:]:
                    det = det * m + c
                term = 1 / det
                for k in range(7, -1, -1):  # sums[k] += m^(7-k)/det
                    sums[k] += term
                    term *= m
            for L in windows:
                if L // 2 == n:
                    total = sum((b_k[k] * sums[k] for k in range(8)), mpmath.zeros(8)) * t_inv
                    out[L] = np.array((total / (L + 1)).tolist(), dtype=complex)
        return out


def per_shift_loop_average(q, cutoff, L):
    """shifted_loop_average as it was written before the extended lattice:
    one integrand evaluation per shift of the window."""
    from ymvac.interference import BASE_SPACING, REGULATOR_MASS, LoopAverage, loop_integrand, window_integers

    h = BASE_SPACING
    n_side = int(round(2.0 * cutoff / h))
    ax = (np.arange(n_side) - n_side / 2 + 0.5) * h
    P1, P2 = np.meshgrid(ax, ax, indexing="ij")

    def lattice_sum(shift_units):
        return float(np.sum(loop_integrand(P1 + shift_units * h, P2, q, REGULATOR_MASS))) * h**2

    unshifted = lattice_sum(0)
    ns = window_integers(L)
    averaged = math.fsum(lattice_sum(int(n)) for n in ns) / len(ns)
    return LoopAverage(averaged, unshifted, averaged - unshifted)


def per_node_shell_sum(w, r, power, X, Y):
    """_shell_sum as it was written before the inner products were batched:
    one np.sum per node (the reference of its bits)."""
    total = 0.0
    for wi, ri, Xi, Yi in zip(w, r, X, Y):
        total += wi * 4.0 * math.pi * ri**power * float(np.sum(Xi * Yi))
    return total


def rotated(fmap, pts, a):
    """R(q) a at the points pts: the adjoint rotation of v = q0 - i q.tau
    on the colour axis (the first) of a, whose last axis runs over pts."""
    from ymvac.algebra import cross

    q0, q, _, _ = fmap.quaternion(pts, derivs=False)
    q = q.reshape(3, *[1] * (a.ndim - 2), -1)
    t = 2.0 * cross(q, a)
    return a + q0 * t + cross(q, t)


def covariance_gaps(fmap, g, pts, h=5e-3, transform_g=None):
    """{name: (gap, bound)}, each (N,) over the points, for the BPS pair
    (eps = 1) and its transform A' = gauge_transform(A, v, transform_g or g),
    phi' = R(q) phi at the step h (order 4).  For Q = B, D(phi) and the
    covariant Laplacian the gap is max |Q[A', phi'] - R(q) Q[A, phi]| and the
    bound twice the two pairs' own max |Q(h) - Q(h/2)| plus the rounding
    floor 1024 eps S / h^d (S the largest entry of A' and phi', d the order
    of the derivative: the nested Laplacian has met 70 eps S / h^2 where
    a point's h and h/2 round alike); |B - D(phi)| and tr B^2 (Frobenius)
    are compared with the bounds of B and D(phi) carried through."""
    from ymvac.bps_profiles import (ColorField, MonopoleScale, StencilConfig, build_fields, covariant_derivative,
                                    covariant_laplacian, magnetic_tension)
    from ymvac.topology import gauge_transform

    gauge, scalar = build_fields(MonopoleScale(g, 1.0), "BPS")
    pair = (gauge, scalar)
    moved = (gauge_transform(gauge, fmap, g if transform_g is None else transform_g),
             ColorField(lambda p: rotated(fmap, p, scalar.sample_batch(p).T).T))
    S = max(np.abs(f.sample(pts)).max() for f in moved)
    stencil = StencilConfig(h, 4)
    routes = {"B": (lambda a, phi, s: magnetic_tension(a, pts, s, g), 1),
              "D": (lambda a, phi, s: covariant_derivative(a, phi, pts, s, g), 1),
              "L": (lambda a, phi, s: covariant_laplacian(a, phi, pts, s, g), 2)}

    def worst(x):  # the largest entry of each point's row
        return np.abs(x).reshape(len(pts), -1).max(axis=1)

    def frob(x):
        return np.linalg.norm(x, axis=(1, 2))

    out, at_h = {}, {}
    for name, (route, d) in routes.items():
        (q, q_half), (m, m_half) = ([route(*f, s) for s in (stencil, stencil.halved())] for f in (pair, moved))
        at_h[name] = q, m
        floor = 1024.0 * np.finfo(float).eps * S / h**d
        out[name] = worst(m - rotated(fmap, pts, q.T).T), 2.0 * (worst(q - q_half) + worst(m - m_half)) + floor
    (B, B_moved), (D, D_moved) = at_h["B"], at_h["D"]
    # a Frobenius norm of nine entries is at most 3 times their largest
    out["|B - D|"] = np.abs(frob(B_moved - D_moved) - frob(B - D)), 3.0 * (out["B"][1] + out["D"][1])
    out["tr B^2"] = np.abs(frob(B_moved) ** 2 - frob(B) ** 2), 3.0 * out["B"][1] * (frob(B_moved) + frob(B))
    return out


def covariance_setup():
    """v, g and points of the covariance figures that bench/kernels.py
    records: n = 1, prefactor 0.37, Euler angles (1.0, 0.2, 0.5), g = 1.3
    and 100 normal points of scale 3 outside r = 0.3."""
    from ymvac.interference import EulerAngles
    from ymvac.topology import GribovFactorMap

    rng = np.random.default_rng(5)
    pts = rng.normal(scale=3.0, size=(200, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.3][:100]
    fmap = GribovFactorMap(1, 1.0, prefactor=0.37, rotation=EulerAngles(1.0, 0.2, 0.5).adjoint_rotation())
    return fmap, 1.3, pts
