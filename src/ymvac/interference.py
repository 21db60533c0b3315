"""Infrared destructive-interference machinery.

Dressed factors with unit asymptotics at both ends,

    v^(n)(x) = exp( i c pi n f01(r) tau.m_hat ),  m_hat = R(phi_i) n_hat,

with R the adjoint rotation of the Euler-angle element
u = e^{i tau1 phi1/2} e^{i tau2 phi2/2} e^{i tau3 phi3/2} and c = 2, so the
phase winds by 2 pi n and the factor returns to the identity at spatial
infinity as well as at the origin.
Like topology's group factors, u and the dressed factors are unit
quaternions (w, x) of w 1 - i x.tau, multiplied with _qmul; complex matrices
appear only in the 8 x 8 Dirac (x) color blocks below.

Momentum-space averages use the spinor (x) color matrices (4 x 2 = 8 dim),
Dirac basis with metric (+,-,-,-); shifted propagator averages decay as 1/L
because the n and -n window partners cancel pairwise to O(1/n^2).  That
pairing is also how the average is computed: only a head of about
16 ||t^-1 p_slash||_1 terms is inverted one by one, and the rest of the
window is a fixed nine-term Neumann series in M = t^-1 p_slash with scalar
coefficients sum_n n^(-2k-2), so an L-term window costs O(L) scalar work
(see momentum_green_average).

The shift-averaged loop lives on a midpoint momentum lattice with exact
lattice shifts t = h e1.  It sums the closed-form trace loop_integrand,
which the scalar and colored gamma structures share (the explicit 8x8
oracle loop_integrand_matrix checks both).  The shifted-minus-unshifted
discrepancy is the boundary shell of the shifted window and shrinks as the
extent grows at fixed spacing.  (The grid varies two momentum components;
with two propagators the integrand decays too slowly for the shell to
vanish in four gridded dimensions, so the cancellation statement is
exercised where it is true.)
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import EPS3, ID2, TAU, cross, exact_sums
from .bps_profiles import _batch
from .errors import DomainError, SingularTermError, WindowError
from .topology import GribovFactorMap

__all__ = [
    "EulerAngles",
    "GAMMA",
    "dirac_slash",
    "color_shift_matrix",
    "dressed_factor_map",
    "averaged_two_point",
    "momentum_green_average",
    "window_integers",
    "LoopAverage",
    "shifted_loop_average",
    "loop_integrand",
    "loop_integrand_matrix",
    "ColorRatio",
    "color_ratio_check",
]

ID4 = np.eye(4, dtype=complex)
ID8 = np.eye(8, dtype=complex)
_NEUMANN_TERMS = 9  # the tail's series length; see momentum_green_average

# Dirac basis, metric (+,-,-,-): gamma^0 = diag(1,1,-1,-1), gamma^i off-diagonal.
GAMMA = np.zeros((4, 4, 4), dtype=complex)
GAMMA[0] = np.diag([1.0, 1.0, -1.0, -1.0])
for _i in range(3):
    GAMMA[_i + 1, :2, 2:] = TAU[_i]
    GAMMA[_i + 1, 2:, :2] = -TAU[_i]


def dirac_slash(p) -> np.ndarray:
    """p_mu gamma^mu for p = (p0, p1, p2, p3): p0 g0 - p1 g1 - p2 g2 - p3 g3."""
    p = np.asarray(p, dtype=float).reshape(4)
    return p[0] * GAMMA[0] - p[1] * GAMMA[1] - p[2] * GAMMA[2] - p[3] * GAMMA[3]


@functools.cache
def color_shift_matrix() -> np.ndarray:
    """t_hat = pi sum_a gamma^a (x) tau^a, the Hermitian-generator shift (unit
    reference scale), built at the first call and returned read-only."""
    out = np.zeros((8, 8), dtype=complex)
    for a in range(3):
        out += np.kron(GAMMA[a + 1], TAU[a])
    out = math.pi * out
    out.flags.writeable = False
    return out


@functools.cache
def _color_shift_inverse() -> np.ndarray:
    """t_hat^-1, read-only.  Built at the first window average, as t_hat is,
    not at import: the first complex and LAPACK calls page in about 1 MB that
    reports averaging nothing do not need."""
    inv = np.linalg.inv(color_shift_matrix())
    inv.flags.writeable = False
    return inv


@dataclass(frozen=True)
class EulerAngles:
    """Three Euler angles of the color frame."""

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        for v in (self.phi1, self.phi2, self.phi3):
            if not np.isfinite(v):
                raise DomainError("angles must be finite")

    def quaternion(self) -> tuple[float, np.ndarray]:
        """u = w 1 - i x.tau as (w, x), the product of the three factors
        e^{i tau_a phi_a/2} = cos(phi_a/2) 1 - i (-sin(phi_a/2) e_a).tau."""
        w, x = 1.0, np.zeros(3)
        for axis, phi in zip(np.eye(3), (self.phi1, self.phi2, self.phi3)):
            w, x = _qmul(w, x, math.cos(phi / 2.0), -math.sin(phi / 2.0) * axis)
        return w, x

    def adjoint_rotation(self) -> np.ndarray:
        """R_{ab} with u tau^b u^-1 = tau^a R_{ab}; real orthogonal.  For
        u = w 1 - i x.tau, R = (w^2 - x.x) 1 + 2 x x^T + 2 w [x]_x with
        [x]_x a = x cross a, i.e. [x]_x = -EPS3 x.  Built at the first call
        and returned read-only, so that the dressed maps of one set of
        angles share it."""
        return self._rotation

    @functools.cached_property
    def _rotation(self) -> np.ndarray:
        w, x = self.quaternion()
        rot = (w * w - x @ x) * np.eye(3) + 2.0 * np.outer(x, x) - 2.0 * w * (EPS3 @ x)
        rot.flags.writeable = False
        return rot


def dressed_factor_map(n: int, angles: EulerAngles, eps: float) -> GribovFactorMap:
    """The dressed factor as a group-factor map with exact derivatives:
    exp(2 i pi n f01 tau.m_hat) is that map with prefactor -2 and R(phi_i)."""
    return GribovFactorMap(n, eps, prefactor=-2.0, rotation=angles.adjoint_rotation())


def window_integers(L: int) -> np.ndarray:
    """Symmetric integer window n in [-L/2, L/2]."""
    if L < 0:
        raise DomainError("window size L must be non-negative")
    half = L // 2
    return np.arange(-half, half + 1)


def _qmul(a0, a, b0, b):
    """Product of the quaternions a0 1 - i a.tau and b0 1 - i b.tau, as
    (a0 b0 - a.b, a0 b + b0 a + a x b); vectors along the first axis."""
    return a0 * b0 - np.sum(a * b, axis=0), a0 * b + b0 * a + cross(a, b)


def averaged_two_point(x, y, angles: EulerAngles, L: int, eps: float) -> np.ndarray:
    """Window average of v^(n)(x) v^(n)(-y) over the unit-asymptotic dressed
    factors, as the real 4-vector (w, x1, x2, x3) of w 1 - i x.tau; tends to
    the identity (1, 0, 0, 0) as both points recede (the surviving
    contribution of color two-point functions)."""
    if L < 1:
        raise DomainError("window size L must be at least 1")
    pts = np.stack([_batch(x)[0].reshape(3), -_batch(y)[0].reshape(3)])
    ns = window_integers(L)
    acc = np.zeros(4)
    for n in ns:
        q0, q, _, _ = dressed_factor_map(int(n), angles, eps).quaternion(pts, derivs=False)
        w, v = _qmul(q0[0], q[:, 0], q0[1], q[:, 1])
        acc += (w, *v)
    return acc / len(ns)


def momentum_green_average(p, L: int) -> np.ndarray:
    """Symmetric partial average S_L = (1/(L+1)) sum_{n=-L/2}^{L/2} (p_slash + t n)^-1,
    an (8, 8) matrix, with t = color_shift_matrix() (cond_1(t) = 3).

    Pairwise n <-> -n cancellation makes ||S_L|| = O(1/L).  Raises
    SingularTermError naming the first n whose matrix is numerically singular:
    its 1-norm condition number ||A||_1 ||A^-1||_1, taken from the inverse the
    average needs anyway, is above 1e12 or not finite (an overflowing product
    or inf * 0 counts as not finite, without a warning).  A p whose p_slash
    has a 1-norm past the float range, where no term's condition number is
    finite, raises DomainError instead.

    Only the head |n| <= n0 is inverted term by term and gated; with
    M = t^-1 p_slash, h = L//2 and n0 = min(h, ceil(8 ||M||_1)) the rest of the
    window is summed in closed form through the Neumann series

        (M + n)^-1 + (M - n)^-1 = -2 M (n^2 - M^2)^-1 = -2 sum_k M^(2k+1) n^(-2k-2),

        sum_{n0<|n|<=h} (p_slash + n t)^-1 = -2 sum_k M^(2k+1) H_k t^-1,
        H_k = sum_{n=n0+1}^{h} n^(-2k-2).

    Past the head ||M||/n < 1/8, so the _NEUMANN_TERMS = 9 terms leave a
    remainder below (1/8)^18 = 2^-54 of the tail, and every tail term has
    cond_1 <= cond_1(t) (1 + 1/8)/(1 - 1/8) = 27/7, far inside the gate: the
    first singular n always lies in the head.
    """
    if L < 0:
        raise DomainError("window size L must be non-negative")
    t, t_inv = color_shift_matrix(), _color_shift_inverse()
    ph = np.kron(dirac_slash(p), ID2)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(ph, 1)):
            raise DomainError(f"momentum {np.ravel(p).tolist()} is too large: the 1-norm of p_slash overflows, "
                              "so no window term has a finite condition number to gate on")
        m = t_inv @ ph
        head = 8.0 * np.linalg.norm(m, 1)
    half = n0 = L // 2
    if head < half:  # false for a non-finite norm
        n0 = math.ceil(head)
    ns = np.arange(-n0, n0 + 1)
    stack = ph[None, :, :] + ns[:, None, None] * t[None, :, :]
    try:
        inv = np.linalg.inv(stack)
        with np.errstate(over="ignore", invalid="ignore"):
            conds = np.linalg.norm(stack, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    except np.linalg.LinAlgError:  # an exactly singular term, to which cond gives inf
        conds = np.linalg.cond(stack, 1)
    bad = np.where(~np.isfinite(conds) | (conds > 1e12))[0]
    if bad.size:
        raise SingularTermError(int(ns[bad[0]]))
    total = inv.sum(axis=0)
    if n0 < half:
        n = np.arange(n0 + 1, half + 1, dtype=float)
        powers = np.empty((_NEUMANN_TERMS, n.size))
        powers[0] = 1.0 / (n * n)
        for k in range(1, _NEUMANN_TERMS):
            np.multiply(powers[k - 1], powers[0], out=powers[k])
        sums = exact_sums(powers)  # H_k = sum_n w^(k+1), w = 1/n^2, correctly rounded
        m2 = m @ m
        poly = sums[-1] * ID8  # Horner: sum_k H_k M^(2k)
        for h_k in reversed(sums[:-1]):
            poly = m2 @ poly + h_k * ID8
        total -= 2.0 * (m @ poly @ t_inv)
    return total / (L + 1)


# ---------------------------------------------------------------------------
# shift-averaged loop on a momentum lattice
# ---------------------------------------------------------------------------

BASE_EXTENT = 1.0
BASE_SPACING = BASE_EXTENT / 16.0
REGULATOR_MASS = 0.1  # in base-extent units


class LoopAverage(NamedTuple):
    shift_averaged: complex
    unshifted: complex
    difference: complex


def _structures(gamma_structure: str):
    if gamma_structure == "scalar":
        return ID8
    if gamma_structure == "colored":
        return np.kron(ID4, TAU[2])
    raise DomainError("gamma_structure must be 'scalar' or 'colored'")


def loop_integrand(p1, p2, q, mass: float):
    """Closed-form trace of Gamma G0(p) Gamma G0(q-p) for both structures.

    Euclidean slash with {g,g} = 2 delta gives G0 = (p_slash - i m)/(p^2 + m^2)
    and tr = 8 [p.(q-p) - m^2] / ((p^2+m^2)((q-p)^2+m^2)); the colored choice
    tau^3 squares to the identity in color space and leaves the value unchanged.
    p = (0, p1, p2, 0) with p1, p2 floats or arrays broadcast against each
    other, k = q - p, and the expression is evaluated elementwise as written.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    p_sq = p1 * p1 + p2 * p2
    k1, k2 = q[1] - p1, q[2] - p2
    k_sq = q[0] ** 2 + k1 * k1 + k2 * k2 + q[3] ** 2
    p_dot_k = p1 * k1 + p2 * k2
    m2 = mass * mass
    return 8.0 * (p_dot_k - m2) / ((p_sq + m2) * (k_sq + m2))


def loop_integrand_matrix(p1: float, p2: float, q, gamma_structure: str, mass: float) -> complex:
    """Same trace evaluated with explicit 8x8 matrices (the grid oracle)."""
    q = np.asarray(q, dtype=float).reshape(4)
    gammas_e = np.stack([GAMMA[0], -1j * GAMMA[1], -1j * GAMMA[2], -1j * GAMMA[3]])

    def slash_e(v):
        return np.einsum("m,mij->ij", v, gammas_e)

    def g0(v):
        v = np.asarray(v, dtype=float)
        ph = np.kron(slash_e(v), ID2)
        return np.linalg.inv(ph + 1j * mass * ID8)

    gam = _structures(gamma_structure)
    pv = np.array([0.0, p1, p2, 0.0])
    kv = np.array([q[0], q[1] - p1, q[2] - p2, q[3]])
    return complex(np.trace(gam @ g0(pv) @ gam @ g0(kv)))


def shifted_loop_average(q, cutoff: float, L: int) -> LoopAverage:
    """Window-averaged momentum-lattice loop against its unshifted value, for
    the closed-form trace loop_integrand (which both gamma structures share).

    Midpoint lattice p = (j + 1/2) h on [-cutoff, cutoff]^2 with h = BASE_SPACING
    (components p1, p2; the external q stays a 4-vector), regulator mass
    REGULATOR_MASS, shift t = h e1, window n in [-L/2, L/2].
    Shifts are exact lattice translations, so the difference is purely the
    boundary shell of the shifted window.  A q with |q| above 1e150, whose
    square leaves the float range, is refused.
    """
    if not (cutoff > 0):
        raise DomainError("cutoff must be positive")
    q = np.asarray(q, dtype=float).reshape(4)
    if not math.hypot(*q) <= 1e150:
        raise DomainError(f"loop momentum q = {q.tolist()} must have |q| <= 1e150, so that its square stays a float")
    h = BASE_SPACING
    if h * L > cutoff / 2.0 + 1e-12:
        raise WindowError(
            f"total shift {h * L} exceeds half the extent {cutoff / 2.0}: shift leaves the grid"
        )
    n_side = int(round(2.0 * cutoff / h))
    if n_side < 8:
        raise DomainError("grid too small; increase cutoff")
    ns = window_integers(L)
    half = L // 2
    # h is a power of two, so p1 + n h is exactly row j + n's p1: each shifted
    # lattice is a block of rows of one lattice extended by the window
    rows = (np.arange(-half, n_side + half) - n_side / 2 + 0.5) * h
    P1, P2 = np.meshgrid(rows, rows[half:half + n_side], indexing="ij")
    vals = loop_integrand(P1, P2, q, REGULATOR_MASS)

    def lattice_sum(shift_units: int) -> float:
        return float(np.sum(vals[half + shift_units:half + shift_units + n_side])) * h**2

    unshifted = lattice_sum(0)
    averaged = math.fsum(lattice_sum(int(n)) for n in ns) / len(ns)
    return LoopAverage(averaged, unshifted, averaged - unshifted)


class ColorRatio(NamedTuple):
    prediction: float
    in_band: bool
    band: tuple[float, float]


def color_ratio_check(nc: int, band: tuple[float, float] = (3.0, 3.6)) -> ColorRatio:
    """Lowest-order hadronic-to-muonic ratio prediction: the color count itself."""
    if nc < 1:
        raise DomainError("color count must be at least 1")
    return ColorRatio(float(nc), band[0] <= nc <= band[1], band)
