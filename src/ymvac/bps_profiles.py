"""Monopole field construction and pointwise first-order residual checks.

Natural units throughout: lengths in GeV^-1, gauge and scalar fields in GeV,
so the magnetic tension B and the covariant gradient D(phi) are GeV^2.

Field conventions
-----------------
The hedgehog pair is

    A_i^a(x) = eps_{iak} x^k / (g r^2) * f1(r),      phi^a(x) = x^a/(g r) * f0(r),

with the smooth profiles

    f0(r) = 1/(eps*tanh(r/eps)) - 1/r,               f1(r) = 1 - (r/eps)/sinh(r/eps),

both regular at the origin and approaching the singular f1 = +1 hedgehog as
eps -> 0.  The commutator terms of the tension and of the covariant gradient
enter with structure constants -eps_{abc},

    B_i^a = eps_{ijk} ( d_j A_k^a - (g/2) eps_{abc} A_j^b A_k^c ),
    (D_i phi)^a = d_i phi^a - g eps_{abc} A_i^b phi^c,

the unique relative sign under which, for the ansatz ordering above, the
f = +1 hedgehog gives B_i^a = x^i x^a/(g r^4), the smooth pair satisfies
B = +D(phi) pointwise, and the phase profile below is annihilated by the
covariant Laplacian.  All three statements are exercised by the test suite.

The phase scalar

    Phi0^a(x) = -pi * (x^a/r) * f01(r),   f01(r) = 1/tanh(r/eps) - eps/r = eps*f0(r),

is dimensionless and interpolates between 0 at the origin and -pi*n_hat at
infinity; a rescaled copy (factor -2/g, see zero_mode_scalar) carries the
normalization used by the vacuum-energy integrals.

All samplers and the stencil operators magnetic_tension and
covariant_derivative are pure functions of the evaluation point (no grids);
they accept a single point of shape (3,) or a batch of shape (N, 3).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .algebra import EPS3
from .errors import DomainError, SingularPointError, StencilError

__all__ = [
    "MonopoleScale",
    "SpatialPoint",
    "StencilConfig",
    "FieldVariant",
    "ColorField",
    "f0_bps",
    "f1_bps",
    "f01_bps",
    "d_f01_bps",
    "build_fields",
    "gribov_phase_scalar",
    "zero_mode_scalar",
    "magnetic_tension",
    "covariant_derivative",
    "covariant_laplacian",
    "bogomolnyi_residual",
    "gribov_residual",
    "default_stencil",
]


@dataclass(frozen=True)
class MonopoleScale:
    """Physical parameters: coupling g and core size eps (GeV^-1).

    alpha_s is always derived as g^2/(4 pi), never stored independently.
    """

    g: float
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0):
            raise DomainError(f"coupling g must be positive and finite, got {self.g}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise DomainError(f"core size eps must be positive and finite, got {self.eps}")

    @property
    def alpha_s(self) -> float:
        return self.g**2 / (4.0 * np.pi)


class SpatialPoint:
    """Point in 3-space with cached radius and unit vector."""

    __slots__ = ("x", "r", "n_hat")

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float).reshape(3)
        self.r = float(np.linalg.norm(self.x))
        self.n_hat = self.x / self.r if self.r > 0 else np.zeros(3)

    def __repr__(self):
        return f"SpatialPoint({self.x.tolist()})"


@dataclass(frozen=True)
class StencilConfig:
    """Central finite-difference stencil: step h (GeV^-1) and accuracy order.

    The one owner of the difference weights.  Every finite difference in the
    package goes through _apply, and every three-axis gradient through
    _gradient, which takes a batch of points in one pass (the greens
    background operator included); the one exception is
    covariant_laplacian's outer sum, which runs over all axes at once.
    """

    h: float
    order: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise DomainError("stencil step h must be positive and finite")
        if self.order not in (2, 4):
            raise DomainError("stencil order must be 2 or 4")

    def offsets_weights(self, deriv: int = 1):
        """Offsets (in units of h) and weights of the first (deriv=1) or
        second (deriv=2) derivative."""
        h = self.h
        if deriv == 1:
            if self.order == 2:
                return np.array([-1.0, 1.0]), np.array([-0.5, 0.5]) / h
            return np.array([-2.0, -1.0, 1.0, 2.0]), np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        if self.order == 2:
            return np.array([-1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]) / (h * h)
        return (
            np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
            np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h),
        )

    def _apply(self, sample, x, e, deriv: int = 1):
        """sum_k w_k sample(x + o_k h e): the deriv-th derivative of `sample`
        along e, accumulated one offset at a time from zeros in offset order.

        x is a coordinate, a point or a batch of points; e the step direction
        broadcast against it.  Each term is freed before the next offset is
        sampled.
        """
        offs, wts = self.offsets_weights(deriv)
        acc = 0.0
        for w, s in zip(wts, offs * self.h):
            acc += w * sample(x + s * e)
        return acc

    def _gradient(self, sample, pts):
        """d_j of a sampler of point batches at pts (N, 3), shape (N, 3) +
        value-shape, filled axis by axis into one preallocated array
        (stacking the axes would hold all three at once)."""
        out = None
        for j, e in enumerate(np.eye(3)):
            d = self._apply(sample, pts, e)
            if out is None:
                out = np.empty((len(pts), 3) + d.shape[1:], dtype=d.dtype)
            out[:, j] = d
            del d  # free each axis before the next is sampled
        return out

    def halved(self) -> "StencilConfig":
        return StencilConfig(self.h / 2.0, self.order)


def default_stencil(scale: MonopoleScale) -> StencilConfig:
    """h = eps/200, order 4: resolves the profile curvature near r ~ eps."""
    return StencilConfig(scale.eps / 200.0, 4)


def _check_stencil_scale(stencil: StencilConfig, scale: MonopoleScale):
    if not (stencil.h < scale.eps / 10.0):
        raise StencilError(
            f"stencil step {stencil.h} too coarse for eps={scale.eps} (need h < eps/10)"
        )


class FieldVariant(Enum):
    BPS = "BPS"
    WU_YANG_PLUS = "WuYangPlus"
    WU_YANG_MINUS = "WuYangMinus"
    PT = "PT"

    @classmethod
    def parse(cls, name) -> "FieldVariant":
        if isinstance(name, cls):
            return name
        for v in cls:
            if name in (v.name, v.value):
                return v
        raise DomainError(f"unknown field variant {name!r}")


@dataclass(frozen=True)
class ColorField:
    """Sampler x -> field value: A[i][a] (spatial i, color a) for gauge fields,
    phi^a for color scalars; units GeV (phase variants: dimensionless)."""

    sample_batch: Callable = field(repr=False)
    singular_origin: bool = False
    label: str = ""

    def sample(self, x) -> np.ndarray:
        pts, single = _batch(x)
        if self.singular_origin and np.any(np.linalg.norm(pts, axis=1) == 0.0):
            raise SingularPointError(f"{self.label or 'field'} is singular at r = 0")
        out = self.sample_batch(pts)
        return out[0] if single else out


def _batch(x):
    """(N, 3) coordinates of a point, a batch or a list of points or
    SpatialPoints, and whether a single point was given.  Float dtypes are
    kept (extended precision passes through the samplers untouched)."""
    if isinstance(x, (list, tuple)):
        x = [getattr(p, "x", p) for p in x]
    arr = np.asarray(getattr(x, "x", x))
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def _coth_minus_inv(x):
    """coth(x) - 1/x, series-protected near 0 (cancellation) and overflow-safe."""
    x = np.asarray(x)
    small = np.abs(x) < 0.05
    xs = np.where(small, 1.0, x)
    direct = 1.0 / np.tanh(xs) - 1.0 / xs
    xm = np.where(small, x, 0.0)  # the series sees only small x: x * x overflows at large x
    x2 = xm * xm
    series = xm * (1.0 / 3.0 - x2 * (1.0 / 45.0 - x2 * (2.0 / 945.0 - x2 / 4725.0)))
    return np.where(small, series, direct)


def f0_bps(r, eps: float):
    """Smooth hedgehog scalar profile, 1/(eps*tanh(r/eps)) - 1/r.

    Vanishes like r/(3 eps^2) at the origin and approaches 1/eps - 1/r for
    r >> eps.  Units GeV.
    """
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    r = np.asarray(r)
    if r.dtype.kind != "f":
        r = r.astype(float)
    if np.any(r < 0):
        raise DomainError("radius must be non-negative")
    out = _coth_minus_inv(r / eps) / eps
    return out if out.ndim else float(out)


def _x_over_sinh(x):
    """x/sinh(x) without overflow; 1 at x = 0."""
    x = np.asarray(x)
    small = np.abs(x) < 1e-8
    big = x > 30.0
    xs = np.where(small | big, 1.0, x)
    direct = xs / np.sinh(xs)
    # 2x e^-x/(1 - e^-2x): never overflows, underflow to 0 is the right limit
    xb = np.where(big, np.minimum(x, 11300.0), 1.0)
    tail = 2.0 * xb * np.exp(-xb) / (1.0 - np.exp(-2.0 * xb))
    xm = np.where(small, x, 0.0)
    out = np.where(small, 1.0 - xm * xm / 6.0, np.where(big, tail, direct))
    return out


def f1_bps(r, eps: float):
    """Smooth hedgehog gauge profile, 1 - (r/eps)/sinh(r/eps).

    Vanishes like r^2/(6 eps^2) at the origin and tends to 1 (the singular
    hedgehog value) as r/eps -> infinity.  Dimensionless.
    """
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    r = np.asarray(r)
    if r.dtype.kind != "f":
        r = r.astype(float)
    if np.any(r < 0):
        raise DomainError("radius must be non-negative")
    out = 1.0 - _x_over_sinh(r / eps)
    return out if out.ndim else float(out)


def f01_bps(r, eps: float):
    """Phase profile 1/tanh(r/eps) - eps/r = eps*f0_bps; 0 at r=0, -> 1 at infinity."""
    return eps * f0_bps(r, eps)


def d_f01_bps(r, eps: float):
    """Exact radial derivative of f01_bps (series-protected near the origin)."""
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be non-negative")
    x = r / eps
    small = np.abs(x) < 0.05
    # past 1e154 xs**2 overflows: inf gives its limit 1/xs**2 = 0 without a warning
    xs = np.where(small, 1.0, np.where(x > 1e154, np.inf, x))
    direct = (1.0 / xs**2 - 1.0 / np.sinh(np.minimum(xs, 350.0)) ** 2) / eps
    xm = np.where(small, x, 0.0)  # the series sees only small x, as in _coth_minus_inv
    x2 = xm * xm
    series = (1.0 / 3.0 - x2 * (1.0 / 15.0 - x2 * (2.0 / 189.0 - x2 / 675.0))) / eps
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def _hedgehog_gauge(pts, g, radial_f):
    """A[n,i,a] = eps_{iak} x_k/(g r^2) * radial_f(r), with the r=0 limit 0."""
    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    coef = np.where(r > 0, radial_f(r) / (g * safe**2), 0.0)
    x = pts * coef[:, None]
    A = np.zeros((len(pts), 3, 3), dtype=x.dtype)  # the six nonzero entries of eps_{iak} x_k
    A[:, 0, 1], A[:, 1, 2], A[:, 2, 0] = x[:, 2], x[:, 0], x[:, 1]
    A[:, 1, 0], A[:, 2, 1], A[:, 0, 2] = -x[:, 2], -x[:, 0], -x[:, 1]
    return A


def _hedgehog_scalar(pts, coef_of_r):
    """phi[n,a] = n_hat_a * coef_of_r(r), with the r=0 limit 0."""
    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    coef = np.where(r > 0, coef_of_r(np.where(r > 0, r, 1e-30)) / safe, 0.0)
    return pts * coef[:, None]


def build_fields(scale: MonopoleScale, variant) -> tuple[ColorField, ColorField]:
    """Construct the gauge/scalar pair for a variant.

    BPS uses the smooth profiles; WuYangPlus/WuYangMinus use f = +1/-1 with the
    phase scalar (singular at the origin); PT is the trivial pair A = phi = 0.
    """
    variant = FieldVariant.parse(variant)
    g, eps = scale.g, scale.eps

    if variant is FieldVariant.PT:
        zero_a = lambda pts: np.zeros((len(pts), 3, 3))
        zero_s = lambda pts: np.zeros((len(pts), 3))
        return (
            ColorField(zero_a, label="PT gauge"),
            ColorField(zero_s, label="PT scalar"),
        )

    if variant is FieldVariant.BPS:
        gauge = ColorField(
            lambda pts: _hedgehog_gauge(pts, g, lambda r: f1_bps(r, eps)),
            label="BPS gauge",
        )
        scalar = ColorField(
            lambda pts: _hedgehog_scalar(pts, lambda r: f0_bps(r, eps) / g),
            label="BPS scalar",
        )
        return gauge, scalar

    sign = 1.0 if variant is FieldVariant.WU_YANG_PLUS else -1.0
    gauge = ColorField(
        lambda pts: _hedgehog_gauge(pts, g, lambda r: np.full_like(r, sign)),
        singular_origin=True,
        label=f"WuYang{'Plus' if sign > 0 else 'Minus'} gauge",
    )
    return gauge, gribov_phase_scalar(scale)


def gribov_phase_scalar(scale: MonopoleScale) -> ColorField:
    """Phase scalar Phi0^a = -pi (x^a/r) f01(r); dimensionless hedgehog,
    smooth at the origin (f01/r has a finite limit)."""
    eps = scale.eps
    return ColorField(
        lambda pts: _hedgehog_scalar(pts, lambda r: -np.pi * f01_bps(r, eps)),
        label="phase scalar",
    )


def zero_mode_scalar(scale: MonopoleScale) -> ColorField:
    """Zero-mode scalar (2 pi/g)(x^a/r) f01(r); the normalization under which
    the vacuum inertia integral closes to 4 pi^2 eps / alpha_s."""
    g, eps = scale.g, scale.eps
    return ColorField(
        lambda pts: _hedgehog_scalar(pts, lambda r: (2.0 * np.pi / g) * f01_bps(r, eps)),
        label="zero-mode scalar",
    )


# ---------------------------------------------------------------------------
# stencils and first-order quantities
# ---------------------------------------------------------------------------

def _require_stencil_safe(field_obj, pts: np.ndarray, stencil: StencilConfig):
    r = np.linalg.norm(pts, axis=1)
    close = r[r < 10.0 * stencil.h]
    if getattr(field_obj, "singular_origin", False) and len(close):
        raise StencilError(
            f"point at r={float(close[0]):.3e} within 10 h = {10 * stencil.h:.3e} of the singular origin"
        )


def magnetic_tension(field: ColorField, x, stencil: StencilConfig, g: float) -> np.ndarray:
    """Non-Abelian magnetic tension B[i][a] (GeV^2) by central differences,
    at a point (3,) or a batch (N, 3), giving (3, 3) or (N, 3, 3).

    Curl part by the configured stencil; quadratic self-coupling evaluated
    exactly at the point.
    """
    pts, single = _batch(x)
    _require_stencil_safe(field, pts, stencil)
    dA = stencil._gradient(field.sample_batch, pts)  # [n][j][k][a]
    A = field.sample(pts)
    curl = np.einsum("ijk,njka->nia", EPS3, dA)
    quad = np.einsum("ijk,abc,njb,nkc->nia", EPS3, EPS3, A, A)
    B = curl - 0.5 * g * quad
    return B[0] if single else B


def covariant_derivative(
    gauge: ColorField, scalar: ColorField, x, stencil: StencilConfig, g: float
) -> np.ndarray:
    """Adjoint covariant gradient (D_i phi)^a = d_i phi^a - g eps_{abc} A_i^b phi^c
    at a point (3,) or a batch (N, 3), giving (3, 3) or (N, 3, 3)."""
    pts, single = _batch(x)
    _require_stencil_safe(gauge, pts, stencil)
    _require_stencil_safe(scalar, pts, stencil)
    dphi = stencil._gradient(scalar.sample_batch, pts)  # [n][i][a]
    A = gauge.sample(pts)
    phi = scalar.sample(pts)
    D = dphi - g * np.einsum("abc,nib,nc->nia", EPS3, A, phi)
    return D[0] if single else D


def covariant_laplacian(
    gauge: ColorField, scalar: ColorField, x, stencil: StencilConfig, g: float
) -> np.ndarray:
    """(D_i D_i phi)^a by nesting covariant_derivative in an outer stencil.

    One inner call covers the centre and the shifted points.  The outer
    divergence keeps one running sum over all axes and offsets; regrouping
    it per axis moves the reported residuals in their last bits."""
    xc = _batch(x)[0].reshape(3)
    offs, wts = stencil.offsets_weights()
    shifted = [xc + o * e for e in np.eye(3, dtype=xc.dtype) * stencil.h for o in offs]
    D = covariant_derivative(gauge, scalar, np.array([xc] + shifted), stencil, g)
    div = np.zeros(3, dtype=xc.dtype)
    for Dk, (j, w) in zip(D[1:], itertools.product(range(3), wts)):
        div = div + w * Dk[j]
    A = gauge.sample(xc)
    return div - g * np.einsum("abc,ib,ic->a", EPS3, A, D[0])


def bogomolnyi_residual(
    scale: MonopoleScale,
    points,
    stencil: StencilConfig | None = None,
    variant=FieldVariant.BPS,
    sign: int = 1,
) -> float:
    """Max pointwise first-order residual over the given points (an (N, 3)
    array, a point, or a list of points or SpatialPoints).

    BPS: max ||B - sign*D(phi)|| / ||B||  (Frobenius norms).
    PT: both sides vanish identically; the 0/0 is reported as exact zero.
    WuYang variants: the phase scalar matches B only up to an overall scale,
    so the scale-invariant alignment residual sqrt(1 - <B_hat, D_hat>^2) is
    returned instead.
    """
    variant = FieldVariant.parse(variant)
    if sign not in (1, -1):
        raise DomainError("sign branch must be +1 or -1")
    pts = _batch(points)[0]
    if pts.size == 0:
        raise ValueError("empty point list")
    stencil = stencil or default_stencil(scale)
    _check_stencil_scale(stencil, scale)
    gauge, scalar = build_fields(scale, variant)

    if variant is FieldVariant.PT:
        return 0.0

    # extended precision keeps the stencil's own order visible below the
    # double-precision cancellation floor
    xe = pts.astype(np.longdouble)
    B = magnetic_tension(gauge, xe, stencil, scale.g)
    D = covariant_derivative(gauge, scalar, xe, stencil, scale.g)
    nb, nd = np.linalg.norm(B, axis=(1, 2)), np.linalg.norm(D, axis=(1, 2))
    if variant is FieldVariant.BPS:
        res = np.linalg.norm(B - sign * D, axis=(1, 2)) / nb
    else:
        cos = np.abs(np.sum(B * D, axis=(1, 2))) / (nb * nd)
        res = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    return float(np.max(res, initial=0.0))


def gribov_residual(
    scale: MonopoleScale,
    x,
    stencil: StencilConfig | None = None,
    variant=FieldVariant.BPS,
    scalar: ColorField | None = None,
) -> np.ndarray:
    """Color components of D^2(A) Phi0 at x; zero for the phase scalar on the
    smooth background (and on the singular one far outside the core).

    `scalar` overrides the phase scalar (negative controls)."""
    variant = FieldVariant.parse(variant)
    if variant not in (FieldVariant.BPS, FieldVariant.WU_YANG_PLUS, FieldVariant.WU_YANG_MINUS):
        raise DomainError("gribov_residual needs a monopole background")
    stencil = stencil or default_stencil(scale)
    _check_stencil_scale(stencil, scale)
    gauge, _ = build_fields(scale, variant)
    phase = scalar if scalar is not None else gribov_phase_scalar(scale)
    # extended precision: the nested stencil's cancellation floor in double
    # precision sits above the h^4 term at the probe radii
    xe = _batch(x)[0].reshape(3).astype(np.longdouble)
    out = covariant_laplacian(gauge, phase, xe, stencil, scale.g)
    return np.asarray(out, dtype=float)
