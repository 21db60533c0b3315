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

No eps tensor is multiplied out: with A_i the colour vector A_i^a and
spatial indices taken mod 3, the contractions are the written-out cross
products and curl of algebra,

    B_i = (curl A)_i - g A_{i+1} x A_{i+2},    D_i phi = d_i phi - g A_i x phi,

and the covariant Laplacian's colour term is sum_i A_i x D_i phi.  Every
gauge field of build_fields is a hedgehog A_i^a = eps_{iak} w_k of a
3-vector w (x f1/(g r^2), x (+-1)/(g r^2), or 0 for PT), and its curl is
differenced from w's three components alone (ColorField.curl), with the
bits of the curl of all nine.  That w and the scalar hedgehogs below come
from one sampler, x times a radial coefficient that is 0 at the origin.

The phase scalar

    Phi0^a(x) = -pi * (x^a/r) * f01(r),   f01(r) = 1/tanh(r/eps) - eps/r = eps*f0(r),

is dimensionless and interpolates between 0 at the origin and -pi*n_hat at
infinity; a rescaled copy (factor -2/g, see zero_mode_scalar) carries the
normalization used by the vacuum-energy integrals.

All samplers and the stencil operators magnetic_tension, covariant_derivative,
covariant_laplacian and gribov_residual are pure functions of the evaluation
point (no grids); they accept a single point of shape (3,) or a batch of
shape (N, 3), and a stencil with one step or with one step per point.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .algebra import cross, curl, norm
from .errors import DomainError, SingularPointError, StencilError

__all__ = [
    "MonopoleScale",
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
        # the package divides by g^2 (alpha_s) and g^2 eps (the magnetic
        # energy) and forms g^3 (Chern-Simons) and eps^3 (radial volumes);
        # products of floats give inf or 0 here where ** would raise
        g, eps = self.g, self.eps
        if not (sys.float_info.min <= min(g * g, g * g * eps) and max(g * g * g, eps * eps * eps) < math.inf):
            raise DomainError(
                f"g^2 and g^2 eps must be normal floats and g^3, eps^3 finite; "
                f"coupling g {self.g} and core size eps {self.eps} are out of range"
            )

    @property
    def alpha_s(self) -> float:
        return self.g**2 / (4.0 * np.pi)


@dataclass(frozen=True)
class StencilConfig:
    """Central finite-difference stencil: step h (GeV^-1) and accuracy order.

    h is one step, or an (N,) array holding one step per point of the batch
    that the stencil is applied to (stored as a read-only float64 copy).
    Each point's value then has the bits of a stencil built with its own
    scalar step.

    The one owner of the difference weights.  Every finite difference in the
    package goes through _apply, the one routine that forms shifted samples
    (it always differences along a coordinate axis: one coordinate of a copy
    of the points is shifted), and every three-axis gradient through
    _gradient, which takes a batch of points in one pass (the greens
    background operator included; a gauge field's curl differences only its
    vector, see ColorField.curl); the one exception is covariant_laplacian's
    outer sum, which runs over all axes at once.  Both can also difference
    at h and at h/2 in one shared walk over the shifted samples (with_half;
    bogomolnyi_residual's pair of steps).

    A step so small that a first- or second-derivative weight overflows is
    refused.
    """

    h: float | np.ndarray
    order: int = 4

    def __post_init__(self):
        if np.ndim(self.h):
            h = np.array(self.h, dtype=float)
            if h.ndim != 1 or not h.size:
                raise DomainError(f"stencil steps must be one float or a non-empty 1-D array, got shape {h.shape}")
            h.flags.writeable = False
            object.__setattr__(self, "h", h)
            valid = bool(np.all(np.isfinite(h) & (h > 0)))
        else:
            valid = math.isfinite(self.h) and self.h > 0
        if not valid:
            raise DomainError("stencil step h must be positive and finite")
        if self.order not in (2, 4):
            raise DomainError("stencil order must be 2 or 4")
        self.offsets_weights(1)  # refuses a step whose weights overflow

    def offsets_weights(self, deriv: int = 1):
        """Offsets (in units of h) and weights of the first (deriv=1) or
        second (deriv=2) derivative: weights (K,) for one step, (K, N) (one
        column per point) for an array of steps.  Weights past the float
        range are refused, and warn of nothing."""
        h = self.h
        if deriv == 1:
            if self.order == 2:
                offs, coef, scale = (-1.0, 1.0), (-0.5, 0.5), h
            else:
                offs, coef, scale = (-2.0, -1.0, 1.0, 2.0), (1.0, -8.0, 8.0, -1.0), 12.0 * h
        elif self.order == 2:
            offs, coef, scale = (-1.0, 0.0, 1.0), (1.0, -2.0, 1.0), h * h
        else:
            offs, coef, scale = (-2.0, -1.0, 0.0, 1.0, 2.0), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0 * h * h
        with np.errstate(over="ignore", divide="ignore"):  # h * h may underflow to 0
            wts = np.divide.outer(np.array(coef), scale)
        if not np.isfinite(wts).all():
            kind = "first" if deriv == 1 else "second"
            raise DomainError(f"stencil step {np.min(h):g} is too small: its {kind}-derivative weights overflow")
        return np.array(offs), wts

    def _apply(self, sample, x, axis: int, deriv: int = 1, with_half: bool = False):
        """sum_k w_k sample(x + o_k h e_axis): the deriv-th derivative of
        `sample` along a coordinate axis, accumulated one offset at a time
        from zeros in offset order.

        x is a batch of points (N, 3) or a point (3,), each shifted along
        `axis` in a copy.  An array of steps needs one step per entry of x's
        first axis, and each step and weight is broadcast along that axis.
        Each sample is freed before its weighted terms are added.

        with_half also differences at h/2 (self.halved()) and returns the
        pair (at h, at h/2).  One walk then visits the union of both levels'
        shifts in increasing order (-2h, -h, -h/2, h/2, h, 2h at order 4),
        sampling each shifted point once, and a level adds its term only at
        its own offsets, so each level has the bits of a one-level call.  A
        sample is shared only where the two levels' shifts are bitwise equal
        (never, where h/2 is inexact).
        """
        self._require_steps_for(x)
        levels = (self, self.halved()) if with_half else (self,)
        walk = {}  # shift bits -> (offset in units of h, shift, [(level, weight)])
        for level, stencil in enumerate(levels):
            offs, wts = stencil.offsets_weights(deriv)
            for o, s, w in zip(offs.tolist(), np.multiply.outer(offs, stencil.h), wts):
                walk.setdefault(s.tobytes(), (o / 2**level, s, []))[2].append((level, w))
        acc = [0.0] * len(levels)
        for _, s, shared in sorted(walk.values(), key=lambda step: step[0]):  # stable: level 0 first
            xs = x.astype(np.result_type(x, s))
            xs[..., axis] += s
            term = sample(xs)
            terms = [(level, _along_points(w, term) * term) for level, w in shared]
            del xs, term  # free the sample before the adds
            for level, term in terms:
                acc[level] += term
            del terms, term  # and the products before the next sample
        return tuple(acc) if with_half else acc[0]

    def _step_at(self, i: int):
        """The step of point i (the one step, when there is one)."""
        return self.h if np.ndim(self.h) == 0 else float(self.h[i])

    def _require_steps_for(self, x):
        """An array of steps must hold one step per entry of x's first axis."""
        if np.ndim(self.h) and np.shape(x)[:1] != self.h.shape:
            raise DomainError(f"{len(self.h)} stencil steps for points of shape {np.shape(x)}")

    def _gradient(self, sample, pts, with_half: bool = False):
        """d_j of a sampler of point batches at pts (N, 3), shape (N, 3) +
        value-shape, filled axis by axis into one preallocated array
        (stacking the axes would hold all three at once); with_half, the
        pair (at h, at h/2) from _apply's shared walk."""
        outs = []
        for j in range(3):
            ds = self._apply(sample, pts, j, with_half=with_half)
            for level, d in enumerate(ds if with_half else (ds,)):
                if not j:
                    outs.append(np.empty((len(pts), 3) + d.shape[1:], dtype=d.dtype))
                outs[level][:, j] = d
            del ds, d  # free each axis before the next is sampled
        return tuple(outs) if with_half else outs[0]

    def halved(self) -> "StencilConfig":
        return StencilConfig(self.h / 2.0, self.order)


def _along_points(v, like):
    """A per-point (N,) array shaped to broadcast along the first axis of
    `like`; a scalar is returned as it is."""
    return v if np.ndim(v) == 0 else v.reshape(v.shape + (1,) * (np.ndim(like) - 1))


def default_stencil(scale: MonopoleScale) -> StencilConfig:
    """h = eps/200, order 4: resolves the profile curvature near r ~ eps."""
    return StencilConfig(scale.eps / 200.0, 4)


def _check_stencil_scale(stencil: StencilConfig, scale: MonopoleScale):
    coarse = ~(np.asarray(stencil.h) < scale.eps / 10.0)
    if np.any(coarse):
        raise StencilError(
            f"stencil step {stencil._step_at(np.argmax(coarse))} too coarse for eps={scale.eps} (need h < eps/10)"
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
    phi^a for color scalars; units GeV (phase variants: dimensionless).

    A hedgehog gauge field also carries its vector sampler w (from_vector),
    A_i^a = eps_{iak} w_k; curl then differences w's three components, not
    the nine of A."""

    sample_batch: Callable = field(repr=False)
    singular_origin: bool = False
    label: str = ""
    vector_batch: Callable | None = field(default=None, repr=False)

    @classmethod
    def from_vector(cls, vector_batch: Callable, singular_origin: bool = False, label: str = "") -> "ColorField":
        """The gauge field A_i^a = eps_{iak} w_k of a sampler of w (N, 3)."""
        return cls(lambda pts: _eps_lift(vector_batch(pts)), singular_origin, label, vector_batch)

    def sample(self, x) -> np.ndarray:
        pts, single = _batch(x)
        if self.singular_origin and np.any(norm(pts.T) == 0.0):
            raise SingularPointError(f"{self.label or 'field'} is singular at r = 0")
        out = self.sample_batch(pts)
        return out[0] if single else out

    def curl(self, stencil: StencilConfig, pts: np.ndarray) -> np.ndarray:
        """eps_{ijk} d_j A_k^a at a batch pts (N, 3) by the stencil, shape
        (N, 3, 3) [n][i][a], C-contiguous: an einsum over it adds in the
        order it adds over algebra.curl's result.

        With a vector w, d_j A_k^a = eps_{kam} d_j w_m, so the entry a = i is
        d_{i+1} w_{i+1} + d_{i+2} w_{i+2} and every a != i is 0.0 - d_a w_i:
        the bits of the curl of the nine-component gradient, signs of zero
        included (with finite weights a stencil sum is never -0.0, and the
        gradient of a zero entry is +0.0).  Without a vector, the curl of the
        gradient of all nine components."""
        if self.vector_batch is None:
            return curl(stencil._gradient(self.sample_batch, pts))
        return _vector_curl(stencil._gradient(self.vector_batch, pts))


def _vector_curl(dw):
    """The curl (N, 3, 3) [n][i][a] of the hedgehog A_i^a = eps_{iak} w_k
    from the gradient of its vector, dw[n][j][m] = d_j w_m (see
    ColorField.curl)."""
    out = np.subtract(0.0, dw.transpose(0, 2, 1), out=np.empty_like(dw))  # [n][i][a] = 0.0 - d_a w_i
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[:, i, i] = dw[:, j, j] + dw[:, k, k]
    return out


def _batch(x):
    """(N, 3) coordinates of a point (3,), a batch (N, 3) or a list of points,
    and whether a single point was given.  Float dtypes are kept (extended
    precision passes through the samplers untouched)."""
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def _coth_minus_inv(x):
    """coth(x) - 1/x, series-protected near 0 (cancellation) and overflow-safe.
    Each branch is evaluated only on the elements that select it, and not at
    all when there are none."""
    x = np.asarray(x)
    small = np.abs(x) < 0.05
    direct = ~small
    out = np.empty_like(x)
    if small.any():
        xm = x[small]  # the series sees only small x: x * x overflows at large x
        x2 = xm * xm
        out[small] = xm * (1.0 / 3.0 - x2 * (1.0 / 45.0 - x2 * (2.0 / 945.0 - x2 / 4725.0)))
    if direct.any():
        xs = x[direct]
        out[direct] = 1.0 / np.tanh(xs) - 1.0 / xs
    return out


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
    """x/sinh(x) without overflow; 1 at x = 0 and 0 at x = inf.  Each branch
    is evaluated only on the elements that select it, and not at all when
    there are none."""
    x = np.asarray(x)
    small = np.abs(x) < 1e-8
    big = x > 30.0
    direct = ~(small | big)
    out = np.empty_like(x)
    if small.any():
        xm = x[small]
        out[small] = 1.0 - xm * xm / 6.0
    if big.any():
        # 2x e^-x/(1 - e^-2x), which never overflows and underflows to 0 as
        # it should.  Past c, where e^-x alone is subnormal, e^-x =
        # e^-c e^(c - x) keeps the digits that the factor 2x brings back; inf
        # is taken as the largest float, whose tail is 0 (inf * 0 would be NaN)
        finfo = np.finfo(x.dtype)
        c = -np.log(finfo.tiny)
        xb = np.minimum(x[big], finfo.max)
        xc = np.minimum(xb, c)
        tail = xb * (2.0 * np.exp(-xc))
        deep = xb > c
        tail[deep] *= np.exp(c - xb[deep])
        out[big] = tail / (1.0 - np.exp(-2.0 * xc))
    if direct.any():
        xs = x[direct]
        out[direct] = xs / np.sinh(xs)
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
    """Exact radial derivative of f01_bps (series-protected near the origin).
    Each branch is evaluated only on its own elements, and not at all when
    there are none."""
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be non-negative")
    x = np.asarray(r / eps)
    small = np.abs(x) < 0.05
    # past 350, 1/sinh(x)^2 = 4e^-2x/(1 - e^-2x)^2 < 4e^-700 is below half
    # an ulp of 1/x^2 and drops out; past 1e154 x**2 overflows, and
    # 1/x^2 = (1/x)^2
    far = x > 1e154
    tail = (x > 350.0) & ~far
    direct = ~(small | tail | far)
    out = np.empty_like(x)
    if small.any():
        xm = x[small]  # the series sees only small x, as in _coth_minus_inv
        x2 = xm * xm
        out[small] = (1.0 / 3.0 - x2 * (1.0 / 15.0 - x2 * (2.0 / 189.0 - x2 / 675.0))) / eps
    if direct.any():
        xs = x[direct]
        out[direct] = (1.0 / xs**2 - 1.0 / np.sinh(xs) ** 2) / eps
    if tail.any():
        out[tail] = 1.0 / x[tail] ** 2 / eps
    if far.any():
        out[far] = (1.0 / x[far]) ** 2 / eps
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def _hedgehog(pts, numer, denom):
    """pts[n] * numer(r)/denom(r), with the r=0 limit 0: the vector w of a
    gauge hedgehog A_i^a = eps_{iak} w_k (numer f1 or +-1, denom g r^2) or a
    scalar hedgehog phi^a = n_hat_a c(r) (numer c, denom r)."""
    r = norm(pts.T)
    return pts * np.divide(numer(r), denom(r), out=np.zeros_like(r), where=r > 0)[:, None]


def _eps_lift(w):
    """A[n,i,a] = eps_{iak} w[n,k]: the six nonzero entries of a vector batch."""
    A = np.zeros((len(w), 3, 3), dtype=w.dtype)
    A[:, 0, 1], A[:, 1, 2], A[:, 2, 0] = w[:, 2], w[:, 0], w[:, 1]
    A[:, 1, 0], A[:, 2, 1], A[:, 0, 2] = -w[:, 2], -w[:, 0], -w[:, 1]
    return A


def build_fields(scale: MonopoleScale, variant) -> tuple[ColorField, ColorField]:
    """Construct the gauge/scalar pair for a variant.

    BPS uses the smooth profiles; WuYangPlus/WuYangMinus use f = +1/-1 with the
    phase scalar (singular at the origin); PT is the trivial pair A = phi = 0.
    """
    variant = FieldVariant.parse(variant)
    g, eps = scale.g, scale.eps

    if variant is FieldVariant.PT:
        zero_s = lambda pts: np.zeros((len(pts), 3))
        return (
            ColorField.from_vector(zero_s, label="PT gauge"),
            ColorField(zero_s, label="PT scalar"),
        )

    if variant is FieldVariant.BPS:
        gauge = ColorField.from_vector(
            lambda pts: _hedgehog(pts, lambda r: f1_bps(r, eps), lambda r: g * (r * r)),
            label="BPS gauge",
        )
        scalar = ColorField(
            lambda pts: _hedgehog(pts, lambda r: f0_bps(r, eps) / g, lambda r: r),
            label="BPS scalar",
        )
        return gauge, scalar

    sign = 1.0 if variant is FieldVariant.WU_YANG_PLUS else -1.0
    gauge = ColorField.from_vector(
        lambda pts: _hedgehog(pts, lambda r: np.full_like(r, sign), lambda r: g * (r * r)),
        singular_origin=True,
        label=f"WuYang{'Plus' if sign > 0 else 'Minus'} gauge",
    )
    return gauge, gribov_phase_scalar(scale)


def gribov_phase_scalar(scale: MonopoleScale) -> ColorField:
    """Phase scalar Phi0^a = -pi (x^a/r) f01(r); dimensionless hedgehog,
    smooth at the origin (f01/r has a finite limit)."""
    eps = scale.eps
    return ColorField(
        lambda pts: _hedgehog(pts, lambda r: -np.pi * f01_bps(r, eps), lambda r: r),
        label="phase scalar",
    )


def zero_mode_scalar(scale: MonopoleScale) -> ColorField:
    """Zero-mode scalar (2 pi/g)(x^a/r) f01(r); the normalization under which
    the vacuum inertia integral closes to 4 pi^2 eps / alpha_s."""
    g, eps = scale.g, scale.eps
    return ColorField(
        lambda pts: _hedgehog(pts, lambda r: (2.0 * np.pi / g) * f01_bps(r, eps), lambda r: r),
        label="zero-mode scalar",
    )


# ---------------------------------------------------------------------------
# stencils and first-order quantities
# ---------------------------------------------------------------------------

def _require_stencil_safe(field_obj, pts: np.ndarray, stencil: StencilConfig):
    stencil._require_steps_for(pts)
    r = norm(pts.T)
    close = r < 10.0 * stencil.h
    if getattr(field_obj, "singular_origin", False) and np.any(close):
        i = np.argmax(close)
        raise StencilError(
            f"point at r={float(r[i]):.3e} within 10 h = {10 * stencil._step_at(i):.3e} of the singular origin"
        )


def magnetic_tension(field: ColorField, x, stencil: StencilConfig, g: float) -> np.ndarray:
    """Non-Abelian magnetic tension B[i][a] (GeV^2) by central differences,
    at a point (3,) or a batch (N, 3), giving (3, 3) or (N, 3, 3).

    Curl part by the configured stencil through ColorField.curl (for the
    hedgehog fields, from the three components of their vector); quadratic
    self-coupling evaluated exactly at the point, as
    (g/2) eps_{ijk} eps_{abc} A_j^b A_k^c = g (A_{i+1} x A_{i+2})^a (spatial
    indices mod 3).
    """
    pts, single = _batch(x)
    _require_stencil_safe(field, pts, stencil)
    At = field.sample(pts).T  # [a][i][n]
    B = field.curl(stencil, pts) - _self_coupling(At, g)
    return B[0] if single else B


def _self_coupling(At, g):
    """g (A_{i+1} x A_{i+2})^a, [n][i][a], of the gauge sample At [a][i][n]:
    the quadratic term of the magnetic tension."""
    return g * cross(At[:, [1, 2, 0]], At[:, [2, 0, 1]]).T


def _colour_rotation(At, phi, g):
    """g eps_{abc} A_i^b phi^c = g (A_i x phi)^a, [n][i][a], of the samples
    At [a][i][n] and phi [n][a]: the colour term of the covariant gradient."""
    return g * cross(At, phi.T[:, None]).T


def covariant_derivative(
    gauge: ColorField, scalar: ColorField, x, stencil: StencilConfig, g: float
) -> np.ndarray:
    """Adjoint covariant gradient (D_i phi)^a = d_i phi^a - g eps_{abc} A_i^b phi^c
    at a point (3,) or a batch (N, 3), giving (3, 3) or (N, 3, 3)."""
    pts, single = _batch(x)
    _require_stencil_safe(gauge, pts, stencil)
    _require_stencil_safe(scalar, pts, stencil)
    dphi = stencil._gradient(scalar.sample_batch, pts)  # [n][i][a]
    D = dphi - _colour_rotation(gauge.sample(pts).T, scalar.sample(pts), g)
    return D[0] if single else D


def covariant_laplacian(
    gauge: ColorField, scalar: ColorField, x, stencil: StencilConfig, g: float
) -> np.ndarray:
    """(D_i D_i phi)^a by nesting covariant_derivative in an outer stencil,
    at a centre (3,) or a batch of centres (M, 3), giving (3,) or (M, 3).
    With an (M,) array of steps each centre takes its own step, inner and
    outer, and each row has the bits of a call with that step alone.

    One inner call covers every centre and its shifted points.  The outer
    divergence keeps one running sum over all axes and offsets; regrouping
    it per axis moves the reported residuals in their last bits."""
    xc, single = _batch(x)
    stencil._require_steps_for(xc)
    offs, wts = stencil.offsets_weights()
    steps = np.eye(3, dtype=xc.dtype)[:, None, :] * _along_points(stencil.h, xc)  # [j][m] = h_m e_j
    shifted = xc + offs[:, None, None] * steps[:, None]  # [j][k][m]: xc_m + o_k h_m e_j
    pts = np.concatenate([xc[None], shifted.reshape(-1, *xc.shape)]).reshape(-1, 3)
    # each centre's step again for its shifted points, one block of M per shift
    inner = stencil if np.ndim(stencil.h) == 0 else StencilConfig(np.tile(stencil.h, 1 + 3 * len(offs)), stencil.order)
    D = covariant_derivative(gauge, scalar, pts, inner, g).reshape(-1, *xc.shape, 3)  # [centre or shift][m][i][a]
    div = np.zeros(xc.shape, dtype=xc.dtype)
    for Dk, (j, w) in zip(D[1:], itertools.product(range(3), wts)):
        div = div + _along_points(w, div) * Dk[:, j]
    At = gauge.sample(xc).T  # [a][i][m]
    out = div - g * cross(At, D[0].T).sum(axis=1).T  # sum_i (A_i x D_i phi)^a
    return out[0] if single else out


def bogomolnyi_residual(
    scale: MonopoleScale,
    points,
    stencil: StencilConfig | None = None,
    variant=FieldVariant.BPS,
    sign: int = 1,
) -> tuple[float, float]:
    """Max pointwise first-order residual over the given points (an (N, 3)
    array, a point, or a list of points), at the stencil's step h and at h/2:
    the pair (residual at h, residual at h/2).

    BPS: max ||B - sign*D(phi)|| / ||B||  (Frobenius norms).
    PT: both sides vanish identically; the 0/0 is reported as exact zero.
    WuYang variants: the phase scalar matches B only up to an overall scale,
    so the scale-invariant alignment residual sqrt(1 - <B_hat, D_hat>^2) is
    returned instead.

    B and D at both steps come from one shared stencil walk over the gauge
    vector, one over the scalar and one unshifted sample of each
    (_first_order_pairs); each residual has the bits of magnetic_tension and
    covariant_derivative at its step alone.
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
        return 0.0, 0.0

    # extended precision keeps the stencil's own order visible below the
    # double-precision cancellation floor
    residuals = []
    for B, D in _first_order_pairs(gauge, scalar, pts.astype(np.longdouble), stencil, scale.g):
        nb, nd = np.linalg.norm(B, axis=(1, 2)), np.linalg.norm(D, axis=(1, 2))
        if variant is FieldVariant.BPS:
            res = np.linalg.norm(B - sign * D, axis=(1, 2)) / nb
        else:
            cos = np.abs(np.sum(B * D, axis=(1, 2))) / (nb * nd)
            res = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
        residuals.append(float(np.max(res, initial=0.0)))
    return tuple(residuals)


def _first_order_pairs(gauge: ColorField, scalar: ColorField, pts: np.ndarray, stencil: StencilConfig, g: float):
    """[(B, D) at h, (B, D) at h/2] at a batch pts (N, 3) for a hedgehog
    gauge field (one with a vector): magnetic_tension and
    covariant_derivative at both steps, bit for bit, from one shared walk
    over the gauge vector, one over the scalar and one unshifted sample of
    each."""
    _require_stencil_safe(gauge, pts, stencil)
    _require_stencil_safe(scalar, pts, stencil)
    At = gauge.sample(pts).T  # [a][i][n]
    quad = _self_coupling(At, g)
    Bs = [_vector_curl(dw) - quad for dw in stencil._gradient(gauge.vector_batch, pts, with_half=True)]
    rot = _colour_rotation(At, scalar.sample(pts), g)
    del At, quad
    return [(B, dphi - rot) for B, dphi in zip(Bs, stencil._gradient(scalar.sample_batch, pts, with_half=True))]


def gribov_residual(
    scale: MonopoleScale,
    x,
    stencil: StencilConfig | None = None,
    variant=FieldVariant.BPS,
    scalar: ColorField | None = None,
) -> np.ndarray:
    """Color components of D^2(A) Phi0 at a centre x (3,), or at a batch of
    centres (M, 3) in one pass, giving (3,) or (M, 3); zero for the phase
    scalar on the smooth background (and on the singular one far outside the
    core).  A stencil with an (M,) array of steps gives each centre its own
    step, with the bits of one call per centre.  Components beyond the
    float64 range come back as inf.

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
    xe, single = _batch(x)
    out = covariant_laplacian(gauge, phase, xe.astype(np.longdouble), stencil, scale.g)
    with np.errstate(over="ignore"):
        out = out.astype(float)
    return out[0] if single else out
