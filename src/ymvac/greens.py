"""Green-function structure of the hedgehog monopole background.

The color-tensor Green function is decomposed over the radial frame,

    G^{ab}(x, y) = n^a(x) n^b(y) V0(z)
                   + [ (n(x).n(y)) d^{ab} - n^a(y) n^b(x) ] V1(z),
    z = |x - y|,

where the transverse structure is the frame contraction
sum_c (c x n(x))^a (c x n(y))^b over a color basis c; it collapses to the
transverse projector 1 - n n^T for colinear points, and its columns are
exactly the structures the background operator annihilates (the projector
contraction P(x) P(y) is not: the operator's homogeneous transverse
solutions are (c x n_hat) V1, not P c V1).  Each radial potential solves
the Euler equation

    V'' + (2/z) V' - (n/z^2) V = 0,   V_n(z) = d_n z^{l1} + c_n z^{l2},

with exponents the roots of l^2 + l = n.  n = 0 reproduces the Coulomb pair
(-1, 0); n = 1 gives the golden-section pair (-(1+sqrt5)/2, (sqrt5-1)/2).

The hedgehog covariant Laplacian acting on a color vector S, expanded over
the f = +1 background, is

    (D^2 S)^a = Lap S^a - (n^a n^b + d^{ab}) S_b / r^2
                + (2/r)(n^a d^b - n^b d^a) S_b,

implemented by central differences in monopole_covariant_laplacian; it
annihilates the assembled tensor at colinear configurations.  The tensor is
sampled on point batches, and the operator differentiates all of its color
columns at once through the shared stencil engine (StencilConfig).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bps_profiles import StencilConfig, _along_points, _batch
from .errors import DomainError

__all__ = [
    "EulerSolution",
    "GreenTensor",
    "golden_roots",
    "golden_solution",
    "euler_residual",
    "radial_ym_residual",
    "shoot_radial",
    "RadialTrajectory",
    "monopole_covariant_laplacian",
]


def golden_roots(n: int) -> tuple[float, float]:
    """Roots (l1 <= l2) of l^2 + l = n in closed form."""
    disc = 1.0 + 4.0 * n
    if disc < 0:
        raise DomainError(f"no real exponents for index n={n}")
    s = np.sqrt(disc)
    return (-(1.0 + s) / 2.0, (-1.0 + s) / 2.0)


@dataclass(frozen=True)
class EulerSolution:
    """Power pair V(z) = d z^l1 + c z^l2 for the index-n Euler equation.

    Exponents are stored explicitly so perturbed (non-solution) pairs can be
    represented for negative controls; build exact ones with golden_solution.
    """

    n: int
    d: float
    c: float
    l1: float
    l2: float

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if not np.all(z > 0):
            raise DomainError("separation z must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            dz, cz = self.d * z**self.l1, self.c * z**self.l2
            out = dz + cz
        bad = ~np.isfinite(out)
        if np.any(bad):  # name the term(s) that overflow at the first such z, or both if only their sum does
            first = np.flatnonzero(bad)[0]
            terms = [(f"d={self.d:g}", dz), (f"c={self.c:g}", cz)]
            named = [k for k, t in terms if not np.isfinite(t.flat[first])] or [k for k, _ in terms]
            raise DomainError(f"potential V_{self.n} leaves the float range at z={z.flat[first]:.3g}"
                              f" with coefficient {' and '.join(named)}")
        return out if out.ndim else float(out)

    def vieta_defect(self) -> tuple[float, float]:
        return (abs(self.l1 + self.l2 + 1.0), abs(self.l1 * self.l2 + self.n))


def golden_solution(n: int, d: float, c: float) -> EulerSolution:
    l1, l2 = golden_roots(n)
    return EulerSolution(n=n, d=d, c=c, l1=l1, l2=l2)


def euler_residual(sol: EulerSolution, z):
    """Residual of V'' + (2/z)V' - (n/z^2)V at a separation z or an array of
    them, from term-by-term analytic derivatives: the power pair with
    coefficients d r1, c r2 (r = l(l - 1) + 2l - n) and exponents lowered by 2."""
    r1 = sol.l1 * (sol.l1 - 1.0) + 2.0 * sol.l1 - sol.n
    r2 = sol.l2 * (sol.l2 - 1.0) + 2.0 * sol.l2 - sol.n
    return EulerSolution(sol.n, sol.d * r1, sol.c * r2, sol.l1 - 2.0, sol.l2 - 2.0).value(z)


def radial_ym_residual(f: Callable, r: float, h: float | None = None) -> float:
    """Residual of f'' + f(f^2 - 1)/r^2 for a radial profile f(r).

    f'' by a 4th-order central stencil with step h (default r/500), applied
    to f - f(r) so that the constant fixed points f = 0, +1, -1 are exact;
    the profile is differenced along axis 0 of the point (r, 0, 0).  A step
    whose second-derivative weights overflow (the default one below r of
    about 1e-151) is refused with a DomainError.
    """
    if not (r > 0):
        raise DomainError("radius must be positive")
    f0 = f(r)
    fpp = StencilConfig(h or r / 500.0, 4)._apply(lambda x: f(x[0]) - f0, np.array([r, 0.0, 0.0]), 0, deriv=2)
    return float(fpp + f0 * (f0 * f0 - 1.0) / (r * r))


@dataclass(frozen=True)
class RadialTrajectory:
    r: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    classification: str  # 'fixed:0' | 'fixed:+1' | 'fixed:-1' | 'divergent' | 'undecided'
    diverged: bool


def shoot_radial(
    f0: float,
    f0_slope: float,
    r_span: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "RK45",
    blowup: float = 1e6,
) -> RadialTrajectory:
    """Integrate f'' = f(1 - f^2)/r^2 and classify the terminal behaviour.

    Blow-up (|f| > 1e6) is a valid classification outcome, not a failure.
    """
    r0, r1 = r_span
    if not (0 < r0 < r1):
        raise DomainError("r_span must satisfy 0 < r0 < r1")
    if not (np.isfinite(f0) and np.isfinite(f0_slope)):
        raise DomainError("initial data must be finite")

    def rhs(r, y):
        return [y[1], y[0] * (1.0 - y[0] ** 2) / (r * r)]

    def blow(r, y):
        return abs(y[0]) - blowup

    blow.terminal = True

    from scipy.integrate import solve_ivp  # lazy: it costs more than importing all of ymvac

    sol = solve_ivp(
        rhs, (r0, r1), [f0, f0_slope], method=method, rtol=rtol, atol=atol,
        events=blow, dense_output=False,
    )
    diverged = len(sol.t_events[0]) > 0
    f_end = sol.y[0, -1]
    if diverged:
        cls = "divergent"
    else:
        cls = "undecided"
        for target, name in ((0.0, "fixed:0"), (1.0, "fixed:+1"), (-1.0, "fixed:-1")):
            if abs(f_end - target) < 0.05:
                cls = f"{name}"
                break
    return RadialTrajectory(r=sol.t, f=sol.y[0], fp=sol.y[1], classification=cls, diverged=diverged)


# ---------------------------------------------------------------------------
# assembled tensor and the background operator
# ---------------------------------------------------------------------------

def _rowdot(u, v):
    """Row-wise dots of (N, 3) batches, each summed as a single-point dot (same bits)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class GreenTensor:
    """Color 3x3 tensor sampler built from the radial potentials."""

    sol0: EulerSolution
    sol1: EulerSolution

    def __post_init__(self):
        if self.sol0.n != 0 or self.sol1.n != 1:
            raise DomainError("GreenTensor needs the n=0 and n=1 radial solutions")

    def evaluate(self, x, y) -> np.ndarray:
        """G^{ab}(x, y) for points (3,) or batches (N, 3), broadcast against
        each other: (3, 3) for two points, (N, 3, 3) otherwise."""
        (x, single_x), (y, single_y) = _batch(x), _batch(y)
        rx, ry = np.sqrt(_rowdot(x, x)), np.sqrt(_rowdot(y, y))
        if np.any(rx == 0) or np.any(ry == 0):
            raise DomainError("tensor undefined at the origin")
        z = np.sqrt(_rowdot(x - y, x - y))
        if np.any(z == 0):
            raise DomainError("coincident points")
        nx, ny = x / rx[:, None], y / ry[:, None]
        transverse = _rowdot(nx, ny)[:, None, None] * np.eye(3) - ny[:, :, None] * nx[:, None, :]
        out = (nx[:, :, None] * ny[:, None, :] * self.sol0.value(z)[:, None, None]
               + transverse * self.sol1.value(z)[:, None, None])
        return out[0] if single_x and single_y else out


def monopole_covariant_laplacian(S: Callable, x, h, order: int = 2) -> np.ndarray:
    """Apply the f = +1 background operator, by central differences, at a
    point x (3,) or at a batch of points (M, 3) in one pass, to a color field
    S mapping a batch (N, 3) to one color vector (N, 3) or to k color columns
    (N, 3, k); the result is (3,) or (3, k) per point, with a leading M axis
    for a batch.  h is one step, or an (M,) array of steps, one per point;
    each point's result has the bits of a call at that point alone.

    Lap S^a - (n^a n^b + d^{ab}) S_b/r^2 + (2/r)(n^a d_b S^b - n^b d_a S^b).
    """
    pts, single = _batch(x)
    r = np.array([float(np.linalg.norm(p)) for p in pts])  # float64 also for longdouble points
    if np.any(r == 0):
        raise DomainError("operator singular at the origin")
    stencil = StencilConfig(h, order)
    S0 = S(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = stencil._gradient(S, pts)  # grad[m][j][a] = d_j S^a
        lap = sum(stencil._apply(S, pts, j, deriv=2) for j in range(3))
        n = (pts / r[:, None]).reshape(pts.shape + (1,) * (S0.ndim - 2))  # broadcasts over columns
        div = np.trace(grad, axis1=1, axis2=2)[:, None]
        nb_da_Sb = np.sum(grad * n[:, None], axis=2)  # [m][a] = n^b d_a S^b
        out = (lap - (n * np.sum(n * S0, axis=1, keepdims=True) + S0) / _along_points(r * r, S0)
               + _along_points(2.0 / r, S0) * (n * div - nb_da_Sb))
    bad = ~np.isfinite(out.reshape(len(pts), -1)).all(axis=1)
    if np.any(bad):
        i = np.argmax(bad)
        raise DomainError(f"the operator leaves the float range at r={r[i]:.3g}, "
                          f"h={stencil._step_at(i):.3g}, |S| <= {np.abs(S0[i]).max():.3g}")
    return out[0] if single else out
