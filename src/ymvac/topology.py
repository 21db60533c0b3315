"""Winding-number and degree-of-map integrals over exponentiated phase factors.

The stationary group factor with winding index n is

    v^(n)(x) = exp(-i pi n f(r) tau.n_hat) = cos(pi n f) 1 - i sin(pi n f) tau.n_hat,

where the radial profile is the smooth phase profile f01, with f01(0) = 0 and
f01(r) -> 1.  For odd n the factor tends to the central element
-1 at spatial infinity; no asymptotic is asserted here.  The same map with an
amplitude prefactor c and an adjoint rotation R,

    exp(-i c pi n f(r) tau.(R n_hat)),

gives the interference module's dressed factors (c = -2: unit asymptotics).

The degree of the map is computed as

    N[n] = -1/(24 pi^2) int d^3x eps^{ijk} tr[ L_i L_j L_k ],   L_i = v^-1 d_i v,

and the Chern-Simons winding functional, with A_hat the su(2) matrix of the
package's one sign of g (A_hat_i = -g tau^a A_i^a/(2i), see ymvac), as

    X[A] = -1/(8 pi^2) int d^3x eps^{ijk} tr[ A_hat_i d_j A_hat_k
                                              + (2/3) A_hat_i A_hat_j A_hat_k ].

Orientation fixed so that N[n] = n and X[pure gauge v^(n)] = n; the two are
also cross-checked against the 1D radial reduction
(1/pi)[alpha - sin(alpha) cos(alpha)] evaluated between r = 0 and infinity.
Both integrate over the nodes of QuadratureSpec.ball_nodes, the same node
set, so a pure gauge's X and the degree differ only by the curl's stencil.

The group factors exist only as unit quaternions: v = q0 - i q.tau is the
real 4-vector (q0, q), and the product of two is (a0 b0 - a.b, a0 b + b0 a +
a x b).  Every integrand is real: an su(2) element is a real 3-vector,
tr[(a.tau)(b.tau)] = 2 a.b and
tr[(a.tau)(b.tau)(c.tau)] = 2i a.(b x c), and every eps contraction below is
a cross product or a curl written out (algebra.cross, algebra.curl).  With
the real current c_i = q0 d_i q - d_i q0 q + q x d_i q of
d_i v v^-1 = -i c_i.tau:

- degree density: -eps^{ijk} tr[L_i L_j L_k]/(24 pi^2) = det[c_1, c_2, c_3]/(2 pi^2);
- Chern-Simons: eps^{ijk} tr[A_hat_i d_j A_hat_k] = -(g^2/2) eps^{ijk} A_i^a d_j A_k^a
  and eps^{ijk} tr[A_hat_i A_hat_j A_hat_k] = +(3 g^3/2) det[A_1, A_2, A_3];
- gauge transform: v (A_hat_i + d_i) v^-1 has components R(q) A_i + (2/g) c_i,
  R(q) the adjoint rotation of v, and tr[A_hat_j v d_k v^-1] = -g A_j . c_k,
  so the surface flux eps^{ijk} tr[A_hat_j L_k] is -g sum_a (A^a x c^a)_i.

quaternion is _step (the n-dependent part) of _frame (the rest), so a
map_degree sequence of n shares each frame, and n and -n share one step (the
step of -n is that of +n with q and d_i q negated, bit for bit; see
_degree_integrals).  Both ball integrals fill one density _BLOCK nodes (the
package's one batch size, from bps_profiles) at a time, so no temporary
grows with N, and sum it whole, so the blocks change no bit.  The
Chern-Simons derivative term needs only the curl eps^{ijk} d_j A_k, which
ColorField.curl differences from the hedgehog's 3-vector (a gauge field
built without one, such as gauge_transform's, falls back to the gradient of
all nine components).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import cross, norm
from .bps_profiles import _BLOCK, ColorField, StencilConfig, _batch, d_f01_bps, f01_bps
from .errors import DomainError, TruncationError

__all__ = [
    "QuadratureSpec",
    "GribovFactorMap",
    "map_degree",
    "map_degree_radial_oracle",
    "winding_functional",
    "gauge_transform",
    "instanton_amplitude",
    "surface_flux_term",
]

_REFINE = 1.5  # node-count factor of QuadratureSpec.refined


@dataclass(frozen=True)
class QuadratureSpec:
    """Spherical product rule over the ball of radius r_max.

    Radial nodes are Gauss-Legendre in the compactified variable u,
    r = eps_ref tan(pi u/2), Gauss-Legendre in cos(theta), uniform midpoint
    in azimuth.
    """

    r_max: float
    n_r: int = 48
    n_theta: int = 24
    n_phi: int = 24

    def __post_init__(self):
        counts = (self.n_r, self.n_theta, self.n_phi)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise DomainError(f"node counts must be integers, got {counts}")
        if min(counts) < 16:
            raise DomainError("node counts must be at least 16")
        if not self.r_max > 0:  # NaN too: it would drop every node
            raise DomainError(f"r_max must be positive, got {self.r_max}")

    def check_reaches(self, eps_ref: float):
        if not self.r_max >= 50.0 * eps_ref:
            raise DomainError(f"r_max={self.r_max} must be at least 50x the profile scale {eps_ref}")

    def refined(self) -> "QuadratureSpec":
        """The same ball with 1.5 times the nodes on each axis."""
        return QuadratureSpec(
            self.r_max,
            int(np.ceil(self.n_r * _REFINE)),
            int(np.ceil(self.n_theta * _REFINE)),
            int(np.ceil(self.n_phi * _REFINE)),
        )

    def ball_nodes(self, eps_ref: float = 1.0):
        """Nodes (N, 3) and weights (N,) including the r^2 volume factor, the
        one node set of both ball integrals.  Shells of radius 0 are
        dropped: the Gauss-Legendre radii are interior, so only a radius
        eps_ref tan(pi u/2) that underflows is 0."""
        u_max = (2.0 / np.pi) * np.arctan(self.r_max / eps_ref)
        r, wr = _compactified_radial(self.n_r, eps_ref, u_max)
        dirs, wdir = _sphere_nodes(self.n_theta, self.n_phi)
        r, wr = r[r > 0], wr[r > 0]
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        wts = (wr * r**2)[:, None] * wdir[None, :]
        return pts, wts.reshape(-1)


@lru_cache(maxsize=16)
def _leggauss(n: int):
    """leggauss(n), built once per n and read-only."""
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_legendre(n: int, upper: float):
    """n-point Gauss-Legendre nodes and weights mapped affinely onto [0, upper]."""
    x, w = _leggauss(n)
    return 0.5 * upper * (x + 1.0), 0.5 * upper * w


def _compactified_radial(n: int, eps_ref: float, u_max: float = 1.0):
    """Radial nodes r = eps_ref tan(pi u/2), u Gauss-Legendre on [0, u_max]
    (u_max = 1 reaches infinity); the weights carry dr/du."""
    u, wu = _gauss_legendre(n, u_max)
    r = eps_ref * np.tan(0.5 * np.pi * u)
    dr_du = eps_ref * (0.5 * np.pi) / np.cos(0.5 * np.pi * u) ** 2
    return r, wu * dr_du


def _sphere_nodes(n_theta: int, n_phi: int):
    """Unit directions (N, 3) and solid-angle weights (N,): Gauss-Legendre in
    cos(theta), uniform midpoint in azimuth."""
    ct, wc = _leggauss(n_theta)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wp = 2.0 * np.pi / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.outer(ct, np.ones_like(phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    return dirs, (wc[:, None] * wp * np.ones_like(phi)[None, :]).reshape(-1)


# ---------------------------------------------------------------------------
# group factors
# ---------------------------------------------------------------------------

class GribovFactorMap:
    """Map x -> v^(n)(x) with closed-form derivatives, evaluated as the unit
    quaternion (q0, q) of v = q0 1 - i q.tau (see quaternion).

    v = cos(A) 1 - i sin(A) tau.m_hat with A(r) = c pi n f01(r) and
    m_hat = R n_hat (c: amplitude prefactor, R: optional adjoint rotation);
    f01 is differentiated exactly.  eps_ref is checked where f01 is first
    evaluated.  Points keep their float dtype (bps_profiles._batch), and a
    point other than the origin whose norm underflows to 0, or a point whose
    norm overflows, is refused.
    """

    def __init__(self, n: int, eps_ref: float = 1.0, prefactor: float = 1.0, rotation=None):
        self.n = int(n)
        self.eps_ref = float(eps_ref)
        self.prefactor = float(prefactor)
        self._coef = self.prefactor * np.pi * self.n  # A(r) = coef f01(r)
        self.rotation = None if rotation is None else np.asarray(rotation, dtype=float)

    def quaternion(self, pts, derivs: bool = True):
        """v = q0 - i q.tau at a batch of N points, component axes first so
        that every elementwise step runs over the points: q0 (N,), q (3, N)
        and, with derivs, d_i q0 (3, N) [i][n] and d_i q (3, 3, N) [a][i][n]
        (else None), all from one pass over the radii, unit vectors and f01.

        q0 = cos A and q = sin A m_hat, with d_i m_hat = (R[:, i] - n_i m_hat)/r;
        the derivatives require r > 0 at every point."""
        return self._step(self._frame(pts, derivs))

    def _frame(self, pts, derivs: bool):
        """quaternion's part that maps differing only in n share: r, n_hat,
        m_hat, f01 and, with derivs (else None), f01' and d_i m_hat."""
        pts = _batch(pts)[0]
        with np.errstate(over="ignore"):  # refused below
            r = norm(pts.T)
        if np.any(pts[r == 0]):
            raise DomainError(f"the norm of a point other than the origin underflows to 0 in {pts.dtype}")
        if np.isinf(r).any():
            raise DomainError(f"the norm of the point {pts[np.isinf(r)][0].tolist()} overflows in {pts.dtype}")
        nh = pts / np.where(r > 0, r, 1.0)[:, None]
        mh = np.ascontiguousarray((nh if self.rotation is None else nh @ self.rotation.T).T)
        nh = np.ascontiguousarray(nh.T)
        f = f01_bps(r, self.eps_ref)
        if not derivs:
            return r, nh, mh, f, None, None
        if np.any(r == 0):
            raise DomainError("derivative of the factor is undefined at r = 0")
        rot = np.eye(3) if self.rotation is None else self.rotation  # [a][i]
        return r, nh, mh, f, d_f01_bps(r, self.eps_ref), (rot[:, :, None] - mh[:, None] * nh[None]) / r

    def _step(self, frame):
        """quaternion's n-dependent part on a frame from _frame."""
        r, nh, mh, f, df, dmh = frame
        A = self._coef * f
        A[r == 0] = 0.0  # v = 1 at the origin whatever f01's rounding there
        ca, sa = np.cos(A), np.sin(A)
        q = sa * mh
        if df is None:
            return ca, q, None, None
        dA = self._coef * df
        dq0 = -(sa * dA) * nh
        dq = (ca * dA) * nh[None] * mh[:, None] + sa * dmh
        return ca, q, dq0, dq

    def distance_to_identity(self, pts) -> np.ndarray:
        """||v - 1||_2 at each point, shape (N,).  A real quaternion
        a 1 - i b.tau is hypot(a, |b|) times an SU(2) element, so the
        spectral norm of v - 1 is hypot(1 - q0, |q|)."""
        q0, q, _, _ = self.quaternion(pts, derivs=False)
        return np.hypot(1.0 - q0, norm(q))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def _det3(m: np.ndarray) -> np.ndarray:
    """det[m_1, m_2, m_3] = m_1 . (m_2 x m_3) of rows m_i = m[:, i], for m of
    shape (3, 3, N) [a][i][n]."""
    return np.sum(m[:, 0] * cross(m[:, 1], m[:, 2]), axis=0)


def _current_terms(q0, q, dq0, dq):
    """The terms a = q0 d_i q, b = d_i q0 q and x = q x d_i q, each (3, 3, N)
    [a][i][n], of the current c_i = (a - b) + x (see _current)."""
    qb = q[:, None]
    x = cross(qb, dq)  # first: its temporaries come and go before a and b are held
    return q0 * dq, qb * dq0, x


def _current(q0, q, dq0, dq) -> np.ndarray:
    """Real right current c_i, (3, 3, N) [a][i][n], of d_i v v^-1 = -i c_i.tau:
    c_i = q0 d_i q - d_i q0 q + q x d_i q.  Also v d_i v^-1 = +i c_i.tau."""
    a, b, x = _current_terms(q0, q, dq0, dq)
    a -= b  # in place, as numpy reuses the temporaries of the unnamed a - b + x
    a += x
    return a


def _blocks(n: int):
    """Consecutive slices of at most _BLOCK nodes covering n nodes."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


def _degree_integrals(ns, quad: QuadratureSpec, eps_ref: float) -> list[float]:
    """The degree integral of the map of each n of the sweep ns, in its
    order (duplicates and one-signed sweeps included).  The maps share each
    block's frame, and n and -n share their step: A(-n) = -A(n) exactly and
    numpy's sin is odd and cos even bit for bit (the tests compare each
    degree with its own call), so the step of -n is (q0, -q, dq0, -dq) of
    the step of +n.  With a, b and x the _current_terms of +n, whose
    current is (a - b) + x, the current of -n is ((-a) - (-b)) + x, that is
    (b - a) + x bit for bit, signs of zero included."""
    if not ns:
        return []
    pts, wts = quad.ball_nodes(eps_ref)
    pairs = {}  # |n| -> the map of +|n| and the positions of +-|n| in the sweep
    for row, n in enumerate(ns):
        pairs.setdefault(abs(n), (GribovFactorMap(abs(n), eps_ref=eps_ref), []))[1].append(row)
    dens = np.empty((len(ns), len(pts)))
    frames = GribovFactorMap(0, eps_ref=eps_ref)  # every n's frame
    for block in _blocks(len(pts)):
        frame = frames._frame(pts[block], derivs=True)
        for fmap, rows in pairs.values():
            a, b, x = _current_terms(*fmap._step(frame))
            for row in rows:
                dens[row, block] = _det3((a - b if ns[row] >= 0 else b - a) + x)
            del a, b, x  # free the terms before the next step is built
    # det/(2 pi^2) written as the trace form's 12 det/(24 pi^2): same last bit
    return [float(12.0 * np.sum(wts * row) / (24.0 * np.pi**2)) for row in dens]


def map_degree(n, quad: QuadratureSpec, eps_ref: float = 1.0):
    """Degree of the map of v^(n) by 3D quadrature on quad's one node set;
    integer n to tolerance.  A second level is a second call on
    quad.refined().

    n is one integer (a float is returned) or a sequence of them (an array
    of their degrees, each bit for bit the value of its own call): all n
    share one pass over the nodes' radii, directions and f01.
    """
    quad.check_reaches(eps_ref)
    degrees = _degree_integrals([int(k) for k in np.atleast_1d(n)], quad, eps_ref)
    return degrees[0] if np.ndim(n) == 0 else np.array(degrees)


def map_degree_radial_oracle(n: int, eps_ref: float = 1.0) -> float:
    """1D reduction (1/pi)[alpha - sin(alpha) cos(alpha)] with alpha = pi n f01(r),
    evaluated between r = 0 and r = 1e6 (standing in for infinity).  Independent
    of the 3D quadrature."""

    def F(r):
        a = np.pi * n * f01_bps(r, eps_ref)
        return (a - np.sin(a) * np.cos(a)) / np.pi

    return float(F(1e6) - F(0.0))


def winding_functional(
    field: ColorField,
    quad: QuadratureSpec,
    g: float,
    eps_ref: float = 1.0,
    tail_fraction: float | None = 1e-3,
) -> float:
    """Chern-Simons winding functional X[A] over the ball of radius r_max, on
    map_degree's nodes, with the package's sign of g (see ymvac).

    Both terms are real (see the module docstring); the derivative term is
    the field's curl (ColorField.curl) by fourth-order central differences
    with step 1e-3 eps_ref, on the three components of a hedgehog's vector
    or, for a field without one, on all nine of the sampler.  Raises TruncationError when the outer 10% radial shell
    carries more than tail_fraction of the accumulated absolute integrand;
    pass None to skip (e.g. when the boundary flux is being computed
    explicitly).  A g whose g^3 is not a normal float is refused: det[A]
    ~ 1/g^3 would overflow where g^3 underflows.
    """
    if not np.finfo(float).tiny <= g * g * g:
        raise DomainError(f"g^3 must be a normal float; coupling g {g} is out of range")
    quad.check_reaches(eps_ref)
    stencil = StencilConfig(1e-3 * eps_ref, 4)
    pts, wts = quad.ball_nodes(eps_ref)
    r = norm(pts.T)
    dens = np.empty(len(pts))
    for block in _blocks(len(pts)):
        A = field.sample(pts[block])  # [n][i][a]
        term1 = (-0.5 * g**2) * np.einsum("nia,nia->n", A, field.curl(stencil, pts[block]))
        term2 = (1.5 * g**3) * _det3(A.T)
        np.multiply(wts[block], term1 + (2.0 / 3.0) * term2, out=dens[block])
    total = -np.sum(dens) / (8.0 * np.pi**2)

    if tail_fraction is not None:
        shell = r >= np.quantile(r, 0.9)  # outermost 10% of radial shells
        tail_abs = np.sum(np.abs(dens[shell])) / (8.0 * np.pi**2)
        total_abs = max(np.sum(np.abs(dens)) / (8.0 * np.pi**2), 1e-8)
        if tail_abs > tail_fraction * total_abs:
            raise TruncationError(
                f"integrand tail {tail_abs:.3e} exceeds {tail_fraction} of accumulated {total_abs:.3e}"
            )
    return float(total)


def gauge_transform(field: ColorField, v_map: GribovFactorMap, g: float) -> ColorField:
    """Return the sampler of v (A_hat + d) v^-1 converted back to components
    with the package's sign of g (see ymvac),

        A_i -> R(q) A_i + (2/g) c_i,

    with R(q) the adjoint rotation of v = q0 - i q.tau acting on the colour
    index and c_i the real current of d_i v v^-1 (v d_i v^-1 = i c_i.tau).
    B, D(phi) and the covariant Laplacian of bps_profiles then rotate by
    R(q) with phi -> R(q) phi."""

    def sample_batch(pts):
        q0, q, dq0, dq = v_map.quaternion(pts)
        A = field.sample(pts).T  # [a][i][n]
        qb = q[:, None]
        t = 2.0 * cross(qb, A)  # R(q) a = a + q0 t + q x t with t = 2 q x a
        return (A + q0 * t + cross(qb, t) + (2.0 / g) * _current(q0, q, dq0, dq)).T

    return ColorField(
        sample_batch,
        singular_origin=True,
        label=f"gauge transform of {field.label}",
    )


def surface_flux_term(
    field: ColorField,
    v_map: GribovFactorMap,
    g: float,
    r_sphere: float,
    n_theta: int = 48,
    n_phi: int = 48,
) -> float:
    """Flux form of the winding shift's total-derivative term, oriented so that

        X[v (A + d) v^-1] = X[A] + N[v] + surface_flux_term,

    i.e. -(1/8 pi^2) oint_{r=r_sphere} dS_i eps^{ijk} tr[ A_hat_j L_k ],
    with L_k = v d_k v^-1 = i c_k.tau from the map's exact derivative, so
    that tr[ A_hat_j L_k ] = -g A_j^a c_k^a with the package's sign of g
    (see ymvac)."""
    dirs, wdir = _sphere_nodes(n_theta, n_phi)
    wts = wdir * r_sphere**2
    pts = r_sphere * dirs
    c = _current(*v_map.quaternion(pts))
    A = field.sample(pts)
    # eps^{ijk} A_j^a c_k^a: a cross product in space, summed over colour
    flux = cross(A.transpose(1, 2, 0), c.transpose(1, 0, 2)).sum(axis=1)  # [i][n]
    dens = -g * np.sum(dirs.T * flux, axis=0)
    return float(-np.sum(wts * dens) / (8.0 * np.pi**2))


def instanton_amplitude(n_out: int, n_in: int, g: float) -> float:
    """Semi-classical tunneling weight exp(-8 pi^2 (n_out - n_in)/g^2)."""
    if not (g > 0):
        raise DomainError("coupling g must be positive")
    return float(np.exp(-8.0 * np.pi**2 * (n_out - n_in) / g**2))
