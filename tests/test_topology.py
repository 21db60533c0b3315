"""Group factors, degree-of-map and winding quadrature."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac.algebra import EPS3, ID2, TAU, cross, curl
from ymvac.bps_profiles import (
    ColorField,
    MonopoleScale,
    StencilConfig,
    build_fields,
    covariant_derivative,
    covariant_laplacian,
    f01_bps,
    f1_bps,
    magnetic_tension,
)
from ymvac.errors import DomainError, ResolutionError, TruncationError
from ymvac.interference import EulerAngles, _qmul, dressed_factor_map
from ymvac.topology import (
    GribovFactorMap,
    QuadratureSpec,
    gauge_transform,
    instanton_amplitude,
    map_degree,
    map_degree_radial_oracle,
    surface_flux_term,
    winding_functional,
    _BLOCK,
    _compactified_radial,
    _current,
    _gauss_legendre,
    _leggauss,
    _det3,
    _sphere_nodes,
)

QUAD = QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
SCALE = MonopoleScale(g=1.3, eps=1.0)


# the 2x2 matrix forms the real integrands are checked against
def tau_dot(a):
    """a.tau for real vectors a of shape (..., 3); returns (..., 2, 2)."""
    return np.einsum("...b,bij->...ij", np.asarray(a, dtype=float), TAU)


def as_matrix(q0, q):
    """q0 1 - i q.tau for q0 of shape (...) and q of shape (..., 3)."""
    return np.asarray(q0)[..., None, None] * ID2 - 1j * tau_dot(q)


def factor_matrices(fmap, pts):
    """v (N, 2, 2) and d_i v (N, 3, 2, 2) built from the map's quaternion."""
    q0, q, dq0, dq = fmap.quaternion(pts)
    return as_matrix(q0, q.T), as_matrix(dq0.T, dq.transpose(2, 1, 0))


def su2_matrix_from_components(a, g):
    """A_hat = -g tau^b A^b / (2i), the package's sign of g, for component
    vectors a of shape (..., 3)."""
    return (0.5j * g) * tau_dot(a)


def su2_components_from_matrix(m, g):
    """Inverse of su2_matrix_from_components; returns real components (..., 3)."""
    return ((-1j / g) * np.einsum("aij,...ji->...a", TAU, np.asarray(m))).real


class TestGribovFactor:
    def test_identity_at_n0(self):
        assert GribovFactorMap(0).distance_to_identity([0.4, 0.5, -0.3])[0] < 1e-15

    def test_central_element_at_infinity_odd(self):
        q0, q, _, _ = GribovFactorMap(1).quaternion([0.0, 0.0, 1e7], derivs=False)
        assert np.abs(as_matrix(q0, q.T)[0] + np.eye(2)).max() < 1e-6

    def test_identity_at_infinity_even(self):
        assert GribovFactorMap(2).distance_to_identity([0.0, 0.0, 1e7])[0] < 1e-5

    def test_distance_to_identity_is_spectral_norm(self):
        fmap = dressed_factor_map(3, EulerAngles(0.3, 1.1, -0.7), 0.8)
        pts = np.random.default_rng(4).normal(size=(6, 3))
        q0, q, _, _ = fmap.quaternion(pts, derivs=False)
        ref = np.linalg.norm(as_matrix(q0, q.T) - ID2, 2, axis=(-2, -1))
        assert np.abs(fmap.distance_to_identity(pts) - ref).max() < 1e-15

    def test_unitary_unimodular(self):
        # unitary unimodular: det v = q0^2 + |q|^2 = 1
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=3)
            q0, q, _, _ = GribovFactorMap(rng.integers(-3, 4)).quaternion(x, derivs=False)
            assert abs(q0[0] ** 2 + np.sum(q**2) - 1.0) < 1e-12

    def test_group_law(self):
        # the quaternion product of v^(n) and v^(m) is v^(n+m)
        x = np.array([0.3, 0.2, 0.9])

        def factor(k):
            return GribovFactorMap(k).quaternion(x, derivs=False)[:2]

        for n, m in ((1, 2), (-1, 3), (2, -2)):
            (w, v), (w_ref, v_ref) = _qmul(*factor(n), *factor(m)), factor(n + m)
            assert np.abs(w - w_ref).max() < 1e-12 and np.abs(v - v_ref).max() < 1e-12

    def test_closed_form_vs_expm(self):
        # the phase matrix -i pi f01(r) tau.n_hat, the log of the n = 1 factor,
        # exponentiated by mpmath's Taylor series at 30 digits
        x = np.array([0.7, -0.2, 0.4])
        r = np.linalg.norm(x)
        phase = -1j * np.pi * f01_bps(r, 1.0) * tau_dot(x / r)
        with mpmath.workdps(30):
            ref = np.array(mpmath.expm(mpmath.matrix((2 * phase).tolist())).tolist(), dtype=complex)
        q0, q, _, _ = GribovFactorMap(2).quaternion(x, derivs=False)
        assert np.abs(as_matrix(q0, q.T)[0] - ref).max() < 1e-12

    def test_analytic_derivative_vs_finite_differences(self):
        fmap = GribovFactorMap(2)
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(size=3)
            x *= rng.uniform(0.5, 5.0) / np.linalg.norm(x)
            _, _, dq0, dq = fmap.quaternion(x)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                (p0, p, _, _), (m0, m, _, _) = (fmap.quaternion(x + s * e, derivs=False) for s in (1, -1))
                assert abs(dq0[j, 0] - (p0[0] - m0[0]) / (2 * h)) < 1e-8
                assert np.abs(dq[:, j, 0] - (p[:, 0] - m[:, 0]) / (2 * h)).max() < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_derivative_at_tiny_core_warning_free(self):
        # r/eps_ref = 1e200: the profile derivative's squares would overflow
        _, _, dq0, dq = GribovFactorMap(1, eps_ref=1e-200).quaternion([[1.0, 0.0, 0.0]])
        assert np.all(np.isfinite(dq0)) and np.all(np.isfinite(dq))

    def test_underflowing_norm_refused(self):
        # the float64 squares of 3e-307 and 4e-307 underflow: the norm of a
        # point that is not the origin is 0, so its frame would be the origin's
        with pytest.raises(DomainError, match="underflows to 0 in float64"):
            GribovFactorMap(1, 1e-306).quaternion(np.array([[3e-307, 4e-307, 0.0]]))
        with pytest.raises(DomainError, match="underflows"):
            GribovFactorMap(1, 1e-306).quaternion(np.array([[3e-307, 4e-307, 0.0]]), derivs=False)

    def test_extended_precision_kept(self):
        # a longdouble batch is sampled in longdouble: the tiny core's map at
        # r = eps/2 is the unit core's, its derivatives scaled by 1/eps
        tiny = GribovFactorMap(1, 1e-306).quaternion(np.array([[3e-307, 4e-307, 0.0]], dtype=np.longdouble))
        unit = GribovFactorMap(1, 1.0).quaternion(np.array([[0.3, 0.4, 0.0]]))
        assert all(a.dtype == np.longdouble for a in tiny)
        for a, b, scale in zip(tiny, unit, (1.0, 1.0, 1e-306, 1e-306)):
            assert np.abs((a * np.longdouble(scale)).astype(float) - b).max() < 1e-14

    def test_dressed_derivative_vs_stencil(self):
        # prefactor 2 with a non-trivial adjoint rotation: the exact (d_i q0, d_i q)
        # against central differences from the stencil engine
        rot = EulerAngles(0.3, 1.1, -0.7).adjoint_rotation()
        fmap = GribovFactorMap(3, eps_ref=0.8, prefactor=2.0, rotation=rot)
        stencil = StencilConfig(1e-4, 4)
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(6, 3))
        pts *= rng.uniform(0.3, 4.0, size=(6, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
        _, _, dq0, dq = fmap.quaternion(pts)

        def components(p):  # (N, 4): q0, q1, q2, q3
            q0, q, _, _ = fmap.quaternion(p, derivs=False)
            return np.column_stack([q0, q.T])

        for j in range(3):
            fd = stencil._walk(components, pts, (j,), [(stencil, 1)])[0][0]
            assert np.abs(dq0[j] - fd[:, 0]).max() < 1e-8
            assert np.abs(dq[:, j].T - fd[:, 1:]).max() < 1e-8

    def test_dressed_factor_is_the_rotated_map(self):
        ang = EulerAngles(0.3, 1.1, -0.7)
        x = np.array([0.4, -1.2, 0.9])
        q0, q, _, _ = dressed_factor_map(2, ang, 0.8).quaternion(x, derivs=False)
        m_hat = ang.adjoint_rotation() @ (x / np.linalg.norm(x))
        a = 2.0 * np.pi * 2 * f01_bps(np.linalg.norm(x), 0.8)
        ref = np.cos(a) * np.eye(2) + 1j * np.sin(a) * sum(m_hat[k] * TAU[k] for k in range(3))
        assert np.abs(as_matrix(q0, q.T)[0] - ref).max() < 1e-14


class TestMapDegree:
    def test_integer_quantization(self):
        for n in (-3, -1, 1, 2, 3):
            assert abs(map_degree(n, QUAD, check_resolution=False) - n) < 1e-3

    def test_zero_winding(self):
        assert abs(map_degree(0, QUAD, check_resolution=False)) < 1e-12

    def test_radial_oracle_agreement(self):
        for n in (-2, 1, 3):
            d = map_degree(n, QUAD, check_resolution=False)
            assert abs(d - map_degree_radial_oracle(n)) < 1e-4

    def test_resolution_check_passes_at_default_nodes(self):
        assert abs(map_degree(1, QUAD) - 1.0) < 1e-3

    def test_under_resolution_raises(self):
        # 16 nodes per axis resolve n = 3 but not the faster phase winding of n = 5
        coarse = QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16)
        assert abs(map_degree(3, coarse) - 3) < 1e-2
        with pytest.raises(ResolutionError):
            map_degree(5, coarse)

    def test_refinement_improves(self):
        fine = QuadratureSpec(r_max=300.0, n_r=72, n_theta=36, n_phi=36)
        e_coarse = abs(map_degree(2, QUAD, check_resolution=False) - 2)
        e_fine = abs(map_degree(2, fine, check_resolution=False) - 2)
        assert e_fine < e_coarse

    def test_cli_default_spec_values_pinned(self):
        # the winding report's degree column at its default quadrature, bit for bit
        quad = QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
        pinned = {
            -2: -1.9999980506195159,
            -1: -0.9999997563114026,
            0: -0.0,
            1: 0.9999997563114026,
            2: 1.9999980506195159,
        }
        for n, value in pinned.items():
            assert map_degree(n, quad, check_resolution=False) == value

    @pytest.mark.parametrize("check_resolution", [False, True])
    def test_batch_matches_single_calls(self, check_resolution):
        # one pass over the nodes for every n gives each n the bits of its own
        # call, n = 0 (-0.0) included
        ns = (-2, -1, 0, 1, 2)
        batch = map_degree(ns, QUAD, check_resolution=check_resolution)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(ns),)
        singles = [map_degree(n, QUAD, check_resolution=check_resolution) for n in ns]
        assert all(isinstance(x, float) for x in singles)
        assert [x.hex() for x in batch.tolist()] == [x.hex() for x in singles]

    @pytest.mark.parametrize("quad", [QUAD, QUAD.refined()], ids=["48x24x24", "72x36x36"])
    @pytest.mark.parametrize("ns", [(-2, -1, 1, 2), (-1, 0, 1, 2, 3), (-4, -3, -2, -1), (1, -1, 1)],
                             ids=["symmetric", "asymmetric", "one-signed", "duplicates"])
    def test_shared_pairs_match_single_calls(self, quad, ns):
        # n and -n share one step per block: each keeps the bits of its own call
        batch = map_degree(ns, quad, check_resolution=False)
        assert [x.hex() for x in batch.tolist()] == [map_degree(n, quad, check_resolution=False).hex() for n in ns]

    @pytest.mark.parametrize("ns", [(-2, -1, 1, 2), (-1, 0, 1, 2, 3), (-4, -3, -2, -1), (1, -1, 1)])
    def test_one_step_per_size_per_block(self, monkeypatch, ns):
        sizes = []
        step = GribovFactorMap._step

        def counted(fmap, frame):
            sizes.append(fmap.n)
            return step(fmap, frame)

        monkeypatch.setattr(GribovFactorMap, "_step", counted)
        map_degree(ns, QUAD, check_resolution=False)
        blocks = -(-QUAD.n_r * QUAD.n_theta * QUAD.n_phi // _BLOCK)
        assert sizes == list(dict.fromkeys(abs(n) for n in ns)) * blocks

    def test_batch_resolution_error_for_one_n(self):
        # the refined spec is compared for every n: n = 5 fails inside a batch
        # with the message of its own call
        coarse = QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16)
        assert np.abs(map_degree([1, 3], coarse) - [1, 3]).max() < 1e-2
        with pytest.raises(ResolutionError) as single:
            map_degree(5, coarse)
        with pytest.raises(ResolutionError) as batch:
            map_degree([1, 5, 3], coarse)
        assert str(batch.value) == str(single.value)

    def test_empty_batch(self):
        assert map_degree([], QUAD).shape == (0,)

    def test_ball_nodes_are_the_callers_own(self):
        spec = QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16)
        pts, wts = spec.ball_nodes(2.0)
        # the nodes equal the product of radial and angular rules built afresh, bit for bit
        r, wr = _compactified_radial(16, 2.0, (2.0 / np.pi) * np.arctan(300.0 / 2.0))
        dirs, wdir = _sphere_nodes(16, 16)
        assert np.array_equal(pts, (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3))
        assert np.array_equal(wts, ((wr * r**2)[:, None] * wdir[None, :]).reshape(-1))
        pts[0, 0] = 1.0  # the nodes themselves are the caller's own
        assert spec.ball_nodes(2.0)[0][0, 0] != 1.0

    def test_legendre_rule_built_once_read_only(self):
        # pheno's rules: leggauss(n) is cached by n, the affine map is not
        from numpy.polynomial.legendre import leggauss

        for n, upper in ((48, math.log(1e3)), (64, 1.0)):
            assert all(a is b for a, b in zip(_leggauss(n), _leggauss(n)))
            assert not any(a.flags.writeable for a in _leggauss(n))
            t, w = _gauss_legendre(n, upper)
            x, wx = leggauss(n)
            assert np.array_equal(t, 0.5 * upper * (x + 1.0)) and np.array_equal(w, 0.5 * upper * wx)
            t[0] = -1.0  # the mapped nodes are the caller's own
            assert _gauss_legendre(n, upper)[0][0] != -1.0

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(r_max=100.0, n_r=8)
        with pytest.raises(DomainError):
            QuadratureSpec(r_max=10.0).check_reaches(1.0)

    @pytest.mark.parametrize("r_max", [math.nan, 0.0, -0.0, -300.0, -math.inf])
    def test_quadrature_spec_refuses_r_max(self, r_max):
        # a NaN r_max dropped every node: map_degree returned 0.0 silently
        # and winding_functional raised IndexError
        with pytest.raises(DomainError, match="r_max must be positive"):
            QuadratureSpec(r_max=r_max)

    @pytest.mark.parametrize("counts", [(16.5, 24, 24), (48, 24.0, 24), (48, 24, "24"), (48, 24, None)])
    def test_quadrature_spec_refuses_non_integer_counts(self, counts):
        # n_r = 16.5 failed inside numpy with a TypeError
        with pytest.raises(DomainError, match="node counts must be integers"):
            QuadratureSpec(300.0, *counts)
        assert QuadratureSpec(300.0, *(np.int64(48) for _ in counts)).n_r == 48

    @pytest.mark.parametrize("eps_ref", [math.nan, 7.0])
    def test_check_reaches_refuses_nan_scale(self, eps_ref):
        with pytest.raises(DomainError, match="must be at least 50x"):
            QuadratureSpec(r_max=300.0).check_reaches(eps_ref)
        QuadratureSpec(r_max=300.0).check_reaches(6.0)


class TestCubicTrace:
    # components 0 or of magnitude in [1e-3, 10], so no triple product underflows
    COMPONENT = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))

    @settings(deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 16), st.just(3), st.just(3)), elements=COMPONENT))
    def test_matches_levi_civita_contraction(self, comps):
        # su(2)-valued L_i = i comps_i . tau: eps^{ijk} tr[L_i L_j L_k] = 12 det[comps]
        L = 1j * tau_dot(comps)
        ref = np.einsum("ijk,niab,njbc,nkca->n", EPS3, L, L, L)
        # rounding of either form scales with |L_1| |L_2| |L_3| where the
        # three components are nearly coplanar and the density cancels
        scale = max(np.abs(ref).max(), np.prod(np.linalg.norm(comps, axis=2), axis=1).max())
        assert np.abs(ref.imag).max() <= 1e-14 * scale
        assert np.abs(12.0 * _det3(comps.T) - ref.real).max() <= 1e-14 * scale


# random dressed factor maps: winding n, amplitude prefactor, core size, adjoint rotation
FACTOR_MAPS = st.builds(
    lambda n, c, eps, angles: GribovFactorMap(n, eps_ref=eps, prefactor=c, rotation=EulerAngles(*angles).adjoint_rotation()),
    st.integers(-3, 3),
    st.floats(-2.5, 2.5),
    st.floats(0.3, 3.0),
    st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
)
# 1..8 points: random directions at random radii in [0.05, 20]
POINTS = st.integers(1, 8).flatmap(
    lambda k: st.tuples(
        arrays(float, (k, 3), elements=st.floats(-1.0, 1.0)).filter(lambda d: np.all(np.linalg.norm(d, axis=1) > 0.1)),
        arrays(float, (k, 1), elements=st.floats(0.05, 20.0)),
    )
).map(lambda dr: dr[0] / np.linalg.norm(dr[0], axis=1, keepdims=True) * dr[1])


def _matrix_current(fmap, pts):
    """v and L_i = v d_i v^-1 from the 2x2 matrix forms."""
    v, dv = factor_matrices(fmap, pts)
    vd = v.conj().swapaxes(-1, -2)
    return v, -np.einsum("nibc,ncd->nibd", dv, vd)


class TestRealForms:
    """The real 3-vector integrands against their 2x2 matrix forms."""

    @settings(deadline=None)
    @given(FACTOR_MAPS, POINTS)
    def test_degree_density_matches_matrix_form(self, fmap, pts):
        v, dv = factor_matrices(fmap, pts)
        L = np.einsum("nab,nibc->niac", v.conj().swapaxes(-1, -2), dv)
        ref = -np.einsum("ijk,niab,njbc,nkca->n", EPS3, L, L, L).real / (24.0 * np.pi**2)
        c = _current(*fmap.quaternion(pts))
        scale = np.prod(np.linalg.norm(c, axis=0), axis=0) / (2.0 * np.pi**2)  # Hadamard bound
        assert np.all(np.abs(_det3(c) / (2.0 * np.pi**2) - ref) <= 1e-13 * (1.0 + scale))

    @settings(deadline=None)
    @given(
        FACTOR_MAPS,
        POINTS.flatmap(lambda p: st.tuples(st.just(p), arrays(float, (len(p), 3, 3), elements=st.floats(-5.0, 5.0)))),
        st.floats(0.3, 3.0),
    )
    def test_gauge_transform_matches_matrix_form(self, fmap, pts_and_field, g):
        pts, comps = pts_and_field
        field = ColorField(lambda p: comps)
        v, L = _matrix_current(fmap, pts)
        Ah = su2_matrix_from_components(comps, g)
        M = np.einsum("nab,nibc,ncd->niad", v, Ah, v.conj().swapaxes(-1, -2)) + L
        ref = su2_components_from_matrix(M, g)
        scale = np.abs(comps).max() + np.abs(_current(*fmap.quaternion(pts))).max() / g
        assert np.abs(gauge_transform(field, fmap, g).sample(pts) - ref).max() <= 1e-13 * (1.0 + scale)

    @settings(deadline=None, max_examples=30)
    @given(FACTOR_MAPS, st.floats(0.5, 50.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0))
    def test_surface_term_matches_matrix_form(self, fmap, r_sphere, g, eps):
        gauge, _ = build_fields(MonopoleScale(g, eps), "BPS")
        dirs, wdir = _sphere_nodes(16, 16)
        pts = r_sphere * dirs
        _, L = _matrix_current(fmap, pts)
        Ah = su2_matrix_from_components(gauge.sample(pts), g)
        dens = wdir * r_sphere**2 * np.einsum("ni,ijk,njab,nkba->n", dirs, EPS3, Ah, L).real
        ref = -np.sum(dens) / (8.0 * np.pi**2)
        got = surface_flux_term(gauge, fmap, g, r_sphere, n_theta=16, n_phi=16)
        assert abs(got - ref) <= 1e-13 * (1.0 + np.sum(np.abs(dens)) / (8.0 * np.pi**2))

    def test_surface_term_closed_form(self):
        # hedgehog A and v: the flux density is constant on the sphere and the
        # term closes to f1(R) sin(a) cos(a)/pi with a = pi n f01(R)
        gauge, _ = build_fields(SCALE, "BPS")
        for n, R in ((1, 300.0), (2, 3.0), (-3, 1.5)):
            a = np.pi * n * f01_bps(R, 1.0)
            exact = f1_bps(R, SCALE.eps) * np.sin(a) * np.cos(a) / np.pi
            assert abs(surface_flux_term(gauge, GribovFactorMap(n), SCALE.g, R) - exact) < 1e-14


def unblocked_degree(fmap, quad):
    """The degree integral evaluated on every node at once, as before the
    blocks."""
    pts, wts = quad.ball_nodes(fmap.eps_ref)
    dens = _det3(_current(*fmap.quaternion(pts)))
    return float(12.0 * np.sum(wts * dens) / (24.0 * np.pi**2))


def unblocked_winding(field, quad, g, eps_ref=1.0, tail_fraction=1e-3):
    """winding_functional evaluated on every node at once, as before the
    blocks."""
    quad.check_reaches(eps_ref)
    stencil = StencilConfig(1e-3 * eps_ref, 4)
    pts, wts = quad.ball_nodes(eps_ref)
    A = field.sample(pts)
    dA, = stencil._gradient(field.sample, pts, [(stencil, 1)])
    term1 = (-0.5 * g**2) * np.einsum("nia,nia->n", A, curl(dA))
    term2 = (1.5 * g**3) * _det3(A.T)
    dens = wts * (term1 + (2.0 / 3.0) * term2)
    total = -np.sum(dens) / (8.0 * np.pi**2)
    if tail_fraction is not None:
        r = np.linalg.norm(pts, axis=1)
        shell = r >= np.quantile(r, 0.9)
        tail_abs = np.sum(np.abs(dens[shell])) / (8.0 * np.pi**2)
        total_abs = max(np.sum(np.abs(dens)) / (8.0 * np.pi**2), 1e-8)
        if tail_abs > tail_fraction * total_abs:
            raise TruncationError("tail")
    return float(total)


def _value_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).hex()
    except TruncationError as exc:
        return type(exc)


# 17 x 24 x 24 = 9 792 nodes: two blocks and part of a third; 16^3 = 4 096:
# less than one block
STRADDLING = QuadratureSpec(r_max=300.0, n_r=17, n_theta=24, n_phi=24)
SUB_BLOCK = QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16)
SPECS = st.builds(
    lambda n_r, n_theta, n_phi: QuadratureSpec(r_max=300.0, n_r=n_r, n_theta=n_theta, n_phi=n_phi),
    st.integers(16, 40), st.integers(16, 28), st.integers(16, 28),
)
# constant A_i^a = 0.1 delta_ia: a cubic density that does not decay
CONSTANT_FIELD = ColorField(lambda pts: np.tile(0.1 * np.eye(3), (len(pts), 1, 1)))


class TestBlocks:
    """The ball integrands filled block by block keep the bits of the
    integrals over all nodes at once."""

    def test_example_specs_straddle_the_block(self):
        assert 17 * 24 * 24 % _BLOCK and 17 * 24 * 24 > 2 * _BLOCK
        assert 16**3 < _BLOCK

    @settings(deadline=None, max_examples=20)
    @given(SPECS, st.integers(-3, 3), st.floats(0.5, 2.0))
    @example(STRADDLING, 2, 1.0)
    @example(SUB_BLOCK, -1, 1.0)
    @example(QUAD, 1, 1.0)
    def test_degree_matches_unblocked(self, quad, n, eps):
        got = map_degree(n, quad, eps_ref=eps, check_resolution=False)
        assert got.hex() == unblocked_degree(GribovFactorMap(n, eps_ref=eps), quad).hex()

    @settings(deadline=None, max_examples=15)
    @given(SPECS, st.sampled_from(["BPS", "pure gauge", "constant"]), st.floats(0.5, 2.0),
           st.sampled_from([1e-3, None]))
    @example(STRADDLING, "BPS", 1.3, 1e-3)
    @example(SUB_BLOCK, "pure gauge", 1.0, None)
    @example(STRADDLING, "constant", 1.0, 1e-3)
    @example(QUAD, "BPS", 1.0, 1e-3)
    def test_winding_matches_unblocked(self, quad, kind, g, tail_fraction):
        zero, _ = build_fields(MonopoleScale(g, 1.0), "PT")
        field = {
            "BPS": lambda: build_fields(MonopoleScale(g, 1.0), "BPS")[0],
            "pure gauge": lambda: gauge_transform(zero, GribovFactorMap(1), g),
            "constant": lambda: CONSTANT_FIELD,
        }[kind]()
        got = _value_or_error(winding_functional, field, quad, g, tail_fraction=tail_fraction)
        assert got == _value_or_error(unblocked_winding, field, quad, g, tail_fraction=tail_fraction)


class TestWindingFunctional:
    def test_zero_field(self):
        gauge, _ = build_fields(SCALE, "PT")
        assert winding_functional(gauge, QUAD, SCALE.g) == pytest.approx(0.0, abs=1e-12)

    def test_monopole_winding_zero(self):
        gauge, _ = build_fields(SCALE, "BPS")
        assert abs(winding_functional(gauge, QUAD, SCALE.g)) < 1e-3

    def test_pure_gauge_winding_is_degree(self):
        # X of v d v^-1 is the degree density node by node: over the same
        # nodes only the curl's stencil separates them (3.4e-13, 5.1e-12 and
        # 3.4e-11 for n = 1, 2, 3)
        zero, _ = build_fields(SCALE, "PT")
        for n in (1, 2, 3):
            pure = gauge_transform(zero, GribovFactorMap(n), SCALE.g)
            x = winding_functional(pure, QUAD, SCALE.g, tail_fraction=None)
            assert abs(x - map_degree(n, QUAD, check_resolution=False)) < 1e-9

    def test_tail_error_for_nondecaying(self):
        from ymvac.bps_profiles import ColorField

        # constant A_i^a = 0.1 delta_ia has a nonvanishing cubic density
        slow = ColorField(lambda pts: np.tile(0.1 * np.eye(3), (len(pts), 1, 1)))
        with pytest.raises(TruncationError):
            winding_functional(slow, QUAD, SCALE.g)


class TestGaugeTransform:
    def test_identity_map(self):
        gauge, _ = build_fields(SCALE, "BPS")
        ident = gauge_transform(gauge, GribovFactorMap(0), SCALE.g)
        pts = np.array([[0.3, -0.7, 1.1], [2.0, 0.1, 0.5]])
        np.testing.assert_allclose(ident.sample(pts), gauge.sample(pts), atol=1e-9)

    def test_zero_field_gives_pure_gauge(self):
        zero, _ = build_fields(SCALE, "PT")
        fmap = GribovFactorMap(1)
        pure = gauge_transform(zero, fmap, SCALE.g)
        x = np.array([0.8, 0.2, -0.4])[None]
        # components must reproduce v d v^-1 through the su(2) dictionary
        v, dv = factor_matrices(fmap, x)
        L = -np.einsum("ibc,cd->ibd", dv[0], v[0].conj().T)
        M = su2_matrix_from_components(pure.sample(x[0]), SCALE.g)
        assert np.abs(M - L).max() < 1e-12

    def test_transformed_components_real_su2(self):
        gauge, _ = build_fields(SCALE, "BPS")
        tg = gauge_transform(gauge, GribovFactorMap(2), SCALE.g)
        A = tg.sample(np.array([[1.2, -0.3, 0.4]]))
        assert np.all(np.isfinite(A))
        assert A.dtype.kind == "f"

    def test_winding_additivity_with_surface_term(self):
        gauge, _ = build_fields(SCALE, "BPS")
        fmap = GribovFactorMap(1)
        transformed = gauge_transform(gauge, fmap, SCALE.g)
        x0 = winding_functional(gauge, QUAD, SCALE.g)
        x1 = winding_functional(transformed, QUAD, SCALE.g, tail_fraction=None)
        surf = surface_flux_term(gauge, fmap, SCALE.g, QUAD.r_max)
        assert abs(x1 - x0 - 1.0 - surf) < 1e-3


def rotated(fmap, pts, a):
    """R(q) a at the points pts: the adjoint rotation of v = q0 - i q.tau
    on the colour axis (the first) of a, whose last axis runs over pts."""
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
    rng = np.random.default_rng(5)
    pts = rng.normal(scale=3.0, size=(200, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.3][:100]
    fmap = GribovFactorMap(1, 1.0, prefactor=0.37, rotation=EulerAngles(1.0, 0.2, 0.5).adjoint_rotation())
    return fmap, 1.3, pts


class TestGaugeCovariance:
    """The transformed BPS pair's B, D(phi) and covariant Laplacian are R(q)
    times the originals, and |B - D(phi)| and tr B^2 are invariant: topology
    and bps_profiles use one sign of g."""

    # POINTS moved out by 0.3: clear of the transform's singular origin at the step 5e-3
    @settings(deadline=None, max_examples=25)
    @example(  # one point on an axis, whose float64 Laplacian rounds alike at h and h/2
        GribovFactorMap(-2, eps_ref=2.6398619123409066, prefactor=-1.125,
                        rotation=EulerAngles(-3.0, 1.0, 3.125).adjoint_rotation()),
        1.0, np.array([[-0.35, 0.0, 0.0]]),
    )
    @given(FACTOR_MAPS, st.floats(0.3, 3.0), POINTS.map(lambda p: p * (1.0 + 0.3 / np.linalg.norm(p, axis=1, keepdims=True))))
    def test_transformed_pair_is_rotated(self, fmap, g, pts):
        for name, (gap, bound) in covariance_gaps(fmap, g, pts).items():
            assert np.all(gap <= bound), (name, gap, bound)

    def test_setup_gaps(self):
        fmap, g, pts = covariance_setup()
        gaps = covariance_gaps(fmap, g, pts)
        assert all(np.all(gap <= bound) for gap, bound in gaps.values())
        assert gaps["B"][0].max() <= 1e-9 and gaps["D"][0].max() <= 1e-9

    def test_one_layer_sign_flipped_fails(self):
        # sentinel: the gauge transform alone with the other sign of g
        fmap, g, pts = covariance_setup()
        gaps = covariance_gaps(fmap, g, pts, transform_g=-g)
        assert all(np.any(gap > 1e3 * bound) for gap, bound in gaps.values())


class TestInstanton:
    def test_no_transition(self):
        assert instanton_amplitude(4, 4, 2.0) == 1.0

    def test_single_and_double_jump(self):
        g = np.sqrt(8.0 * np.pi**2)
        assert instanton_amplitude(1, 0, g) == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert instanton_amplitude(2, 0, g) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            instanton_amplitude(1, 0, 0.0)
