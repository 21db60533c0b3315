"""Group factors, degree-of-map and winding quadrature."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac.algebra import EPS3, TAU, tau_dot
from ymvac.bps_profiles import ColorField, MonopoleScale, StencilConfig, build_fields, f01_bps, f1_bps
from ymvac.errors import ContractError, DomainError, ResolutionError, TruncationError
from ymvac.interference import EulerAngles, dressed_factor_map
from ymvac.topology import (
    AlgebraElement,
    GribovFactorMap,
    QuadratureSpec,
    gauge_transform,
    gribov_factor,
    gribov_phase_matrix,
    instanton_amplitude,
    map_degree,
    map_degree_radial_oracle,
    surface_flux_term,
    winding_functional,
    _ball_rules,
    _current,
    _det3,
    _sphere_nodes,
)

QUAD = QuadratureSpec(r_max=300.0, n_r=48, n_theta=24, n_phi=24)
SCALE = MonopoleScale(g=1.3, eps=1.0)


# the 2x2 matrix forms the real integrands are checked against
def su2_matrix_from_components(a, g):
    """A_hat = g tau^b A^b / (2i) for component vectors a of shape (..., 3)."""
    return (-0.5j * g) * np.einsum("...b,bij->...ij", np.asarray(a, dtype=float), TAU)


def su2_components_from_matrix(m, g):
    """Inverse of su2_matrix_from_components; returns real components (..., 3)."""
    return ((1j / g) * np.einsum("aij,...ji->...a", TAU, np.asarray(m))).real


class TestGribovFactor:
    def test_identity_at_n0(self):
        v = gribov_factor(0, np.array([0.4, 0.5, -0.3]))
        assert v.distance_to_identity() < 1e-15

    def test_central_element_at_infinity_odd(self):
        v = gribov_factor(1, np.array([0.0, 0.0, 1e7]))
        assert np.abs(v.m + np.eye(2)).max() < 1e-6

    def test_identity_at_infinity_even(self):
        v = gribov_factor(2, np.array([0.0, 0.0, 1e7]))
        assert v.distance_to_identity() < 1e-5

    def test_unitary_unimodular(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=3)
            gribov_factor(rng.integers(-3, 4), x).validate()

    def test_group_law(self):
        x = np.array([0.3, 0.2, 0.9])
        for n, m in ((1, 2), (-1, 3), (2, -2)):
            lhs = (gribov_factor(n, x) @ gribov_factor(m, x)).m
            rhs = gribov_factor(n + m, x).m
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_phase_matrix_algebra_element(self):
        a = gribov_phase_matrix(np.array([0.5, -0.2, 0.8]))
        a.validate()
        with pytest.raises(ContractError):
            AlgebraElement(np.eye(2, dtype=complex)).validate()

    def test_closed_form_vs_expm(self):
        from scipy.linalg import expm

        x = np.array([0.7, -0.2, 0.4])
        v = gribov_factor(2, x)
        direct = expm(2 * gribov_phase_matrix(x).a)
        assert np.abs(v.m - direct).max() < 1e-12

    def test_analytic_derivative_vs_finite_differences(self):
        fmap = GribovFactorMap(2)
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(size=3)
            x *= rng.uniform(0.5, 5.0) / np.linalg.norm(x)
            dv = fmap.d_matrices(x[None])[0]
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (fmap.matrices((x + e)[None])[0] - fmap.matrices((x - e)[None])[0]) / (2 * h)
                assert np.abs(dv[j] - fd).max() < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_derivative_at_tiny_core_warning_free(self):
        # r/eps_ref = 1e200: the profile derivative's squares would overflow
        dv = GribovFactorMap(1, eps_ref=1e-200).d_matrices([[1.0, 0.0, 0.0]])
        assert np.all(np.isfinite(dv))

    def test_dressed_derivative_vs_stencil(self):
        # prefactor 2 with a non-trivial adjoint rotation: the exact d_i v
        # against central differences from the stencil engine
        rot = EulerAngles(0.3, 1.1, -0.7).adjoint_rotation()
        fmap = GribovFactorMap(3, eps_ref=0.8, prefactor=2.0, rotation=rot)
        stencil = StencilConfig(1e-4, 4)
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(6, 3))
        pts *= rng.uniform(0.3, 4.0, size=(6, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
        dv = fmap.d_matrices(pts)
        for j, e in enumerate(np.eye(3)):
            fd = stencil._apply(fmap.matrices, pts, e)
            assert np.abs(dv[:, j] - fd).max() < 1e-8

    def test_dressed_factor_is_the_rotated_map(self):
        ang = EulerAngles(0.3, 1.1, -0.7)
        x = np.array([0.4, -1.2, 0.9])
        v = dressed_factor_map(2, ang, 0.8).matrices(x[None])[0]
        m_hat = ang.adjoint_rotation() @ (x / np.linalg.norm(x))
        a = 2.0 * np.pi * 2 * f01_bps(np.linalg.norm(x), 0.8)
        ref = np.cos(a) * np.eye(2) + 1j * np.sin(a) * sum(m_hat[k] * TAU[k] for k in range(3))
        assert np.abs(v - ref).max() < 1e-14


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

    def test_ball_rules_built_once_read_only(self):
        spec = QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16)
        pts, wts = spec.ball_nodes(2.0)
        rules = _ball_rules(spec, 2.0)
        again = _ball_rules(QuadratureSpec(r_max=300.0, n_r=16, n_theta=16, n_phi=16), 2.0)
        assert all(a is b for a, b in zip(rules, again))
        assert _ball_rules(spec, 1.0)[0] is not rules[0]
        for a in rules:
            with pytest.raises(ValueError):
                a[0] = 1.0
        # the nodes from cached rules equal those from rules built afresh, bit for bit
        r, wr, dirs, wdir = _ball_rules.__wrapped__(spec, 2.0)
        assert np.array_equal(pts, (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3))
        assert np.array_equal(wts, ((wr * r**2)[:, None] * wdir[None, :]).reshape(-1))
        pts[0, 0] = 1.0  # the nodes themselves are the caller's own
        assert spec.ball_nodes(2.0)[0][0, 0] != 1.0

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(r_max=100.0, n_r=8)
        with pytest.raises(DomainError):
            QuadratureSpec(r_max=10.0).check_reaches(1.0)


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
    v = fmap.matrices(pts)
    vd = v.conj().swapaxes(-1, -2)
    return v, -np.einsum("nibc,ncd->nibd", fmap.d_matrices(pts), vd)


class TestRealForms:
    """The real 3-vector integrands against their 2x2 matrix forms."""

    @settings(deadline=None)
    @given(FACTOR_MAPS, POINTS)
    def test_degree_density_matches_matrix_form(self, fmap, pts):
        v = fmap.matrices(pts)
        L = np.einsum("nab,nibc->niac", v.conj().swapaxes(-1, -2), fmap.d_matrices(pts))
        ref = -np.einsum("ijk,niab,njbc,nkca->n", EPS3, L, L, L).real / (24.0 * np.pi**2)
        c = _current(*fmap._quaternion(pts))
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
        scale = np.abs(comps).max() + np.abs(_current(*fmap._quaternion(pts))).max() / g
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
        # term closes to -f1(R) sin(a) cos(a)/pi with a = pi n f01(R)
        gauge, _ = build_fields(SCALE, "BPS")
        for n, R in ((1, 300.0), (2, 3.0), (-3, 1.5)):
            a = np.pi * n * f01_bps(R, 1.0)
            exact = -f1_bps(R, SCALE.eps) * np.sin(a) * np.cos(a) / np.pi
            assert abs(surface_flux_term(gauge, GribovFactorMap(n), SCALE.g, R) - exact) < 1e-14


class TestWindingFunctional:
    def test_zero_field(self):
        gauge, _ = build_fields(SCALE, "PT")
        assert winding_functional(gauge, QUAD, SCALE.g) == pytest.approx(0.0, abs=1e-12)

    def test_monopole_winding_zero(self):
        gauge, _ = build_fields(SCALE, "BPS")
        assert abs(winding_functional(gauge, QUAD, SCALE.g)) < 1e-3

    def test_pure_gauge_winding_is_degree(self):
        zero, _ = build_fields(SCALE, "PT")
        pure = gauge_transform(zero, GribovFactorMap(1), SCALE.g)
        assert abs(winding_functional(pure, QUAD, SCALE.g) - 1.0) < 1e-3

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
        L = -np.einsum("ibc,cd->ibd", fmap.d_matrices(x)[0], fmap.matrices(x)[0].conj().T)
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
