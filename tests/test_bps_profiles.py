"""Field construction and first-order residual checks."""
import numpy as np
import pytest
import sympy

from ymvac.bps_profiles import (
    ColorField,
    FieldVariant,
    MonopoleScale,
    SpatialPoint,
    StencilConfig,
    bogomolnyi_residual,
    build_fields,
    covariant_derivative,
    covariant_laplacian,
    default_stencil,
    f0_bps,
    f01_bps,
    d_f01_bps,
    f1_bps,
    gribov_phase_scalar,
    gribov_residual,
    magnetic_tension,
    zero_mode_scalar,
)
from ymvac.errors import DomainError, SingularPointError, StencilError

SCALE = MonopoleScale(g=1.0, eps=1.0)
RNG = np.random.default_rng(42)


def random_points(n, r_lo=0.5, r_hi=10.0, seed=0):
    rng = np.random.default_rng(seed)
    radii = rng.uniform(r_lo, r_hi, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return radii[:, None] * dirs


class TestProfiles:
    def test_f0_origin_limit(self):
        assert f0_bps(0.0, 1.0) == 0.0
        # small-r expansion r/(3 eps^2)
        assert f0_bps(1e-6, 1.0) == pytest.approx(1e-6 / 3.0, rel=1e-9)

    def test_f0_closed_form(self):
        # coth(1) - 1 at r = eps = 1, cross-checked by the series
        # coth(x) = 1/x + x/3 - x^3/45 + 2 x^5/945 - ...
        x = 1.0
        series = 1 / x + x / 3 - x**3 / 45 + 2 * x**5 / 945 - x**7 / 4725 + 2 * x**9 / 93555
        assert f0_bps(1.0, 1.0) == pytest.approx(1.0 / np.tanh(1.0) - 1.0, rel=1e-15)
        assert f0_bps(1.0, 1.0) == pytest.approx(series - 1.0, rel=1e-5)
        assert f0_bps(1.0, 1.0) == pytest.approx(0.31304, abs=5e-6)

    def test_f0_asymptote(self):
        assert f0_bps(1e6, 1.0) == pytest.approx(1.0 - 1e-6, rel=1e-12)

    def test_f1_origin_and_value(self):
        assert f1_bps(0.0, 1.0) == 0.0
        assert f1_bps(1e-5, 1.0) == pytest.approx(1e-10 / 6.0, rel=1e-6)
        assert f1_bps(1.0, 1.0) == pytest.approx(1.0 - 1.0 / np.sinh(1.0), rel=1e-15)

    def test_f1_wu_yang_limit_value(self):
        assert abs(f1_bps(50.0, 1.0) - 1.0) < 1e-18
        assert abs(f1_bps(5e4, 1.0) - 1.0) < 1e-300  # underflow-clean

    def test_f1_wu_yang_limit_monotone_in_eps(self):
        r_grid = np.linspace(1.0, 50.0, 200)
        sups = [np.max(np.abs(f1_bps(r_grid, eps) - 1.0)) for eps in (1.0, 0.5, 0.25, 0.125)]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_f01_is_eps_scaled_f0(self):
        r = np.linspace(0.1, 20.0, 50)
        np.testing.assert_allclose(f01_bps(r, 0.7), 0.7 * f0_bps(r, 0.7), rtol=1e-14)

    def test_f01_derivative_matches_fd(self):
        for r in (0.03, 0.4, 2.0, 30.0):
            h = 1e-6 * max(r, 1.0)
            fd = (f01_bps(r + h, 1.3) - f01_bps(r - h, 1.3)) / (2 * h)
            assert d_f01_bps(r, 1.3) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f01_derivative_at_huge_radius_warning_free(self):
        # past r/eps = 1e154 the squares overflow: both branches must stay quiet
        out = d_f01_bps(np.array([1e-3, 2e154, 1e300]), 1e-3)
        assert out[0] == d_f01_bps(1e-3, 1e-3)
        assert np.all(np.abs(out[1:]) < 1e-300)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f0_bps(1.0, 0.0)
        with pytest.raises(DomainError):
            f1_bps(1.0, -1.0)
        with pytest.raises(DomainError):
            f0_bps(-1.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f01_derivative_rejects_negative_radius(self):
        # as f0_bps and f01_bps do; -1e10 used to reach an overflowing sinh
        for r in (-1.0, -1e10, np.array([0.5, -1e-300])):
            with pytest.raises(DomainError, match="non-negative"):
                d_f01_bps(r, 1.0)

    def test_small_r_regularity(self):
        # f0*r and f1 both -> 0, so the smooth pair is bounded at the origin
        r = np.array([1e-3, 1e-5, 1e-7])
        assert np.all(np.abs(f0_bps(r, 1.0) * r) < 1e-5)
        assert np.all(np.abs(f1_bps(r, 1.0)) < 1e-6)


class TestScaleAndTypes:
    def test_alpha_s_derived(self):
        sc = MonopoleScale(g=2.0, eps=0.5)
        assert sc.alpha_s == pytest.approx(4.0 / (4.0 * np.pi), rel=1e-15)

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            MonopoleScale(g=0.0, eps=1.0)
        with pytest.raises(DomainError):
            MonopoleScale(g=1.0, eps=-2.0)

    def test_spatial_point(self):
        p = SpatialPoint([3.0, 0.0, 4.0])
        assert p.r == pytest.approx(5.0)
        assert np.linalg.norm(p.n_hat) == pytest.approx(1.0)

    def test_stencil_validation(self):
        with pytest.raises(DomainError):
            StencilConfig(h=0.0)
        with pytest.raises(DomainError):
            StencilConfig(h=0.1, order=3)

    def test_non_finite_validation(self):
        for g, eps in ((np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(DomainError):
                MonopoleScale(g=g, eps=eps)
        with pytest.raises(DomainError):
            StencilConfig(h=np.inf)

    @pytest.mark.parametrize("order, degree", [(2, 2), (4, 4)])
    def test_stencil_exact_on_polynomials(self, order, degree):
        # central stencils of order p differentiate polynomials of degree p exactly
        st = StencilConfig(h=0.125, order=order)
        x = 0.75
        d1 = st._apply(lambda t: t**degree, x, 1.0)
        d2 = st._apply(lambda t: t**degree, x, 1.0, deriv=2)
        assert d1 == pytest.approx(degree * x ** (degree - 1), rel=1e-13)
        assert d2 == pytest.approx(degree * (degree - 1) * x ** (degree - 2), rel=1e-12)


class TestBuildFields:
    def test_pt_variant_zero(self):
        gauge, scalar = build_fields(SCALE, "PT")
        pts = random_points(5)
        assert np.all(gauge.sample(pts) == 0.0)
        assert np.all(scalar.sample(pts) == 0.0)

    def test_wu_yang_plus_on_axis(self):
        # A_i^a = eps_{ia3}/(g r) at x = (0, 0, r)
        gauge, _ = build_fields(SCALE, "WuYangPlus")
        r = 2.3
        A = gauge.sample(np.array([0.0, 0.0, r]))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0 / r  # eps_{013} = eps_{xy z}
        expected[1, 0] = -1.0 / r
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_bps_approaches_wu_yang(self):
        bps, _ = build_fields(SCALE, "BPS")
        wy, _ = build_fields(SCALE, "WuYangPlus")
        pts = random_points(10, r_lo=40.0, r_hi=80.0, seed=3)
        assert np.abs(bps.sample(pts) - wy.sample(pts)).max() < 1e-14

    def test_hedgehog_alignment(self):
        _, scalar = build_fields(SCALE, "BPS")
        pts = random_points(20, seed=5)
        phi = scalar.sample(pts)
        cross = np.cross(phi, pts / np.linalg.norm(pts, axis=1)[:, None])
        assert np.abs(cross).max() < 1e-15

    def test_gauge_antisymmetry_contractions(self):
        for variant in ("BPS", "WuYangPlus", "WuYangMinus"):
            gauge, _ = build_fields(SCALE, variant)
            pts = random_points(20, seed=6)
            A = gauge.sample(pts)
            assert np.abs(np.einsum("nia,ni->na", A, pts)).max() < 1e-14
            assert np.abs(np.einsum("nia,na->ni", A, pts)).max() < 1e-14

    def test_singular_point_error(self):
        gauge, _ = build_fields(SCALE, "WuYangMinus")
        with pytest.raises(SingularPointError):
            gauge.sample(np.zeros(3))

    def test_bps_regular_at_origin(self):
        gauge, scalar = build_fields(SCALE, "BPS")
        assert np.all(gauge.sample(np.zeros(3)) == 0.0)
        assert np.all(scalar.sample(np.zeros(3)) == 0.0)

    def test_variant_parse_error(self):
        with pytest.raises(DomainError):
            FieldVariant.parse("NoSuch")


def _analytic_bps_tension(x, g=1.0, eps=1.0):
    """Independent oracle: symbolic radial derivative of the smooth profile.

    B = (f1'/(g r)) (delta - n n) + ((2 f1 - f1^2)/(g r^2)) n n.
    """
    rs = sympy.symbols("r", positive=True)
    f1 = 1 - (rs / eps) / sympy.sinh(rs / eps)
    f1p = sympy.lambdify(rs, sympy.diff(f1, rs), "numpy")
    f1v = sympy.lambdify(rs, f1, "numpy")
    r = np.linalg.norm(x)
    n = x / r
    trans = np.eye(3) - np.outer(n, n)
    return float(f1p(r)) / (g * r) * trans + (2 * f1v(r) - f1v(r) ** 2) / (g * r**2) * np.outer(n, n)


class TestMagneticTension:
    def test_zero_field(self):
        gauge, _ = build_fields(SCALE, "PT")
        B = magnetic_tension(gauge, np.array([1.0, 0.2, -0.5]), default_stencil(SCALE), SCALE.g)
        assert np.abs(B).max() < 1e-14

    def test_wu_yang_field_law(self):
        # B_i^a = x^a x^i/(g r^4) at random off-origin points
        gauge, _ = build_fields(SCALE, "WuYangPlus")
        st = default_stencil(SCALE)
        for x in random_points(20, r_lo=0.5, r_hi=8.0, seed=7):
            B = magnetic_tension(gauge, x, st, SCALE.g)
            r = np.linalg.norm(x)
            target = np.outer(x, x) / (SCALE.g * r**4)
            assert np.abs(B - target).max() / np.abs(target).max() < 1e-6

    def test_wu_yang_norm_law(self):
        gauge, _ = build_fields(SCALE, "WuYangMinus")
        st = default_stencil(SCALE)
        for x in random_points(6, seed=8):
            B = magnetic_tension(gauge, x, st, SCALE.g)
            r = np.linalg.norm(x)
            # the minus hedgehog carries tension 3x^a x^i/(g r^4): norm 3/(g r^2);
            # the unit-strength law belongs to the plus branch
            assert np.linalg.norm(B) == pytest.approx(3.0 / (SCALE.g * r**2), rel=1e-6)
        gauge, _ = build_fields(SCALE, "WuYangPlus")
        for x in random_points(6, seed=9):
            B = magnetic_tension(gauge, x, st, SCALE.g)
            r = np.linalg.norm(x)
            assert np.sum(B * B) == pytest.approx(1.0 / (SCALE.g**2 * r**4), rel=1e-6)

    def test_bps_tension_vs_symbolic_oracle(self):
        gauge, _ = build_fields(SCALE, "BPS")
        x = np.array([0.0, 0.0, 2.0])
        B = magnetic_tension(gauge, x, default_stencil(SCALE), SCALE.g)
        np.testing.assert_allclose(B, _analytic_bps_tension(x), rtol=1e-8, atol=1e-12)

    def test_stencil_safety(self):
        gauge, _ = build_fields(SCALE, "WuYangPlus")
        st = default_stencil(SCALE)
        with pytest.raises(StencilError):
            magnetic_tension(gauge, np.array([0.0, 0.0, 9.0 * st.h]), st, SCALE.g)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("variant", ["BPS", "WuYangPlus"])
    def test_batch_matches_points_bitwise(self, variant, dtype):
        gauge, _ = build_fields(SCALE, variant)
        st = default_stencil(SCALE)
        pts = random_points(16, seed=12).astype(dtype)
        B = magnetic_tension(gauge, pts, st, SCALE.g)
        assert B.shape == (16, 3, 3) and B.dtype == dtype
        assert np.array_equal(B, [magnetic_tension(gauge, x, st, SCALE.g) for x in pts])

    def test_batch_stencil_safety(self):
        # one point of the batch within 10 h of the singular origin
        gauge, scalar = build_fields(SCALE, "WuYangPlus")
        st = default_stencil(SCALE)
        pts = random_points(5, seed=13)
        pts[3] = [0.0, 9.0 * st.h, 0.0]
        with pytest.raises(StencilError):
            magnetic_tension(gauge, pts, st, SCALE.g)
        with pytest.raises(StencilError):
            covariant_derivative(gauge, scalar, pts, st, SCALE.g)
        with pytest.raises(StencilError):
            bogomolnyi_residual(SCALE, pts, st, variant="WuYangPlus")


class TestCovariantDerivative:
    def test_zero_field_constant_scalar(self):
        gauge, _ = build_fields(SCALE, "PT")
        const = ColorField(lambda pts: np.tile([0.2, -0.7, 1.1], (len(pts), 1)))
        D = covariant_derivative(gauge, const, np.array([0.8, -0.1, 0.4]), default_stencil(SCALE), SCALE.g)
        assert np.abs(D).max() < 1e-12

    def test_pure_gradient(self):
        gauge, _ = build_fields(SCALE, "PT")
        linear = ColorField(lambda pts: pts.copy())
        D = covariant_derivative(gauge, linear, np.array([0.8, -0.1, 0.4]), default_stencil(SCALE), SCALE.g)
        np.testing.assert_allclose(D, np.eye(3), atol=1e-12)

    def test_first_order_pair_at_diagonal_point(self):
        gauge, scalar = build_fields(SCALE, "BPS")
        st = default_stencil(SCALE)
        x = np.array([1.0, 1.0, 1.0]) * SCALE.eps
        B = magnetic_tension(gauge, x, st, SCALE.g)
        D = covariant_derivative(gauge, scalar, x, st, SCALE.g)
        assert np.linalg.norm(B - D) / np.linalg.norm(B) < 1e-8

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("variant", ["BPS", "WuYangMinus"])
    def test_batch_matches_points_bitwise(self, variant, dtype):
        gauge, scalar = build_fields(SCALE, variant)
        st = default_stencil(SCALE)
        pts = random_points(16, seed=15).astype(dtype)
        D = covariant_derivative(gauge, scalar, pts, st, SCALE.g)
        assert D.shape == (16, 3, 3) and D.dtype == dtype
        assert np.array_equal(D, [covariant_derivative(gauge, scalar, x, st, SCALE.g) for x in pts])


class TestBogomolnyiResidual:
    def test_residual_and_refinement(self):
        st = default_stencil(SCALE)
        pts = [SpatialPoint(p) for p in random_points(20, seed=11)]
        res = bogomolnyi_residual(SCALE, pts, st)
        res_half = bogomolnyi_residual(SCALE, pts, st.halved())
        assert res < 10.0 * st.h**st.order
        assert res / res_half >= 8.0

    def test_pt_exact_zero(self):
        assert bogomolnyi_residual(SCALE, [SpatialPoint([1.0, 0, 0])], variant="PT") == 0.0

    def test_wu_yang_alignment(self):
        st = default_stencil(SCALE)
        res = bogomolnyi_residual(SCALE, [SpatialPoint([0.0, 0.0, 3.0])], st, variant="WuYangPlus")
        assert res < 100.0 * st.h**st.order

    def test_empty_points(self):
        with pytest.raises(ValueError):
            bogomolnyi_residual(SCALE, [])

    def test_sign_branch(self):
        st = default_stencil(SCALE)
        pts = [SpatialPoint([0.9, 0.3, -0.2])]
        assert bogomolnyi_residual(SCALE, pts, st, sign=-1) > 1.0
        with pytest.raises(DomainError):
            bogomolnyi_residual(SCALE, pts, st, sign=2)

    @pytest.mark.parametrize("variant", ["BPS", "WuYangMinus"])
    def test_array_matches_point_list(self, variant):
        st = default_stencil(SCALE)
        pts = random_points(12, seed=14)
        res = bogomolnyi_residual(SCALE, pts, st, variant)
        assert res == bogomolnyi_residual(SCALE, [SpatialPoint(p) for p in pts], st, variant)
        assert res == max(bogomolnyi_residual(SCALE, SpatialPoint(p), st, variant) for p in pts)

    def test_coarse_stencil_rejected(self):
        with pytest.raises(StencilError):
            bogomolnyi_residual(SCALE, [SpatialPoint([1.0, 0, 0])], StencilConfig(h=0.2, order=4))


class TestGribovResidual:
    def test_smooth_background(self):
        st = default_stencil(SCALE)
        res = gribov_residual(SCALE, np.array([0.0, 0.0, 2.0]), st)
        assert np.linalg.norm(res) < 1e-8

    def test_refinement_order(self):
        for r in (2.0, 5.0, 20.0):
            st = StencilConfig(h=min(r, 8.0) / 100.0, order=4)
            x = np.array([0.0, 0.0, r])
            n1 = np.linalg.norm(gribov_residual(SCALE, x, st))
            n2 = np.linalg.norm(gribov_residual(SCALE, x, st.halved()))
            assert np.log2(n1 / n2) >= 3.0

    def test_singular_background_far_out(self):
        st = StencilConfig(h=0.08, order=4)
        res = gribov_residual(SCALE, np.array([0.0, 0.0, 20.0]), st, variant="WuYangPlus")
        assert np.linalg.norm(res) < 1e-8

    def test_negative_control_constant_scalar(self):
        st = default_stencil(SCALE)
        const = ColorField(lambda pts: np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
        res = gribov_residual(SCALE, np.array([0.0, 0.0, 2.0]), st, variant="WuYangPlus", scalar=const)
        # the color-mixing terms do not annihilate a constant
        assert np.linalg.norm(res) > 0.01

    def test_phase_scalar_normalizations(self):
        phase = gribov_phase_scalar(SCALE)
        zero_mode = zero_mode_scalar(SCALE)
        pts = random_points(5, seed=13)
        np.testing.assert_allclose(
            zero_mode.sample(pts), phase.sample(pts) * (-2.0 / SCALE.g), rtol=1e-14
        )

    def test_nested_operator_matches_direct_composition(self):
        gauge, _ = build_fields(SCALE, "BPS")
        phase = gribov_phase_scalar(SCALE)
        st = default_stencil(SCALE)
        out = covariant_laplacian(gauge, phase, np.array([1.0, -0.4, 0.3]), st, SCALE.g)
        assert out.shape == (3,)
