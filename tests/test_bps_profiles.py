"""Field construction and first-order residual checks."""
import contextlib
import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac import algebra
from ymvac.algebra import EPS3, cross
from ymvac.bps_profiles import (
    ColorField,
    FieldVariant,
    MonopoleScale,
    StencilConfig,
    _coth_minus_inv,
    _eps_lift,
    _first_order_pairs,
    _hedgehog,
    _x_over_sinh,
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

    @pytest.mark.parametrize("order", [2, 4])
    def test_step_whose_weights_overflow_refused(self, order):
        # 1/(12 h) and 0.5/h leave the float range at h = 1e-310; the check
        # itself warns of nothing (RuntimeWarnings are errors here)
        for h in (1e-310, np.array([1e-3, 1e-310, 1e-300])):
            with pytest.raises(DomainError, match="stencil step 1e-310 is too small"):
                StencilConfig(h, order)
        for h in (1e-300, np.array([1e-3, 1e-300])):
            _, wts = StencilConfig(h, order).offsets_weights()
            assert np.all(np.isfinite(wts))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [2, 4])
    def test_step_whose_second_derivative_weights_overflow_refused(self, order):
        # the first-derivative weights of these steps are finite; h * h
        # underflows to 0 (2e-163) or its inverse overflows (1e-155)
        for h, named in ((2e-163, "2e-163"), (1e-155, "1e-155"), (np.array([1e-3, 1e-155, 1e-150]), "1e-155")):
            stencil = StencilConfig(h, order)
            assert np.all(np.isfinite(stencil.offsets_weights(1)[1]))
            with pytest.raises(DomainError, match=f"stencil step {named} is too small: its second-derivative"):
                stencil.offsets_weights(2)
            with pytest.raises(DomainError, match="second-derivative weights overflow"):
                stencil._apply(lambda p: p[..., 0], np.zeros((np.size(h), 3)), 0, deriv=2)
        _, wts = StencilConfig(1e-150, order).offsets_weights(2)
        assert np.all(np.isfinite(wts))

    def test_derived_power_validation(self):
        # g^2 under- or overflows, g^3 or eps^3 overflows, g^2 eps underflows
        for g, eps in ((1e-200, 1.0), (1e200, 1.0), (1e103, 1.0), (1.0, 1e300), (1e-100, 1e-200)):
            with pytest.raises(DomainError, match="normal floats"):
                MonopoleScale(g=g, eps=eps)
        assert MonopoleScale(g=1.0, eps=1e-300).alpha_s == 1.0 / (4.0 * np.pi)

    @pytest.mark.parametrize("order, degree", [(2, 2), (4, 4)])
    def test_stencil_exact_on_polynomials(self, order, degree):
        # central stencils of order p differentiate polynomials of degree p exactly
        st = StencilConfig(h=0.125, order=order)
        x = 0.75
        d1 = st._apply(lambda p: p[0] ** degree, np.array([x, 0.0, 0.0]), 0)
        d2 = st._apply(lambda p: p[0] ** degree, np.array([x, 0.0, 0.0]), 0, deriv=2)
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


# coordinates 0 or of magnitude in [1e-6, 1e3]; whole rows of zeros are drawn too
_COORD = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
_HEDGEHOG_PROFILES = {
    "BPS": lambda eps: lambda r: f1_bps(r, eps),
    "WuYangPlus": lambda eps: lambda r: np.full_like(r, 1.0),
    "WuYangMinus": lambda eps: lambda r: np.full_like(r, -1.0),
}


class TestHedgehogGauge:
    @settings(deadline=None, max_examples=60)
    @given(
        arrays(float, st.tuples(st.integers(1, 40), st.just(3)), elements=_COORD),
        st.lists(st.booleans(), min_size=40, max_size=40),
        st.sampled_from(sorted(_HEDGEHOG_PROFILES)),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.sampled_from([np.float64, np.longdouble]),
    )
    @example(np.zeros((3, 3)), [False] * 40, "BPS", 1.0, 1.0, np.float64)
    @example(np.zeros((2, 3)), [False] * 40, "WuYangMinus", 1.3, 1.0, np.longdouble)
    @example(random_points(27648, r_lo=0.01, r_hi=300.0, seed=8), [False] * 40, "BPS", 1.0, 1.0, np.float64)
    def test_matches_where_form(self, pts, zero_rows, profile, g, eps, dtype):
        pts = pts.astype(dtype)
        zero = np.array(zero_rows[:len(pts)])
        pts[:len(zero)][zero] = 0.0  # r = 0 rows among the first 40
        radial_f = _HEDGEHOG_PROFILES[profile](eps)
        got, ref = _eps_lift(_hedgehog(pts, radial_f, lambda r: g * (r * r))), _where_hedgehog_gauge(pts, g, radial_f)
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref)


def _where_hedgehog_scalar(pts, coef_of_r):
    """The scalar hedgehog sampler as it was written before the one masked
    divide: phi[n,a] = n_hat_a coef_of_r(r), the r = 0 limit by three np.where."""
    r = algebra.norm(pts.T)
    safe = np.where(r > 0, r, 1.0)
    coef = np.where(r > 0, coef_of_r(np.where(r > 0, r, 1e-30)) / safe, 0.0)
    return pts * coef[:, None]


# the radial coefficients of the BPS, phase and zero-mode scalars at (g, eps)
_SCALAR_COEFS = {
    "BPS": lambda g, eps: lambda r: f0_bps(r, eps) / g,
    "phase": lambda g, eps: lambda r: -np.pi * f01_bps(r, eps),
    "zero-mode": lambda g, eps: lambda r: (2.0 * np.pi / g) * f01_bps(r, eps),
}


class TestHedgehogScalar:
    @settings(deadline=None, max_examples=60)
    @given(
        arrays(float, st.tuples(st.integers(1, 40), st.just(3)),
               elements=st.one_of(st.sampled_from([0.0, -0.0]), _COORD)),
        st.lists(st.booleans(), min_size=40, max_size=40),
        st.sampled_from(sorted(_SCALAR_COEFS)),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.sampled_from([np.float64, np.longdouble]),
    )
    @example(np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -0.0, 0.0]]), [False] * 40, "BPS", 1.0, 1.0,
             np.float64)
    @example(np.array([[-0.0, 0.0, -0.0], [0.0, 2.0, -0.0]]), [False] * 40, "phase", 1.3, 0.7, np.longdouble)
    @example(random_points(27648, r_lo=0.01, r_hi=300.0, seed=9), [False] * 40, "zero-mode", 1.0, 1.0, np.float64)
    def test_matches_where_form(self, pts, zero_rows, coef, g, eps, dtype):
        # the one masked divide numer(r)/r gives the where form's values,
        # signs of zero and dtype, also on r = 0 rows of +-0 coordinates
        pts = pts.astype(dtype)
        zero = np.array(zero_rows[:len(pts)])
        pts[:len(zero)][zero] = 0.0  # r = 0 rows among the first 40
        coef_of_r = _SCALAR_COEFS[coef](g, eps)
        got, ref = _hedgehog(pts, coef_of_r, lambda r: r), _where_hedgehog_scalar(pts, coef_of_r)
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


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
        pts = list(random_points(20, seed=11))
        res, res_half = bogomolnyi_residual(SCALE, pts, st)
        assert res < 10.0 * st.h**st.order
        assert res / res_half >= 8.0

    def test_pt_exact_zero(self):
        assert bogomolnyi_residual(SCALE, [np.array([1.0, 0, 0])], variant="PT") == (0.0, 0.0)

    def test_wu_yang_alignment(self):
        st = default_stencil(SCALE)
        res, _ = bogomolnyi_residual(SCALE, [np.array([0.0, 0.0, 3.0])], st, variant="WuYangPlus")
        assert res < 100.0 * st.h**st.order

    def test_empty_points(self):
        with pytest.raises(ValueError):
            bogomolnyi_residual(SCALE, [])

    def test_sign_branch(self):
        st = default_stencil(SCALE)
        pts = [np.array([0.9, 0.3, -0.2])]
        assert min(bogomolnyi_residual(SCALE, pts, st, sign=-1)) > 1.0
        with pytest.raises(DomainError):
            bogomolnyi_residual(SCALE, pts, st, sign=2)

    @pytest.mark.parametrize("variant", ["BPS", "WuYangMinus"])
    def test_array_matches_point_list(self, variant):
        st = default_stencil(SCALE)
        pts = random_points(12, seed=14)
        res = bogomolnyi_residual(SCALE, pts, st, variant)
        assert res == bogomolnyi_residual(SCALE, list(pts), st, variant)
        per_point = [bogomolnyi_residual(SCALE, p, st, variant) for p in pts]
        assert res == tuple(map(max, zip(*per_point)))

    def test_coarse_stencil_rejected(self):
        with pytest.raises(StencilError):
            bogomolnyi_residual(SCALE, [np.array([1.0, 0, 0])], StencilConfig(h=0.2, order=4))


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


# ---------------------------------------------------------------------------
# per-point stencil steps against one scalar-step call per point
# ---------------------------------------------------------------------------

def _points_and_steps(max_points=5, coord=10.0):
    """n points (n, 3) and n steps below eps/10 = 0.1, for n in 1..max_points."""
    return st.integers(1, max_points).flatmap(lambda n: st.tuples(
        arrays(float, (n, 3), elements=st.floats(-coord, coord)),
        arrays(float, n, elements=st.floats(1e-4, 0.05)),
    ))


def _same_bits(got, ref):
    """Equal values, signs of zero and dtype (tobytes would also compare
    the padding bytes of longdouble)."""
    return (got.dtype == ref.dtype and np.array_equal(got, ref, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


def single_centre_laplacian(gauge, scalar, xc, stencil, g):
    """covariant_laplacian as it was written for one centre and one step
    (the reference of its bits)."""
    offs, wts = stencil.offsets_weights()
    shifted = [xc + o * e for e in np.eye(3, dtype=xc.dtype) * stencil.h for o in offs]
    D = covariant_derivative(gauge, scalar, np.array([xc] + shifted), stencil, g)
    div = np.zeros(3, dtype=xc.dtype)
    for Dk, (j, w) in zip(D[1:], [(j, w) for j in range(3) for w in wts]):
        div = div + w * Dk[j]
    A = gauge.sample(xc)
    return div - g * cross(A.T, D[0].T).sum(axis=1)


class TestPerPointSteps:
    """A stencil with an (N,) array of steps gives each point the bits of a
    stencil built with that point's step alone."""

    @settings(deadline=None, max_examples=40)
    @given(batch=_points_and_steps(), order=st.sampled_from([2, 4]), dtype=st.sampled_from([np.float64, np.longdouble]))
    def test_gradient_matches_scalar_steps(self, batch, order, dtype):
        x, steps = batch
        pts = x.astype(dtype)
        gauge, scalar = build_fields(SCALE, "BPS")
        for sample in (gauge.sample_batch, scalar.sample_batch):
            got = StencilConfig(steps, order)._gradient(sample, pts)
            ref = np.concatenate([StencilConfig(h, order)._gradient(sample, p[None]) for p, h in zip(pts, steps)])
            assert _same_bits(got, ref)

    @settings(deadline=None, max_examples=30)
    @given(batch=_points_and_steps(), order=st.sampled_from([2, 4]), dtype=st.sampled_from([np.float64, np.longdouble]))
    def test_covariant_laplacian_matches_scalar_steps(self, batch, order, dtype):
        x, steps = batch
        xc = x.astype(dtype)
        gauge, _ = build_fields(SCALE, "BPS")
        phase = gribov_phase_scalar(SCALE)
        got = covariant_laplacian(gauge, phase, xc, StencilConfig(steps, order), SCALE.g)
        calls = np.stack([covariant_laplacian(gauge, phase, p, StencilConfig(h, order), SCALE.g)
                          for p, h in zip(xc, steps)])
        ref = np.stack([single_centre_laplacian(gauge, phase, p, StencilConfig(h, order), SCALE.g)
                        for p, h in zip(xc, steps)])
        assert _same_bits(got, calls) and _same_bits(got, ref)

    @settings(deadline=None, max_examples=30)
    @given(batch=_points_and_steps(max_points=8, coord=30.0), order=st.sampled_from([2, 4]))
    @example(  # check-gribov's default radii at h = r/100 and h/2, on the z axis
        batch=(np.outer([2.0, 5.0, 20.0] * 2, [0.0, 0.0, 1.0]), np.array([0.02, 0.05, 0.08, 0.01, 0.025, 0.04])),
        order=4,
    )
    def test_gribov_residual_matches_scalar_steps(self, batch, order):
        x, steps = batch
        got = gribov_residual(SCALE, x, StencilConfig(steps, order))
        ref = np.stack([gribov_residual(SCALE, p, StencilConfig(h, order)) for p, h in zip(x, steps)])
        assert _same_bits(got, ref)

    @settings(deadline=None, max_examples=40)
    @given(
        batch=_points_and_steps(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-3, -np.finfo(float).tiny]),
        where=st.integers(0, 4),
    )
    def test_invalid_steps_refused(self, batch, bad, where):
        x, steps = batch
        steps = steps.copy()
        steps[where % len(steps)] = bad
        with pytest.raises(DomainError, match="positive and finite"):
            StencilConfig(steps, 4)

    @settings(deadline=None, max_examples=40)
    @given(batch=_points_and_steps(), extra=st.integers(-5, 5).filter(bool))
    def test_wrong_step_count_refused(self, batch, extra):
        x, steps = batch
        n = len(steps) + extra
        if n < 1:
            n = len(steps) - extra
        stencil = StencilConfig(np.resize(steps, n), 4)
        gauge, scalar = build_fields(SCALE, "BPS")
        with pytest.raises(DomainError, match="stencil steps for points"):
            stencil._gradient(gauge.sample_batch, x)
        with pytest.raises(DomainError, match="stencil steps for points"):
            stencil._apply(scalar.sample_batch, x, 0, deriv=2)
        with pytest.raises(DomainError, match="stencil steps for points"):
            gribov_residual(SCALE, x, stencil)
        with pytest.raises(DomainError, match="stencil steps for points"):
            bogomolnyi_residual(SCALE, x, stencil, "WuYangPlus")

    def test_steps_are_a_read_only_copy(self):
        steps = np.array([0.01, 0.02])
        stencil = StencilConfig(steps, 4)
        steps[0] = -1.0
        assert stencil.h[0] == 0.01 and not stencil.h.flags.writeable
        assert np.array_equal(stencil.halved().h, [0.005, 0.01])
        for shape in ((0,), (2, 1)):
            with pytest.raises(DomainError, match="non-empty 1-D array"):
                StencilConfig(np.full(shape, 0.01), 4)

    def test_first_coarse_step_named(self):
        with pytest.raises(StencilError, match="stencil step 0.5 too coarse"):
            gribov_residual(SCALE, np.outer([1.0, 2.0, 3.0], [0.0, 0.0, 1.0]), StencilConfig([0.01, 0.5, 0.7], 4))


# ---------------------------------------------------------------------------
# the curl of a hedgehog's vector against the curl of its nine components
# ---------------------------------------------------------------------------

# coordinates +-0 or of magnitude in [1e-3, 10]: a shifted copy keeps the
# -0.0 that x + o h e turned into +0.0
_SIGNED_COORD = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


def _signed_points_and_steps(max_points=6):
    """n points (n, 3) holding signed zeros and n steps below eps/10."""
    return st.integers(1, max_points).flatmap(lambda n: st.tuples(
        arrays(float, (n, 3), elements=_SIGNED_COORD),
        arrays(float, n, elements=st.floats(1e-4, 0.05)),
    ))


def _all_coordinates_shifted_gradient(stencil, sample, pts):
    """d_j of a sampler as the engine formed it when each sample point was
    x + o h e_j, all three coordinates shifted, and each weighted sample a
    new array (the reference of the engine's bits)."""
    offs, wts = stencil.offsets_weights()

    def along(v, like):
        return v if np.ndim(v) == 0 else v.reshape(v.shape + (1,) * (like.ndim - 1))

    axes = []
    for e in np.eye(3):
        acc = 0.0
        for w, s in zip(wts, np.multiply.outer(offs, stencil.h)):
            term = sample(pts + along(s, pts) * e)
            acc += along(w, term) * term
        axes.append(acc)
    return np.stack(axes, axis=1)


class TestVectorCurl:
    """ColorField.curl of a field built from its vector w differences only
    w's three components; it has the bits of the curl of the nine-component
    gradient, signs of zero included, and the engine's shifted copies the
    bits of shifting every coordinate."""

    @settings(deadline=None, max_examples=40)
    @given(
        batch=_signed_points_and_steps(),
        variant=st.sampled_from(["BPS", "WuYangPlus", "WuYangMinus", "PT"]),
        order=st.sampled_from([2, 4]),
        dtype=st.sampled_from([np.float64, np.longdouble]),
        per_point=st.booleans(),
        g=st.floats(0.3, 3.0),
    )
    @example(
        batch=(np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0], [0.5, -0.0, 0.0], [-0.0, 2.0, -0.0]]),
               np.array([0.01, 0.02, 0.005, 0.05])),
        variant="BPS", order=4, dtype=np.longdouble, per_point=True, g=1.0,
    )
    def test_vector_route_matches_nine_components(self, batch, variant, order, dtype, per_point, g):
        x, steps = batch
        pts = x.astype(dtype)
        stencil = StencilConfig(steps if per_point else float(steps[0]), order)
        gauge, _ = build_fields(MonopoleScale(g, 1.0), variant)
        assert gauge.vector_batch is not None
        got = gauge.curl(stencil, pts)
        nine = stencil._gradient(gauge.sample_batch, pts)
        generic = ColorField(gauge.sample_batch).curl(stencil, pts)  # a field without a vector
        assert got.shape == (len(pts), 3, 3) and got.flags.c_contiguous
        assert _same_bits(got, generic) and _same_bits(generic, algebra.curl(nine))
        assert _same_bits(nine, _all_coordinates_shifted_gradient(stencil, gauge.sample_batch, pts))


# ---------------------------------------------------------------------------
# one walk over the shifts of h and h/2 against one call per step
# ---------------------------------------------------------------------------

_TINY_EPS = 1e-306  # a core whose steps below eps/10 are subnormal
# odd multiples of the smallest subnormal 2^-1074 (their halves are inexact)
# between the refusal floor of h/2's weights (h near 7.4e-309) and eps/10
_ODD_SUBNORMAL = st.integers(int(7.5e-309 / 2.0**-1074) // 2, int(9.9e-309 / 2.0**-1074) // 2).map(
    lambda k: math.ldexp(2 * k + 1, -1074))


def _two_level_batch(max_points=5):
    """(tiny, coordinates, steps): n points (n, 3) in units of eps holding
    signed zeros, and n steps, below eps/10 at eps = 1 or (tiny) odd
    subnormal multiples at eps = _TINY_EPS, where no shift of h is bitwise
    one of h/2."""
    def drawn(n, tiny):
        steps = arrays(float, n, elements=_ODD_SUBNORMAL if tiny else st.floats(1e-4, 0.05))
        return st.tuples(st.just(tiny), arrays(float, (n, 3), elements=_SIGNED_COORD), steps)
    return st.tuples(st.integers(1, max_points), st.booleans()).flatmap(lambda a: drawn(*a))


def _outcome(fn):
    """fn's value, or the message of the StencilError it raised."""
    try:
        return fn()
    except StencilError as exc:
        return f"StencilError: {exc}"


def _one_step_residual(scale, pts, stencil, variant, sign):
    """bogomolnyi_residual at one step, as it was written before both steps
    shared a walk (the reference of its bits)."""
    if FieldVariant.parse(variant) is FieldVariant.PT:
        return 0.0
    gauge, scalar = build_fields(scale, variant)
    xe = pts.astype(np.longdouble)
    B = magnetic_tension(gauge, xe, stencil, scale.g)
    D = covariant_derivative(gauge, scalar, xe, stencil, scale.g)
    nb, nd = np.linalg.norm(B, axis=(1, 2)), np.linalg.norm(D, axis=(1, 2))
    if FieldVariant.parse(variant) is FieldVariant.BPS:
        res = np.linalg.norm(B - sign * D, axis=(1, 2)) / nb
    else:
        cos = np.abs(np.sum(B * D, axis=(1, 2))) / (nb * nd)
        res = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    return float(np.max(res, initial=0.0))


class TestSharedHalfStep:
    """A stencil walk at h and h/2 gives each step the bits of a one-step
    call: the gradients, B and D(phi) at both steps, and both residuals."""

    @settings(deadline=None, max_examples=40)
    @given(
        batch=_two_level_batch(),
        variant=st.sampled_from(["BPS", "WuYangPlus", "WuYangMinus", "PT"]),
        order=st.sampled_from([2, 4]),
        dtype=st.sampled_from([np.float64, np.longdouble]),
        per_point=st.booleans(),
        sign=st.sampled_from([1, -1]),
        g=st.floats(0.3, 3.0),
    )
    @example(  # h/2 exact: the shifts +-h of both steps are one sample each
        batch=(False, np.array([[0.0, -0.0, 1.0], [-0.0, 0.5, -0.0], [2.0, -3.0, 0.25]]), np.array([0.01, 0.02, 0.005])),
        variant="BPS", order=4, dtype=np.longdouble, per_point=False, sign=1, g=1.0,
    )
    @example(  # h/2 inexact: no shift is shared
        batch=(True, np.array([[0.0, -0.0, 1.0], [0.7, 0.5, -0.0]]), np.array([math.ldexp(2 * 759375 * 10**9 + 1, -1074)] * 2)),
        variant="BPS", order=4, dtype=np.longdouble, per_point=True, sign=1, g=1.0,
    )
    def test_matches_one_step_calls(self, batch, variant, order, dtype, per_point, sign, g):
        tiny, coords, steps = batch
        scale = MonopoleScale(g, _TINY_EPS if tiny else 1.0)
        x = coords * scale.eps
        pts = x.astype(dtype)
        stencil = StencilConfig(steps if per_point else float(steps[0]), order)
        half = stencil.halved()
        gauge, scalar = build_fields(scale, variant)
        # float64 squares of a tiny core underflow: both routes divide by 0 alike
        with np.errstate(all="ignore") if tiny else contextlib.nullcontext():
            for sample in (gauge.vector_batch, scalar.sample_batch):
                got = stencil._gradient(sample, pts, with_half=True)
                ref = stencil._gradient(sample, pts), half._gradient(sample, pts)
                assert all(_same_bits(a, b) for a, b in zip(got, ref))
            pairs = _outcome(lambda: _first_order_pairs(gauge, scalar, pts, stencil, g))
            ref_pairs = _outcome(lambda: [
                (magnetic_tension(gauge, pts, s, g), covariant_derivative(gauge, scalar, pts, s, g))
                for s in (stencil, half)])
            if isinstance(ref_pairs, str):
                assert pairs == ref_pairs
            else:
                assert all(_same_bits(a, b) for got, ref in zip(pairs, ref_pairs) for a, b in zip(got, ref))
            res = _outcome(lambda: bogomolnyi_residual(scale, x, stencil, variant, sign))
            ref_res = _outcome(lambda: tuple(_one_step_residual(scale, x, s, variant, sign) for s in (stencil, half)))
        if isinstance(ref_res, str):
            assert res == ref_res
        else:
            assert [v.hex() for v in res] == [v.hex() for v in ref_res]


# ---------------------------------------------------------------------------
# the written-out Levi-Civita contractions against their EPS3 einsums
# ---------------------------------------------------------------------------

def _affine_field(c0, grad):
    """The field c0 + x_j grad[j]: its value and gradient are drawn directly."""
    return ColorField(lambda pts: c0 + np.tensordot(pts, grad, axes=(1, 0)))


_ENTRIES = st.floats(-1e3, 1e3, allow_subnormal=False)
_CONTRACTION_DTYPES = st.sampled_from([np.float64, np.longdouble])


def _drawn(values, dtype):
    # dividing by 3 fills the extended mantissa that float draws leave empty
    return np.asarray(values, dtype=dtype) / dtype(3.0)


# |written out - einsum| over the sum of the absolute values of the einsum's
# terms: the written-out forms add the same non-zero products in another
# order, so the gap is a few units in the last place of that scale.  Largest
# measured over 20 000 draws with entries spread over six decades: 4.4e-16
# (tension) and 5.5e-16 (Laplacian) in float64, 2.2e-19 and 2.7e-19 in
# longdouble.
_REORDER_BOUND = 1e-14


class TestLeviCivitaContractions:
    """magnetic_tension, covariant_derivative and covariant_laplacian against
    the EPS3 einsums that the cross products replaced, on affine fields whose
    value A, gradient dA and scalar phi are drawn by hypothesis."""

    @settings(deadline=None, max_examples=60)
    @given(
        a0=arrays(float, (3, 3), elements=_ENTRIES),
        da=arrays(float, (3, 3, 3), elements=_ENTRIES),
        x=arrays(float, (4, 3), elements=st.floats(-10.0, 10.0)),
        g=st.floats(0.01, 100.0),
        dtype=_CONTRACTION_DTYPES,
    )
    def test_tension(self, a0, da, x, g, dtype):
        gauge = _affine_field(_drawn(a0, dtype), _drawn(da, dtype))
        pts = x.astype(dtype)
        stencil = StencilConfig(h=0.01, order=4)
        dA = stencil._gradient(gauge.sample_batch, pts)
        A = gauge.sample(pts)
        curl = np.einsum("ijk,njka->nia", EPS3, dA)
        quad = np.einsum("ijk,abc,njb,nkc->nia", EPS3, EPS3, A, A)
        # g = 0 leaves the curl alone: two differences per entry, bitwise
        assert np.array_equal(magnetic_tension(gauge, pts, stencil, 0.0), curl)
        B = magnetic_tension(gauge, pts, stencil, g)
        assert B.dtype == dtype
        abs_quad = np.einsum("ijk,abc,njb,nkc->nia", np.abs(EPS3), np.abs(EPS3), np.abs(A), np.abs(A))
        scale = np.abs(curl) + 0.5 * g * abs_quad
        assert np.all(np.abs(B - (curl - 0.5 * g * quad)) <= _REORDER_BOUND * scale)

    @settings(deadline=None, max_examples=60)
    @given(
        a0=arrays(float, (3, 3), elements=_ENTRIES),
        phi0=arrays(float, 3, elements=_ENTRIES),
        dphi=arrays(float, (3, 3), elements=_ENTRIES),
        x=arrays(float, (4, 3), elements=st.floats(-10.0, 10.0)),
        g=st.floats(0.01, 100.0),
        dtype=_CONTRACTION_DTYPES,
    )
    def test_covariant_derivative_and_laplacian(self, a0, phi0, dphi, x, g, dtype):
        gauge = _affine_field(_drawn(a0, dtype), np.zeros((3, 3, 3), dtype=dtype))
        scalar = _affine_field(_drawn(phi0, dtype), _drawn(dphi, dtype))
        pts = x.astype(dtype)
        stencil = StencilConfig(h=0.01, order=4)
        A, phi = gauge.sample(pts), scalar.sample(pts)
        ref = stencil._gradient(scalar.sample_batch, pts) - g * np.einsum("abc,nib,nc->nia", EPS3, A, phi)
        # one cross product per entry, bitwise
        assert np.array_equal(covariant_derivative(gauge, scalar, pts, stencil, g), ref)

        # the Laplacian's colour term, with the outer sum of the previous form
        xc = pts[0]
        offs, wts = stencil.offsets_weights()
        shifted = [xc + o * e for e in np.eye(3, dtype=dtype) * stencil.h for o in offs]
        D = covariant_derivative(gauge, scalar, np.array([xc] + shifted), stencil, g)
        div = np.zeros(3, dtype=dtype)
        for Dk, (j, w) in zip(D[1:], [(j, w) for j in range(3) for w in wts]):
            div = div + w * Dk[j]
        A0 = gauge.sample(xc)
        ref = div - g * np.einsum("abc,ib,ic->a", EPS3, A0, D[0])
        got = covariant_laplacian(gauge, scalar, xc, stencil, g)
        assert got.dtype == dtype
        scale = np.abs(div) + g * np.einsum("abc,ib,ic->a", np.abs(EPS3), np.abs(A0), np.abs(D[0]))
        assert np.all(np.abs(got - ref) <= _REORDER_BOUND * scale)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_hedgehog_quadratic_term_bitwise(self, dtype):
        # the hedgehog A_i^a = eps_{iak} y_k vanishes at a = i, so in each
        # entry A_{i+1}^{a+1} A_{i+2}^{a+2} - A_{i+1}^{a+2} A_{i+2}^{a+1} one
        # product is zero, and both forms give twice the other one exactly
        gauge, _ = build_fields(SCALE, "BPS")
        pts = random_points(64, seed=16).astype(dtype)
        A = gauge.sample(pts)
        quad = np.einsum("ijk,abc,njb,nkc->nia", EPS3, EPS3, A, A)
        stencil = default_stencil(SCALE)
        dA = stencil._gradient(gauge.sample_batch, pts)
        curl = np.einsum("ijk,njka->nia", EPS3, dA)
        assert np.array_equal(magnetic_tension(gauge, pts, stencil, 2.0), curl - 0.5 * 2.0 * quad)


# ---------------------------------------------------------------------------
# branch switches of the profile helpers
# ---------------------------------------------------------------------------

def _where_coth_minus_inv(x):
    """The earlier form of _coth_minus_inv, every branch on every element."""
    x = np.asarray(x)
    small = np.abs(x) < 0.05
    xs = np.where(small, 1.0, x)
    direct = 1.0 / np.tanh(xs) - 1.0 / xs
    xm = np.where(small, x, 0.0)
    x2 = xm * xm
    series = xm * (1.0 / 3.0 - x2 * (1.0 / 45.0 - x2 * (2.0 / 945.0 - x2 / 4725.0)))
    return np.where(small, series, direct)


def _where_x_over_sinh(x):
    """_x_over_sinh in np.where form, every branch on every element, with the
    earlier tail 2x e^-x/(1 - e^-2x) (no longer clamped at 11300) wherever
    e^-x is a normal float, x <= c."""
    x = np.asarray(x)
    small = np.abs(x) < 1e-8
    big = x > 30.0
    xs = np.where(small | big, 1.0, x)
    direct = xs / np.sinh(xs)
    c = -np.log(np.finfo(x.dtype).tiny)
    xb = np.where(big, np.minimum(x, np.finfo(x.dtype).max), 1.0)
    xc = np.minimum(xb, c)
    split = xb * (2.0 * np.exp(-xc)) * np.exp(xc - xb)
    tail = np.where(xb <= c, 2.0 * xb * np.exp(-xb), split) / (1.0 - np.exp(-2.0 * xc))
    xm = np.where(small, x, 0.0)
    return np.where(small, 1.0 - xm * xm / 6.0, np.where(big, tail, direct))


def _where_d_f01(r, eps):
    """d_f01_bps in np.where form, every branch on every element: up to
    x = 1e143 the earlier form, whose subtrahend 1/sinh(min(x, 350))^2 there
    is below half an ulp of 1/x^2; past it 1/x^2 alone, (1/x)^2 past 1e154."""
    x = np.asarray(r, dtype=float) / eps
    small = np.abs(x) < 0.05
    far = x > 1e154
    xs = np.where(small | far, 1.0, x)
    earlier = 1.0 / np.sinh(np.minimum(xs, 350.0)) ** 2
    direct = (1.0 / xs**2 - np.where(xs <= 1e143, earlier, 0.0)) / eps
    direct = np.where(far, (1.0 / np.where(far, x, 1.0)) ** 2 / eps, direct)
    xm = np.where(small, x, 0.0)
    x2 = xm * xm
    series = (1.0 / 3.0 - x2 * (1.0 / 15.0 - x2 * (2.0 / 189.0 - x2 / 675.0))) / eps
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _mp(v):
    """A float64 or longdouble value as an exact mpmath number."""
    m, e = np.frexp(np.asarray(v)[()])
    return mpmath.mpf(int(np.ldexp(m, 64))) * mpmath.mpf(2) ** (int(e) - 64)


def _switch_inputs(switch, drawn):
    """Each dtype's neighbours of the switch point (below, at, above) and a
    hypothesis draw within 1% of it, as (dtype, x) pairs."""
    for dtype in (np.float64, np.longdouble):
        c = dtype(switch)
        for x in (np.nextafter(c, dtype(0)), c, np.nextafter(c, dtype(np.inf)), dtype(drawn)):
            yield dtype, x


def _same_as_where_form(fn, ref, x):
    """fn(x) bitwise equal to the np.where form, as a 0-d input and inside an
    (N,) input that mixes every branch; returns fn(x)."""
    got = fn(np.asarray(x))
    assert np.array_equal(got, ref(np.asarray(x))) and np.asarray(got).dtype == np.asarray(ref(x)).dtype
    batch = np.array([0.0, x / 3.0, x, 3.0 * x, 1e-9, 0.04, 31.0, 400.0, 12000.0, 1e160], dtype=x.dtype)
    assert np.array_equal(fn(batch), ref(batch))
    assert np.array_equal(fn(batch)[2], got)
    return got


def _near(switch):
    return st.floats(0.99 * switch, 1.01 * switch)


# each profile helper, its np.where form and the elements of each branch
_BRANCHES = {
    "x_over_sinh": (_x_over_sinh, _where_x_over_sinh, {
        "small": st.floats(-1e-8, 1e-8, exclude_min=True, exclude_max=True),
        "big": st.floats(30.0, 1e300, exclude_min=True),
        "direct": st.one_of(st.floats(1e-8, 30.0), st.floats(-30.0, -1e-8)),
    }),
    "coth_minus_inv": (_coth_minus_inv, _where_coth_minus_inv, {
        "small": st.floats(-0.05, 0.05, exclude_min=True, exclude_max=True),
        "direct": st.one_of(st.floats(0.05, 1e300), st.floats(-1e300, -0.05)),
    }),
    "d_f01": (lambda r: d_f01_bps(r, 1.0), lambda r: _where_d_f01(r, 1.0), {
        "small": st.floats(0.0, 0.05, exclude_max=True),
        "direct": st.floats(0.05, 350.0),
        "tail": st.floats(350.0, 1e154, exclude_min=True),
        "far": st.floats(1e154, 1e300, exclude_min=True),
    }),
}


# Gaps to 30-digit mpmath: |got - ref| <= rel |ref| + floor.
#  - _x_over_sinh: rel 1e-15 (measured 1.5e-16 in float64, 4.9e-19 in
#    longdouble).  floor: each dtype's smallest subnormal (4.9e-324 and
#    3.6e-4951), the rounding of a result that underflows into the subnormal
#    range.  Past c = -log(tiny) (708.4 and 11355.1) e^-x alone is subnormal,
#    so the tail is e^-c e^(c - x).
#  - _coth_minus_inv and d_f01_bps: rel 1e-12.  Largest measured over 3000
#    draws within 1% of x = 0.05: 3.1e-13 and 4.7e-13 just above it, where
#    the direct forms cancel, and 2.6e-15 just below, the truncation of the
#    series in longdouble.  d_f01_bps's floor is float64's smallest subnormal
#    (over eps): past x = 1e154, 1/x^2 = (1/x)^2 is subnormal.
class TestProfileBranches:
    """Each branch is evaluated only on its own elements; the values are the
    np.where forms' bit for bit, on both sides of every switch."""

    @pytest.mark.parametrize("switch", [1e-8, 30.0, float(-np.log(np.finfo(float).tiny)), 11300.0])
    @settings(deadline=None, max_examples=20)
    @given(drawn=st.data())
    def test_x_over_sinh(self, switch, drawn):
        with mpmath.workdps(30):
            for dtype, x in _switch_inputs(switch, drawn.draw(_near(switch))):
                got = _same_as_where_form(_x_over_sinh, _where_x_over_sinh, x)
                ref = _mp(x) / mpmath.sinh(_mp(x))
                floor = _mp(np.finfo(dtype).smallest_subnormal)
                assert abs(_mp(got) - ref) <= 1e-15 * ref + floor

    @settings(deadline=None, max_examples=20)
    @given(drawn=_near(0.05))
    def test_coth_minus_inv(self, drawn):
        with mpmath.workdps(30):
            for dtype, x in _switch_inputs(0.05, drawn):
                got = _same_as_where_form(_coth_minus_inv, _where_coth_minus_inv, x)
                ref = mpmath.coth(_mp(x)) - 1 / _mp(x)
                assert abs(_mp(got) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("helper, branch", [(h, b) for h, (_, _, bs) in _BRANCHES.items() for b in bs])
    @settings(deadline=None, max_examples=20)
    @given(drawn=st.data(), dtype=st.sampled_from([np.float64, np.longdouble]))
    def test_empty_branches(self, helper, branch, drawn, dtype):
        # arrays without any element of one branch, with only that branch,
        # and with no element at all: a skipped branch changes no bit
        fn, ref, branches = _BRANCHES[helper]

        def values(names):
            return [v for name in names for v in drawn.draw(st.lists(branches[name], min_size=1, max_size=4))]

        without = values([name for name in branches if name != branch])
        for vals in (without, values([branch]), []):
            x = np.array(drawn.draw(st.permutations(vals)), dtype=dtype)
            assert _same_bits(fn(x), ref(x))

    @pytest.mark.parametrize("switch", [0.05, 350.0, 1e154])
    @settings(deadline=None, max_examples=20)
    @given(drawn=st.data(), eps=st.sampled_from([1.0, 0.25]))
    def test_d_f01(self, switch, drawn, eps):
        # d_f01_bps reads its radius as float64; r = eps x puts x at the switch
        with mpmath.workdps(30):
            for dtype, x in _switch_inputs(switch, drawn.draw(_near(switch))):
                r = x * dtype(eps)
                got = _same_as_where_form(lambda v: d_f01_bps(v, eps), lambda v: _where_d_f01(v, eps), r)
                xm = _mp(np.float64(r)) / eps
                ref = (1 / xm**2 - 1 / mpmath.sinh(xm) ** 2) / eps
                assert abs(_mp(got) - ref) <= 1e-12 * ref + _mp(np.finfo(float).smallest_subnormal) / eps
