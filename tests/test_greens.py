"""Radial potentials, Euler/radial residuals and the background operator."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac.bps_profiles import StencilConfig, f1_bps
from ymvac.errors import DomainError
from ymvac.greens import (
    EulerSolution,
    GreenTensor,
    euler_residual,
    golden_roots,
    golden_solution,
    monopole_covariant_laplacian,
    radial_ym_residual,
    shoot_radial,
)

GOLD = (1.0 + np.sqrt(5.0)) / 2.0

# equal-sized point batches; no coordinate is zero, so no point is the origin
_COORD = st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)
BATCH_PAIRS = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[arrays(np.float64, (n, 3), elements=_COORD)] * 2)
)


class TestRoots:
    def test_coulomb_pair(self):
        assert golden_roots(0) == (-1.0, 0.0)

    def test_golden_pair(self):
        l1, l2 = golden_roots(1)
        assert l1 == pytest.approx(-(1.0 + np.sqrt(5.0)) / 2.0, abs=1e-14)
        assert l2 == pytest.approx((-1.0 + np.sqrt(5.0)) / 2.0, abs=1e-14)
        assert l1 == pytest.approx(-1.618, abs=5e-4)
        assert l2 == pytest.approx(0.618, abs=5e-4)

    def test_integer_pair(self):
        assert golden_roots(2) == (-2.0, 1.0)

    def test_vieta(self):
        for n in range(0, 6):
            sol = golden_solution(n, 1.0, 1.0)
            dsum, dprod = sol.vieta_defect()
            assert dsum < 1e-14 and dprod < 1e-13
            assert sol.l1 < 0 < sol.l2 + 1

    def test_golden_section_identity(self):
        _, l2 = golden_roots(1)
        assert abs(l2**2 - (1.0 - l2)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            golden_roots(-1)


class TestEulerResidual:
    def test_coulomb_solution(self):
        sol = golden_solution(0, -1.0 / (4.0 * np.pi), 0.0)
        assert abs(euler_residual(sol, 1.0)) < 1e-14

    def test_golden_solution(self):
        sol = golden_solution(1, 1.0, 1.0)
        assert abs(euler_residual(sol, 2.5)) < 1e-14

    def test_random_coefficients(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 2):
            for _ in range(20):
                d, c = rng.normal(size=2)
                sol = golden_solution(n, d, c)
                z = rng.uniform(0.25, 4.0)
                assert abs(euler_residual(sol, z)) < 1e-12

    def test_perturbed_exponent(self):
        good = golden_solution(1, 1.0, 1.0)
        bad = EulerSolution(n=1, d=1.0, c=1.0, l1=good.l1, l2=good.l2 + 0.01)
        assert abs(euler_residual(bad, 2.5)) > 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_residual(golden_solution(0, 1.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            euler_residual(golden_solution(0, 1.0, 0.0), np.array([1.0, 0.0, 2.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_coefficient(self):
        # the term that leaves the float range is named, or both when only the sum does
        with pytest.raises(DomainError, match="at z=2.6 with coefficient c=1e[+]308$"):
            golden_solution(1, 1.0, 1e308).value(np.array([1.0, 2.6]))
        with pytest.raises(DomainError, match="coefficient d=1e[+]308$"):
            golden_solution(1, 1e308, 1.0).value(0.5)
        with pytest.raises(DomainError, match="coefficient d=1e[+]308 and c=1e[+]308$"):
            EulerSolution(1, 1e308, 1e308, 0.0, 0.0).value(1.0)

    def test_array_matches_scalars(self):
        good = golden_solution(1, 0.7, -1.3)
        bad = EulerSolution(n=1, d=0.7, c=-1.3, l1=good.l1 - 0.02, l2=good.l2 + 0.01)
        zs = np.random.default_rng(4).uniform(0.25, 4.0, 200)
        each = np.array([euler_residual(bad, z) for z in zs])
        np.testing.assert_allclose(euler_residual(bad, zs), each, rtol=1e-15, atol=0.0)


class TestRadialYM:
    def test_fixed_points_exact(self):
        for f in (0.0, 1.0, -1.0):
            for r in (0.3, 1.0, 7.0):
                assert radial_ym_residual(lambda _: f, r) == 0.0

    def test_smooth_profile_residual_decays_with_eps(self):
        # the smooth pair solves the first-order system, not this second-order
        # equation: nonzero residual, decaying as the core shrinks at fixed r
        # (exponential decay sets in once r/eps is past the core transition)
        res = [abs(radial_ym_residual(lambda r, e=e: f1_bps(r, e), 1.0)) for e in (0.125, 0.0625, 0.03125)]
        assert res[0] > res[1] > res[2]
        assert res[0] > 1e-2
        assert res[1] < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_ym_residual(lambda r: 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_radius_whose_step_squares_to_zero_refused(self):
        # the default step r/500 = 2e-163 squares to 0: the second-derivative
        # weights are refused before any sample, with no warning
        with pytest.raises(DomainError, match="stencil step 2e-163 is too small: its second-derivative weights"):
            radial_ym_residual(lambda r: 0.5, 1e-160)
        assert radial_ym_residual(lambda r: 0.5, 1e-140) == 0.5 * (0.25 - 1.0) / 1e-280


class TestShooting:
    def test_fixed_points_stay(self):
        for f0, name in ((1.0, "fixed:+1"), (0.0, "fixed:0"), (-1.0, "fixed:-1")):
            t = shoot_radial(f0, 0.0, (1.0, 100.0))
            assert t.classification == name
            assert abs(t.f[-1] - f0) < 1e-8

    def test_classification_stable_under_tolerance(self):
        a = shoot_radial(0.999, 0.0, (1.0, 100.0), rtol=1e-10)
        b = shoot_radial(0.999, 0.0, (1.0, 100.0), rtol=1e-12)
        assert a.classification == b.classification

    def test_independent_integrator_oracle(self):
        a = shoot_radial(0.97, 0.05, (1.0, 60.0), method="RK45")
        b = shoot_radial(0.97, 0.05, (1.0, 60.0), method="DOP853")
        assert a.classification == b.classification
        assert abs(a.f[-1] - b.f[-1]) < 1e-6

    def test_blowup_is_classified(self):
        # growing trajectory crossing a finite escape threshold: a valid outcome
        t = shoot_radial(0.0, 3.0, (1.0, 400.0), blowup=5.0)
        assert t.classification == "divergent" and t.diverged

    def test_domain(self):
        with pytest.raises(DomainError):
            shoot_radial(1.0, 0.0, (0.0, 10.0))
        with pytest.raises(DomainError):
            shoot_radial(np.inf, 0.0, (1.0, 10.0))


class TestGreenTensor:
    def setup_method(self):
        self.s0 = golden_solution(0, -1.0 / (4.0 * np.pi), 0.0)
        self.s1 = golden_solution(1, 1.0 / (4.0 * np.pi), 1.0)
        self.G = GreenTensor(self.s0, self.s1)

    def test_requires_correct_indices(self):
        with pytest.raises(DomainError):
            GreenTensor(self.s1, self.s1)

    def test_colinear_projector_identity(self):
        x = np.array([0.0, 0.0, 2.0])
        y = np.array([0.0, 0.0, 0.5])
        z = np.linalg.norm(x - y)
        n = np.array([0.0, 0.0, 1.0])
        expected = np.outer(n, n) * self.s0.value(z) + (np.eye(3) - np.outer(n, n)) * self.s1.value(z)
        np.testing.assert_allclose(self.G.evaluate(x, y), expected, atol=1e-14)

    def test_projector_completeness_when_potentials_match(self):
        # scale the transverse potential to coincide with V0 at the probe
        # separation: G collapses to delta^{ab} V0(z) for colinear points
        x = np.array([0.0, 0.0, 3.0])
        y = np.array([0.0, 0.0, 1.0])
        z = np.linalg.norm(x - y)
        s1 = golden_solution(1, 0.0, self.s0.value(z) / z**golden_roots(1)[1])
        Gsame = GreenTensor(self.s0, s1)
        np.testing.assert_allclose(Gsame.evaluate(x, y), np.eye(3) * self.s0.value(z), atol=1e-14)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(self.G.evaluate(x, y), self.G.evaluate(y, x).T, atol=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            self.G.evaluate(np.zeros(3), np.array([1.0, 0, 0]))
        with pytest.raises(DomainError):
            self.G.evaluate(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))

    def test_batch_domain_errors(self):
        # one bad point anywhere in the batch is enough
        y = np.array([1.0, 0, 0])
        with pytest.raises(DomainError, match="origin"):
            self.G.evaluate(np.array([[0.5, 0.2, 0.1], [0.0, 0.0, 0.0], [2.0, 1.0, 0.0]]), y)
        with pytest.raises(DomainError, match="coincident"):
            self.G.evaluate(np.array([[0.5, 0.2, 0.1], [2.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), y)

    def test_batch_matches_points_bitwise(self):
        rng = np.random.default_rng(8)
        X, Y = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        y = Y[0]
        assert np.array_equal(self.G.evaluate(X, y), np.array([self.G.evaluate(x, y) for x in X]))
        assert np.array_equal(self.G.evaluate(X, Y), np.array([self.G.evaluate(x, v) for x, v in zip(X, Y)]))

    @settings(deadline=None)
    @given(BATCH_PAIRS)
    def test_swap_symmetry_property(self, pair):
        X, Y = pair
        assume(np.linalg.norm(X - Y, axis=1).min() > 1e-3)
        np.testing.assert_allclose(
            self.G.evaluate(X, Y), self.G.evaluate(Y, X).swapaxes(1, 2), rtol=1e-13, atol=1e-13
        )


def single_point_operator(S, x, h, order=2):
    """monopole_covariant_laplacian as it was written for one point and one
    step (the reference of its bits)."""
    pts = np.asarray(x).reshape(1, 3)
    r = float(np.linalg.norm(pts))
    stencil = StencilConfig(h, order)
    S0 = S(pts)[0]
    grad = stencil._gradient(S, pts)[0]
    lap = sum(stencil._apply(S, pts, j, deriv=2) for j in range(3))[0]
    n = (pts[0] / r).reshape((3,) + (1,) * (S0.ndim - 1))
    div = np.trace(grad)
    nb_da_Sb = np.sum(grad * n, axis=1)
    return lap - (n * np.sum(n * S0, axis=0) + S0) / (r * r) + (2.0 / r) * (n * div - nb_da_Sb)


class TestBackgroundOperator:
    """The operator is exact on the assembled tensor in the center-anchored
    colinear configuration (source next to the monopole center)."""

    def setup_method(self):
        self.s0 = golden_solution(0, -1.0 / (4.0 * np.pi), 0.0)
        self.s1 = golden_solution(1, 1.0, 1.0)
        self.G = GreenTensor(self.s0, self.s1)
        self.y = np.array([0.0, 0.0, 1e-9])

    def _residual(self, x, h, order=2):
        res = monopole_covariant_laplacian(lambda P: self.G.evaluate(P, self.y), x, h=h, order=order)
        return float(np.abs(res).max())

    @pytest.mark.parametrize("order", [2, 4])
    def test_tensor_matches_column_calls_bitwise(self, order):
        for r in (0.8, 2.0, 5.0):
            x = np.array([0.0, 0.0, r])
            h = np.linalg.norm(x - self.y) / 500.0
            tensor = monopole_covariant_laplacian(lambda P: self.G.evaluate(P, self.y), x, h=h, order=order)
            columns = [
                monopole_covariant_laplacian(lambda P, c=c: self.G.evaluate(P, self.y)[..., c], x, h=h, order=order)
                for c in range(3)
            ]
            assert tensor.shape == (3, 3)
            assert np.array_equal(tensor, np.stack(columns, axis=1))

    def test_annihilation_colinear(self):
        for r in (0.8, 2.0, 5.0):
            x = np.array([0.0, 0.0, r])
            z = np.linalg.norm(x - self.y)
            assert self._residual(x, z / 500.0) < 1e-3

    def test_h_refinement_second_order(self):
        x = np.array([0.0, 0.0, 2.0])
        z = np.linalg.norm(x - self.y)
        r1 = self._residual(x, z / 250.0)
        r2 = self._residual(x, z / 500.0)
        r3 = self._residual(x, z / 1000.0)
        assert r1 > r2 > r3
        assert r1 / r2 > 3.0  # consistent with O(h^2)

    def test_coulomb_reduction(self):
        # the n=0 sector alone is the fundamental harmonic kernel -1/(4 pi z),
        # annihilated for a generic (non-colinear) source
        y = np.array([0.4, -0.3, 0.2])

        def coulomb(xx):
            z = np.linalg.norm(np.asarray(xx) - y)
            return self.s0.value(z)

        x = np.array([1.5, 0.7, -0.9])
        h = 1e-3
        lap = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            lap += (coulomb(x + e) - 2.0 * coulomb(x) + coulomb(x - e)) / h**2
        assert abs(lap) < 1e-6
        assert coulomb(x) == pytest.approx(-1.0 / (4.0 * np.pi * np.linalg.norm(x - y)), rel=1e-12)

    def test_radial_sector_annihilated_for_generic_source(self):
        # columns proportional to n(x) V0(z) are harmonic for any source point
        y = np.array([0.0, 0.0, 0.7])
        x = np.array([0.0, 0.0, 2.0])
        z = np.linalg.norm(x - y)
        res = monopole_covariant_laplacian(
            lambda P: self.G.evaluate(P, y)[..., 2], x, h=z / 500.0
        )
        assert np.abs(res).max() < 1e-6

    @settings(deadline=None, max_examples=40)
    @given(
        batch=st.integers(1, 5).flatmap(lambda n: st.tuples(
            arrays(np.float64, (n, 3), elements=_COORD), arrays(np.float64, n, elements=st.floats(1e-4, 1e-2)))),
        order=st.sampled_from([2, 4]),
        column=st.sampled_from([None, 0, 2]),
        dtype=st.sampled_from([np.float64, np.longdouble]),
    )
    def test_batch_matches_point_calls_bitwise(self, batch, order, column, dtype):
        # one call over a batch with per-point steps against one call per point
        x, steps = batch
        pts = x.astype(dtype)

        def S(P):
            G = self.G.evaluate(P, self.y)
            return G if column is None else G[..., column]

        got = monopole_covariant_laplacian(S, pts, h=steps, order=order)
        calls = np.stack([monopole_covariant_laplacian(S, p, h=h, order=order) for p, h in zip(pts, steps)])
        ref = np.stack([single_point_operator(S, p, h, order) for p, h in zip(pts, steps)])
        for other in (calls, ref):
            assert got.dtype == other.dtype and got.shape == other.shape
            assert np.array_equal(got, other) and np.array_equal(np.signbit(got), np.signbit(other))

    @settings(deadline=None, max_examples=40)
    @given(
        batch=st.integers(1, 5).flatmap(lambda n: st.tuples(
            arrays(np.float64, (n, 3), elements=_COORD), arrays(np.float64, n, elements=st.floats(1e-4, 1e-2)))),
        bad=st.sampled_from([np.nan, np.inf, 0.0, -1e-3]),
        where=st.integers(0, 4),
        extra=st.integers(1, 3),
    )
    def test_invalid_steps_refused(self, batch, bad, where, extra):
        x, steps = batch

        def S(P):
            return self.G.evaluate(P, self.y)

        wrong = steps.copy()
        wrong[where % len(steps)] = bad
        with pytest.raises(DomainError, match="positive and finite"):
            monopole_covariant_laplacian(S, x, h=wrong)
        with pytest.raises(DomainError, match="stencil steps for points"):
            monopole_covariant_laplacian(S, x, h=np.resize(steps, len(steps) + extra))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_point_named_in_a_batch(self):
        # at c = 1e303 the operator stays finite at r = 5 and overflows at
        # r = 0.8 and 2; the first of those in the batch is named
        G = GreenTensor(self.s0, golden_solution(1, 1.0, 1e303))
        x = np.outer((5.0, 0.8, 2.0), (0.0, 0.0, 1.0))
        h = np.array([1e-2, 0.8 / 500.0, 4e-3])
        with pytest.raises(DomainError, match=r"at r=0\.8, h=0\.0016, \|S\| <= 8\.71e\+302"):
            monopole_covariant_laplacian(lambda P: G.evaluate(P, self.y), x, h=h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_field_refused(self):
        # finite potentials whose second differences leave the float range
        G = GreenTensor(self.s0, golden_solution(1, 1.0, 1e305))
        x = np.array([0.0, 0.0, 0.8])
        with pytest.raises(DomainError, match="operator leaves the float range"):
            monopole_covariant_laplacian(lambda P: G.evaluate(P, self.y), x, h=0.8 / 500.0)
