"""Dressed factors, window averages and lattice loop shifts."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac.algebra import ID2, TAU
from ymvac.errors import DomainError, SingularTermError, WindowError
from ymvac.interference import (
    BASE_SPACING,
    GAMMA,
    EulerAngles,
    averaged_two_point,
    color_shift_matrix,
    dirac_slash,
    dressed_factor_map,
    loop_integrand,
    loop_integrand_matrix,
    momentum_green_average,
    shifted_loop_average,
    window_integers,
)
from ymvac.topology import GribovFactorMap

from oracles import mp_matrix, per_shift_loop_average, resolvent_window_sums

ANG = EulerAngles(0.3, 1.1, -0.7)
EPS = 1.0


def as_matrix(w, x):
    """w 1 - i x.tau for a real quaternion (w, x)."""
    return w * ID2 - 1j * np.einsum("a,aij->ij", np.asarray(x, dtype=float), TAU)


def su2_matrix(angles):
    """u = e^{i tau1 phi1/2} e^{i tau2 phi2/2} e^{i tau3 phi3/2} as a complex 2x2 matrix."""
    u = ID2
    for tau, phi in zip(TAU, (angles.phi1, angles.phi2, angles.phi3)):
        u = u @ (math.cos(phi / 2.0) * ID2 + 1j * math.sin(phi / 2.0) * tau)
    return u


def dressed_quaternion(n, angles, x, eps):
    """(q0, q) of the dressed factor at one point."""
    q0, q, _, _ = dressed_factor_map(n, angles, eps).quaternion(x, derivs=False)
    return q0[0], q[:, 0]


def distance(n, angles, x, eps):
    return dressed_factor_map(n, angles, eps).distance_to_identity(x)[0]


def distance_of_average(avg):
    """||w 1 - i x.tau - 1||_2 of an averaged quaternion (w, x)."""
    return math.hypot(avg[0] - 1.0, np.linalg.norm(avg[1:]))


class TestEulerAngles:
    def test_quaternion_unitary(self):
        # u = w 1 - i x.tau is unitary unimodular, w^2 + |x|^2 = 1, and equals
        # the product of the three exponentials built as matrices
        w, x = ANG.quaternion()
        assert abs(w * w + x @ x - 1.0) < 1e-14
        assert np.abs(as_matrix(w, x) - su2_matrix(ANG)).max() < 1e-14

    def test_adjoint_rotation_orthogonal(self):
        R = ANG.adjoint_rotation()
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-13
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_adjoint_action_identity(self):
        # u tau^b u^-1 = tau^a R_ab, with u a test-built complex matrix
        for ang in (ANG, EulerAngles(1.0, 0.2, 0.5), EulerAngles(4.0, -2.5, 6.1)):
            u = su2_matrix(ang)
            R = ang.adjoint_rotation()
            for b in range(3):
                lhs = u @ TAU[b] @ u.conj().T
                rhs = sum(TAU[a] * R[a, b] for a in range(3))
                assert np.abs(lhs - rhs).max() < 1e-13

    def test_finite_validation(self):
        with pytest.raises(DomainError):
            EulerAngles(math.inf, 0.0, 0.0)

    def test_dressed_maps_share_one_rotation(self):
        # the interference report's four dressed maps build R once, read-only
        ang = EulerAngles(1.0, 0.2, 0.5)
        maps = [dressed_factor_map(n, ang, EPS) for n in (1, -1, 2, -2)]
        assert all(fmap.rotation is ang.adjoint_rotation() for fmap in maps)
        assert not ang.adjoint_rotation().flags.writeable


class TestDressedFactor:
    def test_identity_at_n0(self):
        assert distance(0, ANG, np.array([0.5, 0.1, -0.2]), EPS) == 0.0

    def test_zero_angles_unit_asymptotics(self):
        zero = EulerAngles(0.0, 0.0, 0.0)
        assert distance(1, zero, np.array([0.0, 0.0, 1e6]), EPS) < 1e-5

    def test_identity_at_origin_limit(self):
        for n in (1, -2, 3):
            assert distance(n, ANG, np.array([0.0, 0.0, 1e-9]), EPS) < 1e-7

    def test_unitary_unimodular(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=3)
            q0, q = dressed_quaternion(int(rng.integers(-3, 4)), ANG, x, EPS)
            assert abs(q0 * q0 + q @ q - 1.0) < 1e-12

    def test_asymptotic_bound(self):
        for n in (1, -1, 2, -2):
            dev = distance(n, ANG, np.array([0.0, 0.0, 100.0 * EPS]), EPS)
            assert dev < 1.2 * (EPS / 100.0) * 2.0 * math.pi * abs(n)

    def test_deviation_rate_constant_in_n(self):
        # ||v - 1|| <= K (eps/r) with K/(2 pi |n|) bounded across the window
        for r in (20.0, 50.0, 200.0):
            for n in (1, 2, 3):
                dev = distance(n, ANG, np.array([0.0, 0.0, r]), EPS)
                assert dev / (2 * math.pi * abs(n)) <= (EPS / r) * 1.05

    def test_prefactor_exposed(self):
        # the dressed factor is the group-factor map with prefactor -2; the
        # plain (non-doubled) amplitude, prefactor -1, reproduces the undressed
        # central element at infinity for odd n
        zero = EulerAngles(0.0, 0.0, 0.0)
        assert dressed_factor_map(1, zero, EPS).prefactor == -2.0
        plain = GribovFactorMap(1, EPS, prefactor=-1.0, rotation=zero.adjoint_rotation())
        q0, q, _, _ = plain.quaternion(np.array([0.0, 0.0, 1e7]), derivs=False)
        assert np.abs(as_matrix(q0[0], q[:, 0]) + np.eye(2)).max() < 1e-6


class TestAveragedTwoPoint:
    def test_far_field_identity(self):
        x = np.array([0.0, 0.0, 1e4])
        y = np.array([1e4, 0.0, 0.0])
        avg = averaged_two_point(x, y, ANG, 100, EPS)
        assert distance_of_average(avg) < 1e-2

    def test_rate_bound(self):
        # window-symmetric average: deviation ~ <sin^2(2 pi n eps/r)>
        r = 1e3
        L = 100
        x = np.array([0.0, 0.0, r])
        y = np.array([r, 0.0, 0.0])
        ns = window_integers(L)
        bound = 2.0 * np.mean(np.sin(2 * math.pi * ns * (EPS / r)) ** 2) * 1.2
        avg = averaged_two_point(x, y, ANG, L, EPS)
        assert distance_of_average(avg) < bound

    def test_single_term_window(self):
        x = np.array([0.0, 0.0, 3.0])
        avg = averaged_two_point(x, x, ANG, 1, EPS)
        # window {0}: v^(0) v^(0) = identity
        np.testing.assert_allclose(avg, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_near_core_nonidentity(self):
        x = np.array([0.0, 0.0, EPS])
        y = np.array([EPS, 0.0, 0.0])
        avg = averaged_two_point(x, y, ANG, 20, EPS)
        assert distance_of_average(avg) > 0.1

    def test_matches_matrix_products(self):
        # the window average of the 2x2 products v^(n)(x) v^(n)(-y)
        x, y = np.array([0.3, -1.2, 0.8]), np.array([-0.5, 0.4, 2.0])
        ns = window_integers(20)
        terms = [[as_matrix(*dressed_quaternion(int(n), ANG, p, EPS)) for p in (x, -y)] for n in ns]
        ref = sum(vx @ vy for vx, vy in terms) / len(ns)
        avg = averaged_two_point(x, y, ANG, 20, EPS)
        assert np.abs(as_matrix(avg[0], avg[1:]) - ref).max() < 1e-14


def batched_window_average(p, L):
    """The window average with every term inverted in one batch: the whole-window
    formula the head/tail split replaced, kept as the reference.  Returns the
    average and sum_n ||term_n||_1/(L+1), or raises SingularTermError.

    Each entry is summed with math.fsum (real and imaginary parts apart): a
    pairwise sum rounds every entry against the largest term, which near
    p_slash = 0 is the n = 0 inverse, orders of magnitude above the average."""
    ph = np.kron(dirac_slash(p), ID2)
    ns = window_integers(L)
    stack = ph[None, :, :] + ns[:, None, None] * color_shift_matrix()[None, :, :]
    try:
        inv = np.linalg.inv(stack)
        with np.errstate(over="ignore", invalid="ignore"):
            conds = np.linalg.norm(stack, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    except np.linalg.LinAlgError:
        conds = np.linalg.cond(stack, 1)
    bad = np.where(~np.isfinite(conds) | (conds > 1e12))[0]
    if bad.size:
        raise SingularTermError(int(ns[bad[0]]))
    flat = inv.reshape(len(ns), -1).T
    total = np.array([complex(math.fsum(z.real), math.fsum(z.imag)) for z in flat]).reshape(8, 8)
    return total / (L + 1), np.linalg.norm(inv, 1, axis=(-2, -1)).sum() / (L + 1)


def mpmath_inverse_sum(p, t, L):
    """(1/(L+1)) sum_n (p_slash + n t)^-1 with each term inverted by mpmath at 40 digits."""
    with mpmath.workdps(40):
        ph, tm = mp_matrix(np.kron(dirac_slash(p), ID2)), mp_matrix(t)
        total = sum((mpmath.inverse(ph + int(n) * tm) for n in window_integers(L)), mpmath.zeros(8))
        return np.array((total / (L + 1)).tolist(), dtype=complex)


class TestMomentumGreenAverage:
    P = np.array([0.31, 0.7, -0.2, 0.45])

    def test_window_integers(self):
        assert list(window_integers(4)) == [-2, -1, 0, 1, 2]
        assert list(window_integers(0)) == [0]

    def test_decay_ratio(self):
        n100 = np.linalg.norm(momentum_green_average(self.P, 100), 2)
        n200 = np.linalg.norm(momentum_green_average(self.P, 200), 2)
        assert n200 / n100 <= 0.6

    def test_one_over_l_fit(self):
        norms = [np.linalg.norm(momentum_green_average(self.P, L), 2) for L in (100, 1000, 10000)]
        gamma = -np.polyfit(np.log([100.0, 1000.0, 10000.0]), np.log(norms), 1)[0]
        assert 0.9 <= gamma <= 1.1

    def test_scaled_norm_bounded(self):
        # ||S_L|| * L bounded above and below across the full window range
        vals = [np.linalg.norm(momentum_green_average(self.P, L), 2) * L for L in (100, 1000, 10000, 100000)]
        assert max(vals) / min(vals) < 3.0

    def test_window_asymmetry_is_second_order(self):
        t = color_shift_matrix()
        ph = np.kron(dirac_slash(self.P), np.eye(2))
        L = 400
        ns = window_integers(L)
        inv = np.linalg.inv(ph[None] + ns[:, None, None] * t[None])
        sym = inv.sum(axis=0) / (L + 1)
        asym = inv[1:].sum(axis=0) / (L + 1)  # drop n = -L/2
        dropped = np.linalg.norm(inv[0], 2)
        assert np.linalg.norm(sym - asym, 2) <= dropped / (L + 1) + 1e-15
        assert dropped / (L + 1) < 10.0 / L**2 * 8

    def test_singular_term_reported(self):
        light = np.array([1.0, 1.0, 0.0, 0.0])  # p^2 = 0: n = 0 term singular
        with pytest.raises(SingularTermError) as err:
            momentum_green_average(light, 10)
        assert err.value.n == 0

    def test_exactly_singular_term_reported(self):
        # p = 0: the n = 0 term is the zero matrix and inv raises; at
        # p = (k pi, 0, 0, 0) the n = -k term k pi (gamma^0 (x) 1 - sum_a
        # gamma^a (x) tau^a) is exactly singular too
        stack = np.zeros((8, 8))[None] + window_integers(4)[:, None, None] * color_shift_matrix()[None]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack)
        for p0, n in ((0.0, 0), (math.pi, -1), (20.0 * math.pi, -20)):
            p = np.array([p0, 0.0, 0.0, 0.0])
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(np.kron(dirac_slash(p), ID2) + n * color_shift_matrix())
            with pytest.raises(SingularTermError) as err:
                momentum_green_average(p, 100)
            assert err.value.n == n

    def test_near_singular_term_reported(self):
        # p0 = pi (1 + delta): the n = -1 term has a finite inverse, but
        # cond_1 = 4.4e12 > 1e12
        p = np.array([math.pi * (1.0 + 2.0**-40), 0.0, 0.0, 0.0])
        near = np.kron(dirac_slash(p), ID2) - color_shift_matrix()
        assert np.isfinite(np.linalg.inv(near)).all()
        assert 1e12 < np.linalg.cond(near, 1) < 1e13
        with pytest.raises(SingularTermError) as err:
            momentum_green_average(p, 4)
        assert err.value.n == -1

    def test_singular_term_past_minimal_head_reported(self):
        # p0 = 20 pi (1 + delta): the n = -20 term is near singular, twenty
        # steps out from the middle of the window
        p = np.array([20.0 * math.pi * (1.0 + 2.0**-40), 0.0, 0.0, 0.0])
        with pytest.raises(SingularTermError) as err:
            momentum_green_average(p, 100)
        assert err.value.n == -20

    def test_oversized_momentum_refused(self):
        # finite entries whose 1-norms overflow: no term is singular, and the
        # error says what is wrong instead of naming n = -50
        with pytest.raises(DomainError, match="1-norm of p_slash overflows"):
            momentum_green_average(np.array([1e308, 1e308, -1e308, 1e308]), 100)

    def test_shift_and_inverse_built_once(self):
        # one read-only t and t^-1, shared by every window average
        # imported here: bench/kernels.py imports this file beside baselines without it
        from ymvac.interference import _color_shift_inverse

        t, t_inv = color_shift_matrix(), _color_shift_inverse()
        assert t is color_shift_matrix() and t_inv is _color_shift_inverse()
        assert not t.flags.writeable and not t_inv.flags.writeable
        assert np.array_equal(t_inv, np.linalg.inv(t))

    def test_resolvent_oracle_matches_inverses(self):
        p = (0.31, 0.7, -0.2, 0.45)
        direct = mpmath_inverse_sum(np.array(p), color_shift_matrix(), 10)
        oracle = resolvent_window_sums(p, (10,))[10]
        assert np.abs(oracle - direct).max() <= 1e-30 * np.abs(direct).max()

    @pytest.mark.parametrize("p", [(0.31, 0.7, -0.2, 0.45), (1.3, -0.4, 0.25, 0.9)])
    @pytest.mark.parametrize("L", [100, 1000])
    def test_against_mpmath_oracle(self, p, L):
        # the interference report's default momentum and the long-sums one
        oracle = resolvent_window_sums(p)[L]
        got = momentum_green_average(np.array(p), L)
        assert np.linalg.norm(got - oracle, 2) <= 1e-15 * np.linalg.norm(oracle, 2)

    @settings(deadline=None, max_examples=40)
    @given(p=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4), L=st.integers(0, 20000))
    @example(p=[0.0, 0.0, 0.0, 1e-10], L=2867)  # a pairwise-summed reference failed here
    # the n = 0 inverse's 1-norm overflows: no warning, the term is singular
    @example(p=[1.1125369292536007e-308, 0.0, 0.0, 1.1125369292536007e-308], L=100)
    def test_matches_batched_inverses(self, p, L):
        try:
            ref, scale = batched_window_average(np.array(p), L)
        except SingularTermError as exc:
            with pytest.raises(SingularTermError) as err:
                momentum_green_average(np.array(p), L)
            assert err.value.n == exc.n
            return
        got = momentum_green_average(np.array(p), L)
        assert np.linalg.norm(got - ref, 1) <= 1e-14 * scale

    def test_tail_allocates_no_window_stack(self, monkeypatch):
        # only the head |n| <= ceil(8 ||t^-1 p_slash||_1) goes through the
        # batched inverse; t^-1 is built once, at the first average
        momentum_green_average(self.P, 2)
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(np.shape(a)) or inv(a))
        momentum_green_average(self.P, 100000)
        m = np.linalg.solve(color_shift_matrix(), np.kron(dirac_slash(self.P), ID2))
        head = 2 * math.ceil(8.0 * np.linalg.norm(m, 1)) + 1
        assert shapes == [(head, 8, 8)] and head < 20

    def test_gamma_algebra(self):
        # metric (+,-,-,-): gamma^0 squared is 1, spatial gammas square to -1
        assert np.abs(GAMMA[0] @ GAMMA[0] - np.eye(4)).max() < 1e-15
        for i in (1, 2, 3):
            assert np.abs(GAMMA[i] @ GAMMA[i] + np.eye(4)).max() < 1e-15
        assert np.abs(GAMMA[1] @ GAMMA[2] + GAMMA[2] @ GAMMA[1]).max() < 1e-15


def expression_loop_integrand(p1, p2, q, mass):
    """loop_integrand as one expression, before its work arrays were updated
    in place (the reference of its bits)."""
    q = np.asarray(q, dtype=float).reshape(4)
    p_sq = p1 * p1 + p2 * p2
    k1, k2 = q[1] - p1, q[2] - p2
    k_sq = q[0] ** 2 + k1 * k1 + k2 * k2 + q[3] ** 2
    p_dot_k = p1 * k1 + p2 * k2
    m2 = mass * mass
    return 8.0 * (p_dot_k - m2) / ((p_sq + m2) * (k_sq + m2))


class TestShiftedLoop:
    Q = np.array([0.0, 0.125, 0.0625, 0.0])

    @settings(deadline=None, max_examples=60)
    @given(
        p=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
                 elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
        q=arrays(float, 4, elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
        mass=st.floats(1e-3, 10.0),
    )
    def test_integrand_matches_one_expression(self, p, q, mass):
        # the in-place steps keep the operation order of the expression, on
        # lattices and on single momenta
        p1, p2 = p[..., 0], p[..., 1]
        got, ref = loop_integrand(p1, p2, q, mass), expression_loop_integrand(p1, p2, q, mass)
        assert got.shape == ref.shape and np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
        one = loop_integrand(float(p[0, 0, 0]), float(p[0, 0, 1]), q, mass)
        assert type(one) is np.float64 and one == ref[0, 0]

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(0.5, 5.0), st.integers(0, 40))
    @example([0.0, 0.125, 0.0625, 0.0], 4.0, 8)  # the interference report's largest lattice
    @example([1.3, -0.4, 0.25, 0.9], 1.0, 8)
    def test_matches_per_shift_evaluation(self, q, cutoff, L):
        # odd and even windows that stay on lattices of any side
        assume(BASE_SPACING * L <= cutoff / 2.0)
        got, ref = shifted_loop_average(q, cutoff, L), per_shift_loop_average(np.array(q), cutoff, L)
        assert [x.hex() for x in got] == [x.hex() for x in ref]

    def test_zero_window_exact(self):
        la = shifted_loop_average(self.Q, 1.0, 0)
        assert la.difference == 0.0

    def test_monotone_under_cutoff_doubling(self):
        diffs = [abs(shifted_loop_average(self.Q, c, 8).difference) for c in (1.0, 2.0, 4.0)]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_window_error(self):
        with pytest.raises(WindowError):
            shifted_loop_average(self.Q, 1.0, 20)

    def test_matrix_trace_oracle(self):
        for p1, p2 in ((0.3, -0.2), (0.9, 0.7), (-1.1, 0.05)):
            closed = loop_integrand(p1, p2, self.Q, 0.1)
            assert loop_integrand_matrix(p1, p2, self.Q, "scalar", 0.1) == pytest.approx(closed, rel=1e-12)

    def test_colored_equals_scalar_free_loop(self):
        v_s = loop_integrand_matrix(0.4, -0.6, self.Q, "scalar", 0.1)
        v_c = loop_integrand_matrix(0.4, -0.6, self.Q, "colored", 0.1)
        assert v_s == pytest.approx(v_c, rel=1e-12)

    def test_matrix_oracle_structure_validation(self):
        with pytest.raises(DomainError):
            loop_integrand_matrix(0.4, -0.6, self.Q, "tensor", 0.1)
