"""Bloch spectrum, theta-function identities and interference averages."""
import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from ymvac.bps_profiles import MonopoleScale
from ymvac.errors import ConvergenceError, DomainError
from ymvac.rotator import (
    RotatorParams,
    ThetaArgs,
    averaged_wavefunction,
    bloch_spectrum,
    coleman_spectrum,
    electric_spectrum,
    interference_bound,
    path_green,
    spectral_green,
    spectral_green_via_theta,
    theta3,
    theta3_modular_defect,
)


class TestBlochSpectrum:
    def test_examples(self):
        assert bloch_spectrum(0.0, [0])[0] == 0.0
        assert bloch_spectrum(math.pi / 2, [1])[0] == pytest.approx(2 * math.pi + math.pi / 2)
        assert bloch_spectrum(math.pi, [-1])[0] == pytest.approx(-math.pi)

    def test_range(self):
        np.testing.assert_allclose(bloch_spectrum(0.3, range(-2, 3)),
                                   2 * math.pi * np.arange(-2, 3) + 0.3)


class TestAveragedWavefunction:
    def test_on_spectrum_modulus_one(self):
        for k in (-2, 0, 3):
            p = 2 * math.pi * k + 0.7
            assert abs(abs(averaged_wavefunction(p, 0.7, 50)) - 1.0) < 1e-12

    def test_off_spectrum_suppression(self):
        val = abs(averaged_wavefunction(0.7 + math.pi, 0.7, 1000))
        assert val < 1e-3

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, th = rng.uniform(-8, 8), rng.uniform(0, 2 * math.pi)
            L = int(rng.integers(5, 60))
            brute = sum(cmath.exp(-1j * n * th) * cmath.exp(1j * p * n) for n in range(-L, L + 1)) / (
                2 * L + 1
            )
            assert abs(averaged_wavefunction(p, th, L) - brute) < 1e-12

    def test_interference_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, th = rng.uniform(-10, 10), rng.uniform(0, 2 * math.pi)
            L = int(rng.integers(1, 2000))
            assert abs(averaged_wavefunction(p, th, L)) <= interference_bound(p, th, L) + 1e-12

    def test_window_doubling_halves_bound(self):
        p, th = 0.7 + math.pi, 0.7
        m1 = abs(averaged_wavefunction(p, th, 500))
        m2 = abs(averaged_wavefunction(p, th, 1000))
        # at distance pi the kernel is 1/(2L+1) exactly: doubling halves within a factor 2
        assert 0.5 <= (m2 / m1) / 0.5 <= 2.0

    def test_printed_measure_sign(self):
        # the e^{+in theta} variant survives at p = 2 pi k - theta instead
        p = 2 * math.pi * 2 - 0.7
        assert abs(abs(averaged_wavefunction(p, 0.7, 100, measure_sign=1)) - 1.0) < 1e-12
        assert abs(averaged_wavefunction(p, 0.7, 100, measure_sign=-1)) < 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            averaged_wavefunction(1.0, 0.0, 0)
        with pytest.raises(DomainError):
            averaged_wavefunction(1.0, 0.0, 10, measure_sign=2)


class TestTheta3:
    def test_two_term_dominance(self):
        val = theta3(0.0, 10j)
        assert val.real == pytest.approx(1.0 + 2.0 * math.exp(-10 * math.pi), rel=1e-15)
        assert val.imag == 0.0

    def test_against_mpmath(self):
        for z, tau in ((0.0, 1j), (math.pi, 1j), (0.3 + 0.1j, 0.7j), (1.2, 0.31j + 0.2)):
            mine = theta3(z, tau)
            q = complex(mpmath.exp(1j * mpmath.pi * tau))
            ref = complex(mpmath.jtheta(3, z, q))
            assert abs(mine - ref) < 1e-13 * max(1.0, abs(ref))

    def test_alternating_gaussian_sum(self):
        # Z = pi/2 makes e^{2ikZ} = (-1)^k
        val = theta3(math.pi / 2, 1j)
        brute = 1.0 + 2.0 * sum((-1) ** k * math.exp(-math.pi * k * k) for k in range(1, 10))
        assert val.real == pytest.approx(brute, rel=1e-15)

    def test_modular_identity_grid(self):
        for z in (0.0, 0.3, 1.0, -0.7, 2.0):
            for im_tau in (0.3, 0.7, 1.0, 2.0, 3.0):
                assert theta3_modular_defect(z, 1j * im_tau) < 1e-10

    def test_truncation_stability(self):
        a = theta3(0.4, 0.5j)
        b = theta3(0.4, 0.5j, k_max=64)
        assert abs(a - b) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            theta3(0.0, -1j)
        with pytest.raises(DomainError):
            ThetaArgs(z=0.0, tau=1.0)

    def test_theta_args_accepted(self):
        assert theta3(ThetaArgs(z=0.2, tau=1j)) == theta3(0.2, 1j)


class TestGreenRepresentations:
    def test_ground_state_dominance(self):
        p = RotatorParams.euclidean(1.0, 0.0, 50.0, 0.0)
        assert abs(spectral_green(p) - 1.0 / (2 * math.pi)) < 1e-12

    def test_representation_equality_grid(self):
        worst = 0.0
        for th, dn, te, inertia in itertools.product(
            (0.0, math.pi / 2, math.pi), (0.0, 0.3, 1.0), (0.3, 1.0, 3.0), (0.5, 1.0, 5.0)
        ):
            prm = RotatorParams.euclidean(inertia, th, te, dn)
            worst = max(worst, abs(spectral_green(prm) - path_green(prm)))
        assert worst < 1e-8

    def test_theta_route_cross_check(self):
        prm = RotatorParams.euclidean(1.0, 0.9, 1.3, 0.4)
        assert abs(spectral_green(prm) - spectral_green_via_theta(prm)) < 1e-14

    def test_integer_shift_invariance_at_theta_zero(self):
        a = spectral_green(RotatorParams.euclidean(1.0, 0.0, 1.0, 0.0))
        b = spectral_green(RotatorParams.euclidean(1.0, 0.0, 1.0, 1.0))
        assert abs(a - b) < 1e-14

    def test_quasi_periodicity(self):
        th = 0.9
        a = spectral_green(RotatorParams.euclidean(1.2, th, 0.8, 1.3))
        b = spectral_green(RotatorParams.euclidean(1.2, th, 0.8, 0.3))
        assert abs(a - cmath.exp(1j * th) * b) < 1e-10

    def test_alternating_real_sum_at_theta_pi(self):
        prm = RotatorParams.euclidean(1.0, math.pi, 1.0, 0.0)
        val = path_green(prm)
        assert abs(val.imag) < 1e-15

    def test_classical_concentration(self):
        # small Euclidean time: the winding nearest to -dN dominates the sum
        prm = RotatorParams.euclidean(4.0, 0.0, 0.05, 0.3)
        b = prm.inertia / (2 * 0.05)
        total = path_green(prm).real
        lead = math.sqrt(prm.inertia / (8 * math.pi**3 * 0.05)) * math.exp(-b * 0.3**2)
        assert abs(total - lead) / lead < 1e-6

    def test_large_inertia_gaussian_saturation(self):
        # the winding nearest to -dN dominates by the Gaussian gap factor
        prm = RotatorParams.euclidean(200.0, 0.0, 1.0, 0.4)
        b = prm.inertia / 2.0
        lead = math.sqrt(prm.inertia / (8 * math.pi**3)) * math.exp(-b * 0.4**2)
        total = path_green(prm).real
        assert abs(total - lead) / lead < math.exp(-b * (0.6**2 - 0.4**2)) * 2.0

    def test_truncation_doubling(self):
        prm = RotatorParams.euclidean(1.0, 0.4, 1.0, 0.2)
        assert abs(spectral_green(prm, k_max=8) - spectral_green(prm, k_max=16)) < 1e-12
        assert abs(path_green(prm, n_max=12) - path_green(prm, n_max=24)) < 1e-12

    def test_real_time_rejected(self):
        prm = RotatorParams(inertia=1.0, theta=0.0, time=1.0 + 0j, dN=0.0)
        with pytest.raises(ConvergenceError):
            spectral_green(prm)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            RotatorParams.euclidean(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            RotatorParams.euclidean(1.0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "inertia, theta, tau_e, dn",
        [
            (math.inf, 0.0, 1.0, 0.0),
            (math.nan, 0.0, 1.0, 0.0),
            (1.0, math.inf, 1.0, 0.0),
            (1.0, math.nan, 1.0, 0.0),
            (1.0, 0.0, math.inf, 0.0),
            (1.0, 0.0, math.nan, 0.0),
            (1.0, 0.0, 1.0, -math.inf),
            (1.0, 0.0, 1.0, math.nan),
        ],
    )
    def test_params_reject_non_finite(self, inertia, theta, tau_e, dn):
        with pytest.raises(DomainError):
            RotatorParams.euclidean(inertia, theta, tau_e, dn)

    def test_theta_normalized(self):
        prm = RotatorParams.euclidean(1.0, 2 * math.pi + 0.3, 1.0)
        assert prm.theta == pytest.approx(0.3)


class TestElectricSpectrum:
    def test_zero_mode(self):
        assert electric_spectrum(0, 0.0, MonopoleScale(1.0, 1.0)) == 0.0

    def test_first_zone(self):
        sc = MonopoleScale(g=math.sqrt(4 * math.pi), eps=1.0)  # alpha_s = 1
        assert electric_spectrum(1, 0.0, sc) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_coleman_analogue(self):
        assert coleman_spectrum(1.0, 2 * math.pi * 0.25, 0) == pytest.approx(0.25)
        assert coleman_spectrum(2.0, 0.0, 3) == pytest.approx(6.0)
        with pytest.raises(DomainError):
            coleman_spectrum(0.0, 0.1, 0)
