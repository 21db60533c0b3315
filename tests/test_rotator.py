"""Bloch spectrum, theta-function identities and interference averages."""
import cmath
import itertools
import math
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ymvac import rotator
from ymvac.bps_profiles import MonopoleScale
from ymvac.errors import ConvergenceError, DomainError
from ymvac.rotator import (
    TERM_CAP,
    RotatorParams,
    averaged_wavefunction,
    bloch_spectrum,
    coleman_spectrum,
    electric_spectrum,
    interference_bound,
    path_green,
    path_green_via_theta,
    spectral_green,
    spectral_green_via_theta,
    terms_needed,
    theta3,
    theta3_modular_defect,
)


# The per-term cmath loop the sums used before they were vectorised: the
# reference the numpy term arrays are checked against.
def reference_sum(term, k_max):
    terms = [term(k) for k in range(-k_max, k_max + 1)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def reference_theta3(z, tau):
    a, b = math.pi * tau.imag, 2.0 * abs(z.imag)
    k_max = int((b + math.sqrt(b * b + 4.0 * a * 42.0)) / (2.0 * a)) + 2
    return reference_sum(lambda k: cmath.exp(1j * math.pi * k * k * tau + 2j * k * z), k_max)


def reference_spectral(prm, k_max=None):
    a = prm.tau_e / (2.0 * prm.inertia)
    if k_max is None:
        k_max = int(math.sqrt(42.0 / a) / (2.0 * math.pi)) + 3

    def term(k):
        p = 2.0 * math.pi * k + prm.theta
        return cmath.exp(-a * p * p + 1j * p * prm.dN)

    return reference_sum(term, k_max) / (2.0 * math.pi)


def reference_spectral_via_theta(prm):
    th = prm.theta if prm.theta <= math.pi else prm.theta - 2.0 * math.pi
    a = prm.tau_e / (2.0 * prm.inertia)
    pref = cmath.exp(1j * th * prm.dN - a * th * th) / (2.0 * math.pi)
    return pref * reference_theta3(math.pi * prm.dN + 2j * math.pi * a * th, 4j * math.pi * a)


def reference_path(prm):
    """The reference winding sum and the sum of its term moduli."""
    b = prm.inertia / (2.0 * prm.tau_e)
    n_max = int(math.sqrt(42.0 / b)) + int(abs(prm.dN)) + 3
    pref = math.sqrt(prm.inertia / (8.0 * math.pi**3 * prm.tau_e))
    total = reference_sum(lambda n: cmath.exp(-1j * prm.theta * n - b * (prm.dN + n) ** 2), n_max)
    scale = math.fsum(math.exp(-b * (prm.dN + n) ** 2) for n in range(-n_max, n_max + 1))
    return pref * total, pref * scale


# 30-digit oracles: mpmath.jtheta(3, z, q) = sum_k q^(k^2) e^(2ikz), on each
# side's own nome, with theta and dN as given (no reduction to a representative).
# jtheta loses digits as |Im z| grows (about 3e-11 relative at Im z = 100), so
# the cases keep |Im z| below 40.
def mp_spectral(prm):
    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        a = te / (2 * I)
        pref = mpmath.exp(1j * th * dn - a * th**2) / (2 * mpmath.pi)
        z = mpmath.pi * dn + 2j * mpmath.pi * a * th
        return complex(pref * mpmath.jtheta(3, z, mpmath.exp(-4 * mpmath.pi**2 * a)))


def mp_path(prm):
    with mpmath.workdps(30):
        I, th, te, dn = (mpmath.mpf(v) for v in (prm.inertia, prm.theta, prm.tau_e, prm.dN))
        b = I / (2 * te)
        pref = mpmath.sqrt(I / (8 * mpmath.pi**3 * te)) * mpmath.exp(-b * dn**2)
        return complex(pref * mpmath.jtheta(3, -th / 2 + 1j * b * dn, mpmath.exp(-b)))


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
        # the measure weight e^{-i n theta} does not survive at 2 pi k - theta
        assert abs(averaged_wavefunction(2 * math.pi * 2 - 0.7, 0.7, 100)) < 0.05

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

    def test_validation(self):
        with pytest.raises(DomainError):
            averaged_wavefunction(1.0, 0.0, 0)


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
        # the cutoff of 4 terms each way against a reference sum of 64
        a = theta3(0.4, 0.5j)
        b = reference_sum(lambda k: cmath.exp(1j * math.pi * k * k * 0.5j + 0.8j * k), 64)
        assert abs(a - b) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            theta3(0.0, -1j)
        with pytest.raises(DomainError):
            theta3(0.0, 1.0)


class TestGreenRepresentations:
    def test_ground_state_dominance(self):
        p = RotatorParams(1.0, 0.0, 50.0, 0.0)
        assert abs(spectral_green(p) - 1.0 / (2 * math.pi)) < 1e-12

    def test_representation_equality_grid(self):
        worst = 0.0
        for th, dn, te, inertia in itertools.product(
            (0.0, math.pi / 2, math.pi), (0.0, 0.3, 1.0), (0.3, 1.0, 3.0), (0.5, 1.0, 5.0)
        ):
            prm = RotatorParams(inertia, th, te, dn)
            worst = max(worst, abs(spectral_green(prm) - path_green(prm)))
        assert worst < 1e-8

    def test_theta_route_cross_check(self):
        prm = RotatorParams(1.0, 0.9, 1.3, 0.4)
        assert abs(spectral_green(prm) - spectral_green_via_theta(prm)) < 1e-14

    def test_theta_route_large_a_theta(self):
        # theta = 5 > pi: the theta series at theta itself overflows its terms
        prm = RotatorParams(1e-3, 5.0, 1.0)
        assert spectral_green_via_theta(prm) == spectral_green(prm)
        prm = RotatorParams(1.0, 5.0, 1.3, 0.4)
        assert abs(spectral_green(prm) - spectral_green_via_theta(prm)) < 1e-14

    @settings(deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        st.floats(-2.0, 1.0),
        st.floats(-3.0, 3.0),
    )
    def test_theta_route_property(self, log_inertia, theta, log_tau, dn):
        prm = RotatorParams(10.0**log_inertia, theta, 10.0**log_tau, dn)
        a = prm.tau_e / (2.0 * prm.inertia)
        # sum of |terms| is about (1 + 1/sqrt(a))/(2 pi): the scale of rounding
        tol = 1e-14 * (1.0 + 1.0 / math.sqrt(a))
        assert abs(spectral_green(prm) - spectral_green_via_theta(prm)) <= tol

    def test_integer_shift_invariance_at_theta_zero(self):
        a = spectral_green(RotatorParams(1.0, 0.0, 1.0, 0.0))
        b = spectral_green(RotatorParams(1.0, 0.0, 1.0, 1.0))
        assert abs(a - b) < 1e-14

    def test_quasi_periodicity(self):
        th = 0.9
        a = spectral_green(RotatorParams(1.2, th, 0.8, 1.3))
        b = spectral_green(RotatorParams(1.2, th, 0.8, 0.3))
        assert abs(a - cmath.exp(1j * th) * b) < 1e-10

    def test_alternating_real_sum_at_theta_pi(self):
        prm = RotatorParams(1.0, math.pi, 1.0, 0.0)
        val = path_green(prm)
        assert abs(val.imag) < 1e-15

    def test_classical_concentration(self):
        # small Euclidean time: the winding nearest to -dN dominates the sum
        prm = RotatorParams(4.0, 0.0, 0.05, 0.3)
        b = prm.inertia / (2 * 0.05)
        total = path_green(prm).real
        lead = math.sqrt(prm.inertia / (8 * math.pi**3 * 0.05)) * math.exp(-b * 0.3**2)
        assert abs(total - lead) / lead < 1e-6

    def test_large_inertia_gaussian_saturation(self):
        # the winding nearest to -dN dominates by the Gaussian gap factor
        prm = RotatorParams(200.0, 0.0, 1.0, 0.4)
        b = prm.inertia / 2.0
        lead = math.sqrt(prm.inertia / (8 * math.pi**3)) * math.exp(-b * 0.4**2)
        total = path_green(prm).real
        assert abs(total - lead) / lead < math.exp(-b * (0.6**2 - 0.4**2)) * 2.0

    def test_truncation_doubling(self):
        prm = RotatorParams(1.0, 0.4, 1.0, 0.2)
        assert abs(spectral_green(prm) - reference_spectral(prm, 16)) < 1e-12
        assert abs(path_green(prm) - direct_path_sum(prm, 24)) < 1e-12

    def test_term_cap_raises(self):
        # I = 1e-12 needs about 1.8e7 windings: past the cap, raise rather than truncate
        with pytest.raises(ConvergenceError, match="terms"):
            path_green(RotatorParams(1e-12, 0.0, 1.0))
        with pytest.raises(ConvergenceError, match="terms"):
            theta3(0.1, 1e-12j)  # 7 312 737 terms

    def test_non_euclidean_time_rejected(self):
        # the sums converge only at tau_E > 0: anything else is refused when the
        # params are built, before the inertia is looked at
        for inertia, tau_e in itertools.product((1.0, -1.0), (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)):
            with pytest.raises(DomainError, match="^Euclidean time tau_e must be positive and finite"):
                RotatorParams(inertia, 0.0, tau_e)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            RotatorParams(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            RotatorParams(1.0, 0.0, -1.0)

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
            RotatorParams(inertia, theta, tau_e, dn)

    @pytest.mark.parametrize(
        "inertia, tau_e",
        [
            (1e308, 1e-10),  # a = tau_E/(2I) underflows to 0, b = I/(2 tau_E) overflows
            (1e-308, 1e10),  # b is subnormal, a overflows
            (1e154, 1e-154),  # a = 5e-309 is subnormal, b finite
            (5e-324, 1.0),  # a subnormal inertia: b rounds to 0, a overflows
        ],
    )
    def test_params_reject_non_normal_exponents(self, inertia, tau_e):
        with pytest.raises(DomainError, match="normal floats"):
            RotatorParams(inertia, 0.0, tau_e)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_theta3_cutoff_without_squaring_overflow(self):
        # 2|Im Z| = 2e200 squares past the float range, yet with Im tau of the
        # same size the series is its k = 0 term; a vanishing Im tau next to a
        # huge Im Z needs more terms than any cap and says so
        assert theta3(1e200j, 1e200j) == 1.0
        with pytest.raises(ConvergenceError, match="cap"):
            theta3(1e300j, 1e-300j)

    def test_theta_normalized(self):
        prm = RotatorParams(1.0, 2 * math.pi + 0.3, 1.0)
        assert prm.theta == pytest.approx(0.3)


def _bits(z):
    return z.real.hex(), z.imag.hex()


_GREEN_PARAMS = dict(
    log_inertia=st.floats(-5.0, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    log_tau=st.floats(-2.0, 1.0),
    dn=st.floats(-3.0, 3.0),
)


class TestVectorisedSums:
    """The numpy term arrays against the per-term cmath reference loop."""

    @settings(deadline=None, max_examples=60)
    @given(**_GREEN_PARAMS)
    def test_spectral_sums_bitwise(self, log_inertia, theta, log_tau, dn):
        prm = RotatorParams(10.0**log_inertia, theta, 10.0**log_tau, dn)
        assert _bits(spectral_green(prm)) == _bits(reference_spectral(prm))
        assert _bits(spectral_green_via_theta(prm)) == _bits(reference_spectral_via_theta(prm))

    @settings(deadline=None, max_examples=60)
    @given(st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 3.0))
    def test_theta3_bitwise(self, re_z, im_z, re_tau, im_tau):
        z, tau = complex(re_z, im_z), complex(re_tau, im_tau)
        assert _bits(theta3(z, tau)) == _bits(reference_theta3(z, tau))

    @settings(deadline=None, max_examples=60)
    @given(**_GREEN_PARAMS)
    def test_path_sum_matches_reference(self, log_inertia, theta, log_tau, dn):
        # not bitwise: the reference squares with `** 2` (libm pow), the
        # library with x * x, which is correctly rounded
        prm = RotatorParams(10.0**log_inertia, theta, 10.0**log_tau, dn)
        ref, scale = reference_path(prm)
        assert abs(path_green(prm) - ref) <= 1e-15 * scale

    def test_terms_needed_is_the_summed_count(self):
        prm = RotatorParams(0.7, 1.0, 0.4, 2.5)
        need_s, need_w = terms_needed(prm)
        assert _bits(spectral_green(prm)) == _bits(reference_spectral(prm, (need_s - 1) // 2))
        assert _bits(path_green(prm)) == _bits(direct_path_sum(prm, (need_w - 1) // 2))
        far = RotatorParams(1e-12, 0.0, 1.0)
        assert terms_needed(far)[1] > TERM_CAP
        with pytest.raises(ConvergenceError, match=f"needs {terms_needed(far)[1]} terms"):
            path_green(far)


def direct_path_sum(prm, n_max=None):
    """The winding sum as path_green built it before rows shared their
    Gaussians and phases: numpy's complex exp of each whole exponent, added
    with math.fsum."""
    if n_max is None:
        n_max = (terms_needed(prm)[1] - 1) // 2
    b = prm.inertia / (2.0 * prm.tau_e)
    n = np.arange(-n_max, n_max + 1)
    terms = np.exp(-1j * prm.theta * n - b * ((prm.dN + n) * (prm.dN + n)))
    pref = math.sqrt(prm.inertia / (8.0 * math.pi**3 * prm.tau_e))
    return pref * complex(math.fsum(memoryview(terms.real.copy())), math.fsum(memoryview(terms.imag.copy())))


@st.composite
def _winding_rows(draw):
    """(theta, dN) rows drawn from a few thetas and a few dN, so that rows
    share phases and Gaussians, in any order."""
    thetas = draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=1, max_size=3))
    dns = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from(thetas), st.sampled_from(dns)), min_size=1, max_size=6))


# the rows of the long-sums rotator reports, in the report's order
_REPORT_ROWS = [(theta, dn) for theta in (0.0, math.pi / 2, math.pi) for dn in (0.0, 0.3, 1.0)]


class TestWindingTable:
    """path_green over a table of rows sharing (I, tau_E) keeps the bits of
    each row's direct terms and of one call per row.  The mirrored phase
    needs libm's sin to be odd and its cos even, and the Gaussian needs
    cexp's zero-imaginary branch to return exp itself: on a libm where
    either fails, so does this property."""

    @settings(deadline=None, max_examples=30)
    @given(
        inertia=st.builds(lambda e: 10.0**e, st.floats(-7.0, 5.0)),
        tau=st.builds(lambda e: 10.0**e, st.floats(-2.0, 1.0)),
        rows=_winding_rows(),
    )
    @example(inertia=1e-7, tau=0.3, rows=_REPORT_ROWS)  # rotator --inertia 1e-7 --tau 0.3
    @example(inertia=1e5, tau=0.01, rows=_REPORT_ROWS)  # rotator --inertia 1e5 --tau 0.01
    def test_matches_direct_terms(self, inertia, tau, rows):
        table = [RotatorParams(inertia, theta, tau, dn) for theta, dn in rows]
        got = [_bits(z) for z in path_green(table)]
        assert got == [_bits(direct_path_sum(prm)) for prm in table]
        assert got == [_bits(path_green(prm)) for prm in table]

    def test_table_forms(self):
        prm = RotatorParams(0.7, 1.0, 0.4, 2.5)
        assert path_green([]) == []
        assert path_green((prm,)) == [path_green(prm)]
        far = RotatorParams(1e-12, 0.0, 1.0)
        with pytest.raises(ConvergenceError, match=f"needs {terms_needed(far)[1]} terms"):
            path_green([prm, far])


def fsum_exact_sum(term, k_max):
    """rotator._exact_sum as it was before algebra.exact_sums: math.fsum of
    the real and imaginary parts of the same term array."""
    terms = term(np.arange(-k_max, k_max + 1))
    return complex(math.fsum(memoryview(terms.real.copy())), math.fsum(memoryview(terms.imag.copy())))


class TestExactSumRoute:
    """Every rotator sum that adds through _exact_sum keeps the bits of the
    fsum route it replaced, on draws whose long side reaches about 2 10^5
    terms (past exact_sums' short-row cutoff and across its blocks); the
    winding sum has its own bitwise reference (TestWindingTable)."""

    @settings(deadline=None, max_examples=30)
    @given(
        log_inertia=st.floats(-7.0, 5.0),
        theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        log_tau=st.floats(-2.0, 1.0),
        dn=st.floats(-3.0, 3.0),
        im_z=st.floats(-2.0, 2.0),
    )
    @example(log_inertia=-7.0, theta=math.pi / 2, log_tau=math.log10(0.3), dn=0.3, im_z=0.5)  # long-sums
    @example(log_inertia=-7.0, theta=1.0, log_tau=1.0, dn=-2.5, im_z=0.0)  # 183 313 winding terms
    @example(log_inertia=5.0, theta=0.9, log_tau=-2.0, dn=0.0, im_z=-1.0)  # 9 231 spectral terms
    def test_matches_fsum_route(self, log_inertia, theta, log_tau, dn, im_z):
        prm = RotatorParams(10.0**log_inertia, theta, 10.0**log_tau, dn)
        # theta3 on the spectral side's nome, long when I/tau_E is large; Im Z
        # below min(Im tau, 1) keeps its largest term below e^(4/pi)
        tau = 2j * math.pi * prm.tau_e / prm.inertia
        z = complex(dn, im_z * min(tau.imag, 1.0))
        routes = (lambda: spectral_green(prm), lambda: spectral_green_via_theta(prm),
                  lambda: path_green_via_theta(prm), lambda: theta3(z, tau))
        got = [_bits(route()) for route in routes]
        with patch.object(rotator, "_exact_sum", fsum_exact_sum):
            assert got == [_bits(route()) for route in routes]


class TestSecondRoutes:
    """The theta routes each report row falls back on when the other side is
    past the term cap, against mpmath.jtheta at 30 digits."""

    @pytest.mark.parametrize(
        "inertia, theta, tau_e, dn",
        [
            (1e-9, 0.0, 1.0, 0.0),  # the report rows whose winding side is past the cap
            (1e-9, 0.0, 1.0, 1.0),
            (1e-12, 0.0, 1.0, 0.3),
            (1e-2, 1e-4, 1.0, 0.3),
            (2.0, 4.0, 0.5, 1.7),
            (0.7, 2.5, 3.0, -2.2),
        ],
    )
    def test_spectral_route_against_mpmath(self, inertia, theta, tau_e, dn):
        prm = RotatorParams(inertia, theta, tau_e, dn)
        ref = mp_spectral(prm)
        assert abs(spectral_green_via_theta(prm) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize(
        "inertia, theta, tau_e, dn",
        [
            (100.0, 2.0, 1.0, 0.3),
            (10.0, 5.0, 1.0, -2.6),
            (1.0, 0.3, 0.2, 2.9),
            (50.0, 0.9, 1.0, 0.4),
            (20.0, 1.0, 0.5, 0.5),  # |r| = 1/2: two equal leading terms
            (3.0, 5.5, 0.7, -2.6),
        ],
    )
    def test_path_route_against_mpmath(self, inertia, theta, tau_e, dn):
        prm = RotatorParams(inertia, theta, tau_e, dn)
        ref = mp_path(prm)
        assert abs(path_green_via_theta(prm) - ref) <= 1e-14 * abs(ref)

    @settings(deadline=None)
    @given(**_GREEN_PARAMS)
    def test_path_route_property(self, log_inertia, theta, log_tau, dn):
        prm = RotatorParams(10.0**log_inertia, theta, 10.0**log_tau, dn)
        b = prm.inertia / (2.0 * prm.tau_e)
        # the sum of |terms| is about pref (1 + sqrt(pi/b)): the scale of rounding
        scale = math.sqrt(prm.inertia / (8.0 * math.pi**3 * prm.tau_e)) * (1.0 + math.sqrt(math.pi / b))
        assert abs(path_green(prm) - path_green_via_theta(prm)) <= 1e-14 * scale

    @pytest.mark.parametrize("theta, dn", [(0.0, 0.0), (2.0, 1.0), (2.0, 0.3), (5.0, -3.0), (1.0, 0.5)])
    def test_path_route_past_spectral_cap(self, theta, dn):
        # I/tau_E = 1e11: the spectral side is past the cap and the winding
        # terms nearest to -dN carry the sum; no theta term overflows
        prm = RotatorParams(1e11, theta, 1.0, dn)
        assert terms_needed(prm)[0] > TERM_CAP >= terms_needed(prm)[1]
        assert path_green_via_theta(prm) == pytest.approx(path_green(prm), rel=1e-15, abs=0.0)


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
