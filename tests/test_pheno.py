"""Vacuum energetics and the constants chain."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ymvac import pheno
from ymvac.bps_profiles import MonopoleScale
from ymvac.errors import ConsistencyError, DomainError
from ymvac.pheno import (
    PhenoInputs,
    alpha_mod_zero,
    b2_estimate,
    b2_numerator,
    bogomolnyi_bound_energy,
    default_constants_path,
    eta_mass_shift,
    gluon_structural_mass,
    magnetic_energy,
    magnetic_energy_quadrature,
    normalization_check,
    omega_infrared,
    omega_ultraviolet,
    read_constants,
    rotary_momentum,
    rotary_momentum_quadrature,
    schwinger_mass,
    vacuum_hamiltonian,
    BETA_MOD,
)

UNIT = MonopoleScale(g=1.0, eps=1.0)


class TestMagneticEnergy:
    def test_closed_form(self):
        assert magnetic_energy(UNIT) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_coupling_scaling(self):
        assert magnetic_energy(MonopoleScale(2.0, 1.0)) == pytest.approx(math.pi, rel=1e-15)

    def test_quadrature_matches_with_truncation_deficit(self):
        # integral to 1e3 eps carries exactly the 1 - 1e-3 tail factor
        quad = magnetic_energy_quadrature(UNIT)
        assert quad == pytest.approx(4.0 * math.pi * (1.0 - 1e-3), rel=1e-6)

    def test_quadrature_within_band(self):
        sc = MonopoleScale(1.3, 0.8)
        rel = abs(magnetic_energy_quadrature(sc) - magnetic_energy(sc)) / magnetic_energy(sc)
        assert rel < 0.002


class TestRotaryMomentum:
    def test_closed_form_alpha_one(self):
        sc = MonopoleScale(g=math.sqrt(4.0 * math.pi), eps=1.0)  # alpha_s = 1
        assert rotary_momentum(sc) == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_quadrature_agreement(self):
        sc = MonopoleScale(g=math.sqrt(4.0 * math.pi), eps=1.0)
        quad = rotary_momentum_quadrature(sc)
        assert abs(quad - 4.0 * math.pi**2) / (4.0 * math.pi**2) < 0.01

    def test_equivalent_volume_form(self):
        # I = 4 pi^2/(alpha_s^2 V<B^2>), with V<B^2> the magnetic energy
        sc = MonopoleScale(1.7, 0.6)
        via_energy = (4.0 * math.pi**2 / sc.alpha_s**2) / magnetic_energy(sc)
        assert rotary_momentum(sc) == pytest.approx(via_energy, rel=1e-12)


class TestVacuumHamiltonian:
    def test_at_rest(self):
        assert vacuum_hamiltonian(0.0, UNIT) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_bracket_two(self):
        p = 8.0 * math.pi**2  # g = 1
        assert vacuum_hamiltonian(p, UNIT) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_even(self):
        sc = MonopoleScale(1.3, 0.8)
        assert vacuum_hamiltonian(3.7, sc) == vacuum_hamiltonian(-3.7, sc)


class TestNormalization:
    def test_unity(self):
        assert abs(normalization_check(UNIT) - 1.0) < 1e-2

    def test_scale_independence(self):
        assert normalization_check(MonopoleScale(2.0, 0.5)) == pytest.approx(
            normalization_check(UNIT), rel=1e-9
        )

    def test_integrand_tail_algebraic(self):
        # the contraction integrand is flux-like with an exact 1/r^2 tail:
        # the fraction beyond R is eps/R (10% at 10 eps, 1e-3 at 1e3 eps)
        from numpy.polynomial.legendre import leggauss
        from ymvac.bps_profiles import (
            FieldVariant, build_fields, covariant_derivative, default_stencil,
            magnetic_tension, zero_mode_scalar,
        )

        gauge, _ = build_fields(UNIT, FieldVariant.BPS)
        phi0 = zero_mode_scalar(UNIT)
        st = default_stencil(UNIT)

        def piece(r_lo, r_hi, n=48):
            # log-radial nodes for the 1/r^2 integrand
            t, w = leggauss(n)
            lo, hi = math.log(r_lo), math.log(r_hi)
            acc = 0.0
            for ti, wi in zip(0.5 * (hi - lo) * (t + 1) + lo, 0.5 * (hi - lo) * w):
                r = math.exp(ti)
                x = np.array([0.0, 0.0, r])
                D = covariant_derivative(gauge, phi0, x, st, UNIT.g)
                B = magnetic_tension(gauge, x, st, UNIT.g)
                acc += wi * 4.0 * math.pi * r**3 * float(np.sum(D * B))
            return acc * UNIT.g**2 / (8.0 * math.pi**2)

        assert piece(10.0, 1e4) == pytest.approx(0.1, rel=1e-3)
        assert abs(piece(1e3, 1e6)) < 1.1e-3


class TestSchwinger:
    def test_unit_coupling(self):
        assert schwinger_mass(1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_coupling_scaling(self):
        assert schwinger_mass(2.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_perturbed_constant_fails(self):
        with pytest.raises(ConsistencyError):
            schwinger_mass(1.0, c_m=2.0 * math.sqrt(math.pi) * 1.001)

    def test_non_finite_coupling_rejected(self):
        for e in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                schwinger_mass(e)

class TestEtaChain:
    def test_arithmetic_chain(self):
        inputs = PhenoInputs()
        b2 = 0.06 / 0.24**2
        shift = eta_mass_shift(inputs, b2)
        expected = 9 * 0.24**2 * b2 / (0.01 * 2.0 * math.pi**3)
        assert shift.dm2 == pytest.approx(expected, rel=1e-12)
        assert shift.dm2 == pytest.approx(0.87, rel=0.01)

    def test_zero_field(self):
        assert eta_mass_shift(PhenoInputs(), 0.0).dm2 == 0.0

    def test_flavor_scaling(self):
        base = PhenoInputs()
        doubled = PhenoInputs(n_f=6, n_c=3, f_pi=base.f_pi, lambda_uv=base.lambda_uv,
                              v0_cuberoot=base.v0_cuberoot, alpha_s=base.alpha_s,
                              dm_eta2=base.dm_eta2)
        assert eta_mass_shift(doubled, 1.0).dm2 == pytest.approx(4.0 * eta_mass_shift(base, 1.0).dm2)

    def test_implied_anomaly_constant(self):
        shift = eta_mass_shift(PhenoInputs(), 1.0)
        assert shift.c_eta == pytest.approx(3.0 * math.sqrt(2.0 / math.pi) / 0.1, rel=1e-12)

    def test_b2_calibration(self):
        inputs = PhenoInputs()
        assert 0.05 <= b2_numerator(inputs) <= 0.07
        assert b2_numerator(inputs) == pytest.approx(0.06, rel=0.03)
        assert b2_estimate(inputs) == pytest.approx(0.06 / 0.24**2, rel=0.03)

    def test_inverse_consistency(self):
        inputs = PhenoInputs()
        assert eta_mass_shift(inputs, b2_estimate(inputs)).dm2 == pytest.approx(
            inputs.dm_eta2, rel=1e-14
        )


class TestAlphaMod:
    def test_quoted_value(self):
        a = alpha_mod_zero(PhenoInputs())
        assert 0.18 <= a <= 0.21
        assert a == pytest.approx(0.19, abs=0.01)

    def test_unit_log_argument(self):
        inputs = PhenoInputs()
        lam = 4.0 * 3.0 ** (1.0 / 3.0) * inputs.v0_cuberoot / math.e**0  # make arg e^0... then log=0 needs arg=1
        probe = PhenoInputs(n_f=3, n_c=3, f_pi=0.1, lambda_uv=lam * (1.0 - 1e-12),
                            v0_cuberoot=inputs.v0_cuberoot, alpha_s=0.24, dm_eta2=0.87)
        assert alpha_mod_zero(probe) == pytest.approx(1.0 / BETA_MOD, rel=1e-6)

    def test_beta_value(self):
        assert BETA_MOD == pytest.approx(11.0 / (4.0 * math.pi), rel=1e-15)
        assert BETA_MOD == pytest.approx(0.87535, abs=1e-5)

    def test_domain_error(self):
        bad = PhenoInputs(n_f=3, n_c=3, f_pi=0.1, lambda_uv=100.0, v0_cuberoot=0.234,
                          alpha_s=0.24, dm_eta2=0.87)
        with pytest.raises(DomainError):
            alpha_mod_zero(bad)


class TestGluonMass:
    def test_massless_point(self):
        assert gluon_structural_mass(1.0, 1.0) == 0.0

    def test_infrared_divergence(self):
        k = 0.1
        w = omega_infrared(k)
        assert w == pytest.approx(200.0)
        assert gluon_structural_mass(w, k) == pytest.approx(math.sqrt(200.0**2 - 0.01), rel=1e-12)

    def test_ultraviolet_branch_massless(self):
        k = 1e3
        assert gluon_structural_mass(omega_ultraviolet(k), k) == 0.0

    def test_tachyonic_rejected(self):
        with pytest.raises(DomainError):
            gluon_structural_mass(1.0, 2.0)


class TestVacuumQuantities:
    def test_bound_energy(self):
        assert bogomolnyi_bound_energy(1.0, 2.0, 4.0) == pytest.approx(2.0 * math.pi)


class TestConstantsFile:
    def test_default_file_parses(self):
        inputs = read_constants(default_constants_path())
        assert inputs == PhenoInputs() == read_constants()

    def test_roundtrip_and_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\nf_pi = 0.12  # GeV\nn_f = 2\n")
        inputs = read_constants(path)
        assert inputs.f_pi == 0.12 and inputs.n_f == 2
        assert inputs.n_c == 3  # defaults preserved

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha_s = 0.30\nf_pi = 0.102\n")
        inputs = read_constants(path, ["alpha_s=0.5", "n_f = 2"])
        assert (inputs.alpha_s, inputs.f_pi, inputs.n_f, inputs.n_c) == (0.5, 0.102, 2, 3)
        assert read_constants(overrides=["dm_eta2=1"]) == PhenoInputs(dm_eta2=1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("coupling = 1.0\n")
        with pytest.raises(ValueError):
            read_constants(path)
        # the spatial volume cancels from every formula and is no constant
        path.write_text("volume = 125.0\n")
        with pytest.raises(ValueError, match="unknown constant 'volume'"):
            read_constants(path)
        with pytest.raises(ValueError, match="^--set: unknown constant 'volume'"):
            read_constants(overrides=["volume=1"])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="constants path is empty"):
            read_constants("")

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("f_pi 0.1\n")
        with pytest.raises(ValueError):
            read_constants(path)

    def test_non_numeric_value_located(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\nn_f = abc\n")
        with pytest.raises(ValueError) as err:
            read_constants(path)
        assert str(err.value) == f"{path}:2: constant n_f must be a number, got 'abc'"
        with pytest.raises(ValueError, match="^--set: constant f_pi must be a number"):
            read_constants(overrides=["f_pi = 0.1x"])

    def test_inputs_validation(self):
        with pytest.raises(DomainError):
            PhenoInputs(n_f=0)
        with pytest.raises(DomainError):
            PhenoInputs(f_pi=-0.1)

    def test_inputs_range(self):
        # the ends of the range run the whole chain with normal floats; past them, refused
        for lo_hi in ({"f_pi": 1e-40, "alpha_s": 1e-40, "n_f": 10**40}, {"f_pi": 1e40, "dm_eta2": 1e-40}):
            inputs = PhenoInputs(**lo_hi)
            shift = eta_mass_shift(inputs, b2_estimate(inputs))
            assert all(1e-303 < v < 1e303 for v in (b2_numerator(inputs), b2_estimate(inputs), *shift))
        for bad in ({"n_f": 10**41}, {"f_pi": 1e41}, {"alpha_s": 1e-41}, {"lambda_uv": 1e300}):
            with pytest.raises(DomainError, match=f"^{next(iter(bad))} must lie in"):
                PhenoInputs(**bad)


class TestOmegaAsymptotic:
    def test_branch_dispatch(self):
        from ymvac.pheno import omega_asymptotic

        assert omega_asymptotic(0.1, k_lo=0.5, k_hi=2.0) == pytest.approx(200.0)
        assert omega_asymptotic(10.0, k_lo=0.5, k_hi=2.0) == pytest.approx(10.0)
        with pytest.raises(DomainError):
            omega_asymptotic(1.0, k_lo=0.5, k_hi=2.0)
        with pytest.raises(DomainError):
            omega_asymptotic(1.0, k_lo=2.0, k_hi=0.5)


class TestNonFiniteConstants:
    def test_inputs_reject_non_finite(self):
        with pytest.raises(DomainError):
            PhenoInputs(f_pi=math.inf)
        with pytest.raises(DomainError):
            PhenoInputs(dm_eta2=math.nan)

    def test_file_rejects_non_finite(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha_s = inf\n")
        with pytest.raises(DomainError, match="alpha_s"):
            read_constants(path)


def per_node_shell_sum(w, r, power, X, Y):
    """_shell_sum as it was written before the inner products were batched:
    one np.sum per node (the reference of its bits)."""
    total = 0.0
    for wi, ri, Xi, Yi in zip(w, r, X, Y):
        total += wi * 4.0 * math.pi * ri**power * float(np.sum(Xi * Yi))
    return total


def _companion_shell_sums():
    """The arguments (w, r, power, X, Y) of each _shell_sum call of the three
    quadrature companions at g = eps = 1."""
    calls = []
    shell_sum = pheno._shell_sum
    pheno._shell_sum = lambda *args: calls.append(args) or shell_sum(*args)
    try:
        magnetic_energy_quadrature(UNIT)
        rotary_momentum_quadrature(UNIT)
        normalization_check(UNIT)
    finally:
        pheno._shell_sum = shell_sum
    return calls


# entries +-0.0, subnormal, or of magnitude 1e-300 to 1e300
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)


def _like_sized(shape):
    """Arrays of uniform entries in [-4, 4] with full mantissas, where the
    total shows any change to the order of the adds (hypothesis's own floats
    favour short mantissas, and one entry near 1e300 hides the rest)."""
    return st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(-4.0, 4.0, shape))


@st.composite
def _shell_sum_args(draw):
    """(w, r, power, X, Y) at n nodes: weights and radii of a radial rule, r
    an array or a list as the callers pass it, and C-contiguous (n, 3, 3) X
    and Y (Y may be X itself)."""
    n = draw(st.integers(1, 64))
    w = draw(arrays(float, n, elements=st.floats(1e-6, 2.0)))
    r = draw(arrays(float, n, elements=st.floats(1e-3, 1e3)))
    drawn = draw(st.sampled_from([arrays(float, (n, 3, 3), elements=_ENTRY), _like_sized((n, 3, 3))]))
    X = draw(drawn)
    Y = X if draw(st.booleans()) else draw(drawn)
    return w, r.tolist() if draw(st.booleans()) else r, draw(st.sampled_from([2, 3])), X, Y


_COMPANIONS = _companion_shell_sums()


class TestShellSum:
    """The inner products of all nodes from one numpy sum keep the bits of
    one np.sum per node, and the scalar loop keeps its node order."""

    @settings(deadline=None, max_examples=60)
    @given(args=_shell_sum_args())
    @example(args=_COMPANIONS[0])  # magnetic energy: 48 log-radial nodes, <B, B>
    @example(args=_COMPANIONS[1])  # inertia: 64 compactified nodes, <D, D>
    @example(args=_COMPANIONS[2])  # normalization: <D, B>
    def test_matches_per_node_loop(self, args):
        # products past the float range give inf or nan alike in both forms
        with np.errstate(all="ignore"):
            got, ref = pheno._shell_sum(*args), per_node_shell_sum(*args)
        assert float(got).hex() == float(ref).hex()

    def test_companions_pass_c_contiguous_arrays(self):
        assert len(_COMPANIONS) == 3
        for *_, X, Y in _COMPANIONS:
            assert X.flags.c_contiguous and Y.flags.c_contiguous and X.shape[1:] == (3, 3)
