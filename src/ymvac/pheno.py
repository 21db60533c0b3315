"""Phenomenological chain: vacuum magnetic energy, rotary momentum, vacuum
Hamiltonian, normalization integral, Schwinger-model and eta' mass formulas,
the <B^2> estimate and the modified infrared coupling.

Unit discipline: GeV powers throughout (F_pi, Lambda, V0^(1/3) in GeV;
dm_eta2 in GeV^2; <B^2> in GeV^4).

Closed forms and their independent quadrature companions:

    V<B^2>   = 4 pi/(g^2 eps)                  (radial integral of the f=+1 tension:
                                                magnetic_energy_quadrature)
    I        = 4 pi^2 eps / alpha_s            (integral of |D Phi0|^2 with the zero-mode
                                                normalization: zero_mode_integrals)
    (g^2/8 pi^2) int D(Phi0).B d^3x = 1        (parameter-free: zero_mode_integrals)
    H(P_N)   = (2 pi/(g^2 eps)) [P_N^2 (g^2/8 pi^2)^2 + 1]
    dM^2     = C_M^2/(I V) = e^2/pi            (C_M = 2 sqrt(pi), I = (2 pi/e)^2/V)
    dm_eta^2 = N_f^2 alpha_s^2 <B^2>/(F_pi^2 2 pi^3)
    <B^2>    = 2 pi^3 F_pi^2 dm_eta^2/(N_f^2 alpha_s^2)
    alpha0   = 1/(beta [1 + 2 ln(4 (N_c V0)^(1/3)/Lambda)]),  beta = 11/(4 pi)

The companions add their radial nodes with one shell sum, and the inertia and
the normalization are two integrals of one zero-mode gradient, sampled once.
Before sampling, each companion refuses a (g, eps) for which a square or cube
it forms would leave the floats (DomainError naming g and eps).

The calibration defaults (F_pi = 0.1 GeV, N_f = 3, dm_eta2 = 0.87 GeV^2,
alpha_s = 0.24) reproduce the 0.06 GeV^4 numerator; they are a documented
calibration, not a fit, and the constants file (read_constants) makes them explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .bps_profiles import (
    FieldVariant,
    MonopoleScale,
    build_fields,
    covariant_derivative,
    default_stencil,
    magnetic_tension,
    zero_mode_scalar,
)
from .errors import DomainError
from .topology import _compactified_radial, _gauss_legendre

__all__ = [
    "PhenoInputs",
    "read_constants",
    "magnetic_energy",
    "magnetic_energy_shell",
    "magnetic_energy_quadrature",
    "rotary_momentum",
    "vacuum_hamiltonian",
    "zero_mode_integrals",
    "schwinger_mass",
    "EtaMassShift",
    "eta_mass_shift",
    "b2_numerator",
    "b2_estimate",
    "alpha_mod_zero",
    "bogomolnyi_bound_energy",
]

BETA_MOD = 11.0 / (4.0 * math.pi)
C_SCHWINGER = 2.0 * math.sqrt(math.pi)
# settings of the quadrature companions below
_MAGNETIC_R_MAX_OVER_EPS = 1e3  # upper end of the tension integral, in units of eps
_MAGNETIC_NODES = 48
_RADIAL_NODES = 64  # inertia and normalization integrals
# (what, c, a, b) of each magnitude c g^a eps^b the companions form: |B| ~ 1/(g r^2)
# and |D Phi0| ~ eps/(g r^2) squared at r = eps and at 1e4 eps (past every node),
# the radial measure, the largest r^3 and the two closed forms the sums reach
_MAGNITUDES = (
    ("|B|^2 at r = eps", 1.0, -2, -4),
    ("|B|^2 at r = 1e4 eps", 1e-16, -2, -4),
    ("|D Phi0|^2 at r = eps", 1.0, -2, -2),
    ("|D Phi0|^2 at r = 1e4 eps", 1e-16, -2, -2),
    ("the radial measure r^2 dr at r = eps", 1.0, 0, 3),
    ("r^3 at r = 1e4 eps", 1e12, 0, 3),
    ("the magnetic energy", 4.0 * math.pi, -2, -1),
    ("the inertia", 16.0 * math.pi**3, -2, 1),
)
_LOG_BOUND = 303.0 * math.log(10.0)
_COUNTS = ("n_f", "n_c")  # the integer constants; the rest are positive floats
# every constant lies here, so that each product the chain forms (at most seven
# such factors: b2_estimate's F_pi^2 dm_eta^2/(N_f^2 alpha_s^2)) stays in [1e-303, 1e303]
_CONSTANT_RANGE = (1e-40, 1e40)


@dataclass(frozen=True)
class PhenoInputs:
    """Physical constants bundle; every entry in _CONSTANT_RANGE, the counts at least 1."""

    n_f: int = 3
    n_c: int = 3
    f_pi: float = 0.1
    lambda_uv: float = 0.110
    v0_cuberoot: float = 0.234
    alpha_s: float = 0.24
    dm_eta2: float = 0.87

    def __post_init__(self):
        if self.n_f < 1 or self.n_c < 1:
            raise DomainError("n_f and n_c must be at least 1")
        lo, hi = _CONSTANT_RANGE
        for f in fields(self):
            if not lo <= getattr(self, f.name) <= hi:
                raise DomainError(f"{f.name} must lie in [{lo:g}, {hi:g}], so that every product of the pheno "
                                  f"chain stays a normal float")


def read_constants(path=None, overrides=()) -> PhenoInputs:
    """The built-in constants, overridden by the key = value lines of the file
    at path (if given; '#' starts a comment), then by the "key=value" items of
    overrides (the CLI's --set flags), later entries winning.  Unknown keys,
    malformed items and non-finite values are rejected, naming the source
    (path:line or --set), as is an empty path; the counts n_f, n_c are
    rounded to integers."""
    entries = []
    if path is not None:
        if not str(path):
            raise ValueError("constants path is empty")
        with open(path, "r", encoding="utf-8") as fh:
            entries = [(f"{path}:{lineno}", raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    names = {f.name for f in fields(PhenoInputs)}
    values = {}
    for where, text in [line for line in entries if line[1]] + [("--set", item) for item in overrides]:
        key, sep, val = text.partition("=")
        key = key.strip()
        if not (sep and val.strip()):
            raise ValueError(f"{where}: expected 'key = value', got {text!r}")
        if key not in names:
            raise ValueError(f"{where}: unknown constant {key!r}")
        try:
            value = float(val)
        except ValueError:
            raise ValueError(f"{where}: constant {key} must be a number, got {val.strip()!r}") from None
        if not math.isfinite(value):
            raise DomainError(f"{where}: constant {key} must be finite, got {val.strip()}")
        values[key] = int(round(value)) if key in _COUNTS else value
    return PhenoInputs(**values)


# ---------------------------------------------------------------------------
# vacuum energetics
# ---------------------------------------------------------------------------

def magnetic_energy(scale: MonopoleScale) -> float:
    """V<B^2> = 4 pi/(g^2 eps) in GeV."""
    return 4.0 * math.pi / (scale.g**2 * scale.eps)


def magnetic_energy_shell(scale: MonopoleScale) -> float:
    """magnetic_energy over the shell eps <= r <= _MAGNETIC_R_MAX_OVER_EPS eps
    that magnetic_energy_quadrature integrates: 4 pi/(g^2 eps) (1 - eps/r_max)."""
    return magnetic_energy(scale) * (1.0 - 1.0 / _MAGNETIC_R_MAX_OVER_EPS)


def _check_range(scale: MonopoleScale) -> None:
    """DomainError unless every _MAGNITUDES entry lies in [1e-303, 1e303], five decades
    inside the normal floats; compared in logarithms, before any field is sampled."""
    log_g, log_eps = math.log(scale.g), math.log(scale.eps)
    for name, c, a, b in _MAGNITUDES:
        if not abs(math.log(c) + a * log_g + b * log_eps) <= _LOG_BOUND:
            raise DomainError(
                f"{name} ({c:.3g} g^{a} eps^{b}) leaves [1e-303, 1e303], so the pheno quadratures cannot run; "
                f"coupling g {scale.g} and core size eps {scale.eps} are out of range"
            )


def _shell_sum(w, r, power: int, X, Y) -> float:
    """sum_i w_i 4 pi r_i^power <X_i, Y_i> over radial nodes, in node order:
    the integral of <X, Y> over all directions of a spherically symmetric pair.
    One numpy sum over C-contiguous (n, 3, 3) X * Y has each node's np.sum bits."""
    total = 0.0
    for wi, ri, s in zip(w, r, np.sum(X * Y, axis=(1, 2)).tolist()):
        total += wi * 4.0 * math.pi * ri**power * s
    return total


def magnetic_energy_quadrature(scale: MonopoleScale) -> float:
    """Companion of magnetic_energy_shell: integrate the sampled f = +1 tension
    norm over its shell eps <= r <= _MAGNETIC_R_MAX_OVER_EPS eps.
    48-node log-radial Gauss-Legendre (dr = r dt); the tension is produced by
    the finite-difference tension operator, not the closed form."""
    _check_range(scale)
    stencil = default_stencil(scale)
    gauge, _ = build_fields(scale, FieldVariant.WU_YANG_PLUS)
    t, w = _gauss_legendre(_MAGNETIC_NODES, math.log(_MAGNETIC_R_MAX_OVER_EPS))
    r = [scale.eps * math.exp(ti) for ti in t]
    B = magnetic_tension(gauge, np.outer(r, (0.0, 0.0, 1.0)), stencil, scale.g)
    return _shell_sum(w, r, 3, B, B)


def rotary_momentum(scale: MonopoleScale) -> float:
    """Vacuum inertia I = 4 pi^2 eps/alpha_s (GeV^-1)."""
    return 4.0 * math.pi**2 * scale.eps / scale.alpha_s


def zero_mode_integrals(scale: MonopoleScale) -> tuple[float, float]:
    """Companions of rotary_momentum and of the normalization, from one sample
    of D(Phi0) for the zero-mode scalar on the smooth background (64-node
    compactified radial Gauss-Legendre over all space): the inertia, the
    integral of |D Phi0|^2, and (g^2/8 pi^2) int D(Phi0).B d^3x, which equals
    1 for any (g, eps).  Both are returned as computed: the pheno report
    compares them with the closed form and with 1."""
    _check_range(scale)
    stencil = default_stencil(scale)
    gauge, _ = build_fields(scale, FieldVariant.BPS)
    r, w = _compactified_radial(_RADIAL_NODES, scale.eps)
    x = np.outer(r, (0.0, 0.0, 1.0))
    D = covariant_derivative(gauge, zero_mode_scalar(scale), x, stencil, scale.g)
    inertia = _shell_sum(w, r, 2, D, D)
    B = magnetic_tension(gauge, x, stencil, scale.g)
    return inertia, scale.g**2 / (8.0 * math.pi**2) * _shell_sum(w, r, 2, D, B)


def vacuum_hamiltonian(p_n: float, scale: MonopoleScale) -> float:
    """H(P_N) = (2 pi/(g^2 eps)) [P_N^2 (g^2/(8 pi^2))^2 + 1]; even in P_N."""
    g2 = scale.g**2
    return (2.0 * math.pi / (g2 * scale.eps)) * ((p_n * g2 / (8.0 * math.pi**2)) ** 2 + 1.0)


# ---------------------------------------------------------------------------
# mass formulas
# ---------------------------------------------------------------------------

def schwinger_mass(e: float) -> float:
    """Pseudoscalar mass squared C_M^2/(I V) in the (1+1)d model; closes to
    e^2/pi for C_M = C_SCHWINGER = 2 sqrt(pi) and I = (2 pi/e)^2/V, in which
    the volume V cancels; the pheno report compares the value with e^2/pi.
    An e for which e^2 or (2 pi/e)^2 leaves [1e-303, 1e303] is refused."""
    if not (math.isfinite(e) and e > 0 and max(abs(math.log(e)), abs(math.log(2.0 * math.pi / e))) <= _LOG_BOUND / 2):
        raise DomainError(f"coupling e must be positive and finite, with e^2 and (2 pi/e)^2 in [1e-303, 1e303], "
                          f"got {e}")
    return C_SCHWINGER**2 / (2.0 * math.pi / e) ** 2


class EtaMassShift(NamedTuple):
    dm2: float
    c_eta: float


def eta_mass_shift(inputs: PhenoInputs, b2: float) -> EtaMassShift:
    """Anomalous eta' mass squared N_f^2 alpha_s^2 <B^2> / (F_pi^2 2 pi^3),
    plus the implied anomaly constant C_eta = N_f sqrt(2/pi)/F_pi."""
    if b2 < 0:
        raise DomainError("<B^2> must be non-negative")
    dm2 = inputs.n_f**2 * inputs.alpha_s**2 * b2 / (inputs.f_pi**2 * 2.0 * math.pi**3)
    c_eta = inputs.n_f * math.sqrt(2.0 / math.pi) / inputs.f_pi
    return EtaMassShift(dm2, c_eta)


def b2_numerator(inputs: PhenoInputs) -> float:
    """alpha_s-independent part 2 pi^3 F_pi^2 dm_eta^2 / N_f^2 (GeV^4)."""
    return 2.0 * math.pi**3 * inputs.f_pi**2 * inputs.dm_eta2 / inputs.n_f**2


def b2_estimate(inputs: PhenoInputs) -> float:
    """<B^2> = 2 pi^3 F_pi^2 dm_eta^2/(N_f^2 alpha_s^2) (GeV^4)."""
    return b2_numerator(inputs) / inputs.alpha_s**2


def alpha_mod_zero(inputs: PhenoInputs) -> float:
    """Modified infrared coupling 1/(beta [1 + 2 ln(4 (N_c V0)^(1/3)/Lambda)]).

    The log argument groups the color factor inside the cube root (the reading
    that reproduces the quoted 0.2; the ungrouped reading gives 0.15)."""
    arg = 4.0 * (inputs.n_c ** (1.0 / 3.0)) * inputs.v0_cuberoot / inputs.lambda_uv
    if arg <= 1.0:
        raise DomainError(f"log argument {arg} must exceed 1")
    return 1.0 / (BETA_MOD * (1.0 + 2.0 * math.log(arg)))


def bogomolnyi_bound_energy(magnetic_charge: float, a: float, g: float) -> float:
    """Saturated lower bound 4 pi m a / g of the pair energy."""
    if not (g > 0):
        raise DomainError("coupling g must be positive")
    return 4.0 * math.pi * magnetic_charge * a / g
