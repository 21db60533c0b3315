"""Phenomenological chain: vacuum magnetic energy, rotary momentum, vacuum
Hamiltonian, normalization integral, Schwinger-model and eta' mass formulas,
the <B^2> estimate and the modified infrared coupling.

Unit discipline: GeV powers throughout (F_pi, Lambda, V0^(1/3) in GeV;
volume in GeV^-3; dm_eta2 in GeV^2; <B^2> in GeV^4).

Closed forms and their independent quadrature companions:

    V<B^2>   = 4 pi/(g^2 eps)                  (radial integral of the f=+1 tension,
                                                and the full smooth-pair integral)
    I        = 4 pi^2 eps / alpha_s            (integral of |D Phi0|^2 with the
                                                zero-mode normalization)
    (g^2/8 pi^2) int D(Phi0).B d^3x = 1        (parameter-free)
    H(P_N)   = (2 pi/(g^2 eps)) [P_N^2 (g^2/8 pi^2)^2 + 1]
    dM^2     = C_M^2/(I V) = e^2/pi            (C_M = 2 sqrt(pi), I = (2 pi/e)^2/V)
    dm_eta^2 = N_f^2 alpha_s^2 <B^2>/(F_pi^2 2 pi^3)
    <B^2>    = 2 pi^3 F_pi^2 dm_eta^2/(N_f^2 alpha_s^2)
    alpha0   = 1/(beta [1 + 2 ln(4 (N_c V0)^(1/3)/Lambda)]),  beta = 11/(4 pi)

The calibration defaults (F_pi = 0.1 GeV, N_f = 3, dm_eta2 = 0.87 GeV^2,
alpha_s = 0.24) reproduce the 0.06 GeV^4 numerator; they are a documented
calibration, not a fit, and the constants file makes them explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .bps_profiles import (
    FieldVariant,
    MonopoleScale,
    StencilConfig,
    build_fields,
    covariant_derivative,
    default_stencil,
    magnetic_tension,
    zero_mode_scalar,
)
from .errors import ConsistencyError, DomainError
from .topology import _compactified_radial, _gauss_legendre

__all__ = [
    "PhenoInputs",
    "VacuumQuantities",
    "read_constants",
    "default_constants_path",
    "default_inputs",
    "magnetic_energy",
    "magnetic_energy_quadrature",
    "rotary_momentum",
    "vacuum_hamiltonian",
    "normalization_check",
    "schwinger_mass",
    "EtaMassShift",
    "eta_mass_shift",
    "b2_numerator",
    "b2_estimate",
    "alpha_mod_zero",
    "gluon_structural_mass",
    "omega_infrared",
    "omega_ultraviolet",
    "omega_asymptotic",
    "bogomolnyi_bound_energy",
    "vacuum_quantities",
]

BETA_MOD = 11.0 / (4.0 * math.pi)
C_SCHWINGER = 2.0 * math.sqrt(math.pi)

_FIELD_DOC = {
    "n_f": "flavor count",
    "n_c": "color count",
    "f_pi": "pion decay constant (GeV)",
    "lambda_uv": "ultraviolet cutoff Lambda (GeV)",
    "v0_cuberoot": "squared-potential scale V0^(1/3) (GeV)",
    "alpha_s": "infrared coupling (dimensionless)",
    "dm_eta2": "anomalous eta' mass squared (GeV^2)",
    "volume": "spatial volume (GeV^-3)",
}


@dataclass(frozen=True)
class PhenoInputs:
    """Physical constants bundle; all entries strictly positive."""

    n_f: int = 3
    n_c: int = 3
    f_pi: float = 0.1
    lambda_uv: float = 0.110
    v0_cuberoot: float = 0.234
    alpha_s: float = 0.24
    dm_eta2: float = 0.87
    volume: float = 125.0

    def __post_init__(self):
        if self.n_f < 1 or self.n_c < 1:
            raise DomainError("n_f and n_c must be at least 1")
        for name in ("f_pi", "lambda_uv", "v0_cuberoot", "alpha_s", "dm_eta2", "volume"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")


def default_inputs() -> PhenoInputs:
    return PhenoInputs()


def _parse_constants(entries) -> dict:
    """{key: value} from (where, "key = value") pairs, later entries winning.

    The one parser behind the constants file and the CLI's --set flags:
    unknown keys, malformed items and non-finite values are rejected, and
    the counts n_f, n_c are rounded to integers."""
    values = {}
    for where, text in entries:
        key, sep, val = text.partition("=")
        key = key.strip()
        if not (sep and val.strip()):
            raise ValueError(f"{where}: expected 'key = value', got {text!r}")
        if key not in _FIELD_DOC:
            raise ValueError(f"{where}: unknown constant {key!r}")
        try:
            value = float(val)
        except ValueError:
            raise ValueError(f"{where}: constant {key} must be a number, got {val.strip()!r}") from None
        if not math.isfinite(value):
            raise DomainError(f"{where}: constant {key} must be finite, got {val.strip()}")
        values[key] = int(round(value)) if key in ("n_f", "n_c") else value
    return values


def read_constants(path) -> PhenoInputs:
    """Parse a key = value constants file (''#'' comments); unknown keys rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(f"{path}:{lineno}", raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    return replace(PhenoInputs(), **_parse_constants(line for line in lines if line[1]))


def default_constants_path():
    return resources.files("ymvac.data").joinpath("default_constants.txt")


# ---------------------------------------------------------------------------
# vacuum energetics
# ---------------------------------------------------------------------------

def magnetic_energy(scale: MonopoleScale) -> float:
    """V<B^2> = 4 pi/(g^2 eps) in GeV."""
    return 4.0 * math.pi / (scale.g**2 * scale.eps)


def magnetic_energy_quadrature(
    scale: MonopoleScale,
    r_max_over_eps: float = 1e3,
    n_nodes: int = 48,
    stencil: StencilConfig | None = None,
) -> float:
    """Companion path: integrate the sampled f = +1 tension norm over
    eps <= r <= r_max.  Log-radial Gauss-Legendre; the tension is produced by
    the finite-difference tension operator, not the closed form."""
    g, eps = scale.g, scale.eps
    stencil = stencil or default_stencil(scale)
    gauge, _ = build_fields(scale, FieldVariant.WU_YANG_PLUS)
    t, w = _gauss_legendre(n_nodes, math.log(r_max_over_eps))
    r = [eps * math.exp(ti) for ti in t]
    B = magnetic_tension(gauge, np.outer(r, (0.0, 0.0, 1.0)), stencil, g)
    total = 0.0
    for wi, ri, Bi in zip(w, r, B):
        total += wi * 4.0 * math.pi * ri**3 * float(np.sum(Bi * Bi))  # dr = r dt
    return total


def rotary_momentum(
    scale: MonopoleScale,
    volume: float = 1.0,
    method: str = "formula",
    n_nodes: int = 64,
    stencil: StencilConfig | None = None,
    check_tolerance: float = 0.05,
) -> float:
    """Vacuum inertia I = 4 pi^2 eps/alpha_s (GeV^-1).

    The quadrature path integrates |D Phi0|^2 for the zero-mode scalar on the
    smooth background over all space (compactified radial Gauss-Legendre) and
    raises ConsistencyError when it strays more than check_tolerance from the
    closed form.  The volume argument cancels from both routes and is kept
    only for interface symmetry with the V<B^2> form.
    """
    if not (volume > 0):
        raise DomainError("volume must be positive")
    formula = 4.0 * math.pi**2 * scale.eps / scale.alpha_s
    if method == "formula":
        return formula
    if method != "quadrature":
        raise DomainError("method must be 'formula' or 'quadrature'")
    stencil = stencil or default_stencil(scale)
    gauge, _ = build_fields(scale, FieldVariant.BPS)
    phi0 = zero_mode_scalar(scale)
    r, w = _compactified_radial(n_nodes, scale.eps)
    D = covariant_derivative(gauge, phi0, np.outer(r, (0.0, 0.0, 1.0)), stencil, scale.g)
    total = 0.0
    for ri, wi, Di in zip(r, w, D):
        total += wi * 4.0 * math.pi * ri**2 * float(np.sum(Di * Di))
    if abs(total - formula) > check_tolerance * formula:
        raise ConsistencyError(
            f"inertia quadrature {total} vs closed form {formula} beyond {check_tolerance:.0%}"
        )
    return total


def vacuum_hamiltonian(p_n: float, scale: MonopoleScale) -> float:
    """H(P_N) = (2 pi/(g^2 eps)) [P_N^2 (g^2/(8 pi^2))^2 + 1]; even in P_N."""
    g2 = scale.g**2
    return (2.0 * math.pi / (g2 * scale.eps)) * ((p_n * g2 / (8.0 * math.pi**2)) ** 2 + 1.0)


def normalization_check(
    scale: MonopoleScale,
    n_nodes: int = 64,
    stencil: StencilConfig | None = None,
    check_tolerance: float = 0.05,
) -> float:
    """(g^2/8 pi^2) int D(Phi0).B d^3x over the smooth pair; equals 1 for any
    (g, eps).  Raises ConsistencyError when off by more than check_tolerance."""
    stencil = stencil or default_stencil(scale)
    gauge, _ = build_fields(scale, FieldVariant.BPS)
    phi0 = zero_mode_scalar(scale)
    r, w = _compactified_radial(n_nodes, scale.eps)
    x = np.outer(r, (0.0, 0.0, 1.0))
    D = covariant_derivative(gauge, phi0, x, stencil, scale.g)
    B = magnetic_tension(gauge, x, stencil, scale.g)
    total = 0.0
    for ri, wi, Di, Bi in zip(r, w, D, B):
        total += wi * 4.0 * math.pi * ri**2 * float(np.sum(Di * Bi))
    value = scale.g**2 / (8.0 * math.pi**2) * total
    if abs(value - 1.0) > check_tolerance:
        raise ConsistencyError(f"normalization integral {value} deviates from 1 beyond {check_tolerance:.0%}")
    return value


# ---------------------------------------------------------------------------
# mass formulas
# ---------------------------------------------------------------------------

def schwinger_mass(e: float, c_m: float | None = None, volume: float = 1.0) -> float:
    """Pseudoscalar mass squared C_M^2/(I V) in the (1+1)d model; closes to
    e^2/pi for C_M = 2 sqrt(pi) and I = (2 pi/e)^2/V.  A perturbed C_M trips
    the round-off-level equality assertion."""
    if not (math.isfinite(e) and e > 0):
        raise DomainError(f"coupling e must be positive and finite, got {e}")
    c = C_SCHWINGER if c_m is None else c_m
    inertia = (2.0 * math.pi / e) ** 2 / volume
    value = c**2 / (inertia * volume)
    if abs(value * math.pi / e**2 - 1.0) > 1e-12:
        raise ConsistencyError(f"C_M^2/(I V) = {value} does not equal e^2/pi")
    return value


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


def gluon_structural_mass(omega: float, k: float) -> float:
    """m_g = sqrt(omega^2 - k^2); tachyonic inputs (omega < k) are rejected."""
    if omega < k:
        raise DomainError("omega < k: tachyonic input")
    return math.sqrt(omega * omega - k * k)


def omega_infrared(k_resc: float) -> float:
    """Infrared dispersion branch in rescaled units: omega = 2/k^2."""
    if not (k_resc > 0):
        raise DomainError("rescaled momentum must be positive")
    return 2.0 / k_resc**2


def omega_ultraviolet(k_resc: float) -> float:
    """Ultraviolet dispersion branch in rescaled units: omega = k."""
    if not (k_resc > 0):
        raise DomainError("rescaled momentum must be positive")
    return k_resc


def omega_asymptotic(k_resc: float, k_lo: float = 1.0, k_hi: float = 1.0) -> float:
    """Asymptotic dispersion generator: infrared branch below k_lo, ultraviolet
    branch above k_hi.  No interpolation is provided in between (that requires
    the numerical gap-equation solution, which is out of scope here)."""
    if k_lo > k_hi:
        raise DomainError("k_lo must not exceed k_hi")
    if k_resc < k_lo:
        return omega_infrared(k_resc)
    if k_resc > k_hi:
        return omega_ultraviolet(k_resc)
    raise DomainError(
        f"k={k_resc} falls between the asymptotic branches [{k_lo}, {k_hi}]; no interpolation"
    )


def bogomolnyi_bound_energy(magnetic_charge: float, a: float, g: float) -> float:
    """Saturated lower bound 4 pi m a / g of the pair energy."""
    if not (g > 0):
        raise DomainError("coupling g must be positive")
    return 4.0 * math.pi * magnetic_charge * a / g


@dataclass(frozen=True)
class VacuumQuantities:
    """Derived vacuum numbers for a given scale and volume."""

    b2: float
    magnetic_energy: float
    inertia: float
    hamiltonian_at: Callable

    def validate(self):
        for v in (self.b2, self.magnetic_energy, self.inertia):
            if not (np.isfinite(v) and v > 0):
                raise ConsistencyError("vacuum quantities must be finite and positive")
        return self


def vacuum_quantities(scale: MonopoleScale, volume: float) -> VacuumQuantities:
    if not (volume > 0):
        raise DomainError("volume must be positive")
    me = magnetic_energy(scale)
    return VacuumQuantities(
        b2=me / volume,
        magnetic_energy=me,
        inertia=rotary_momentum(scale),
        hamiltonian_at=lambda p: vacuum_hamiltonian(p, scale),
    ).validate()
