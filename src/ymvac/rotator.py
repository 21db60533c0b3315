"""Free topological rotator: Bloch spectrum, Green-function representations,
their theta-function identity, and destructive-interference averages.

Quasi-momenta are p_k = 2 pi k + theta.  Both Green-function representations
are evaluated in Euclidean time t = -i tau_E (tau_E > 0), where the sums
converge absolutely:

    spectral:  G = (1/2pi) sum_k exp[-p_k^2 tau_E/(2 I) + i p_k dN]
    winding:   G = sqrt(I/(8 pi^3 tau_E)) sum_n exp[-i theta n - (dN+n)^2 I/(2 tau_E)]

(the winding normalization and measure sign are fixed by the exact Gaussian
resummation of the spectral sum, so the two representations are equal, not
merely proportional).  The two are the Z -> Z/tau faces of the Jacobi
transformation of

    Theta3(Z|tau) = sum_k exp[i pi k^2 tau + 2 i k Z]
                  = (-i tau)^(-1/2) exp[Z^2/(i pi tau)] Theta3(Z/tau | -1/tau),

with the dictionary tau = 2 pi i tau_E / I, Z = pi dN + i pi theta tau_E / I
(spectral side).  Real-time evaluation is out of contract and raises.

The observable-wavefunction average uses the measure weight e^{-i n theta}
by default, so survival occurs exactly on the quasi-momentum spectrum; the
e^{+i n theta} variant (survival at 2 pi k - theta) sits behind measure_sign.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bps_profiles import MonopoleScale
from .errors import ConvergenceError, DomainError

__all__ = [
    "RotatorParams",
    "ThetaArgs",
    "bloch_spectrum",
    "averaged_wavefunction",
    "interference_bound",
    "theta3",
    "theta3_modular_defect",
    "spectral_green",
    "spectral_green_via_theta",
    "path_green",
    "electric_spectrum",
    "coleman_spectrum",
]

_TINY = 1e-18
_KCAP = 200_000


def _normalize_theta(theta: float) -> float:
    return float(np.mod(theta, 2.0 * np.pi))


@dataclass(frozen=True)
class RotatorParams:
    """Rotator data: inertia I > 0 (GeV^-1), theta in [0, 2pi), Euclidean time
    flagged through a purely imaginary `time`, winding displacement dN."""

    inertia: float
    theta: float
    time: complex
    dN: float

    def __post_init__(self):
        if not (math.isfinite(self.inertia) and self.inertia > 0):
            raise DomainError(f"inertia must be positive and finite, got {self.inertia}")
        if not (math.isfinite(self.theta) and math.isfinite(self.dN)):
            raise DomainError(f"theta and dN must be finite, got {self.theta}, {self.dN}")
        object.__setattr__(self, "theta", _normalize_theta(self.theta))

    @classmethod
    def euclidean(cls, inertia: float, theta: float, tau_e: float, dN: float = 0.0):
        if not (math.isfinite(tau_e) and tau_e > 0):
            raise DomainError(f"Euclidean time tau_e must be positive and finite, got {tau_e}")
        return cls(inertia=inertia, theta=theta, time=-1j * tau_e, dN=dN)

    @property
    def tau_e(self) -> float:
        t = complex(self.time)
        if abs(t.real) > 1e-14 * max(1.0, abs(t)) or t.imag >= 0:
            raise ConvergenceError(
                "sums converge absolutely only at Euclidean time t = -i tau_e, tau_e > 0"
            )
        return -t.imag

    @property
    def in_half_window(self) -> bool:
        """Whether theta sits in the conventional [0, pi] half window (reported,
        never enforced: the Bloch structure is 2 pi periodic)."""
        return self.theta <= np.pi


@dataclass(frozen=True)
class ThetaArgs:
    z: complex
    tau: complex

    def __post_init__(self):
        if not (complex(self.tau).imag > 0):
            raise DomainError("Im(tau) must be strictly positive")


def bloch_spectrum(theta: float, k_range) -> np.ndarray:
    """Quasi-momenta 2 pi k + theta over an iterable of integers k."""
    ks = np.asarray(list(k_range), dtype=float)
    return 2.0 * np.pi * ks + theta


def averaged_wavefunction(p: float, theta: float, L: int, N: float = 0.0, measure_sign: int = -1) -> complex:
    """Finite-window average (1/(2L+1)) sum_{n=-L..L} e^{i s n theta} e^{i p (N+n)}.

    s = measure_sign (default -1).  Closed Dirichlet-kernel form, exact:
    e^{i p N} sin((2L+1) D/2) / ((2L+1) sin(D/2)) with D = p + s theta.
    """
    if L < 1:
        raise DomainError("window size L must be at least 1")
    if measure_sign not in (-1, 1):
        raise DomainError("measure_sign must be +1 or -1")
    delta = p + measure_sign * theta
    half = 0.5 * math.remainder(delta, 2.0 * math.pi)
    m = 2 * L + 1
    if abs(math.sin(half)) < 1e-300:
        kernel = 1.0
    else:
        kernel = math.sin(m * half) / (m * math.sin(half))
    return cmath.exp(1j * p * N) * kernel


def interference_bound(p: float, theta: float, L: int, measure_sign: int = -1) -> float:
    """Destructive-interference envelope 1/((2L+1)|sin(D/2)|); infinite on-spectrum."""
    delta = p + measure_sign * theta
    s = abs(math.sin(0.5 * math.remainder(delta, 2.0 * math.pi)))
    return math.inf if s == 0 else 1.0 / ((2 * L + 1) * s)


# ---------------------------------------------------------------------------
# theta function and the two Green representations
# ---------------------------------------------------------------------------

def _exact_sum(term, k_max: int) -> complex:
    """sum_{k=-k_max..k_max} term(k), real and imaginary parts each correctly
    rounded (math.fsum, so the order of the terms does not matter).  Raises
    ConvergenceError when the cutoff is past the term cap, never truncating."""
    if k_max > _KCAP:
        raise ConvergenceError(f"sum needs {2 * k_max + 1} terms, more than the cap of {2 * _KCAP + 1}")
    terms = [term(k) for k in range(-k_max, k_max + 1)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _theta_term(k: int, z: complex, tau: complex) -> complex:
    return cmath.exp(1j * math.pi * k * k * tau + 2j * k * z)


def theta3(z, tau=None, k_max: int | None = None) -> complex:
    """Truncated symmetric sum of Theta3(Z|tau); terms added until the a-priori
    tail bound exp(-pi k^2 Im tau + 2|k||Im Z|) drops below 1e-18."""
    if isinstance(z, ThetaArgs):
        args = z
        z, tau = args.z, args.tau
    z, tau = complex(z), complex(tau)
    if not (tau.imag > 0):
        raise DomainError("Im(tau) must be strictly positive")
    if k_max is None:
        a, b = math.pi * tau.imag, 2.0 * abs(z.imag)
        k_max = int((b + math.sqrt(b * b + 4.0 * a * 42.0)) / (2.0 * a)) + 2
    return _exact_sum(lambda k: _theta_term(k, z, tau), k_max)


def theta3_modular_defect(z, tau, k_max: int | None = None) -> float:
    """|Theta3(Z|tau) - (-i tau)^(-1/2) exp[Z^2/(i pi tau)] Theta3(Z/tau|-1/tau)|."""
    z, tau = complex(z), complex(tau)
    lhs = theta3(z, tau, k_max)
    rhs = (-1j * tau) ** (-0.5) * cmath.exp(z * z / (1j * math.pi * tau)) * theta3(
        z / tau, -1.0 / tau, k_max
    )
    return abs(lhs - rhs)


def spectral_green(params: RotatorParams, k_max: int | None = None) -> complex:
    """Quasi-momentum sum (1/2pi) sum_k e^{-p_k^2 tau_E/(2I)} e^{i p_k dN}."""
    tau_e = params.tau_e
    I, th, dN = params.inertia, params.theta, params.dN
    a = tau_e / (2.0 * I)
    if k_max is None:
        # need exp(-a (2 pi k)^2) below tiny
        k_max = int(math.sqrt(42.0 / a) / (2.0 * math.pi)) + 3

    def term(k):
        p = 2.0 * math.pi * k + th
        return cmath.exp(-a * p * p + 1j * p * dN)

    return _exact_sum(term, k_max) / (2.0 * math.pi)


def spectral_green_via_theta(params: RotatorParams) -> complex:
    """Same sum closed through Theta3: cross-check route for the spectral side.

    Evaluated at theta's representative in (-pi, pi] (shifting theta by 2 pi
    only relabels k), where the real exponent -4 pi a k (pi k + theta) of
    every theta term is <= 0, so no term overflows.
    """
    tau_e = params.tau_e
    I, dN = params.inertia, params.dN
    th = params.theta if params.theta <= math.pi else params.theta - 2.0 * math.pi
    a = tau_e / (2.0 * I)
    z = math.pi * dN + 2j * math.pi * a * th
    tau = 4j * math.pi * a
    pref = cmath.exp(1j * th * dN - a * th * th) / (2.0 * math.pi)
    return pref * theta3(z, tau)


def path_green(params: RotatorParams, n_max: int | None = None) -> complex:
    """Winding sum sqrt(I/(8 pi^3 tau_E)) sum_n e^{-i theta n} e^{-(dN+n)^2 I/(2 tau_E)}.

    Normalization and measure sign follow from Poisson resummation of the
    spectral sum, making the two representations equal term by term in the
    theta-function identity.
    """
    tau_e = params.tau_e
    I, th, dN = params.inertia, params.theta, params.dN
    b = I / (2.0 * tau_e)
    if n_max is None:
        n_max = int(math.sqrt(42.0 / b)) + int(abs(dN)) + 3
    pref = math.sqrt(I / (8.0 * math.pi**3 * tau_e))
    return pref * _exact_sum(lambda n: cmath.exp(-1j * th * n - b * (dN + n) ** 2), n_max)


def electric_spectrum(k: int, theta: float, scale: MonopoleScale) -> float:
    """Countable multiplier |2 pi k + theta| alpha_s/(pi^2 eps) of the radial
    monopole tension in the electric sector."""
    return abs(2.0 * math.pi * k + theta) * scale.alpha_s / (math.pi**2 * scale.eps)


def coleman_spectrum(e: float, theta: float, k: int) -> float:
    """Abelian (1+1)d analogue: G_10 = e (theta/2pi + k)."""
    if not (e > 0):
        raise DomainError("coupling e must be positive")
    return e * (theta / (2.0 * math.pi) + k)
