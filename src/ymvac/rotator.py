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

Each sum builds its terms in one numpy array and adds them with math.fsum; a
cutoff past the term cap raises.  `terms_needed` tells which sides fit, and
each side has its own theta route as a second check.

The observable-wavefunction average uses the measure weight e^{-i n theta}
by default, so survival occurs exactly on the quasi-momentum spectrum; the
e^{+i n theta} variant (survival at 2 pi k - theta) sits behind measure_sign.
"""
from __future__ import annotations

import cmath
import math
import sys
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
    "path_green_via_theta",
    "terms_needed",
    "TERM_CAP",
    "electric_spectrum",
    "coleman_spectrum",
]

_KCAP = 200_000
TERM_CAP = 2 * _KCAP + 1  # most terms any one sum adds


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
        tau_e = -complex(self.time).imag
        if tau_e > 0:  # the exponents of both Poisson-dual sums must be normal floats
            a, b = tau_e / (2.0 * self.inertia), self.inertia / (2.0 * tau_e)
            if not (sys.float_info.min <= min(a, b) and max(a, b) < math.inf):
                raise DomainError(
                    f"tau_E/(2I) = {a} and I/(2 tau_E) = {b} must both be normal floats; "
                    f"inertia {self.inertia} and tau_E {tau_e} are too far apart"
                )
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
    """sum_{k=-k_max..k_max} term(k), with `term` mapping the integer array of
    all k to their complex terms at once; real and imaginary parts are each
    correctly rounded (math.fsum, so the order of the terms does not matter).
    Raises ConvergenceError, before any array is built, when the cutoff is
    past the term cap: never truncates."""
    if k_max > _KCAP:
        raise ConvergenceError(f"sum needs {2 * k_max + 1} terms, more than the cap of {TERM_CAP}")
    terms = term(np.arange(-k_max, k_max + 1))
    # a memoryview of a contiguous copy hands fsum one float at a time, where
    # .tolist() would hold all of them as Python floats at once
    return complex(math.fsum(memoryview(terms.real.copy())), math.fsum(memoryview(terms.imag.copy())))


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
        k = (b + math.sqrt(b * b + 4.0 * a * 42.0)) / (2.0 * a)
        if not math.isfinite(k):  # b * b overflowed: the same root without squaring
            k = (b + math.hypot(b, math.sqrt(168.0) * math.sqrt(a))) / (2.0 * a)
        if not math.isfinite(k):
            raise ConvergenceError(f"theta series needs more terms than the cap of {TERM_CAP}")
        k_max = int(k) + 2
    return _exact_sum(lambda k: np.exp(1j * math.pi * k * k * tau + 2j * k * z), k_max)


def theta3_modular_defect(z, tau, k_max: int | None = None) -> float:
    """|Theta3(Z|tau) - (-i tau)^(-1/2) exp[Z^2/(i pi tau)] Theta3(Z/tau|-1/tau)|."""
    z, tau = complex(z), complex(tau)
    lhs = theta3(z, tau, k_max)
    rhs = (-1j * tau) ** (-0.5) * cmath.exp(z * z / (1j * math.pi * tau)) * theta3(
        z / tau, -1.0 / tau, k_max
    )
    return abs(lhs - rhs)


def _spectral_k_max(a: float) -> int:
    # every term past the cutoff is below exp(-a (2 pi k)^2) < e^-42
    return int(math.sqrt(42.0 / a) / (2.0 * math.pi)) + 3


def _path_n_max(b: float, dN: float) -> int:
    return int(math.sqrt(42.0 / b)) + int(abs(dN)) + 3


def terms_needed(params: RotatorParams) -> tuple[int, int]:
    """Terms (spectral, winding) that `spectral_green` and `path_green` sum at
    their default cutoffs.  A side fits when its count is at most TERM_CAP.
    Apart from their offsets the cutoffs multiply to 42/pi (a b = 1/4), so
    one side always fits unless |dN| alone passes the cap."""
    tau_e = params.tau_e
    a = tau_e / (2.0 * params.inertia)
    b = params.inertia / (2.0 * tau_e)
    return 2 * _spectral_k_max(a) + 1, 2 * _path_n_max(b, params.dN) + 1


def spectral_green(params: RotatorParams, k_max: int | None = None) -> complex:
    """Quasi-momentum sum (1/2pi) sum_k e^{-p_k^2 tau_E/(2I)} e^{i p_k dN}."""
    tau_e = params.tau_e
    I, th, dN = params.inertia, params.theta, params.dN
    a = tau_e / (2.0 * I)
    if k_max is None:
        k_max = _spectral_k_max(a)

    def term(k):
        p = 2.0 * math.pi * k + th
        return np.exp(-a * p * p + 1j * p * dN)

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
        n_max = _path_n_max(b, dN)
    pref = math.sqrt(I / (8.0 * math.pi**3 * tau_e))
    return pref * _exact_sum(lambda n: np.exp(-1j * th * n - b * ((dN + n) * (dN + n))), n_max)


def path_green_via_theta(params: RotatorParams) -> complex:
    """Same winding sum closed through Theta3 at its own argument: cross-check
    route for the winding side.

    With dN = m + r, m = round(dN), relabelling n -> n - m gives
    e^{i theta m} e^{-b r^2} Theta3(-theta/2 + i b r | i b/pi), b = I/(2 tau_E);
    at |r| <= 1/2 the real exponent -b k (k + 2 r) of every theta term is
    <= 0, so no term overflows.
    """
    tau_e = params.tau_e
    I, th, dN = params.inertia, params.theta, params.dN
    b = I / (2.0 * tau_e)
    m = round(dN)
    r = dN - m
    pref = math.sqrt(I / (8.0 * math.pi**3 * tau_e)) * cmath.exp(1j * th * m - b * r * r)
    return pref * theta3(-0.5 * th + 1j * b * r, 1j * b / math.pi)


def electric_spectrum(k: int, theta: float, scale: MonopoleScale) -> float:
    """Countable multiplier |2 pi k + theta| alpha_s/(pi^2 eps) of the radial
    monopole tension in the electric sector."""
    return abs(2.0 * math.pi * k + theta) * scale.alpha_s / (math.pi**2 * scale.eps)


def coleman_spectrum(e: float, theta: float, k: int) -> float:
    """Abelian (1+1)d analogue: G_10 = e (theta/2pi + k)."""
    if not (e > 0):
        raise DomainError("coupling e must be positive")
    return e * (theta / (2.0 * math.pi) + k)
