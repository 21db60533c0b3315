"""ymvac: numerical toolkit for the monopole structure of the non-Abelian
gauge vacuum.

Modules
-------
bps_profiles   smooth/singular hedgehog pairs, tension and covariant
               derivative stencils, first-order residual checks
topology       group factors, degree-of-map and Chern-Simons quadrature,
               gauge transforms
greens         radial Green-function potentials, Euler/radial residuals,
               background operator
rotator        Bloch spectrum, theta-function Green representations,
               interference averages
interference   dressed factors, window-averaged propagators, lattice loop
               shifts
pheno          vacuum energetics and the constants chain
cli            command-line frontend (json/csv reports)

Shared numerical core: bps_profiles.ColorField is the one field-sampler type
(gauge and scalar), StencilConfig owns every finite-difference weight and
every three-axis gradient (over a batch of points in one pass),
topology.GribovFactorMap is the one group-factor map (the interference
module's dressed factors included), the unit quaternion (q0, q) of
v = q0 - i q.tau is the one SU(2) representation (complex matrices remain
only in the 8 x 8 Dirac-color blocks), topology builds every Gauss-Legendre
node set, pheno.read_constants reads both the constants file and the
CLI's --set overrides, and the pheno quadratures share one shell sum.

Each kernel has one calling convention: points are (3,) or (N, 3) arrays
(or lists of (3,) arrays), the group factors always use the phase profile
f01, theta3 takes (z, tau), momentum_green_average returns the (8, 8)
ndarray, each pheno closed form and its quadrature companion are two
functions, and the quadrature settings the reports use are module constants.
"""

from . import bps_profiles, greens, interference, pheno, rotator, topology
from .bps_profiles import (
    FieldVariant,
    MonopoleScale,
    StencilConfig,
)

__version__ = "0.1.0"

__all__ = [
    "bps_profiles",
    "topology",
    "greens",
    "rotator",
    "interference",
    "pheno",
    "FieldVariant",
    "MonopoleScale",
    "StencilConfig",
    "__version__",
]
