"""Decoherence of two-atom relative motion from spontaneous emission.

Two cold two-level atoms that each scatter a single photon entangle their
relative position with the photon field.  Tracing the photons out leaves the
relative coordinate's density matrix multiplied by a Bessel-squared
decoherence factor ``F = J0^2(pi dx / lambda)`` -- coherences between points
separated by more than about half an emitted wavelength are destroyed, and a
delocalized relative position collapses to that scale.

The package has three layers:

* closed-form theory -- photon-emission amplitudes for the zero-, one-, and
  two-photon sectors (:mod:`~recoilsim.amplitudes`) and the traced reduced
  density matrix built on them (:mod:`~recoilsim.density`);
* brute force -- direct Chebyshev propagation of the coupled amplitude
  equations on a discretized field and direct angular quadrature of the
  pre-reduction density integral (:mod:`~recoilsim.oracle`), used to
  validate every closed form;
* plumbing -- model parameters and mode grids (:mod:`~recoilsim.core`), an
  in-repo Bessel J0 (:mod:`~recoilsim.specfun`), and a CLI
  (:mod:`~recoilsim.cli`).
"""

from . import core, specfun, amplitudes, density, oracle
from .core import *
from .specfun import *
from .amplitudes import *
from .density import *
from .oracle import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package re-exports them all.
__all__ = [*core.__all__, *specfun.__all__, *amplitudes.__all__,
           *density.__all__, *oracle.__all__, "__version__"]
