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

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the five layers on the first use of a public name (PEP 562).

    ``import recoilsim`` alone loads no numpy, so ``recoilsim.cli`` can still
    choose numpy's BLAS threads before numpy starts.  ``from recoilsim import
    cli`` asks for ``cli`` before importing it, and is left to the import
    system for the same reason."""
    if name.startswith("_") and name != "__all__" or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importlib, not ``from . import``: that asks this function for the layers.
    from importlib import import_module
    layers = [import_module(f"{__name__}.{layer}")
              for layer in ("core", "specfun", "amplitudes", "density", "oracle")]
    # Each layer's __all__ is its public API; the package re-exports them all.
    public = {key: getattr(layer, key) for layer in layers for key in layer.__all__}
    globals().update(public, __all__=[*public, "__version__"])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
