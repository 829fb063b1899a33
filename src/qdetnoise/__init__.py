"""Quantum noise of linear position detectors.

The package computes, for a driven cavity (and for general linear
input-output networks), the susceptibilities and quantum noise spectra of a
readout observable and its back-action force, audits the quantum constraints
those quantities must satisfy, and applies the machinery to dispersive qubit
readout and mechanical position sensing.

Layer map:

* :mod:`qdetnoise.core`        units, grids, sampled spectra, parameter and
                               result records, the rules shared by all layers
* :mod:`qdetnoise.cavity`      closed-form cavity detector, ``normalize``
* :mod:`qdetnoise.netsolve`    state-space engine for arbitrary linear networks
* :mod:`qdetnoise.constraints` quantum-limit checks, SISO and MIMO
* :mod:`qdetnoise.apps`        qubit readout and sideband thermometry
* :mod:`qdetnoise.cli`         reproducible batch runs

Importing the package loads none of these modules. A public name loads its
module on first access (PEP 562), so a process pays only for the layers it
uses; a submodule is reachable as an attribute all the same.
"""

import importlib as _importlib

# each module and the public names it defines
_EXPORTS = {
    "apps": ("AsymmetryResult", "QubitReadoutResult", "asymmetry_grid",
             "closed_loop_poles", "modified_mech_susceptibility",
             "optimal_angle", "qubit_rates", "sideband_asymmetry",
             "thermal_force_spectrum"),
    "cavity": ("cavity_spectra", "cavity_susceptibilities",
               "cavity_unsym_spectra", "normalize"),
    "cli": ("RunConfig", "main", "parse_config", "parse_input_state"),
    "constraints": ("ConstraintReport", "Verdict", "assemble_mimo_matrix",
                    "constraint_report", "mimo_quantum_limit"),
    "core": ("CavityParams", "ComplexSpectrum", "FrequencyGrid", "InputState",
             "MechOscillator", "NormalizedSpectra", "SpectraSet",
             "SusceptibilitySet", "UnitConvention", "make_symmetric_grid"),
    "errors": ("DegenerateReadoutError", "GridMismatchError",
               "InvalidMatrixError", "NotAValidDetectorError",
               "OpticalSpringInstabilityError", "QDetNoiseError",
               "SingularNormalizationError", "StabilityError"),
    "netsolve": ("LinearNetwork", "Observable", "build_one_sided_cavity",
                 "kubo_check", "passive_network", "solve_susceptibilities",
                 "solve_unsym_spectra", "symmetrize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_importlib.import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = _importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
