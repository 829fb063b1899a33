"""Quantum noise of linear position detectors.

The package computes, for a driven cavity (and for general linear
input-output networks), the susceptibilities and quantum noise spectra of a
readout observable and its back-action force, audits the quantum constraints
those quantities must satisfy, and applies the machinery to dispersive qubit
readout and mechanical position sensing.

Layer map:

* :mod:`qdetnoise._params`     hbar and the cavity record, free of numpy
* :mod:`qdetnoise._qubit`      qubit readout's scalar closed forms, free of
                               numpy
* :mod:`qdetnoise.core`        units, grids, sampled spectra, parameter and
                               result records, the rules shared by all layers
                               (re-exports ``_params``)
* :mod:`qdetnoise.cavity`      closed-form cavity detector, ``normalize``
* :mod:`qdetnoise.netsolve`    state-space engine for arbitrary linear networks
* :mod:`qdetnoise.constraints` quantum-limit checks, SISO and MIMO
* :mod:`qdetnoise.apps`        qubit readout (re-exports ``_qubit``) and
                               sideband thermometry
* :mod:`qdetnoise.cli`         reproducible batch runs; it loads ``_params``
                               and ``errors``, each command the rest it uses,
                               and ``qubit`` loads no numpy

Importing the package loads none of these modules. A public name loads its
module on first access (PEP 562), so a process pays only for the layers it
uses; a submodule is reachable as an attribute all the same. A name that
``core`` or ``apps`` re-exports loads from the module that defines it, so
``qubit_rates`` and ``CavityParams`` load no numpy.
"""

import importlib as _importlib

# each module and the public names it defines
_EXPORTS = {
    "_params": ("CavityParams", "UnitConvention"),
    "_qubit": ("QubitReadoutResult", "optimal_angle", "qubit_rates"),
    "apps": ("AsymmetryResult", "asymmetry_grid", "closed_loop_poles",
             "modified_mech_susceptibility", "sideband_asymmetry",
             "thermal_force_spectrum"),
    "cavity": ("cavity_spectra", "cavity_susceptibilities",
               "cavity_unsym_spectra", "normalize"),
    "cli": ("RunConfig", "main", "parse_config", "parse_input_state"),
    "constraints": ("ConstraintReport", "Verdict", "assemble_mimo_matrix",
                    "constraint_report", "mimo_quantum_limit"),
    "core": ("ComplexSpectrum", "FrequencyGrid", "InputState", "MechOscillator",
             "NormalizedSpectra", "SpectraSet", "SusceptibilitySet",
             "make_symmetric_grid"),
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
