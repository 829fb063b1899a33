"""Quantum noise of linear position detectors.

The package computes, for a driven cavity (and for general linear
input-output networks), the susceptibilities and quantum noise spectra of a
readout observable and its back-action force, audits the quantum constraints
those quantities must satisfy, and applies the machinery to dispersive qubit
readout and mechanical position sensing.

Layer map:

* :mod:`qdetnoise.core`        units, grids, sampled spectra, parameter sets
* :mod:`qdetnoise.cavity`      closed-form cavity detector, spectra sets
* :mod:`qdetnoise.netsolve`    state-space engine for arbitrary linear networks
* :mod:`qdetnoise.constraints` quantum-limit checks, SISO and MIMO
* :mod:`qdetnoise.apps`        qubit readout and sideband thermometry
* :mod:`qdetnoise.cli`         reproducible batch runs
"""

import types as _types

from .apps import (
    AsymmetryResult,
    QubitReadoutResult,
    asymmetry_grid,
    closed_loop_poles,
    modified_mech_susceptibility,
    optimal_angle,
    qubit_rates,
    sideband_asymmetry,
    thermal_force_spectrum,
)
from .cavity import (
    NormalizedSpectra,
    SpectraSet,
    SusceptibilitySet,
    cavity_spectra,
    cavity_susceptibilities,
    cavity_unsym_spectra,
    normalize,
    response_denominator,
)
from .cli import RunConfig, main, parse_config, parse_input_state
from .constraints import (
    ConstraintReport,
    Verdict,
    assemble_mimo_matrix,
    constraint_report,
    mimo_quantum_limit,
)
from .core import (
    CavityParams,
    ComplexSpectrum,
    FrequencyGrid,
    InputState,
    MechOscillator,
    UnitConvention,
    make_symmetric_grid,
)
from .errors import (
    DegenerateReadoutError,
    GridMismatchError,
    InvalidMatrixError,
    NotAValidDetectorError,
    OpticalSpringInstabilityError,
    QDetNoiseError,
    SingularNormalizationError,
    StabilityError,
)
from .netsolve import (
    LinearNetwork,
    Observable,
    build_one_sided_cavity,
    kubo_check,
    passive_network,
    solve_susceptibilities,
    solve_unsym_spectra,
    symmetrize,
)

__version__ = "0.1.0"

# the public names are the classes and functions imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _types.ModuleType)))
