"""The records a scalar computation needs: hbar and the cavity probe.

``UnitConvention`` and ``CavityParams`` and the finiteness rule they apply
live here, apart from ``core``, so that ``qubit``'s closed forms and the
command line load no numpy. ``core`` re-exports all three.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


def _require_finite(record) -> None:
    """Reject a parameter record whose real-valued fields hold NaN or inf."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class UnitConvention:
    """Value of hbar all formulas read; the default is 1.

    Set it on a model record when feeding laboratory numbers.
    """

    hbar: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class CavityParams:
    """One-sided cavity probe with homodyne readout.

    gamma: cavity amplitude decay rate (> 0)
    delta: drive detuning, drive frequency minus cavity resonance
    gbar:  linearized coupling rate (> 0)
    theta: homodyne angle selecting the measured output quadrature
    """

    gamma: float
    delta: float
    gbar: float
    theta: float = 0.0
    units: UnitConvention = UnitConvention()

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if not (self.gbar > 0):
            raise ValueError("gbar must be positive")
