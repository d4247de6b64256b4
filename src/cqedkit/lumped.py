"""Lumped-element circuit extraction.

Builds the equivalent circuit of the chip: a quarter-wave readout
resonator reduced to its parallel LC equivalent, plus the transmon
charging and Josephson energies derived from the extracted capacitances
and the junction inductance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .constants import CONSTANTS, TWO_PI, junction_inductance_to_ej
from .errors import DomainError

TRANSMON_REGIME_MIN_RATIO = 50.0


@dataclass(frozen=True)
class DesignInputs:
    """Electrical inputs of one chip design.

    Field names carry the SI unit and match the design-file keys.
    ``geometry`` is free-form provenance metadata, a mapping: it is copied,
    carried through to reports unmodified and never used in any computation.
    """

    c_s_farad: float
    c_g_farad: float
    c_k_farad: float
    l_j_henry: float
    f_r_target_hertz: float
    z_0_ohm: float = 50.0
    r_load_ohm: float | None = None
    geometry: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.geometry, Mapping):
            raise DomainError(f"geometry must be an object, got {type(self.geometry).__name__}")
        object.__setattr__(self, "geometry", dict(self.geometry))
        if self.r_load_ohm is None:
            object.__setattr__(self, "r_load_ohm", self.z_0_ohm)
        strictly_positive = (
            ("c_s_farad", self.c_s_farad),
            ("c_k_farad", self.c_k_farad),
            ("l_j_henry", self.l_j_henry),
            ("f_r_target_hertz", self.f_r_target_hertz),
            ("z_0_ohm", self.z_0_ohm),
            ("r_load_ohm", self.r_load_ohm),
        )
        for name, value in strictly_positive + (("c_g_farad", self.c_g_farad),):
            # bool is an int, but true is not a capacitance of 1 F
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DomainError(f"{name} must be a number, got {value!r}")
        for name, value in strictly_positive:
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be a positive finite number, got {value!r}")
        if not (self.c_g_farad >= 0.0 and math.isfinite(self.c_g_farad)):
            raise DomainError(f"c_g_farad must be non-negative and finite, got {self.c_g_farad!r}")


@dataclass(frozen=True)
class LumpedCircuit:
    """Complete lumped-element equivalent of a design."""

    c_r_farad: float
    l_r_henry: float
    c_sigma_farad: float
    e_c_hz: float
    e_j_hz: float
    beta: float
    inputs: DesignInputs

    @property
    def ej_ec_ratio(self) -> float:
        return self.e_j_hz / self.e_c_hz

    @property
    def in_transmon_regime(self) -> bool:
        return self.ej_ec_ratio > TRANSMON_REGIME_MIN_RATIO


def quarter_wave_equivalents(f_r_hz: float, z_0_ohm: float) -> tuple[float, float]:
    """Parallel LC equivalent of a quarter-wave line resonator.

    C_r = pi / (4 omega_r Z_0) and L_r = 1 / (C_r omega_r^2), so the LC
    pair resonates at f_r by construction.
    """
    if not f_r_hz > 0.0:
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if not z_0_ohm > 0.0:
        raise DomainError(f"line impedance must be positive, got {z_0_ohm}")
    omega_r = TWO_PI * f_r_hz
    c_r = math.pi / (4.0 * omega_r * z_0_ohm)
    l_r = 1.0 / (c_r * omega_r**2)
    return c_r, l_r


def charging_energy(c_s_farad: float, c_g_farad: float = 0.0) -> float:
    """Charging energy as a frequency, e^2 / (2 C_sigma h) with C_sigma = C_s + C_g."""
    if not c_s_farad > 0.0:
        raise DomainError(f"shunt capacitance must be positive, got {c_s_farad}")
    if c_g_farad < 0.0:
        raise DomainError(f"coupling capacitance must be non-negative, got {c_g_farad}")
    c_sigma = c_s_farad + c_g_farad
    return CONSTANTS.elementary_charge**2 / (2.0 * c_sigma * CONSTANTS.planck)


def build_lumped_circuit(inputs: DesignInputs) -> LumpedCircuit:
    """Assemble the full lumped circuit for one design."""
    c_r, l_r = quarter_wave_equivalents(inputs.f_r_target_hertz, inputs.z_0_ohm)
    e_c = charging_energy(inputs.c_s_farad, inputs.c_g_farad)
    e_j = junction_inductance_to_ej(inputs.l_j_henry)
    beta = inputs.c_g_farad / (inputs.c_g_farad + inputs.c_s_farad)
    return LumpedCircuit(
        c_r_farad=c_r,
        l_r_henry=l_r,
        c_sigma_farad=inputs.c_s_farad + inputs.c_g_farad,
        e_c_hz=e_c,
        e_j_hz=e_j,
        beta=beta,
        inputs=inputs,
    )
