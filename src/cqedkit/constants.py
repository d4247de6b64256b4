"""Physical constants and the unit conventions used everywhere else.

Conventions: all quantities are SI floats. Frequencies are linear (Hz,
i.e. omega/2pi); angular values exist only transiently inside formulas.
Energies are quoted as frequency equivalents (E/h, in Hz).
"""

from __future__ import annotations

import math

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# exact SI defining values (2019 redefinition)
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK = 6.62607015e-34  # J s
REDUCED_PLANCK = PLANCK / TWO_PI
FLUX_QUANTUM = PLANCK / (2.0 * ELEMENTARY_CHARGE)  # Wb


def junction_inductance_to_critical_current(l_j_henry: float) -> float:
    """L_j (H) -> critical current (A), I_c = Phi_0 / (2 pi L_j)."""
    if not l_j_henry > 0.0:
        raise DomainError(f"junction inductance must be positive, got {l_j_henry}")
    return FLUX_QUANTUM / (TWO_PI * l_j_henry)


def critical_current_to_junction_inductance(i_c_ampere: float) -> float:
    """Critical current (A) -> L_j (H); inverse of the relation above."""
    if not i_c_ampere > 0.0:
        raise DomainError(f"critical current must be positive, got {i_c_ampere}")
    return FLUX_QUANTUM / (TWO_PI * i_c_ampere)


def junction_inductance_to_ej(l_j_henry: float) -> float:
    """L_j (H) -> Josephson energy as a frequency (Hz), (Phi_0/2pi)^2 / (L_j h)."""
    if not l_j_henry > 0.0:
        raise DomainError(f"junction inductance must be positive, got {l_j_henry}")
    phi0_over_2pi = FLUX_QUANTUM / TWO_PI
    return phi0_over_2pi**2 / (l_j_henry * PLANCK)


def ej_to_junction_inductance(e_j_hz: float) -> float:
    """Josephson energy (Hz) -> L_j (H)."""
    if not e_j_hz > 0.0:
        raise DomainError(f"Josephson energy must be positive, got {e_j_hz}")
    phi0_over_2pi = FLUX_QUANTUM / TWO_PI
    return phi0_over_2pi**2 / (e_j_hz * PLANCK)
