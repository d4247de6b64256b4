"""Physical constants, the unit conventions used everywhere else, and the
helpers through which one closed form serves a float and a column.

Conventions: all quantities are SI floats. Frequencies are linear (Hz,
i.e. omega/2pi); angular values exist only transiently inside formulas.
Energies are quoted as frequency equivalents (E/h, in Hz).

Each closed-form stage function takes Python floats or NumPy columns (1-d,
or of one row; a float input beside them is checked as a float), a column
call being made under ``np.errstate(all="ignore")``. On a column it raises
and warns of nothing, and each row where the float call would raise is NaN
in every output. A power of a value that can be a column is a ``_power``
call, never ``**``, which would take NumPy's rounding on a column.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# exact SI defining values (2019 redefinition)
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK = 6.62607015e-34  # J s
REDUCED_PLANCK = PLANCK / TWO_PI
FLUX_QUANTUM = PLANCK / (2.0 * ELEMENTARY_CHARGE)  # Wb


def _is_false(test: Any) -> bool:
    """A failed float test, Python's or NumPy's bool; a column's test, the mask
    of the rows that pass, never is. A check reads ``if (ok := ...) is not
    True and _is_false(ok): raise ...``: a float that passes makes no call."""
    return type(test) is not np.ndarray and not test


def _select(ok: Any, value: Any, other: Any = math.nan) -> Any:
    """``value`` where ``ok``, else ``other``: on floats, or row by row."""
    return np.where(ok, value, other) if type(ok) is np.ndarray else value if ok else other


def _sqrt(x: Any) -> Any:
    return np.sqrt(x) if type(x) is np.ndarray else math.sqrt(x)  # both round correctly


def _power(base: Any, exponent: float) -> Any:
    """``base ** exponent``, a column's rows rounded as Python's float ``**`` rounds:
    the C library's ``pow``, and NaN where that raises ``OverflowError``. ``**``
    on a column takes NumPy's ``power``, which rounds differently (``x**2`` on 1
    draw in 1,200, ``x**0.25`` on 5 %). An int or a NumPy scalar keeps its own."""
    if type(base) is not np.ndarray:
        return base**exponent
    power = np.float_power(base, exponent)
    if math.isfinite(power.sum()):
        return power
    return np.where(np.isinf(power) & np.isfinite(base), math.nan, power)


def junction_inductance_to_critical_current(l_j_henry: Any) -> Any:
    """L_j (H) -> critical current (A), I_c = Phi_0 / (2 pi L_j)."""
    if (ok := l_j_henry > 0.0) is not True and _is_false(ok):
        raise DomainError(f"junction inductance must be positive, got {l_j_henry}")
    return _select(ok, FLUX_QUANTUM / (TWO_PI * l_j_henry))


def critical_current_to_junction_inductance(i_c_ampere: float) -> float:
    """Critical current (A) -> L_j (H); inverse of the relation above."""
    if not i_c_ampere > 0.0:
        raise DomainError(f"critical current must be positive, got {i_c_ampere}")
    return FLUX_QUANTUM / (TWO_PI * i_c_ampere)


def junction_inductance_to_ej(l_j_henry: Any) -> Any:
    """L_j (H) -> Josephson energy as a frequency (Hz), (Phi_0/2pi)^2 / (L_j h)."""
    if (ok := l_j_henry > 0.0) is not True and _is_false(ok):
        raise DomainError(f"junction inductance must be positive, got {l_j_henry}")
    phi0_over_2pi = FLUX_QUANTUM / TWO_PI
    e_j = phi0_over_2pi**2 / (denominator := l_j_henry * PLANCK)
    return e_j if ok is True else _select(ok & (denominator != 0.0), e_j)


def ej_to_junction_inductance(e_j_hz: float) -> float:
    """Josephson energy (Hz) -> L_j (H)."""
    if not e_j_hz > 0.0:
        raise DomainError(f"Josephson energy must be positive, got {e_j_hz}")
    phi0_over_2pi = FLUX_QUANTUM / TWO_PI
    return phi0_over_2pi**2 / (e_j_hz * PLANCK)
