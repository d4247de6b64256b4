"""Feedline transmission curves for dispersive qubit readout.

The resonator hangs off a through feedline, so transmission shows a
notch: S21(f) = 1 - (Q_t/Q_e) / (1 + 2i Q_t (f - f_0)/f_0), with the
notch frequency pulled by the qubit state: f_ground = f_loaded + chi,
f_excited = f_loaded - chi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import CouplingParameters
from .errors import DomainError, ExtractionError, NarrowSpanWarning

QUBIT_STATES = ("ground", "excited")
CSV_HEADER = "frequency_hz,re_s21,im_s21,abs_s21"
_CSV_ROW = "%.6f,%.9f,%.9f,%.9f\n"
_FLAT_CURVE_DEPTH = 1e-9


@dataclass(frozen=True)
class TransmissionCurve:
    """Sampled complex S21 versus frequency for one qubit state."""

    qubit_state: str
    frequency_hz: np.ndarray
    s21: np.ndarray
    f_notch_hz: float
    fwhm_hz: float


def _refined_minimum(frequency: np.ndarray, magnitude: np.ndarray) -> float:
    """Grid minimum with parabolic sub-grid refinement."""
    i = int(np.argmin(magnitude))
    if i == 0 or i == magnitude.shape[0] - 1:
        return float(frequency[i])
    y0, y1, y2 = magnitude[i - 1], magnitude[i], magnitude[i + 1]
    # > 0: i is the first minimum, so y0 > y1 <= y2; below 2 y1, y0 - 2 y1
    # is exact (Sterbenz), and above it both terms are >= 0 and one is > 0
    denominator = y0 - 2.0 * y1 + y2
    # |y0 - y2| <= denominator, and doubling is exact where halving a
    # subnormal difference would round, so |shift| <= 1/2
    shift = (y0 - y2) / (2.0 * denominator)
    step = frequency[i] - frequency[i - 1]
    return float(frequency[i] + shift * step)


def _fwhm_of_dip(frequency: np.ndarray, power: np.ndarray) -> float:
    """Full width of the |S21|^2 dip at half depth, by linear interpolation.

    Each flank of the Lorentzian dip rises away from the minimum, so
    ``np.interp`` can read the crossing off it. Returns 0.0 for a flat
    curve and NaN when either half-depth crossing lies outside the grid.
    """
    i_min = int(np.argmin(power))
    half = 0.5 * (power[i_min] + 1.0)
    if power[i_min] >= half:
        return 0.0
    if power[0] < half or power[-1] < half:
        return math.nan
    right = np.interp(half, power[i_min:], frequency[i_min:])
    left = np.interp(half, power[i_min::-1], frequency[i_min::-1])
    return float(right - left)


def s21_curve(
    coupling: CouplingParameters,
    qubit_state: str,
    span_hz: float,
    n_points: int,
    q_internal: float = math.inf,
) -> TransmissionCurve:
    """Sample the feedline transmission around the loaded resonance.

    The grid covers f_loaded +- span/2. ``q_internal`` adds internal
    loss (1/Q_t = 1/Q_e + 1/Q_i); the default is lossless.
    """
    if qubit_state not in QUBIT_STATES:
        raise DomainError(f"qubit_state must be one of {QUBIT_STATES}, got {qubit_state!r}")
    if not 0.0 < span_hz < math.inf:
        raise DomainError(f"span must be positive and finite, got {span_hz}")
    if span_hz >= 2.0 * coupling.f_r_loaded_hz:
        raise DomainError(
            f"span {span_hz:g} Hz reaches 0 Hz; it must be below twice the loaded "
            f"resonance, {2.0 * coupling.f_r_loaded_hz:g} Hz"
        )
    if n_points < 3:
        raise DomainError(f"need at least 3 points, got {n_points}")
    if not q_internal > 0.0:
        raise DomainError(f"internal quality factor must be positive, got {q_internal}")
    if span_hz < 4.0 * coupling.kappa_hz:
        warnings.warn(
            f"span {span_hz:.3e} Hz is below 4 kappa = {4.0 * coupling.kappa_hz:.3e} Hz; "
            "the dip may not be resolved",
            NarrowSpanWarning,
            stacklevel=2,
        )

    q_ext = coupling.q_ext
    q_total = q_ext if math.isinf(q_internal) else 1.0 / (1.0 / q_ext + 1.0 / q_internal)
    sign = 1.0 if qubit_state == "ground" else -1.0
    f_state = coupling.f_r_loaded_hz + sign * coupling.chi_total_hz

    center = coupling.f_r_loaded_hz
    frequency = np.linspace(center - span_hz / 2.0, center + span_hz / 2.0, n_points)
    # an extreme Q_ext overflows 2 Q (f - f_0)/f_0; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        s21 = 1.0 - (q_total / q_ext) / (1.0 + 2.0j * q_total * (frequency - f_state) / f_state)
        magnitude = np.abs(s21)
    if not np.isfinite(magnitude).all():
        raise FloatingPointError(f"S21 is not finite on a {span_hz:g} Hz span")
    return TransmissionCurve(
        qubit_state=qubit_state,
        frequency_hz=frequency,
        s21=s21,
        f_notch_hz=_refined_minimum(frequency, magnitude),
        fwhm_hz=_fwhm_of_dip(frequency, magnitude**2),
    )


def notch_separation(ground: TransmissionCurve, excited: TransmissionCurve) -> float:
    """Distance between the ground- and excited-state notch frequencies."""
    if not np.array_equal(ground.frequency_hz, excited.frequency_hz):
        raise DomainError("curves must share the same frequency grid")
    for curve in (ground, excited):
        magnitude = np.abs(curve.s21)
        if float(magnitude.max() - magnitude.min()) < _FLAT_CURVE_DEPTH:
            raise ExtractionError(
                f"{curve.qubit_state} curve is flat; no notch to extract"
            )
    return abs(ground.f_notch_hz - excited.f_notch_hz)


def write_curve_csv(curve: TransmissionCurve, path: str | Path) -> None:
    """Write a curve as CSV (plain decimal notation, ascending frequency)."""
    s21 = curve.s21.tolist()
    cells: list[float] = [0.0] * (4 * len(s21))
    cells[0::4] = curve.frequency_hz.tolist()
    cells[1::4] = curve.s21.real.tolist()
    cells[2::4] = curve.s21.imag.tolist()
    # complex abs per element, as the NumPy scalar gives it; np.abs on the
    # array differs from it in the last bit on about half the elements
    cells[3::4] = [abs(value) for value in s21]
    text = _CSV_ROW * len(s21) % tuple(cells)
    Path(path).write_text(f"{CSV_HEADER}\n{text}", encoding="ascii")
