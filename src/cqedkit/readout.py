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
# _csv_body holds about 450 bytes a row while it formats, so write_curve_csv formats
# 2^14 rows (about 7 MB) at a time, whatever the curve's length
_CSV_CHUNK_ROWS = 2**14
# s21_curve holds about 45 bytes a point, so the largest curve peaks near half a GB
MAX_S21_POINTS = 10**7

# _csv_body prints a cell as _CSV_ROW does when the rounding of |x| is
# certified: more than 2^-20 from a tie at 6 (frequency) or 9 (S21) decimals,
# far beyond the 2^-24 that scaling a fraction below 1 by 10^9 rounds by
_TIE_MARGIN = 2.0**-20


def _chunk_table() -> np.ndarray:
    """Four ASCII bytes per entry, read as one uint32; blanks are dropped.

    From 0: 0000-9999; from 10,000: the same with leading zeros blank (0 all
    blank); from 20,000: the same, but 0 prints "0"; from 30,000: "." and one
    digit; from 30,010: "." and two digits; from 30,110: blank, "-", ",",
    ",-", a newline and a NUL that marks a row left to _CSV_ROW.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10000, 4)
    leading = np.where(np.arange(10000)[:, None] >= [1000, 100, 10, 1], digits, ord(" "))
    last = leading.copy()
    last[0, 3] = ord("0")
    one, two = np.full((10, 4), ord(" "), np.uint8), np.full((100, 4), ord(" "), np.uint8)
    one[:, 0] = two[:, 0] = ord(".")
    one[:, 1] = digit
    two[:, 1:3] = digits[:100, 2:]
    marks = np.frombuffer(b"    -   ,   ,-  \n   \0   ", np.uint8).reshape(-1, 4)
    table = np.concatenate((digits, leading, last, one, two, marks))
    return table.view(np.uint32).ravel()


_CHUNKS = _chunk_table()
_LEADING, _LAST, _POINT_ONE, _POINT_TWO = 10000, 20000, 30000, 30010
# the entry after _BLANK and the one after _COMMA add a "-"
_BLANK, _COMMA, _NEWLINE, _MARK = 30110, 30112, 30114, 30115


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
    if n_points > MAX_S21_POINTS:
        raise DomainError(f"S21 takes at most {MAX_S21_POINTS} points, got {n_points}")
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


def _rounded(values: np.ndarray, decimals: int) -> tuple[np.ndarray, ...]:
    """|values| rounded to ``decimals`` places, as integer and fraction
    parts (int64), and where that rounding is certified: |x| 10^d below 2^62
    and no tie within _TIE_MARGIN."""
    scale = 10.0**decimals
    bound = 2.0**62 / scale
    # fmin also takes NaN to the bound, so no cast below warns
    magnitude = np.fmin(np.abs(values), bound)
    whole = np.floor(magnitude)
    scaled = (magnitude - whole) * scale
    fraction = np.rint(scaled)
    certified = (magnitude < bound) & (np.abs(scaled - fraction) < 0.5 - _TIE_MARGIN)
    carry = fraction == scale
    return (
        (whole + carry).astype(np.int64),
        (fraction - carry * scale).astype(np.int64),
        certified,
    )


def _chunks(integer: np.ndarray) -> int:
    """Chunks of four digits that the largest integer part needs."""
    return (len(str(int(integer.max(initial=0)))) + 3) // 4


def _fill(
    out: np.ndarray,
    values: np.ndarray,
    integer: np.ndarray,
    fraction: np.ndarray,
    lead: int,
    point: int,
) -> None:
    """Fill ``out`` (cells, chunks, rows) with table indices for ``values``
    (cells, rows): ``lead`` or the one after it for a set sign bit, the
    integer part four digits a chunk, then ``point`` and the fraction."""
    np.add(np.signbit(values), lead, out=out[:, 0])
    chunks = _chunks(integer)
    fraction_chunks = out.shape[1] - 1 - chunks
    higher = 0
    for i in range(chunks):
        upper = integer // 10000 ** (chunks - 1 - i)
        # the leading chunk prints without leading zeros; the last keeps a 0
        leading = _LAST if i == chunks - 1 else _LEADING
        np.add(upper - higher * 10000, (upper < 10000) * leading, out=out[:, 1 + i])
        higher = upper
    higher = 0
    for i in range(fraction_chunks):
        upper = fraction // 10000 ** (fraction_chunks - 1 - i)
        np.add(upper - higher * 10000, 0 if i else point, out=out[:, chunks + 1 + i])
        higher = upper


def _csv_body(columns: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The rows that _CSV_ROW prints for (frequency, re, im, abs) columns.

    ``columns`` has shape (4, rows). Returns the ASCII bytes and the mask of
    the rows that _CSV_ROW printed itself: rows with a cell that is a tie at
    its precision (or within 2^-20 of one), or whose |x| 10^d reaches 2^62
    (a frequency above about 4.6 THz), or that is not finite.
    """
    rows = columns.shape[1]
    frequency, s21 = columns[:1], columns[1:]
    integer, fraction, certified = _rounded(frequency, 6)
    s21_integer, s21_fraction, s21_certified = _rounded(s21, 9)
    # one table entry per chunk of four characters. A frequency cell is its
    # sign, integer part and six decimals ("." and 2, then 4); an S21 cell a
    # comma and sign, integer part and nine decimals (1, 4, 4)
    width = 1 + _chunks(integer) + 2
    s21_width = 1 + _chunks(s21_integer) + 3
    # int16 holds every table index and keeps this array a quarter the size
    index = np.empty((width + 3 * s21_width + 1, rows), np.int16)
    _fill(index[None, :width], frequency, integer, fraction, _BLANK, _POINT_TWO)
    cells = index[width:-1].reshape(3, s21_width, rows)
    _fill(cells, s21, s21_integer, s21_fraction, _COMMA, _POINT_ONE)
    index[-1] = _NEWLINE

    fallback = ~(certified[0] & s21_certified.all(axis=0))
    index[:, fallback] = _BLANK
    index[-1, fallback] = _MARK
    body = _CHUNKS.take(index).T.tobytes().translate(None, b" ")
    if fallback.any():
        parts = body.split(b"\0")
        text = [(_CSV_ROW % tuple(row)).encode("ascii") for row in columns[:, fallback].T.tolist()]
        body = b"".join(part + row for part, row in zip(parts, [*text, b""]))
    return body, fallback


def write_curve_csv(curve: TransmissionCurve, path: str | Path) -> None:
    """Write a curve as CSV (plain decimal notation, ascending frequency)."""
    # in double precision, as Python's complex holds each sample
    s21 = np.asarray(curve.s21, complex)
    re, im = s21.real, s21.imag
    with open(path, "wb") as out:
        out.write(f"{CSV_HEADER}\n".encode("ascii"))
        for start in range(0, re.shape[0], _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            # np.hypot gives the complex abs that Python's abs gives per element;
            # np.abs on the complex array differs from it in the last bit
            columns = (curve.frequency_hz[rows], re[rows], im[rows], np.hypot(re[rows], im[rows]))
            out.write(_csv_body(np.stack(columns))[0])
