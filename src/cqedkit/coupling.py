"""Qubit-resonator coupling, dispersive readout figures, and the
generalized Jaynes-Cummings oracle.

The closed-form chain computes the charge coupling strength

    g_01 = (2 beta e V_rms / hbar) (E_j / 32 E_c)^(1/4),

the second-order dispersive shifts chi_ij = g_ij^2 / (f_ij - f_r) with
chi = chi_01 - chi_12 / 2, the feedline-loaded quality factor via the Norton
equivalent of the series C_k / R_load branch at the loaded resonance, in
closed form, and the Purcell bound T1 = (Delta/g)^2 Q / omega_r.

The oracle diagonalizes the multilevel qubit coupled to the resonator
mode, in the blocks of conserved excitation number that chi needs, and
extracts the exact qubit-state-dependent pull of the resonator, for
comparison with the second-order formula. The chain's stage functions
take floats or columns (``constants``); the oracle takes floats, and the
sweep batch stacks its keys (``_batched_oracle``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .constants import ELEMENTARY_CHARGE, REDUCED_PLANCK, TWO_PI
from .constants import _is_false, _power, _select, _sqrt
from .errors import DispersiveValidityWarning, DomainError, LabelingError
from .spectrum import TransmonSpectrum, _tridiagonal_matrix

_MIN_DISPERSIVE_RATIO = 10.0  # |detuning| / g below which the warning fires
# |detuning| / g at or below which dressed labels are unreliable: the oracle
# warns there, and derive skips it on the closed-form detuning
ORACLE_MIN_RATIO = 5.0


# the oracle's bare states |j, m>, ordered by j + m, then j: H couples each
# only to the next, |j + 1, m - 1>, by BLOCK_LADDER * g_01 = sqrt((j + 1) m) g_01,
# which is 0 between blocks
BLOCK_STATES = tuple((j, k - j) for k in range(3) for j in range(k + 1))
BLOCK_LADDER = tuple(math.sqrt((j + 1.0) * m) for j, m in BLOCK_STATES[:-1])


@dataclass(frozen=True)
class CouplingParameters:
    """Readout-chain figures of merit for one design."""

    v_rms_volt: float
    g_01_hz: float
    detuning_0_hz: float
    chi_01_hz: float
    chi_12_hz: float
    chi_total_hz: float
    q_ext: float
    kappa_hz: float
    f_r_loaded_hz: float
    t1_purcell_seconds: float

    @property
    def chi_kappa_ratio(self) -> float:
        """2|chi| / kappa: the distance between the two states' notches in linewidths."""
        return 2.0 * abs(self.chi_total_hz) / self.kappa_hz

    @property
    def readable(self) -> bool:
        """2|chi| > kappa: the two states' notches are more than a linewidth apart."""
        return 2.0 * abs(self.chi_total_hz) > self.kappa_hz


@dataclass(frozen=True)
class CoupledSpectrum:
    """Dressed energies of the coupled qubit-resonator model.

    ``dressed_energies_hz`` maps bare labels (qubit index, photon number)
    with j + m <= 2 to eigenenergies; only labels with dominant (>0.5)
    bare overlap are retained.
    """

    dressed_energies_hz: dict[tuple[int, int], float]
    chi_exact_hz: float


def zero_point_voltage(f_r_hz: Any, c_r_farad: Any) -> Any:
    """Resonator zero-point voltage, sqrt(hbar omega_r / 2 C_r)."""
    if (ok := f_r_hz > 0.0) is not True and _is_false(ok):
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if (ok := ok & (c_r_farad > 0.0)) is not True and _is_false(ok):
        raise DomainError(f"resonator capacitance must be positive, got {c_r_farad}")
    v_rms = _sqrt(REDUCED_PLANCK * TWO_PI * f_r_hz / (2.0 * c_r_farad))
    return v_rms if ok is True else _select(ok, v_rms)


def coupling_strength(beta: Any, v_rms_volt: Any, e_j_hz: Any, e_c_hz: Any) -> Any:
    """Charge coupling g_01 as a linear frequency (Hz)."""
    if (ok := (0.0 <= beta) & (beta < 1.0)) is not True and _is_false(ok):
        raise DomainError(f"capacitance divider beta must be in [0, 1), got {beta}")
    if (ok := ok & (v_rms_volt >= 0.0)) is not True and _is_false(ok):
        raise DomainError(f"zero-point voltage must be non-negative, got {v_rms_volt}")
    if (ok := ok & (e_j_hz > 0.0) & (e_c_hz > 0.0)) is not True and _is_false(ok):
        raise DomainError(f"energies must be positive, got E_j={e_j_hz}, E_c={e_c_hz}")
    angular = (2.0 * beta * ELEMENTARY_CHARGE * v_rms_volt / REDUCED_PLANCK) * _power(
        e_j_hz / (32.0 * e_c_hz), 0.25
    )
    g_01 = angular / TWO_PI
    return g_01 if ok is True else _select(ok, g_01)


def dispersive_shift(
    g_01_hz: Any, f_01_hz: Any, f_12_hz: Any, f_r_hz: Any
) -> tuple[Any, Any, Any]:
    """Second-order dispersive shifts (chi_01, chi_12, chi_total).

    Uses g_12 = sqrt(2) g_01 for the 1->2 transition. Warns when either
    detuning is within 10 g_01 of resonance; returns zeros for g_01 = 0.
    """
    # g_01 not negative; a NaN passes, and gives NaN
    if (ok := (g_01_hz >= 0.0) | (g_01_hz != g_01_hz)) is not True and _is_false(ok):
        raise DomainError(f"coupling strength must be non-negative, got {g_01_hz}")
    if (ok := ok & (f_01_hz != f_r_hz) & (f_12_hz != f_r_hz)) is not True and _is_false(ok):
        raise DomainError(
            "qubit transition degenerate with the resonator; dispersive shift undefined"
        )
    if ok is not True:  # a column: every shift holds g_01, so a row it drops is NaN in each
        g_01_hz = _select(ok, g_01_hz)
    if (coupled := g_01_hz != 0.0) is not True and _is_false(coupled):
        return 0.0, 0.0, 0.0
    _near_resonance(g_01_hz, f_01_hz, f_12_hz, f_r_hz)
    g_squared = _power(g_01_hz, 2)
    chi_01 = g_squared / (f_01_hz - f_r_hz)
    chi_12 = 2.0 * g_squared / (f_12_hz - f_r_hz)
    chi = chi_01, chi_12, chi_01 - chi_12 / 2.0
    if coupled is not True:  # a column: 0 where g_01 = 0
        return tuple(_select(coupled, value, 0.0) for value in chi)
    return chi


def _near_resonance(g_01_hz: Any, f_01_hz: Any, f_12_hz: Any, f_r_hz: Any) -> Any:
    """min(|f_01 - f_r|, |f_12 - f_r|) where it is within 10 g_01, else NaN: the
    detuning a ``DispersiveValidityWarning`` names. A float call raises the
    warning for ``dispersive_shift``'s caller; on columns it warns of nothing,
    and ``sweep`` folds the rows it flags into one warning."""
    a, b = abs(f_01_hz - f_r_hz), abs(f_12_hz - f_r_hz)
    near = _select(b < a, b, a)  # min(a, b)
    within = near < _MIN_DISPERSIVE_RATIO * g_01_hz
    if type(within) is not np.ndarray and within:
        warnings.warn(
            f"detuning {near:.3e} Hz is within "
            f"{_MIN_DISPERSIVE_RATIO:.0f} g_01 of resonance; dispersive formula unreliable",
            DispersiveValidityWarning,
            stacklevel=3,
        )
    return _select(within, near)


def _labels_ambiguous(g_01_hz: Any, detuning_hz: Any) -> Any:
    """Where dressed labels may be ambiguous: |detuning| within 5 g_01 of a coupled qubit."""
    return (g_01_hz > 0.0) & (abs(detuning_hz) <= ORACLE_MIN_RATIO * g_01_hz)


def _oracle_applies(g_01_hz: Any, detuning_hz: Any) -> Any:
    """Where derive runs the oracle, for floats or columns: a decoupled qubit, or
    a closed-form detuning more than 5 g_01 from the resonator."""
    return (g_01_hz == 0.0) | (abs(detuning_hz) > ORACLE_MIN_RATIO * g_01_hz)


_COUPLER_NOT_POSITIVE = "coupler capacitance, load and frequency must be positive"


def norton_equivalent(
    c_k_farad: Any, r_load_ohm: Any, omega_rad_per_s: Any
) -> tuple[Any, Any]:
    """Parallel (R*, C*) equivalent of the series C_k -> R_load branch at omega."""
    ok = (c_k_farad > 0.0) & (r_load_ohm > 0.0) & (omega_rad_per_s > 0.0)
    if ok is not True and _is_false(ok):
        raise DomainError(_COUPLER_NOT_POSITIVE)
    x = _power(omega_rad_per_s * c_k_farad * r_load_ohm, 2)
    c_star = c_k_farad / (1.0 + x)
    omega_squared = _power(omega_rad_per_s, 2)
    c_k_squared = _power(c_k_farad, 2)
    denominator = omega_squared * c_k_squared * r_load_ohm
    r_star = (1.0 + x) / denominator
    if ok is not True:  # a column: NaN also where a power overflows (NaN) or the divisor is 0
        ok = ok & (omega_squared == omega_squared) & (c_k_squared == c_k_squared)
        r_star, c_star = _select(ok & (denominator != 0.0), (r_star, c_star))
    return r_star, c_star


def _resonance(l_r: Any, c: Any, ok: Any) -> tuple[Any, Any]:
    """1 / sqrt(L_r C), and ``ok`` less the rows where it is 0 or inf. A float
    raises: ``OverflowError`` where L_r C is inf, ``ZeroDivisionError`` where 0."""
    omega = 1.0 / _sqrt(l_r * c)
    if (ok := ok & (0.0 < omega) & (omega < math.inf)) is not True and _is_false(ok):
        raise OverflowError("loaded resonance overflows: L_r (C_r + C*) is inf")
    return omega, ok


def external_quality_factor(
    c_r_farad: Any, l_r_henry: Any, c_k_farad: Any, r_load_ohm: Any
) -> tuple[Any, Any, Any]:
    """Feedline-limited quality factor of the coupled resonator.

    The series coupler/load branch is folded into its Norton equivalent
    C* = C_k / (1 + (omega C_k R_load)^2) at the loaded resonance
    omega* = 1 / sqrt(L_r (C_r + C*)), so C* is the one positive root of
    C*^2 + b C* - C_k C_r = 0, b = C_r + (C_k R_load)^2 / L_r - C_k, taken in
    closed form without cancellation (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 1.8). Returns (Q_ext, kappa, f_loaded) with
    kappa = f_loaded / Q_ext.
    """
    if (ok := (c_r_farad > 0.0) & (l_r_henry > 0.0)) is not True and _is_false(ok):
        raise DomainError("resonator C and L must be positive")
    ok = _resonance(l_r_henry, c_r_farad, ok)[1]  # its errors come before the coupler's
    if (ok := ok & (c_k_farad > 0.0) & (r_load_ohm > 0.0)) is not True and _is_false(ok):
        raise DomainError(_COUPLER_NOT_POSITIVE)
    t = c_k_farad * r_load_ohm  # t^2 / L_r, dividing first where t^2 could overflow
    b = c_r_farad + _select(t > 1.0, t * (t / l_r_henry), t * t / l_r_henry) - c_k_farad
    d = 2.0 * _sqrt(c_k_farad) * _sqrt(c_r_farad)
    # h = sqrt(b^2 + d^2) scaled by max(|b|, d), not hypot: math's and NumPy's differ in
    # the last bit. The roots' product is -C_k C_r; h + |b| >= d > 0 gives the positive one
    m = _select(d < abs(b), abs(b), d)
    h = _select(m < math.inf, m * _sqrt((b / m) * (b / m) + (d / m) * (d / m)), m)
    s = h + abs(b)
    root = _select(b < 0.0, s / 2.0, 2.0 * c_k_farad * (c_r_farad / s))
    omega, ok = _resonance(l_r_henry, c_r_farad + root, ok)
    r_star, c_star = norton_equivalent(c_k_farad, r_load_ohm, omega)
    q_ext = omega * r_star * (c_r_farad + c_star)
    f_loaded = omega / TWO_PI
    kappa = f_loaded / q_ext
    if type(omega) is np.ndarray:  # a column: NaN also where C* is (refused) or Q_ext is 0
        ok = ok & (c_star == c_star) & (q_ext != 0.0)
        q_ext, kappa, f_loaded = _select(ok, (q_ext, kappa, f_loaded))
    return q_ext, kappa, f_loaded


def purcell_t1(detuning_0_hz: Any, g_01_hz: Any, quality_factor: Any, f_r_hz: Any) -> Any:
    """Resonator-mediated relaxation bound, (Delta/g)^2 Q / omega_r.

    Returns ``math.inf`` for a decoupled qubit (g_01 = 0).
    """
    if (ok := (g_01_hz >= 0.0) | (g_01_hz != g_01_hz)) is not True and _is_false(ok):
        raise DomainError(f"coupling strength must be non-negative, got {g_01_hz}")
    if (ok := ok & (quality_factor > 0.0)) is not True and _is_false(ok):
        raise DomainError(f"quality factor must be positive, got {quality_factor}")
    if (ok := ok & (f_r_hz > 0.0)) is not True and _is_false(ok):
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if ok is not True:  # a column: a row it drops is NaN
        g_01_hz = _select(ok, g_01_hz)
    if (coupled := g_01_hz != 0.0) is not True and _is_false(coupled):
        return math.inf
    t1 = _power(detuning_0_hz / g_01_hz, 2) * quality_factor / (TWO_PI * f_r_hz)
    return t1 if coupled is True else _select(coupled, t1, math.inf)


def coupled_spectrum_oracle(
    transmon: TransmonSpectrum, f_r_hz: float, g_01_hz: float
) -> CoupledSpectrum:
    """Diagonalize the multilevel qubit-resonator Hamiltonian.

    H = sum_j f_j |j><j| + f_r a^dag a
        + sum_j g_{j,j+1} (|j><j+1| a^dag + |j+1><j| a),

    with g_{j,j+1} = sqrt(j+1) g_01 and f_j the exact transmon levels.
    H conserves j + m (Blais et al., RMP 93, 025005 (2021)); only the
    blocks j + m = 0, 1, 2 are solved. They are the same for any truncation
    of at least 3 x 3 levels, so none is chosen; the transmon must supply
    levels 0-2.
    Dressed states are labeled by their dominant bare component; the
    exact dispersive shift is half the difference of the resonator
    pull between qubit states 1 and 0.
    """
    if not f_r_hz > 0.0:
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if g_01_hz < 0.0:
        raise DomainError(f"coupling strength must be non-negative, got {g_01_hz}")
    if len(transmon.levels_hz) < 3:
        raise DomainError(
            f"transmon spectrum holds {len(transmon.levels_hz)} levels, need 3"
        )

    detuning = transmon.f_01_exact_hz - f_r_hz
    if _labels_ambiguous(g_01_hz, detuning):
        warnings.warn(
            f"|detuning| = {abs(detuning):.3e} Hz is within {ORACLE_MIN_RATIO:.0f} g_01; "
            "dressed-state labels may be ambiguous",
            DispersiveValidityWarning,
            stacklevel=2,
        )

    diag = [transmon.levels_hz[j] + m * f_r_hz for j, m in BLOCK_STATES]
    off = [ladder * g_01_hz for ladder in BLOCK_LADDER]
    energies, vectors = np.linalg.eigh(_tridiagonal_matrix(np.array(diag), np.array(off)))
    weights = vectors**2
    dressed: dict[tuple[int, int], float] = {}
    for k, bare in enumerate(np.argmax(weights, axis=0).tolist()):
        # the eigenvectors are orthonormal, so no two states pass 0.5 on one label
        if weights[bare, k] > 0.5:
            dressed[BLOCK_STATES[bare]] = float(energies[k])

    required = [(0, 0), (0, 1), (1, 0), (1, 1)]
    missing = [label for label in required if label not in dressed]
    if missing:
        raise LabelingError(
            f"no dressed state has dominant overlap with bare state(s) {missing}; "
            "system is outside the dispersive labeling regime"
        )
    # at g_01 = 0 no block couples, and chi is 0 exactly, not the rounding of the sum
    chi_exact = 0.0 if g_01_hz == 0.0 else (
        (dressed[(1, 1)] - dressed[(1, 0)]) - (dressed[(0, 1)] - dressed[(0, 0)])
    ) / 2.0
    return CoupledSpectrum(dressed_energies_hz=dressed, chi_exact_hz=chi_exact)


def _batched_oracle(
    levels_hz: np.ndarray, f_r_hz: np.ndarray, g_01_hz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``coupled_spectrum_oracle`` of each row of transmon levels (rows x at least 3), f_r
    and g_01 in one ``eigh``: chi_exact (NaN where the labeling fails) and the |detuning|
    its warning names (NaN where none)."""
    size = len(BLOCK_STATES)
    matrices = np.zeros((len(f_r_hz), size * size))
    matrices[:, :: size + 1] = levels_hz[:, [j for j, _ in BLOCK_STATES]] + np.array(
        [float(m) for _, m in BLOCK_STATES]
    ) * f_r_hz[:, None]
    matrices[:, 1 :: size + 1] = matrices[:, size :: size + 1] = g_01_hz[:, None] * np.array(
        BLOCK_LADDER
    )
    energies, vectors = np.linalg.eigh(matrices.reshape(-1, size, size))
    weights = vectors**2
    bare = weights.argmax(axis=1)
    dominant = np.take_along_axis(weights, bare[:, None, :], axis=1)[:, 0, :] > 0.5
    dressed = {}
    labeled = np.ones(len(f_r_hz), dtype=bool)
    for label in ((0, 0), (0, 1), (1, 0), (1, 1)):
        match = dominant & (bare == BLOCK_STATES.index(label))
        labeled &= match.any(axis=1)
        dressed[label] = np.take_along_axis(energies, match.argmax(axis=1)[:, None], axis=1)[:, 0]
    pulls = (dressed[1, 1] - dressed[1, 0]) - (dressed[0, 1] - dressed[0, 0])
    chi = np.where(g_01_hz == 0.0, 0.0, pulls / 2.0)
    detuning = levels_hz[:, 1] - f_r_hz
    ambiguous = _labels_ambiguous(g_01_hz, detuning)
    return np.where(labeled, chi, math.nan), np.where(ambiguous, abs(detuning), math.nan)
