"""Qubit-resonator coupling, dispersive readout figures, and the
generalized Jaynes-Cummings oracle.

The closed-form chain computes the charge coupling strength

    g_01 = (2 beta e V_rms / hbar) (E_j / 32 E_c)^(1/4),

the second-order dispersive shifts chi_ij = g_ij^2 / (f_ij - f_r) with
chi = chi_01 - chi_12 / 2, the feedline-loaded quality factor via the
Norton equivalent of the series C_k / R_load branch, and the
resonator-mediated relaxation bound T1 = (Delta/g)^2 Q / omega_r.

The oracle diagonalizes the multilevel qubit coupled to the resonator
mode, in the blocks of conserved excitation number that chi needs, and
extracts the exact qubit-state-dependent pull of the resonator, for
comparison with the second-order formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import ELEMENTARY_CHARGE, REDUCED_PLANCK, TWO_PI
from .errors import (
    ConvergenceError,
    DispersiveValidityWarning,
    DomainError,
    LabelingError,
)
from .spectrum import TransmonSpectrum, _tridiagonal_matrix

_MIN_DISPERSIVE_RATIO = 10.0  # |detuning| / g below which the warning fires
# |detuning| / g at or below which dressed labels are unreliable: the oracle
# warns there, and derive skips it on the closed-form detuning
ORACLE_MIN_RATIO = 5.0


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


def zero_point_voltage(f_r_hz: float, c_r_farad: float) -> float:
    """Resonator zero-point voltage, sqrt(hbar omega_r / 2 C_r)."""
    if not f_r_hz > 0.0:
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if not c_r_farad > 0.0:
        raise DomainError(f"resonator capacitance must be positive, got {c_r_farad}")
    return math.sqrt(REDUCED_PLANCK * TWO_PI * f_r_hz / (2.0 * c_r_farad))


def coupling_strength(
    beta: float, v_rms_volt: float, e_j_hz: float, e_c_hz: float
) -> float:
    """Charge coupling g_01 as a linear frequency (Hz)."""
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"capacitance divider beta must be in [0, 1), got {beta}")
    if not v_rms_volt >= 0.0:
        raise DomainError(f"zero-point voltage must be non-negative, got {v_rms_volt}")
    if not e_j_hz > 0.0 or not e_c_hz > 0.0:
        raise DomainError(f"energies must be positive, got E_j={e_j_hz}, E_c={e_c_hz}")
    angular = (
        (2.0 * beta * ELEMENTARY_CHARGE * v_rms_volt / REDUCED_PLANCK)
        * (e_j_hz / (32.0 * e_c_hz)) ** 0.25
    )
    return angular / TWO_PI


def dispersive_shift(
    g_01_hz: float, f_01_hz: float, f_12_hz: float, f_r_hz: float
) -> tuple[float, float, float]:
    """Second-order dispersive shifts (chi_01, chi_12, chi_total).

    Uses g_12 = sqrt(2) g_01 for the 1->2 transition. Warns when either
    detuning is within 10 g_01 of resonance; returns zeros for g_01 = 0.
    """
    if g_01_hz < 0.0:
        raise DomainError(f"coupling strength must be non-negative, got {g_01_hz}")
    if f_01_hz == f_r_hz or f_12_hz == f_r_hz:
        raise DomainError(
            "qubit transition degenerate with the resonator; dispersive shift undefined"
        )
    if g_01_hz == 0.0:
        return 0.0, 0.0, 0.0
    delta_01 = f_01_hz - f_r_hz
    delta_12 = f_12_hz - f_r_hz
    if min(abs(delta_01), abs(delta_12)) < _MIN_DISPERSIVE_RATIO * g_01_hz:
        warnings.warn(
            f"detuning {min(abs(delta_01), abs(delta_12)):.3e} Hz is within "
            f"{_MIN_DISPERSIVE_RATIO:.0f} g_01 of resonance; dispersive formula unreliable",
            DispersiveValidityWarning,
            stacklevel=2,
        )
    chi_01 = g_01_hz**2 / delta_01
    chi_12 = 2.0 * g_01_hz**2 / delta_12
    return chi_01, chi_12, chi_01 - chi_12 / 2.0


def norton_equivalent(
    c_k_farad: float, r_load_ohm: float, omega_rad_per_s: float
) -> tuple[float, float]:
    """Parallel (R*, C*) equivalent of the series C_k -> R_load branch at omega."""
    if not c_k_farad > 0.0 or not r_load_ohm > 0.0 or not omega_rad_per_s > 0.0:
        raise DomainError("coupler capacitance, load and frequency must be positive")
    x = (omega_rad_per_s * c_k_farad * r_load_ohm) ** 2
    r_star = (1.0 + x) / (omega_rad_per_s**2 * c_k_farad**2 * r_load_ohm)
    c_star = c_k_farad / (1.0 + x)
    return r_star, c_star


def external_quality_factor(
    c_r_farad: float, l_r_henry: float, c_k_farad: float, r_load_ohm: float
) -> tuple[float, float, float]:
    """Feedline-limited quality factor of the coupled resonator.

    The series coupler/load branch is folded into its Norton equivalent
    and the working frequency is iterated to the loaded resonance
    omega* = 1 / sqrt(L_r (C_r + C*)). Returns (Q_ext, kappa, f_loaded)
    with kappa = f_loaded / Q_ext.
    """
    if not c_r_farad > 0.0 or not l_r_henry > 0.0:
        raise DomainError("resonator C and L must be positive")
    omega = 1.0 / math.sqrt(l_r_henry * c_r_farad)
    for _ in range(100):
        _, c_star = norton_equivalent(c_k_farad, r_load_ohm, omega)
        omega_next = 1.0 / math.sqrt(l_r_henry * (c_r_farad + c_star))
        if abs(omega_next - omega) <= 1e-15 * omega:
            omega = omega_next
            break
        omega = omega_next
    else:
        raise ConvergenceError("loaded resonance iteration did not converge")
    r_star, c_star = norton_equivalent(c_k_farad, r_load_ohm, omega)
    q_ext = omega * r_star * (c_r_farad + c_star)
    f_loaded = omega / TWO_PI
    return q_ext, f_loaded / q_ext, f_loaded


def purcell_t1(
    detuning_0_hz: float, g_01_hz: float, quality_factor: float, f_r_hz: float
) -> float:
    """Resonator-mediated relaxation bound, (Delta/g)^2 Q / omega_r.

    Returns ``math.inf`` for a decoupled qubit (g_01 = 0).
    """
    if g_01_hz < 0.0:
        raise DomainError(f"coupling strength must be non-negative, got {g_01_hz}")
    if not quality_factor > 0.0:
        raise DomainError(f"quality factor must be positive, got {quality_factor}")
    if not f_r_hz > 0.0:
        raise DomainError(f"resonator frequency must be positive, got {f_r_hz}")
    if g_01_hz == 0.0:
        return math.inf
    return (detuning_0_hz / g_01_hz) ** 2 * quality_factor / (TWO_PI * f_r_hz)


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
    if g_01_hz > 0.0 and abs(detuning) <= ORACLE_MIN_RATIO * g_01_hz:
        warnings.warn(
            f"|detuning| = {abs(detuning):.3e} Hz is within {ORACLE_MIN_RATIO:.0f} g_01; "
            "dressed-state labels may be ambiguous",
            DispersiveValidityWarning,
            stacklevel=2,
        )

    # ordered by j + m, then j: H couples |j, m> only to the next state,
    # |j + 1, m - 1>, by sqrt((j + 1) m) g_01, which is 0 between blocks
    states = [(j, k - j) for k in range(3) for j in range(k + 1)]
    diag = [transmon.levels_hz[j] + m * f_r_hz for j, m in states]
    off = [math.sqrt((j + 1.0) * m) * g_01_hz for j, m in states[:-1]]
    energies, vectors = np.linalg.eigh(_tridiagonal_matrix(np.array(diag), np.array(off)))
    weights = vectors**2
    dressed: dict[tuple[int, int], float] = {}
    for k, bare in enumerate(np.argmax(weights, axis=0).tolist()):
        # the eigenvectors are orthonormal, so no two states pass 0.5 on one label
        if weights[bare, k] > 0.5:
            dressed[states[bare]] = float(energies[k])

    required = [(0, 0), (0, 1), (1, 0), (1, 1)]
    missing = [label for label in required if label not in dressed]
    if missing:
        raise LabelingError(
            f"no dressed state has dominant overlap with bare state(s) {missing}; "
            "system is outside the dispersive labeling regime"
        )
    chi_exact = (
        (dressed[(1, 1)] - dressed[(1, 0)]) - (dressed[(0, 1)] - dressed[(0, 0)])
    ) / 2.0
    return CoupledSpectrum(dressed_energies_hz=dressed, chi_exact_hz=chi_exact)
