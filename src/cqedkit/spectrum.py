"""Transmon energy levels, perturbative and exact.

The perturbative path uses the weakly-anharmonic-oscillator expressions
(f_01 = sqrt(8 E_j E_c) - E_c, anharmonicity = -E_c). The exact path
diagonalizes the Cooper-pair-box Hamiltonian in the charge basis,

    H = 4 E_c (n - n_g)^2 - (E_j / 2) (|n><n+1| + h.c.),   n in [-N, N],

and is the independent oracle that the closed-form chain is checked
against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DomainError

_MIN_CHARGE_CUTOFF = 10
_MAX_CHARGE_CUTOFF = 200  # 401 states; bounds the size of an automatic solve
_N_LEVELS = 8  # ground-referenced levels kept, as the report lists them


@dataclass(frozen=True)
class PerturbativeTransmon:
    """Closed-form transmon transition frequencies."""

    f_01_hz: float
    f_12_hz: float
    anharmonicity_hz: float


@dataclass(frozen=True)
class TransmonSpectrum:
    """Exact charge-basis transmon levels, ground-referenced and ascending."""

    levels_hz: tuple[float, ...]
    n_g: float
    charge_cutoff: int
    f_01_exact_hz: float
    anharmonicity_exact_hz: float


def perturbative_levels(e_j_hz: float, e_c_hz: float) -> PerturbativeTransmon:
    """Transition frequencies in the weakly-anharmonic approximation."""
    if not e_j_hz > 0.0:
        raise DomainError(f"Josephson energy must be positive, got {e_j_hz}")
    if not e_c_hz > 0.0:
        raise DomainError(f"charging energy must be positive, got {e_c_hz}")
    f_01 = math.sqrt(8.0 * e_j_hz * e_c_hz) - e_c_hz
    return PerturbativeTransmon(
        f_01_hz=f_01,
        f_12_hz=f_01 - e_c_hz,
        anharmonicity_hz=-e_c_hz,
    )


def _tridiagonal_matrix(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix with this diagonal and first off-diagonals."""
    size = diagonal.shape[0]
    matrix = np.diag(diagonal)
    matrix.flat[1 :: size + 1] = matrix.flat[size :: size + 1] = offdiagonal
    return matrix


def exact_transmon_spectrum(
    e_j_hz: float,
    e_c_hz: float,
    n_g: float = 0.0,
    charge_cutoff: int | None = None,
) -> TransmonSpectrum:
    """Diagonalize the charge-basis transmon Hamiltonian; keep the lowest 8 levels.

    Parameters
    ----------
    e_j_hz, e_c_hz:
        Josephson and charging energies as frequencies.
    n_g:
        Offset charge.
    charge_cutoff:
        Charge states run over n in [-cutoff, cutoff]; at least 10.
        ``None`` (the default) takes the smallest cutoff the convergence
        rule accepts: max(10, ceil(4 (E_j/E_c)^(1/4)) + 2), at most 200.
        The low levels spread over a charge width that grows as
        (E_j/E_c)^(1/4) (Koch et al., PRA 76, 042319 (2007)); within the
        rule they agree with a solve at cutoff + 5 to 1e-9 of
        max(|level|, E_c) for E_j/E_c in [1, 1e4] at n_g = 0, 1/4, 1/2.

    A cutoff below the rule, chosen or capped, issues a ``ConvergenceWarning``.
    """
    if not e_j_hz > 0.0 or not e_c_hz > 0.0:
        raise DomainError(f"energies must be positive, got E_j={e_j_hz}, E_c={e_c_hz}")
    if charge_cutoff is not None and charge_cutoff < _MIN_CHARGE_CUTOFF:
        raise DomainError(f"charge_cutoff must be at least 10, got {charge_cutoff}")
    ratio = e_j_hz / e_c_hz
    width = math.ceil(min(4.0 * ratio**0.25, _MAX_CHARGE_CUTOFF))
    needed = max(_MIN_CHARGE_CUTOFF, width + 2)
    if charge_cutoff is None:
        charge_cutoff = min(needed, _MAX_CHARGE_CUTOFF)
    if charge_cutoff < needed:
        warnings.warn(
            f"charge basis cutoff {charge_cutoff} not converged: E_j/E_c = {ratio:.4g} "
            f"needs a cutoff of at least {needed} for {_N_LEVELS} levels",
            ConvergenceWarning,
            stacklevel=2,
        )
    charge = np.arange(-charge_cutoff, charge_cutoff + 1, dtype=float)
    hamiltonian = _tridiagonal_matrix(
        4.0 * e_c_hz * (charge - n_g) ** 2, np.full(2 * charge_cutoff, -e_j_hz / 2.0)
    )
    levels = np.linalg.eigvalsh(hamiltonian)[:_N_LEVELS]
    levels = levels - levels[0]
    return TransmonSpectrum(
        levels_hz=tuple(float(x) for x in levels),
        n_g=n_g,
        charge_cutoff=charge_cutoff,
        f_01_exact_hz=float(levels[1]),
        anharmonicity_exact_hz=float(levels[2] - 2.0 * levels[1]),
    )
