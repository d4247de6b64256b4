"""Transmon energy levels, perturbative and exact.

The perturbative path uses the weakly-anharmonic-oscillator expressions
(f_01 = sqrt(8 E_j E_c) - E_c, anharmonicity = -E_c). The exact path
diagonalizes the Cooper-pair-box Hamiltonian in the charge basis,

    H = 4 E_c (n - n_g)^2 - (E_j / 2) (|n><n+1| + h.c.),   n in [-N, N],

and is the independent oracle that the closed-form chain is checked
against. At n_g = 0, the offset derive and sweep use, H commutes with
n -> -n and splits into an even block, |0> and (|n> + |-n>)/sqrt(2) for
n = 1..N, whose first coupling is sqrt(2) (-E_j / 2), and an odd block,
(|n> - |-n>)/sqrt(2) for n = 1..N (Koch et al., PRA 76, 042319 (2007)).
``_parity_levels`` solves both blocks of many (E_j, E_c) rows in one
``eigvalsh`` call, so a single spectrum and a sweep's stack
(``_batched_spectra``) take the same path and give the same bits; any
other n_g takes the dense matrix.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .constants import _is_false, _power, _select, _sqrt
from .errors import ConvergenceWarning, DomainError

_MIN_CHARGE_CUTOFF = 10
_MAX_CHARGE_CUTOFF = 200  # 401 states; bounds the size of an automatic solve
_N_LEVELS = 8  # ground-referenced levels kept, as the report lists them
# bytes of matrices one stacked eigensolve may receive: at the charge basis's
# 401-state cap the two parity blocks of a key are 0.65 MB, and 101 of them
# would be 65 MB
_STACK_BYTES = 4 * 2**20


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


def perturbative_levels(e_j_hz: Any, e_c_hz: Any) -> PerturbativeTransmon:
    """Transition frequencies in the weakly-anharmonic approximation."""
    if (ok := e_j_hz > 0.0) is not True and _is_false(ok):
        raise DomainError(f"Josephson energy must be positive, got {e_j_hz}")
    if (ok := ok & (e_c_hz > 0.0)) is not True and _is_false(ok):
        raise DomainError(f"charging energy must be positive, got {e_c_hz}")
    if ok is not True:  # a column: every level holds E_c, so a row it drops is NaN in each
        e_c_hz = _select(ok, e_c_hz)
    f_01 = _sqrt(8.0 * e_j_hz * e_c_hz) - e_c_hz
    return PerturbativeTransmon(
        f_01_hz=f_01,
        f_12_hz=f_01 - e_c_hz,
        anharmonicity_hz=-e_c_hz,
    )


def needed_charge_cutoff(ratio: Any) -> Any:
    """The smallest charge cutoff the convergence rule accepts at E_j/E_c = ``ratio``:
    an int, or for a column of ratios a column of ints."""
    width = 4.0 * _power(ratio, 0.25)
    if type(width) is np.ndarray:
        width = np.ceil(np.minimum(width, _MAX_CHARGE_CUTOFF)).astype(int)
        return np.maximum(_MIN_CHARGE_CUTOFF, width + 2)
    return max(_MIN_CHARGE_CUTOFF, math.ceil(min(width, _MAX_CHARGE_CUTOFF)) + 2)


def _tridiagonal_matrix(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix with this diagonal and first off-diagonals."""
    size = diagonal.shape[0]
    matrix = np.diag(diagonal)
    matrix.flat[1 :: size + 1] = matrix.flat[size :: size + 1] = offdiagonal
    return matrix


@functools.lru_cache(maxsize=8)
def _parity_blocks(charge_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks at n_g = 0 as E_c times one matrix plus E_j times another.

    Both blocks are (cutoff + 1)-square, so that one stack holds them: the
    odd block, which has no n = 0 state, holds in its place a decoupled
    entry 4 E_c (cutoff + 1)^2 + E_j, above every eigenvalue of the block
    (Gershgorin), so it is never among the lowest levels.
    """
    size = charge_cutoff + 1
    n = np.arange(size)
    charging = np.zeros((2, 1, size, size))
    charging[:, 0, n, n] = 4.0 * n**2
    charging[1, 0, 0, 0] = 4.0 * size**2
    hopping = np.zeros((2, 1, size, size))
    hopping[:, 0, n[:-1], n[1:]] = hopping[:, 0, n[1:], n[:-1]] = -0.5
    hopping[0, 0, 0, 1] = hopping[0, 0, 1, 0] = -math.sqrt(0.5)
    hopping[1, 0, 0, 1] = hopping[1, 0, 1, 0] = 0.0
    hopping[1, 0, 0, 0] = 1.0
    charging.setflags(write=False)
    hopping.setflags(write=False)
    return charging, hopping


def _parity_levels(e_j_hz: np.ndarray, e_c_hz: np.ndarray, charge_cutoff: int) -> np.ndarray:
    """The lowest ``_N_LEVELS`` ground-referenced levels at n_g = 0 of each row.

    Both parity blocks of every row go to one ``eigvalsh`` call; a row's
    levels do not depend on the other rows it is stacked with.
    """
    rows = e_j_hz.shape[0]
    size = charge_cutoff + 1
    charging, hopping = _parity_blocks(charge_cutoff)
    matrices = e_c_hz[:, None, None] * charging
    matrices += e_j_hz[:, None, None] * hopping
    both = np.linalg.eigvalsh(matrices.reshape(2 * rows, size, size))[:, :_N_LEVELS]
    levels = np.sort(np.concatenate((both[:rows], both[rows:]), axis=1), axis=1)[:, :_N_LEVELS]
    return levels - levels[:, :1]


def _spectrum(levels: list[float], n_g: float, charge_cutoff: int) -> TransmonSpectrum:
    """The record of ground-referenced ``levels``."""
    return TransmonSpectrum(
        levels_hz=tuple(levels),
        n_g=n_g,
        charge_cutoff=charge_cutoff,
        f_01_exact_hz=levels[1],
        anharmonicity_exact_hz=levels[2] - 2.0 * levels[1],
    )


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
    At n_g = 0 the two parity blocks are solved (``_parity_levels``), and
    their merged levels agree with the full matrix's to 1e-12 of
    max(|level|, E_c) within the rule.
    """
    if not e_j_hz > 0.0 or not e_c_hz > 0.0:
        raise DomainError(f"energies must be positive, got E_j={e_j_hz}, E_c={e_c_hz}")
    if charge_cutoff is not None and charge_cutoff < _MIN_CHARGE_CUTOFF:
        raise DomainError(f"charge_cutoff must be at least 10, got {charge_cutoff}")
    ratio = e_j_hz / e_c_hz
    needed = needed_charge_cutoff(ratio)
    if charge_cutoff is None:
        charge_cutoff = min(needed, _MAX_CHARGE_CUTOFF)
    if charge_cutoff < needed:
        warnings.warn(
            f"charge basis cutoff {charge_cutoff} not converged: E_j/E_c = {ratio:.4g} "
            f"needs a cutoff of at least {needed} for {_N_LEVELS} levels",
            ConvergenceWarning,
            stacklevel=2,
        )
    if n_g == 0.0:
        levels = _parity_levels(np.array([e_j_hz]), np.array([e_c_hz]), charge_cutoff)[0]
    else:
        charge = np.arange(-charge_cutoff, charge_cutoff + 1, dtype=float)
        hamiltonian = _tridiagonal_matrix(
            4.0 * e_c_hz * (charge - n_g) ** 2, np.full(2 * charge_cutoff, -e_j_hz / 2.0)
        )
        levels = np.linalg.eigvalsh(hamiltonian)[:_N_LEVELS]
        levels = levels - levels[0]
    return _spectrum(levels.tolist(), n_g, charge_cutoff)


def _batched_spectra(
    e_j_hz: np.ndarray, e_c_hz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exact_transmon_spectrum`` at n_g = 0 of each row of the (E_j, E_c) columns, through
    its own kernel, one call per cutoff and byte budget: the levels (rows x 8), the cutoff
    and the cutoff the rule needs."""
    needed = needed_charge_cutoff(e_j_hz / e_c_hz)
    cutoff = np.minimum(needed, _MAX_CHARGE_CUTOFF)
    levels = np.empty((len(needed), _N_LEVELS))
    for size in sorted(set(cutoff.tolist())):  # np.unique would import numpy.ma, 13 ms
        rows = np.flatnonzero(cutoff == size)
        # two blocks of (cutoff + 1)^2 doubles per row
        per_call = max(1, _STACK_BYTES // (2 * (size + 1) ** 2 * 8))
        for start in range(0, len(rows), per_call):
            chunk = rows[start : start + per_call]
            levels[chunk] = _parity_levels(e_j_hz[chunk], e_c_hz[chunk], size)
    return levels, cutoff, needed
