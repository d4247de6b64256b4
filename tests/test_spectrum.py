import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import mathieu_a, mathieu_b

from cqedkit import (
    ConvergenceWarning,
    DomainError,
    exact_transmon_spectrum,
    perturbative_levels,
)
from cqedkit.spectrum import _tridiagonal_matrix

E_J_REF = 14860137527.889196
E_C_REF = 188812060.87005678

# frozen oracle outputs for the reference energies (charge-basis
# diagonalization, cross-checked against a phase-basis finite-difference
# discretization during development)
F_01_EXACT_REF = 4540478237.337647
ALPHA_EXACT_REF = -209707663.82550812


def test_perturbative_reference():
    levels = perturbative_levels(E_J_REF, E_C_REF)
    assert levels.f_01_hz == pytest.approx(4.55e9, rel=2e-3)
    assert levels.f_12_hz == levels.f_01_hz - E_C_REF
    assert levels.anharmonicity_hz == -E_C_REF


def test_perturbative_algebraic_case():
    # 8 E_j E_c = (1 GHz)^2 with E_c = 0.1 GHz gives f_01 = 0.9 GHz
    e_c = 0.1e9
    e_j = (1e9) ** 2 / (8.0 * e_c)
    levels = perturbative_levels(e_j, e_c)
    assert levels.f_01_hz == pytest.approx(0.9e9, rel=1e-14)


def test_perturbative_anharmonicity_is_minus_ec():
    rng = np.random.default_rng(3)
    for _ in range(20):
        e_c = rng.uniform(0.05e9, 0.5e9)
        e_j = e_c * rng.uniform(20, 200)
        assert perturbative_levels(e_j, e_c).anharmonicity_hz == -e_c


def test_perturbative_rejects_nonpositive():
    with pytest.raises(DomainError):
        perturbative_levels(0.0, 1e8)
    with pytest.raises(DomainError):
        perturbative_levels(1e10, -1e8)


# --- the tridiagonal builder and the symmetric eigensolvers ------------------
# the transmon solves eigvalsh(_tridiagonal_matrix(...)) and the dressed-state
# oracle eigh(_tridiagonal_matrix(...)); acceptance criterion 4 covers eigh on
# random dense matrices


def test_tridiagonal_two_by_two():
    matrix = _tridiagonal_matrix(np.array([2.0, 2.0]), np.array([-1.0]))
    assert np.linalg.eigvalsh(matrix) == pytest.approx([1.0, 3.0])


def test_tridiagonal_zero_matrix():
    matrix = _tridiagonal_matrix(np.zeros(6), np.zeros(5))
    assert np.all(np.linalg.eigvalsh(matrix) == 0.0)


def test_tridiagonal_reconstruction():
    rng = np.random.default_rng(42)
    diagonal = rng.normal(size=50)
    off = rng.normal(size=49)
    eigenvalues, eigenvectors = np.linalg.eigh(_tridiagonal_matrix(diagonal, off))
    matrix = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    rebuilt = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T
    assert np.linalg.norm(rebuilt - matrix) < 1e-10 * np.linalg.norm(matrix)
    assert np.all(np.diff(eigenvalues) >= 0)


def test_dense_identity_and_diagonal():
    # a zero off-diagonal leaves the diagonal in place, in ascending order
    identity = _tridiagonal_matrix(np.ones(4), np.zeros(3))
    assert np.array_equal(identity, np.eye(4))
    assert np.linalg.eigvalsh(identity) == pytest.approx([1.0, 1.0, 1.0, 1.0])
    diagonal = _tridiagonal_matrix(np.array([3.0, 1.0, 2.0]), np.zeros(2))
    assert np.linalg.eigvalsh(diagonal) == pytest.approx([1.0, 2.0, 3.0])


def test_dense_matches_tridiagonal_after_reduction():
    # reduce a random symmetric matrix to tridiagonal form (Householder)
    # and check the rebuilt tridiagonal matrix has the same spectrum
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(30, 30))
    matrix = (matrix + matrix.T) / 2.0
    tri = scipy.linalg.hessenberg(matrix)
    dense = np.linalg.eigvalsh(matrix)
    reduced = np.linalg.eigvalsh(_tridiagonal_matrix(np.diag(tri), np.diag(tri, 1)))
    assert np.max(np.abs(dense - reduced)) < 1e-9 * max(1.0, np.linalg.norm(matrix))


# --- exact transmon spectrum ------------------------------------------------


def test_exact_spectrum_reference():
    spectrum = exact_transmon_spectrum(E_J_REF, E_C_REF, 0.0, 20)
    assert spectrum.f_01_exact_hz == pytest.approx(4.55e9, rel=1.5e-2)
    assert spectrum.f_01_exact_hz == pytest.approx(F_01_EXACT_REF, rel=1e-9)
    assert spectrum.anharmonicity_exact_hz < 0.0
    assert spectrum.anharmonicity_exact_hz == pytest.approx(ALPHA_EXACT_REF, rel=1e-9)
    # exact anharmonicity is at least as negative as -E_c; at this
    # E_j/E_c the measured ratio is 1.1107
    ratio = abs(spectrum.anharmonicity_exact_hz) / E_C_REF
    assert 1.0 <= ratio <= 1.15
    assert spectrum.levels_hz[0] == 0.0
    assert all(b > a for a, b in zip(spectrum.levels_hz, spectrum.levels_hz[1:]))


def test_exact_vs_perturbative_across_regime():
    for ratio in (50.0, 79.0, 120.0, 200.0):
        e_c = 0.2e9
        e_j = ratio * e_c
        exact = exact_transmon_spectrum(e_j, e_c)
        pert = perturbative_levels(e_j, e_c)
        assert abs(exact.f_01_exact_hz - pert.f_01_hz) / exact.f_01_exact_hz < 0.02
        assert exact.anharmonicity_exact_hz < 0.0
        assert abs(exact.anharmonicity_exact_hz) >= e_c


def test_harmonic_limit():
    e_c = 0.2e9
    e_j = 1e4 * e_c
    spectrum = exact_transmon_spectrum(e_j, e_c, charge_cutoff=60)
    plasma = math.sqrt(8.0 * e_j * e_c)
    for m in (1, 2, 3):
        assert spectrum.levels_hz[m] == pytest.approx(m * plasma, rel=1e-2)


def test_offset_charge_parity_symmetry():
    a = exact_transmon_spectrum(E_J_REF, E_C_REF, 0.5, 20)
    b = exact_transmon_spectrum(E_J_REF, E_C_REF, -0.5, 20)
    for x, y in zip(a.levels_hz[1:], b.levels_hz[1:]):
        assert x == pytest.approx(y, rel=1e-9)


def test_offset_charge_period_symmetry():
    a = exact_transmon_spectrum(E_J_REF, E_C_REF, 0.25, 20)
    b = exact_transmon_spectrum(E_J_REF, E_C_REF, 1.25, 20)
    for x, y in zip(a.levels_hz[1:], b.levels_hz[1:]):
        assert x == pytest.approx(y, rel=1e-6)


def test_charge_dispersion_negligible_in_transmon_regime():
    f_01 = [
        exact_transmon_spectrum(E_J_REF, E_C_REF, n_g).f_01_exact_hz
        for n_g in (0.0, 0.25, 0.5)
    ]
    spread = (max(f_01) - min(f_01)) / min(f_01)
    assert spread < 1e-4


def test_automatic_cutoff_reference():
    spectrum = exact_transmon_spectrum(E_J_REF, E_C_REF)
    assert spectrum.charge_cutoff == 14
    wide = exact_transmon_spectrum(E_J_REF, E_C_REF, charge_cutoff=25)
    assert spectrum.levels_hz == pytest.approx(wide.levels_hz, rel=1e-12)


def test_automatic_cutoff_is_converged():
    # the oracle for the cutoff rule: enlarging the charge window by 5
    # moves no level by more than 1e-9 of max(|level|, E_c); the E_c floor
    # keeps near-degenerate levels at n_g = 0.5 from failing falsely
    e_c = 0.2e9
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        for ratio in np.logspace(0.0, 4.0, 41):
            for n_g in (0.0, 0.25, 0.5):
                auto = exact_transmon_spectrum(ratio * e_c, e_c, n_g)
                wider = exact_transmon_spectrum(ratio * e_c, e_c, n_g, auto.charge_cutoff + 5)
                scale = np.maximum(np.abs(wider.levels_hz), e_c)
                drift = np.abs(np.subtract(auto.levels_hz, wider.levels_hz))
                assert np.all(drift <= 1e-9 * scale), (ratio, n_g, auto.charge_cutoff)


def test_exact_spectrum_matches_mathieu_characteristic_values():
    # Koch et al., PRA 76, 042319 (2007), eq. 2.3: at n_g = 0 the three
    # lowest levels are E_c times a_0(q), b_2(q), a_2(q), q = E_j / (2 E_c).
    # scipy returns a wrong a_2 at a few q above ~3000 (a_0's value for
    # q = 3155); Mathieu theory orders a_0 < b_2 < a_2, so a point that
    # breaks the order has no reference value
    e_c = 0.2e9
    compared = 0
    for ratio in np.logspace(0.0, 4.0, 41):
        q = ratio / 2.0
        a_0, b_2, a_2 = mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q)
        if not a_0 < b_2 < a_2:
            continue
        spectrum = exact_transmon_spectrum(ratio * e_c, e_c)
        assert spectrum.levels_hz[1] == pytest.approx(e_c * (b_2 - a_0), rel=1e-9)
        assert spectrum.levels_hz[2] == pytest.approx(e_c * (a_2 - a_0), rel=1e-9)
        compared += 1
    assert compared >= 40


def test_automatic_cutoff_is_capped():
    # the rule asks for more than the 401-state limit: solve at the limit
    # and say the result is not converged
    with pytest.warns(ConvergenceWarning):
        spectrum = exact_transmon_spectrum(1e12 * 0.2e9, 0.2e9)
    assert spectrum.charge_cutoff == 200


def test_truncation_warning_when_cutoff_too_small():
    # deep-harmonic parameters need a wide charge window
    with pytest.warns(ConvergenceWarning):
        exact_transmon_spectrum(2000e9, 0.2e9, charge_cutoff=10)


def test_exact_spectrum_preconditions():
    with pytest.raises(DomainError):
        exact_transmon_spectrum(E_J_REF, E_C_REF, charge_cutoff=9)
    with pytest.raises(DomainError):
        exact_transmon_spectrum(-1e9, E_C_REF)
