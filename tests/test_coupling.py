import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cqedkit import (
    DispersiveValidityWarning,
    DomainError,
    LabelingError,
    build_lumped_circuit,
    coupled_spectrum_oracle,
    coupling_strength,
    derive,
    dispersive_shift,
    exact_transmon_spectrum,
    external_quality_factor,
    norton_equivalent,
    perturbative_levels,
    purcell_t1,
    zero_point_voltage,
)
from cqedkit.constants import TWO_PI

E_J_REF = 14860137527.889196
E_C_REF = 188812060.87005678
BETA_REF = 0.04288917048445268
C_R_REF = 4.99001996007984e-13
L_R_REF = 2.0223789150167223e-09
F_R_REF = 5.01e9

# frozen from direct constant evaluation (scipy.constants)
V_RMS_499FF = 1.8238184593581102e-06
# frozen pipeline outputs for the reference design
G_01_REF = 47372196.76796313
CHI_TOTAL_REF = -1414076.6030755676
CHI_EXACT_REF = -1432681.1356039047
F_01_REF = 4548928490.450355
F_12_REF = 4360116429.580297


def test_zero_point_voltage_reference():
    v = zero_point_voltage(5.01e9, 499e-15)
    assert v == pytest.approx(1.82e-6, rel=1e-2)
    assert v == pytest.approx(V_RMS_499FF, rel=1e-12)


def test_zero_point_voltage_scalings():
    v = zero_point_voltage(5.01e9, C_R_REF)
    assert zero_point_voltage(5.01e9, 4.0 * C_R_REF) == pytest.approx(v / 2.0, rel=1e-14)
    assert zero_point_voltage(4.0 * 5.01e9, C_R_REF) == pytest.approx(2.0 * v, rel=1e-14)


def test_zero_point_voltage_rejects_nonpositive():
    with pytest.raises(DomainError):
        zero_point_voltage(0.0, 1e-13)
    with pytest.raises(DomainError):
        zero_point_voltage(5e9, -1e-13)


def test_coupling_strength_reference():
    v_rms = zero_point_voltage(F_R_REF, C_R_REF)
    g = coupling_strength(BETA_REF, v_rms, E_J_REF, E_C_REF)
    assert g == pytest.approx(47.38e6, rel=1e-2)
    assert g == pytest.approx(G_01_REF, rel=1e-12)


def test_coupling_decoupled_limit():
    v_rms = zero_point_voltage(F_R_REF, C_R_REF)
    assert coupling_strength(0.0, v_rms, E_J_REF, E_C_REF) == 0.0


def test_coupling_rejects_bad_beta():
    v_rms = zero_point_voltage(F_R_REF, C_R_REF)
    for beta in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            coupling_strength(beta, v_rms, E_J_REF, E_C_REF)


def test_dispersive_shift_reference():
    chi_01, chi_12, chi = dispersive_shift(G_01_REF, F_01_REF, F_12_REF, F_R_REF)
    assert chi == pytest.approx(-1.44e6, rel=2e-2)
    assert chi == pytest.approx(CHI_TOTAL_REF, rel=1e-12)
    assert chi == chi_01 - chi_12 / 2.0
    assert chi < 0.0  # qubit below the resonator, no straddling


def test_dispersive_shift_zero_coupling():
    assert dispersive_shift(0.0, F_01_REF, F_12_REF, F_R_REF) == (0.0, 0.0, 0.0)


def test_dispersive_shift_two_level_sign():
    # with the 1->2 contribution absent, chi_01 carries the sign of the detuning
    chi_01_below, _, _ = dispersive_shift(1e6, 4.0e9, 3.8e9, 5.0e9)
    chi_01_above, _, _ = dispersive_shift(1e6, 6.0e9, 5.8e9, 5.0e9)
    assert chi_01_below < 0.0 < chi_01_above


def test_dispersive_shift_warns_near_degeneracy():
    with pytest.warns(DispersiveValidityWarning):
        dispersive_shift(50e6, 4.9e9, 4.7e9, 5.0e9)


def test_dispersive_shift_rejects_exact_degeneracy():
    with pytest.raises(DomainError):
        dispersive_shift(1e6, 5.0e9, 4.8e9, 5.0e9)


# --- quality factor ----------------------------------------------------------


def test_quality_factor_reference():
    q_ext, kappa, f_loaded = external_quality_factor(C_R_REF, L_R_REF, 8.62e-15, 50.0)
    assert q_ext == pytest.approx(4432.0, rel=5e-2)
    assert kappa == pytest.approx(1.12e6, rel=5e-2)
    # the coupler pulls the resonance down a bit
    assert f_loaded < F_R_REF
    # linewidth identity holds by construction
    assert kappa * q_ext == pytest.approx(f_loaded, rel=1e-14)


def test_quality_factor_scales_with_coupler():
    q_full, _, _ = external_quality_factor(C_R_REF, L_R_REF, 8.62e-15, 50.0)
    q_half, _, _ = external_quality_factor(C_R_REF, L_R_REF, 4.31e-15, 50.0)
    assert q_half / q_full == pytest.approx(4.0, rel=5e-2)


@pytest.mark.parametrize(
    ("c_r", "l_r", "c_k", "r_load"),
    [
        (1e200, 1e200, 8.62e-15, 50.0),  # L_r C_r overflows: omega = 1 / sqrt(inf) = 0
        (1e-300, 1e300, 1e10, 1e-20),  # L_r C_r is 1, but C* ~ C_k and L_r (C_r + C*) overflows
    ],
    ids=["l_r_c_r_is_inf", "c_star_near_c_k"],
)
def test_quality_factor_refuses_a_loaded_resonance_that_overflows(c_r, l_r, c_k, r_load):
    # every input is positive, so "must be positive" would name the wrong cause
    text = r"^loaded resonance overflows: L_r \(C_r \+ C\*\) is inf$"
    with pytest.raises(OverflowError, match=text):
        external_quality_factor(c_r, l_r, c_k, r_load)
    with np.errstate(all="ignore"):
        column = external_quality_factor(np.array([c_r]), l_r, c_k, r_load)
    assert all(math.isnan(value[0]) for value in column)


def test_loaded_resonance_is_a_fixed_point():
    # wherever it returns, omega* = 2 pi f_loaded is a fixed point of
    # omega -> 1 / sqrt(L_r (C_r + C_k / (1 + (omega C_k R_load)^2))) to 1e-15 relative,
    # a few ulp, for the float and the column call; 1 to 3 inputs of qubit_v1's branch
    # are drawn at 10^U(-320, 308)
    rng = random.Random(8)
    returned = 0
    for _ in range(4000):
        inputs = [C_R_REF, L_R_REF, 8.62e-15, 50.0]
        for k in rng.sample(range(4), rng.randint(1, 3)):
            inputs[k] = 10.0 ** rng.uniform(-320.0, 308.0)
        c_r, l_r, c_k, r_load = inputs
        try:
            f_loaded = external_quality_factor(*inputs)[2]
        except ArithmeticError:
            f_loaded = None
        with np.errstate(all="ignore"):
            column = float(external_quality_factor(*(np.array([x]) for x in inputs))[2][0])
        for f in (f_loaded, column):
            if f is None or math.isnan(f):
                continue
            returned += 1
            omega = TWO_PI * f
            y = omega * c_k * r_load
            c_star = c_k / (1.0 + y * y)
            assert abs(1.0 / math.sqrt(l_r * (c_r + c_star)) - omega) <= 1e-15 * omega, inputs
    assert returned > 2000


def test_norton_equivalent_impedance_oracle():
    # independent route: complex admittance of the series C_k - R branch
    omega = 2.0 * math.pi * 4.967e9
    c_k, r_load = 8.62e-15, 50.0
    impedance = r_load + 1.0 / (1j * omega * c_k)
    admittance = 1.0 / impedance
    r_star, c_star = norton_equivalent(c_k, r_load, omega)
    assert r_star == pytest.approx(1.0 / admittance.real, rel=1e-12)
    assert c_star == pytest.approx(admittance.imag / omega, rel=1e-12)
    # weak-coupling expansion differs only at (omega C R)^2
    r_leading = 1.0 / (omega**2 * c_k**2 * r_load)
    assert abs(r_star - r_leading) / r_star == pytest.approx(
        (omega * c_k * r_load) ** 2, rel=1e-2
    )


def _loaded_resonator_pole(c_r, l_r, c_k, r_load):
    """Q, kappa and f_loaded from the pole of the loaded resonator.

    Y(s) = 1/(s L_r) + s C_r + s C_k / (1 + s R C_k) vanishes where
    L_r C_r R C_k s^3 + L_r (C_r + C_k) s^2 + R C_k s + 1 = 0. In units of
    omega_r = 1/sqrt(L_r C_r) the coefficients are of order 1. The root
    s = -sigma + j omega_d with the largest imaginary part gives
    Q = |s| / 2 sigma, kappa = sigma / pi and f_loaded = omega_d / 2 pi.
    """
    omega_r = 1.0 / math.sqrt(l_r * c_r)
    coefficients = [
        l_r * c_r * r_load * c_k * omega_r**3,
        l_r * (c_r + c_k) * omega_r**2,
        r_load * c_k * omega_r,
        1.0,
    ]
    roots = np.roots(coefficients) * omega_r
    s = roots[np.argmax(roots.imag)]
    sigma = -s.real
    return abs(s) / (2.0 * sigma), sigma / math.pi, s.imag / (2.0 * math.pi)


def test_quality_factor_matches_circuit_pole(reference_inputs):
    # an oracle independent of the Norton fold: the complex pole of the
    # whole circuit. On qubit_v1 the two agree to 3.0e-6 on Q and kappa and
    # 3.3e-8 on f_loaded; over this grid (Q_ext 1,320 to 23,930) to 1.8e-5
    # and 3.6e-7. Evaluating the Norton branch at the unloaded
    # omega_r alone misses f_loaded by the 0.85 % loaded pull.
    rng = np.random.default_rng(13)
    fields = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")
    designs = [reference_inputs] + [
        replace(
            reference_inputs,
            **{f: getattr(reference_inputs, f) * rng.uniform(0.6, 1.4) for f in fields},
        )
        for _ in range(200)
    ]
    for i, inputs in enumerate(designs):
        lumped = build_lumped_circuit(inputs)
        circuit = (lumped.c_r_farad, lumped.l_r_henry, inputs.c_k_farad, inputs.r_load_ohm)
        q_ext, kappa, f_loaded = external_quality_factor(*circuit)
        q_pole, kappa_pole, f_pole = _loaded_resonator_pole(*circuit)
        assert q_ext == pytest.approx(q_pole, rel=5e-5), i
        assert kappa == pytest.approx(kappa_pole, rel=5e-5), i
        assert f_loaded == pytest.approx(f_pole, rel=1e-6), i


def test_purcell_reference():
    t1 = purcell_t1(457e6, 47.38e6, 4432.0, 5.01e9)
    assert t1 == pytest.approx(13.1e-6, rel=5e-2)


def test_purcell_scalings():
    t1 = purcell_t1(457e6, 47.38e6, 4432.0, 5.01e9)
    assert purcell_t1(914e6, 47.38e6, 4432.0, 5.01e9) == pytest.approx(4.0 * t1, rel=1e-14)
    assert purcell_t1(457e6, 47.38e6, 8864.0, 5.01e9) == pytest.approx(2.0 * t1, rel=1e-14)


def test_purcell_decoupled_sentinel():
    assert math.isinf(purcell_t1(457e6, 0.0, 4432.0, 5.01e9))


# --- dressed-state oracle ----------------------------------------------------


@pytest.fixture(scope="module")
def reference_spectrum():
    return exact_transmon_spectrum(E_J_REF, E_C_REF)


def test_oracle_reference(reference_spectrum):
    coupled = coupled_spectrum_oracle(reference_spectrum, F_R_REF, G_01_REF)
    assert coupled.chi_exact_hz == pytest.approx(CHI_EXACT_REF, rel=1e-9)
    # agrees with the second-order formula at the 10% level, same sign
    assert coupled.chi_exact_hz < 0.0
    assert abs(coupled.chi_exact_hz - CHI_TOTAL_REF) / abs(coupled.chi_exact_hz) < 0.10
    # dressed energies obey the defining identity
    e = coupled.dressed_energies_hz
    chi = ((e[(1, 1)] - e[(1, 0)]) - (e[(0, 1)] - e[(0, 0)])) / 2.0
    assert chi == coupled.chi_exact_hz


SECTOR_LABELS = {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}


def dense_dressed_energies(transmon, f_r_hz, g_01_hz, n_qubit=4, n_resonator=6):
    """Dressed energies of the full truncated Hamiltonian, by dominant bare state.

    The reference for the excitation-block oracle: the whole
    n_qubit * n_resonator matrix, built element by element and solved densely.
    """
    dim = n_qubit * n_resonator

    def index(j, m):
        return j * n_resonator + m

    hamiltonian = np.zeros((dim, dim))
    for j in range(n_qubit):
        for m in range(n_resonator):
            hamiltonian[index(j, m), index(j, m)] = transmon.levels_hz[j] + m * f_r_hz
    for j in range(n_qubit - 1):
        for m in range(n_resonator - 1):
            element = math.sqrt(j + 1.0) * g_01_hz * math.sqrt(m + 1.0)
            hamiltonian[index(j, m + 1), index(j + 1, m)] = element
            hamiltonian[index(j + 1, m), index(j, m + 1)] = element
    values, vectors = np.linalg.eigh(hamiltonian)
    dressed = {}
    for k in range(dim):
        bare = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[bare, k] ** 2 > 0.5:
            dressed[divmod(bare, n_resonator)] = float(values[k])
    return dressed


def test_oracle_matches_dense_truncated_hamiltonian(reference_inputs):
    rng = np.random.default_rng(11)
    fields = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")
    designs = [reference_inputs] + [
        replace(
            reference_inputs,
            **{f: getattr(reference_inputs, f) * rng.uniform(0.9, 1.1) for f in fields},
        )
        for _ in range(5)
    ]
    for inputs in designs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DispersiveValidityWarning)
            derived = derive(inputs)
        f_r = inputs.f_r_target_hertz
        g_01 = derived.coupling.g_01_hz
        coupled = coupled_spectrum_oracle(derived.transmon_exact, f_r, g_01)
        dense = dense_dressed_energies(derived.transmon_exact, f_r, g_01)
        assert set(coupled.dressed_energies_hz) == SECTOR_LABELS
        for label in SECTOR_LABELS:
            # every energy but E(0, 0) = 0 is above f_r / 2
            gap = abs(coupled.dressed_energies_hz[label] - dense[label])
            assert gap <= 1e-10 * max(abs(dense[label]), f_r), label
        chi_dense = ((dense[(1, 1)] - dense[(1, 0)]) - (dense[(0, 1)] - dense[(0, 0)])) / 2.0
        assert coupled.chi_exact_hz == pytest.approx(chi_dense, rel=1e-10)


def test_oracle_truncation_stable(reference_spectrum):
    # H conserves j + m, so the blocks j + m <= 2 are exact for any
    # truncation of at least 3 x 3 levels; a larger dense build agrees
    coupled = coupled_spectrum_oracle(reference_spectrum, F_R_REF, G_01_REF)
    dense = dense_dressed_energies(reference_spectrum, F_R_REF, G_01_REF, 5, 8)
    assert set(coupled.dressed_energies_hz) == SECTOR_LABELS
    for label in SECTOR_LABELS:
        gap = abs(coupled.dressed_energies_hz[label] - dense[label])
        assert gap <= 1e-10 * max(abs(dense[label]), F_R_REF), label


def test_oracle_zero_coupling(reference_spectrum):
    coupled = coupled_spectrum_oracle(reference_spectrum, F_R_REF, 0.0)
    # zero to float roundoff on the 1e10 Hz energy scale
    assert coupled.chi_exact_hz == pytest.approx(0.0, abs=1e-3)
    for (j, m), energy in coupled.dressed_energies_hz.items():
        bare = reference_spectrum.levels_hz[j] + m * F_R_REF
        assert energy == pytest.approx(bare, abs=1e-3)


def test_oracle_rejects_degenerate_labeling(reference_spectrum):
    # resonator degenerate with the qubit and coupling strong enough to
    # delocalize the one-excitation pair: labels cannot be assigned
    with pytest.warns(DispersiveValidityWarning):
        with pytest.raises(LabelingError):
            coupled_spectrum_oracle(reference_spectrum, reference_spectrum.f_01_exact_hz, 2e9)


def test_oracle_preconditions(reference_spectrum):
    with pytest.raises(DomainError):
        coupled_spectrum_oracle(reference_spectrum, 0.0, G_01_REF)
    with pytest.raises(DomainError):
        coupled_spectrum_oracle(reference_spectrum, F_R_REF, -1.0)
    # the blocks j + m <= 2 read transmon levels 0-2
    two_levels = replace(reference_spectrum, levels_hz=reference_spectrum.levels_hz[:2])
    with pytest.raises(DomainError):
        coupled_spectrum_oracle(two_levels, F_R_REF, G_01_REF)


def test_second_order_formula_converges_to_oracle():
    # the second-order shifts, evaluated on the same exact levels the
    # oracle uses, approach the oracle as the detuning grows; evaluated
    # on the closed-form levels they stay within 15% in this regime
    rng = np.random.default_rng(20260810)
    detuning_over_g = (8.0, 12.0, 16.0, 20.0)
    gaps_same = {ratio: [] for ratio in detuning_over_g}
    for _ in range(6):
        e_c = rng.uniform(0.15e9, 0.25e9)
        e_j = rng.uniform(60.0, 120.0) * e_c
        g = rng.uniform(30e6, 60e6)
        spectrum = exact_transmon_spectrum(e_j, e_c)
        pert = perturbative_levels(e_j, e_c)
        f_12_exact = spectrum.levels_hz[2] - spectrum.levels_hz[1]
        for ratio in detuning_over_g:
            f_r = pert.f_01_hz + ratio * g
            oracle = coupled_spectrum_oracle(spectrum, f_r, g)
            _, _, chi_same = dispersive_shift(g, spectrum.f_01_exact_hz, f_12_exact, f_r)
            _, _, chi_pert = dispersive_shift(g, pert.f_01_hz, pert.f_12_hz, f_r)
            gap_same = abs(oracle.chi_exact_hz - chi_same) / abs(oracle.chi_exact_hz)
            gap_pert = abs(oracle.chi_exact_hz - chi_pert) / abs(oracle.chi_exact_hz)
            assert gap_same < 0.15
            assert gap_pert < 0.15
            gaps_same[ratio].append(gap_same)
    means = [np.mean(gaps_same[ratio]) for ratio in detuning_over_g]
    assert all(a >= b for a, b in zip(means, means[1:])), (
        f"gap means not improving with detuning: {means}"
    )
