"""Metamorphic relations of the derivation chain: transformations of a
design whose effect on the outputs is known without a reference value."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cqedkit import DispersiveValidityWarning, coupled_spectrum_oracle, derive


def _quiet_derive(inputs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveValidityWarning)
        return derive(inputs)


@pytest.mark.parametrize("delta", [1e-15, -1e-15, 2e-15, -3e-15])
def test_transmon_depends_only_on_total_capacitance(reference_inputs, reference_derived, delta):
    # trading C_s for C_g at a fixed sum moves the coupling divider beta but
    # leaves E_c, and with it every transmon level, where it was
    traded = _quiet_derive(
        replace(
            reference_inputs,
            c_s_farad=reference_inputs.c_s_farad + delta,
            c_g_farad=reference_inputs.c_g_farad - delta,
        )
    )
    base = reference_derived
    assert traded.lumped.beta != base.lumped.beta
    pairs = [
        (traded.lumped.e_c_hz, base.lumped.e_c_hz),
        (traded.lumped.ej_ec_ratio, base.lumped.ej_ec_ratio),
        (traded.transmon_perturbative.f_01_hz, base.transmon_perturbative.f_01_hz),
        (traded.transmon_perturbative.f_12_hz, base.transmon_perturbative.f_12_hz),
        *zip(traded.transmon_exact.levels_hz[1:], base.transmon_exact.levels_hz[1:]),
    ]
    for value, expected in pairs:
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_chi_01_sign_follows_the_qubit_side_of_the_resonator(reference_inputs, reference_derived):
    # chi_01 = g^2 / (f_01 - f_r); f_01 does not depend on f_r
    f_01 = reference_derived.transmon_perturbative.f_01_hz
    signs = set()
    for f_r in np.linspace(3.0e9, 7.0e9, 17):
        derived = _quiet_derive(replace(reference_inputs, f_r_target_hertz=float(f_r)))
        sign = math.copysign(1.0, f_01 - f_r)
        assert math.copysign(1.0, derived.coupling.chi_01_hz) == sign, f_r
        assert math.copysign(1.0, derived.coupling.detuning_0_hz) == sign, f_r
        signs.add(sign)
    assert signs == {-1.0, 1.0}


def test_chi_exact_tends_to_second_order_chi_as_g_vanishes(reference_inputs, reference_derived):
    # on the same exact levels, chi_exact / chi - 1 is the fourth-order
    # correction, proportional to g^2 (about 1.34e-17 / Hz^2 on qubit_v1);
    # below about 1 MHz roundoff dominates the ratio
    exact = reference_derived.transmon_exact
    f_r = reference_inputs.f_r_target_hertz
    f_01 = exact.levels_hz[1]
    f_12 = exact.levels_hz[2] - exact.levels_hz[1]
    ratios = []
    for g in (1e6, 2e6, 4e6, 8e6, 16e6):
        chi = g**2 / (f_01 - f_r) - g**2 / (f_12 - f_r)
        chi_exact = coupled_spectrum_oracle(exact, f_r, g).chi_exact_hz
        ratios.append((chi_exact / chi - 1.0) / g**2)
    assert max(ratios) / min(ratios) - 1.0 < 0.02, ratios
