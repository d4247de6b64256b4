import math

import pytest
import scipy.constants as sc
from hypothesis import given
from hypothesis import strategies as st

from cqedkit import (
    DomainError,
    critical_current_to_junction_inductance,
    ej_to_junction_inductance,
    junction_inductance_to_critical_current,
    junction_inductance_to_ej,
)
from cqedkit.constants import ELEMENTARY_CHARGE, FLUX_QUANTUM, PLANCK, REDUCED_PLANCK

# frozen from a direct evaluation with scipy.constants (independent source)
I_C_11NH = 2.9918725315950304e-08
I_C_22NH = 1.4959362657975152e-08
E_J_11NH = 14860137527.889196
E_J_5P5NH = 29720275055.778393


def test_constant_invariants():
    assert REDUCED_PLANCK == PLANCK / (2 * math.pi)
    assert FLUX_QUANTUM == PLANCK / (2 * ELEMENTARY_CHARGE)
    # agree with scipy's CODATA table
    assert ELEMENTARY_CHARGE == sc.e
    assert PLANCK == sc.h


def test_critical_current():
    assert junction_inductance_to_critical_current(11e-9) == pytest.approx(29.92e-9, rel=1e-3)
    assert junction_inductance_to_critical_current(11e-9) == pytest.approx(I_C_11NH, rel=1e-12)
    assert junction_inductance_to_critical_current(22e-9) == pytest.approx(I_C_22NH, rel=1e-12)
    # unit cancellation: L = Phi0 / 2pi gives exactly 1 A
    l_unit = FLUX_QUANTUM / (2 * math.pi)
    assert junction_inductance_to_critical_current(l_unit) == pytest.approx(1.0, rel=1e-15)


def test_josephson_energy():
    assert junction_inductance_to_ej(11e-9) == pytest.approx(14.86e9, rel=1e-3)
    assert junction_inductance_to_ej(11e-9) == pytest.approx(E_J_11NH, rel=1e-12)
    assert junction_inductance_to_ej(5.5e-9) == pytest.approx(E_J_5P5NH, rel=1e-12)
    assert junction_inductance_to_ej(22e-9) == pytest.approx(
        junction_inductance_to_ej(11e-9) / 2.0, rel=1e-14
    )


@pytest.mark.parametrize(
    "fn",
    [
        junction_inductance_to_critical_current,
        junction_inductance_to_ej,
        critical_current_to_junction_inductance,
        ej_to_junction_inductance,
    ],
)
@pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan")])
def test_nonpositive_inputs_rejected(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


@given(st.floats(min_value=1e-12, max_value=1e-3))
def test_junction_round_trips(l_j):
    i_c = junction_inductance_to_critical_current(l_j)
    assert critical_current_to_junction_inductance(i_c) == pytest.approx(l_j, rel=1e-12)
    e_j = junction_inductance_to_ej(l_j)
    assert ej_to_junction_inductance(e_j) == pytest.approx(l_j, rel=1e-12)


@given(st.floats(min_value=1e-12, max_value=1e-3))
def test_ej_ic_relation(l_j):
    # E_j h = Phi0 I_c / 2pi for any junction inductance
    e_j = junction_inductance_to_ej(l_j)
    i_c = junction_inductance_to_critical_current(l_j)
    lhs = e_j * PLANCK
    rhs = FLUX_QUANTUM * i_c / (2 * math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-12)
