import math
import random

import numpy as np
import pytest

from cqedkit import (
    CouplingParameters,
    DomainError,
    ExtractionError,
    NarrowSpanWarning,
    notch_separation,
    s21_curve,
    write_curve_csv,
)
from cqedkit.readout import CSV_HEADER


def _coupling(chi_total=-1414076.6030755676, q_ext=4378.586696298506,
              f_loaded=4967287740.679041):
    kappa = f_loaded / q_ext
    return CouplingParameters(
        v_rms_volt=1.82e-6,
        g_01_hz=47.37e6,
        detuning_0_hz=-461.07e6,
        chi_01_hz=-4.87e6,
        chi_12_hz=-6.91e6,
        chi_total_hz=chi_total,
        q_ext=q_ext,
        kappa_hz=kappa,
        f_r_loaded_hz=f_loaded,
        t1_purcell_seconds=13.2e-6,
    )


@pytest.fixture(scope="module")
def curves():
    coupling = _coupling()
    ground = s21_curve(coupling, "ground", 20e6, 4001)
    excited = s21_curve(coupling, "excited", 20e6, 4001)
    return coupling, ground, excited


def test_notch_separation_is_twice_chi(curves):
    coupling, ground, excited = curves
    separation = notch_separation(ground, excited)
    assert separation == pytest.approx(2.0 * abs(coupling.chi_total_hz), rel=1e-3)


def test_ground_state_dip_sits_below_bare_resonance(curves):
    coupling, ground, excited = curves
    # chi < 0 here, so the ground-state notch is pulled down
    assert ground.f_notch_hz < coupling.f_r_loaded_hz < excited.f_notch_hz


def test_lossless_notch_reaches_zero(curves):
    _, ground, _ = curves
    assert np.min(np.abs(ground.s21)) < 0.02  # grid-limited depth


def test_fwhm_matches_analytic_width(curves):
    coupling, ground, excited = curves
    for curve in (ground, excited):
        f_state = coupling.f_r_loaded_hz + (
            coupling.chi_total_hz if curve.qubit_state == "ground" else -coupling.chi_total_hz
        )
        expected = f_state / coupling.q_ext  # lossless: Q_total = Q_ext
        assert curve.fwhm_hz == pytest.approx(expected, rel=2e-2)


def test_magnitude_bounded_by_one(curves):
    _, ground, excited = curves
    for curve in (ground, excited):
        assert np.max(np.abs(curve.s21)) <= 1.0 + 1e-12
    for q_internal in (1e6, 1e4, 10.0):
        curve = s21_curve(_coupling(), "ground", 20e6, 501, q_internal)
        assert np.max(np.abs(curve.s21)) <= 1.0 + 1e-12


def test_internal_loss_lifts_the_dip():
    coupling = _coupling()
    q_internal = 1e4
    curve = s21_curve(coupling, "ground", 20e6, 8001, q_internal)
    q_total = 1.0 / (1.0 / coupling.q_ext + 1.0 / q_internal)
    expected_min = 1.0 - q_total / coupling.q_ext
    assert np.min(np.abs(curve.s21)) == pytest.approx(expected_min, abs=5e-3)


def test_far_detuned_transmission_recovers():
    coupling = _coupling()
    curve = s21_curve(coupling, "ground", 60e6, 6001)
    f_state = coupling.f_r_loaded_hz + coupling.chi_total_hz
    far = np.abs(curve.frequency_hz - f_state) >= 20.0 * coupling.kappa_hz
    assert far.any()
    assert np.all(np.abs(curve.s21)[far] > 0.99)


def test_state_swap_mirrors_curve_about_loaded_resonance(curves):
    coupling, ground, excited = curves
    # symmetric grid around f_loaded: |S21_g(f* - d)| == |S21_e(f* + d)|
    # up to the O(chi/f) width difference between the two dips
    mirrored = np.abs(excited.s21)[::-1]
    residual_scale = 2.0 * abs(coupling.chi_total_hz) / coupling.f_r_loaded_hz
    assert np.max(np.abs(np.abs(ground.s21) - mirrored)) < residual_scale
    # the notch positions themselves mirror exactly
    offset_g = ground.f_notch_hz - coupling.f_r_loaded_hz
    offset_e = excited.f_notch_hz - coupling.f_r_loaded_hz
    assert offset_g + offset_e == pytest.approx(0.0, abs=10.0)


def test_zero_shift_gives_zero_separation():
    coupling = _coupling(chi_total=0.0)
    ground = s21_curve(coupling, "ground", 20e6, 2001)
    excited = s21_curve(coupling, "excited", 20e6, 2001)
    assert notch_separation(ground, excited) == 0.0


def test_separation_scales_with_coupling_squared():
    # chi scales with g^2, so doubling g quadruples the dip separation
    chi = -1.4e6
    sep_1 = notch_separation(
        s21_curve(_coupling(chi_total=chi), "ground", 40e6, 8001),
        s21_curve(_coupling(chi_total=chi), "excited", 40e6, 8001),
    )
    sep_2 = notch_separation(
        s21_curve(_coupling(chi_total=4 * chi), "ground", 40e6, 8001),
        s21_curve(_coupling(chi_total=4 * chi), "excited", 40e6, 8001),
    )
    assert sep_2 == pytest.approx(4.0 * sep_1, rel=1e-2)


def test_flat_curve_rejected():
    # internal Q so small that the notch is far wider than the span:
    # the sampled curve is flat to 1e-9
    coupling = _coupling()
    ground = s21_curve(coupling, "ground", 20e6, 501, q_internal=1e-3)
    excited = s21_curve(coupling, "excited", 20e6, 501, q_internal=1e-3)
    with pytest.raises(ExtractionError):
        notch_separation(ground, excited)


def test_mismatched_grids_rejected():
    coupling = _coupling()
    a = s21_curve(coupling, "ground", 20e6, 101)
    b = s21_curve(coupling, "excited", 20e6, 102)
    with pytest.raises(DomainError):
        notch_separation(a, b)


def test_narrow_span_warns():
    coupling = _coupling()
    with pytest.warns(NarrowSpanWarning):
        s21_curve(coupling, "ground", 2.0 * coupling.kappa_hz, 101)


def test_bad_arguments_rejected():
    coupling = _coupling()
    with pytest.raises(DomainError):
        s21_curve(coupling, "superposition", 20e6, 101)
    with pytest.raises(DomainError):
        s21_curve(coupling, "ground", -1.0, 101)
    for span in (math.inf, math.nan):
        with pytest.raises(DomainError, match="span must be positive and finite"):
            s21_curve(coupling, "ground", span, 101)
    # f_loaded - span/2 would be at or below 0 Hz
    for span in (2.0 * coupling.f_r_loaded_hz, 1.2e10, 1.7e308):
        with pytest.raises(DomainError, match="reaches 0 Hz"):
            s21_curve(coupling, "ground", span, 101)
    with pytest.raises(DomainError):
        s21_curve(coupling, "ground", 20e6, 2)
    with pytest.raises(DomainError):
        s21_curve(coupling, "ground", 20e6, 101, q_internal=0.0)


def test_points_ascending_and_curve_shape(curves):
    _, ground, _ = curves
    assert np.all(np.diff(ground.frequency_hz) > 0)
    assert ground.frequency_hz.shape == ground.s21.shape


def test_csv_export(tmp_path, curves):
    _, ground, _ = curves
    path = tmp_path / "curve.csv"
    write_curve_csv(ground, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + ground.frequency_hz.shape[0]
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        # plain decimal notation only
        assert "e" not in line and "E" not in line
    frequency = [float(line.split(",")[0]) for line in lines[1:]]
    assert frequency == sorted(frequency)
    # round-trip a sample row
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(ground.frequency_hz[0], abs=1e-5)
    assert float(cells[3]) == pytest.approx(
        math.hypot(float(cells[1]), float(cells[2])), abs=2e-9
    )


def test_span_near_float_limit_is_a_numerical_failure():
    # the grid is finite but 2 Q (f - f_0)/f_0 overflows at an extreme Q_ext,
    # which made NaN samples
    with pytest.raises(FloatingPointError, match="S21 is not finite"):
        s21_curve(_coupling(q_ext=1e300), "ground", 1e9, 5)


def _reference_csv(curve):
    lines = [CSV_HEADER]
    for f, value in zip(curve.frequency_hz, curve.s21):
        lines.append(f"{f:.6f},{value.real:.9f},{value.imag:.9f},{abs(value):.9f}")
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_per_row_formatting(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "curve.csv"
    lossy = 0
    for i in range(200):
        coupling = _coupling(
            chi_total=rng.choice((-1.0, 1.0)) * rng.uniform(0.2e6, 3e6),
            q_ext=rng.uniform(1e3, 1e5),
            f_loaded=rng.uniform(4e9, 8e9),
        )
        q_internal = rng.uniform(1e3, 1e6) if i % 3 == 0 else math.inf
        lossy += math.isfinite(q_internal)
        curve = s21_curve(
            coupling, ("ground", "excited")[i % 2], rng.uniform(10e6, 40e6),
            rng.randint(1001, 3001), q_internal,
        )
        write_curve_csv(curve, path)
        assert path.read_bytes() == _reference_csv(curve).encode("ascii"), i
    assert lossy >= 60
