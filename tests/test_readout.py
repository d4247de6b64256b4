import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqedkit import (
    CouplingParameters,
    DomainError,
    ExtractionError,
    NarrowSpanWarning,
    notch_separation,
    s21_curve,
    write_curve_csv,
)
from cqedkit import readout
from cqedkit.readout import (
    CSV_HEADER,
    MAX_S21_POINTS,
    _CSV_ROW,
    _csv_body,
    _fwhm_of_dip,
    _refined_minimum,
)


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


def test_the_point_bound_is_checked_before_the_grid_is_built(monkeypatch):
    class GridBuilt(Exception):
        pass

    def no_grid(*args, **kwargs):
        raise GridBuilt

    # the largest curve passes validation; only the grid it would then build is refused
    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(GridBuilt):
        s21_curve(_coupling(), "ground", 20e6, MAX_S21_POINTS)
    with pytest.raises(DomainError, match=f"^S21 takes at most {MAX_S21_POINTS} points"):
        s21_curve(_coupling(), "ground", 20e6, MAX_S21_POINTS + 1)


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


def test_csv_bytes_where_frequency_rows_fall_back(tmp_path):
    # f x 10^6 reaches 2^62 at about 4.6 THz: above it every row is left to
    # _CSV_ROW; a grid across it mixes the two paths
    path = tmp_path / "curve.csv"
    for f_loaded in (2e13, 2.0**62 / 1e6):
        curve = s21_curve(_coupling(q_ext=1e5, f_loaded=f_loaded), "ground", 1e9, 2001)
        write_curve_csv(curve, path)
        assert path.read_bytes() == _reference_csv(curve).encode("ascii"), f_loaded
        re, im = curve.s21.real, curve.s21.imag
        _, fallback = _csv_body(np.stack((curve.frequency_hz, re, im, np.hypot(re, im))))
        above = curve.frequency_hz * 1e6 >= 2.0**62
        assert above.any() and fallback[above].all(), f_loaded
        if f_loaded < 1e13:
            assert 0 < fallback.sum() < fallback.shape[0]


def test_csv_written_in_chunks_is_the_csv_written_as_one(tmp_path, monkeypatch):
    # on a grid across 2^62 / 10^6 Hz, rows 0-999 are formatted in bulk and rows
    # 1000-2000 left to _CSV_ROW; chunks of 8 rows put a boundary inside each run
    # and one between them, and leave row 2000 alone in the last chunk
    curve = s21_curve(_coupling(q_ext=1e5, f_loaded=2.0**62 / 1e6), "ground", 1e9, 2001)
    re, im = curve.s21.real, curve.s21.imag
    _, fallback = _csv_body(np.stack((curve.frequency_hz, re, im, np.hypot(re, im))))
    sides = {(bool(fallback[i - 1]), bool(fallback[i])) for i in range(8, 2001, 8)}
    assert sides == {(False, False), (False, True), (True, True)}
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    write_curve_csv(curve, whole)  # 2001 rows are one chunk
    monkeypatch.setattr(readout, "_CSV_CHUNK_ROWS", 8)
    write_curve_csv(curve, chunked)
    assert chunked.read_bytes() == whole.read_bytes() == _reference_csv(curve).encode("ascii")


def test_csv_of_a_single_precision_curve_prints_its_double_values(tmp_path):
    # each sample prints as the Python complex it converts to, abs included
    curve = s21_curve(_coupling(), "ground", 20e6, 201)
    curve = replace(curve, s21=curve.s21.astype(np.complex64))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    rows = zip(curve.frequency_hz.tolist(), curve.s21.tolist())
    text = "".join(_CSV_ROW % (f, value.real, value.imag, abs(value)) for f, value in rows)
    assert path.read_text() == f"{CSV_HEADER}\n{text}"

def test_non_finite_cells_are_left_to_the_row_format():
    columns = np.array([[math.nan], [math.inf], [-math.inf], [0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        body, fallback = _csv_body(columns)
    assert body == (_CSV_ROW % (math.nan, math.inf, -math.inf, 0.5)).encode("ascii")
    assert fallback.tolist() == [True]


def _residual(x, decimals):
    scaled = Fraction(abs(x)) * 10**decimals
    return scaled - math.floor(scaled)


@settings(derandomize=True, max_examples=400, deadline=None)
# a minus sign for -0.0 and for a value that rounds to zero
@example(x=-0.0)
@example(x=-1e-12)
@example(x=5e-324)
# exact ties: 1/1024 x 10^9 = 976562.5 and 1/128 x 10^6 = 7812.5
@example(x=1 / 1024)
@example(x=-3 / 1024)
@example(x=1 / 128)
# a fraction that rounds up to the next integer, here to a fifth digit
@example(x=9999.9999999996)
@example(x=-0.9999999997)
# both sides of 2^52 and 2^53 after scaling by 10^6 and by 10^9
@example(x=np.nextafter(2.0**52 / 1e6, 0.0))
@example(x=np.nextafter(2.0**52 / 1e6, math.inf))
@example(x=np.nextafter(2.0**53 / 1e6, 0.0))
@example(x=np.nextafter(2.0**53 / 1e6, math.inf))
@example(x=np.nextafter(2.0**52 / 1e9, 0.0))
@example(x=np.nextafter(2.0**53 / 1e9, math.inf))
# out of range: |x| 10^d of 2^62 and more
@example(x=9.2e12)
@example(x=-1.7e308)
@example(x=1.7e308)
@given(
    x=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e13, max_value=1e13),
        st.integers(min_value=-(2**45), max_value=2**45).map(lambda k: k / 1024),
    )
)
def test_fixed_point_cells_match_percent_formatting(x):
    # x in the frequency column of one row and in the re column of the next
    columns = np.zeros((4, 2))
    columns[0, 0] = columns[1, 1] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        body, fallback = _csv_body(columns)
    first, second = body.decode("ascii").splitlines()
    assert first.split(",")[0] == "%.6f" % x
    assert second.split(",")[1] == "%.9f" % x
    assert body == (_CSV_ROW % (x, 0.0, 0.0, 0.0) + _CSV_ROW % (0.0, x, 0.0, 0.0)).encode()
    for row, decimals in ((0, 6), (1, 9)):
        residual = _residual(x, decimals)
        if residual == Fraction(1, 2) or abs(x) >= 2.0**62 / 10**decimals:
            assert fallback[row], (row, x)
        elif abs(residual - Fraction(1, 2)) > Fraction(1, 2**19) and abs(x) < 2.0**61 / 10**decimals:
            assert not fallback[row], (row, x)


def _fwhm_reference(frequency, power):
    # the first-crossing search that s21_curve's FWHM replaced, kept as the
    # reference for it
    i_min = int(np.argmin(power))
    half = 0.5 * (power[i_min] + 1.0)

    def crossing(segment_f, segment_p):
        above = np.nonzero(segment_p >= half)[0]
        if above.shape[0] == 0:
            return math.nan
        k = above[0]
        if k == 0:
            return float(segment_f[0])
        f0, f1 = segment_f[k - 1], segment_f[k]
        p0, p1 = segment_p[k - 1], segment_p[k]
        if p1 == p0:
            return float(f1)
        return float(f0 + (half - p0) * (f1 - f0) / (p1 - p0))

    left = crossing(frequency[: i_min + 1][::-1], power[: i_min + 1][::-1])
    right = crossing(frequency[i_min:], power[i_min:])
    if math.isnan(left) or math.isnan(right):
        return math.nan
    return right - left


def test_fwhm_matches_first_crossing_reference():
    rng = random.Random(12)
    kinds = {"nan": 0, "flat": 0, "width": 0}
    for i in range(400):
        coupling = _coupling(
            chi_total=rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(4.0, 7.0),
            q_ext=10 ** rng.uniform(2.0, 6.0),
            f_loaded=10 ** rng.uniform(9.3, 10.3),
        )
        # spans from a tenth of kappa (no crossing on the grid) to 300 kappa;
        # q_internal = 1e-14 gives a curve that is exactly 1
        span = min(coupling.kappa_hz * 10 ** rng.uniform(-1.0, 2.5), coupling.f_r_loaded_hz)
        points = rng.randint(3, 12) if i % 2 else rng.randint(13, 3001)
        q_internal = (math.inf, 1e-14, 10 ** rng.uniform(-16.0, 8.0))[i % 3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NarrowSpanWarning)
            curve = s21_curve(coupling, ("ground", "excited")[i % 2], span, points, q_internal)
        expected = _fwhm_reference(curve.frequency_hz, np.abs(curve.s21) ** 2)
        if math.isnan(expected):
            kinds["nan"] += 1
            assert math.isnan(curve.fwhm_hz), i
        elif expected == 0.0:
            kinds["flat"] += 1
            assert curve.fwhm_hz == 0.0, i
        else:
            kinds["width"] += 1
            # the two interpolations round in a different order; each edge is
            # within a few ulps of the grid's top frequency
            assert abs(curve.fwhm_hz - expected) <= 4 * np.spacing(curve.frequency_hz[-1]), i
    assert min(kinds.values()) >= 60, kinds


def test_fwhm_edge_cases():
    frequency = np.arange(5.0)
    # a crossing that lands on a sample
    assert _fwhm_of_dip(frequency, np.array([1.0, 0.5, 0.0, 0.5, 1.0])) == 2.0
    # no point below half depth: a flat curve has zero width
    assert _fwhm_of_dip(frequency, np.ones(5)) == 0.0
    # an edge sample below half depth: the crossing lies off the grid
    assert math.isnan(_fwhm_of_dip(frequency, np.array([0.4, 0.3, 0.0, 0.5, 1.0])))
    assert math.isnan(_fwhm_of_dip(frequency, np.array([1.0, 0.5, 0.0, 0.1, 0.4])))


# magnitudes from a pool of a few values give ties and plateaus; subnormal
# ones, small multiples of 2^-1074 among them, reach the range where halving
# a difference of samples would round.
# |S21| lies in [0, 2].
_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.integers(min_value=1, max_value=7).map(lambda k: k * 5e-324),
    st.floats(min_value=1e-300, max_value=1e300),
)


@settings(derandomize=True, max_examples=200, deadline=None)
# halving 3 * 2^-1074 rounds up, which refined this minimum to 1.667
@example(magnitude=[1.5e-323, 0.0, 0.0, 5e-324], start=0.0, span=3.0)
@given(
    magnitude=st.lists(_MAGNITUDE, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool) | _MAGNITUDE, min_size=3, max_size=40)
    ),
    start=st.floats(min_value=1e3, max_value=1e10),
    span=st.floats(min_value=1e-3, max_value=1e9),
)
def test_refined_minimum_stays_within_half_a_step(magnitude, start, span):
    frequency = np.linspace(start, start + span, len(magnitude))
    magnitude = np.array(magnitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        refined = _refined_minimum(frequency, magnitude)
    i = int(np.argmin(magnitude))
    half_step = 0.5 * float(np.diff(frequency).max())
    assert abs(refined - frequency[i]) <= half_step * (1.0 + 1e-12) + np.spacing(frequency[-1])

