"""Orchestration: design files, the full derivation pipeline, sweeps,
target-driven tuning, reference comparisons, and report emission.

Everything here is deterministic: the same design file produces a
byte-identical report (fixed field order, floats rounded to 9
significant digits on output).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Any, Callable, Collection, Iterator, Mapping

import numpy as np

from . import __version__
from .constants import _is_false, _select, junction_inductance_to_critical_current
from .coupling import (
    _MIN_DISPERSIVE_RATIO,
    ORACLE_MIN_RATIO,
    CouplingParameters,
    _batched_oracle,
    _near_resonance,
    _oracle_applies,
    coupled_spectrum_oracle,
    coupling_strength,
    dispersive_shift,
    external_quality_factor,
    purcell_t1,
    zero_point_voltage,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    ConvergenceWarning,
    DispersiveValidityWarning,
    DomainError,
    LabelingError,
)
from .lumped import DesignInputs, LumpedCircuit, build_lumped_circuit
from .spectrum import (
    PerturbativeTransmon,
    TransmonSpectrum,
    _batched_spectra,
    _spectrum,
    exact_transmon_spectrum,
    perturbative_levels,
)

TOOL_NAME = "cqedkit"


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class DerivedParameters:
    """Every derived quantity for one design, from a single pipeline run.

    A record, or a field of ``coupling``, whose stage did not run is None.
    """

    lumped: LumpedCircuit
    transmon_perturbative: PerturbativeTransmon | None
    transmon_exact: TransmonSpectrum | None
    coupling: CouplingParameters
    chi_exact_hz: float | None


@dataclass(frozen=True)
class EprReference:
    """Field-simulation reference dataset shipped with the toolkit."""

    f_01_hz: float
    f_r_hz: float
    alpha_hz: float
    chi_hz: float


EPR_REFERENCE = EprReference(
    f_01_hz=4.43e9,
    f_r_hz=5.17e9,
    alpha_hz=-193.43e6,
    chi_hz=-1.37e6,
)

# expected percent gaps between the analytic chain and the EPR reference,
# and the tolerance (in percentage points) for reproducing them.
# The chi entry is the chain's own gap on the shipped inputs, not the
# paper's printed 4.9%: that gap belongs to chi = -1.44 MHz, which needs a
# 457 MHz detuning. With f_r = 5.01 GHz fixed and the printed E_j = 14.86 GHz,
# E_c = 188.80 MHz, f_01 = sqrt(8 E_j E_c) - E_c lies in 4.5479-4.5496 GHz,
# so the detuning is 460-462 MHz (461.07 MHz at full precision) and
# chi = g^2 alpha / (Delta (Delta + alpha)) = -1.4141 MHz, a 3.12% gap.
EXPECTED_EPR_GAPS_PERCENT = {
    "f_01": 2.6,
    "f_r": 3.2,
    "alpha": 2.5,
    "chi": 3.1,
}
EPR_GAP_TOLERANCE_PP = 0.3


@dataclass(frozen=True)
class EprGapEntry:
    quantity: str
    analytic: float
    reference: float
    gap_percent: float
    expected_percent: float
    within_expected: bool


# a sweep holds 8 bytes a value, the grid's and each output's: 184 MB for all 22
# closed forms at the bound, and the sweep that builds them peaks near 330 MB
MAX_SWEEP_STEPS = 10**6
_SWEEP_CSV_CHUNK_ROWS = 2**14  # rows of cells sweep_csv_lines holds as Python floats at once


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter grid sweep: ``parameter`` over [lo, hi] in ``steps`` points."""

    parameter: str
    lo: float
    hi: float
    steps: int
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_parameter(self.parameter)
        for name in self.outputs:
            _check_quantity(name)
        if not self.outputs:
            raise DomainError("sweep needs at least one output quantity")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise DomainError(f"invalid sweep range [{self.lo}, {self.hi}]")
        if self.steps < 2 and not (self.steps == 1 and self.lo == self.hi):
            raise DomainError("sweep needs steps >= 2 (steps = 1 only when lo == hi)")
        if self.steps > MAX_SWEEP_STEPS:
            raise DomainError(f"sweep takes at most {MAX_SWEEP_STEPS} steps, got {self.steps}")


@dataclass(frozen=True)
class SweepRow:
    parameter_value: float
    outputs: Mapping[str, float]
    status: str  # "ok" or "error"
    error: str = ""


class SweepRows(Sequence[SweepRow]):
    """A sweep's rows, a read-only view of its columns: ``rows[i]`` builds row i's
    ``SweepRow`` (Python floats; an error row has no outputs) when it is asked for.

    ``values`` is the grid, ``columns`` one float64 array per output in the order
    the spec lists them, NaN in a failed row's slot, and ``errors`` each failed
    row's ``"Type: message"`` by row index; none of them can be written. Two
    views are equal when their columns hold the same bits and their errors the
    same texts; a NaN slot is equal only to a NaN at the same place.
    """

    __slots__ = ("values", "columns", "errors")

    def __init__(
        self, values: np.ndarray, columns: Mapping[str, np.ndarray], errors: Mapping[int, str]
    ) -> None:
        for column in (values, *columns.values()):
            column.flags.writeable = False
        self.values = values
        self.columns = MappingProxyType(dict(columns))
        self.errors = MappingProxyType(dict(errors))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        picked = range(len(self))[index]  # an index or a slice, as a tuple takes it
        return tuple(map(self._row, picked)) if type(picked) is range else self._row(picked)

    def __iter__(self) -> Iterator[SweepRow]:
        return map(self._row, range(len(self)))

    def _row(self, i: int) -> SweepRow:
        value = float(self.values[i])
        if i in self.errors:
            return SweepRow(value, {}, status="error", error=self.errors[i])
        outputs = {name: float(column[i]) for name, column in self.columns.items()}
        return SweepRow(value, outputs, status="ok")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepRows):
            return NotImplemented
        mine = (self.values, *self.columns.values())
        theirs = (other.values, *other.columns.values())
        return (
            list(self.columns) == list(other.columns)
            and self.errors == other.errors
            and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(mine, theirs))
        )

    def __repr__(self) -> str:
        return f"SweepRows({len(self)} rows, {len(self.errors)} failed)"


@dataclass(frozen=True)
class SweepResult:
    """A sweep as columns: ``rows`` is a ``SweepRows`` view of the grid ``values``,
    one float64 array per output (``columns``) and the failed rows' ``errors``."""

    spec: SweepSpec
    rows: SweepRows

    def _view(self) -> SweepRows:
        if not isinstance(self.rows, SweepRows):
            raise TypeError(f"sweep rows must be a SweepRows, not {type(self.rows).__name__}")
        return self.rows

    @property
    def values(self) -> np.ndarray:
        return self._view().values

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        return self._view().columns

    @property
    def errors(self) -> Mapping[int, str]:
        return self._view().errors


@dataclass(frozen=True)
class TuneSpec:
    """Vary ``vary`` inside ``bracket`` until ``target_quantity`` hits ``target_value``
    to ``rel_tol`` relative; ``tune`` steps by Chandrupatla's method."""

    vary: str
    target_quantity: str
    target_value: float
    bracket: tuple[float, float]
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_parameter(self.vary)
        _check_quantity(self.target_quantity)
        # an infinite target makes every tolerance test pass
        if not math.isfinite(self.target_value):
            raise DomainError(f"target value must be finite, got {self.target_value}")
        lo, hi = self.bracket
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise DomainError(f"bracket must satisfy lo < hi, got [{lo}, {hi}]")
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(
                f"relative tolerance must be positive and finite, got {self.rel_tol}"
            )


@dataclass(frozen=True)
class TuneResult:
    parameter: str
    parameter_value: float
    target_quantity: str
    target_value: float
    achieved_value: float
    iterations: int
    derived: DerivedParameters


# ---------------------------------------------------------------------------
# quantity and parameter registries

# the five lumped inputs: the keys every design file must hold, and the
# parameters a sweep or a tune may vary
SWEEPABLE_PARAMETERS = (
    "c_s_farad",
    "c_g_farad",
    "c_k_farad",
    "l_j_henry",
    "f_r_target_hertz",
)


def _check_parameter(name: str) -> None:
    if name not in SWEEPABLE_PARAMETERS:
        raise DomainError(
            f"unknown parameter {name!r}; choose one of {', '.join(SWEEPABLE_PARAMETERS)}"
        )


def _chi_exact_or_nan(derived: DerivedParameters) -> float:
    return math.nan if derived.chi_exact_hz is None else derived.chi_exact_hz


QUANTITIES: dict[str, Callable[[DerivedParameters], float]] = {
    "i_c_ampere": lambda d: junction_inductance_to_critical_current(d.lumped.inputs.l_j_henry),
    "e_j_hz": lambda d: d.lumped.e_j_hz,
    "e_c_hz": lambda d: d.lumped.e_c_hz,
    "ej_ec_ratio": lambda d: d.lumped.ej_ec_ratio,
    "c_r_farad": lambda d: d.lumped.c_r_farad,
    "l_r_henry": lambda d: d.lumped.l_r_henry,
    "c_sigma_farad": lambda d: d.lumped.c_sigma_farad,
    "beta": lambda d: d.lumped.beta,
    "f_01_hz": lambda d: d.transmon_perturbative.f_01_hz,
    "f_12_hz": lambda d: d.transmon_perturbative.f_12_hz,
    "anharmonicity_hz": lambda d: d.transmon_perturbative.anharmonicity_hz,
    "f_01_exact_hz": lambda d: d.transmon_exact.f_01_exact_hz,
    "anharmonicity_exact_hz": lambda d: d.transmon_exact.anharmonicity_exact_hz,
    "v_rms_volt": lambda d: d.coupling.v_rms_volt,
    "g_01_hz": lambda d: d.coupling.g_01_hz,
    "detuning_hz": lambda d: d.coupling.detuning_0_hz,
    "abs_detuning_hz": lambda d: abs(d.coupling.detuning_0_hz),
    "chi_01_hz": lambda d: d.coupling.chi_01_hz,
    "chi_12_hz": lambda d: d.coupling.chi_12_hz,
    "chi_total_hz": lambda d: d.coupling.chi_total_hz,
    "chi_exact_hz": _chi_exact_or_nan,
    "q_ext": lambda d: d.coupling.q_ext,
    "kappa_hz": lambda d: d.coupling.kappa_hz,
    "f_r_loaded_hz": lambda d: d.coupling.f_r_loaded_hz,
    "t1_seconds": lambda d: d.coupling.t1_purcell_seconds,
}
# each stage of derive, in the order it runs, and the stages whose results it
# reads; the oracle reads g_01 and the closed-form detuning for _oracle_applies
_STAGE_READS: dict[str, tuple[str, ...]] = {
    "lumped extraction": (),
    "perturbative levels": ("lumped extraction",),
    "zero-point voltage": ("lumped extraction",),
    "coupling strength": ("lumped extraction", "zero-point voltage"),
    "dispersive shift": ("perturbative levels", "coupling strength"),
    "quality factor": ("lumped extraction",),
    "relaxation estimate": ("perturbative levels", "coupling strength", "quality factor"),
    "exact diagonalization": ("lumped extraction",),
    "dressed-state oracle": ("exact diagonalization", "perturbative levels", "coupling strength"),
}
# the stage that makes each quantity
_MADE_BY: dict[str, str] = {
    **dict.fromkeys(
        ("i_c_ampere", "e_j_hz", "e_c_hz", "ej_ec_ratio", "c_r_farad", "l_r_henry",
         "c_sigma_farad", "beta"),
        "lumped extraction",
    ),
    **dict.fromkeys(
        ("f_01_hz", "f_12_hz", "anharmonicity_hz", "detuning_hz", "abs_detuning_hz"),
        "perturbative levels",
    ),
    "v_rms_volt": "zero-point voltage",
    "g_01_hz": "coupling strength",
    **dict.fromkeys(("chi_01_hz", "chi_12_hz", "chi_total_hz"), "dispersive shift"),
    **dict.fromkeys(("q_ext", "kappa_hz", "f_r_loaded_hz"), "quality factor"),
    "t1_seconds": "relaxation estimate",
    **dict.fromkeys(("f_01_exact_hz", "anharmonicity_exact_hz"), "exact diagonalization"),
    "chi_exact_hz": "dressed-state oracle",
}


def _closure(stage: str) -> frozenset[str]:
    """``stage`` and every stage it reads, directly or not."""
    need = {stage}
    for other in reversed(_STAGE_READS):  # a stage is listed after those it reads
        if other in need:
            need.update(_STAGE_READS[other])
    return frozenset(need)


# the stages each quantity needs, those of a full derive, and those a sweep
# batches itself in place of its column derive
_NEEDS = {name: _closure(stage) for name, stage in _MADE_BY.items()}
_EVERY_STAGE = frozenset(_STAGE_READS)
_EIGEN_STAGES = frozenset(("exact diagonalization", "dressed-state oracle"))


def _stages(quantities: Collection[str]) -> frozenset[str]:
    """The stages that ``quantities`` (keys of ``QUANTITIES``) need."""
    return frozenset().union(*[_NEEDS[name] for name in quantities])


def _check_quantity(name: str) -> None:
    if name not in QUANTITIES:
        raise DomainError(
            f"unknown quantity {name!r}; choose one of {', '.join(sorted(QUANTITIES))}"
        )


# ---------------------------------------------------------------------------
# design file I/O

_DESIGN_KEYS = frozenset(f.name for f in fields(DesignInputs))


def design_from_dict(data: Mapping[str, Any]) -> DesignInputs:
    """Build DesignInputs from a parsed design file."""
    unknown = sorted(set(data) - _DESIGN_KEYS)
    if unknown:
        raise DomainError(f"unknown design file key(s): {', '.join(unknown)}")
    missing = sorted(set(SWEEPABLE_PARAMETERS) - set(data))
    if missing:
        raise DomainError(f"design file missing key(s): {', '.join(missing)}")
    return DesignInputs(**data)


def design_to_dict(inputs: DesignInputs) -> dict[str, Any]:
    return {**vars(inputs), "geometry": dict(inputs.geometry)}


def load_design(path: str | Path) -> DesignInputs:
    """Load a design file (JSON, SI-unit field names)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DomainError(f"cannot read design file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
        raise DomainError(f"design file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"input nested too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"design file {path} must hold a JSON object")
    return design_from_dict(data)


def load_reference_design() -> DesignInputs:
    """The reference chip design shipped with the package (qubit_v1)."""
    text = resources.files("cqedkit").joinpath("data/qubit_v1.json").read_text("utf-8")
    return design_from_dict(json.loads(text))


def input_digest(inputs: DesignInputs) -> str:
    """SHA-256 of the canonical serialization of a design: compact JSON with
    sorted keys. A ``geometry`` dict whose keys do not compare, such as
    ``{3: 1.5, "a": 1}``, has its keys ordered by the strings json writes."""
    data = design_to_dict(inputs)
    try:
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    except TypeError:  # the keys did not sort, or json cannot encode a value
        canonical = json.dumps(_sorted_keys(data), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sorted_keys(obj: Any) -> Any:
    """``obj`` with each dict's keys in ``sort_keys`` order, or where they do
    not compare, in the order of the strings json writes for them (then by
    type, for ``3`` and ``"3"``)."""
    if isinstance(obj, dict):
        try:
            keys = sorted(obj)
        except TypeError:
            keys = sorted(obj, key=lambda key: (json.loads(_json_key(key)), type(key).__name__))
        return {key: _sorted_keys(obj[key]) for key in keys}
    if isinstance(obj, (list, tuple)):
        return [_sorted_keys(value) for value in obj]
    return obj


# ---------------------------------------------------------------------------
# derivation pipeline


def derive(
    inputs: DesignInputs,
    *,
    quantities: Collection[str] | None = None,
    solved: dict[tuple[Any, ...], Any] | None = None,
) -> DerivedParameters:
    """Run the derivation chain for one design.

    Stages, in this order: lumped extraction, perturbative levels,
    zero-point voltage, coupling strength, dispersive shift, quality
    factor, relaxation estimate, exact diagonalization, dressed-state
    oracle. The eigen stages come last, so a design that a closed form
    refuses raises before either runs, and neither solves nor warns for
    it. The oracle is skipped (chi_exact_hz = None) when the closed-form
    detuning is within 5 g_01 of the resonator, too close to degeneracy for
    dressed states to be labeled.

    Given ``quantities`` (keys of ``QUANTITIES``), only the stages that
    make them and the stages those read run (``_STAGE_READS``), so a
    design raises, and warns, only in those; a record, or a field of
    ``coupling``, whose stage did not run is None. ``quantities=None``
    runs every stage.

    ``inputs`` may also be a namespace of a design's fields as NumPy columns
    (the sweep batch; an exact quantity is then a ``DomainError``). Nothing
    raises or warns row by row: each row where the float call would raise
    in a stage that ran is NaN in every float field those stages made. The
    columns are not checked as ``DesignInputs`` checks a design's fields.

    ``solved`` is a dict that a caller keeps over calls on related designs,
    as ``tune`` and a sweep derived row by row do: it maps the inputs of
    each eigen stage to its result, so a stage whose inputs repeat (the
    transmon solve in a sweep of ``c_k_farad`` or ``f_r_target_hertz``)
    runs, and warns, only once.
    """
    if quantities is None:
        need = _EVERY_STAGE
    else:
        for name in quantities:
            _check_quantity(name)
        need = _stages(quantities)
    if solved is None:
        solved = {}
    f_r = inputs.f_r_target_hertz
    pert = exact = chi_exact = None
    v_rms = g_01 = detuning = chi_01 = chi_12 = chi_total = None
    q_ext = kappa = f_loaded = t1 = None
    try:
        stage = "lumped extraction"
        lumped = build_lumped_circuit(inputs)
        # an overflowed E_j/E_c or g would leave null fields in a report, and
        # an overflowed Q_ext a kappa of 0, which 2|chi|/kappa divides by
        ratio = lumped.ej_ec_ratio
        if (ok := abs(ratio) < math.inf) is not True and _is_false(ok):
            raise FloatingPointError(f"E_j/E_c is {ratio}")
        if (stage := "perturbative levels") in need:
            pert = perturbative_levels(lumped.e_j_hz, lumped.e_c_hz)
            detuning = pert.f_01_hz - f_r
        if (stage := "zero-point voltage") in need:
            v_rms = zero_point_voltage(f_r, lumped.c_r_farad)
        if (stage := "coupling strength") in need:
            g_01 = 0.0
            if (coupled := lumped.beta > 0.0) is True or not _is_false(coupled):
                g_01 = coupling_strength(lumped.beta, v_rms, lumped.e_j_hz, lumped.e_c_hz)
                if coupled is not True:  # a column: 0 where C_g = 0
                    g_01 = _select(coupled, g_01, 0.0)
            if (ok := ok & (abs(g_01) < math.inf)) is not True and _is_false(ok):
                raise FloatingPointError(f"g_01 is {g_01}")
        if (stage := "dispersive shift") in need:
            chi_01, chi_12, chi_total = dispersive_shift(g_01, pert.f_01_hz, pert.f_12_hz, f_r)
        if (stage := "quality factor") in need:
            q_ext, kappa, f_loaded = external_quality_factor(
                lumped.c_r_farad, lumped.l_r_henry, inputs.c_k_farad, inputs.r_load_ohm
            )
            if (ok := ok & (abs(q_ext) < math.inf)) is not True and _is_false(ok):
                raise FloatingPointError(f"Q_ext is {q_ext}")
            if (ok := ok & (kappa != 0.0)) is not True and _is_false(ok):
                raise FloatingPointError(f"kappa underflows to 0 at f_loaded = {f_loaded:.3g} Hz")
        if (stage := "relaxation estimate") in need:
            t1 = purcell_t1(detuning, g_01, q_ext, f_r)
        if (stage := "exact diagonalization") in need:
            if type(ok) is np.ndarray:
                raise DomainError("columns take only closed-form quantities")
            # two entries; the oracle's keys have four, so the stages never share one
            key: tuple[float, ...] = (lumped.e_j_hz, lumped.e_c_hz)
            if key not in solved:
                solved[key] = exact_transmon_spectrum(*key)
            exact = solved[key]
        if (stage := "dressed-state oracle") in need and _oracle_applies(g_01, detuning):
            key = (lumped.e_j_hz, lumped.e_c_hz, f_r, g_01)
            if key not in solved:
                solved[key] = coupled_spectrum_oracle(exact, f_r, g_01).chi_exact_hz
            chi_exact = solved[key]
    except (DomainError, ConvergenceError, LabelingError, ArithmeticError) as exc:
        raise type(exc)(f"{stage}: {exc}") from exc
    coupling = CouplingParameters(
        v_rms_volt=v_rms,
        g_01_hz=g_01,
        detuning_0_hz=detuning,
        chi_01_hz=chi_01,
        chi_12_hz=chi_12,
        chi_total_hz=chi_total,
        q_ext=q_ext,
        kappa_hz=kappa,
        f_r_loaded_hz=f_loaded,
        t1_purcell_seconds=t1,
    )
    if type(ok) is np.ndarray:  # columns: a row with a NaN, or a failed check, is NaN throughout
        records = lumped, pert, coupling  # pert, and a field of coupling, None if not made
        for record in records:
            for v in () if record is None else vars(record).values():
                if type(v) is np.ndarray:
                    ok = ok & (v == v)
                elif isinstance(v, float) and v != v:
                    ok = ok & False
        if not ok.all():
            lumped, pert, coupling = (
                None if record is None else replace(record, **{
                    k: _select(ok, v)
                    for k, v in vars(record).items()
                    if k != "inputs" and v is not None
                })
                for record in records
            )
    return DerivedParameters(
        lumped=lumped,
        transmon_perturbative=pert,
        transmon_exact=exact,
        coupling=coupling,
        chi_exact_hz=chi_exact,
    )


# ---------------------------------------------------------------------------
# reference comparison


def compare_to_epr(derived: DerivedParameters) -> tuple[EprGapEntry, ...]:
    """Percent gaps |analytic - reference| / analytic for the four quantities
    covered by the shipped field-simulation reference; the gap to an
    analytic value of 0 is inf."""
    pairs = (
        ("f_01", derived.transmon_perturbative.f_01_hz, EPR_REFERENCE.f_01_hz),
        ("f_r", derived.lumped.inputs.f_r_target_hertz, EPR_REFERENCE.f_r_hz),
        ("alpha", derived.transmon_perturbative.anharmonicity_hz, EPR_REFERENCE.alpha_hz),
        ("chi", derived.coupling.chi_total_hz, EPR_REFERENCE.chi_hz),
    )
    entries = []
    for name, value, reference in pairs:
        gap = abs(value - reference) / abs(value) * 100.0 if value else math.inf
        expected = EXPECTED_EPR_GAPS_PERCENT[name]
        entries.append(
            EprGapEntry(
                quantity=name,
                analytic=value,
                reference=reference,
                gap_percent=gap,
                expected_percent=expected,
                within_expected=abs(gap - expected) <= EPR_GAP_TOLERANCE_PP,
            )
        )
    return tuple(entries)


# ---------------------------------------------------------------------------
# sweeps and tuning


# the kinds of warning a sweep folds its kept rows' warnings into, in derive's
# order: the kind, its category and what it means
_FOLDED = (
    (
        f"detuning within {_MIN_DISPERSIVE_RATIO:.0f} g_01 of resonance",
        DispersiveValidityWarning,
        "dispersive formula unreliable",
    ),
    ("charge basis cutoff not converged", ConvergenceWarning, "exact levels unreliable"),
    (
        f"|detuning| within {ORACLE_MIN_RATIO:.0f} g_01",
        DispersiveValidityWarning,
        "dressed-state labels may be ambiguous",
    ),
)


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def sweep(inputs: DesignInputs, spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the derivation chain on a parameter grid, as columns.

    The grid is evaluated in one pass: a ``derive`` of the design's fields
    as columns, an input that does not vary as a float, for the closed
    forms among ``spec.outputs`` and what the eigen stages read (E_j and
    E_c, and for ``chi_exact_hz`` g_01 and the detuning), so that only the
    stages the outputs need run and refuse; the exact solve once per
    distinct (E_j, E_c), through the parity
    kernel ``exact_transmon_spectrum`` uses; the oracle once per distinct
    (E_j, E_c, f_r, g_01), stacked into one ``eigh``, each on the arrays of
    the distinct keys. Each row is bit for bit what ``derive`` gives for its
    point. One Python loop visits, in grid order, only the rows derived on
    their own: those the batch marks (one that a closed form refuses, which
    ``derive`` does before any eigen stage, one whose value ``DesignInputs``
    refuses, and a failed labeling), or every
    row when the grid or an input that does not vary is not a Python float,
    or when the column ``derive`` raises. These share one memo, which starts
    with the transmon solves the batch ran first on rows it keeps, write
    their outputs into their slots of the columns, and warn from ``derive``
    row by row. The rows the batch keeps are folded instead: each kind of
    warning ``derive`` would raise for them, a detuning within 10 g_01 (only
    when the outputs need the dispersive shift), an unconverged charge
    cutoff and a |detuning| within 5 g_01 in that order, is raised once
    after the loop, for the line that called ``sweep``. It
    names how many rows would warn of it, of how many, the parameter and
    the first and last of those rows' values. Only the stages
    ``spec.outputs`` need run, each eigen stage, and its warning, once per
    distinct input, so an eigen kind counts the row that first runs each.
    A row whose derivation fails is NaN in every column, its text is in
    ``errors``, and the sweep goes on. The result holds 8 bytes a value,
    taking the column ``derive``'s arrays as they are; ``rows`` builds a
    row's record when it is asked for.
    ``workers`` is checked (>= 1) and otherwise ignored, for callers such
    as the benchmark workloads that pass ``workers=1``.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    grid = _grid(spec.lo, spec.hi, spec.steps)
    n = len(grid)
    values = np.array(grid, dtype=float)  # the grid's floats; steps = 1 may hold lo's int
    errors: dict[int, str] = {}
    design = {
        name: getattr(inputs, name)
        for name in (*SWEEPABLE_PARAMETERS, "z_0_ohm", "r_load_ohm")
        if name != spec.parameter
    }
    need = _stages(spec.outputs)
    exact = {name for name in spec.outputs if _MADE_BY[name] in _EIGEN_STAGES}
    derived = None
    # an int mixes with another int by exact integer arithmetic in derive, and a
    # NumPy scalar rounds as its own type; the grid's points share grid[0]'s type
    if all(type(v) is float for v in (grid[0], *design.values())):
        design[spec.parameter] = values
        # C_g as a column makes g_01 one, so dispersive_shift, the stage that warns, takes columns
        design["c_g_farad"] = np.atleast_1d(design["c_g_farad"])
        # the closed forms asked for, and what the eigen batch reads: E_j and E_c, from
        # the lumped stage every derive runs, and for the oracle g_01 and the detuning
        reads = [name for name in spec.outputs if name not in exact]
        if "dressed-state oracle" in need:
            reads += ["g_01_hz", "detuning_hz"]
        with np.errstate(all="ignore"):
            try:
                derived = derive(SimpleNamespace(**design), quantities=reads)
            except (ValueError, ArithmeticError, RuntimeError):  # a float stage: every row raises
                pass
    solved: dict[tuple[float, ...], Any] = {}  # derive's memo over the rows derived on their own
    # by kind, in derive's order, the rows where derive row by row would warn: near
    # resonance, and at the first row of each eigen stage's key (the row that solves
    # it), an unconverged charge cutoff and ambiguous dressed labels; and the rows
    # derived on their own
    near, unconverged, ambiguous, lone = np.zeros((4, n), dtype=bool)
    if derived is None:
        columns = {name: np.empty(n) for name in spec.outputs}
        lone[:] = True
    else:
        columns = {}
        lumped, pert, coupling = derived.lumped, derived.transmon_perturbative, derived.coupling
        f_r = design["f_r_target_hertz"]
        with np.errstate(all="ignore"):
            for name in spec.outputs:
                value = math.nan if name in exact else QUANTITIES[name](derived)
                columns[name] = _column(value, n, [values, *columns.values()])
            if "dispersive shift" in need:  # NaN where no warning
                near_hz = _near_resonance(coupling.g_01_hz, pert.f_01_hz, pert.f_12_hz, f_r)
                near[:] = near_hz == near_hz
            if "dressed-state oracle" in need:
                applies = _oracle_applies(coupling.g_01_hz, coupling.detuning_0_hz)
        # derive's NaN, a row that a closed form refuses before any eigen stage, and a
        # value DesignInputs refuses, which no stage that ran may read (c_k_farad <= 0)
        refused = values < 0.0 if spec.parameter == "c_g_farad" else values <= 0.0
        lone[:] = (lumped.e_j_hz != lumped.e_j_hz) | refused | ~np.isfinite(values)
        if exact:
            ej, ec = (np.broadcast_to(a, n) for a in (lumped.e_j_hz, lumped.e_c_hz))
            good = np.flatnonzero(~lone)
            first, spectrum_of = _distinct(ej[good], ec[good])
            spectrum_rows = good[first]
            levels, cutoff, needed = _batched_spectra(ej[spectrum_rows], ec[spectrum_rows])
            if "f_01_exact_hz" in exact:
                columns["f_01_exact_hz"][good] = levels[spectrum_of, 1]
            if "anharmonicity_exact_hz" in exact:
                anharmonicity = levels[:, 2] - 2.0 * levels[:, 1]
                columns["anharmonicity_exact_hz"][good] = anharmonicity[spectrum_of]
            unconverged[spectrum_rows[cutoff < needed]] = True
            if "chi_exact_hz" in exact:
                f_r, g, applies = (np.broadcast_to(a, n) for a in (f_r, coupling.g_01_hz, applies))
                asked = applies[good]
                asks = good[asked]
                first, oracle_of = _distinct(spectrum_of[asked], f_r[asks], g[asks])
                oracle_rows = asks[first]
                chi, ambiguous_hz = _batched_oracle(
                    levels[spectrum_of[asked][first]], f_r[oracle_rows], g[oracle_rows]
                )
                columns["chi_exact_hz"][asks] = chi[oracle_of]
                failed = np.isnan(chi)[oracle_of]  # a failed labeling
                lone[asks[failed]] = True
                for k in np.unique(spectrum_of[asked][failed]).tolist():  # the failed rows' solves
                    if not lone[row := spectrum_rows[k]]:  # else that failed row solves, and warns
                        key = float(ej[row]), float(ec[row])
                        solved[key] = _spectrum(levels[k].tolist(), 0.0, int(cutoff[k]))
                ambiguous[oracle_rows[ambiguous_hz == ambiguous_hz]] = True
    for i in np.flatnonzero(lone).tolist():  # under NumPy's default error state, as derive runs
        _sweep_row(inputs, spec, grid[i], solved, columns, errors, i)
    for flagged, (kind, category, consequence) in zip((near, unconverged, ambiguous), _FOLDED):
        rows = np.flatnonzero(flagged & ~lone)
        if len(rows):
            first_value, last_value = values[rows[[0, -1]]].tolist()
            warnings.warn(
                f"{kind} in {len(rows)} of {n} rows, {spec.parameter} {first_value:.9g} "
                f"to {last_value:.9g}; {consequence}",
                category,
                stacklevel=2,
            )
    return SweepResult(spec, SweepRows(values, columns, errors))


def _column(value: Any, n: int, taken: Collection[np.ndarray]) -> np.ndarray:
    """``value`` as a float64 column of ``n`` rows that no other column shares: a
    column the column ``derive`` made is taken as it is, not copied."""
    if (
        type(value) is np.ndarray
        and value.shape == (n,)
        and value.dtype == np.float64
        and value.flags.writeable
        and all(value is not column for column in taken)
    ):
        return value
    column = np.empty(n)
    column[...] = value
    return column


def _distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct tuple of the columns' rows, as ``==`` tells
    floats apart, and each row's index into those first rows."""
    order = np.lexsort(columns)  # stable: a run of equal tuples starts at its first row
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    index = np.empty(len(order), dtype=int)
    index[order] = np.cumsum(new) - 1
    return order[new], index


def _sweep_row(
    inputs: DesignInputs,
    spec: SweepSpec,
    value: float,
    solved: dict[tuple[float, ...], Any],
    columns: dict[str, np.ndarray],
    errors: dict[int, str],
    i: int,
) -> None:
    """Write the row at ``value`` into slot ``i``: its outputs, or NaN and its error text."""
    try:
        design = replace(inputs, **{spec.parameter: value})
        derived = derive(design, quantities=spec.outputs, solved=solved)
        outputs = {name: QUANTITIES[name](derived) for name in columns}
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        errors[i] = f"{type(exc).__name__}: {exc}"
        outputs = dict.fromkeys(columns, math.nan)
    for name, output in outputs.items():
        columns[name][i] = output


TUNE_MAX_ITERATIONS = 200  # interior steps before tune gives up
_EPSILON = sys.float_info.epsilon


def tune(inputs: DesignInputs, spec: TuneSpec) -> TuneResult:
    """Vary one design parameter inside a bracket until a derived quantity hits a target.

    Step 0 derives at the bracket's low end and step 1 at its high end; the
    two must straddle the target. Each later step derives inside the bracket
    that still straddles it, by Chandrupatla's method (Adv. Eng. Softw. 28,
    145 (1997)): the root of the inverse quadratic through the last three
    points where they are monotone enough for it, else the midpoint, and the
    secant root at the first interior step. Convergence is declared when the
    achieved quantity matches the target to ``spec.rel_tol`` relative. Each
    step runs only the stages the target quantity needs, and an eigen stage
    solved at the tuned value is reused when the returned design is fully
    derived there.
    """
    quantity = QUANTITIES[spec.target_quantity]
    target = spec.target_value
    tolerance = spec.rel_tol * max(abs(target), 1e-300)
    solved: dict[tuple[Any, ...], Any] = {}
    # the latest point a, the bracket's other end b and the point a replaced,
    # c, each with its miss, achieved - target: b's miss has the other sign
    a = f_a = b = f_b = c = f_c = math.nan
    for step in range(TUNE_MAX_ITERATIONS + 2):
        value = spec.bracket[step] if step < 2 else _chandrupatla_step(a, f_a, b, f_b, c, f_c)
        if value is None:
            lo, hi = sorted((a, b))
            raise ConvergenceError(
                f"{spec.target_quantity} changes sign between adjacent {spec.vary} values "
                f"{lo!r} and {hi!r} without reaching {target:.9g}: a jump, such as "
                "the chi pole at f_12 = f_r, not a root"
            )
        design = replace(inputs, **{spec.vary: value})
        achieved = quantity(derive(design, quantities=(spec.target_quantity,), solved=solved))
        if math.isnan(achieved):  # a NaN has no side of the target
            raise ConvergenceError(
                f"{spec.target_quantity} is undefined at {spec.vary} = {value!r}"
            )
        if abs(achieved - target) <= tolerance:
            derived = derive(design, solved=solved)
            iteration = max(step - 1, 0)
            return TuneResult(
                spec.vary, value, spec.target_quantity, target, achieved, iteration, derived
            )
        miss = achieved - target
        crossed = math.copysign(1.0, miss) != math.copysign(1.0, f_a)
        if step == 0:
            q_lo = achieved
        elif step == 1:
            if not crossed:
                raise BracketingError(
                    f"{spec.target_quantity} does not change sign across the bracket: "
                    f"{spec.target_quantity}({a:g}) = {q_lo:.9g}, "
                    f"{spec.target_quantity}({value:g}) = {achieved:.9g}, target {target:.9g}"
                )
            b, f_b = a, f_a
        elif crossed:
            b, f_b, c, f_c = a, f_a, b, f_b
        else:
            c, f_c = a, f_a
        a, f_a = value, miss
    raise ConvergenceError(
        f"tune did not reach {spec.target_quantity} = {target:.9g} "
        f"within {TUNE_MAX_ITERATIONS} iterations"
    )


def _chandrupatla_step(
    a: float, f_a: float, b: float, f_b: float, c: float, f_c: float
) -> float | None:
    """The next point strictly between a and b, or None when they are adjacent floats.

    With c not yet known (NaN) it is the secant root; then the inverse
    quadratic root where Chandrupatla's test finds a, b and c monotone
    enough, else the midpoint, as also when a root lands on a or b. As in
    Chandrupatla's paper, the fraction t of the way from a to b is clamped
    to [t_min, 1 - t_min], with t_min = 2 eps |larger end| / |b - a|, so
    that no step stalls on an end: the end it replaces moves by a few ulp
    at least.
    """
    if math.isnan(c):
        t = f_a / (f_a - f_b)
    else:
        xi = (a - b) / (c - b)
        phi = (f_a - f_b) / (f_c - f_b)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = f_a / (f_b - f_a) * f_c / (f_b - f_c) + (c - a) / (b - a) * f_a / (
                f_c - f_a
            ) * f_b / (f_c - f_b)
    t_min = 2.0 * _EPSILON * max(abs(a), abs(b)) / abs(b - a)
    value = a + min(max(t, t_min), 1.0 - t_min) * (b - a) if 0.0 < t < 1.0 else math.nan
    if not min(a, b) < value < max(a, b):
        value = 0.5 * (a + b)
        if value == a or value == b:
            return None
    return value


# ---------------------------------------------------------------------------
# report emission

# reference expectations for the shipped qubit_v1 design: quantity name,
# expected value, relative tolerance
REFERENCE_TARGETS: tuple[tuple[str, float, float], ...] = (
    ("i_c_ampere", 29.92e-9, 0.001),
    ("e_j_hz", 14.86e9, 0.001),
    ("e_c_hz", 188.80e6, 0.005),
    ("c_r_farad", 499e-15, 0.01),
    ("l_r_henry", 2.03e-9, 0.01),
    ("f_01_hz", 4.55e9, 0.003),
    ("abs_detuning_hz", 457e6, 0.01),
    ("g_01_hz", 47.38e6, 0.01),
    ("chi_total_hz", -1.44e6, 0.02),
    ("q_ext", 4432.0, 0.05),
    ("kappa_hz", 1.12e6, 0.05),
    ("t1_seconds", 13e-6, 0.05),
)
REFERENCE_RATIO_BOUNDS = ("ej_ec_ratio", 78.0, 80.0)


def _summary_values(derived: DerivedParameters) -> list[tuple[float, bool]]:
    """``(value, within_tol)`` of each row of the report's ``summary``, which
    sets derived quantities side by side with the reference targets:
    ``REFERENCE_TARGETS``, then ``REFERENCE_RATIO_BOUNDS``."""
    pairs: list[tuple[float, bool]] = []
    for name, expected, rel_tol in REFERENCE_TARGETS:
        value = QUANTITIES[name](derived)
        compare = abs(value) if name == "chi_total_hz" else value
        target = abs(expected) if name == "chi_total_hz" else expected
        ok = math.isfinite(value) and abs(compare - target) <= rel_tol * abs(target)
        pairs.append((value, bool(ok)))
    name, lo, hi = REFERENCE_RATIO_BOUNDS
    ratio = QUANTITIES[name](derived)
    pairs.append((ratio, bool(lo <= ratio <= hi)))
    return pairs


def _refuse_partial(derived: DerivedParameters) -> None:
    coupling = derived.coupling
    made = (  # a result of each stage but the oracle, in derive's order
        derived.lumped,
        derived.transmon_perturbative,
        coupling.v_rms_volt,
        coupling.g_01_hz,
        coupling.chi_total_hz,
        coupling.q_ext,
        coupling.t1_purcell_seconds,
        derived.transmon_exact,
    )
    missing = [stage for stage, result in zip(_STAGE_READS, made) if result is None]
    if not missing and derived.chi_exact_hz is None:
        if _oracle_applies(coupling.g_01_hz, coupling.detuning_0_hz):
            missing = ["dressed-state oracle"]
    if missing:
        raise DomainError(
            f"cannot report a partial derivation: the {missing[0]} stage did not run"
        )


# the values a report computes from a record's fields, listed after them;
# bool() makes NumPy's bool of a np.float64 input a JSON constant


def _lumped_values(lumped: LumpedCircuit) -> dict[str, Any]:
    return {
        "ej_ec_ratio": lumped.ej_ec_ratio,
        "in_transmon_regime": bool(lumped.in_transmon_regime),
    }


def _coupling_values(coupling: CouplingParameters) -> dict[str, Any]:
    return {
        "t1_unbounded": math.isinf(coupling.t1_purcell_seconds),
        "abs_chi_exceeds_kappa": bool(abs(coupling.chi_total_hz) > coupling.kappa_hz),
        "readable": bool(coupling.readable),
        "chi_kappa_ratio": coupling.chi_kappa_ratio,
    }


def _report_tree(derived: DerivedParameters) -> dict[str, Any]:
    """The report before output formatting: full-precision floats, inf and NaN.

    Each record's block lists its fields in declaration order, then the
    values derived from them. A partial record from
    ``derive(..., quantities=...)`` is refused. This is the one statement of
    the report's shape: ``render_report`` writes its template from it.
    """
    _refuse_partial(derived)
    lumped = {**vars(derived.lumped), **_lumped_values(derived.lumped)}
    inputs = lumped.pop("inputs")
    name, lo, hi = REFERENCE_RATIO_BOUNDS
    return {
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "input_sha256": input_digest(inputs),
        },
        "inputs": design_to_dict(inputs),
        "lumped": lumped,
        "transmon_perturbative": {**vars(derived.transmon_perturbative)},
        "transmon_exact": {**vars(derived.transmon_exact)},
        "coupling": {**vars(derived.coupling), **_coupling_values(derived.coupling)},
        "oracle": {
            "chi_exact_hz": derived.chi_exact_hz,
            "valid": derived.chi_exact_hz is not None,
        },
        "summary": [
            {
                "quantity": quantity,
                "value": value,
                "reference": reference,
                "rel_tol": rel_tol,
                "within_tol": ok,
            }
            for (quantity, reference, rel_tol), (value, ok) in zip(
                (*REFERENCE_TARGETS, (name, [lo, hi], None)), _summary_values(derived)
            )
        ],
    }


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_key(key: Any) -> str:
    """A dict key as json writes it; json itself coerces a non-string key."""
    # json.dumps({key: None}) is "{", the key as json writes it, ": null}";
    # one key at a time, so that two keys that coerce alike stay two
    return _quote(key) if type(key) is str else json.dumps({key: None})[1:-7]


def _json(obj: Any, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` at indent ``pad``, with every float
    written at 9 significant digits and a non-finite float as null.

    It writes what the report template leaves open: the ``geometry`` and
    ``tuned`` blocks and any leaf that is not a plain float, and the template
    itself, once per shape. One pass with the C string encoder:
    ``json.dumps`` with ``indent`` runs CPython's pure-Python encoder
    instead. A non-string key, and a leaf that is not a plain float, str,
    int, bool or None, is coerced by ``json`` itself.
    """
    kind = type(obj)
    if kind is float:
        return repr(float(f"{obj:.9g}")) if math.isfinite(obj) else "null"
    if kind is str:
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if kind is int:
        return repr(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join([
            f"{inner}{_json_key(key)}: {_json(value, inner)}" for key, value in obj.items()
        ])
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = ",\n".join([f"{inner}{_json(value, inner)}" for value in obj])
        return f"[\n{items}\n{pad}]"
    return _json(json.loads(json.dumps(obj)), pad)


# report leaves that are the same in every report, by key: the template
# writes them in. Every other leaf, and the whole geometry, is a slot.
_CONSTANT_KEYS = frozenset(("tool", "version", "quantity", "reference", "rel_tol"))
_SLOT = "\0"
_TEMPLATES: dict[int, str] = {}  # by the number of exact levels, the only shape that varies


def _slots(obj: Any, key: str = "") -> Any:
    if key in _CONSTANT_KEYS:
        return obj
    if isinstance(obj, dict) and key != "geometry":
        return {k: _slots(value, k) for k, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_slots(value, key) for value in obj]
    return _SLOT


def _report_body(derived: DerivedParameters) -> str:
    """The report after its opening ``{\\n``: the leaves gathered from the
    records in the template's order, each written as ``_json`` writes it."""
    _refuse_partial(derived)
    lumped, coupling, chi_exact = derived.lumped, derived.coupling, derived.chi_exact_hz
    *lumped_fields, inputs = vars(lumped).values()
    *input_fields, geometry = vars(inputs).values()
    levels, *exact_fields = vars(derived.transmon_exact).values()
    template = _TEMPLATES.get(len(levels))
    if template is None:
        text = _json(_slots(_report_tree(derived)), "")
        template = text[2:].replace("%", "%%").replace(_quote(_SLOT), "%s") + "\n"
        _TEMPLATES[len(levels)] = template
    leaves = [
        *lumped_fields,
        *_lumped_values(lumped).values(),
        *vars(derived.transmon_perturbative).values(),
        *levels,
        *exact_fields,
        *vars(coupling).values(),
        *_coupling_values(coupling).values(),
        chi_exact,
        chi_exact is not None,
    ]
    for pair in _summary_values(derived):
        leaves += pair
    return template % (
        _quote(input_digest(inputs)),
        *_leaf_texts(input_fields),
        _json(geometry, "    "),
        *_leaf_texts(leaves),
    )


def _leaf_texts(leaves: list[Any]) -> list[str]:
    """Each leaf as ``_json`` writes it, with the float branch inline."""
    isfinite = math.isfinite
    return [
        repr(float(f"{x:.9g}")) if type(x) is float and isfinite(x) else _json(x, "")
        for x in leaves
    ]


def render_report(derived: DerivedParameters) -> str:
    """The JSON report of a full derivation: the bytes of
    ``json.dumps(_report_tree(derived), indent=2)`` with every float rounded
    to 9 significant digits and a non-finite float as null.

    A template per shape, built once from ``_report_tree``, holds every key,
    constant and indent; each report fills its slots with leaves gathered
    straight from the records, and only ``geometry`` goes through ``_json``.
    """
    return "{\n" + _report_body(derived)


def render_tune_report(result: TuneResult) -> str:
    """The tune report: a ``tuned`` block, then the tuned design's report."""
    achieved_err = abs(result.achieved_value - result.target_value) / max(
        abs(result.target_value), 1e-300
    )
    tuned = {
        "parameter": result.parameter,
        "parameter_value": result.parameter_value,
        "target_quantity": result.target_quantity,
        "target_value": result.target_value,
        "achieved_value": result.achieved_value,
        "relative_error": achieved_err,
        "iterations": result.iterations,
    }
    return '{\n  "tuned": ' + _json(tuned, "  ") + ",\n" + _report_body(result.derived)


def sweep_csv_lines(result: SweepResult) -> list[str]:
    """Render a sweep as CSV lines (ascending parameter order), from its columns,
    ``_SWEEP_CSV_CHUNK_ROWS`` rows of them at a time."""
    spec, rows = result.spec, result._view()
    lines = [",".join([spec.parameter, *spec.outputs, "status", "error"])]
    ok = ",".join(["%.9g"] * (1 + len(spec.outputs))) + ",ok,"
    failed = "%.9g" + "," * len(spec.outputs) + ",error,%s"
    columns = [rows.values, *(rows.columns[name] for name in spec.outputs)]
    for start in range(0, len(rows), _SWEEP_CSV_CHUNK_ROWS):
        chunk = np.stack([column[start : start + _SWEEP_CSV_CHUNK_ROWS] for column in columns], 1)
        for i, cells in enumerate(chunk.tolist(), start):
            error = rows.errors.get(i)
            if error is None:
                lines.append(ok % tuple(cells))
            else:
                lines.append(failed % (cells[0], '"%s"' % error.replace('"', "'") if error else ""))
    return lines
