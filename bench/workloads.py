"""Seeded inputs and the op of each benchmark workload.

Every workload is a closed loop driven by one client in one process: the
next op starts only after the previous one has returned. An op calls only
public functions of ``cqedkit``; everything else (drawing inputs, checking
outputs) happens outside the timed section.

Inputs are drawn from ``random.Random("<workload>:<seed>")``, so the same
seed always yields the same sequence of ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import cqedkit as ck

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent
BASE_DESIGN_PATH = ROOT / "designs" / "qubit_v1.json"

# Uniform +-4.5 % on each of the five lumped inputs of qubit_v1. At this
# width about 7 % of designs fall inside |detuning| < 5 g, where derive
# skips the dressed-state oracle, and f_01 stays below f_r on every draw, so
# no design crosses the resonator (where labels, and so ops, would fail).
BATCH_SPREAD = 0.045
# Narrower draw for the design loop and readout: every sweep point and every
# S21 notch stays in the dispersive regime below the resonator.
DISPERSIVE_SPREAD = 0.02
# Each side of a sweep range, relative to the parameter's base value.
SWEEP_SIDE = (0.01, 0.04)
SWEEP_STEPS = 101

INPUT_KEYS = ("c_s_farad", "c_g_farad", "c_k_farad", "l_j_henry", "f_r_target_hertz")

# For each sweepable parameter, the closed-form quantities that are strictly
# monotone in it, so a tune bracketed by the sweep range always has a root.
TUNE_QUANTITIES = {
    "c_s_farad": ("e_c_hz", "f_01_hz", "ej_ec_ratio", "beta"),
    "c_g_farad": ("beta", "g_01_hz", "e_c_hz", "f_01_hz"),
    "c_k_farad": ("q_ext", "kappa_hz", "f_r_loaded_hz"),
    "l_j_henry": ("e_j_hz", "f_01_hz", "i_c_ampere"),
    "f_r_target_hertz": ("c_r_farad", "f_r_loaded_hz", "v_rms_volt"),
}
CLOSED_FORM_QUANTITIES = (
    "i_c_ampere", "e_j_hz", "e_c_hz", "ej_ec_ratio", "c_r_farad", "l_r_henry",
    "c_sigma_farad", "beta", "f_01_hz", "f_12_hz", "anharmonicity_hz", "v_rms_volt",
    "g_01_hz", "detuning_hz", "abs_detuning_hz", "chi_01_hz", "chi_12_hz",
    "chi_total_hz", "q_ext", "kappa_hz", "f_r_loaded_hz", "t1_seconds",
)
EIGEN_QUANTITIES = ("f_01_exact_hz", "anharmonicity_exact_hz", "chi_exact_hz")


@dataclass(frozen=True)
class BatchItem:
    design: ck.DesignInputs


@dataclass(frozen=True)
class LoopItem:
    design: ck.DesignInputs
    spec: ck.SweepSpec
    target_index: int
    tune_quantity: str

    @property
    def needs_eigen(self) -> bool:
        return any(name in EIGEN_QUANTITIES for name in self.spec.outputs)


@dataclass(frozen=True)
class ReadoutItem:
    design: ck.DesignInputs
    span_hz: float
    n_points: int
    ground_csv: Path
    excited_csv: Path


def base_design() -> ck.DesignInputs:
    return ck.load_design(BASE_DESIGN_PATH)


def _draw_design(rng: random.Random, base: ck.DesignInputs, spread: float) -> ck.DesignInputs:
    values = {key: getattr(base, key) * rng.uniform(1.0 - spread, 1.0 + spread) for key in INPUT_KEYS}
    return ck.DesignInputs(
        **values,
        z_0_ohm=base.z_0_ohm,
        r_load_ohm=base.r_load_ohm,
        geometry=dict(base.geometry),
    )


def batch_items(seed: int, out_dir: Path) -> Iterator[BatchItem]:
    rng = random.Random(f"design_batch:{seed}")
    base = base_design()
    while True:
        yield BatchItem(_draw_design(rng, base, BATCH_SPREAD))


def loop_items(seed: int, out_dir: Path) -> Iterator[LoopItem]:
    rng = random.Random(f"design_loop:{seed}")
    base = base_design()
    parameters = sorted(TUNE_QUANTITIES)
    while True:
        design = _draw_design(rng, base, DISPERSIVE_SPREAD)
        parameter = rng.choice(parameters)
        value = getattr(design, parameter)
        lo = value * (1.0 - rng.uniform(*SWEEP_SIDE))
        hi = value * (1.0 + rng.uniform(*SWEEP_SIDE))
        tune_quantity = rng.choice(TUNE_QUANTITIES[parameter])
        others = [q for q in CLOSED_FORM_QUANTITIES if q != tune_quantity]
        outputs = [tune_quantity, *rng.sample(others, rng.randint(0, 2))]
        # half of the ops also ask for a quantity only the eigen stages give
        if rng.random() < 0.5:
            outputs += rng.sample(("chi_exact_hz", "f_01_exact_hz"), rng.randint(1, 2))
        rng.shuffle(outputs)
        spec = ck.SweepSpec(parameter=parameter, lo=lo, hi=hi, steps=SWEEP_STEPS, outputs=tuple(outputs))
        yield LoopItem(design, spec, rng.randint(5, SWEEP_STEPS - 6), tune_quantity)


def readout_items(seed: int, out_dir: Path) -> Iterator[ReadoutItem]:
    rng = random.Random(f"readout:{seed}")
    base = base_design()
    while True:
        yield ReadoutItem(
            design=_draw_design(rng, base, DISPERSIVE_SPREAD),
            span_hz=rng.uniform(10e6, 40e6),
            n_points=rng.randint(1001, 3001),
            ground_csv=out_dir / "curve.ground.csv",
            excited_csv=out_dir / "curve.excited.csv",
        )


# ---------------------------------------------------------------------------
# ops: only calls into cqedkit's public API, looked up on the package at call
# time so that a traced run sees every call


def batch_op(item: BatchItem) -> tuple[Any, str]:
    derived = ck.derive(item.design)
    return derived, ck.render_report(derived)


def loop_op(item: LoopItem) -> tuple[Any, Any]:
    swept = ck.sweep(item.design, item.spec, workers=1)
    target = swept.rows[item.target_index].outputs[item.tune_quantity]
    spec = ck.TuneSpec(
        vary=item.spec.parameter,
        target_quantity=item.tune_quantity,
        target_value=target,
        bracket=(item.spec.lo, item.spec.hi),
    )
    return swept, ck.tune(item.design, spec)


def readout_op(item: ReadoutItem) -> tuple[Any, Any, Any, float]:
    derived = ck.derive(item.design)
    ground = ck.s21_curve(derived.coupling, "ground", item.span_hz, item.n_points)
    excited = ck.s21_curve(derived.coupling, "excited", item.span_hz, item.n_points)
    separation = ck.notch_separation(ground, excited)
    ck.write_curve_csv(ground, item.ground_csv)
    ck.write_curve_csv(excited, item.excited_csv)
    return derived, ground, excited, separation


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[int, Path], Iterator[Any]]
    op: Callable[[Any], Any]


WORKLOADS = {
    "design_batch": Workload("design_batch", batch_items, batch_op),
    "design_loop": Workload("design_loop", loop_items, loop_op),
    "readout": Workload("readout", readout_items, readout_op),
}
