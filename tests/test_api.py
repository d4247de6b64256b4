import inspect
import json

import pytest

import cqedkit
from cqedkit import (
    DomainError,
    coupling_strength,
    dispersive_shift,
    external_quality_factor,
    load_design,
    norton_equivalent,
    purcell_t1,
)


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(cqedkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(cqedkit.__all__) == bound | {"__version__"}
    assert len(cqedkit.__all__) == len(set(cqedkit.__all__))


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from cqedkit import *", namespace)
    assert set(cqedkit.__all__) <= set(namespace)


def _load_json_array(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps([1.0, 2.0]))
    return load_design(path)


# qubit_v1-sized arguments with one of them outside its domain
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda _: coupling_strength(0.04, -1e-6, 14.9e9, 0.19e9), "zero-point voltage"),
        (lambda _: coupling_strength(0.04, 1.8e-6, 0.0, 0.19e9), "energies"),
        (lambda _: coupling_strength(0.04, 1.8e-6, 14.9e9, -0.19e9), "energies"),
        (lambda _: dispersive_shift(-47e6, 4.55e9, 4.36e9, 5.01e9), "coupling strength"),
        (lambda _: norton_equivalent(0.0, 50.0, 3.1e10), "coupler capacitance"),
        (lambda _: external_quality_factor(0.0, 2e-9, 1e-14, 50.0), "resonator C and L"),
        (lambda _: external_quality_factor(5e-13, -2e-9, 1e-14, 50.0), "resonator C and L"),
        (lambda _: purcell_t1(-461e6, -47e6, 4379.0, 5.01e9), "coupling strength"),
        (lambda _: purcell_t1(-461e6, 47e6, 0.0, 5.01e9), "quality factor"),
        (lambda _: purcell_t1(-461e6, 47e6, 4379.0, 0.0), "resonator frequency"),
        (_load_json_array, "must hold a JSON object"),
    ],
    ids=[
        "coupling_strength-v_rms",
        "coupling_strength-e_j",
        "coupling_strength-e_c",
        "dispersive_shift-g",
        "norton_equivalent",
        "external_quality_factor-c_r",
        "external_quality_factor-l_r",
        "purcell_t1-g",
        "purcell_t1-q",
        "purcell_t1-f_r",
        "load_design-array",
    ],
)
def test_public_input_checks_raise_domain_error(tmp_path, call, message):
    with pytest.raises(DomainError, match=message):
        call(tmp_path)
