import inspect

import cqedkit


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
