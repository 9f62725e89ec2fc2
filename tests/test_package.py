"""The package's export list."""

import acceptmax


def test_every_exported_name_resolves():
    assert len(set(acceptmax.__all__)) == len(acceptmax.__all__)
    for name in acceptmax.__all__:
        assert hasattr(acceptmax, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from acceptmax import *", namespace)
    assert set(acceptmax.__all__) <= namespace.keys()
