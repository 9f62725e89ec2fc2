"""The package's export list, and what importing its command line loads."""

import subprocess
import sys

import acceptmax

from conftest import cli_child_env


def test_every_exported_name_resolves():
    assert len(set(acceptmax.__all__)) == len(acceptmax.__all__)
    for name in acceptmax.__all__:
        assert hasattr(acceptmax, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from acceptmax import *", namespace)
    assert set(acceptmax.__all__) <= namespace.keys()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Start-up of every ``acceptmax`` command pays for these modules, and the
    # package needs neither (see ``acceptmax.core``). The bare interpreter's
    # own modules, which vary between versions, are the baseline.
    def loaded(statement):
        probe = f"import sys; {statement}; print(*sys.modules)"
        child = subprocess.run(
            [sys.executable, "-c", probe], env=cli_child_env(), capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr
        return set(child.stdout.split())

    added = loaded("import acceptmax.cli") - loaded("pass")
    assert "acceptmax.cli" in added
    assert not added & {"dataclasses", "inspect"}
