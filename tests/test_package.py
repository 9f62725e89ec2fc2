"""What importing the package, its modules and its command line loads."""

import json
import subprocess
import sys

import pytest

import acceptmax

from conftest import cli_child_env

CLI_MODULES = [
    "acceptmax",
    "acceptmax.adc",
    "acceptmax.cli",
    "acceptmax.core",
    "acceptmax.serialize",
]


def loaded(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    probe = f"import sys; {statement}; print(*sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", probe], env=cli_child_env(), capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


def own(modules):
    return sorted(m for m in modules if m.split(".")[0] == "acceptmax")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        acceptmax.no_such_name
    assert not hasattr(acceptmax, "no_such_name")


def test_package_import_loads_no_module():
    assert own(loaded("import acceptmax")) == ["acceptmax"]


def test_submodule_imports_load_exactly_the_named_modules():
    # The forms the benchmark's checker and the CI steps use: the package
    # binds each submodule as it is imported, and loads nothing else.
    named = ["adc", "amendment", "core", "serialize"]
    statement = f"from acceptmax import {', '.join(named)}"
    assert own(loaded(statement)) == ["acceptmax", *(f"acceptmax.{m}" for m in named)]
    assert own(loaded("from acceptmax import cli")) == CLI_MODULES


def test_cli_import_loads_only_the_solve_path():
    # ``solve`` needs neither the amendment nor the worst-case module, and
    # every command pays for what importing the command line loads.
    assert own(loaded("import acceptmax.cli")) == CLI_MODULES


def test_amend_loads_amendment_but_not_bounds(tmp_path):
    path = tmp_path / "amend.json"
    path.write_text(json.dumps(
        {"kind": "amendment", "n": 3, "status_quo_t": 2, "peaks_t": [2, 3, 3]}
    ))
    # The report is one whitespace-free JSON line, printed before the module names.
    modules = loaded(
        f"import acceptmax.cli; assert acceptmax.cli.main(['amend', {str(path)!r}]) == 0"
    )
    assert "acceptmax.amendment" in modules
    assert "acceptmax.bounds" not in modules


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Start-up of every ``acceptmax`` command pays for these modules, and the
    # package needs neither (see ``acceptmax.core``). The bare interpreter's
    # own modules, which vary between versions, are the baseline.
    added = loaded("import acceptmax.cli") - loaded("pass")
    assert "acceptmax.cli" in added
    assert not added & {"dataclasses", "inspect"}
