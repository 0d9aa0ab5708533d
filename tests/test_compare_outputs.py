"""The command table of ``tools/compare_outputs.py`` names only what it defines."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def table():
    """The script as a module, loaded without leaving its ``sys.path``
    entry for the benchmark's directory behind."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_every_failing_command_is_a_command(table):
    assert table.FAILING <= table.COMMANDS.keys()


def test_every_file_a_command_reads_is_written(table):
    configs = [argv[k + 1] for argv in table.COMMANDS.values()
               for k, option in enumerate(argv) if option == "--config"]
    files = [name for text in table.CONFIGS.values()
             for name in re.findall(r'^measurement_file = "(.*)"$', text, re.MULTILINE)]
    assert configs and files
    assert set(configs + files) <= table.CONFIGS.keys()
