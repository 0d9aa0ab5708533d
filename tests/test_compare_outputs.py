"""The case tables of ``tools/compare_outputs.py`` state each case once and
name only the files of ``CONFIGS``, and every config there parses: a
misspelt key would fail a case in both trees alike.  The benchmark's 2D
problem, which the tool no longer reads, is the one of ``tests/oracles.py``."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from kernrec import harness
from kernrec.problem import _INLINE_KEYS, parse_config
from oracles import CONFIGS, MANUFACTURED_2D

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    """The script at ``path`` as a module, loaded without leaving the
    ``sys.path`` entries it makes, or itself in ``sys.modules``, behind."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    # a dataclass looks up the module that defines it
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def table():
    return _load(ROOT / "tools" / "compare_outputs.py")


def test_the_benchmark_runs_the_2d_problem_of_the_oracles():
    workloads = _load(ROOT / "bench" / "workloads.py")
    assert parse_config(workloads.MANUFACTURED_2D)["problem"] == MANUFACTURED_2D


def test_each_case_is_stated_once(table):
    tables = [table.COMMANDS.keys(), table.FAILING.keys(), table.HELP.keys()]
    assert sum(map(len, tables)) == len(set().union(*tables))
    for argv in table.command_lines().values():
        flags = [arg for arg in argv if arg.startswith("--")]
        assert len(flags) == len(set(flags)), argv


def test_every_file_a_command_reads_is_written(table):
    configs = [argv[k + 1] for argv in table.command_lines().values()
               for k, option in enumerate(argv) if option == "--config"]
    files = [name for text in CONFIGS.values()
             for name in re.findall(r'^measurement_file = "(.*)"$', text, re.MULTILINE)]
    assert configs and files
    assert set(configs + files) <= CONFIGS.keys()


def _configs():
    """Each .ini of ``CONFIGS``, parsed with the harness's section keys."""
    return {name: parse_config(text, harness._SECTION_KEYS)
            for name, text in CONFIGS.items() if name.endswith(".ini")}


def test_every_config_parses():
    assert _configs()


def test_every_inline_problem_names_known_keys():
    # a preset's [problem] is checked against the preset; two carry a foreign key by design
    inline = {name: sections["problem"] for name, sections in _configs().items()
              if "preset" not in sections["problem"]}
    assert inline
    for name, problem in inline.items():
        assert problem.keys() <= _INLINE_KEYS, name
