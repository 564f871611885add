"""The names perfbench's tracer rebinds exist in the library, so a change
that removes or renames one fails here rather than in a traced benchmark
run (`perfbench/run.py --trace 1`)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wholm import cli, closure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves(tracing):
    for layer, (module, functions) in tracing.SPANNED.items():
        loaded = importlib.import_module(module)
        assert Path(loaded.__file__).parent == Path(closure.__file__).parent
        for name in functions:
            assert callable(getattr(loaded, name, None)), f"{module}.{name}"


def test_every_local_test_resolves_in_closure(tracing):
    for name in tracing.LOCAL_TESTS:
        assert callable(getattr(closure, name, None)), name


def test_every_traced_subcommand_is_a_cli_command(tracing):
    for name in tracing.CLI_SUBCOMMANDS:
        assert name in cli._COMMANDS, name
