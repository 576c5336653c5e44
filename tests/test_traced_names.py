"""The benchmark tracer wraps calibrix functions by module and attribute name.

``perfbench/traced_cli.py`` lists them in ``SPANS``, ``LEAVES`` and
``LOG_POST_FACTORIES``; a renamed or deleted function would break a traced
benchmark run (``perfbench/run.py --trace 1``) while the library tests pass.
"""

import functools
import importlib
import pathlib

import pytest

TRACED_CLI = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _traced_cli() -> dict:
    """The tracer module's globals, run from its source without writing a cache."""
    namespace = {"__name__": "perfbench_traced_cli"}
    exec(compile(TRACED_CLI.read_text(encoding="utf-8"), str(TRACED_CLI), "exec"), namespace)
    return namespace


_TRACED = _traced_cli()


@pytest.mark.parametrize("module_name, attr", sorted(
    [*_TRACED["SPANS"], *_TRACED["LEAVES"], *_TRACED["LOG_POST_FACTORIES"]]))
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(functools.reduce(getattr, attr.split("."), module))
