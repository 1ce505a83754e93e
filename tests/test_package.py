"""Tests of the package's public surface."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["quadmap", "noise", "engine", "kernel", "diagnostics", "config", "cli"]
)
def test_every_name_in_all_resolves(module):
    # a stale entry makes `from randquad.<module> import *` raise
    mod = importlib.import_module(f"randquad.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_traced_methods_stay_on_their_classes():
    # the benchmark's tracer wraps these two methods by name (vars(cls)[name])
    from randquad.kernel import KernelOperator
    from randquad.noise import NoiseModel

    assert "row" in vars(KernelOperator)
    assert "sample" in vars(NoiseModel)
