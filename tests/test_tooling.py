"""The benchmark's tracer (perfbench/tracer.py) still finds every hook.

The tracer wraps module and class attributes of the package by name; one
that has gone makes the traced benchmark run die before its first job.
"""

import importlib.util
from pathlib import Path

import pytest

import anticlique
from anticlique.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_tracer_installs_on_the_package(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer(anticlique)
    with tracer.installed():
        assert main(["alpha", "--gen", "12,0.3,1", "--all", "--core", "--json"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["search.currentmax_runs"][0] == 1
    assert metrics["imposition.calls"][0] > 0
