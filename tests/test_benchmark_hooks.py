"""The benchmark's tracer wraps library functions by name, so a rename or
a removal breaks ``perfbench/run.py --trace 1``; this guards those names."""

import importlib.util
import sys
from pathlib import Path

from latent_ising import Engine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = _load_tracing().Tracer()
    run = Engine.__dict__["run"]
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert Engine.__dict__["run"] is not run
    finally:
        tracer.uninstall()
    assert Engine.__dict__["run"] is run
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
