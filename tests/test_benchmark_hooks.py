"""The benchmark's tracer wraps lpconc's public names by attribute.

``perfbench/tracer.py`` replaces module functions and class methods with
timing wrappers.  A name it expects that the package no longer has would
break traced benchmark runs, so this installs and uninstalls it against the
current package and checks that every wrapped name is restored.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        wrapped = [(owner, attr, fn) for owner, attr, fn in tracer._restore]
        assert wrapped
        for owner, attr, fn in wrapped:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not fn, attr
    finally:
        tracer.uninstall()
    for owner, attr, fn in wrapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is fn, attr
