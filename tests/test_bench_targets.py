"""The benchmark's per-layer tracer finds every function it patches.

bench/tracing.py replaces each traced function through its owner's
__dict__, so a renamed or deleted target breaks every traced run.
"""

import importlib
import importlib.util
import os

import pytest

import morseflow.cli  # noqa: F401  (imports every module the tracer patches)

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "tracing.py")
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name, module, path, timed", tracing.TARGETS,
                         ids=[t[0] for t in tracing.TARGETS])
def test_target_exists(name, module, path, timed):
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module("morseflow." + module)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert attr in owner.__dict__, "%s: morseflow.%s has no %s" % (name, module, path)
    target = owner.__dict__[attr]
    assert callable(target) or isinstance(target, property)


def test_tracer_installs_and_restores():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    for binding in tracer._bindings:
        assert binding
        for owner, attr, orig, _ in binding:
            assert owner.__dict__[attr] is orig
