"""Every function the benchmark tracer wraps (bench/trace.py TARGETS) exists,
so that removing or renaming one cannot silently break a traced run."""

import importlib
import importlib.util
import os

TRACE_PY = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "trace.py")


def _targets():
    # loaded by path: the module name `trace` is taken by the standard library
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for name, target in targets:
        module = importlib.import_module("gramgrow." + target[0])
        if len(target) == 3:
            # the tracer replaces the method in the class's own __dict__
            owner = getattr(module, target[1])
            assert callable(vars(owner).get(target[2])), name
        else:
            assert callable(getattr(module, target[1], None)), name
