"""The traced benchmark wraps functions by name: each one it names must exist.

A wrapped function that is renamed or removed is silently left unwrapped,
and the per-layer metrics that need its spans go missing from the traced
result line.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves():
    hooks = load_spans().HOOKS
    assert hooks
    for name, hook in hooks.items():
        owner = importlib.import_module(hook.module)
        if hook.cls is not None:
            owner = getattr(owner, hook.cls, None)
            assert isinstance(owner, type), f"{name}: no class {hook.module}.{hook.cls}"
        assert callable(getattr(owner, hook.attr, None)), f"{name}: {hook.attr} is gone"
