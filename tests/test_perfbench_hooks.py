"""The repository benchmark's hook targets still exist.

``perfbench/layers.py`` wraps the program's layers from the outside, naming
each target as ``"module:Qualified.name"``.  A target that a refactor
deletes or renames makes its layer report ``null`` in every traced run
instead of failing, so this test resolves every target the way the tracer
does.  It reads the benchmark's files and changes nothing in them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer")
        hooks = layers.build_hooks(None)
        assert hooks
        missing = [hook.target for hook in hooks if tracer._resolve(hook.target) is None]
        assert not missing, f"hook targets no longer in the program: {missing}"
    finally:
        # The benchmark's modules import under bare names (``layers``,
        # ``tracer``); keep them out of the rest of the session.
        for name in set(sys.modules) - before:
            module_file = getattr(sys.modules[name], "__file__", None) or ""
            if Path(module_file).parent == PERFBENCH:
                del sys.modules[name]
