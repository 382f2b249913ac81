"""Every library name that ``perfbench/run.py --trace 1`` patches still
resolves; no benchmark runs.

The traced pass wraps each ``(owner, attr)`` of ``tracer.SPANS`` and each
``TowerElement`` method of ``tracer.KERNEL_OPS`` with ``getattr``, so a
renamed or deleted binding would otherwise show only in a traced run.
"""

import importlib.util
from pathlib import Path

from isotower.tower import TowerElement

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_span_bindings_resolve():
    bindings = [(name, owner, attr) for name, pairs, _ in tracer.SPANS for owner, attr in pairs]
    assert bindings
    missing = [f"{name}: {owner.__name__}.{attr}" for name, owner, attr in bindings
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_kernel_ops_resolve():
    assert tracer.KERNEL_OPS
    missing = [attr for _, attr in tracer.KERNEL_OPS if not callable(getattr(TowerElement, attr, None))]
    assert missing == []
