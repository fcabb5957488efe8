"""Every function perfbench traces must still exist under its traced name.

``perfbench/spans.py`` wraps drew's functions by module and attribute
path; a name that is missing there silently drops its per-layer metrics
from a traced benchmark run.  This resolves each path the way the tracer
does, without installing any wrapper.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _spans_module()
TARGETS = _spans.CLI_TARGETS + _spans.LIBRARY_TARGETS + _spans.SHARED_TARGETS


@pytest.mark.parametrize("module_name, path", sorted({(m, p) for m, p, _ in TARGETS}))
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
