"""The benchmark's tracer binds tropasym functions by name; they must exist."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("tracer").LAYERS
    finally:
        sys.modules.pop("tracer", None)
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tropasym.{layer}"), name, None))
    ]
    assert layers and missing == []
