"""The benchmark's per-layer tracer (``mdbench/layers.py``) wraps mdocc
functions by module and name. Installing it here makes a renamed or deleted
wrapped function fail the test suite, not only a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np

MDBENCH = Path(__file__).resolve().parents[1] / "mdbench"


def mdocc_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "mdocc" or name.startswith("mdocc.")}


def test_tracer_installs_and_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(MDBENCH))
    layers = importlib.import_module("layers")
    import mdocc.cli  # noqa: F401  (every traced module)

    before = mdocc_namespaces()
    tracer = layers.Tracer()
    try:
        tracer.install()
        for module, func in layers.TIMED:
            original = before[f"mdocc.{module}"][func]
            assert getattr(sys.modules[f"mdocc.{module}"], func).__wrapped__ is original
        # the TIMED functions and the four counted ones, under every name
        # that holds them
        assert len({id(value) for _, _, value in tracer._undo}) == len(layers.TIMED) + 4
        tracer.active = True
        sys.modules["mdocc.refine"].split_voxels(np.zeros((2, 3)), 2)
        assert tracer.values["refine.queries"] == 16
    finally:
        tracer.uninstall()
    after = mdocc_namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert [a for a, v in attrs.items() if after[name].get(a) is not v] == [], name
