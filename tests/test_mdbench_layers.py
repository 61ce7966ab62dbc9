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


def test_tracer_counts_the_steps_and_rows_of_an_in_process_train(monkeypatch):
    # the tracer reads backward's first positional argument as the batch's
    # volumes, and counts an eval-mode batch_forward inside train, by its
    # `mode` keyword, as the log pass; one epoch runs its log pass in process
    monkeypatch.syspath_prepend(str(MDBENCH))
    layers = importlib.import_module("layers")
    from mdocc.config import ExperimentConfig
    from mdocc.core import rng_stream
    from mdocc.model import TrainData, balanced_batches

    rng = rng_stream(0, "tracer")
    dims = [(4, 4, 2), (3, 2, 2), (4, 4, 2), (2, 5, 1), (3, 3, 3)]
    data = TrainData(features=[rng.normal(size=d + (5,)) for d in dims],
                     labels=[rng.integers(0, 3, d) for d in dims], block=(0, 3))
    cfg = ExperimentConfig(regime="single", epochs=1, batch_size=2, seed=3, hidden=4)
    batches = balanced_batches({"a": len(dims)}, cfg.batch_size, seed=cfg.seed)
    tracer = layers.Tracer()
    try:
        tracer.install()
        tracer.active = True
        sys.modules["mdocc.model"].train({"a": data}, cfg)
    finally:
        tracer.uninstall()
    assert tracer.values["model.sgd_steps"] == len(batches) == 3
    assert tracer.values["model.voxel_rows"] == sum(
        int(np.prod(dims[i])) for batch in batches for _, i in batch)
    assert tracer.values["model.log_pass_s"] > 0
