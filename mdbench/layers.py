"""Per-layer timing by wrapping mdocc's public functions from outside.

Modules import each other's functions by name, so a wrapper replaces the
original under every ``mdocc.*`` module attribute that holds it. Times are
inclusive wall time of the calls; counts are work done. Nothing is recorded
while ``active`` is false, so the benchmark's own checks do not show up.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) -> metric name of its total call time
TIMED = [
    ("scenes", "gen_scene"), ("scenes", "raycast"), ("scenes", "resample_labels"),
    ("scenes", "cloud_encode"), ("scenes", "cloud_decode"),
    ("kernels", "march_rays"),
    ("align", "cylindrical_voxelize"), ("align", "dsnorm_forward"), ("align", "dsnorm_backward"),
    ("experiment", "synthesize"), ("experiment", "prepare_dataset"),
    ("experiment", "gather_features"), ("experiment", "pool_labels"),
    ("experiment", "learn_unified"), ("experiment", "evaluate_setups"),
    ("experiment", "predict_scores"), ("experiment", "crop_or_resample"),
    ("model", "train"), ("model", "backward"), ("model", "loss_ce"),
    ("model", "save_checkpoint"), ("model", "load_checkpoint"),
    ("labelspace", "enumerate_candidates"), ("labelspace", "solve_unified"),
    ("labelspace", "merged_score"), ("labelspace", "reproject"), ("labelspace", "transcode"),
    ("refine", "split_voxels"), ("refine", "sample_features"), ("refine", "refine_and_reassemble"),
    ("metrics", "cross_eval"),
    ("core", "grid_encode"), ("core", "grid_decode"),
    ("cli", "cmd_synth"), ("cli", "cmd_train"), ("cli", "cmd_learn_labels"), ("cli", "cmd_eval"),
]
COUNTS = [
    "scenes.rays", "scenes.points", "model.sgd_steps", "model.voxel_rows",
    "labelspace.candidates_tried", "labelspace.candidates_kept", "refine.queries",
    "metrics.voxels_scored", "cli.out_bytes",
]


def _time_name(module, func):
    return f"{module}.{func.removeprefix('cmd_')}_s"


METRICS = [_time_name(m, f) for m, f in TIMED] + ["model.log_pass_s"] + COUNTS


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.active = False
        self._train_depth = 0
        self._undo = []

    def reset(self):
        self.values = defaultdict(float)

    def snapshot(self):
        return {name: self.values.get(name, 0.0) for name in METRICS}

    def _add(self, name, amount):
        if self.active:
            self.values[name] += amount

    def _wrap(self, fn, name, after=None):
        tracer = self
        in_train = int(name == "model.train_s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            tracer._train_depth += in_train
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._train_depth -= in_train
                tracer._add(name, time.perf_counter() - t0)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every traced function wherever an mdocc module refers to it."""
        import mdocc.cli  # noqa: F401  (loads every module that is traced)

        wrappers = {}
        for module, func in TIMED:
            original = getattr(sys.modules[f"mdocc.{module}"], func)
            wrappers[id(original)] = (original, self._wrap(original, _time_name(module, func),
                                                           self._after(module, func)))
        for extra in (("model", "sgd_step"), ("labelspace", "merge_cost"),
                      ("metrics", "accumulate"), ("model", "batch_forward")):
            original = getattr(sys.modules[f"mdocc.{extra[0]}"], extra[1])
            wrappers[id(original)] = (original, self._counter(*extra, original))
        for name, mod in list(sys.modules.items()):
            if not (name == "mdocc" or name.startswith("mdocc.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo = []

    def _after(self, module, func):
        add = self._add
        if (module, func) == ("scenes", "raycast"):
            return lambda a, k, out: add("scenes.points", len(out))
        if (module, func) == ("kernels", "march_rays"):
            return lambda a, k, out: add("scenes.rays", len(a[1]))
        if (module, func) == ("model", "backward"):
            return lambda a, k, out: add("model.voxel_rows", sum(v.shape[0] * v.shape[1] * v.shape[2] for v in a[0]))
        if (module, func) == ("labelspace", "enumerate_candidates"):
            return lambda a, k, out: add("labelspace.candidates_kept", len(out))
        if (module, func) == ("refine", "split_voxels"):
            return lambda a, k, out: add("refine.queries", len(out))
        return None

    def _counter(self, module, func, fn):
        tracer = self
        if func == "batch_forward":
            # eval-mode passes made while train runs are the per-epoch log pass
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not (tracer._train_depth and kwargs.get("mode") == "eval"):
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add("model.log_pass_s", time.perf_counter() - t0)
            return wrapper
        if func == "accumulate":
            @functools.wraps(fn)
            def wrapper(cm, *args, **kwargs):
                before = int(cm.counts.sum())
                out = fn(cm, *args, **kwargs)
                tracer._add("metrics.voxels_scored", int(cm.counts.sum()) - before)
                return out
            return wrapper
        name = {"sgd_step": "model.sgd_steps", "merge_cost": "labelspace.candidates_tried"}[func]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._add(name, 1)
            return fn(*args, **kwargs)
        return wrapper


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "cli.out_bytes" else "count"
