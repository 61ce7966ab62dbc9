import copy
import ctypes
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdocc import experiment, model
from mdocc.align import CylGridSpec, NormState, cylindrical_voxelize
from mdocc.config import ExperimentConfig
from mdocc.core import Lattice, OccupancyGrid, Range3D, TruncatedPayload, rng_stream
from mdocc.experiment import (
    WORLD_PROFILES,
    MissingTransform,
    Setup,
    _fork_map,
    _gt_on_lattice,
    _slm_scores,
    coarse_labels,
    crop_or_resample,
    eval_intersection,
    evaluate_setups,
    gather_features,
    oracle_unified,
    predict_scores,
    prepare_regime,
    regime_setups,
    softmax_scores,
    synthesize,
    train_regimes,
)
from mdocc.labelspace import merged_score, reproject, transcode
from mdocc.metrics import ConfusionMatrix, accumulate, geometric_iou, miou
from mdocc.model import (
    REGIMES,
    TrainResult,
    batch_forward,
    head_blocks,
    head_widths,
    init_params,
    train,
)
from mdocc.refine import sample_features, split_voxels
from mdocc.scenes import (
    coarse_lattice,
    dataset_presets,
    default_scene_spec,
    derive_dataset_view,
    gen_scene,
    taxonomy_preset,
)


class TestGatherFeatures:
    def test_center_bin_lookup(self):
        spec = CylGridSpec(bins=(8, 8, 4), radius_max_m=4.0, z_min_m=0.0, z_max_m=2.0)
        vol = np.zeros(spec.bins + (5,))
        # place a recognizable bin summary at a known bin
        pts = np.array([[1.1, 0.1, 0.3]])
        vol = cylindrical_voxelize(pts, spec)
        out = gather_features(vol, spec, Lattice((4, 4, 2), 0.5, (0.0, 0.0, 0.0)))
        # the voxel whose center (1.25, 0.25, 0.25) shares that bin must carry
        # the same 5-vector
        r = np.hypot(1.25, 0.25)
        dr, dth, dz = spec.deltas
        ir = int(r / dr)
        got = out[2, 0, 0]
        want = vol[ir, int(np.arctan2(0.25, 1.25) / dth), 0]
        assert np.array_equal(got, want)

    def test_outside_cylinder_zero(self):
        spec = CylGridSpec(bins=(4, 4, 2), radius_max_m=1.0, z_min_m=0.0, z_max_m=1.0)
        vol = np.ones(spec.bins + (5,))
        out = gather_features(vol, spec, Lattice((6, 6, 2), 1.0, (0.0, 0.0, 0.0)))
        # far corner voxels sit beyond the cylinder radius
        assert np.all(out[5, 5] == 0.0)


class TestLattices:
    def test_coarse_labels_occupancy_pooling(self):
        rng = rng_stream(7, "pool")
        labels = rng.integers(0, 4, (4, 4, 2)).astype(np.uint16)
        g = OccupancyGrid((4, 4, 2), 0.5, (0, 0, 0), labels, 4)
        got = coarse_labels(g, 2)
        # brute-force block oracle: majority non-empty label, empty only if
        # the whole block is empty, ties to the lowest id
        for i in range(2):
            for j in range(2):
                block = labels[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, :].reshape(-1)
                occ = block[block != 0]
                if occ.size == 0:
                    want = 0
                else:
                    counts = np.bincount(occ, minlength=4)
                    want = int(np.argmax(counts))
                assert got[i, j, 0] == want

    def test_coarse_labels_preserves_occupancy(self):
        labels = np.zeros((4, 4, 4), dtype=np.uint16)
        labels[0, 0, 0] = 3  # one occupied fine voxel keeps its block occupied
        g = OccupancyGrid((4, 4, 4), 0.5, (0, 0, 0), labels, 4)
        got = coarse_labels(g, 2)
        assert got[0, 0, 0] == 3
        assert (got != 0).sum() == 1

    def test_coarse_labels_stride_must_divide(self):
        g = OccupancyGrid((3, 4, 2), 0.5, (0, 0, 0), np.zeros((3, 4, 2), np.uint16), 2)
        with pytest.raises(ValueError):
            coarse_labels(g, 2)

    def test_crop_grid_aligned(self):
        labels = np.arange(64, dtype=np.uint16).reshape(4, 4, 4)
        g = OccupancyGrid((4, 4, 4), 0.5, (0, 0, 0), labels, 64)
        window = g.lattice.crop(Range3D(0.5, 1.5, 1.0, 2.0, 0.0, 2.0))
        assert np.array_equal(g.labels[window], labels[1:3, 2:4, 0:4])
        # the cropped labels pool like a grid that starts at the crop corner
        assert np.array_equal(coarse_labels(g, 2, Range3D(0.5, 1.5, 1.0, 2.0, 0.0, 2.0)),
                              coarse_labels(OccupancyGrid((2, 2, 4), 0.5, (0.5, 1.0, 0.0),
                                                          labels[1:3, 2:4, 0:4], 64), 2))

    def test_crop_grid_misaligned_rejected(self):
        g = OccupancyGrid((4, 4, 4), 0.5, (0, 0, 0), np.zeros((4, 4, 4), np.uint16), 2)
        with pytest.raises(ValueError):
            g.lattice.crop(Range3D(0.3, 1.3, 0.0, 2.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            # aligned, but past the grid's far corner
            g.lattice.crop(Range3D(0.5, 2.5, 0.0, 2.0, 0.0, 2.0))

    def test_resample_identity_on_same_lattice(self):
        rng = rng_stream(1, "resample")
        labels = rng.integers(0, 4, (4, 4, 4))
        g = OccupancyGrid((4, 4, 4), 0.5, (0, 0, 0), labels, 4)
        out = Lattice((4, 4, 4), 0.5, (0, 0, 0)).resample(g, empty_id=0)
        assert out == g
        # the coarse lattices of both presets, raw and over the shared range,
        # and their eta-refined lattices
        specs = dataset_presets(taxonomy_preset("split"))
        for spec in specs.values():
            for crop in (None, eval_intersection(specs)):
                coarse = coarse_lattice(spec, crop, 2)
                for eta in (1, 2, 3, 4):
                    lattice = Lattice(tuple(d * eta for d in coarse.dims), coarse.voxel / eta,
                                      coarse.origin)
                    g = lattice.grid(rng.integers(0, 9, lattice.dims), 9)
                    assert lattice.resample(g, empty_id=0) == g

    def test_resample_outside_is_empty(self):
        g = OccupancyGrid((2, 2, 2), 0.5, (0, 0, 0), np.ones((2, 2, 2), np.uint16), 2)
        out = Lattice((4, 4, 4), 0.5, (-1.0, -1.0, -1.0)).resample(g, empty_id=0)
        assert out.labels[0, 0, 0] == 0
        assert out.labels[3, 3, 3] == 1
        assert out.lattice == Lattice((4, 4, 4), 0.5, (-1.0, -1.0, -1.0))

    def test_coarse_lattice_shapes(self):
        tax = taxonomy_preset("split")
        specs = dataset_presets(tax)
        shared = eval_intersection(specs)
        lattice = Lattice.over(shared, 0.2 * 2)
        assert lattice.dims == (32, 32, 4)
        assert lattice.voxel == pytest.approx(0.4)
        assert lattice.origin == pytest.approx((0.0, -6.4, -0.85))
        with pytest.raises(ValueError):
            Lattice.over(shared, 0.3)

    @pytest.mark.parametrize("eta", [1, 3])
    def test_crop_or_resample_onto_the_shared_lattice(self, eta):
        specs = dataset_presets(taxonomy_preset("split"))
        shared = eval_intersection(specs)
        coarse = Lattice.over(specs["a32"].gt_range, specs["a32"].voxel_size_m * 2)
        lattice = Lattice(tuple(d * eta for d in coarse.dims), coarse.voxel / eta, coarse.origin)
        labels = rng_stream(eta, "crop").integers(0, 9, lattice.dims)
        grid = lattice.grid(labels, 9)
        out = crop_or_resample(grid, shared)
        assert out.lattice == Lattice.over(shared, grid.voxel_size_m)
        # the old spelling of the voxel size, stride 2 then eta, is the same float
        assert out.voxel_size_m == specs["a32"].voxel_size_m * 2 / eta
        # a32's lattice covers the shared range, so every voxel keeps its label
        assert np.array_equal(out.labels, grid.labels[grid.lattice.crop(shared)])


class TestOracleUnified:
    def test_split_preset_matching(self):
        tax = taxonomy_preset("split")
        specs = dataset_presets(tax)
        uni = oracle_unified(tax)
        pairs = {c.members for c in uni.selected if len(c) == 2}
        a, b = specs["a32"].label_space, specs["b64"].label_space
        # shared structure pairs exactly; ambiguous splits fall to lowest ids
        assert (("a32", a.index("empty")), ("b64", b.index("empty"))) in pairs
        assert (("a32", a.index("ground")), ("b64", b.index("road"))) in pairs
        assert (("a32", a.index("car")), ("b64", b.index("vehicle"))) in pairs
        assert (("a32", a.index("pedestrian")), ("b64", b.index("pedestrian"))) in pairs
        singles = {c.members[0] for c in uni.selected if len(c) == 1}
        assert ("a32", a.index("truck")) in singles
        assert ("a32", a.index("bus")) in singles
        assert ("b64", b.index("sidewalk")) in singles

    def test_twin_preset_perfect(self):
        tax = taxonomy_preset("twin")
        specs = dataset_presets(tax)
        uni = oracle_unified(tax)
        assert len(uni.space) == 8
        a, b = specs["a32"].label_space, specs["b64"].label_space
        for c in uni.selected:
            assert len(c) == 2
            (da, ca), (db, cb) = c.members
            assert a.names[ca] == b.names[cb]

    def test_union_head_blocks(self):
        tax = taxonomy_preset("split")
        specs = dataset_presets(tax)
        sizes = {ds: len(spec.label_space) for ds, spec in specs.items()}
        assert head_blocks("direct_merge", sizes) == {"a32": (0, 9), "b64": (9, 8)}
        assert head_blocks("mdt", sizes) == {"a32": (0, 9), "b64": (0, 8)}

    def test_head_widths_end_at_last_block(self):
        sizes = {"a32": 9, "b64": 8}
        assert head_widths("direct_merge", head_blocks("direct_merge", sizes)) == {"merged": 17}
        for regime in ("mdt", "pretrain_finetune"):
            assert head_widths(regime, head_blocks(regime, sizes)) == sizes
        assert head_widths("single", head_blocks("single", {"b64": 8})) == {"b64": 8}


class TestSynthesize:
    def test_counts_and_determinism(self):
        s1 = synthesize(5, n_train=2, n_eval=1)
        s2 = synthesize(5, n_train=2, n_eval=1)
        assert len(s1.train_views["a32"]) == 2
        assert len(s1.eval_views["b64"]) == 1
        assert s1.scene_seeds == s2.scene_seeds
        c1, g1 = s1.train_views["b64"][0]
        c2, g2 = s2.train_views["b64"][0]
        assert np.array_equal(c1, c2)
        assert g1 == g2


class TestDirectMergeLog:
    def test_direct_merge_logs_block_argmax(self):
        synth = synthesize(3, n_train=2, n_eval=0)
        cfg = ExperimentConfig(regime="direct_merge", epochs=2, batch_size=2, seed=0, hidden=6)
        data = prepare_regime(cfg.regime, synth, list(synth.specs), cfg.stride)
        result = train(data, cfg)
        assert {ds: d.block for ds, d in data.items()} == {"a32": (0, 9), "b64": (9, 8)}
        for ds, d in data.items():
            off, size = d.block
            outs, _ = batch_forward(d.features, "merged", result.params, result.norm_state,
                                    mode="eval", heads=["merged"])
            cm = ConfusionMatrix(num_classes=size)
            for out, labels in zip(outs["merged"], d.labels):
                cm.add_arrays(np.argmax(out[..., off : off + size], axis=3), labels - off)
            last = [row for row in result.log if row["dataset"] == ds][-1]
            assert last["iou"] == geometric_iou(cm, empty_id=0)
            assert last["miou"] == miou(cm, empty_id=0)


@pytest.fixture(scope="module")
def tiny_synth():
    return synthesize(3, n_train=2, n_eval=0)


def assert_same_result(got, want):
    """Two TrainResults are the same bytes: every parameter array, every
    statistic set's mean, variance and count, and every log row."""
    gp, wp = got.params, want.params
    assert gp.regime == wp.regime
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(gp, name).tobytes() == getattr(wp, name).tobytes(), name
    assert list(gp.heads) == list(wp.heads)
    for ds in wp.heads:
        for g, w in zip(gp.heads[ds], wp.heads[ds]):
            assert g.tobytes() == w.tobytes(), ds
    gs, ws = got.norm_state, want.norm_state
    assert gs.gamma.tobytes() == ws.gamma.tobytes()
    assert gs.beta.tobytes() == ws.beta.tobytes()
    assert gs.dataset_ids() == ws.dataset_ids()
    for ds in ws.dataset_ids():
        g, w = gs.stats(ds), ws.stats(ds)
        assert g["mean"].tobytes() == w["mean"].tobytes(), ds
        assert g["var"].tobytes() == w["var"].tobytes(), ds
        assert g["count"] == w["count"], ds
    assert exact_rows(got.log) == exact_rows(want.log)


def exact_rows(log):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in log]


class TestSharedSourcePhase:
    """single on pretrain_finetune's source dataset, continued from the
    ``source`` state of a pretrain_finetune run, is the bytes a direct
    ``train`` of it gives."""

    @pytest.mark.parametrize("pretrain_epochs, epochs", [(3, 2), (2, 2), (1, 3), (0, 2)],
                             ids=["above", "equal", "below", "none"])
    @pytest.mark.parametrize("log_every_epoch", [False, True])
    def test_continued_single_equals_direct(self, tiny_synth, pretrain_epochs, epochs,
                                            log_every_epoch):
        cfg = replace(TestTrainRegimes.CFG, pretrain_epochs=pretrain_epochs, epochs=epochs)
        ids = list(tiny_synth.specs)
        data = prepare_regime("pretrain_finetune", tiny_synth, ids, cfg.stride)
        pt = train(data, replace(cfg, regime="pretrain_finetune"))
        shared, state = pt.source
        assert shared == min(pretrain_epochs, epochs)
        kept = copy.deepcopy(state)
        single = replace(cfg, regime="single")
        got = train({ids[0]: data[ids[0]]}, single, log_every_epoch=log_every_epoch, start=pt.source)
        want = train(prepare_regime("single", tiny_synth, ids[:1], cfg.stride), single,
                     log_every_epoch=log_every_epoch)
        assert_same_result(got, want)
        # the continuation trains a copy: the source state keeps its bytes, and
        # a pretrain_finetune run takes the same bytes either way
        assert_same_result(state, kept)
        assert_same_result(pt, train(data, replace(cfg, regime="pretrain_finetune")))

    def test_source_is_single_state_at_shared_epoch(self, tiny_synth):
        cfg = replace(TestTrainRegimes.CFG, pretrain_epochs=1, epochs=3)
        ids = list(tiny_synth.specs)
        pt = train(prepare_regime("pretrain_finetune", tiny_synth, ids, cfg.stride),
                   replace(cfg, regime="pretrain_finetune"))
        want = train(prepare_regime("single", tiny_synth, ids[:1], cfg.stride),
                     replace(cfg, regime="single", epochs=1))
        assert pt.source[0] == 1
        assert_same_result(pt.source[1], want)
        assert train(prepare_regime("mdt", tiny_synth, ids, cfg.stride),
                     replace(cfg, regime="mdt")).source is None
        # a log kept at the first and last epochs lacks rows single needs
        assert train(prepare_regime("pretrain_finetune", tiny_synth, ids, cfg.stride),
                     replace(cfg, regime="pretrain_finetune"), log_every_epoch=False).source is None


def planned_items(monkeypatch, cores):
    """Make ``cores`` the usable-core count and record the items each
    ``_fork_map`` call of ``train_regimes`` is given."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    calls, fork_map = [], experiment._fork_map

    def recording(fn, items):
        calls.append(list(items))
        return fork_map(fn, items)

    monkeypatch.setattr(experiment, "_fork_map", recording)
    return calls


class TestTrainRegimes:
    CFG = ExperimentConfig(seed=0, epochs=2, pretrain_epochs=2, batch_size=2, hidden=6)

    def test_pooled_equals_in_process(self, tiny_synth):
        ids = list(tiny_synth.specs)
        jobs = [("pretrain_finetune", ids), ("direct_merge", ids), ("single", ids[:1]),
                ("mdt", ids), ("single", ids[1:])]
        got = train_regimes(tiny_synth, jobs, self.CFG)
        assert multiprocessing.active_children() == []
        assert len(got) == len(jobs)
        for (regime, on), result in zip(jobs, got):
            want = train(prepare_regime(regime, tiny_synth, on, self.CFG.stride),
                         replace(self.CFG, regime=regime),
                         log_every_epoch=regime == "pretrain_finetune")
            assert_same_result(result, want)
        # pretrain_finetune logs every one of its 2 + 2 epochs, not just the
        # first and last
        assert {row["epoch"] for row in got[0].log} == {0, 1, 2, 3}

    # single on pretrain_finetune's source dataset rides in its job, so
    # _fork_map gets four items at any core count; with 3 epochs the
    # continued single trains past the shared 2
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("epochs", [2, 3])
    def test_fused_job_equals_in_process(self, tiny_synth, monkeypatch, cores, epochs):
        cfg = replace(self.CFG, epochs=epochs)
        ids = list(tiny_synth.specs)
        jobs = [("pretrain_finetune", ids), ("direct_merge", ids), ("single", ids[:1]),
                ("mdt", ids), ("single", ids[1:])]
        calls = planned_items(monkeypatch, cores)
        got = train_regimes(tiny_synth, jobs, cfg)
        assert [len(call) for call in calls] == [4]
        assert multiprocessing.active_children() == []
        for (regime, on), result in zip(jobs, got, strict=True):
            want = train(prepare_regime(regime, tiny_synth, on, cfg.stride),
                         replace(cfg, regime=regime),
                         log_every_epoch=regime == "pretrain_finetune")
            assert_same_result(result, want)

    def test_error_in_continuation_is_raised_and_no_worker_outlives(self, tiny_synth,
                                                                     monkeypatch):
        as_single = model._as_single

        def poisoned(*args):
            state = as_single(*args)
            state.params.w1[:] = np.nan
            return state

        monkeypatch.setattr(model, "_as_single", poisoned)
        calls = planned_items(monkeypatch, 2)
        ids = list(tiny_synth.specs)
        jobs = [("pretrain_finetune", ids), ("single", ids[:1]), ("single", ids[1:])]
        # pretrain_finetune's 1 + 3 epochs run clean; the single continued
        # from its epoch-1 state fails at its first step
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="non-finite loss at epoch 1"):
            train_regimes(tiny_synth, jobs, replace(self.CFG, pretrain_epochs=1, epochs=3))
        assert [len(call) for call in calls] == [2]
        assert multiprocessing.active_children() == []

    def test_worker_error_is_raised_and_no_worker_outlives(self, tiny_synth):
        ids = list(tiny_synth.specs)
        # pretrain_finetune given one dataset fails its check inside the worker
        jobs = [("single", ids[:1]), ("pretrain_finetune", ids[:1]), ("single", ids[1:])]
        with pytest.raises(ValueError, match="pretrain_finetune trains on exactly 2 datasets, got 1"):
            train_regimes(tiny_synth, jobs, self.CFG)
        assert multiprocessing.active_children() == []

    def test_diverged_worker_raises_floating_point_error(self, tiny_synth):
        cfg = replace(self.CFG, lr=1e9, epochs=50)
        jobs = [("single", list(tiny_synth.specs)[:1])]
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            train_regimes(tiny_synth, jobs, cfg)
        assert multiprocessing.active_children() == []


def one_usable_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def assert_same_train(got, want):
    """assert_same_result, and the same ``source`` state."""
    assert_same_result(got, want)
    assert (got.source is None) == (want.source is None)
    if want.source is not None:
        assert got.source[0] == want.source[0]
        assert_same_result(got.source[1], want.source[1])


class TestLogWorker:
    """``train`` runs its per-epoch log pass in one forked worker beside the
    training loop, at the bytes of the in-process pass."""

    CFG = replace(TestTrainRegimes.CFG, epochs=3)

    @staticmethod
    def log_pass_pids(monkeypatch, tmp_path):
        """Make every log pass record the pid of the process that runs it."""
        path, metrics = tmp_path / "pids", model._epoch_metrics

        def recorded(*args):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return metrics(*args)

        monkeypatch.setattr(model, "_epoch_metrics", recorded)
        return lambda: {int(pid) for pid in path.read_text().split()}

    @pytest.mark.parametrize("log_every_epoch", [True, False], ids=["every", "ends"])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_worker_equals_one_core(self, tiny_synth, monkeypatch, tmp_path, regime,
                                    log_every_epoch):
        ids = list(tiny_synth.specs)
        data = prepare_regime(regime, tiny_synth, ids[:1] if regime == "single" else ids,
                              self.CFG.stride)
        cfg = replace(self.CFG, regime=regime)
        pids = self.log_pass_pids(monkeypatch, tmp_path)
        got = train(data, cfg, log_every_epoch=log_every_epoch)
        assert multiprocessing.active_children() == []
        if len(os.sched_getaffinity(0)) > 1:
            assert os.getpid() not in pids()
        one_usable_core(monkeypatch)
        want = train(data, cfg, log_every_epoch=log_every_epoch)
        assert_same_train(got, want)
        assert (want.source is not None) == (regime == "pretrain_finetune" and log_every_epoch)

    @pytest.mark.parametrize("log_every_epoch", [True, False], ids=["every", "ends"])
    def test_continuation_equals_one_core(self, tiny_synth, monkeypatch, log_every_epoch):
        # single continued from a pretrain_finetune run's epoch-1 state
        cfg = replace(self.CFG, pretrain_epochs=1, epochs=4)
        ids = list(tiny_synth.specs)
        pt = train(prepare_regime("pretrain_finetune", tiny_synth, ids, cfg.stride),
                   replace(cfg, regime="pretrain_finetune"))
        data = prepare_regime("single", tiny_synth, ids[:1], cfg.stride)

        def continued():
            return train(data, replace(cfg, regime="single"), log_every_epoch=log_every_epoch,
                         start=pt.source)

        got = continued()
        one_usable_core(monkeypatch)
        assert_same_train(got, continued())

    def test_no_process_inside_a_worker_or_on_one_core(self, tiny_synth, monkeypatch):
        # trend trains inside _fork_map's workers, where the pass stays in
        # process; os.fork is how a fork-context pool starts its worker
        ids = list(tiny_synth.specs)
        data = prepare_regime("mdt", tiny_synth, ids, self.CFG.stride)
        cfg = replace(self.CFG, regime="mdt")
        want = train(data, cfg)

        def no_fork():
            raise AssertionError("train started a process")

        def in_worker(_):
            os.fork = no_fork  # this worker's own os module
            return train(data, cfg)

        for got in _fork_map(in_worker, [0, 1]):
            assert_same_train(got, want)
        assert multiprocessing.active_children() == []
        one_usable_core(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        assert_same_train(train(data, cfg), want)


class TestForkMap:
    def test_items_come_back_in_order_from_workers(self):
        offset = 10  # a closure: workers reach it through the fork

        def square(x):
            return x * x + offset, os.getpid()

        got = _fork_map(square, range(7))
        assert [value for value, _ in got] == [x * x + 10 for x in range(7)]
        if len(os.sched_getaffinity(0)) > 1:
            assert os.getpid() not in {pid for _, pid in got}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [FloatingPointError("non-finite loss at epoch 3"),
                                       TruncatedPayload("stream ends inside a 4-byte field", 7)],
                             ids=["FloatingPointError", "TruncatedPayload"])
    def test_error_arrives_with_its_type_and_message(self, error):
        def unit(x):
            if x == 2:
                raise error
            return x

        with pytest.raises(type(error)) as raised:
            _fork_map(unit, range(6))
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
        assert multiprocessing.active_children() == []

    def test_one_item_runs_in_process(self):
        assert _fork_map(lambda _: os.getpid(), [0]) == [os.getpid()]

    def test_a_call_inside_a_worker_runs_in_process(self):
        got = _fork_map(lambda _: (os.getpid(), _fork_map(lambda _: os.getpid(), [0, 1, 2])), [0, 1])
        for pid, inner in got:
            assert inner == [pid] * 3
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_starts_no_child(self):
        # the in-process path keeps freed pages as the pool's does: after one
        # round of four 1 MiB temporaries, fifty more rounds fault no fresh
        # page in (about 49,600 faults with glibc's defaults)
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import os, resource, sys\n"
                "import numpy as np\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from mdocc.experiment import _fork_map\n"
                "same = _fork_map(lambda _: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3\n"
                "arrays = [np.ones((16384, 8)) for _ in range(4)]\n"
                "del arrays\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(50):\n"
                "    arrays = [np.ones((16384, 8)) for _ in range(4)]\n"
                "    del arrays\n"
                "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
                "print(same, 'multiprocessing' in sys.modules, faults)\n")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        same, pool_loaded, faults = out.stdout.split()
        assert [same, pool_loaded] == ["True", "False"]
        if hasattr(ctypes.CDLL(None), "mallopt"):
            assert int(faults) < 1000

    @pytest.mark.parametrize("profiles", [None, WORLD_PROFILES], ids=["paired", "profiles"])
    def test_synthesize_gives_each_seed_its_views(self, profiles):
        # the parent's loop, one scene after another, is the reference
        synth = synthesize(5, n_train={"a32": 2, "b64": 1} if profiles else 2, n_eval=1,
                           world_profiles=profiles)
        ids = list(synth.specs)
        seeds = {"train_views": synth.scene_seeds, "eval_views": synth.eval_seeds}
        for views, drawn in seeds.items():
            for k, ds in enumerate(ids):
                ds_seeds = drawn[k] if profiles else drawn
                got = getattr(synth, views)[ds]
                assert len(got) == len(ds_seeds)
                for (cloud, gt), s in zip(got, ds_seeds):
                    counts = profiles[ds] if profiles else {}
                    scene = gen_scene(default_scene_spec(seed=s, **counts))
                    want_cloud, want_gt = derive_dataset_view(scene, synth.taxonomy,
                                                              synth.specs[ds])
                    assert cloud.tobytes() == want_cloud.tobytes()
                    assert gt.labels.tobytes() == want_gt.labels.tobytes()
                    assert gt.lattice == want_gt.lattice


def loaded_modules(module, names):
    """Which of ``names`` a fresh interpreter has loaded after importing
    ``module``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_the_pool_out():
    # the worker pool is imported when trend training starts, so it adds
    # nothing to the start-up of every command
    assert loaded_modules("mdocc.cli", ("multiprocessing", "concurrent.futures.process")) == "[]"


def test_cli_import_leaves_ctypes_util_out():
    # find_library may start ldconfig or gcc; model.train reaches libc
    # through ctypes.CDLL(None) instead
    assert loaded_modules("mdocc.cli", ("ctypes.util",)) == "[]"


def test_metrics_import_leaves_labelspace_out():
    # metrics scores pairs already in one taxonomy; transcoding happens in
    # evaluate_setups
    assert loaded_modules("mdocc.metrics", ("mdocc.labelspace",)) == "[]"


class TestSlmScores:
    def test_one_backbone_pass_reads_every_head(self, monkeypatch):
        tax = taxonomy_preset("split")
        specs = dataset_presets(tax)
        unified = oracle_unified(tax)
        sizes = {ds: len(spec.label_space) for ds, spec in specs.items()}
        params = init_params(sizes, hidden=6, seed=4)
        state = NormState(6, list(sizes))
        rng = rng_stream(4, "slm")
        for ds in sizes:
            state.stats(ds)["mean"] = rng.normal(size=6)
            state.stats(ds)["var"] = rng.uniform(0.5, 2.0, 6)
        feats = rng.normal(size=(4, 5, 3, 5))
        result = TrainResult(params=params, norm_state=state, log=[])
        # the per-head composition: one eval-mode pass per head, then softmax,
        # merge over the unified space and reprojection
        order = list(unified.dataset_ids())
        passes = [batch_forward([feats], "b64", params, state, mode="eval", heads=[d])
                  for d in order]
        heads = [softmax_scores(outs[d][0]) for d, (outs, _) in zip(order, passes)]
        merged, _ = merged_score(dict(zip(order, heads)), unified)
        want = reproject(merged, unified, "b64")
        want_hidden = passes[0][1]["z5"].reshape(feats.shape[:3] + (6,))

        calls = []
        real = model.dsnorm_forward

        def counting(x, dataset_id, *args, **kwargs):
            calls.append(dataset_id)
            return real(x, dataset_id, *args, **kwargs)

        monkeypatch.setattr(model, "dsnorm_forward", counting)
        raw, hidden = predict_scores(result, "b64", feats, ["b64", "a32"])
        got = _slm_scores(raw, unified, "b64")
        assert calls == ["b64"]
        assert len(order) == 2
        assert got.tobytes() == want.tobytes()
        assert hidden.tobytes() == want_hidden.tobytes()

    def test_a_foreign_head_that_overflows_raises(self):
        specs = dataset_presets(taxonomy_preset("split"))
        result = random_model(specs, "mdt", 5)
        w, b = result.params.heads["a32"]
        # finite weights whose scores overflow; the backbone is untouched
        result.params.heads["a32"] = (np.full_like(w, 1e308), b)
        feats = rng_stream(5, "overflow").normal(size=(4, 5, 3, 5))
        with np.errstate(all="ignore"):
            own, hidden = predict_scores(result, "b64", feats, ["b64"])
            assert np.isfinite(hidden).all() and np.isfinite(own["b64"]).all()
            with pytest.raises(FloatingPointError, match="non-finite scores under the b64"):
                predict_scores(result, "b64", feats, ["b64", "a32"])


def random_model(specs, regime, seed):
    """An untrained model of ``regime`` over ``specs`` whose statistic sets
    hold random means and variances."""
    sizes = {ds: len(spec.label_space) for ds, spec in specs.items()}
    params = init_params(head_widths(regime, head_blocks(regime, sizes)), 6, seed, regime)
    state = NormState(6, list(sizes))
    rng = rng_stream(seed, "stats")
    for ds in sizes:
        state.stats(ds)["mean"] = rng.normal(size=6)
        state.stats(ds)["var"] = rng.uniform(0.5, 2.0, 6)
    return TrainResult(params=params, norm_state=state, log=[])


class TestEvaluateSetups:
    def test_cross_cell_scores_its_predictions_transcoded(self):
        synth = synthesize(6, n_train=0, n_eval=2)
        specs = synth.specs
        unified = oracle_unified(synth.taxonomy)
        setup = Setup("mdt_cross", random_model(specs, "mdt", 6), {"a32": "b64", "b64": "a32"})
        rows, preds = evaluate_setups(synth, [setup], unified, stride=2)
        shared = eval_intersection(specs)
        assert [(row["setup"], row["dataset"]) for row in rows] == [
            ("mdt_cross", "a32"), ("mdt_cross", "b64")]
        for row, (ds, reader) in zip(rows, setup.head_of.items()):
            space = specs[ds].label_space
            grids = preds["mdt_cross", ds]
            assert len(grids) == 2
            # the returned predictions stay in the reader's taxonomy
            assert {g.num_classes for g in grids} == {len(specs[reader].label_space)}
            cm = ConfusionMatrix(len(space))
            for pred, (_, gt) in zip(grids, synth.eval_views[ds]):
                accumulate(cm, transcode(pred, unified, reader, ds),
                           _gt_on_lattice(gt, pred), shared)
            assert row["iou"] == geometric_iou(cm, space.empty_id)
            assert row["miou"] == miou(cm, space.empty_id)

    @pytest.mark.parametrize("eta", [1, 3])
    def test_cells_sharing_an_input_score_as_when_alone(self, eta):
        # mdt and mdt_cross read one input per dataset; b64 has no eval scene
        synth = synthesize(6, n_train=0, n_eval={"a32": 2, "b64": 0},
                           world_profiles=WORLD_PROFILES)
        specs = synth.specs
        unified = oracle_unified(synth.taxonomy)
        result = random_model(specs, "mdt", 6)
        # a raised empty-class bias leaves a fifth to a third of the voxels
        # occupied instead of all of them
        for ds in specs:
            result.params.head(ds)[1][0] += 1.0
        setups = regime_setups(result, list(specs), cross=True)
        assert [setup.name for setup in setups] == ["mdt", "mdt_cross"]
        rows, preds = evaluate_setups(synth, setups, unified, stride=2, eta=eta)
        alone_rows, alone_preds = [], {}
        for setup in setups:
            got_rows, got_preds = evaluate_setups(synth, [setup], unified, stride=2, eta=eta)
            alone_rows += got_rows
            alone_preds.update(got_preds)
        # repr compares floats exactly, nan included
        assert repr(rows) == repr(alone_rows)
        assert list(preds) == list(alone_preds)
        for key, grids in preds.items():
            assert grids == alone_preds[key]
        # the two readings occupy different voxels, so each takes its own rows
        # of the shared refinement samples
        mdt, cross = preds["mdt", "a32"], preds["mdt_cross", "a32"]
        assert len(mdt) == 2
        assert any(not np.array_equal(a.labels != 0, b.labels != 0) for a, b in zip(mdt, cross))
        for row in rows:
            scored = row["dataset"] == "a32"
            assert np.isfinite(row["iou"]) == scored
            assert np.isnan(row["miou"]) != scored
        assert preds["mdt", "b64"] == preds["mdt_cross", "b64"] == []

    @pytest.mark.parametrize("n_eval", [1, 0])
    @pytest.mark.parametrize("taxonomy", ["split", "twin"])
    @pytest.mark.parametrize("regime", ["single", "mdt"])
    def test_foreign_reader_without_unified_refused_before_scene_work(
            self, regime, taxonomy, n_eval, monkeypatch):
        # twin's datasets have equal class counts, so no class count tells
        # that a cross cell reads the other dataset's label ids
        synth = synthesize(7, taxonomy_name=taxonomy, n_train=0, n_eval=n_eval)
        specs = synth.specs
        if regime == "single":
            specs = {"a32": specs["a32"]}
        setups = regime_setups(random_model(specs, regime, 7), list(synth.specs), cross=True)
        assert any(reader != ds for s in setups for ds, reader in s.head_of.items())

        def refused(*args):
            # a forked worker's call never reaches a list here; this raises
            # wherever it runs
            raise AssertionError("cloud_features called before the refusal")

        monkeypatch.setattr(experiment, "cloud_features", refused)
        with pytest.raises(MissingTransform, match="no unified transform"):
            evaluate_setups(synth, setups, None, stride=2)


def refine_whole_set(grids, hidden, params, readings, eta):
    """The refinement before it was blocked: every voxel that any grid
    occupies split and sampled at once, each grid scoring its own rows of
    the samples and scattering their labels by fine coordinate."""
    dims = grids[0].dims
    occupied = [grid.labels != 0 for grid in grids]
    union = np.logical_or.reduce(occupied)
    queries = split_voxels(np.argwhere(union), eta)
    feats = sample_features(hidden, queries, eta)
    fine = Lattice(tuple(d * eta for d in dims), grids[0].voxel_size_m / eta, grids[0].origin)
    out = []
    for mine, r in zip(occupied, readings):
        w, b = params.head(r.head)
        off, size = r.block
        rows = np.repeat(mine[union], eta**3)
        labels = np.zeros(fine.dims, dtype=np.uint16)
        if rows.any():
            q = queries[rows]
            scores = feats[rows] @ w[:, off : off + size] + b[off : off + size]
            labels[q[:, 0], q[:, 1], q[:, 2]] = np.argmax(scores, axis=1)
        out.append(fine.grid(labels, size))
    return out


class TestRefineGrids:
    @pytest.mark.parametrize("eta", [2, 3, 4])
    @pytest.mark.parametrize("size", ["0", "1", "block-1", "block", "block+1"])
    def test_blocks_give_the_bytes_of_the_whole_set(self, eta, size):
        step = experiment._REFINE_BLOCK // eta**3
        n = {"0": 0, "1": 1, "block-1": step - 1, "block": step, "block+1": step + 1}[size]
        rng = rng_stream(eta, f"refine-blocks/{size}")
        dims = (12, 11, 9)
        union = np.zeros(dims, dtype=bool)
        union.flat[rng.choice(union.size, n, replace=False)] = True
        # readings that cover the whole union, part of it and nothing
        masks = [union, union & (rng.random(dims) < 0.5), np.zeros(dims, dtype=bool)]
        grids = [OccupancyGrid(dims, 0.4, (1.0, -2.0, 0.5),
                               mask * rng.integers(1, 5, dims).astype(np.uint16), 5)
                 for mask in masks]
        hidden = rng.normal(size=dims + (6,))
        heads = {"x": (rng.normal(size=(6, 9)), rng.normal(size=9)),
                 "y": (rng.normal(size=(6, 4)), rng.normal(size=4))}
        params = type("Params", (), {"head": staticmethod(heads.__getitem__)})
        # two readings take blocks of one head, the third a head of its own
        readings = [experiment._Reading(0, "a", "x", (0, 5), False),
                    experiment._Reading(1, "b", "x", (5, 4), False),
                    experiment._Reading(2, "c", "y", (0, 4), False)]
        got = experiment._refine_grids(grids, hidden, params, readings, eta)
        want = refine_whole_set(grids, hidden, params, readings, eta)
        assert got == want
        assert [g.labels.tobytes() for g in got] == [g.labels.tobytes() for g in want]
        assert (np.count_nonzero(got[0].labels) > 0) == (n > 0)
        assert not got[2].labels.any()

    def test_block_rows_of_a_product_are_its_rows(self):
        # the blocks rely on this: rows of a product of at least two rows are
        # bit for bit the same rows of a larger product. A single row is not
        # held to it, since numpy hands it to another BLAS routine
        rng = rng_stream(34, "refine-rows")
        feats = rng.normal(size=(20_000, 8))
        w = rng.normal(size=(8, 17))[:, 3:12]
        b = rng.normal(size=9)
        whole = feats @ w + b
        for rows in (2, 3, 8, 27, 64, 1000, 4096, 8192):
            for start in rng.integers(0, len(feats) - rows, 8):
                block = feats[start : start + rows] @ w + b
                assert block.tobytes() == whole[start : start + rows].tobytes()
        pick = rng.random(len(feats)) < 0.3
        assert (feats[pick] @ w + b).tobytes() == whole[pick].tobytes()
