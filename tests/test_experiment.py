import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdocc import model
from mdocc.align import CylGridSpec, NormState, cylindrical_voxelize
from mdocc.config import ExperimentConfig
from mdocc.core import Lattice, OccupancyGrid, Range3D, rng_stream
from mdocc.experiment import (
    _slm_scores,
    coarse_labels,
    crop_or_resample,
    eval_intersection,
    gather_features,
    oracle_unified,
    predict_scores,
    prepare_regime,
    softmax_scores,
    synthesize,
    train_regimes,
)
from mdocc.labelspace import merged_score, reproject
from mdocc.metrics import ConfusionMatrix, geometric_iou, miou
from mdocc.model import TrainResult, batch_forward, head_blocks, head_widths, init_params, train
from mdocc.scenes import dataset_presets, taxonomy_preset


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
        uni = oracle_unified(tax, specs)
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
        uni = oracle_unified(tax, specs)
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


class TestRunRegime:
    def test_direct_merge_logs_block_argmax(self):
        synth = synthesize(3, n_train=2, n_eval=0)
        cfg = ExperimentConfig(regime="direct_merge", epochs=2, batch_size=2, seed=0, hidden=6)
        data = prepare_regime(cfg.regime, synth, list(synth.specs), cfg.stride)
        result = train(data, cfg)
        assert {ds: d.block for ds, d in data.items()} == {"a32": (0, 9), "b64": (9, 8)}
        for ds, d in data.items():
            off, size = d.block
            outs, _ = batch_forward(d.features, "merged", result.params, result.norm_state, mode="eval")
            cm = ConfusionMatrix(num_classes=size)
            for out, labels in zip(outs, d.labels):
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


def test_cli_import_leaves_the_pool_out():
    # the worker pool is imported when trend training starts, so it adds
    # nothing to the start-up of every command
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, mdocc.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestSlmScores:
    def test_one_backbone_pass_reads_every_head(self, monkeypatch):
        tax = taxonomy_preset("split")
        specs = dataset_presets(tax)
        unified = oracle_unified(tax, specs)
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
        heads = [softmax_scores(predict_scores(params, state, "b64", feats, head_id=d)[0])
                 for d in order]
        merged, _ = merged_score(heads, [unified.mapping(d) for d in order])
        want = reproject(merged, unified.mapping("b64"))
        _, want_hidden = predict_scores(params, state, "b64", feats)

        calls = []
        real = model.dsnorm_forward

        def counting(x, dataset_id, *args, **kwargs):
            calls.append(dataset_id)
            return real(x, dataset_id, *args, **kwargs)

        monkeypatch.setattr(model, "dsnorm_forward", counting)
        got, hidden = _slm_scores(result, unified, "b64", feats, "b64")
        assert calls == ["b64"]
        assert len(order) == 2
        assert got.tobytes() == want.tobytes()
        assert hidden.tobytes() == want_hidden.tobytes()
