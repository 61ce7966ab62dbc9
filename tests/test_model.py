import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdocc.align import NUM_CYL_FEATURES, NormState
from mdocc.config import ExperimentConfig
from mdocc.core import (
    BadMagic,
    CodecError,
    TruncatedPayload,
    UnknownDataset,
    VersionUnsupported,
    rng_stream,
)
from mdocc.model import (
    REGIME_TABLE,
    REGIMES,
    TrainData,
    _ce_terms,
    _epoch_metrics,
    _neighbor_counts,
    _neighbor_mean_batch,
    backward,
    balanced_batches,
    batch_forward,
    checkpoint_decode,
    class_weights_from_counts,
    head_widths,
    init_params,
    load_checkpoint,
    loss_ce,
    save_checkpoint,
    sgd_step,
    train,
)


def make_instance(rng, dims=(4, 4, 4), classes=(3, 4), scenes=2, margin=1e-3):
    """Random params/state/batch with pre-activation margin away from the
    ramp kink so finite differences stay clean (h = 1e-5 moves z2 by ~1e-5)."""
    ids = [f"d{i}" for i in range(len(classes))]
    params = init_params(dict(zip(ids, classes)), hidden=6, seed=int(rng.integers(1 << 31)))
    state = NormState(6, ids)
    state.gamma = rng.normal(1.0, 0.3, 6)
    state.beta = rng.normal(0.0, 0.3, 6)
    while True:
        vols = [rng.normal(0.5, 1.0, dims + (NUM_CYL_FEATURES,)) for _ in range(scenes)]
        gts = [rng.integers(0, classes[0], dims) for _ in range(scenes)]
        _, cache = batch_forward(vols, ids[0], params, state, "train", [])
        if np.min(np.abs(cache["z2"])) > margin:
            return params, state, ids, vols, gts


def batch_loss(volumes, gts, dataset_id, params, norm_state, class_weights):
    """Sum-reduced train-mode batch loss of the dataset's own head; the
    finite-difference reference for backward()."""
    outs, _ = batch_forward(volumes, dataset_id, params, norm_state, "train", [dataset_id])
    return sum(loss_ce(out, gt, class_weights)[0] for out, gt in zip(outs[dataset_id], gts))


class TestForward:
    def test_zero_features_zero_biases_uniform_scores(self):
        params = init_params({"a": 4}, hidden=5, seed=0)
        state = NormState(5, ["a"])
        feats = np.zeros((3, 3, 2, NUM_CYL_FEATURES))
        (scores,) = batch_forward([feats], "a", params, state, "train", ["a"])[0]["a"]
        # constant input stays constant through every (linear or pointwise) stage
        flat = scores.reshape(-1, 4)
        assert np.allclose(flat, flat[0][None, :])

    def test_head_isolation_changes_scores(self):
        rng = rng_stream(1, "fwd")
        params = init_params({"a": 3, "b": 3}, hidden=6, seed=1)
        state = NormState(6, ["a", "b"])
        feats = rng.normal(size=(2, 2, 2, NUM_CYL_FEATURES))
        (sa,) = batch_forward([feats], "a", params, state, "train", ["a"])[0]["a"]
        (sb,) = batch_forward([feats], "b", params, state, "train", ["b"])[0]["b"]
        assert not np.allclose(sa, sb)

    def test_single_voxel_hand_composition(self):
        # 1-voxel grid: neighbor mean is identity, norm maps the voxel to beta
        params = init_params({"a": 1}, hidden=1, seed=2)
        params.w1 = np.array([[2.0], [0.0], [0.0], [0.0], [0.0]])
        params.b1 = np.array([0.5])
        params.w2 = np.array([[3.0]])
        params.b2 = np.array([-0.25])
        params.heads["a"] = (np.array([[4.0]]), np.array([1.0]))
        state = NormState(1, ["a"], eps=1e-12)
        state.gamma = np.array([2.0])
        state.beta = np.array([1.5])
        feats = np.zeros((1, 1, 1, NUM_CYL_FEATURES))
        feats[0, 0, 0, 0] = 7.0
        (scores,) = batch_forward([feats], "a", params, state, "train", ["a"])[0]["a"]
        # batch of one voxel: xhat = 0 -> z2 = beta = 1.5 -> relu 1.5
        # -> mean 1.5 -> affine 3 * 1.5 - 0.25 = 4.25 -> head 4 * 4.25 + 1 = 18
        assert np.allclose(scores.reshape(-1), [18.0])

    def test_unknown_dataset(self):
        params = init_params({"a": 2}, hidden=4, seed=0)
        state = NormState(4, ["a"])
        with pytest.raises(KeyError):
            batch_forward([np.zeros((1, 1, 1, 5))], "zz", params, state, "train", ["zz"])

    def test_missing_head_is_the_package_unknown_dataset(self):
        params = init_params({"a": 2}, hidden=4, seed=0)
        try:
            params.head("zz")
        except UnknownDataset:
            pass
        else:
            pytest.fail("a missing head must raise mdocc.core.UnknownDataset")
        with pytest.raises(UnknownDataset):
            NormState(4, ["a"]).stats("zz")


class TestNeighborMean:
    def test_interior_and_border_counts(self):
        x = np.zeros((3, 3, 3, 1))
        x[1, 1, 1, 0] = 7.0
        out = _neighbor_mean_batch(x.reshape(-1, 1), [((3, 3, 3), slice(None))],
                                   transpose=False).reshape(x.shape)
        assert np.isclose(out[1, 1, 1, 0], 1.0)  # center: 7 / 7
        assert np.isclose(out[0, 1, 1, 0], 7.0 / 6.0)  # face neighbor of center
        assert out[0, 0, 0, 0] == 0.0

    def test_transpose_is_adjoint(self):
        rng = rng_stream(2, "nm")
        x = rng.normal(size=(24, 5))
        y = rng.normal(size=(24, 5))
        slices = [((3, 4, 2), slice(None))]
        # <A x, y> == <x, A^T y>
        lhs = float((_neighbor_mean_batch(x, slices, transpose=False) * y).sum())
        rhs = float((x * _neighbor_mean_batch(y, slices, transpose=True)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
    def test_batch_equals_shifted_sums_bit_for_bit(self, transpose):
        # each scene's rows of a mixed batch: the voxel, then its +1 and -1
        # neighbours along each axis in turn (0 outside the grid), over the
        # in-grid count; the transpose divides first
        rng = rng_stream(3, "nm")
        vols = [rng.normal(size=dims + (4,)) for dims in [(3, 4, 2), (5, 1, 3), (2, 2, 2)]]
        slices, start = [], 0
        for v in vols:
            slices.append((v.shape[:3], slice(start, start + v[..., 0].size)))
            start += v[..., 0].size

        def shifted_sum(x):
            padded = np.pad(x, [(1, 1)] * 3 + [(0, 0)])
            total = x.copy()
            for ax in range(3):
                for shift in (-1, 1):
                    total = total + np.roll(padded, shift, axis=ax)[1:-1, 1:-1, 1:-1]
            return total

        got = _neighbor_mean_batch(np.concatenate([v.reshape(-1, 4) for v in vols]), slices,
                                   transpose=transpose)
        for v, (dims, sl) in zip(vols, slices):
            idx = np.indices(dims)
            counts = 1.0 + sum((i > 0).astype(float) + (i < d - 1) for i, d in zip(idx, dims))
            counts = counts[..., None]
            want = shifted_sum(v / counts) if transpose else shifted_sum(v) / counts
            assert got[sl].tobytes() == want.reshape(-1, 4).tobytes()

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 1), (17, 9, 5), (64, 64, 5), (100, 100, 8)])
    def test_counts_are_in_grid_neighbors(self, dims):
        # 1 for the voxel itself plus one per axis for each in-grid neighbor
        idx = np.indices(dims)
        want = 1.0 + sum((i > 0).astype(float) + (i < d - 1) for i, d in zip(idx, dims))
        assert _neighbor_counts(dims, width=1).tobytes() == want.tobytes()


class TestLossCE:
    def test_aligned_scores_loss_to_zero(self):
        gt = np.array([[[0, 1]]])
        scores = np.zeros((1, 1, 2, 2))
        scores[0, 0, 0, 0] = 50.0
        scores[0, 0, 1, 1] = 50.0
        loss, _ = loss_ce(scores, gt, np.ones(2))
        assert loss < 1e-12

    def test_uniform_scores_ln_c(self):
        for c in (2, 3, 7):
            gt = np.zeros((2, 2, 1), dtype=int)
            scores = np.zeros((2, 2, 1, c))
            loss, _ = loss_ce(scores, gt, np.ones(c))
            assert np.isclose(loss, np.log(c))

    def test_gradient_matches_finite_differences(self):
        rng = rng_stream(3, "ce")
        scores = rng.normal(size=(2, 2, 2, 2))
        gt = rng.integers(0, 2, (2, 2, 2))
        w = np.array([0.7, 1.9])
        _, grad = loss_ce(scores, gt, w)
        h = 1e-6
        for idx in np.ndindex(scores.shape):
            sp, sm = scores.copy(), scores.copy()
            sp[idx] += h
            sm[idx] -= h
            fd = (loss_ce(sp, gt, w)[0] - loss_ce(sm, gt, w)[0]) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(fd))

    def test_dim_mismatch(self):
        with pytest.raises(Exception):
            loss_ce(np.zeros((1, 1, 1, 2)), np.zeros((2, 1, 1), dtype=int), np.ones(2))

    @pytest.mark.parametrize("classes", [1, 2, 9, 17])
    def test_bit_identical_to_full_softmax(self, classes):
        # the textbook expressions: full softmax, then loss and gradient
        rng = rng_stream(4, "ce")
        scores = rng.normal(0.0, 3.0, (5, 4, 3, classes))
        gt = rng.integers(0, classes, (5, 4, 3))
        w = rng.uniform(0.1, 10.0, classes)
        flat = scores.reshape(-1, classes)
        y = gt.reshape(-1)
        n = y.size
        expv = np.exp(flat - flat.max(axis=1, keepdims=True))
        p = expv / expv.sum(axis=1, keepdims=True)
        wv = w[y]
        ref_loss = float(np.sum(wv * -np.log(np.maximum(p[np.arange(n), y], 1e-300))) / n)
        ref_grad = p * wv[:, None]
        ref_grad[np.arange(n), y] -= wv
        ref_grad /= n
        loss, grad = loss_ce(scores, gt, w)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.reshape(scores.shape).tobytes()
        assert _ce_terms(scores, gt, w)[0] == ref_loss
        # one voxel at a time, so a one-ulp change in a probability is not
        # rounded away in the sum
        ref_terms = wv * -np.log(np.maximum(p[np.arange(n), y], 1e-300))
        for i, idx in enumerate(np.ndindex(gt.shape)):
            one = loss_ce(scores[idx][None, None, None], gt[idx].reshape(1, 1, 1), w)[0]
            assert one == ref_terms[i]

    def test_epoch_metrics_loss_is_mean_of_loss_ce(self):
        rng = rng_stream(5, "ce")
        data = tiny_traindata(rng, n_scenes=3)
        params = init_params({"a": 3}, 6, 0)
        state = NormState(6, ["a"])
        weights = rng.uniform(0.5, 2.0, 3)
        outs = batch_forward(data.features, "a", params, state, "eval", ["a"])[0]["a"]
        losses = [loss_ce(out, labels, weights)[0] for out, labels in zip(outs, data.labels)]
        loss, _, _ = _epoch_metrics(data, "a", "a", params, state, weights)
        assert loss == sum(losses) / len(losses)


def _flatten_params(params, state, dataset_id):
    """(name, array) views of every parameter that should receive gradient."""
    out = [
        ("w1", params.w1),
        ("b1", params.b1),
        ("w2", params.w2),
        ("b2", params.b2),
        ("gamma", state.gamma),
        ("beta", state.beta),
    ]
    w, b = params.heads[dataset_id]
    out.append((f"head.{dataset_id}.w", w))
    out.append((f"head.{dataset_id}.b", b))
    return out


def _grad_of(grads, state, name, dataset_id):
    if name.startswith("head."):
        return grads.head[0] if name.endswith(".w") else grads.head[1]
    return getattr(grads, name)


class TestBackward:
    def test_duplicated_batch_doubles_gradient(self):
        rng = rng_stream(5, "bwd")
        params, state, ids, vols, gts = make_instance(rng, scenes=1)
        w = np.ones(3)
        _, g1 = backward(vols, gts, ids[0], ids[0], params, state, w)
        _, g2 = backward(vols * 2, gts * 2, ids[0], ids[0], params, state, w)
        assert np.allclose(g2.w1, 2 * g1.w1)
        assert np.allclose(g2.head[0], 2 * g1.head[0])
        assert np.allclose(g2.gamma, 2 * g1.gamma)

    def test_full_gradient_matches_finite_differences(self):
        rng = rng_stream(6, "bwd")
        total, bad = 0, 0
        worst = 0.0
        for _ in range(3):
            params, state, ids, vols, gts = make_instance(rng)
            w = class_weights_from_counts(np.bincount(np.concatenate([g.reshape(-1) for g in gts]), minlength=3))
            _, grads = backward(vols, gts, ids[0], ids[0], params, state, w)
            h = 1e-5
            for name, arr in _flatten_params(params, state, ids[0]):
                g = _grad_of(grads, state, name, ids[0])
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = batch_loss(vols, gts, ids[0], params, state, w)
                    arr[idx] = orig - h
                    lm = batch_loss(vols, gts, ids[0], params, state, w)
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6)
                    worst = max(worst, rel)
                    total += 1
                    if rel >= 1e-4:
                        bad += 1
        assert bad / total <= 0.01, f"{bad}/{total} coords failed, worst rel {worst:.2e}"

    def test_running_stats_update_on_backward(self):
        rng = rng_stream(7, "bwd")
        params, state, ids, vols, gts = make_instance(rng)
        before = state.stats(ids[0])["mean"].copy()
        backward(vols, gts, ids[0], ids[0], params, state, np.ones(3))
        after = state.stats(ids[0])["mean"]
        assert not np.array_equal(before, after)
        # the other dataset's stats stay bit-identical
        assert state.stats(ids[1])["count"] == 0


def scene_indices(schedule, dataset_id):
    """Every scene index of ``dataset_id`` in a schedule of (dataset_id,
    scene_index) batches, in schedule order."""
    return [i for batch in schedule for ds, i in batch if ds == dataset_id]


class TestBalancedBatches:
    def test_equal_sizes_round_robin(self):
        sched = balanced_batches({"a": 4, "b": 4}, 2, seed=0)
        assert [batch[0][0] for batch in sched] == ["a", "b", "a", "b"]
        for ds in ("a", "b"):
            assert sorted(scene_indices(sched, ds)) == [0, 1, 2, 3]

    def test_wraparound_coverage_counts(self):
        sched = balanced_batches({"a": 6, "b": 2}, 2, seed=1)
        assert [batch[0][0] for batch in sched] == ["a", "b", "a", "b", "a", "b"]
        # largest dataset covered exactly once, shorter oversampled evenly
        assert sorted(scene_indices(sched, "a")) == list(range(6))
        assert sorted(scene_indices(sched, "b")) == [0, 0, 0, 1, 1, 1]

    def test_every_batch_single_dataset(self):
        sizes = {"a": 5, "b": 3, "c": 7}
        sched = balanced_batches(sizes, 3, seed=2)
        for batch in sched:
            assert len(batch) >= 1 and len({ds for ds, _ in batch}) == 1
        for ds in sizes:
            assert set(range(sizes[ds])) <= set(scene_indices(sched, ds))

    def test_empty_dataset_refused(self):
        # run in a child process, so that a sampler that never returns fails
        # the test at the timeout instead of hanging the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "from mdocc.model import balanced_batches; balanced_batches({'a': 2, 'b': 0}, 2, 0)"
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=30)
        assert out.returncode == 1
        assert out.stderr.strip().splitlines()[-1] == (
            "ValueError: every dataset needs a sample, got sizes {'a': 2, 'b': 0}")

    def test_deterministic(self):
        s1 = balanced_batches({"a": 9, "b": 4}, 2, seed=3)
        assert s1 == balanced_batches({"a": 9, "b": 4}, 2, seed=3)
        assert s1 != balanced_batches({"a": 9, "b": 4}, 2, seed=4)


def tiny_traindata(rng, n_scenes=6, dims=(4, 4, 2), classes=3, separable=True):
    feats, labels = [], []
    for _ in range(n_scenes):
        f = rng.normal(0.0, 0.5, dims + (NUM_CYL_FEATURES,))
        y = rng.integers(0, classes, dims)
        if separable:
            # plant learnable structure: feature 0 carries the class id
            f[..., 0] = y * 2.0 + rng.normal(0, 0.1, dims)
        feats.append(f)
        labels.append(y)
    return TrainData(features=feats, labels=labels, block=(0, classes))


class TestTrain:
    def test_single_regime_loss_decreases(self):
        rng = rng_stream(8, "train")
        data = {"a": tiny_traindata(rng)}
        cfg = ExperimentConfig(regime="single", epochs=30, batch_size=2, lr=0.1, seed=0, hidden=6)
        result = train(data, cfg)
        losses = [r["loss"] for r in result.log if r["dataset"] == "a"]
        assert losses[-1] < losses[0]

    def test_mdt_both_heads_improve_and_backbone_shared(self):
        rng = rng_stream(9, "train")
        data = {"a": tiny_traindata(rng), "b": tiny_traindata(rng, classes=4)}
        cfg = ExperimentConfig(regime="mdt", epochs=30, batch_size=2, lr=0.1, seed=0, hidden=6)
        result = train(data, cfg)
        for ds in ("a", "b"):
            losses = [r["loss"] for r in result.log if r["dataset"] == ds]
            assert losses[-1] < losses[0]

    def test_backbone_updates_from_both_streams(self):
        rng = rng_stream(10, "train")
        params, state, ids, vols, gts = make_instance(rng, scenes=1)
        w1_before = params.w1.copy()
        head_a_before = params.heads[ids[0]][0].copy()
        head_b_before = [a.copy() for a in params.heads[ids[1]]]
        _, grads = backward(vols, gts, ids[0], ids[0], params, state, np.ones(3))
        sgd_step(params, state, grads, ids[0], 0.1)
        assert not np.array_equal(params.w1, w1_before)
        # the step moves the trained head and leaves the other one alone
        assert not np.array_equal(params.heads[ids[0]][0], head_a_before)
        for got, before in zip(params.heads[ids[1]], head_b_before):
            assert np.array_equal(got, before)

    def test_single_vs_mdt_bit_identical_with_one_dataset(self):
        rng = rng_stream(11, "train")
        data_template = tiny_traindata(rng)
        cfg = ExperimentConfig(regime="single", epochs=10, batch_size=2, lr=0.05, seed=5, hidden=6)
        r1 = train({"a": TrainData(
            features=[f.copy() for f in data_template.features],
            labels=[l.copy() for l in data_template.labels],
            block=(0, 3))}, cfg)
        cfg2 = ExperimentConfig(regime="mdt", epochs=10, batch_size=2, lr=0.05, seed=5, hidden=6)
        r2 = train({"a": TrainData(
            features=[f.copy() for f in data_template.features],
            labels=[l.copy() for l in data_template.labels],
            block=(0, 3))}, cfg2)
        assert np.array_equal(r1.params.w1, r2.params.w1)
        assert np.array_equal(r1.params.heads["a"][0], r2.params.heads["a"][0])
        assert [r["loss"] for r in r1.log] == [r["loss"] for r in r2.log]

    def test_head_isolation_during_training(self):
        rng = rng_stream(12, "train")
        data = {"a": tiny_traindata(rng), "b": tiny_traindata(rng, classes=4)}
        cfg = ExperimentConfig(regime="pretrain_finetune", epochs=5, pretrain_epochs=5,
                               batch_size=2, lr=0.05, seed=1, hidden=6)
        result = train(data, cfg)
        # phase 2 trains only b; rerun phase 1 alone to compare a's head
        cfg1 = ExperimentConfig(regime="single", epochs=5, batch_size=2, lr=0.05, seed=1, hidden=6)
        only_a = train({"a": data["a"]}, cfg1)
        # the a head after full PT equals the a head after pretraining alone
        assert np.allclose(result.params.heads["a"][0], only_a.params.heads["a"][0])

    def test_determinism(self):
        rng1 = rng_stream(13, "train")
        rng2 = rng_stream(13, "train")
        cfg = ExperimentConfig(regime="single", epochs=8, batch_size=2, lr=0.05, seed=2, hidden=6)
        r1 = train({"a": tiny_traindata(rng1)}, cfg)
        r2 = train({"a": tiny_traindata(rng2)}, cfg)
        assert np.array_equal(r1.params.w1, r2.params.w1)
        assert r1.log == r2.log

    def test_diverged_loss(self):
        rng = rng_stream(14, "train")
        data = {"a": tiny_traindata(rng)}
        cfg = ExperimentConfig(regime="single", epochs=50, batch_size=2, lr=1e9, seed=0, hidden=6)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            train(data, cfg)

    @pytest.mark.parametrize("lr, message", [(1e9, "non-finite loss at epoch 1"),
                                             (20.0, "non-finite a loss after epoch 3")])
    def test_diverged_message_same_on_one_core(self, monkeypatch, lr, message):
        # at lr 20 epoch 3's logged loss is the first failure; the first step
        # of epoch 4 diverges too, while that log pass may still be running
        def raised():
            cfg = ExperimentConfig(regime="single", epochs=50, batch_size=2, lr=lr, seed=0,
                                   hidden=6)
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as error:
                train({"a": tiny_traindata(rng_stream(14, "train"))}, cfg)
            return str(error.value)

        assert raised() == message
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert raised() == message

    @pytest.mark.parametrize("regime", ["single", "direct_merge", "mdt"])
    def test_regime_read_from_config(self, regime):
        # the same one-dataset data, trained under each regime that takes it
        rng = rng_stream(20, "train")
        cfg = ExperimentConfig(regime=regime, epochs=1, batch_size=2, seed=0, hidden=3)
        result = train({"a": tiny_traindata(rng, n_scenes=2)}, cfg)
        assert result.params.regime == regime

    @pytest.mark.parametrize("regime, pretrain_epochs", [
        ("mdt", 3), ("pretrain_finetune", 3), ("pretrain_finetune", 0),
    ], ids=["mdt", "pretrain_finetune", "pretrain_finetune_no_pretraining"])
    def test_log_modes_agree(self, regime, pretrain_epochs):
        # logging only the ends moves no parameter, statistic or kept log byte
        rng = rng_stream(21, "train")
        data = {"a": tiny_traindata(rng), "b": tiny_traindata(rng, classes=4)}
        cfg = ExperimentConfig(regime=regime, epochs=4, pretrain_epochs=pretrain_epochs,
                               batch_size=2, lr=0.05, seed=3, hidden=6)
        full = train(data, cfg)
        ends = train(data, cfg, log_every_epoch=False)

        def blobs(result):
            params, state = result.params, result.norm_state
            arrays = [params.w1, params.b1, params.w2, params.b2, state.gamma, state.beta]
            arrays += [a for head in params.heads.values() for a in head]
            arrays += [state.stats(ds)[k] for ds in state.dataset_ids() for k in ("mean", "var")]
            counts = [state.stats(ds)["count"] for ds in state.dataset_ids()]
            return [a.tobytes() for a in arrays], counts

        assert blobs(ends) == blobs(full)
        last = cfg.epochs - 1 + (cfg.pretrain_epochs if regime == "pretrain_finetune" else 0)
        assert ends.log == [r for r in full.log if r["epoch"] in (0, last)]
        assert {r["epoch"] for r in ends.log} == {0, last}

    @pytest.mark.parametrize("regime", REGIMES)
    def test_zero_scene_datasets_keep_initial_params(self, regime):
        # no scene: no step, no log row, and the parameters init_params gives
        ids = ["a", "b"][: REGIME_TABLE[regime].datasets]
        data = {ds: TrainData(features=[], labels=[], block=(0, 3)) for ds in ids}
        cfg = ExperimentConfig(regime=regime, epochs=2, pretrain_epochs=2, seed=4, hidden=5)
        result = train(data, cfg)
        want = init_params(head_widths(regime, {ds: (0, 3) for ds in ids}), 5, 4, regime)
        assert result.log == []
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(result.params, name).tobytes() == getattr(want, name).tobytes()
        assert list(result.params.heads) == list(want.heads)
        for head in want.heads:
            for got, init in zip(result.params.heads[head], want.heads[head]):
                assert got.tobytes() == init.tobytes()
        state = result.norm_state
        assert all(state.stats(s)["count"] == 0 for s in state.dataset_ids())

    def test_direct_merge_one_head_union_sized(self):
        rng = rng_stream(15, "train")
        a = tiny_traindata(rng, classes=7)
        b = tiny_traindata(rng, classes=7)
        data = {"a": a, "b": b}
        cfg = ExperimentConfig(regime="direct_merge", epochs=3, batch_size=2, lr=0.05, seed=0, hidden=6)
        result = train(data, cfg)
        assert list(result.params.heads) == ["merged"]
        assert result.params.heads["merged"][0].shape[1] == 7
        assert result.norm_state.dataset_ids() == ["merged"]


class TestHeapThresholds:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
    def test_train_keeps_freed_step_temporaries_mapped(self):
        # after train, a step's worth of freed 1 MiB temporaries is reused
        # instead of faulted in again (about 49,600 faults with glibc's
        # defaults), and ctypes.util, whose find_library may start ldconfig
        # or gcc, stays unloaded; a fresh process keeps the setting from
        # leaking in from other tests. The first round maps the pages later
        # rounds reuse, about 1,000 faults with the setting or without it,
        # as many as the bound, so it runs before the count starts
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from mdocc.config import ExperimentConfig\n"
            "from mdocc.model import TrainData, train\n"
            f"data = TrainData(features=[np.zeros((2, 2, 1, {NUM_CYL_FEATURES}))],"
            " labels=[np.zeros((2, 2, 1), int)],"
            " block=(0, 2))\n"
            "train({'a': data}, ExperimentConfig(regime='single', epochs=1, batch_size=1, hidden=3))\n"
            "def one_round():\n"
            "    arrays = [np.ones((16384, 8)) for _ in range(4)]\n"
            "    del arrays\n"
            "one_round()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    one_round()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,"
            " 'ctypes.util' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        faults, util_loaded = out.stdout.split()
        assert int(faults) < 1000
        assert util_loaded == "False"


class TestClassWeights:
    def test_inverse_frequency_clipped(self):
        # weights are total / (ref * count) with ref = 16, clipped to the band
        w = class_weights_from_counts([100, 1, 0])
        assert w[2] == 10.0  # absent class: upper clip
        assert w[0] == 0.1  # dominant class: 101 / 1600 clipped up
        assert w[1] == 101 / 16  # in-band class, unclipped
        w = class_weights_from_counts([10000, 1, 0])
        assert w[1] == 10.0  # present but rare: saturates at the upper clip


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = rng_stream(16, "ckpt")
        params, state, ids, vols, gts = make_instance(rng)
        backward(vols, gts, ids[0], ids[0], params, state, np.ones(3))  # touch running stats
        path = tmp_path / "m.mckpt"
        save_checkpoint(path, params, state)
        p2, s2 = load_checkpoint(path)
        assert np.array_equal(p2.w1, params.w1)
        assert np.array_equal(p2.heads[ids[1]][0], params.heads[ids[1]][0])
        assert np.array_equal(s2.stats(ids[0])["mean"], state.stats(ids[0])["mean"])
        assert s2.stats(ids[0])["count"] == state.stats(ids[0])["count"]
        assert s2.eps == state.eps and s2.momentum == state.momentum

    @pytest.mark.parametrize("regime", REGIMES)
    def test_regime_round_trip(self, tmp_path, regime):
        rng = rng_stream(18, "ckpt")
        ids = ["a", "b"][: REGIME_TABLE[regime].datasets]
        data = {ds: tiny_traindata(rng, n_scenes=2) for ds in ids}
        cfg = ExperimentConfig(regime=regime, epochs=1, pretrain_epochs=1, batch_size=2, seed=0, hidden=3)
        result = train(data, cfg)
        assert result.params.regime == regime
        blob = save_checkpoint(tmp_path / "m.mckpt", result.params, result.norm_state)
        params, state = load_checkpoint(tmp_path / "m.mckpt")
        assert params.regime == regime
        assert save_checkpoint(tmp_path / "again.mckpt", params, state) == blob

    def test_one_dataset_mdt_stays_mdt(self, tmp_path):
        # one per-dataset statistic set and one head, as a single model has
        rng = rng_stream(19, "ckpt")
        cfg = ExperimentConfig(regime="mdt", epochs=1, batch_size=2, seed=0, hidden=3)
        result = train({"a": tiny_traindata(rng, n_scenes=2)}, cfg)
        assert result.norm_state.dataset_ids() == ["a"] and list(result.params.heads) == ["a"]
        save_checkpoint(tmp_path / "m.mckpt", result.params, result.norm_state)
        assert load_checkpoint(tmp_path / "m.mckpt")[0].regime == "mdt"

    def test_regime_name_follows_header(self, tmp_path):
        params = init_params({"a": 2}, 2, 0, regime="direct_merge")
        blob = save_checkpoint(tmp_path / "m.mckpt", params, NormState(2, ["a"]))
        assert blob[:6] == b"MCKP\x02\x00"
        assert blob[6:20] == b"\x0c\x00direct_merge"
        assert init_params({"a": 2}, 2, 0).regime == "mdt"

    def test_unknown_regime_rejected(self, tmp_path):
        params = init_params({"a": 2}, 2, 0)
        params.regime = "mdx"
        blob = save_checkpoint(tmp_path / "m.mckpt", params, NormState(2, ["a"]))
        with pytest.raises(CodecError) as err:
            checkpoint_decode(blob)
        assert "mdx" in str(err.value)
        assert err.value.offset == 11  # read up to the end of the name

    @pytest.mark.parametrize("fault", ["inf head weight", "nan running mean", "negative running variance"])
    def test_non_finite_or_negative_variance_rejected(self, tmp_path, fault):
        params = init_params({"a": 2}, 2, 0)
        state = NormState(2, ["a"])
        if fault == "inf head weight":
            params.heads["a"][0][1, 0] = np.inf
        elif fault == "nan running mean":
            state.stats("a")["mean"][1] = np.nan
        else:
            state.stats("a")["var"][0] = -1.0
        blob = save_checkpoint(tmp_path / "m.mckpt", params, state)
        with pytest.raises(CodecError):
            checkpoint_decode(blob)

    def test_save_deterministic(self, tmp_path):
        rng = rng_stream(17, "ckpt")
        params, state, ids, _, _ = make_instance(rng)
        b1 = save_checkpoint(tmp_path / "a.mckpt", params, state)
        b2 = save_checkpoint(tmp_path / "b.mckpt", params, state)
        assert b1 == b2

    def test_malformed_rejected(self, tmp_path):
        # every truncation decodes from bytes; one file per fault kind goes
        # through load_checkpoint, whose error keeps its kind and offset and
        # names the file
        blob = save_checkpoint(tmp_path / "ok.mckpt", init_params({"a": 2}, 2, 0), NormState(2, ["a"]))
        path = tmp_path / "bad.mckpt"
        for cut in range(4, len(blob)):
            with pytest.raises(TruncatedPayload) as err:
                checkpoint_decode(blob[:cut])
            assert 0 <= err.value.offset <= cut
        cut = len(blob) // 2
        for bad, kind in ((blob[:cut], TruncatedPayload),
                          (b"XCKP" + blob[4:], BadMagic),
                          (blob[:4] + b"\x09\x00" + blob[6:], VersionUnsupported),
                          (blob + b"\x00", CodecError)):
            with pytest.raises(kind) as from_bytes:
                checkpoint_decode(bad)
            path.write_bytes(bad)
            with pytest.raises(kind) as from_file:
                load_checkpoint(path)
            assert type(from_file.value) is type(from_bytes.value)
            assert from_file.value.offset == from_bytes.value.offset
            assert str(from_file.value) == f"{path}: {from_bytes.value}"
