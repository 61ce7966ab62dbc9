"""Verification gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import hashlib
import os
import time

import numpy as np
import pytest

from mdocc.align import NormState, dsnorm_forward, intersect_ranges
from mdocc.core import Lattice, OccupancyGrid, Range3D, rng_stream
from mdocc.labelspace import (
    MergeCandidate,
    enumerate_candidates,
    solve_unified,
)
from mdocc.metrics import ConfusionMatrix, accumulate, geometric_iou, miou
from mdocc.model import backward, class_weights_from_counts
from mdocc.refine import sample_features, split_voxels
from tests.test_labelspace import exhaustive_minimum, spaces_of
from tests.test_metrics import brute_force_counts, brute_force_metrics
from tests.test_model import batch_loss, make_instance, _flatten_params, _grad_of


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} ({name}): {tag} {detail}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_01_range_alignment_exact():
    oo_nu = Range3D(-51.2, 51.2, -51.2, 51.2, -5.0, 3.0)
    sk = Range3D(0.0, 51.2, -25.6, 25.6, -3.4, 3.0)
    got = intersect_ranges([oo_nu, sk])
    ok = got == Range3D(0.0, 51.2, -25.6, 25.6, -3.4, 3.0)
    report(1, "range alignment exactness", ok, f"got {got}")


def test_02_metric_oracle_equivalence():
    rng = rng_stream(2026, "acc/metrics")
    worst = 0.0
    ok = True
    for _ in range(100):
        dims = (16, 16, 16)
        pred = OccupancyGrid(dims, 0.25, (0, 0, 0), rng.integers(0, 5, dims), 5)
        gt = OccupancyGrid(dims, 0.25, (0, 0, 0), rng.integers(0, 5, dims), 5)
        er = pred.extent
        cm = ConfusionMatrix(5)
        accumulate(cm, pred, gt, er)
        counts = brute_force_counts(pred, gt, er, 5)
        if not np.array_equal(cm.counts, counts):
            ok = False
            break
        want_g, want_m = brute_force_metrics(counts, 0)
        dg = abs(geometric_iou(cm, 0) - want_g)
        dm = abs(miou(cm, 0) - want_m)
        worst = max(worst, dg, dm)
        if dg > 1e-12 or dm > 1e-12:
            ok = False
            break
    report(2, "metric oracle equivalence", ok, f"worst |delta| {worst:.2e}")


def test_03_dsnorm_exactness_and_isolation():
    rng = rng_stream(2026, "acc/dsnorm")
    state = NormState(4, ["a", "b"])
    state.gamma = rng.normal(1.0, 0.3, 4)
    state.beta = rng.normal(0.0, 0.3, 4)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(rng.normal(0, 3), rng.uniform(0.5, 2.5), (64, 4))
        y, _ = dsnorm_forward(x, "a", state, mode="train")
        want = state.gamma * (x - x.mean(0)) / np.sqrt(x.var(0) + state.eps) + state.beta
        worst = max(worst, float(np.max(np.abs(y - want))))
    formula_ok = worst < 1e-12

    state2 = NormState(2, ["a", "b"])
    b_mean = state2.stats("b")["mean"].copy()
    b_var = state2.stats("b")["var"].copy()
    mu, sd = np.array([4.0, -2.0]), np.array([1.5, 0.7])
    for _ in range(1000):
        dsnorm_forward(rng.normal(mu, sd, (256, 2)), "a", state2, mode="train")
    sa = state2.stats("a")
    rel_mean = np.max(np.abs(sa["mean"] - mu) / np.abs(mu))
    rel_var = np.max(np.abs(sa["var"] - sd**2) / sd**2)
    converged = rel_mean < 0.02 and rel_var < 0.02
    isolated = np.array_equal(state2.stats("b")["mean"], b_mean) and np.array_equal(
        state2.stats("b")["var"], b_var
    )
    report(
        3,
        "dsnorm exactness + stat isolation",
        formula_ok and converged and isolated,
        f"formula {worst:.1e}, rel err mean {rel_mean:.3%} var {rel_var:.3%}, isolated {isolated}",
    )


def test_04_gradient_correctness():
    rng = rng_stream(2026, "acc/grad")
    total = 0
    bad = 0
    worst = 0.0
    h = 1e-5
    for _ in range(10):
        params, state, ids, vols, gts = make_instance(rng, dims=(4, 4, 4), scenes=1)
        w = class_weights_from_counts(
            np.bincount(np.concatenate([g.reshape(-1) for g in gts]), minlength=3)
        )
        _, grads = backward(vols, gts, ids[0], ids[0], params, state, w)
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
    ok = bad / total <= 0.01
    report(4, "analytic vs finite-difference gradients", ok,
           f"{total - bad}/{total} coords within 1e-4 (worst {worst:.2e})")


def _random_two_dataset_instance(rng):
    na = int(rng.integers(2, 6))
    nb = int(rng.integers(2, min(9, 11 - na)))
    spaces = spaces_of({"a": na, "b": nb})
    cands = [
        MergeCandidate(members=((ds, c),), cost=0.0)
        for ds, space in spaces.items()
        for c in range(len(space))
    ]
    for i in range(na):
        for j in range(nb):
            cands.append(
                MergeCandidate(members=(("a", i), ("b", j)), cost=round(float(rng.random()), 6))
            )
    lam = round(float(rng.uniform(0.05, 0.7)), 6)
    return cands, spaces, lam


def test_05_solver_exactness():
    rng = rng_stream(2026, "acc/ilp")
    ok = True
    for _ in range(50):
        cands, spaces, lam = _random_two_dataset_instance(rng)
        uni = solve_unified(cands, lam, spaces)
        want = exhaustive_minimum(cands, spaces, lam)
        if uni.objective != want[0]:
            ok = False
            break
    three_ok = True
    for _ in range(10):
        sizes = {"a": int(rng.integers(2, 5)), "b": int(rng.integers(2, 5)), "c": int(rng.integers(2, 5))}
        spaces = spaces_of(sizes)
        cands = [
            MergeCandidate(members=((ds, c),), cost=0.0)
            for ds, space in spaces.items()
            for c in range(len(space))
        ]
        ids = list(sizes)
        for i, da in enumerate(ids):
            for db in ids[i + 1 :]:
                for ca in range(sizes[da]):
                    for cb in range(sizes[db]):
                        cands.append(MergeCandidate(
                            members=((da, ca), (db, cb)), cost=round(float(rng.random()), 6)))
        for ca in range(sizes["a"]):
            for cb in range(sizes["b"]):
                for cc in range(sizes["c"]):
                    cands.append(MergeCandidate(
                        members=(("a", ca), ("b", cb), ("c", cc)),
                        cost=round(float(rng.uniform(0, 2)), 6)))
        lam = round(float(rng.uniform(0.05, 0.7)), 6)
        uni = solve_unified(cands, lam, spaces)
        want = exhaustive_minimum(cands, spaces, lam)
        if uni.objective != want[0]:
            three_ok = False
            break
    report(5, "exact solve vs exhaustive enumeration", ok and three_ok,
           f"2-dataset 50/50 {'ok' if ok else 'bad'}, 3-dataset 10/10 {'ok' if three_ok else 'bad'}")


def _twin_corpus(rng, n_classes=8, voxels=768, scenes=3, noise=0.05):
    """Two relabeled copies of one prediction stream, one side label-flipped."""
    perm = rng.permutation(n_classes)
    grids_a, grids_b = [], []
    for _ in range(scenes):
        labels = rng.integers(0, n_classes, voxels)
        flip = rng.random(voxels) < noise
        flipped = labels.copy()
        shift = rng.integers(1, n_classes, voxels)
        flipped[flip] = (labels[flip] + shift[flip]) % n_classes
        a = np.zeros((voxels, 1, 1, n_classes))
        a[np.arange(voxels), 0, 0, labels] = 1.0
        b = np.zeros((voxels, 1, 1, n_classes))
        b[np.arange(voxels), 0, 0, perm[flipped]] = 1.0
        grids_a.append(a)
        grids_b.append(b)
    truth = {(("a", int(c)), ("b", int(perm[c]))) for c in range(n_classes)}
    return {"a": grids_a, "b": grids_b}, truth


def test_06_label_space_recovery_under_noise():
    hits = 0
    for seed in range(10):
        rng = rng_stream(seed, "acc/recovery")
        corpus, truth = _twin_corpus(rng, noise=0.05)
        cands = enumerate_candidates(corpus, tau=0.1)
        uni = solve_unified(cands, lam=0.05, spaces=spaces_of({"a": 8, "b": 8}))
        got = {c.members for c in uni.selected if len(c) == 2}
        singles = {c.members for c in uni.selected if len(c) == 1}
        if got == truth and not singles:
            hits += 1
    report(6, "label-space recovery with 5% noise", hits == 10, f"{hits}/10 seeds exact")


def test_07_pruning_soundness():
    rng = rng_stream(2026, "acc/prune")
    ok = True
    for _ in range(50):
        na = int(rng.integers(2, 6))
        nb = int(rng.integers(2, min(9, 11 - na)))
        sizes = {"a": na, "b": nb}
        corpus = {}
        for ds, k in sizes.items():
            raw = rng.random((64, 1, 1, k))
            raw /= raw.sum(axis=3, keepdims=True)
            corpus[ds] = [raw]
        full = enumerate_candidates(corpus, tau=float("inf"))
        max_pair = max((c.cost for c in full if len(c) == 2), default=0.0)
        pruned = enumerate_candidates(corpus, tau=max_pair)
        spaces = spaces_of(sizes)
        lam = round(float(rng.uniform(0.02, 0.4)), 6)
        a = solve_unified(full, lam, spaces)
        b = solve_unified(pruned, lam, spaces)
        if a.objective != b.objective or [c.members for c in a.selected] != [
            c.members for c in b.selected
        ]:
            ok = False
            break
    report(7, "pruning threshold soundness", ok)


def test_08_coarse_to_fine_contracts():
    rng = rng_stream(2026, "acc/refine")
    ok = True
    detail = []
    for eta in (1, 2, 4):
        dims = (32, 32, 32)
        labels = (rng.random(dims) < 0.08).astype(np.uint16) * rng.integers(1, 4, dims).astype(np.uint16)
        grid = OccupancyGrid(dims, 0.4, (0, 0, 0), labels, 4)
        vox = np.argwhere(grid.labels != 0)
        queries = split_voxels(vox, eta)
        count_ok = len(queries) == vox.shape[0] * eta**3
        fd = np.asarray([d * eta for d in dims], dtype=np.int64)
        linear = (queries[:, 0] * fd[1] + queries[:, 1]) * fd[2] + queries[:, 2]
        unique_ok = np.unique(linear).size == len(queries)
        # exhaustive empty-fill check over the whole eta-scaled volume
        feats = rng.normal(size=dims + (5,))
        sampled = sample_features(feats, queries, eta)
        from mdocc.refine import refine_and_reassemble

        head = (rng.normal(size=(5, 4)), rng.normal(size=4))
        fine = refine_and_reassemble(
            queries, sampled, head, Lattice(tuple(d * eta for d in dims), 0.4 / eta, (0, 0, 0)), 0
        )
        in_query = np.zeros(fine.dims, dtype=bool)
        in_query[queries[:, 0], queries[:, 1], queries[:, 2]] = True
        fill_ok = bool(np.all(fine.labels[~in_query] == 0))
        ok = ok and count_ok and unique_ok and fill_ok
        detail.append(f"eta={eta}: count {count_ok}, unique {unique_ok}, fill {fill_ok}")

    # eta = 1 refinement reproduces the unrefined prediction voxel-for-voxel,
    # hence identical metrics
    from mdocc.refine import refine_and_reassemble as rr

    hidden = rng.normal(size=(8, 8, 4, 6))
    head_w, head_b = rng.normal(size=(6, 4)), rng.normal(size=4)
    coarse_labels = np.argmax(hidden @ head_w + head_b, axis=3).astype(np.uint16)
    coarse = OccupancyGrid((8, 8, 4), 0.4, (0, 0, 0), coarse_labels, 4)
    q = split_voxels(np.argwhere(coarse.labels != 0), 1)
    refined = rr(q, sample_features(hidden, q, 1),
                 (head_w, head_b), coarse.lattice, 0)
    identity_ok = refined == coarse
    ok = ok and identity_ok
    report(8, "coarse-to-fine query contracts", ok,
           "; ".join(detail) + f"; eta=1 metric-identity {identity_ok}")


@pytest.fixture(scope="module")
def trend_runs():
    from mdocc.experiment import run_trend_experiment

    runs = []
    for seed in range(5):
        t0 = time.time()
        runs.append(run_trend_experiment(seed=seed, n_eval=8, epochs=48))
        assert time.time() - t0 < 600, "per-seed runtime budget exceeded"
    return runs


@pytest.mark.slow
def test_09_mdt_trend(trend_runs):
    def iou(run, setup, ds):
        return run["rows"][(setup, ds)]["iou"]

    x_b = sum(iou(r, "mdt", "b64") >= iou(r, "single_a32", "b64") for r in trend_runs)
    x_a = sum(iou(r, "mdt", "a32") >= iou(r, "single_b64", "a32") for r in trend_runs)
    in_a = sum(iou(r, "mdt", "a32") >= iou(r, "direct_merge", "a32") for r in trend_runs)
    in_b = sum(iou(r, "mdt", "b64") >= iou(r, "direct_merge", "b64") for r in trend_runs)
    ok = x_b >= 4 and x_a >= 4 and in_a >= 4 and in_b >= 4
    report(9, "mdt cross-domain and in-domain trends", ok,
           f"cross b64 {x_b}/5, cross a32 {x_a}/5, in a32 {in_a}/5, in b64 {in_b}/5")


@pytest.mark.slow
def test_10_catastrophic_forgetting(trend_runs):
    hits = 0
    for run in trend_runs:
        pe = run["pretrain_epochs"]
        curve = [(r["epoch"], r["iou"]) for r in run["pt_log"] if r["dataset"] == "a32"]
        peak = max(v for e, v in curve if e < pe)
        final = curve[-1][1]
        if final < peak:
            hits += 1
    report(10, "fine-tuning forgets the source domain", hits >= 4, f"{hits}/5 seeds dropped")


def _float_hex_digest(records):
    """sha256 over one line per record of its values, comma-separated, each
    float as its exact hex form."""
    lines = (",".join(v.hex() if isinstance(v, float) else str(v) for v in rec.values())
             for rec in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.slow
def test_trend_seed0_golden(trend_runs):
    """Seed 0's report rows (in sorted key order), pretrain_finetune log and
    the epoch-0 and epoch-47 log rows of the other four trainings, bit for
    bit; a change to the training arithmetic that moves a bit shows here."""
    rows = trend_runs[0]["rows"]
    assert _float_hex_digest(rows[k] for k in sorted(rows)) == (
        "1a6474fe6f119de8e89055e675f04cd42b6928d85b2c63d20d5d276881357df7")
    assert _float_hex_digest(trend_runs[0]["pt_log"]) == (
        "8c18157f9c2b9d35aef05afcbc92405d1ad82817d49a7d2925b86e58a4b8e857")
    results = trend_runs[0]["results"]
    ends = [row for name in ("single_a32", "single_b64", "direct_merge", "mdt")
            for row in results[name].log if row["epoch"] in (0, 47)]
    assert _float_hex_digest(ends) == (
        "acc50274271b5b53bf7986c46b6b2ac2bad1af15add6b206d17e18b67bd06794")


def test_11_cli_determinism(tmp_path):
    from mdocc.cli import main
    from mdocc.config import ExperimentConfig, render_config
    from tests.test_config_cli import tree_bytes

    cwd = os.getcwd()
    outputs = []
    try:
        for tag in ("one", "two"):
            workdir = tmp_path / tag
            workdir.mkdir()
            os.chdir(workdir)
            cfg = ExperimentConfig(seed=99, out="run", scenes=3, eval_scenes=2,
                                   epochs=3, pretrain_epochs=2, batch_size=2, hidden=6)
            path = workdir / "exp.cfg"
            path.write_text(render_config(cfg))
            assert main(["synth", "--config", str(path)]) == 0
            assert main(["train", "--config", str(path), "--regime", "mdt"]) == 0
            ckpt = os.path.join("run", "ckpt_mdt.mckpt")
            assert main(["learn-labels", "--config", str(path), "--checkpoint", ckpt]) == 0
            assert main(["eval", "--config", str(path), "--checkpoint", ckpt,
                         "--unified", os.path.join("run", "unified.txt")]) == 0
            outputs.append(tree_bytes("run"))
    finally:
        os.chdir(cwd)
    same = outputs[0] == outputs[1]
    report(11, "synth+train+eval reruns byte-identical", same,
           f"{len(outputs[0])} files compared")
