import dataclasses
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mdocc import cli, experiment
from mdocc.align import NormState
from mdocc.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from mdocc.config import ConfigError, ExperimentConfig, parse_config, render_config
from mdocc.core import OccupancyGrid, grid_encode
from mdocc.labelspace import export_unified, parse_unified, unified_from_pairs
from mdocc.model import TrainResult, init_params, load_checkpoint, save_checkpoint
from mdocc.scenes import taxonomy_preset


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        text = render_config(cfg)
        assert parse_config(text) == cfg

    def test_modified_round_trip(self):
        cfg = ExperimentConfig(seed=7, scenes=3, lam=0.125, taxonomy="twin", cross=True)
        assert parse_config(render_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nseed = 1\nbogus = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nope]\nseed = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nseed = banana\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nseed = 1\nseed = 2\n")

    def test_comments_and_blanks_ok(self):
        cfg = parse_config("# hello\n\n[run]\nseed = 9\n")
        assert cfg.seed == 9

    def test_render_stable(self):
        cfg = ExperimentConfig()
        assert render_config(cfg) == render_config(ExperimentConfig())


def tiny_cfg(out, **kw):
    defaults = dict(
        seed=11,
        scenes=2,
        eval_scenes=1,
        boxes=3,
        pillars=2,
        walls=1,
        blobs=1,
        posts=1,
        epochs=2,
        pretrain_epochs=2,
        batch_size=2,
        lr=0.05,
        hidden=6,
    )
    defaults.update(kw)
    cfg = ExperimentConfig(out=str(out), **defaults)
    path = os.path.join(str(out), "cfg.txt")
    os.makedirs(str(out), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(render_config(cfg))
    return cfg, path


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestCliSynth:
    def test_inventory_and_rerun_identical(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "run1")
        assert main(["synth", "--config", path]) == EXIT_OK
        first = tree_bytes(cfg.out)
        want = {
            "config.txt",
            "manifest.json",
            "a32/scene_0000.mocc", "a32/scene_0001.mocc",
            "a32/scene_cloud_0000.mply", "a32/scene_cloud_0001.mply",
            "a32/eval_0000.mocc", "a32/eval_cloud_0000.mply",
            "b64/scene_0000.mocc", "b64/scene_0001.mocc",
            "b64/scene_cloud_0000.mply", "b64/scene_cloud_0001.mply",
            "b64/eval_0000.mocc", "b64/eval_cloud_0000.mply",
        }
        assert set(first) == want | {"cfg.txt"}
        assert main(["synth", "--config", path]) == EXIT_OK
        second = tree_bytes(cfg.out)
        assert first == second

    def test_zero_scenes_valid_manifest(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "zero", scenes=0, eval_scenes=0)
        assert main(["synth", "--config", path]) == EXIT_OK
        with open(os.path.join(cfg.out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["scene_seeds"] == []
        assert "a32" in manifest["datasets"]

    def test_manifest_records_oracle(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "m")
        main(["synth", "--config", path])
        with open(os.path.join(cfg.out, "manifest.json")) as fh:
            manifest = json.load(fh)
        pairs = {tuple(map(tuple, p)) for p in manifest["oracle_pairs"]}
        assert (("a32", 0), ("b64", 0)) in pairs  # empty pairs with empty


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg, path = tiny_cfg(root, scenes=3, eval_scenes=2, epochs=3)
    assert main(["synth", "--config", path]) == EXIT_OK
    return cfg, path


class TestCliTrainEval:
    def test_single_regime_one_head(self, rundir):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", "single"]) == EXIT_OK
        from mdocc.model import load_checkpoint

        params, norm = load_checkpoint(os.path.join(cfg.out, "ckpt_single.mckpt"))
        assert list(params.heads) == ["a32"]
        assert norm.dataset_ids() == ["a32"]
        log = open(os.path.join(cfg.out, "train_log_single.csv")).read().splitlines()
        assert log[0] == "epoch,dataset,loss,iou,miou"
        assert len(log) == 1 + 3

    def test_mdt_two_heads_shared_backbone(self, rundir):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        from mdocc.model import load_checkpoint

        params, norm = load_checkpoint(os.path.join(cfg.out, "ckpt_mdt.mckpt"))
        assert sorted(params.heads) == ["a32", "b64"]
        assert sorted(norm.dataset_ids()) == ["a32", "b64"]
        assert params.heads["a32"][0].shape[1] == 9
        assert params.heads["b64"][0].shape[1] == 8

    def test_direct_merge_union_head(self, rundir):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", "direct_merge"]) == EXIT_OK
        from mdocc.model import load_checkpoint

        params, norm = load_checkpoint(os.path.join(cfg.out, "ckpt_direct_merge.mckpt"))
        assert list(params.heads) == ["merged"]
        assert params.heads["merged"][0].shape[1] == 9 + 8
        assert norm.dataset_ids() == ["merged"]

    def test_learn_labels_and_eval(self, rundir):
        cfg, path = rundir
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        unified = os.path.join(cfg.out, "unified.txt")
        assert os.path.exists(unified)
        text = open(unified).read()
        assert text.startswith("format: unified-space v1")
        # the document reads back into the space learned from the same inputs,
        # and writes back to the same bytes
        synth = experiment.synthesize(cfg.seed, taxonomy_name=cfg.taxonomy, n_train=cfg.scenes,
                                      n_eval=cfg.eval_scenes, scene_counts=cfg.scene_counts)
        want = experiment.learn_unified(TrainResult(*load_checkpoint(ckpt), log=[]), synth,
                                        cfg.stride, cfg.lam, cfg.tau)
        got = parse_unified(text, synth.taxonomy.spaces)
        assert got.space == want.space
        assert list(got.index) == list(want.index)
        for ds in got.index:
            assert np.array_equal(got.index[ds], want.index[ds])
        assert [(c.members, c.cost) for c in got.selected] == [(c.members, c.cost) for c in want.selected]
        assert type(got.objective) is float and got.objective == want.objective
        assert export_unified(got, lam=cfg.lam, tau=cfg.tau) == text
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        report = open(os.path.join(cfg.out, "report_mdt.csv")).read().splitlines()
        assert report[0] == "setup,dataset,iou,miou"
        assert len(report) == 3  # mdt on a32 and b64
        # prediction grids written for every eval scene
        assert os.path.exists(os.path.join(cfg.out, "pred", "mdt", "a32", "pred_0001.mocc"))

    def test_eval_rerun_identical(self, rundir):
        cfg, path = rundir
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        unified = os.path.join(cfg.out, "unified.txt")
        r1 = open(os.path.join(cfg.out, "report_mdt.csv"), "rb").read()
        # in-domain eval needs no unified document
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        # r1 came from an eval with --unified (SLM read-out); rerun it alike
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        r2 = open(os.path.join(cfg.out, "report_mdt.csv"), "rb").read()
        assert r1 == r2

    def test_cross_eval_without_unified_fails_numeric(self, tmp_path, rundir):
        import shutil

        cfg, path = rundir
        ckpt = os.path.join(cfg.out, "ckpt_single.mckpt")
        shutil.copytree(cfg.out, str(tmp_path / "cross"))
        cfg2, path2 = tiny_cfg(tmp_path / "cross", scenes=3, eval_scenes=2, epochs=3, cross=True)
        assert main(["eval", "--config", path2, "--checkpoint", ckpt]) == EXIT_NUMERIC

    def test_mdt_cross_eval(self, tmp_path, rundir):
        import shutil

        cfg, path = rundir
        shutil.copytree(cfg.out, str(tmp_path / "cross"))
        cfg2, path2 = tiny_cfg(tmp_path / "cross", scenes=3, eval_scenes=2, epochs=3, cross=True)
        ckpt = os.path.join(cfg2.out, "ckpt_mdt.mckpt")
        unified = os.path.join(cfg2.out, "unified.txt")
        assert main(["eval", "--config", path2, "--checkpoint", ckpt]) == EXIT_NUMERIC
        assert main(["eval", "--config", path2, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        report = open(os.path.join(cfg2.out, "report_mdt.csv")).read().splitlines()
        assert [line.split(",")[:2] for line in report[1:]] == [
            ["mdt", "a32"], ["mdt", "b64"], ["mdt_cross", "a32"], ["mdt_cross", "b64"],
        ]

    @pytest.mark.parametrize("regime", ["mdt", "single"])
    def test_twin_cross_eval_without_unified_fails_numeric(self, tmp_path, regime, capsys):
        # both twin datasets have 8 classes, so no class count tells that a
        # cross cell reads the other dataset's label ids
        cfg, path = tiny_cfg(tmp_path / "twin", taxonomy="twin", cross=True)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", regime]) == EXIT_OK
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, f"ckpt_{regime}.mckpt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_NUMERIC
        assert one_line_of_output(capsys)
        assert not [f for f in os.listdir(cfg.out) if f.startswith("report_")]

    def test_cross_eval_without_unified_refused_before_scene_work(self, rundir, tmp_path,
                                                                   monkeypatch, capsys):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        cross_path = tmp_path / "cross.cfg"
        cross_path.write_text(render_config(dataclasses.replace(cfg, cross=True)))

        def refused(name):
            # scene work may run in a forked worker, whose calls never reach
            # a list here; the exception it raises travels back
            def wrapper(*args, **kwargs):
                raise AssertionError(f"{name} called before the refusal")
            return wrapper

        for name in ("cloud_features", "predict_scores"):
            monkeypatch.setattr(experiment, name, refused(name))
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["eval", "--config", str(cross_path), "--checkpoint", ckpt]) == EXIT_NUMERIC
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("regime", ["single", "direct_merge", "pretrain_finetune"])
    def test_learn_labels_needs_mdt(self, rundir, regime, capsys):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", regime]) == EXIT_OK
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, f"ckpt_{regime}.mckpt")
        assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_USAGE
        assert one_line_of_output(capsys)
        if regime == "pretrain_finetune":
            assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_USAGE
            assert one_line_of_output(capsys)

    def test_report_merges(self, rundir, tmp_path):
        cfg, path = rundir
        rep = os.path.join(cfg.out, "report_mdt.csv")
        out = tmp_path / "merged"
        assert main(["report", "--out", str(out), rep, rep]) == EXIT_OK
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert len(lines) == 5


    def test_eval_of_fewer_scenes_removes_stale_predictions(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "run", eval_scenes=3)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        cell = os.path.join(cfg.out, "pred", "mdt", "a32")
        assert sorted(os.listdir(cell)) == [f"pred_{i:04d}.mocc" for i in range(3)]
        # files of other names are not the program's, and stay
        for name in ("pred_02.mocc", "pred_0007.txt", "notes.txt"):
            (Path(cell) / name).write_text("kept")
        for ds in ("a32", "b64"):
            shutil.rmtree(os.path.join(cfg.out, ds))
        _, path = tiny_cfg(tmp_path / "run", eval_scenes=2)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        report = open(os.path.join(cfg.out, "report_mdt.csv")).read().splitlines()
        assert len(report) == 3
        for ds in ("a32", "b64"):
            names = sorted(os.listdir(os.path.join(cfg.out, "pred", "mdt", ds)))
            kept = ["notes.txt", "pred_0007.txt", "pred_02.mocc"] if ds == "a32" else []
            assert names == sorted(["pred_0000.mocc", "pred_0001.mocc"] + kept)

    def test_eval_without_cross_removes_cross_predictions(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "run", cross=True)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        unified = os.path.join(cfg.out, "unified.txt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        cross = Path(cfg.out, "pred", "mdt_cross")
        assert sorted(p.name for p in cross.glob("*/pred_*.mocc")) == ["pred_0000.mocc"] * 2
        (cross / "a32" / "notes.txt").write_text("kept")
        _, path = tiny_cfg(tmp_path / "run", cross=False)
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        assert [p.name for p in cross.rglob("*") if p.is_file()] == ["notes.txt"]
        for ds in ("a32", "b64"):
            assert os.listdir(os.path.join(cfg.out, "pred", "mdt", ds)) == ["pred_0000.mocc"]


class TestCliHeldData:
    """Each command holds only the synth split it reads."""

    @pytest.mark.parametrize("split, n_train, n_eval", [("scene", 3, 0), ("eval", 0, 2)])
    def test_load_keeps_one_split(self, rundir, split, n_train, n_eval):
        synth = cli._load_synth(rundir[0], split)
        assert {ds: len(v) for ds, v in synth.train_views.items()} == {"a32": n_train, "b64": n_train}
        assert {ds: len(v) for ds, v in synth.eval_views.items()} == {"a32": n_eval, "b64": n_eval}

    @pytest.mark.parametrize("regime", ["mdt", "single"])
    def test_twin_cross_eval_without_unified_fails_numeric(self, tmp_path, regime, capsys):
        # both twin datasets have 8 classes, so no class count tells that a
        # cross cell reads the other dataset's label ids
        cfg, path = tiny_cfg(tmp_path / "twin", taxonomy="twin", cross=True)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", regime]) == EXIT_OK
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, f"ckpt_{regime}.mckpt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_NUMERIC
        assert one_line_of_output(capsys)
        assert not [f for f in os.listdir(cfg.out) if f.startswith("report_")]

    def test_cross_eval_without_unified_refused_before_scene_work(self, rundir, tmp_path,
                                                                   monkeypatch, capsys):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        cross_path = tmp_path / "cross.cfg"
        cross_path.write_text(render_config(dataclasses.replace(cfg, cross=True)))

        def refused(name):
            # scene work may run in a forked worker, whose calls never reach
            # a list here; the exception it raises travels back
            def wrapper(*args, **kwargs):
                raise AssertionError(f"{name} called before the refusal")
            return wrapper

        for name in ("cloud_features", "predict_scores"):
            monkeypatch.setattr(experiment, name, refused(name))
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["eval", "--config", str(cross_path), "--checkpoint", ckpt]) == EXIT_NUMERIC
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("regime", ["single", "direct_merge", "pretrain_finetune"])
    def test_learn_labels_needs_mdt(self, rundir, regime, capsys):
        cfg, path = rundir
        assert main(["train", "--config", path, "--regime", regime]) == EXIT_OK
        capsys.readouterr()
        ckpt = os.path.join(cfg.out, f"ckpt_{regime}.mckpt")
        assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_USAGE
        assert one_line_of_output(capsys)
        if regime == "pretrain_finetune":
            assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_USAGE
            assert one_line_of_output(capsys)

    def test_report_merges(self, rundir, tmp_path):
        cfg, path = rundir
        rep = os.path.join(cfg.out, "report_mdt.csv")
        out = tmp_path / "merged"
        assert main(["report", "--out", str(out), rep, rep]) == EXIT_OK
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert len(lines) == 5


    def test_eval_of_fewer_scenes_removes_stale_predictions(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "run", eval_scenes=3)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        cell = os.path.join(cfg.out, "pred", "mdt", "a32")
        assert sorted(os.listdir(cell)) == [f"pred_{i:04d}.mocc" for i in range(3)]
        # files of other names are not the program's, and stay
        for name in ("pred_02.mocc", "pred_0007.txt", "notes.txt"):
            (Path(cell) / name).write_text("kept")
        for ds in ("a32", "b64"):
            shutil.rmtree(os.path.join(cfg.out, ds))
        _, path = tiny_cfg(tmp_path / "run", eval_scenes=2)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["eval", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        report = open(os.path.join(cfg.out, "report_mdt.csv")).read().splitlines()
        assert len(report) == 3
        for ds in ("a32", "b64"):
            names = sorted(os.listdir(os.path.join(cfg.out, "pred", "mdt", ds)))
            kept = ["notes.txt", "pred_0007.txt", "pred_02.mocc"] if ds == "a32" else []
            assert names == sorted(["pred_0000.mocc", "pred_0001.mocc"] + kept)

    def test_eval_without_cross_removes_cross_predictions(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "run", cross=True)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
        assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
        unified = os.path.join(cfg.out, "unified.txt")
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        cross = Path(cfg.out, "pred", "mdt_cross")
        assert sorted(p.name for p in cross.glob("*/pred_*.mocc")) == ["pred_0000.mocc"] * 2
        (cross / "a32" / "notes.txt").write_text("kept")
        _, path = tiny_cfg(tmp_path / "run", cross=False)
        assert main(["eval", "--config", path, "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        assert [p.name for p in cross.rglob("*") if p.is_file()] == ["notes.txt"]
        for ds in ("a32", "b64"):
            assert os.listdir(os.path.join(cfg.out, "pred", "mdt", ds)) == ["pred_0000.mocc"]


class TestCliHeldData:
    """Each command holds only the synth split it reads."""

    @pytest.mark.parametrize("split, kept, dropped", [
        ("scene", "train_views", "eval_views"), ("eval", "eval_views", "train_views")])
    def test_load_keeps_one_split(self, rundir, split, kept, dropped):
        cfg, _ = rundir
        synth = cli._load_synth(cfg, split)
        assert {ds: len(v) for ds, v in getattr(synth, kept).items()} == {
            "a32": len(getattr(synth, "scene_seeds" if split == "scene" else "eval_seeds")),
            "b64": len(getattr(synth, "scene_seeds" if split == "scene" else "eval_seeds")),
        }
        assert getattr(synth, dropped) == {"a32": [], "b64": []}

    @pytest.mark.parametrize("regime", ["mdt", "single"])
    def test_train_releases_synth_before_training(self, rundir, regime, monkeypatch):
        # training reads only the prepared data: the decoded directory, and
        # each decoded cloud in it, must be gone when it starts
        cfg, path = rundir
        refs, started = [], []
        load, train = cli._load_synth, cli.train

        def load_and_watch(*args, **kwargs):
            synth = load(*args, **kwargs)
            refs.extend([weakref.ref(synth), weakref.ref(synth.train_views["a32"][0][0])])
            return synth

        def train_and_check(*args, **kwargs):
            gc.collect()
            assert refs and all(ref() is None for ref in refs), "synth data alive in train"
            started.append(regime)
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_synth", load_and_watch)
        monkeypatch.setattr(cli, "train", train_and_check)
        assert main(["train", "--config", path, "--regime", regime]) == EXIT_OK
        assert started == [regime]


class TestCliErrors:
    def test_usage_error(self):
        assert main(["train", "--config", "/nonexistent/x.cfg"]) in (EXIT_USAGE, 3)

    def test_bad_config_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nbogus = 1\n")
        assert main(["synth", "--config", str(p)]) == EXIT_USAGE
        # values the trainer would reject are refused when the config loads
        for text in ("[train]\nregime = bogus\n", "[train]\nepochs = 0\n"):
            p.write_text(text)
            capsys.readouterr()
            assert main(["train", "--config", str(p)]) == EXIT_USAGE
            assert one_line_of_output(capsys)

    def test_missing_files_io_error(self, tmp_path):
        cfg, path = tiny_cfg(tmp_path / "empty")
        # train without synth outputs
        assert main(["train", "--config", path]) == 3


def one_line_of_output(capsys, naming=None):
    """True when the output is one line, naming the path ``naming`` if given."""
    out = capsys.readouterr()
    lines = (out.out + out.err).strip().splitlines()
    return len(lines) == 1 and (naming is None or str(naming) in lines[0])


@pytest.fixture
def probes(tmp_path):
    """Malformed inputs: a synth directory with no scenes, one with a
    truncated MOCC scene, a truncated checkpoint, a unified document with an
    unparsable map line and a report CSV without the miou column."""
    manifest = json.dumps({"taxonomy": "split", "scene_seeds": [], "eval_seeds": []})
    for name in ("empty", "trunc_scene"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(manifest)
    (tmp_path / "trunc_scene" / "a32").mkdir()
    tiny = OccupancyGrid((4, 4, 2), 0.2, (0.0, 0.0, 0.0), [0] * 32, 9)
    (tmp_path / "trunc_scene" / "a32" / "scene_0000.mocc").write_bytes(grid_encode(tiny)[:60])
    blob = save_checkpoint(tmp_path / "ok.mckpt", init_params({"a32": 9, "b64": 8}, 8, 0),
                           NormState(8, ["a32", "b64"]))
    (tmp_path / "trunc.mckpt").write_bytes(blob[: len(blob) // 2])
    (tmp_path / "bad_unified.txt").write_text(
        "format: unified-space v1\ndatasets: a32,b64\nempty: 0\n"
        "class 0: a32/empty+b64/empty\nmap a32 0 empty extra -> 0\n")
    (tmp_path / "no_miou.csv").write_text("setup,dataset,iou\nmdt,a32,0.5000\n")
    return tmp_path


class TestCliMalformedInputs:
    """Each malformed input file ends in exit 3 and one line of output."""

    def test_truncated_checkpoint(self, probes, capsys):
        assert main(["eval", "--out", str(probes / "empty"),
                     "--checkpoint", str(probes / "trunc.mckpt")]) == EXIT_IO
        assert one_line_of_output(capsys)

    def test_malformed_unified(self, probes, capsys):
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(probes / "ok.mckpt"),
                     "--unified", str(probes / "bad_unified.txt")]) == EXIT_IO
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("edit", [
        ("map a32 1 ground -> 1\nmap a32 2 car -> 2", "map a32 1 ground -> 2\nmap a32 2 car -> 1"),
        ("empty: 0", "empty: 9"),
        ("format: unified-space v1", "format: unified-space v9"),
        ("format: unified-space v1\n", ""),
        ("objective: 0.0\n", ""),
    ])
    def test_contradicting_unified(self, probes, edit, capsys):
        # each edit leaves a document that parses line by line: its map or
        # empty: records contradict its classes, or a header record is wrong
        text = export_unified(unified_from_pairs(taxonomy_preset("split").spaces, []))
        old, new = edit
        assert old in text
        (probes / "edited.txt").write_text(text.replace(old, new))
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(probes / "ok.mckpt"),
                     "--unified", str(probes / "edited.txt")]) == EXIT_IO
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("old, new", [
        ("format: unified-space v1\n", "format: unified-space v1\nformat: unified-space v1\n"),
        ("lambda: \n", "lambda: \nlambda: 0.5\n"),
        ("tau: \n", "tau: \ntau: 0.1\n"),
        ("objective: 0.0\n", "objective: 0.0\nobjective: 5.0\n"),
        ("datasets: a32,b64\n", "datasets: a32,b64\ndatasets: a32,b64\n"),
        ("empty: 0\n", "empty: 0\nempty: 0\n"),
        ("class 1: a32/ground\n", "class 1: a32/ground\nclass 1: a32/ground\n"),
        ("cost 1: 0.0\n", "cost 1: 0.0\ncost 1: 0.0\n"),
        ("cost 1: 0.0\n", "cost 1: 0.0\ncost 99: 7.0\n"),
        ("lambda: \n", "lambda: banana\n"),
        ("lambda: \n", "lambda: inf\n"),
        ("tau: \n", "tau: nan\n"),
    ])
    def test_refused_record_unified(self, probes, old, new, capsys):
        # a repeated record, a cost for a class the document lacks, or a
        # lambda or tau that ExperimentConfig would refuse
        text = export_unified(unified_from_pairs(taxonomy_preset("split").spaces, []))
        assert old in text
        (probes / "edited.txt").write_text(text.replace(old, new, 1))
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(probes / "ok.mckpt"),
                     "--unified", str(probes / "edited.txt")]) == EXIT_IO
        assert one_line_of_output(capsys)

    def test_report_without_miou(self, probes, capsys):
        assert main(["report", "--out", str(probes / "report"), str(probes / "no_miou.csv")]) == EXIT_IO
        assert one_line_of_output(capsys)
        assert not (probes / "report").exists()

    @pytest.mark.parametrize("manifest", ["{not json", '{"taxonomy": "nope"}'])
    def test_malformed_manifest(self, tmp_path, manifest, capsys):
        (tmp_path / "manifest.json").write_text(manifest)
        assert main(["train", "--out", str(tmp_path), "--regime", "mdt"]) == EXIT_IO
        assert one_line_of_output(capsys)

    def test_truncated_mocc(self, probes, capsys):
        assert main(["train", "--out", str(probes / "trunc_scene"), "--regime", "mdt"]) == EXIT_IO
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("command, name", [
        ("train", "scene_0000.mocc"),
        ("train", "eval_0000.mocc"),  # a split train does not keep
        ("eval", "scene_0000.mocc"),  # a split eval does not keep
    ])
    def test_truncated_mocc_names_file(self, probes, command, name, capsys):
        scene = probes / "trunc_scene" / "a32" / name
        (probes / "trunc_scene" / "a32" / "scene_0000.mocc").rename(scene)
        extra = ["--regime", "mdt"] if command == "train" else ["--checkpoint", str(probes / "ok.mckpt")]
        assert main([command, "--out", str(probes / "trunc_scene"), *extra]) == EXIT_IO
        assert one_line_of_output(capsys, naming=scene)

    def test_truncated_checkpoint_names_file(self, probes, capsys):
        ckpt = probes / "trunc.mckpt"
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(ckpt)]) == EXIT_IO
        assert one_line_of_output(capsys, naming=ckpt)

    def test_checkpoint_of_unknown_regime(self, probes, capsys):
        blob = (probes / "ok.mckpt").read_bytes()
        assert blob[6:11] == b"\x03\x00mdt"
        ckpt = probes / "mdx.mckpt"
        ckpt.write_bytes(blob[:8] + b"mdx" + blob[11:])
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(ckpt)]) == EXIT_IO
        assert one_line_of_output(capsys, naming=ckpt)

    def test_single_checkpoint_without_statistic_set(self, probes, capsys):
        ckpt = probes / "homeless.mckpt"
        save_checkpoint(ckpt, init_params({"a32": 9}, 8, 0, regime="single"), NormState(8, []))
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(ckpt)]) == EXIT_IO
        assert one_line_of_output(capsys, naming=ckpt)

    def test_v1_checkpoint_names_file(self, probes, capsys):
        # v1 is v2 without the regime name after the header
        blob = (probes / "ok.mckpt").read_bytes()
        ckpt = probes / "v1.mckpt"
        ckpt.write_bytes(blob[:4] + b"\x01\x00" + blob[11:])
        assert main(["eval", "--out", str(probes / "empty"), "--checkpoint", str(ckpt)]) == EXIT_IO
        assert one_line_of_output(capsys, naming=ckpt)

    # MOCC header: magic 0..3, version 4..5, dims 6..17, voxel size 18..25,
    # origin 26..49, class count 50..51, labels from 52
    @pytest.mark.parametrize("at, value", [
        (25, b"\xbf"),      # sign bit of the voxel size: -0.2 m
        (52, b"\x09\x00"),  # first label 9 of a 9-class grid
    ])
    def test_bad_mocc_content(self, probes, at, value, capsys):
        scene = probes / "trunc_scene" / "a32" / "scene_0000.mocc"
        blob = grid_encode(OccupancyGrid((4, 4, 2), 0.2, (0.0, 0.0, 0.0), [0] * 32, 9))
        scene.write_bytes(blob[:at] + value + blob[at + len(value):])
        assert main(["train", "--out", str(probes / "trunc_scene"), "--regime", "mdt"]) == EXIT_IO
        assert one_line_of_output(capsys)


@pytest.fixture(scope="module")
def mismatch(tmp_path_factory):
    """A split-taxonomy synth directory with an mdt checkpoint, and a
    twin-taxonomy synth directory."""
    root = tmp_path_factory.mktemp("mismatch")
    split_cfg, split_path = tiny_cfg(root / "split")
    _, twin_path = tiny_cfg(root / "twin", taxonomy="twin")
    for path in (split_path, twin_path):
        assert main(["synth", "--config", path]) == EXIT_OK
    assert main(["train", "--config", split_path, "--regime", "mdt"]) == EXIT_OK
    return split_cfg, split_path, twin_path


class TestCliMismatchedInputs:
    """Inputs that decode but do not fit each other end in exit 3 and one
    line of output."""

    @pytest.mark.parametrize("regime", ["mdt", "direct_merge"])
    def test_grid_of_another_preset(self, mismatch, tmp_path, regime, capsys):
        split_cfg, _, _ = mismatch
        out = tmp_path / "run"
        shutil.copytree(split_cfg.out, out)
        shutil.copy(out / "b64" / "scene_0000.mocc", out / "a32" / "scene_0000.mocc")
        capsys.readouterr()
        assert main(["train", "--out", str(out), "--regime", regime]) == EXIT_IO
        assert one_line_of_output(capsys)

    def test_checkpoint_without_routed_statistic_set(self, mismatch, tmp_path, capsys):
        split_cfg, split_path, _ = mismatch
        blob = open(os.path.join(split_cfg.out, "ckpt_mdt.mckpt"), "rb").read()
        at = blob.rindex(b"\x03\x00a32")  # the last a32 name is its statistic set
        renamed = tmp_path / "a33.mckpt"
        renamed.write_bytes(blob[:at] + b"\x03\x00a33" + blob[at + 5:])
        capsys.readouterr()
        assert main(["eval", "--config", split_path, "--checkpoint", str(renamed)]) == EXIT_IO
        assert one_line_of_output(capsys)

    @pytest.mark.parametrize("command", ["eval", "learn-labels"])
    def test_checkpoint_of_another_taxonomy(self, mismatch, command, capsys):
        split_cfg, _, twin_path = mismatch
        ckpt = os.path.join(split_cfg.out, "ckpt_mdt.mckpt")
        capsys.readouterr()
        assert main([command, "--config", twin_path, "--checkpoint", ckpt]) == EXIT_IO
        assert one_line_of_output(capsys)


@pytest.fixture(scope="module")
def probe_dirs(tmp_path_factory):
    """Configs to probe from: a synth directory with an mdt checkpoint, one
    with no scenes (and an mdt checkpoint trained on nothing), and a fresh
    one-scene output directory of the default config; and three copies of the
    first, one short of b64's last training scene, one with a unified
    document of a32 alone and one whose unified document names a32 twice."""
    root = tmp_path_factory.mktemp("probes")
    cfgs = {"fresh": ExperimentConfig(out=str(root / "fresh"), scenes=1, eval_scenes=0)}
    for name, kw in (("run", {}), ("empty", dict(scenes=0, eval_scenes=0))):
        cfg, path = tiny_cfg(root / name, **kw)
        assert main(["synth", "--config", path]) == EXIT_OK
        assert main(["train", "--config", path, "--regime", "mdt"]) == EXIT_OK
        cfgs[name] = cfg
    for name in ("short", "a32-only", "a32-twice"):
        cfgs[name] = dataclasses.replace(cfgs["run"], out=str(root / name))
        shutil.copytree(cfgs["run"].out, cfgs[name].out)
    last = cfgs["run"].scenes - 1
    os.remove(os.path.join(cfgs["short"].out, "b64", f"scene_{last:04d}.mocc"))
    os.remove(os.path.join(cfgs["short"].out, "b64", f"scene_cloud_{last:04d}.mply"))
    spaces = taxonomy_preset("split").spaces
    Path(cfgs["a32-only"].out, "unified.txt").write_text(
        export_unified(unified_from_pairs({"a32": spaces["a32"]}, [])))
    text = export_unified(unified_from_pairs(spaces, []))
    assert "datasets: a32,b64\n" in text
    Path(cfgs["a32-twice"].out, "unified.txt").write_text(
        text.replace("datasets: a32,b64\n", "datasets: a32,b64,a32\n"))
    return cfgs


# command, directory, config overrides, exit code; "eval-unified" is `eval`
# with the directory's unified.txt
CLI_PROBES = {
    "synth-unknown-taxonomy": ("synth", "fresh", {"taxonomy": "nope"}, EXIT_USAGE),
    "synth-negative-count": ("synth", "fresh", {"boxes": "-1"}, EXIT_USAGE),
    "synth-crowded-scene": ("synth", "fresh", {"boxes": "400"}, EXIT_USAGE),
    "train-hidden-0": ("train", "run", {"hidden": "0"}, EXIT_USAGE),
    "train-stride-0": ("train", "run", {"stride": "0"}, EXIT_USAGE),
    "train-stride-3": ("train", "run", {"stride": "3"}, EXIT_USAGE),
    "train-stride-negative": ("train", "run", {"stride": "-2"}, EXIT_USAGE),
    "train-negative-pretrain": ("train", "run", {"pretrain_epochs": "-1"}, EXIT_USAGE),
    "train-diverges": ("train", "run", {"lr": "1e308"}, EXIT_NUMERIC),
    "learn-labels-lambda-nan": ("learn-labels", "run", {"lambda": "nan"}, EXIT_USAGE),
    "learn-labels-lambda-inf": ("learn-labels", "run", {"lambda": "inf"}, EXIT_USAGE),
    "learn-labels-lambda-minus-inf": ("learn-labels", "run", {"lambda": "-inf"}, EXIT_USAGE),
    "learn-labels-no-scenes": ("learn-labels", "empty", {}, EXIT_USAGE),
    "eval-no-scenes": ("eval", "empty", {}, EXIT_USAGE),
    "eval-cross-no-scenes": ("eval", "empty", {"cross": "true"}, EXIT_USAGE),
    "train-lr-negative": ("train", "run", {"lr": "-0.05"}, EXIT_USAGE),
    "train-lr-zero": ("train", "run", {"lr": "0.0"}, EXIT_USAGE),
    "train-lr-nan": ("train", "run", {"lr": "nan"}, EXIT_USAGE),
    "learn-labels-scene-missing": ("learn-labels", "short", {}, EXIT_IO),
    "eval-scene-missing": ("eval", "short", {}, EXIT_IO),
    "eval-unified-dataset-missing": ("eval-unified", "a32-only", {}, EXIT_IO),
    "eval-unified-cross-dataset-missing": ("eval-unified", "a32-only", {"cross": "true"}, EXIT_IO),
    "eval-unified-dataset-twice": ("eval-unified", "a32-twice", {}, EXIT_IO),
}


def run_probe(cfg, tmp_path, command, overrides, extra, code):
    """`mdocc <command> --config <cfg with overrides> <extra>` in a fresh
    interpreter, so numpy warnings and tracebacks reach the output: it must
    exit with ``code`` and print one line, with no traceback."""
    text = render_config(cfg)
    for key, value in overrides.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path = tmp_path / "probe.cfg"
    path.write_text(text)
    argv = [sys.executable, "-m", "mdocc.cli", command, "--config", str(path), *extra]
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    output = run.stdout + run.stderr
    assert run.returncode == code, output
    assert len(output.splitlines()) == 1 and "Traceback" not in output, output
    return output


@pytest.mark.parametrize("probe", CLI_PROBES)
def test_cli_probe_one_line(probe_dirs, tmp_path, probe):
    command, directory, overrides, code = CLI_PROBES[probe]
    cfg = probe_dirs[directory]
    extra = []
    if command == "eval-unified":
        command = "eval"
        extra = ["--unified", os.path.join(cfg.out, "unified.txt")]
    if command in ("learn-labels", "eval"):
        extra += ["--checkpoint", os.path.join(cfg.out, "ckpt_mdt.mckpt")]
    run_probe(cfg, tmp_path, command, overrides, extra, code)


@pytest.fixture(scope="module")
def non_finite_models(probe_dirs, tmp_path_factory):
    """The probe run's mdt checkpoint with one NaN weight, with finite
    backbone weights large enough to overflow the forward pass, and with an
    a32 head whose finite weights overflow its scores while the backbone
    stays finite; the run's directory gains a unified.txt for
    `eval --unified`."""
    cfg = probe_dirs["run"]
    ckpt = os.path.join(cfg.out, "ckpt_mdt.mckpt")
    path = os.path.join(cfg.out, "cfg.txt")
    assert main(["learn-labels", "--config", path, "--checkpoint", ckpt]) == EXIT_OK
    root = tmp_path_factory.mktemp("non_finite")
    paths = {}
    for kind in ("nan", "overflow", "head-overflow"):
        params, norm_state = load_checkpoint(ckpt)
        if kind == "nan":
            params.w1[0, 0] = np.nan
        elif kind == "overflow":
            params.w1 *= 1e200
            params.w2 *= 1e200
        else:
            w, b = params.heads["a32"]
            params.heads["a32"] = (np.full_like(w, 1e308), b)
        paths[kind] = str(root / f"{kind}.mckpt")
        save_checkpoint(paths[kind], params, norm_state)
    return cfg, paths


@pytest.mark.parametrize("kind, code", [("nan", EXIT_IO), ("overflow", EXIT_NUMERIC),
                                        ("head-overflow", EXIT_NUMERIC)])
@pytest.mark.parametrize("command", ["eval", "eval-unified", "learn-labels"])
def test_non_finite_model_one_line(non_finite_models, tmp_path, kind, code, command):
    cfg, paths = non_finite_models
    extra = ["--checkpoint", paths[kind]]
    if command == "eval-unified":
        command = "eval"
        extra += ["--unified", os.path.join(cfg.out, "unified.txt")]
    output = run_probe(cfg, tmp_path, command, {}, extra, code)
    if kind == "nan":
        assert paths[kind] in output


def test_train_diverging_in_last_step_one_line(probe_dirs, tmp_path):
    # one epoch of one step: only the log pass after it sees the diverged weights
    out = tmp_path / "run"
    shutil.copytree(probe_dirs["run"].out, out)
    run_probe(probe_dirs["run"], tmp_path, "train",
              {"out": str(out), "scenes": "2", "epochs": "1", "lr": "1e308"},
              ["--regime", "single"], EXIT_NUMERIC)
    assert not (out / "ckpt_single.mckpt").exists()
