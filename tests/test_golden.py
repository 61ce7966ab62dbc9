"""Golden sha256 hashes pinning seed-to-bytes determinism.

Every file the CLI writes for one small fixed config (synth, train mdt,
learn-labels, eval with the unified document; then, with eta 2 and
cross-domain cells, eval of the same checkpoint and of a single-regime one;
then training under direct_merge and pretrain_finetune, and eval of the
direct_merge checkpoint; then eval of the mdt checkpoint with eta 3, where
the coarse index (c + 0.5) / 3 of a fine voxel rounds, and with eta 4, the
benchmark's refined setting) and the raycast output of both dataset presets
on fixed seeds must hash to the recorded values, as must the fine scene
labels of seeds 0-9 under the default counts and each world profile, the
crowded specs' placement errors, and each taxonomy preset. A change that moves any byte of these artifacts fails here and has
to declare which bits moved and why.
"""

import hashlib
import os

import numpy as np
import pytest

from mdocc.cli import EXIT_OK, main
from mdocc.config import ExperimentConfig, render_config
from mdocc.core import Range3D
from mdocc.experiment import WORLD_PROFILES
from mdocc.scenes import (
    SENSOR_MOUNT_Z,
    ExtentTooSmall,
    SceneSpec,
    dataset_presets,
    default_scene_spec,
    default_sensor_pose,
    gen_scene,
    raycast,
    taxonomy_preset,
)

# enough training that predictions are neither all empty nor all occupied,
# so refinement and transcoding act on real labels
CONFIG = dict(seed=11, scenes=3, eval_scenes=2, epochs=15, batch_size=2)

PIPELINE = {
    "a32/eval_0000.mocc":
        "99617c8ffa3de15fe67400f9fbce8b495d5d5c7baba3b018bdcaec49e98c7bb8",
    "a32/eval_0001.mocc":
        "1415cf35ceb10c67b2cefb6b11d3f03e8e07579a667bd3d526e013abdde10356",
    "a32/eval_cloud_0000.mply":
        "15052333f54f0f4ebd8b05ced29bd7251c147d50564caca857ef8418601cd014",
    "a32/eval_cloud_0001.mply":
        "e5fc69082d276e35dba70fcf1a4ce0cf69abd1c6e0bdcb04190d7e024c5a4314",
    "a32/scene_0000.mocc":
        "6d721ba6385fd67d78bc32c305069d3caece166c0b5fbe5225b7b1d82658d43e",
    "a32/scene_0001.mocc":
        "0228121ef51072b1bd8a2a82fd76a916cc3b52b11a666af49388c21ffd25a130",
    "a32/scene_0002.mocc":
        "b26b286878ed8a081dab7d6c8e09764b82bad13cf986573ab4b0dbf41f2d4912",
    "a32/scene_cloud_0000.mply":
        "8d7ae0290769ac8311973d80fb047ea34b55010f81aeef6574e67163a1ffdedf",
    "a32/scene_cloud_0001.mply":
        "ec08c90f32f51fa8d7abd204a6308e25acad620e6fb33cc61a10e2f97665fa98",
    "a32/scene_cloud_0002.mply":
        "5edb8733f83a00719e64d82af02894e030b96e2d5c91dc7009a7b7b25f7b330e",
    "b64/eval_0000.mocc":
        "8e39e9b3a09ebc80ff44d1923582e7262069534a3a31585d70d93c0fd49750e4",
    "b64/eval_0001.mocc":
        "73820adc93ae5fb620a0552a82a1d3f7edfbd202d36bfee1200282b060c36b13",
    "b64/eval_cloud_0000.mply":
        "d6b2f4d3b8dd331a14cf388230867c1290e5a541dc7f825692c0a473878664dc",
    "b64/eval_cloud_0001.mply":
        "1545a9e9c62acf868bc9cfd0089b92a87475af63062f869b922b574f357a21f9",
    "b64/scene_0000.mocc":
        "ce55dcef6fb7d1b16bcfff8742c129a650b1305ad7c323e42c18024d0c896836",
    "b64/scene_0001.mocc":
        "b731fec7456dfe504d1d1c146ae1efd892f84a24b1188e6b3399a5e111b0055d",
    "b64/scene_0002.mocc":
        "2e706b194906436e221c2f791e48b93c00c579741fd9abfb7b8e4b962ec961b3",
    "b64/scene_cloud_0000.mply":
        "e4409cf8f44a90ee1c4dabc00b28e575d90107419de500613e4b4cc076bd3eb3",
    "b64/scene_cloud_0001.mply":
        "edc60e46e41a435abfee9b80588d8071ea23e7b21be0122013e68b8254e45030",
    "b64/scene_cloud_0002.mply":
        "a7e433c94e561ffbee7f36696054c347c22b54d3b8d2c4835777edbc7b701ccd",
    "ckpt_mdt.mckpt":
        "78cd6aca6c9fb744e910dddb0b449213af7a535b28fc28eaa9a288e1f5df4eda",
    "config.txt":
        "6f305233dc44bc74a3e47f5a1ae4d91fe911a220f919588716330c9a88cf65b3",
    "manifest.json":
        "54f03c093c6d82d266ad40659dd74953ceeb0825e1dedbdd791409ae4ff8bf32",
    "pred/mdt/a32/pred_0000.mocc":
        "e0574248e3bdc7037a28b564ee56275faf902c9feef60a1d1b63506fe4aa69b3",
    "pred/mdt/a32/pred_0001.mocc":
        "7af33d66d7d2ebd851a6ec35b271bc62ee2ebe6d00fbc85c8435305c6e6a2d56",
    "pred/mdt/b64/pred_0000.mocc":
        "ac8da8ac192d284ea526ba92d8aa88996be0e3ce0a301074f3abb5e2a8c03d82",
    "pred/mdt/b64/pred_0001.mocc":
        "ac8da8ac192d284ea526ba92d8aa88996be0e3ce0a301074f3abb5e2a8c03d82",
    "report_mdt.csv":
        "74e8d24d4564a806052ac7cc7bf5c9a71e7dcabe55820b96bf2c5bce769a57af",
    "train_log_mdt.csv":
        "b66badfb0f0875d22022c6c20b0221f90166e1706469b901283eff92690cd3f4",
    "unified.txt":
        "c3250670bcc46ad9efa4d159bc00a9aadbb6dbb158b16324240c0a4c2e7d4ecb",
}

REFINED = {
    "ckpt_single.mckpt":
        "990c1d20c0a4023dfaffcc429d73635d76ac693839b964937abc2681e43dd892",
    "pred/mdt/a32/pred_0000.mocc":
        "10991f4a2d68f6e49cad52ae9a7cb383f289f666ed768781abc2ff5db84f4343",
    "pred/mdt/a32/pred_0001.mocc":
        "bf4e0f9420429dc8201429a9c7fb50155359e10e359dbfaa120a438fa1d7e9cb",
    "pred/mdt/b64/pred_0000.mocc":
        "12f7dea35d11e2729593a46ab65c79bb108cacfb02eea0f02cd405771b300613",
    "pred/mdt/b64/pred_0001.mocc":
        "b0d9059270fef098a032601176f8f45f01b0c76cdc0071b4eb7b4d12b698fe81",
    "pred/mdt_cross/a32/pred_0000.mocc":
        "ab0b3061f9a1bd5562b2dde2fc431a9bbf20ba9a70c0ffe7a7f093a342f6b11b",
    "pred/mdt_cross/a32/pred_0001.mocc":
        "5ba148f614510ab86888ae29bdc798ab55722973e43d906f85b7f98cb29c593a",
    "pred/mdt_cross/b64/pred_0000.mocc":
        "42115ea3615977479ff2007b7f98c1a39890396969b8d8ecd223b54a38548751",
    "pred/mdt_cross/b64/pred_0001.mocc":
        "4e60993d169b94648bcbba3fa977f43b121f23da355516282e6e1c625e578798",
    "pred/single_a32/a32/pred_0000.mocc":
        "5d24d075dda6a746181f6456f8b39c30b70f4aa9d7319bee9889beaff276fb82",
    "pred/single_a32/a32/pred_0001.mocc":
        "3bcc0b2e9b84c5ab1303206d7486ee74ed300ce5d12f5044a921492f8e355f9e",
    "pred/single_a32/b64/pred_0000.mocc":
        "23ceb9f8b3dc9ec4cf87b7c8ff065d7eca8847cd0492ead893454a59a956ace9",
    "pred/single_a32/b64/pred_0001.mocc":
        "e00cbebbc0e560a5677afe9ef8472fb6c654da5d6e509fbebc75703593104c80",
    "report_mdt.csv":
        "285c3f336891f0e6d64a9bb6f530a5c7bef5424d1b13f45bc409bfd0a5108b67",
    "report_single_a32.csv":
        "1342566f621847d9640bce933e9896f97353b6c1374c8cae94c9a91e6cd554ef",
    "train_log_single.csv":
        "a64e4c09f68b3cb8eaf7de7a4d05c5cb65aca266efc9718e588c3431cb1e5696",
}

BASELINES = {
    "ckpt_direct_merge.mckpt":
        "e1883bc36282c5c2bee5254889e5552b161f019790ffc806bbab0555c26efc48",
    "ckpt_pretrain_finetune.mckpt":
        "c26bbe55e5ab609585cdf3395d64d8a7444fbeccd69a40b1fec0153df24a5df6",
    "pred/direct_merge/a32/pred_0000.mocc":
        "3b8c3bb25e12b6781ddc4827de5aa0e48809daf11653b74b379777a960af6d33",
    "pred/direct_merge/a32/pred_0001.mocc":
        "da0ff8bd33276e51337db24b7ee5fe2c65a0726d1d748a08c37f4b7001a57587",
    "pred/direct_merge/b64/pred_0000.mocc":
        "ef114ee910ce121b78b957f47662921d704ac145ae521cb4d75ac3f82ec2b145",
    "pred/direct_merge/b64/pred_0001.mocc":
        "13f0a3f3bc7f33912fadde82e386e2cfd69980602a9ee577f78aeef4d827c3fa",
    "report_direct_merge.csv":
        "b732b1d04df6ec31d4aed6b9eefe0624952ce27631142dcb26cf9b0ea149b5bd",
    # the iou and miou columns take the argmax over each dataset's block of
    # the union head; the loss column is pinned by DIRECT_MERGE_LOSS
    "train_log_direct_merge.csv":
        "42a268e01676247890bcbda726e05b20763165322d73476ebb3d0d246adf4c41",
    "train_log_pretrain_finetune.csv":
        "23f53bf40020fd3378f66e6015d64b080555e4b3676996dd75efcab712fef22b",
}

# eval of the mdt checkpoint with eta 3 and cross cells; these overwrite the
# eta 2 mdt files and report
ETA3 = {
    "pred/mdt/a32/pred_0000.mocc":
        "3a33975e785819a69dde5c7118799afdf003970e2fc595eb3a4719a9224b53f9",
    "pred/mdt/a32/pred_0001.mocc":
        "acf130c4835c0ed2098dfb72e1d2e870fec8290198263a3d745f05f7186ad1ec",
    "pred/mdt/b64/pred_0000.mocc":
        "40036ab87ffedf3dc52123f1d6bf8b0bbc8bbd4e1ceb4dc098822615d6d15403",
    "pred/mdt/b64/pred_0001.mocc":
        "d29837ebbd6ed72514e6b468fa53dd6ec17df905781a69ea93e9faeb350e47f1",
    "pred/mdt_cross/a32/pred_0000.mocc":
        "ea1686bc53c184bc63695283076ca30c131fdfeaa4627a258f7f074362078656",
    "pred/mdt_cross/a32/pred_0001.mocc":
        "3acff5a5bafc14777a50cf7fd76125cee6c8c94153eddf4085e58829f8c1d5c2",
    "pred/mdt_cross/b64/pred_0000.mocc":
        "29650dfdfa6133c0c1ad4b716ad3eb9590da8c38739488c96cab94609baafd35",
    "pred/mdt_cross/b64/pred_0001.mocc":
        "3ead30e402583110ef5d86d1dce08e737493814a3993e4e250f8199b7ceb007a",
    "report_mdt.csv":
        "0178d1962e9d551ac9fea86fff4c5cc6178748965ad3a6d6b03cc2e5d4513a26",
}

# eval of the mdt checkpoint with eta 4 and cross cells, the setting the
# benchmark's refined eval runs; these overwrite the eta 3 files and report
ETA4 = {
    "pred/mdt/a32/pred_0000.mocc":
        "0127ac805e635317a5dc3ef082b3b138e1af72cc0ea5951848e839280f7a977c",
    "pred/mdt/a32/pred_0001.mocc":
        "62d4f5107aca9052904caef6fc9cb59dfc47cdaaea5048127a3fa41ee290e83e",
    "pred/mdt/b64/pred_0000.mocc":
        "77a84769612f8c6e009a09433d561ce6da10f8a5b6ea64675899359fd6348b65",
    "pred/mdt/b64/pred_0001.mocc":
        "b51368dd8338165a50cff9d760f184caf3bd9e43cb5cde86723a8b8844a83902",
    "pred/mdt_cross/a32/pred_0000.mocc":
        "928f161a787fae88dce0b226e23597b3d6de788ff41d09762fe2b80750d162f1",
    "pred/mdt_cross/a32/pred_0001.mocc":
        "5ccf30b7e4c045f0297067bf0384fdd38b4bd1fb6e1ab52df896dfc70256be29",
    "pred/mdt_cross/b64/pred_0000.mocc":
        "c541142efc02b6e57ed75bc40c90e6ba3b315485a2296b52ac67daf7e31dd891",
    "pred/mdt_cross/b64/pred_0001.mocc":
        "6e3b5843fadaaa7f0b1bb7323e2acf33ebf90b7925011e6d101635d8bbd12c77",
    "report_mdt.csv":
        "99e698ba7803abc7f244bc3878c5472afafe55c1b4214993e0bff3a3fa76694b",
}

# sha256 of the epoch, dataset and loss columns of train_log_direct_merge.csv
DIRECT_MERGE_LOSS = "8365dd87d15df962fee0d45211fe2a39ef506d690ad4830f50cdaa029dbb6cce"

RAYCAST = {
    ("a32", 3):
        "5bd3c9935b236c1d1d2379959118e3d7f94c20f2cbcbd249e5dbaa7305f83db5",
    ("a32", 1001):
        "3882e5f2ec4e24b5b49d5d980a10795d8a6d168eb251e8433c3a0c44cba835f7",
    ("b64", 3):
        "de18b829aa71644eb06f0f580131e2a0691da9b076c02036bc7484cbda61f40c",
    ("b64", 1001):
        "f1f934ef6fc5de7bcd4d7a9f6c62a1dd712affd755aebf4ffae6ab45f8bcdda0",
}


# the uint16 labels of gen_scene on seeds 0-9, concatenated, per archetype
# counts: the defaults and each world profile
SCENES = {
    "default":
        "97437170ffef6830cca899121b060eb2a77e888cd8c299b659d9676593f9ffdf",
    "a32":
        "01259c0bbe4c8d700d55916a089cfaa48b5a9724ccb16c8ad7f48ac8c8742714",
    "b64":
        "55a49fab56ec1d801acb57069d8fcbb3290eb393088eaa26432582d811d10087",
}

# the placement error of specs too crowded for a 20 x 20 x 5 extent
CROWDED = [
    (dict(n_walls=6), "could not place wall 2"),
    (dict(n_boxes=40), "could not place box 5"),
    (dict(n_blobs=20), "could not place blob 3"),
    (dict(n_pillars=200), "could not place pillar 65"),
    (dict(n_posts=200), "could not place post 65"),
    (dict(n_walls=1, n_boxes=2, n_blobs=1, n_pillars=5, n_posts=200), "could not place post 31"),
    (dict(n_walls=1, n_boxes=3, n_blobs=20), "could not place blob 0"),
]

# per dataset in order: its id, class names and empty id, then its
# projection from the fine taxonomy as uint16
TAXONOMIES = {
    "split":
        "7fcf06f54492abe74a07bc827d9a571b338ff355431ef13c2570cbe5e58165c0",
    "twin":
        "7601c5a5f367105d5e88e5cf078c0387f017367bf7b937cd8171db801d1d3baa",
}


def _digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _write_config(path, **overrides):
    # a relative out path keeps config.txt independent of the temp directory
    with open(path, "w") as fh:
        fh.write(render_config(ExperimentConfig(out="run", **CONFIG, **overrides)))


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        _write_config("base.cfg")
        _write_config("refined.cfg", eta=2, cross=True)
        _write_config("eta3.cfg", eta=3, cross=True)
        _write_config("eta4.cfg", eta=4, cross=True)
        ckpt = os.path.join("run", "ckpt_mdt.mckpt")
        unified = os.path.join("run", "unified.txt")
        assert main(["synth", "--config", "base.cfg"]) == EXIT_OK
        assert main(["train", "--config", "base.cfg", "--regime", "mdt"]) == EXIT_OK
        assert main(["learn-labels", "--config", "base.cfg", "--checkpoint", ckpt]) == EXIT_OK
        assert main(["eval", "--config", "base.cfg", "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        pipeline = _digests("run")
        assert main(["eval", "--config", "refined.cfg", "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        assert main(["train", "--config", "refined.cfg", "--regime", "single"]) == EXIT_OK
        single = os.path.join("run", "ckpt_single.mckpt")
        assert main(["eval", "--config", "refined.cfg", "--checkpoint", single, "--unified", unified]) == EXIT_OK
        refined = _digests("run")
        for regime in ("direct_merge", "pretrain_finetune"):
            assert main(["train", "--config", "base.cfg", "--regime", regime]) == EXIT_OK
        merged = os.path.join("run", "ckpt_direct_merge.mckpt")
        assert main(["eval", "--config", "refined.cfg", "--checkpoint", merged]) == EXIT_OK
        baselines = _digests("run")
        assert main(["eval", "--config", "eta3.cfg", "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        eta3 = _digests("run")
        assert main(["eval", "--config", "eta4.cfg", "--checkpoint", ckpt, "--unified", unified]) == EXIT_OK
        eta4 = _digests("run")
        with open(os.path.join("run", "train_log_direct_merge.csv"), "rb") as fh:
            losses = b"\n".join(b",".join(line.split(b",")[:3]) for line in fh.read().splitlines())
    finally:
        os.chdir(cwd)
    return (pipeline,
            {k: v for k, v in refined.items() if pipeline.get(k) != v},
            {k: v for k, v in baselines.items() if refined.get(k) != v},
            hashlib.sha256(losses).hexdigest(),
            {k: v for k, v in eta3.items() if baselines.get(k) != v},
            {k: v for k, v in eta4.items() if eta3.get(k) != v})


def test_cli_pipeline_artifacts(cli_digests):
    assert cli_digests[0] == PIPELINE


def test_refined_cross_eval_artifacts(cli_digests):
    assert cli_digests[1] == REFINED


def test_baseline_regime_artifacts(cli_digests):
    assert cli_digests[2] == BASELINES


def test_direct_merge_logged_losses(cli_digests):
    assert cli_digests[3] == DIRECT_MERGE_LOSS


def test_refined_eta3_eval_artifacts(cli_digests):
    assert cli_digests[4] == ETA3


def test_refined_eta4_eval_artifacts(cli_digests):
    assert cli_digests[5] == ETA4


@pytest.mark.parametrize("seed", [3, 1001])
@pytest.mark.parametrize("preset", ["a32", "b64"])
def test_raycast_output(preset, seed):
    spec = dataset_presets(taxonomy_preset("split"))[preset]
    scene = gen_scene(default_scene_spec(seed=seed))
    pose = default_sensor_pose(scene, mount_z=SENSOR_MOUNT_Z[preset])
    cloud = np.ascontiguousarray(raycast(scene, spec.lidar, pose), dtype="<f8")
    assert hashlib.sha256(cloud.tobytes()).hexdigest() == RAYCAST[preset, seed]


@pytest.mark.parametrize("profile", sorted(SCENES))
def test_gen_scene_labels(profile):
    digest = hashlib.sha256()
    for seed in range(10):
        scene = gen_scene(default_scene_spec(seed=seed, **WORLD_PROFILES.get(profile, {})))
        digest.update(np.ascontiguousarray(scene.labels, dtype="<u2").tobytes())
    assert digest.hexdigest() == SCENES[profile]


@pytest.mark.parametrize("counts, message", CROWDED)
def test_crowded_scene_message(counts, message):
    counts = dict(dict(n_boxes=0, n_pillars=0, n_walls=0, n_blobs=0, n_posts=0), **counts)
    spec = SceneSpec(extent=Range3D(0.0, 4.0, 0.0, 4.0, 0.0, 1.0), voxel_size_m=0.2, **counts)
    with pytest.raises(ExtentTooSmall) as err:
        gen_scene(spec)
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(TAXONOMIES))
def test_taxonomy_preset(name):
    taxonomy = taxonomy_preset(name)
    digest = hashlib.sha256()
    for ds, space in taxonomy.spaces.items():
        digest.update(f"{ds}:{','.join(space.names)}:{space.empty_id}\n".encode())
        digest.update(np.ascontiguousarray(taxonomy.project(ds), dtype="<u2").tobytes())
    assert digest.hexdigest() == TAXONOMIES[name]
