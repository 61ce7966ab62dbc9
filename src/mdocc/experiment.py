"""End-to-end experiment plumbing shared by the CLI and the verification
suite: synthetic dataset materialization, feature preparation per training
regime, regime training, unified-label learning, and cross-domain evaluation
cells."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .align import CylGridSpec, crop_points, cylindrical_voxelize
from .config import ExperimentConfig
from .core import Lattice, _keep_freed_heap, forked_pool, rng_stream
from .labelspace import (
    enumerate_candidates,
    merged_score,
    reproject,
    solve_unified,
    transcode,
    unified_from_pairs,
)
from .metrics import ConfusionMatrix, EvalCell, accumulate, cross_eval
from .model import (
    REGIME_TABLE,
    TrainData,
    batch_forward,
    head_blocks,
    route,
    shifted_exp,
    train,
)
from .refine import refine_and_reassemble, sample_features, split_voxels
from .scenes import (
    coarse_lattice,
    dataset_presets,
    default_scene_spec,
    derive_dataset_view,
    eval_intersection,
    gen_scene,
    taxonomy_preset,
)

# bin footprint tracks the stride-2 coarse lattice: 0.4 m radial and vertical
# bins (z boundaries coincide with both presets' coarse voxel boundaries), ~5
# degree sectors
DEFAULT_CYL = CylGridSpec(bins=(64, 72, 5), radius_max_m=25.6, z_min_m=-1.25, z_max_m=0.75)


def _fork_map(fn, items):
    """``[fn(item) for item in items]``, the items handed out in order to a
    :func:`~mdocc.core.forked_pool` of one worker per item and usable core.

    Workers inherit ``fn`` and ``items`` through the fork, so ``fn`` may be a
    closure. A single item, or a process that may not fork, runs in-process.
    The exception of the first item in order that raises is raised here; the
    items not yet started are cancelled, and no worker outlives the call.
    """
    items = list(items)
    # items run in-process reuse freed pages too; and this comes before the
    # pool's result thread starts, so that it unpickles into the main heap
    _keep_freed_heap()
    with forked_pool(lambda i: fn(items[i]), len(items) if len(items) > 1 else 0) as submit:
        results = [submit(i) for i in range(len(items))]
        return [result() for result in results]


@dataclass
class SynthResult:
    taxonomy: object
    specs: dict         # dataset_id -> DatasetSpec
    train_views: dict   # dataset_id -> list[(cloud, gt OccupancyGrid)]
    eval_views: dict
    scene_seeds: list
    eval_seeds: list


# per-dataset collection profiles: the 32-beam platform roams a vehicle-heavy
# urban area, the 64-beam one a vegetation- and pole-rich area, so the two
# corpora differ in scene statistics and not just in sensors
WORLD_PROFILES = {
    "a32": dict(n_boxes=14, n_walls=4, n_blobs=3, n_pillars=3, n_posts=4),
    "b64": dict(n_boxes=5, n_walls=2, n_blobs=9, n_pillars=8, n_posts=7),
}


def synthesize(seed, taxonomy_name="split", n_train=12, n_eval=6, scene_counts=None,
               world_profiles=None):
    """Generate dataset views for training and evaluation scenes.

    Each seed stream draws its training seeds, then its eval seeds, and its
    scenes are viewed by its datasets. With ``world_profiles`` None, every
    dataset views one stream, ``synth/seeds``, of ``scene_counts`` scenes
    (the paired corpora the label-mapping oracle needs); ``scene_seeds`` and
    ``eval_seeds`` are flat lists. With a mapping dataset_id -> archetype
    counts, each dataset views only its own stream, ``synth/seeds/{ds}``,
    drawn from its profile (corpora collected in different places), and the
    seeds are one list per dataset. ``n_train`` / ``n_eval`` may be mappings
    dataset_id -> count to model corpora of unequal size; a stream takes its
    first dataset's count.

    The parent draws every seed; each scene is generated and viewed in a
    forked worker (``_fork_map``), one scene per unit.
    """
    taxonomy = taxonomy_preset(taxonomy_name)
    specs = dataset_presets(taxonomy)
    if world_profiles is None:
        streams = [("synth/seeds", list(specs), scene_counts or {})]
    else:
        streams = [(f"synth/seeds/{ds}", [ds], world_profiles[ds]) for ds in specs]

    train_views, eval_views = {ds: [] for ds in specs}, {ds: [] for ds in specs}
    scene_seeds, eval_seeds, units = [], [], []
    for name, viewers, counts in streams:
        seed_rng = rng_stream(seed, name)
        for n, seeds, sink in ((n_train, scene_seeds, train_views), (n_eval, eval_seeds, eval_views)):
            n = n[viewers[0]] if isinstance(n, dict) else n
            seeds.append([int(seed_rng.integers(2**63)) for _ in range(int(n))])
            units += [(viewers, counts, s, sink) for s in seeds[-1]]

    def views(unit):
        viewers, counts, s, _ = unit
        scene = gen_scene(default_scene_spec(seed=s, **counts))
        return {ds: derive_dataset_view(scene, taxonomy, specs[ds]) for ds in viewers}

    for (viewers, _, _, sink), scene_views in zip(units, _fork_map(views, units)):
        for ds in viewers:
            sink[ds].append(scene_views[ds])
    if world_profiles is None:
        scene_seeds, eval_seeds = scene_seeds[0], eval_seeds[0]
    return SynthResult(
        taxonomy=taxonomy,
        specs=specs,
        train_views=train_views,
        eval_views=eval_views,
        scene_seeds=scene_seeds,
        eval_seeds=eval_seeds,
    )


def gather_features(cyl_volume, cyl_spec, lattice):
    """Read the cylindrical-bin summary under each voxel center of
    ``lattice``: a (D, H, W, C) float64 volume.

    Voxel centers outside the cylindrical extent read as all-zero features.
    """
    xs, ys, zs = (lattice.centers(ax) for ax in range(3))
    _, _, bins, inside = cyl_spec.locate(xs[:, None, None], ys[None, :, None], zs[None, None, :])
    out = cyl_volume[bins].astype(np.float64)
    out[~inside] = 0.0
    return out


def pool_labels(labels, factor, num_classes):
    """Occupancy-preserving label pooling by an integer factor per axis.

    A pooled voxel is empty (id 0, as in every shipped label space) only when
    its whole factor^3 block is empty; otherwise it takes the block's most
    frequent non-empty label (ties to the lowest id).
    """
    labels = np.asarray(labels)
    dims = labels.shape
    if any(d % factor for d in dims):
        raise ValueError(f"dims {dims} not divisible by factor {factor}")
    out_dims = tuple(d // factor for d in dims)
    blocks = (
        labels.reshape(out_dims[0], factor, out_dims[1], factor, out_dims[2], factor)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(-1, factor**3)
        .astype(np.int64)
    )
    n_blocks = blocks.shape[0]
    counts = np.zeros((n_blocks, num_classes), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(n_blocks), factor**3), blocks.reshape(-1)), 1)
    counts[:, 0] = 0
    picked = np.argmax(counts, axis=1)
    picked[counts.sum(axis=1) == 0] = 0
    return picked.reshape(out_dims)


def coarse_labels(gt, stride, crop_range=None):
    """Supervision at 1/stride resolution via occupancy-preserving pooling,
    over ``crop_range`` (aligned with the grid's lattice) when given."""
    window = gt.labels if crop_range is None else gt.labels[gt.lattice.crop(crop_range)]
    return pool_labels(window, stride, gt.num_classes).astype(np.int64)


def cloud_features(cloud, crop_range, lattice):
    """Feature volume of one cloud on ``lattice``; the cloud is cropped to
    ``crop_range`` (when given) before cylindrical binning."""
    pts = cloud if crop_range is None else crop_points(cloud, crop_range)
    vol = cylindrical_voxelize(pts, DEFAULT_CYL)
    return gather_features(vol, DEFAULT_CYL, lattice)


def prepare_dataset(views, spec, crop_range, stride, label_offset):
    """TrainData for one dataset: features and coarse labels on one lattice.

    ``crop_range`` None keeps the dataset's own ranges (raw preparation);
    otherwise both the clouds and the supervision grids are cropped to it
    (range alignment). ``label_offset`` shifts labels into their block of
    an amalgamated union head for direct merging.
    """
    lattice = coarse_lattice(spec, crop_range, stride)
    feats = []
    labels = []
    # one view at a time: building every feature volume before any label
    # raised the trend experiment's peak RSS by 8 MB (allocator reuse)
    for cloud, gt in views:
        feats.append(cloud_features(cloud, crop_range, lattice))
        labels.append(coarse_labels(gt, stride, crop_range) + label_offset)
    return TrainData(
        features=feats,
        labels=labels,
        block=(label_offset, len(spec.label_space)),
        empty_id=spec.label_space.empty_id,
    )


def prepare_regime(regime, synth, ids, stride):
    """TrainData of the datasets ``regime`` trains on among ``ids`` (in
    order; a single model takes the first), prepared per its rules.

    mdt crops clouds and supervision to the intersection of gt ranges, the
    others keep each dataset's raw ranges; under direct_merge each dataset's
    labels are offset into its block of the amalgamated union head.
    """
    rules = REGIME_TABLE[regime]
    specs = synth.specs
    ids = list(ids)[: rules.datasets]
    crop = eval_intersection(specs) if rules.aligned else None
    blocks = head_blocks(regime, {ds: len(specs[ds].label_space) for ds in ids})
    return {ds: prepare_dataset(synth.train_views[ds], specs[ds], crop, stride, blocks[ds][0])
            for ds in ids}


def predict_scores(result, norm_id, features, heads):
    """Eval-mode scores of a TrainResult's model on one (D, H, W, C) feature
    volume: one backbone pass with the ``norm_id`` statistics, read by each
    head in ``heads``.

    Returns the (D, H, W, classes) scores by head, and the pass's
    (D, H, W, hidden) volume. Raises FloatingPointError when any of them is
    not finite (finite weights can still overflow).
    """
    outs, cache = batch_forward([features], norm_id, result.params, result.norm_state,
                                mode="eval", heads=heads)
    scores = {head: volumes[0] for head, volumes in outs.items()}
    z5 = cache["z5"]
    if not all(np.isfinite(a).all() for a in (z5, *scores.values())):
        raise FloatingPointError(f"non-finite scores under the {norm_id} statistics")
    return scores, z5.reshape(features.shape[:3] + (result.params.hidden,))


def scores_to_grid(scores, lattice, block):
    """The grid on ``lattice`` of a score volume's argmax labels over
    ``block`` (offset, size), the reading dataset's slice of the head."""
    off, size = block
    scores = scores[..., off : off + size]
    return lattice.grid(np.argmax(scores, axis=3).astype(np.uint16), scores.shape[3])


def softmax_scores(scores):
    expv, s = shifted_exp(scores.reshape(-1, scores.shape[3]))
    expv /= s[:, None]
    return expv.reshape(scores.shape)


def learn_unified(result, synth, stride, lam, tau):
    """Enumerate and solve the unified label space from an mdt model's
    predictions over its aligned training corpus: the softmax scores of each
    training cloud of ``synth``, read by its own dataset's statistics and
    head on the shared-range lattice the model trained on."""
    specs = synth.specs
    crop = eval_intersection(specs)
    corpus = {}
    for ds, spec in specs.items():
        lattice = coarse_lattice(spec, crop, stride)
        corpus[ds] = []
        for cloud, _ in synth.train_views[ds]:
            scores, _ = predict_scores(result, ds, cloud_features(cloud, crop, lattice), [ds])
            corpus[ds].append(softmax_scores(scores[ds]))
    return solve_unified(enumerate_candidates(corpus, tau), lam, synth.taxonomy.spaces)


def oracle_unified(taxonomy):
    """Ground-truth class correspondence as a unified space.

    Classes of the two datasets pair up by maximal overlap of fine-class
    preimages (ties: lower class ids); unpaired classes stay singletons.
    """
    spaces = taxonomy.spaces
    if len(spaces) != 2:
        raise ValueError("oracle matching is defined for exactly two datasets")
    da, db = spaces
    pa = taxonomy.project(da).astype(int)
    pb = taxonomy.project(db).astype(int)
    na, nb = len(spaces[da]), len(spaces[db])
    overlap = np.zeros((na, nb), dtype=int)
    for f in range(len(taxonomy.fine_space)):
        overlap[pa[f], pb[f]] += 1
    order = sorted(
        ((int(-overlap[a, b]), a, b) for a in range(na) for b in range(nb) if overlap[a, b] > 0)
    )
    used_a, used_b, pairs = set(), set(), []
    for _, a, b in order:
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        pairs.append(((da, a), (db, b)))
    return unified_from_pairs(spaces, pairs)


@dataclass
class Setup:
    """A trained model plus which dataset's head reads each evaluated dataset.

    The head, its block, the statistic set, the input crop and the read-out
    all follow from the routing of the regime the model records (see
    ``evaluate_setups``).
    """

    name: str
    result: object
    head_of: dict  # evaluated dataset -> dataset whose head and taxonomy read it


# how one cell reads its input: the cell's index, the dataset whose head and
# block (offset, size) read it, and whether it takes the SLM read-out
_Reading = namedtuple("_Reading", "cell reader head block slm")


class MissingTransform(ValueError):
    """A cell read by another dataset's head was asked for without a unified
    label space to transcode its predictions."""


def evaluate_setups(synth, setups, unified, stride, eta=1):
    """Score the cross-domain evaluation cells of the given setups.

    Every cell is measured on the intersection of gt ranges at the coarse
    lattice (or its eta-refined lattice). A prediction read by another
    dataset's head is transcoded through ``unified`` into the evaluated
    dataset's taxonomy before it is scored. Returns (rows, cells-by-key
    predictions), the predictions being the per-scene label grids in their
    reader's taxonomy.

    A dataset is read by the head and block that the regime routes its
    reader (``head_of``) to, normalized with the statistic set routed to the
    input dataset itself; an input whose own head the setup never reads (a
    single model's foreign input) takes its reader's set. Aligned regimes
    crop the input to the shared range; raw ones crop a foreign input to its
    reader's point range.

    A cell that needs ``unified`` and lacks it is refused, with
    MissingTransform, before any scene is read, whatever the class counts.
    Cells that read the same input (one model's view of a dataset under one
    crop, lattice and statistic set, as ``mdt`` and ``mdt_cross`` do) share
    it: every (input, eval scene) unit runs in a forked worker
    (``_fork_map``) and computes the scene's features, backbone pass, ground
    truth and refinement samples once for all of them. It returns each
    reading's prediction and the confusion counts of its scored pair; a
    cell's counts add up in scene order.
    """
    for setup in setups:
        for ds, reader in setup.head_of.items():
            if reader != ds and unified is None:
                raise MissingTransform(f"{setup.name} on {ds}: read by {reader}'s head "
                                       "and no unified transform was provided")
    specs = synth.specs
    shared = eval_intersection(specs)
    slm_heads = list(unified.dataset_ids()) if unified is not None else []
    cells = []   # EvalCells, in setup order
    inputs = {}  # (model, dataset, crop, lattice, statistic set) -> (model, its readings)
    for setup in setups:
        regime = setup.result.params.regime
        rules = REGIME_TABLE[regime]
        blocks = head_blocks(regime, {d: len(specs[d].label_space) for d in specs})
        for ds, reader in setup.head_of.items():
            if rules.aligned:
                crop = shared
            elif reader != ds:
                crop = specs[reader].point_range
            else:
                crop = None
            lattice = coarse_lattice(specs[ds], crop, stride)
            norm_id = route(regime, ds if ds in setup.head_of.values() else reader)[0]
            key = (id(setup.result), ds, crop, lattice, norm_id)
            inputs.setdefault(key, (setup.result, []))[1].append(_Reading(
                len(cells), reader, route(regime, reader)[1], blocks[reader],
                rules.slm and reader == ds and unified is not None,
            ))
            space = specs[ds].label_space
            cells.append(EvalCell(setup.name, ds, ConfusionMatrix(len(space)), space.empty_id))
    units = [(key, scene) for key in inputs for scene in range(len(synth.eval_views[key[1]]))]

    def score_scene(unit):
        (_, ds, crop, lattice, norm_id), scene = unit
        result, readings = inputs[unit[0]]
        cloud, gt = synth.eval_views[ds][scene]
        heads = []
        for r in readings:
            heads += [r.head] + (slm_heads if r.slm else [])
        raw, hidden = predict_scores(result, norm_id, cloud_features(cloud, crop, lattice),
                                     list(dict.fromkeys(heads)))
        grids = [scores_to_grid(_slm_scores(raw, unified, ds) if r.slm else raw[r.head],
                                lattice, r.block) for r in readings]
        if eta > 1:
            grids = _refine_grids(grids, hidden, result.params, readings, eta)
        preds = [crop_or_resample(grid, shared) for grid in grids]
        truth = _gt_on_lattice(gt, preds[0])
        space = specs[ds].label_space
        out = []
        for r, pred in zip(readings, preds):
            scored = pred if r.reader == ds else transcode(pred, unified, r.reader, ds)
            out.append((pred, accumulate(ConfusionMatrix(len(space)), scored, truth, shared).counts))
        return out

    all_preds = {(cell.setup, cell.dataset): [] for cell in cells}
    # units run input by input, each input's scenes in order
    for (key, _), out in zip(units, _fork_map(score_scene, units)):
        for r, (pred, counts) in zip(inputs[key][1], out):
            cell = cells[r.cell]
            all_preds[cell.setup, cell.dataset].append(pred)
            cell.cm.counts += counts
    return cross_eval(cells), all_preds


def _slm_scores(raw, unified, ds):
    """Full label-mapping read-out of one backbone pass: the softmax scores
    of every head (``raw``, by dataset id, as ``predict_scores`` gives them),
    merged over the unified space and reprojected into the evaluated
    dataset's taxonomy."""
    order = list(unified.dataset_ids())
    merged, _ = merged_score([softmax_scores(raw[d]) for d in order],
                             [unified.mapping(d) for d in order])
    return reproject(merged, unified.mapping(ds))


def _refine_grids(grids, hidden, params, readings, eta):
    """Coarse-to-fine upsample of prediction grids read off one backbone
    pass (one lattice) onto that lattice with eta^3 voxels per voxel.

    The voxels that any grid occupies are split once, in row-major order,
    and the hidden features are sampled at their fine queries. Each grid
    takes its own rows of both, still in row-major order, and scores them
    by the head and block of its reading in ``readings``: the reading
    dataset's block of the coarse head. A sampled row depends on its query
    alone, so every grid refines to the bytes that splitting and sampling
    its own voxels gives.
    """
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
        out.append(refine_and_reassemble(queries[rows], feats[rows],
                                         (w[:, off : off + size], b[off : off + size]), fine,
                                         empty_id=0))
    return out


def crop_or_resample(grid, shared):
    """A prediction grid restricted to ``shared``: resampled onto the
    lattice of its own voxel size that tiles the shared range, or the grid
    itself when that is already its lattice (always so for an aligned
    regime), since such a resample is the identity."""
    lattice = Lattice.over(shared, grid.voxel_size_m)
    return grid if lattice == grid.lattice else lattice.resample(grid, empty_id=0)


def _gt_on_lattice(gt_full, pred):
    """Ground truth on the prediction lattice.

    Coarser-than-gt lattices get occupancy-preserving pooling (crop, then
    pool by the integer voxel ratio); equal or finer lattices use the
    nearest-center resample.
    """
    ratio = pred.voxel_size_m / gt_full.voxel_size_m
    factor = int(round(ratio))
    if factor >= 2 and np.isclose(ratio, factor, rtol=1e-9):
        return pred.lattice.grid(coarse_labels(gt_full, factor, pred.extent), gt_full.num_classes)
    return pred.lattice.resample(gt_full, empty_id=0)


def regime_setups(result, ids, cross):
    """Evaluation setups of one model, under the regime it was trained
    under, over the datasets ``ids``.

    A single model is named after its home dataset (its one statistic set);
    with ``cross`` it also reads every other dataset with its home head. An
    mdt model with ``cross`` adds ``mdt_cross``: each dataset read by the
    other dataset's head over its own realigned statistics, then transcoded.
    """
    regime = result.params.regime
    if regime == "single":
        home = result.norm_state.dataset_ids()[0]
        return [Setup(f"single_{home}", result, {ds: home for ds in ids if cross or ds == home})]
    setups = [Setup(regime, result, {ds: ds for ds in ids})]
    if cross and regime == "mdt":
        setups.append(Setup("mdt_cross", result, dict(zip(ids, reversed(ids)))))
    return setups


def standard_setups(results):
    """The four-regime setup table over datasets a32/b64, cross-domain cells
    included.

    ``results`` maps setup names single_a32/single_b64/direct_merge/mdt to
    TrainResults; pretrain_finetune is evaluated from its log, not here.
    """
    return [setup for result in results.values()
            for setup in regime_setups(result, ("a32", "b64"), cross=True)]


def train_regimes(synth, jobs, cfg):
    """Train each (regime, ids) job of ``jobs`` on ``synth`` under ``cfg``
    with its regime set, one job per forked worker (``_fork_map``), and
    return the TrainResults in job order.

    Each worker prepares its job's data with ``prepare_regime``. Jobs are
    handed out in order, so jobs listed longest first keep the workers
    busiest. Training is deterministic and reads nothing the other jobs
    write, so the results are the bytes in-process ``train`` calls give.
    Only pretrain_finetune logs every epoch; a single job on its first
    dataset continues from its ``source`` in its worker (``train``).
    """
    jobs = [(regime, tuple(ids)) for regime, ids in jobs]
    riders = set(jobs) & {("single", ids[:1]) for regime, ids in jobs if regime == "pretrain_finetune"}

    def run(job):
        regime, ids = job
        data = prepare_regime(regime, synth, ids, cfg.stride)
        done = [(job, train(data, replace(cfg, regime=regime),
                            log_every_epoch=regime == "pretrain_finetune"))]
        if regime == "pretrain_finetune" and ("single", ids[:1]) in riders:
            done.append((("single", ids[:1]), train({ids[0]: data[ids[0]]}, replace(cfg, regime="single"),
                                                    log_every_epoch=False, start=done[0][1].source)))
        return done

    done = dict(sum(_fork_map(run, [job for job in jobs if job not in riders]), []))
    return [done[job] for job in jobs]


def run_trend_experiment(seed, n_eval=6, epochs=40):
    """One full 4-regime experiment at a given seed.

    All regimes share one ExperimentConfig (the defaults, with ``seed``,
    ``epochs`` and 30 pretraining epochs) and differ only in its regime. The
    b64 corpus is deliberately smaller than a32's 12 scenes, as real dataset
    pairs are, for the balanced sampler to absorb. Returns the report rows
    keyed (setup, dataset), the pretrain-finetune log for the forgetting
    check, and the synth, TrainResults and oracle unified space behind them.

    Synthesis, the five trainings (two single models, direct_merge, mdt and
    pretrain_finetune) and evaluation each run in forked worker processes,
    one per usable core (``_fork_map``), at the same bytes as one after
    another; single_a32 continues pretrain_finetune's source epochs in its
    worker (``train_regimes``). The acceptance suite's trend fixture runs its
    seeds in turn: each seed's pools already fill every usable core, and a
    call inside a worker runs in-process, so seeds across cores add nothing.

    Only the pretrain-finetune log is full, one row per dataset and epoch;
    the single, direct_merge and mdt logs hold their first and last epochs'
    rows, all that reads them.
    """
    n_train = 12
    sizes = {"a32": n_train, "b64": max(2, int(round(n_train * 0.4)))}
    synth = synthesize(seed, taxonomy_name="split", n_train=sizes, n_eval=n_eval,
                       world_profiles=WORLD_PROFILES)
    cfg = ExperimentConfig(seed=seed, epochs=epochs, pretrain_epochs=30)
    ids = list(synth.specs)
    # longest first (measured), so the short jobs fill in behind the long ones
    res_pt, merged, single_a, mdt, single_b = train_regimes(synth, [
        ("pretrain_finetune", ids), ("direct_merge", ids), ("single", ids[:1]),
        ("mdt", ids), ("single", ids[1:]),
    ], cfg)
    results = {f"single_{ids[0]}": single_a, f"single_{ids[1]}": single_b,
               "direct_merge": merged, "mdt": mdt}
    unified = oracle_unified(synth.taxonomy)
    setups = standard_setups(results)
    rows, _ = evaluate_setups(synth, setups, unified, cfg.stride)
    table = {(r["setup"], r["dataset"]): r for r in rows}
    return {"rows": table, "pt_log": res_pt.log, "pretrain_epochs": cfg.pretrain_epochs,
            "synth": synth, "results": results, "unified": unified}
