"""End-to-end experiment plumbing shared by the CLI and the verification
suite: synthetic dataset materialization, feature preparation per training
regime, regime training, unified-label learning, and cross-domain evaluation
cells."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .align import CylGridSpec, crop_points, cylindrical_voxelize
from .config import ExperimentConfig
from .core import Lattice, rng_stream
from .labelspace import (
    enumerate_candidates,
    merged_score,
    reproject,
    solve_unified,
    unified_from_pairs,
)
from .metrics import EvalCell, cross_eval, require_transform
from .model import (
    REGIME_TABLE,
    TrainData,
    batch_forward,
    head_blocks,
    read_head,
    route,
    train,
)
from .refine import refine_and_reassemble, sample_features, split_voxels, occupied_voxels
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

    With ``world_profiles`` None, every dataset views the same scenes (the
    paired corpora the label-mapping oracle needs). With a mapping of
    dataset_id -> archetype counts, each dataset gets its own scene stream
    drawn from its profile, modeling corpora collected in different places.
    ``n_train`` / ``n_eval`` may be mappings dataset_id -> count to model
    corpora of unequal size.
    """
    taxonomy = taxonomy_preset(taxonomy_name)
    specs = dataset_presets(taxonomy)
    train_views = {ds: [] for ds in specs}
    eval_views = {ds: [] for ds in specs}

    def per_ds(value, ds):
        return value[ds] if isinstance(value, dict) else value

    if world_profiles is None:
        counts = scene_counts or {}
        seed_rng = rng_stream(seed, "synth/seeds")
        scene_seeds = [int(seed_rng.integers(2**63)) for _ in range(int(n_train))]
        eval_seeds = [int(seed_rng.integers(2**63)) for _ in range(int(n_eval))]
        for seeds, sink in ((scene_seeds, train_views), (eval_seeds, eval_views)):
            for s in seeds:
                scene = gen_scene(default_scene_spec(seed=s, **counts))
                for ds, spec in specs.items():
                    sink[ds].append(derive_dataset_view(scene, taxonomy, spec))
    else:
        scene_seeds = []
        eval_seeds = []
        for ds, spec in specs.items():
            seed_rng = rng_stream(seed, f"synth/seeds/{ds}")
            train_seeds = [int(seed_rng.integers(2**63)) for _ in range(per_ds(n_train, ds))]
            ev_seeds = [int(seed_rng.integers(2**63)) for _ in range(per_ds(n_eval, ds))]
            scene_seeds.append(train_seeds)
            eval_seeds.append(ev_seeds)
            for seeds, sink in ((train_seeds, train_views), (ev_seeds, eval_views)):
                for s in seeds:
                    scene = gen_scene(default_scene_spec(seed=s, **world_profiles[ds]))
                    sink[ds].append(derive_dataset_view(scene, taxonomy, spec))
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


def pool_labels(labels, factor, num_classes, empty_id=0):
    """Occupancy-preserving label pooling by an integer factor per axis.

    A pooled voxel is empty only when its whole factor^3 block is empty;
    otherwise it takes the block's most frequent non-empty label (ties to the
    lowest id).
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
    counts[:, empty_id] = 0
    picked = np.argmax(counts, axis=1)
    picked[counts.sum(axis=1) == 0] = empty_id
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


def prepare_dataset(views, spec, crop_range, stride, label_offset=0):
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


def predict_scores(params, norm_state, norm_id, features, head_id=None):
    """Eval-mode per-voxel scores plus the pre-head hidden feature volume.

    ``norm_id`` picks the dataset-specific statistics; ``head_id`` defaults
    to the same dataset's head. Raises FloatingPointError when either is not
    finite (finite weights can still overflow).
    """
    outs, cache = batch_forward(
        [features], norm_id, params, norm_state, mode="eval", head_id=head_id
    )
    dims = features.shape[:3]
    hidden = cache["z5"].reshape(dims + (params.hidden,))
    if not (np.isfinite(outs[0]).all() and np.isfinite(hidden).all()):
        raise FloatingPointError(f"non-finite scores under the {norm_id} statistics")
    return outs[0], hidden


def scores_to_grid(scores, lattice, block):
    """The grid on ``lattice`` of a score volume's argmax labels over
    ``block`` (offset, size), the reading dataset's slice of the head."""
    off, size = block
    scores = scores[..., off : off + size]
    return lattice.grid(np.argmax(scores, axis=3).astype(np.uint16), scores.shape[3])


def softmax_scores(scores):
    shifted = scores - scores.max(axis=3, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=3, keepdims=True)


def prediction_corpus(result, data, specs):
    """Per-dataset softmax score arrays of an mdt model on its aligned
    lattice, the corpus for unified label-space learning."""
    return {
        ds: [softmax_scores(predict_scores(result.params, result.norm_state, ds, feats)[0])
             for feats in data[ds].features]
        for ds in specs
    }


def learn_unified(result, data, specs, lam, tau):
    """Enumerate and solve the unified label space from an mdt model's
    predictions over its aligned training corpus."""
    corpus = prediction_corpus(result, data, specs)
    candidates = enumerate_candidates(corpus, tau)
    spaces = [(ds, specs[ds].label_space) for ds in specs]
    return solve_unified(candidates, lam, spaces)


def oracle_unified(taxonomy, specs):
    """Ground-truth class correspondence as a unified space.

    Classes of the two datasets pair up by maximal overlap of fine-class
    preimages (ties: lower class ids); unpaired classes stay singletons.
    """
    ids = list(specs)
    if len(ids) != 2:
        raise ValueError("oracle matching is defined for exactly two datasets")
    da, db = ids
    pa = taxonomy.project(da).astype(int)
    pb = taxonomy.project(db).astype(int)
    na, nb = len(specs[da].label_space), len(specs[db].label_space)
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
    spaces = [(ds, specs[ds].label_space) for ds in ids]
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


def evaluate_setups(synth, setups, unified, stride, eta=1):
    """Build the cross-domain evaluation cells for the given setups.

    Every cell is measured on the intersection of gt ranges at the coarse
    lattice (or its eta-refined lattice). Cross-taxonomy predictions are
    transcoded through ``unified``. Returns (rows, cells-by-key predictions)
    where predictions hold the per-scene label grids actually scored.

    A dataset is read by the head and block that the regime routes its
    reader (``head_of``) to, normalized with the statistic set routed to the
    input dataset itself; an input whose own head the setup never reads (a
    single model's foreign input) takes its reader's set. Aligned regimes
    crop the input to the shared range; raw ones crop a foreign input to its
    reader's point range.

    A cell that needs ``unified`` and lacks it is refused before any scene
    is read.
    """
    for setup in setups:
        for ds, reader in setup.head_of.items():
            require_transform(setup.name, ds, None if reader == ds else reader, unified)
    specs = synth.specs
    shared = eval_intersection(specs)
    cells = []
    all_preds = {}
    for setup in setups:
        regime = setup.result.params.regime
        rules = REGIME_TABLE[regime]
        blocks = head_blocks(regime, {d: len(specs[d].label_space) for d in specs})
        for ds in specs:
            if ds not in setup.head_of:
                continue
            spec = specs[ds]
            reader = setup.head_of[ds]
            if rules.aligned:
                crop = shared
            elif reader != ds:
                crop = specs[reader].point_range
            else:
                crop = None
            lattice = coarse_lattice(spec, crop, stride)
            feats = [cloud_features(cloud, crop, lattice) for cloud, _ in synth.eval_views[ds]]
            head = route(regime, reader)[1]
            norm_id = route(regime, ds if ds in setup.head_of.values() else reader)[0]
            block = blocks[reader]
            use_slm = rules.slm and reader == ds and unified is not None
            preds = []
            gts = []
            for i, f in enumerate(feats):
                if use_slm:
                    raw, hidden = _slm_scores(setup.result, unified, ds, f, head)
                else:
                    raw, hidden = predict_scores(
                        setup.result.params, setup.result.norm_state, norm_id, f,
                        head_id=head,
                    )
                grid = scores_to_grid(raw, lattice, block)
                if eta > 1:
                    grid = _refine_grid(grid, hidden, setup.result.params, head, block, eta)
                pred_int = crop_or_resample(grid, shared)
                gt_full = synth.eval_views[ds][i][1]
                gt_int = _gt_on_lattice(gt_full, pred_int)
                preds.append(pred_int)
                gts.append(gt_int)
            cell = EvalCell(
                setup=setup.name,
                dataset=ds,
                pairs=list(zip(preds, gts)),
                eval_range=shared,
                empty_id=specs[ds].label_space.empty_id,
                unified=None if reader == ds else unified,
                source_ds=None if reader == ds else reader,
                target_space=specs[ds].label_space,
            )
            cells.append(cell)
            all_preds[(setup.name, ds)] = preds
    rows = cross_eval(cells)
    return rows, all_preds


def _slm_scores(result, unified, ds, features, head):
    """Full label-mapping read-out: the softmax scores of every head, all
    read off one backbone pass with the input dataset's statistics, merged
    over the unified space and reprojected into the evaluated dataset's
    taxonomy. Returns those scores and the pass's hidden volume."""
    params = result.params
    raw, hidden = predict_scores(params, result.norm_state, ds, features, head_id=head)
    z5 = hidden.reshape(-1, params.hidden)
    order = list(unified.dataset_ids())
    heads = []
    for d in order:
        scores = raw if d == head else read_head(z5, params.head(d)).reshape(raw.shape[:3] + (-1,))
        heads.append(softmax_scores(scores))
    merged, _ = merged_score(heads, [unified.mapping(d) for d in order])
    return reproject(merged, unified.mapping(ds)), hidden


def _refine_grid(grid, hidden, params, head_id, block, eta):
    """Coarse-to-fine upsample of a prediction grid onto its lattice with
    eta^3 voxels per voxel: the hidden features sampled at each fine query
    are scored by the reading dataset's block of the coarse head."""
    vox = occupied_voxels(grid, empty_id=0)
    queries = split_voxels(vox, eta, grid.dims)
    feats = sample_features(hidden, queries.coords, eta)
    w, b = params.head(head_id)
    off, size = block
    fine = Lattice(tuple(d * eta for d in grid.dims), grid.voxel_size_m / eta, grid.origin)
    return refine_and_reassemble(
        queries, feats, (w[:, off : off + size], b[off : off + size]), fine, empty_id=0,
    )


def crop_or_resample(grid, shared):
    """A prediction grid restricted to ``shared``: resampled onto the
    lattice of its own voxel size that tiles the shared range."""
    return Lattice.over(shared, grid.voxel_size_m).resample(grid, empty_id=0)


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
    with its regime set, one job per forked worker process, and return the
    TrainResults in job order.

    The parent prepares each job's data with ``prepare_regime`` and submits
    it in order, so jobs listed longest first keep the workers busiest. The
    pool has one worker per usable core, at most one per job. Training is
    deterministic and reads nothing the other jobs write, so the results are
    the bytes in-process ``train`` calls give. Only pretrain_finetune logs
    every epoch. When a job raises, the jobs not yet started are cancelled
    and its exception is raised here; no worker outlives the call.
    """
    # imported here: at module top they slow every `import mdocc.cli`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [
            pool.submit(train, prepare_regime(regime, synth, ids, cfg.stride),
                        replace(cfg, regime=regime),
                        log_every_epoch=regime == "pretrain_finetune")
            for regime, ids in jobs
        ]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def run_trend_experiment(seed, n_eval=6, epochs=40):
    """One full 4-regime experiment at a given seed.

    All regimes share one ExperimentConfig (the defaults, with ``seed``,
    ``epochs`` and 30 pretraining epochs) and differ only in its regime. The
    b64 corpus is deliberately smaller than a32's 12 scenes, as real dataset
    pairs are, for the balanced sampler to absorb. Returns the report rows
    keyed (setup, dataset), the pretrain-finetune log for the forgetting
    check, and the synth, TrainResults and oracle unified space behind them.

    The five trainings (two single models, direct_merge, mdt and
    pretrain_finetune) run concurrently in forked worker processes, one per
    usable core (``train_regimes``), at the same bytes as one after another.
    The acceptance suite's trend fixture runs its seeds one after another: a
    pool worker is daemonic and may not fork a pool of its own, so seeds
    across cores would replace this pool, not add to it.

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
    unified = oracle_unified(synth.taxonomy, synth.specs)
    setups = standard_setups(results)
    rows, _ = evaluate_setups(synth, setups, unified, cfg.stride)
    table = {(r["setup"], r["dataset"]): r for r in rows}
    return {"rows": table, "pt_log": res_pt.log, "pretrain_epochs": cfg.pretrain_epochs,
            "synth": synth, "results": results, "unified": unified}
