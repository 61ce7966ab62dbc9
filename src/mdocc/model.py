"""Toy differentiable occupancy predictor and its training regimes.

One shared backbone (affine -> dataset-specific norm -> ramp -> 6-neighborhood
mean -> affine) feeds one classification head per dataset. Training regimes:
``single``, ``pretrain_finetune``, ``direct_merge`` (one head over the
amalgamated label union), and ``mdt`` (per-dataset heads, balanced sampling).
Everything is float64 with exact analytic gradients and plain gradient
descent.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .align import (
    NUM_CYL_FEATURES,
    NormState,
    dsnorm_backward,
    dsnorm_forward,
    dsnorm_update_shared,
)
from .core import (
    DimMismatch,
    StreamReader,
    StreamWriter,
    UnknownDataset,
    _keep_freed_heap,
    colsum,
    decode_file,
    forked_pool,
    rng_stream,
    rowwise,
)
from .metrics import ConfusionMatrix, geometric_iou, miou

# statistic-set ids of the baseline regimes (shared plain normalization)
MERGED_STATS_ID = "merged"
PLAIN_STATS_ID = "plain"

MCKPT_MAGIC = b"MCKP"
MCKPT_VERSION = 2


@dataclass(frozen=True)
class Regime:
    """What sets one training regime apart; the backbone, hyper-parameters
    and data sources are the same under all of them."""

    datasets: int | None  # how many datasets it trains on, in order (None: all)
    aligned: bool         # clouds and supervision cropped to the shared gt range
    stats: str | None     # one statistic set for every dataset (None: one each)
    merged: bool          # one head over the amalgamated label union, fed
                          # shuffled batches that mix the datasets
    phased: bool          # a source phase, then a target phase
    slm: bool             # in-domain cells merge every head through the unified space


REGIME_TABLE = {
    "single": Regime(datasets=1, aligned=False, stats=None,
                     merged=False, phased=False, slm=False),
    "pretrain_finetune": Regime(datasets=2, aligned=False, stats=PLAIN_STATS_ID,
                                merged=False, phased=True, slm=False),
    "direct_merge": Regime(datasets=None, aligned=False, stats=MERGED_STATS_ID,
                           merged=True, phased=False, slm=False),
    "mdt": Regime(datasets=None, aligned=True, stats=None,
                  merged=False, phased=False, slm=True),
}
REGIMES = tuple(REGIME_TABLE)
DEFAULT_REGIME = "mdt"


def route(regime, dataset_id):
    """(statistic set, head) that a dataset's scenes are normalized with and
    scored by under ``regime``."""
    rules = REGIME_TABLE[regime]
    return rules.stats or dataset_id, MERGED_STATS_ID if rules.merged else dataset_id


def head_blocks(regime, class_counts):
    """(offset, size) of each dataset's classes within the head that scores
    it, from the ordered mapping dataset_id -> label-space size. Under a
    merged head the blocks tile the amalgamated union in that order."""
    merged = REGIME_TABLE[regime].merged
    blocks, offset = {}, 0
    for ds, n in class_counts.items():
        blocks[ds] = (offset, n)
        offset += n if merged else 0
    return blocks


def head_widths(regime, blocks):
    """Width of each head that scores a dataset of ``blocks`` (the ordered
    mapping dataset_id -> (offset, size) of :func:`head_blocks`): the end of
    its last block."""
    return {route(regime, ds)[1]: offset + size for ds, (offset, size) in blocks.items()}


@dataclass
class ModelParams:
    """Backbone weights plus one classification head per registered dataset,
    and the regime (a ``REGIME_TABLE`` name) they were trained under, which
    says how the model is read back."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    heads: dict  # dataset_id -> (weight (hidden, classes), bias (classes,))
    regime: str

    @property
    def hidden(self):
        return self.w1.shape[1]

    def head(self, dataset_id):
        try:
            return self.heads[dataset_id]
        except KeyError:
            raise UnknownDataset(dataset_id) from None


def init_params(head_sizes, hidden, seed, regime=DEFAULT_REGIME):
    """Seed-deterministic parameter initialization; one head per dataset."""
    rng = rng_stream(seed, "init")
    w1 = rng.normal(0.0, 1.0 / np.sqrt(NUM_CYL_FEATURES), (NUM_CYL_FEATURES, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, hidden))
    b2 = np.zeros(hidden)
    heads = {}
    for ds in head_sizes:
        heads[ds] = (
            rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, head_sizes[ds])),
            np.zeros(head_sizes[ds]),
        )
    return ModelParams(w1=w1, b1=b1, w2=w2, b2=b2, heads=heads, regime=regime)


_COUNT_CACHE = {}


def _neighbor_counts(dims, width):
    """How many of each voxel and its 6 neighbors lie in the grid, as a
    (D, H, W, width) array with the count repeated along its last axis."""
    key = (tuple(dims), width)
    if key not in _COUNT_CACHE:
        ones = np.ones(key[0] + (1,))
        _COUNT_CACHE[key] = np.repeat(_stencil_sum(ones, ones.copy()), width, axis=3)
    return _COUNT_CACHE[key]


def _stencil_sum(x, out):
    """Sum over each voxel and its in-grid 6-neighborhood (the first three
    axes), written to ``out``; symmetric operator."""
    out[...] = x
    for ax in range(3):
        lo = [slice(None)] * x.ndim
        hi = [slice(None)] * x.ndim
        lo[ax] = slice(1, None)
        hi[ax] = slice(None, -1)
        out[tuple(hi)] += x[tuple(lo)]
        out[tuple(lo)] += x[tuple(hi)]
    return out


def _scene_slices(volumes):
    """Per-scene (dims, row-slice) bookkeeping for a possibly mixed batch."""
    slices = []
    start = 0
    for v in volumes:
        if v.ndim != 4 or v.shape[3] != NUM_CYL_FEATURES:
            raise DimMismatch(f"feature volume shape {v.shape} lacks {NUM_CYL_FEATURES} features")
        n = int(np.prod(v.shape[:3]))
        slices.append((v.shape[:3], slice(start, start + n)))
        start += n
    return slices


def _neighbor_mean_batch(flat, slices, transpose):
    """Apply the 6-neighborhood mean (or its adjoint) scene by scene on the
    concatenated voxel rows, straight into each scene's rows of the output;
    scenes may have different grid dims."""
    width = flat.shape[1]
    out = np.empty_like(flat)
    for dims, sl in slices:
        x, dst = flat[sl].reshape(dims + (width,)), out[sl].reshape(dims + (width,))
        counts = _neighbor_counts(dims, width)
        if transpose:
            _stencil_sum(x / counts, dst)
        else:
            _stencil_sum(x, dst)
            dst /= counts
    return out


def batch_forward(volumes, norm_id, params, norm_state, mode, heads):
    """Run a batch of (D, H, W, 5) feature volumes once through the shared
    backbone: affine -> dataset-specific norm (statistic set ``norm_id``,
    ``mode`` "train" or "eval") -> ramp -> 6-neighborhood mean -> affine,
    and read each head in ``heads`` off its rows.

    Scenes in the batch may have different grid dims (a directly-merged
    stream mixes datasets); the normalization statistics are taken over all
    voxels of all scenes jointly. Returns {head: per-volume (D, H, W,
    classes) scores} and the cache that :func:`backward` needs, whose
    ``z5`` holds the (N, hidden) backbone rows of every scene in batch order.
    """
    readers = {head: params.head(head) for head in heads}
    slices = _scene_slices(volumes)
    x = np.concatenate([v.reshape(-1, NUM_CYL_FEATURES) for v in volumes], axis=0)
    z1 = x @ params.w1
    rowwise(np.add, z1, params.b1, out=z1)
    z2, norm_cache = dsnorm_forward(z1, norm_id, norm_state, mode=mode)
    a3 = np.maximum(z2, 0.0)
    z4 = _neighbor_mean_batch(a3, slices, transpose=False)
    z5 = z4 @ params.w2
    rowwise(np.add, z5, params.b2, out=z5)
    outs = {}
    for head, (w, b) in readers.items():
        scores = z5 @ w
        rowwise(np.add, scores, b, out=scores)
        outs[head] = [scores[sl].reshape(dims + (w.shape[1],)) for dims, sl in slices]
    return outs, {"x": x, "z2": z2, "norm": norm_cache, "slices": slices, "z4": z4, "z5": z5}


def shifted_exp(flat):
    """exp(scores - row max) of (N, C) score rows and its row sums, the
    softmax's numerator and denominator. The row max is taken column by
    column; max is exact in any order."""
    top = flat[:, 0].copy()
    for c in range(1, flat.shape[1]):
        np.maximum(top, flat[:, c], out=top)
    expv = flat - top[:, None]
    np.exp(expv, out=expv)
    return expv, expv.sum(axis=1)


def _ce_terms(raw, labels, class_weights):
    """The loss of :func:`loss_ce` without its gradient, plus what the
    gradient is built from: exp(scores - row max) as (N, C) rows, their row
    sums, each voxel's flat index of its label column and its weight.

    Only the label column is divided by the row sum, expv[i, y] / s[i],
    which is the softmax's entry there bit for bit.
    """
    if raw.shape[:3] != labels.shape:
        raise DimMismatch(f"score dims {raw.shape[:3]} != label dims {labels.shape}")
    num_classes = raw.shape[3]
    flat = raw.reshape(-1, num_classes)
    y = labels.reshape(-1).astype(np.int64)
    n = y.size
    w = np.asarray(class_weights, dtype=np.float64)
    expv, s = shifted_exp(flat)
    label_col = np.arange(n) * num_classes + y
    wv = w[y]
    p_label = expv.reshape(-1)[label_col] / s
    loss = float(np.sum(wv * -np.log(np.maximum(p_label, 1e-300))) / n)
    return loss, expv, s, label_col, wv


def loss_ce(scores, gt, class_weights):
    """Weighted softmax cross-entropy averaged over voxels, of a (D, H, W, C)
    score array against a (D, H, W) label array. Returns the scalar loss and
    its gradient with respect to the scores: (softmax - onehot) * weight / N
    per voxel.
    """
    raw = np.asarray(scores, dtype=np.float64)
    loss, grad, s, label_col, wv = _ce_terms(raw, np.asarray(gt), class_weights)
    grad /= s[:, None]
    grad *= wv[:, None]
    grad.reshape(-1)[label_col] -= wv
    grad /= wv.size
    return loss, grad.reshape(raw.shape)


@dataclass
class Grads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    head: tuple  # (weight, bias) gradients of the trained head only
    gamma: np.ndarray
    beta: np.ndarray


def backward(volumes, gts, norm_id, head_id, params, norm_state, class_weights):
    """Analytic gradients of the sum-reduced train-mode batch loss of head
    ``head_id`` under statistic set ``norm_id``, with that head's alone; the
    running statistics are refreshed, not differentiated.
    """
    outs, cache = batch_forward(volumes, norm_id, params, norm_state, "train", [head_id])
    head_w = params.head(head_id)[0]
    total = 0.0
    gscores = []
    for out, gt in zip(outs[head_id], gts):
        li, gi = loss_ce(out, gt, class_weights)
        total += li
        gscores.append(gi.reshape(-1, head_w.shape[1]))
    g = np.concatenate(gscores, axis=0)
    z5 = cache["z5"]
    gw_head = z5.T @ g
    gb_head = colsum(g)
    gz5 = g @ head_w.T
    z4 = cache["z4"]
    gw2 = z4.T @ gz5
    gb2 = colsum(gz5)
    gz4 = gz5 @ params.w2.T
    ga3 = _neighbor_mean_batch(gz4, cache["slices"], transpose=True)
    gz2 = ga3 * (cache["z2"] > 0.0)
    gz1, ggamma, gbeta = dsnorm_backward(gz2, cache["norm"], norm_state)
    gw1 = cache["x"].T @ gz1
    gb1 = colsum(gz1)
    return total, Grads(w1=gw1, b1=gb1, w2=gw2, b2=gb2, head=(gw_head, gb_head),
                        gamma=ggamma, beta=gbeta)


def sgd_step(params, norm_state, grads, dataset_id, lr):
    params.w1 -= lr * grads.w1
    params.b1 -= lr * grads.b1
    params.w2 -= lr * grads.w2
    params.b2 -= lr * grads.b2
    w, b = params.heads[dataset_id]
    gw, gb = grads.head
    params.heads[dataset_id] = (w - lr * gw, b - lr * gb)
    dsnorm_update_shared(norm_state, grads.gamma, grads.beta, lr)


WEIGHT_CLIP = (0.1, 10.0)  # (low, high) bounds of every class weight
WEIGHT_REF = 16.0  # a class holding 1/16 of the voxels weighs 1


def class_weights_from_counts(counts):
    """Inverse-frequency weights ``total / (WEIGHT_REF * count)``, clipped to
    ``WEIGHT_CLIP``.

    ``total`` is ``counts.sum()``; absent classes get the upper clip. The
    reference is a fixed constant rather than the head's class count, so one
    rule serves heads of every width. ``train`` passes the counts of the whole
    corpus routed to a head: a per-dataset head weights its dataset at
    ``1 / (WEIGHT_REF * frequency)``, but each block of an amalgamated union
    head is scaled up by the union total over its dataset's share (about 13x
    for b64 in the trend experiment), so the blocks are not on the per-dataset
    scale. As ``loss_ce`` averages over voxels, that scale also acts as a
    step size.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    lo, hi = WEIGHT_CLIP
    w = np.full(counts.size, hi)
    present = counts > 0
    w[present] = total / (WEIGHT_REF * counts[present])
    return np.clip(w, lo, hi)


def merged_batches(sizes, batch_size, seed):
    """Plain merged-dataset schedule: one shuffled pass over the union of all
    samples, chunked into batches of (dataset_id, scene_index) pairs that
    freely mix datasets."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    pool = [(ds, i) for ds in sizes for i in range(sizes[ds])]
    order = rng_stream(seed, "sampler/merged").permutation(len(pool))
    return [[pool[k] for k in order[lo : lo + batch_size]]
            for lo in range(0, len(pool), batch_size)]


def balanced_batches(sizes, batch_size, seed):
    """Round-robin single-dataset batch schedule covering one epoch.

    ``sizes`` is an ordered mapping dataset_id -> sample count. Every batch
    draws all its samples from one dataset; datasets alternate in order.
    Within a dataset, indices are a seeded permutation; shorter datasets wrap
    around with fresh permutations to match the longest. The largest dataset
    is covered exactly once. Returns batches of (dataset_id, scene_index)
    pairs, as :func:`merged_batches` does. A dataset without samples has
    nothing to wrap around and is refused.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if any(size < 1 for size in sizes.values()):
        raise ValueError(f"every dataset needs a sample, got sizes {dict(sizes)}")
    longest = max(sizes.values(), default=0)
    streams = {}
    for ds, size in sizes.items():
        rng = rng_stream(seed, f"sampler/{ds}")
        idx = []
        while len(idx) < longest:
            idx.extend(rng.permutation(size).tolist())
        streams[ds] = idx[:longest]
    return [[(ds, i) for i in streams[ds][lo : lo + batch_size]]
            for lo in range(0, longest, batch_size) for ds in sizes]


@dataclass
class TrainData:
    """Prepared training stream for one dataset: per-scene feature volumes and
    coarse ground-truth label arrays over the same lattice.

    ``block`` is the (offset, size) of the dataset's own classes within the
    head that scores it: the whole head, or the dataset's block when its
    labels are offset into an amalgamated union. ``empty_id`` is the empty
    class of the dataset's own label space.
    """

    features: list
    labels: list
    block: tuple
    empty_id: int = 0

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must pair up")

    def __len__(self):
        return len(self.features)


@dataclass
class TrainResult:
    params: ModelParams
    norm_state: NormState
    log: list  # rows: dict(epoch, dataset, loss, iou, miou)
    source: tuple | None = None  # a phased run's (epoch, state) as single; see train


def _epoch_metrics(data, norm_id, head_id, params, norm_state, weights):
    """Eval-mode loss over the whole head plus geometric IoU / mIoU of the
    argmax over the dataset's own block of it, on the training scenes
    (confusion tallied over full coarse grids).

    The loss is the per-scene mean of :func:`loss_ce`'s losses, bit for bit,
    but comes from its gradient-free core: nothing reads a gradient here.
    Eval mode reads stored statistics, so scenes run one at a time.
    """
    off, size = data.block
    cm = ConfusionMatrix(num_classes=size)
    total = 0.0
    for features, labels in zip(data.features, data.labels):
        outs, _ = batch_forward([features], norm_id, params, norm_state, mode="eval",
                                heads=[head_id])
        out = outs[head_id][0]
        total += _ce_terms(out, labels, weights)[0]
        cm.add_arrays(np.argmax(out[..., off : off + size], axis=3), labels - off)
    return (
        total / max(len(data), 1),
        geometric_iou(cm, empty_id=data.empty_id),
        miou(cm, empty_id=data.empty_id),
    )


def _as_single(params, norm_state, log, ds):
    """A copy of a phased run's state as single on its first dataset ``ds``."""
    state = NormState(norm_state.num_features, [ds], norm_state.eps, norm_state.momentum)
    state.gamma, state.beta = norm_state.gamma.copy(), norm_state.beta.copy()
    state.stats(ds).update(copy.deepcopy(norm_state.stats(route(params.regime, ds)[0])))
    single = copy.deepcopy(replace(params, heads={ds: params.heads[ds]}, regime="single"))
    return TrainResult(single, state, [row for row in log if row["dataset"] == ds])


def train(datasets, config, *, log_every_epoch=True, start=None):
    """Train under ``config``, an ExperimentConfig: its regime, seed and
    [train] values. Deterministic in config.seed; the params record the regime.

    ``datasets`` is an ordered mapping dataset_id -> TrainData, already
    prepared (range-aligned for mdt, raw otherwise; direct_merge data must
    already carry labels in the amalgamated union space). ``REGIME_TABLE``
    and ``route`` give each dataset's statistic set, head and batch
    schedule; regimes without a merged head draw balanced single-dataset
    batches. A phased regime trains on its first dataset for
    ``pretrain_epochs``, then on its second; the others train on all of
    them. Each head is as wide as :func:`head_widths` says its datasets'
    blocks reach.

    The log has one row per dataset and epoch. With ``log_every_epoch``
    False it keeps only the first epoch's rows and the run's last (for a
    phased regime, the last target epoch); those rows, the parameters and
    the statistics are the same bytes either way, since the eval-mode log
    pass leaves the running statistics alone. An epoch whose datasets hold
    no scene takes no step and logs nothing. Where the process may fork and
    a log pass has later steps to overlap, the passes run on copies of the
    state in one worker of a :func:`~mdocc.core.forked_pool`, same bytes.

    ``start``, an (epoch, TrainResult) pair, continues a copy of that state from
    that epoch. A phased run that logs every epoch returns as ``source`` such a
    pair: single on its first dataset after min(pretrain_epochs, epochs) epochs.

    Raises FloatingPointError when a step's loss or a logged loss stops being
    finite, in either mode, the first in epoch order; the last epoch is
    always logged, so this covers the last update.

    On glibc it first sets the process's mmap and trim thresholds and its
    arena limit, a setting that outlives the call; on a libc without
    ``mallopt`` that is a no-op.
    """
    _keep_freed_heap()
    regime = config.regime
    rules = REGIME_TABLE[regime]
    ids = list(datasets)
    if rules.datasets is not None and len(ids) != rules.datasets:
        raise ValueError(f"{regime} trains on exactly {rules.datasets} datasets, got {len(ids)}")
    routes = {ds: route(regime, ds) for ds in ids}
    widths = head_widths(regime, {ds: datasets[ds].block for ds in ids})
    weights = {}
    for head_id, width in widths.items():
        labels = [l.reshape(-1) for ds in ids if routes[ds][1] == head_id
                  for l in datasets[ds].labels]
        counts = np.bincount(np.concatenate([np.zeros(0, np.int64), *labels]), minlength=width)
        weights[head_id] = class_weights_from_counts(counts)
    sampler = merged_batches if rules.merged else balanced_batches
    phases = ([(ids[:1], config.pretrain_epochs), (ids[1:], config.epochs)] if rules.phased
              else [(ids, config.epochs)])
    epochs = [active for active, count in phases for _ in range(count)]
    logged = [ds for ds in ids if len(datasets[ds])]
    first, state = start or (0, TrainResult(
        init_params(widths, config.hidden, config.seed, regime),
        NormState(config.hidden, list(dict.fromkeys(s for s, _ in routes.values()))), []))
    params, norm_state = copy.deepcopy((state.params, state.norm_state))
    log = [row for row in state.log if log_every_epoch or row["epoch"] in (0, len(epochs) - 1)]
    shared, source = min(config.pretrain_epochs, config.epochs) if rules.phased else -1, None
    pending = []  # (epoch, call giving its log pass's rows) not yet in the log

    def log_pass(snapshot):
        return [_epoch_metrics(datasets[ds], *routes[ds], *snapshot, weights[routes[ds][1]])
                for ds in logged]

    def gather():
        for epoch, rows in pending:
            for ds, (loss, iou, mi) in zip(logged, rows()):
                if not np.isfinite(loss):
                    raise FloatingPointError(f"non-finite {ds} loss after epoch {epoch}")
                log.append({"epoch": epoch, "dataset": ds, "loss": loss, "iou": iou, "miou": mi})
        pending.clear()

    # a worker pays only where a log pass has a later epoch's steps to overlap
    overlap = bool(logged) and first < len(epochs) - 1 and (log_every_epoch or first == 0)
    with forked_pool(log_pass, int(overlap)) as submit:
        for epoch, active in enumerate(epochs[first:], first):
            if epoch == shared and log_every_epoch:
                gather()
                source = (epoch, _as_single(params, norm_state, log, ids[0]))
            sizes = {ds: len(datasets[ds]) for ds in active if len(datasets[ds])}
            for batch in sampler(sizes, config.batch_size, seed=config.seed + 7919 * epoch):
                norm_id, head_id = routes[batch[0][0]]
                loss, grads = backward([datasets[ds].features[i] for ds, i in batch],
                                       [datasets[ds].labels[i] for ds, i in batch],
                                       norm_id, head_id, params, norm_state, weights[head_id])
                if not np.isfinite(loss):
                    gather()  # an earlier epoch's log may have failed first
                    raise FloatingPointError(f"non-finite loss at epoch {epoch}")
                sgd_step(params, norm_state, grads, head_id, config.lr)
            if sizes and (log_every_epoch or epoch in (0, len(epochs) - 1)):
                # a copy, since the next step updates the weights in place
                pending.append((epoch, submit(copy.deepcopy((params, norm_state)))))
        gather()
    return TrainResult(params=params, norm_state=norm_state, log=log, source=source)


def save_checkpoint(path, params, norm_state):
    """Write MCKPT v2: magic | version | regime name | named f64 tensors |
    per-dataset NormState blobs."""
    tensors = [
        ("backbone.w1", params.w1),
        ("backbone.b1", params.b1),
        ("backbone.w2", params.w2),
        ("backbone.b2", params.b2),
        ("norm.gamma", norm_state.gamma),
        ("norm.beta", norm_state.beta),
        ("norm.eps", np.array([norm_state.eps])),
        ("norm.momentum", np.array([norm_state.momentum])),
    ]
    for ds in params.heads:
        w, b = params.heads[ds]
        tensors.append((f"head.{ds}.w", w))
        tensors.append((f"head.{ds}.b", b))
    stream = StreamWriter(MCKPT_MAGIC, MCKPT_VERSION)
    stream.name(params.regime)
    stream.pack("I", len(tensors))
    for name, arr in tensors:
        arr = np.asarray(arr, dtype=np.float64)
        stream.name(name)
        stream.pack(f"B{arr.ndim}I", arr.ndim, *arr.shape)
        stream.array(arr, "<f8")
    states = norm_state.dataset_ids()
    stream.pack("H", len(states))
    for ds in states:
        st = norm_state.stats(ds)
        stream.name(ds)
        stream.pack("I", norm_state.num_features)
        stream.array(st["mean"], "<f8")
        stream.array(st["var"], "<f8")
        stream.pack("Q", st["count"])
    data = stream.getvalue()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_checkpoint(path):
    """(params, norm_state) of an MCKPT v2 file written by :func:`save_checkpoint`."""
    return decode_file(path, checkpoint_decode)


def checkpoint_decode(data):
    """(params, norm_state) of MCKPT v2 bytes; any fault, a regime name not
    in ``REGIME_TABLE``, a non-finite number and a negative running variance
    included, raises a CodecError (a v1 file is VersionUnsupported)."""
    with StreamReader(data, MCKPT_MAGIC, MCKPT_VERSION) as stream:
        regime = stream.name()
        if regime not in REGIME_TABLE:
            raise ValueError(f"unknown regime {regime!r}")
        tensors = {}
        for _ in range(stream.unpack("I")[0]):
            key = stream.name()
            shape = stream.unpack(f"{stream.unpack('B')[0]}I")
            tensors[key] = stream.array("<f8", math.prod(shape)).reshape(shape)
        stats = {}
        for _ in range(stream.unpack("H")[0]):
            ds = stream.name()
            (nf,) = stream.unpack("I")
            mean, var = stream.array("<f8", nf), stream.array("<f8", nf)
            stats[ds] = {"mean": mean, "var": var, "count": stream.unpack("Q")[0]}
        norm_state = NormState(tensors["norm.gamma"].size, [], eps=float(tensors["norm.eps"][0]),
                               momentum=float(tensors["norm.momentum"][0]))
        norm_state.gamma = tensors["norm.gamma"]
        norm_state.beta = tensors["norm.beta"]
        for ds in stats:
            norm_state.register(ds)
            norm_state._stats[ds] = stats[ds]
        heads = {
            name[len("head.") : -len(".w")]: (w, tensors[name[: -len("w")] + "b"])
            for name, w in tensors.items() if name.startswith("head.") and name.endswith(".w")
        }
        params = ModelParams(
            w1=tensors["backbone.w1"],
            b1=tensors["backbone.b1"],
            w2=tensors["backbone.w2"],
            b2=tensors["backbone.b2"],
            heads=heads,
            regime=regime,
        )
        h = norm_state.num_features
        expected = [(params.w1, (NUM_CYL_FEATURES, h)), (params.w2, (h, h)), (params.b1, (h,)),
                    (params.b2, (h,)), (norm_state.beta, (h,))]
        expected += [(s["mean"], (h,)) for s in stats.values()]
        for w, b in heads.values():
            expected += [(w, (h, b.size)), (b, (b.size,))]
        if any(arr.shape != shape for arr, shape in expected):
            raise ValueError(f"checkpoint tensor shapes disagree with its {h} features")
        for name, arr in tensors.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"tensor {name} is not finite")
        for ds, st in stats.items():
            if not (np.isfinite(st["mean"]).all() and np.isfinite(st["var"]).all()
                    and (st["var"] >= 0).all()):
                raise ValueError(f"statistics of {ds!r} hold a non-finite mean or variance, "
                                 "or a negative variance")
    return params, norm_state
