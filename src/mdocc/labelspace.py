"""Unified label-space learning across datasets.

Mapping matrices are boolean transforms from a dataset taxonomy into the
unified space (one unified class per dataset class, at most one dataset class
per unified class). Candidate merges are costed by the score discrepancy of a
merge-and-reproject round trip, enumerated greedily under a pruning threshold,
and selected by an exact set-partition solve with a per-class penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CodecError, DimMismatch, LabelSpace, OccupancyGrid, UnknownDataset


class MisalignedCorpus(ValueError):
    pass


class InfeasibleCover(ValueError):
    pass


@dataclass(frozen=True)
class MappingMatrix:
    """Boolean |L_k| x |L| transform from dataset classes to unified classes."""

    dataset_id: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        if m.ndim != 2:
            raise ValueError("mapping matrix must be 2-D")
        if not np.all(m.sum(axis=1) == 1):
            raise ValueError(f"{self.dataset_id}: every dataset class must map to exactly one unified class")
        if np.any(m.sum(axis=0) > 1):
            raise ValueError(f"{self.dataset_id}: a unified class may absorb at most one class per dataset")
        object.__setattr__(self, "matrix", m)

    @property
    def num_labels(self):
        return self.matrix.shape[0]

    @property
    def num_unified(self):
        return self.matrix.shape[1]

    def unified_of(self, label):
        return int(np.argmax(self.matrix[label]))


@dataclass(frozen=True)
class MergeCandidate:
    """A potential unified class: at most one member label per dataset."""

    members: tuple  # ((dataset_id, label_id), ...) sorted by dataset
    cost: float

    def __post_init__(self):
        members = tuple(sorted((str(d), int(c)) for d, c in self.members))
        if not members:
            raise ValueError("candidate needs at least one member")
        ds = [d for d, _ in members]
        if len(set(ds)) != len(ds):
            raise ValueError(f"members must come from pairwise-distinct datasets: {members}")
        if not self.cost >= 0.0:
            raise ValueError(f"cost must be nonnegative, got {self.cost}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "cost", float(self.cost))

    def __len__(self):
        return len(self.members)

    def datasets(self):
        return tuple(d for d, _ in self.members)


@dataclass(frozen=True)
class UnifiedSpace:
    """A learned unified taxonomy: label space, per-dataset transforms, objective."""

    space: LabelSpace
    mappings: tuple
    objective: float
    selected: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "mappings", tuple(self.mappings))
        object.__setattr__(self, "selected", tuple(self.selected))
        for m in self.mappings:
            if m.num_unified != len(self.space):
                raise ValueError(f"{m.dataset_id}: mapping width {m.num_unified} != |L| {len(self.space)}")

    def mapping(self, dataset_id):
        for m in self.mappings:
            if m.dataset_id == dataset_id:
                return m
        raise UnknownDataset(dataset_id)

    def dataset_ids(self):
        return tuple(m.dataset_id for m in self.mappings)


def merged_score(outputs, transforms):
    """Joint prediction scores over the unified space.

    d = (sum_k T_k^T o_k) / (sum_k T_k^T 1), elementwise per voxel, over
    (D, H, W, C_k) score arrays of equal dims. Returns the merged
    (D, H, W, |L|) array together with the per-unified-class dataset-support
    counts; classes with zero support are undefined and left at 0.
    """
    outputs = list(outputs)
    transforms = list(transforms)
    if len(outputs) != len(transforms):
        raise ValueError("need one transform per score array")
    dims = outputs[0].shape[:3]
    num_unified = transforms[0].num_unified
    acc = np.zeros(dims + (num_unified,))
    support = np.zeros(num_unified, dtype=np.int64)
    for scores, t in zip(outputs, transforms):
        if scores.shape != dims + (t.num_labels,):
            raise DimMismatch(
                f"{t.dataset_id}: scores {scores.shape} != dims {dims} x {t.num_labels} classes"
            )
        acc += scores @ t.matrix.astype(np.float64)
        support += t.matrix.sum(axis=0).astype(np.int64)
    merged = np.zeros_like(acc)
    backed = support > 0
    merged[..., backed] = acc[..., backed] / support[backed]
    return merged, support


def reproject(merged, transform):
    """Restore dataset-specific scores from unified ones: o~ = T d."""
    if transform.num_unified != merged.shape[3]:
        raise DimMismatch(
            f"transform width {transform.num_unified} != unified classes {merged.shape[3]}"
        )
    return merged @ transform.matrix.T.astype(np.float64)


def _check_corpus(corpus):
    ids = list(corpus)
    if not ids:
        raise MisalignedCorpus("corpus is empty")
    n = len(corpus[ids[0]])
    for ds in ids:
        if len(corpus[ds]) != n:
            raise MisalignedCorpus(f"{ds}: scene count {len(corpus[ds])} != {n}")
    for i in range(n):
        dims = corpus[ids[0]][i].shape[:3]
        for ds in ids:
            if corpus[ds][i].shape[:3] != dims:
                raise MisalignedCorpus(f"{ds}: scene {i} dims {corpus[ds][i].shape[:3]} != {dims}")
    return ids, n


def merge_cost(candidate, corpus):
    """Mean absolute score discrepancy of the candidate's merge round trip.

    For each member class the merged score is the member mean; the cost is the
    mean of |original - merged| over all member labels and all aligned corpus
    voxels. ``corpus`` maps dataset_id -> (D, H, W, C) score arrays, one per
    aligned scene. Singletons cost exactly 0.
    """
    if len(candidate) == 1:
        return 0.0
    ids, n = _check_corpus(corpus)
    for ds, _ in candidate.members:
        if ds not in corpus:
            raise MisalignedCorpus(f"candidate references dataset {ds!r} missing from corpus")
    total = 0.0
    count = 0
    for i in range(n):
        member_scores = np.stack(
            [corpus[ds][i][..., c] for ds, c in candidate.members], axis=0
        )
        merged = member_scores.mean(axis=0)
        total += np.abs(member_scores - merged[None]).sum()
        count += member_scores.size
    return total / count


def enumerate_candidates(corpus, tau):
    """Greedy candidate growth: singletons, then pairs, triples, ...

    A size-n candidate is kept iff cost / (n - 1) <= tau and it extends an
    already-kept size-(n-1) candidate with a label from an unused dataset.
    Ordering is deterministic: corpus insertion order, then label id.
    """
    ids, _ = _check_corpus(corpus)
    sizes = {ds: corpus[ds][0].shape[3] for ds in ids}
    singles = [
        MergeCandidate(members=((ds, c),), cost=0.0) for ds in ids for c in range(sizes[ds])
    ]
    kept = list(singles)
    seen = {c.members for c in singles}
    frontier = singles
    for n in range(2, len(ids) + 1):
        grown = []
        for cand in frontier:
            used = set(cand.datasets())
            for ds in ids:
                if ds in used:
                    continue
                for c in range(sizes[ds]):
                    members = tuple(sorted(cand.members + ((ds, c),)))
                    if members in seen:
                        continue
                    seen.add(members)
                    probe = MergeCandidate(members=members, cost=0.0)
                    cost = merge_cost(probe, corpus)
                    if tau == float("inf") or cost / (n - 1) <= tau:
                        grown.append(MergeCandidate(members=members, cost=cost))
        kept.extend(grown)
        frontier = grown
        if not grown:
            break
    return kept


def _canonical_objective(candidates, selection, lam):
    """Sum costs + lam in ascending candidate-index order so equal selections
    always produce the identical float."""
    total = 0.0
    for i in sorted(selection):
        total += candidates[i].cost + lam
    return total


def solve_unified(candidates, lam, spaces):
    """Select candidates minimizing sum(cost + lam) with exact cover of every
    dataset label.

    ``spaces`` is a sequence of (dataset_id, LabelSpace) pairs fixing the
    dataset order and label universes. The exact search is a deterministic
    branch-and-bound whose ties are broken by fewer unified classes, then
    lexicographic candidate order.
    """
    candidates = list(candidates)
    spaces = list(spaces)
    labels = [(ds, c) for ds, space in spaces for c in range(len(space))]
    label_pos = {lab: i for i, lab in enumerate(labels)}
    for cand in candidates:
        for mem in cand.members:
            if mem not in label_pos:
                raise ValueError(f"candidate member {mem} outside the given label spaces")
    cand_members = [tuple(label_pos[m] for m in c.members) for c in candidates]
    by_label = [[] for _ in labels]
    for ci, mems in enumerate(cand_members):
        for li in mems:
            by_label[li].append(ci)
    uncovered = [li for li, lst in enumerate(by_label) if not lst]
    if uncovered:
        ds, c = labels[uncovered[0]]
        raise InfeasibleCover(f"label {c} of dataset {ds!r} appears in no candidate")

    # admissible per-label bound: cheapest per-label share of any covering candidate
    share = np.empty(len(labels))
    for li, lst in enumerate(by_label):
        share[li] = min((candidates[ci].cost + lam) / len(cand_members[ci]) for ci in lst)

    # incumbent (objective, class count, selection), compared as a tuple for the
    # tie-break; it starts worse than any cover, even one of infinite cost
    best = (np.inf, np.inf, None)

    order = sorted(range(len(candidates)), key=lambda ci: ((candidates[ci].cost + lam) / len(cand_members[ci]), ci))
    by_label_ordered = [[ci for ci in order if li in cand_members[ci]] for li in range(len(labels))]

    covered = np.zeros(len(labels), dtype=bool)
    chosen = []

    def remaining_bound(first_uncovered):
        # static suffix bound is admissible but loose; tighten with live labels
        total = 0.0
        for li in range(first_uncovered, len(labels)):
            if not covered[li]:
                total += share[li]
        return total

    def dfs(first_uncovered, running):
        nonlocal best
        while first_uncovered < len(labels) and covered[first_uncovered]:
            first_uncovered += 1
        if first_uncovered == len(labels):
            sel = tuple(sorted(chosen))
            j = _canonical_objective(candidates, sel, lam)
            best = min(best, (j, len(sel), sel))
            return
        if running + remaining_bound(first_uncovered) > best[0] + 1e-9:
            return
        for ci in by_label_ordered[first_uncovered]:
            mems = cand_members[ci]
            if any(covered[li] for li in mems):
                continue
            for li in mems:
                covered[li] = True
            chosen.append(ci)
            dfs(first_uncovered + 1, running + candidates[ci].cost + lam)
            chosen.pop()
            for li in mems:
                covered[li] = False

    dfs(0, 0.0)
    j, _, selection = best
    if selection is None:
        raise InfeasibleCover("no feasible cover exists for the given candidates")
    return _build_unified(candidates, selection, j, spaces)


def _build_unified(candidates, selection, objective, spaces):
    selected = tuple(candidates[i] for i in sorted(selection))
    space_of = dict(spaces)
    names = []
    for cand in selected:
        names.append("+".join(f"{ds}/{space_of[ds].names[c]}" for ds, c in cand.members))
    first_ds, first_space = spaces[0]
    empty_uid = None
    for ui, cand in enumerate(selected):
        for ds, c in cand.members:
            if ds == first_ds and c == first_space.empty_id:
                empty_uid = ui
    if empty_uid is None:
        raise InfeasibleCover(f"empty class of {first_ds!r} is not covered")
    unified = LabelSpace(names=tuple(names), empty_id=empty_uid)
    mappings = []
    for ds, space in spaces:
        m = np.zeros((len(space), len(unified)), dtype=bool)
        for ui, cand in enumerate(selected):
            for d, c in cand.members:
                if d == ds:
                    m[c, ui] = True
        mappings.append(MappingMatrix(dataset_id=ds, matrix=m))
    return UnifiedSpace(space=unified, mappings=tuple(mappings), objective=objective, selected=selected)


def unified_from_pairs(spaces, pairs):
    """Build a UnifiedSpace directly from explicit cross-dataset class pairs.

    ``pairs`` is a sequence of member tuples like (("a", 1), ("b", 3));
    uncovered labels become singletons, every candidate costs 0. Useful for
    oracle correspondences derived from a known taxonomy.
    """
    spaces = list(spaces)
    cands = [MergeCandidate(members=tuple(p), cost=0.0) for p in pairs]
    covered = {m for c in cands for m in c.members}
    for ds, space in spaces:
        for c in range(len(space)):
            if (ds, c) not in covered:
                cands.append(MergeCandidate(members=((ds, c),), cost=0.0))
    selection = range(len(cands))
    j = _canonical_objective(cands, selection, 0.0)
    return _build_unified(cands, selection, j, spaces)


def transcode(grid, unified, source_ds, target_ds, target_space):
    """Map hard labels of ``source_ds`` into ``target_ds``'s taxonomy through
    the unified space; unified classes lacking a preimage there fall back to
    the target's empty class."""
    src = unified.mapping(source_ds)
    if grid.num_classes != src.num_labels:
        raise DimMismatch(f"grid classes {grid.num_classes} != mapping rows {src.num_labels}")
    tgt = unified.mapping(target_ds)
    back = np.full(len(unified.space), target_space.empty_id, dtype=np.int64)
    rows, cols = np.nonzero(tgt.matrix)
    back[cols] = rows
    lut = back[np.argmax(src.matrix, axis=1)]
    labels = lut[grid.labels.astype(np.int64)].astype(np.uint16)
    return OccupancyGrid(
        dims=grid.dims,
        voxel_size_m=grid.voxel_size_m,
        origin=grid.origin,
        labels=labels,
        num_classes=tgt.num_labels,
    )


def export_unified(unified, spaces, lam=None, tau=None):
    """Render a unified space as a deterministic structured text document.

    Schema (stable key order, one record per line):
      format / lambda / tau / objective / datasets / empty headers, then
      ``class <i>: <name>``, ``cost <i>: <cost>``, and
      ``map <ds> <label_id> <label_name> -> <unified_id>`` records.
    """
    space_of = dict(spaces)
    lines = ["format: unified-space v1"]
    lines.append(f"lambda: {'' if lam is None else repr(float(lam))}")
    lines.append(f"tau: {'' if tau is None else repr(float(tau))}")
    lines.append(f"objective: {unified.objective!r}")
    lines.append("datasets: " + ",".join(unified.dataset_ids()))
    lines.append(f"empty: {unified.space.empty_id}")
    for i, name in enumerate(unified.space.names):
        lines.append(f"class {i}: {name}")
    for i, cand in enumerate(unified.selected):
        lines.append(f"cost {i}: {cand.cost!r}")
    for m in unified.mappings:
        space = space_of[m.dataset_id]
        for c in range(m.num_labels):
            lines.append(f"map {m.dataset_id} {c} {space.names[c]} -> {m.unified_of(c)}")
    return "\n".join(lines) + "\n"


def parse_unified(text, spaces):
    """Inverse of export_unified (requires the same dataset label spaces).

    Raises CodecError, at the byte offset of the offending line, on a line
    that does not parse and on a label mapped twice; and at the end of the
    text on a dataset without map lines and on a document whose datasets,
    classes, empty class or mappings do not form a valid unified space.
    """
    space_of = dict(spaces)
    names = {}
    costs = {}
    maps = {}
    empty_uid = None
    objective = None
    datasets = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        at = offset
        offset += len(raw.encode())
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        try:
            if key.startswith("class "):
                names[int(key.split()[1])] = value.strip()
            elif key.startswith("cost "):
                costs[int(key.split()[1])] = float(value.strip())
            elif key == "empty":
                empty_uid = int(value.strip())
            elif key == "objective":
                objective = float(value.strip())
            elif key == "datasets":
                datasets = [d for d in value.strip().split(",") if d]
            elif line.startswith("map "):
                head, _, uid = line.partition("->")
                _, ds, label_id, _ = head.split()
                label, target = int(label_id), int(uid.strip())
                if label < 0 or target < 0:
                    raise ValueError("negative class id")
                if label in maps.setdefault(ds, {}):
                    raise ValueError(f"label {label} of {ds!r} is mapped twice")
                maps[ds][label] = target
            elif key not in ("format", "lambda", "tau"):
                raise ValueError("unknown record")
        except (ValueError, IndexError) as e:
            raise CodecError(f"unified document line {line!r}: {e}", at) from None
    for ds in datasets:
        if ds not in maps:
            raise CodecError(f"unified document has no map lines for dataset {ds!r}", offset)
    if empty_uid is None:
        raise CodecError("unified document has no empty: record", offset)
    try:
        num_unified = len(names)
        space = LabelSpace(
            names=tuple(names[i] for i in range(num_unified)), empty_id=empty_uid
        )
        mappings = []
        for ds in datasets:
            m = np.zeros((len(space_of[ds]), num_unified), dtype=bool)
            for c, uid in maps[ds].items():
                m[c, uid] = True
            mappings.append(MappingMatrix(dataset_id=ds, matrix=m))
        selected = tuple(
            MergeCandidate(members=_members_from_name(names[i], space_of), cost=costs.get(i, 0.0))
            for i in range(num_unified)
        )
        return UnifiedSpace(space=space, mappings=tuple(mappings), objective=objective, selected=selected)
    except (KeyError, IndexError, ValueError) as e:
        raise CodecError(f"unified document is not a valid unified space: {e!r}", offset) from None


def _members_from_name(name, space_of):
    members = []
    for part in name.split("+"):
        ds, _, cls = part.partition("/")
        members.append((ds, space_of[ds].index(cls)))
    return tuple(members)
