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

from .core import CodecError, DimMismatch, LabelSpace, UnknownDataset


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
    """A learned unified taxonomy over the datasets' label spaces ``spaces``
    (dataset_id -> LabelSpace, in dataset order): the ``selected`` candidates
    that partition their classes, and the objective of that selection.

    ``space`` holds one class per selected candidate, named by its members;
    its empty class is the one that holds the first dataset's empty class.
    ``mappings`` holds each dataset's transform into it, in ``spaces`` order.
    """

    spaces: dict
    selected: tuple
    objective: float
    space: LabelSpace = field(init=False, compare=False)
    mappings: tuple = field(init=False, compare=False)

    def __post_init__(self):
        selected = tuple(self.selected)
        mappings = []
        for ds, space in self.spaces.items():
            m = np.zeros((len(space), len(selected)), dtype=bool)
            for ui, cand in enumerate(selected):
                for d, c in cand.members:
                    if d == ds:
                        m[c, ui] = True
            mappings.append(MappingMatrix(dataset_id=ds, matrix=m))
        names = ("+".join(f"{ds}/{self.spaces[ds].names[c]}" for ds, c in cand.members)
                 for cand in selected)
        empty_uid = mappings[0].unified_of(list(self.spaces.values())[0].empty_id)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "mappings", tuple(mappings))
        object.__setattr__(self, "space", LabelSpace(names=tuple(names), empty_id=empty_uid))

    def mapping(self, dataset_id):
        for m in self.mappings:
            if m.dataset_id == dataset_id:
                return m
        raise UnknownDataset(dataset_id)

    def dataset_ids(self):
        return tuple(self.spaces)


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
    if not n:
        raise MisalignedCorpus("corpus holds no scene")
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

    ``spaces`` maps dataset_id -> LabelSpace and fixes the dataset order and
    label universes. The exact search is a deterministic branch-and-bound
    whose ties are broken by fewer unified classes, then lexicographic
    candidate order.
    """
    candidates = list(candidates)
    labels = [(ds, c) for ds, space in spaces.items() for c in range(len(space))]
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
    return UnifiedSpace(spaces, [candidates[i] for i in selection], j)


def unified_from_pairs(spaces, pairs):
    """Build a UnifiedSpace directly from explicit cross-dataset class pairs.

    ``pairs`` is a sequence of member tuples like (("a", 1), ("b", 3)) over
    the label spaces ``spaces`` (dataset_id -> LabelSpace); uncovered labels
    become singletons, every candidate costs 0. Useful for oracle
    correspondences derived from a known taxonomy.
    """
    cands = [MergeCandidate(members=tuple(p), cost=0.0) for p in pairs]
    covered = {m for c in cands for m in c.members}
    for ds, space in spaces.items():
        for c in range(len(space)):
            if (ds, c) not in covered:
                cands.append(MergeCandidate(members=((ds, c),), cost=0.0))
    return UnifiedSpace(spaces, cands, _canonical_objective(cands, range(len(cands)), 0.0))


def transcode(grid, unified, source_ds, target_ds):
    """Map hard labels of ``source_ds`` into ``target_ds``'s taxonomy through
    the unified space; unified classes lacking a preimage there fall back to
    the target's empty class. The result is on the grid's lattice."""
    src = unified.mapping(source_ds)
    if grid.num_classes != src.num_labels:
        raise DimMismatch(f"grid classes {grid.num_classes} != mapping rows {src.num_labels}")
    tgt = unified.mapping(target_ds)
    back = np.full(len(unified.space), unified.spaces[target_ds].empty_id, dtype=np.int64)
    rows, cols = np.nonzero(tgt.matrix)
    back[cols] = rows
    lut = back[np.argmax(src.matrix, axis=1)]
    labels = lut[grid.labels.astype(np.int64)].astype(np.uint16)
    return grid.lattice.grid(labels, tgt.num_labels)


FORMAT = "unified-space v1"


def export_unified(unified, lam=None, tau=None):
    """Render a unified space as a deterministic structured text document.

    Schema (stable key order, one record per line):
      format / lambda / tau / objective / datasets / empty headers, then
      ``class <i>: <name>``, ``cost <i>: <cost>``, and
      ``map <ds> <label_id> <label_name> -> <unified_id>`` records.
    """
    lines = [f"format: {FORMAT}"]
    lines.append(f"lambda: {'' if lam is None else repr(float(lam))}")
    lines.append(f"tau: {'' if tau is None else repr(float(tau))}")
    lines.append(f"objective: {unified.objective!r}")
    lines.append("datasets: " + ",".join(unified.dataset_ids()))
    lines.append(f"empty: {unified.space.empty_id}")
    for i, name in enumerate(unified.space.names):
        lines.append(f"class {i}: {name}")
    for i, cand in enumerate(unified.selected):
        lines.append(f"cost {i}: {cand.cost!r}")
    for m, space in zip(unified.mappings, unified.spaces.values()):
        for c in range(m.num_labels):
            lines.append(f"map {m.dataset_id} {c} {space.names[c]} -> {m.unified_of(c)}")
    return "\n".join(lines) + "\n"


def parse_unified(text, spaces):
    """Inverse of export_unified over the datasets' label spaces ``spaces``
    (dataset_id -> LabelSpace): the unified space is built from the ``class``
    and ``cost`` records, over the datasets of the ``datasets:`` record in
    its order.

    Raises CodecError, at the byte offset of the offending line, on a line
    that does not parse, on a label mapped twice, on a record repeated (a
    header, or ``class``/``cost`` of one index), on a ``datasets:`` record
    that names a dataset twice, on a ``lambda:`` that is neither empty nor
    finite or a ``tau:`` that is neither empty nor a number, and on a
    ``cost`` record for a class the document does not have; and at the end
    of the text on a ``format:`` record that is missing or not
    ``unified-space v1``, on a missing or non-finite objective, on a dataset
    of ``spaces`` that the ``datasets:`` record leaves out, on classes and
    costs that do not form a valid unified space and on class names, ``map``
    or ``empty:`` records that contradict the space they form.
    """
    fmt = None
    objective = float("nan")
    names = {}
    costs = {}
    maps = {}
    empty_uid = None
    datasets = []
    seen = {}  # record (a header key, or ("class" | "cost", index)) -> offset of its line
    offset = 0
    for raw in text.splitlines(keepends=True):
        at = offset
        offset += len(raw.encode())
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        value = value.strip()
        try:
            if line.startswith("map "):
                head, _, uid = line.partition("->")
                _, ds, label_id, name = head.split()
                label = int(label_id)
                if label in maps.setdefault(ds, {}):
                    raise ValueError(f"label {label} of {ds!r} is mapped twice")
                maps[ds][label] = (name, int(uid.strip()))
                continue
            kind, _, index = key.partition(" ")
            record = (kind, int(index)) if kind in ("class", "cost") else key
            if record in seen:
                raise ValueError("the record is repeated")
            seen[record] = at
            if kind == "class":
                names[record[1]] = value
            elif kind == "cost":
                costs[record[1]] = float(value)
            elif key == "format":
                fmt = value
            elif key == "empty":
                empty_uid = int(value)
            elif key == "objective":
                objective = float(value)
            elif key == "datasets":
                datasets = [d for d in value.split(",") if d]
                if len(set(datasets)) < len(datasets):
                    raise ValueError("a dataset is named twice")
            elif key in ("lambda", "tau"):
                # ExperimentConfig's rule: lambda finite, tau not nan
                number = float(value or 0)
                if np.isnan(number) or (key == "lambda" and np.isinf(number)):
                    raise ValueError(f"{key} is neither empty nor "
                                     f"{'finite' if key == 'lambda' else 'a number'}")
            else:
                raise ValueError("unknown record")
        except (ValueError, IndexError) as e:
            raise CodecError(f"unified document line {line!r}: {e}", at) from None
    for i in costs:
        if i not in names:
            raise CodecError(f"unified document has a cost record for class {i}, which it "
                             "does not have", seen[("cost", i)])
    if fmt != FORMAT:
        raise CodecError(f"unified document has format {fmt!r}, not {FORMAT!r}", offset)
    if not np.isfinite(objective):
        raise CodecError("unified document has no finite objective: record", offset)
    for ds in spaces:
        if ds not in datasets:
            raise CodecError(f"unified document leaves out dataset {ds!r}", offset)
    try:
        classes = tuple(names[i] for i in range(len(names)))
        selected = [MergeCandidate(_members_from_name(name, spaces), costs[i])
                    for i, name in enumerate(classes)]
        unified = UnifiedSpace({ds: spaces[ds] for ds in datasets}, selected, objective)
    except (KeyError, IndexError, ValueError) as e:
        raise CodecError(f"unified document is not a valid unified space: {e!r}", offset) from None
    implied = {m.dataset_id: {c: (space.names[c], m.unified_of(c)) for c in range(m.num_labels)}
               for m, space in zip(unified.mappings, unified.spaces.values())}
    if (unified.space.names, unified.space.empty_id, implied) != (classes, empty_uid, maps):
        raise CodecError("unified document's class names, map or empty: records contradict "
                         "the space its classes form", offset)
    return unified


def _members_from_name(name, spaces):
    members = []
    for part in name.split("+"):
        ds, _, cls = part.partition("/")
        members.append((ds, spaces[ds].index(cls)))
    return tuple(members)
