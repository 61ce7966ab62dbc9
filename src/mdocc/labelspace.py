"""Unified label-space learning across datasets.

A unified space partitions the datasets' classes: each dataset class lies in
one unified class, which holds at most one class per dataset. Candidate
merges are costed by the score discrepancy of a merge-and-reproject round
trip, enumerated greedily under a pruning threshold, and selected by an exact
set-partition solve with a per-class penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CodecError, DimMismatch, LabelSpace


class MisalignedCorpus(ValueError):
    pass


class InfeasibleCover(ValueError):
    pass


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
    ``index`` maps each dataset to an int array giving the unified id of each
    of its classes.
    """

    spaces: dict
    selected: tuple
    objective: float
    space: LabelSpace = field(init=False, compare=False)
    index: dict = field(init=False, compare=False)

    def __post_init__(self):
        selected = tuple(self.selected)
        index = {ds: np.full(len(space), -1, dtype=np.int64) for ds, space in self.spaces.items()}
        for ui, cand in enumerate(selected):
            for ds, c in cand.members:
                if index[ds][c] >= 0:
                    raise ValueError(f"label {c} of dataset {ds!r} is in two selected classes")
                index[ds][c] = ui
        for ds, ids in index.items():
            if ids.min(initial=0) < 0:
                raise ValueError(f"label {ids.argmin()} of dataset {ds!r} is in no selected class")
        names = ("+".join(f"{ds}/{self.spaces[ds].names[c]}" for ds, c in cand.members)
                 for cand in selected)
        first = list(self.spaces)[0]
        empty_uid = int(index[first][self.spaces[first].empty_id])
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "space", LabelSpace(names=tuple(names), empty_id=empty_uid))

    def dataset_ids(self):
        return tuple(self.spaces)


def merged_score(outputs, unified):
    """Joint prediction scores over the unified space.

    ``outputs`` maps dataset_id -> (D, H, W, C_k) score array, all of equal
    dims. Each unified class gets the mean of the scores of its member
    classes among those datasets (d = sum_k T_k^T o_k / sum_k T_k^T 1 for
    the 0/1 transforms T_k), elementwise per voxel. Returns the merged
    (D, H, W, |L|) array together with the per-unified-class dataset-support
    counts; classes with zero support are undefined and left at 0.
    """
    dims = list(outputs.values())[0].shape[:3]
    num_unified = len(unified.space)
    acc = np.zeros(dims + (num_unified,))
    support = np.zeros(num_unified, dtype=np.int64)
    for ds, scores in outputs.items():
        ids = unified.index[ds]
        if scores.shape != dims + (len(ids),):
            raise DimMismatch(f"{ds}: scores {scores.shape} != dims {dims} x {len(ids)} classes")
        acc[..., ids] += scores
        support[ids] += 1
    merged = np.zeros_like(acc)
    backed = support > 0
    merged[..., backed] = acc[..., backed] / support[backed]
    return merged, support


def reproject(merged, unified, dataset_id):
    """Restore ``dataset_id``'s scores from unified ones: each of its classes
    reads the score of the unified class that holds it (o~ = T d)."""
    if merged.shape[3] != len(unified.space):
        raise DimMismatch(f"merged scores hold {merged.shape[3]} classes, not the "
                          f"{len(unified.space)} unified ones")
    return np.take(merged, unified.index[dataset_id], axis=3)  # C-ordered, unlike merged[..., ids]


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
    # each label's covering candidates, cheapest per-label share first: the
    # branching order, and the first share is the label's admissible bound
    rate = [(c.cost + lam) / len(mems) for c, mems in zip(candidates, cand_members)]
    by_label = [[] for _ in labels]
    for ci in sorted(range(len(candidates)), key=lambda ci: (rate[ci], ci)):
        for li in cand_members[ci]:
            by_label[li].append(ci)
    uncovered = [li for li, lst in enumerate(by_label) if not lst]
    if uncovered:
        ds, c = labels[uncovered[0]]
        raise InfeasibleCover(f"label {c} of dataset {ds!r} appears in no candidate")
    share = np.array([rate[lst[0]] for lst in by_label])

    # incumbent (objective, class count, selection), compared as a tuple for the
    # tie-break; it starts worse than any cover, even one of infinite cost
    best = (np.inf, np.inf, None)

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
        for ci in by_label[first_uncovered]:
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
    src = unified.index[source_ds]
    if grid.num_classes != len(src):
        raise DimMismatch(f"grid classes {grid.num_classes} != {len(src)} classes of {source_ds!r}")
    tgt = unified.index[target_ds]
    back = np.full(len(unified.space), unified.spaces[target_ds].empty_id, dtype=np.int64)
    back[tgt] = np.arange(len(tgt))
    labels = back[src][grid.labels.astype(np.int64)].astype(np.uint16)
    return grid.lattice.grid(labels, len(tgt))


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
    for ds, space in unified.spaces.items():
        for c, uid in enumerate(unified.index[ds].tolist()):
            lines.append(f"map {ds} {c} {space.names[c]} -> {uid}")
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
    implied = {ds: {c: (space.names[c], uid) for c, uid in enumerate(unified.index[ds].tolist())}
               for ds, space in unified.spaces.items()}
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
