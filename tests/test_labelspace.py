import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mdocc.core import CodecError, LabelSpace, OccupancyGrid, rng_stream
from mdocc.labelspace import (
    DimMismatch,
    InfeasibleCover,
    MappingMatrix,
    MergeCandidate,
    MisalignedCorpus,
    enumerate_candidates,
    export_unified,
    merge_cost,
    merged_score,
    parse_unified,
    reproject,
    solve_unified,
    transcode,
    unified_from_pairs,
)


def score_grid(values):
    """1-voxel (1, 1, 1, C) score array from a flat class-score vector."""
    return np.asarray(values, dtype=np.float64).reshape(1, 1, 1, -1)


def mapping(ds, rows, cols, ones):
    m = np.zeros((rows, cols), dtype=bool)
    for r, c in ones:
        m[r, c] = True
    return MappingMatrix(ds, m)


def exhaustive_minimum(candidates, spaces, lam):
    """Independent oracle: enumerate every exact cover and take the minimum
    canonical objective (ties: fewer classes, then lexicographic)."""
    labels = [(ds, c) for ds, space in spaces.items() for c in range(len(space))]
    pos = {lab: i for i, lab in enumerate(labels)}
    members = [tuple(pos[m] for m in c.members) for c in candidates]
    best = [None]

    def rec(covered, chosen):
        li = next((i for i in range(len(labels)) if i not in covered), None)
        if li is None:
            sel = tuple(sorted(chosen))
            j = 0.0
            for i in sel:
                j += candidates[i].cost + lam
            tup = (j, len(sel), sel)
            if best[0] is None or tup < best[0]:
                best[0] = tup
            return
        for ci, mems in enumerate(members):
            if li in mems and not (covered & set(mems)):
                rec(covered | set(mems), chosen + [ci])

    rec(frozenset(), [])
    return best[0]


class TestMappingMatrix:
    def test_row_sum_one_enforced(self):
        with pytest.raises(ValueError):
            mapping("a", 2, 2, [(0, 0)])  # row 1 maps nowhere
        with pytest.raises(ValueError):
            mapping("a", 1, 2, [(0, 0), (0, 1)])  # row 0 maps twice

    def test_column_sum_enforced(self):
        with pytest.raises(ValueError):
            mapping("a", 2, 1, [(0, 0), (1, 0)])

    def test_candidate_distinct_datasets(self):
        with pytest.raises(ValueError):
            MergeCandidate(members=(("a", 0), ("a", 1)), cost=0.0)
        with pytest.raises(ValueError):
            MergeCandidate(members=(("a", 0),), cost=-1.0)


class TestMergedScore:
    def test_single_dataset_identity(self):
        o = score_grid([0.3, 0.7])
        t = mapping("a", 2, 2, [(0, 0), (1, 1)])
        d, support = merged_score([o], [t])
        assert np.allclose(d, o)
        assert support.tolist() == [1, 1]

    def test_disjoint_classes_concatenate(self):
        # hand-evaluated: two datasets, disjoint unified classes, denominator 1
        a = score_grid([0.2, 0.8])
        b = score_grid([0.5, 0.1, 0.4])
        ta = mapping("a", 2, 5, [(0, 0), (1, 1)])
        tb = mapping("b", 3, 5, [(0, 2), (1, 3), (2, 4)])
        d, support = merged_score([a, b], [ta, tb])
        assert np.allclose(d.reshape(-1), [0.2, 0.8, 0.5, 0.1, 0.4])
        assert support.tolist() == [1, 1, 1, 1, 1]

    def test_shared_class_averages(self):
        # 0.2 and 0.6 merge into (0.2 + 0.6) / 2 = 0.4
        a = score_grid([0.2, 0.8])
        b = score_grid([0.6, 0.4])
        ta = mapping("a", 2, 3, [(0, 0), (1, 1)])
        tb = mapping("b", 2, 3, [(0, 0), (1, 2)])
        d, support = merged_score([a, b], [ta, tb])
        assert np.allclose(d.reshape(-1), [0.4, 0.8, 0.4])
        assert support.tolist() == [2, 1, 1]

    def test_dim_mismatch(self):
        a = score_grid([0.2, 0.8])
        big = np.zeros((2, 1, 1, 2))
        t = mapping("a", 2, 2, [(0, 0), (1, 1)])
        with pytest.raises(DimMismatch):
            merged_score([a, big], [t, t])

    def test_reproject_identity_and_averaging(self):
        a = score_grid([0.2, 0.8])
        b = score_grid([0.6, 0.4])
        ta = mapping("a", 2, 3, [(0, 0), (1, 1)])
        tb = mapping("b", 2, 3, [(0, 0), (1, 2)])
        d, _ = merged_score([a, b], [ta, tb])
        oa = reproject(d, ta)
        # shared class comes back as the average, private class exactly
        assert np.allclose(oa.reshape(-1), [0.4, 0.8])
        # disjoint case restores the original
        ta2 = mapping("a", 2, 4, [(0, 0), (1, 1)])
        tb2 = mapping("b", 2, 4, [(0, 2), (1, 3)])
        d2, _ = merged_score([a, b], [ta2, tb2])
        assert np.allclose(reproject(d2, ta2), a)


class TestMergeCost:
    def corpus(self, va, vb, voxels=4):
        a = np.tile(np.asarray(va, float), (voxels, 1, 1, 1))
        b = np.tile(np.asarray(vb, float), (voxels, 1, 1, 1))
        return {"a": [a], "b": [b]}

    def test_singleton_zero(self):
        corpus = self.corpus([0.2, 0.8], [0.6, 0.4])
        c = MergeCandidate(members=(("a", 0),), cost=0.0)
        assert merge_cost(c, corpus) == 0.0

    def test_identical_scores_zero(self):
        corpus = self.corpus([0.2, 0.8], [0.2, 0.8])
        c = MergeCandidate(members=(("a", 0), ("b", 0)), cost=0.0)
        assert merge_cost(c, corpus) == 0.0

    def test_constant_scores_closed_form(self):
        # |0.2 - 0.4| and |0.6 - 0.4| average to 0.2 over every voxel
        corpus = self.corpus([0.2, 0.8], [0.6, 0.4])
        c = MergeCandidate(members=(("a", 0), ("b", 0)), cost=0.0)
        assert np.isclose(merge_cost(c, corpus), 0.2)

    def test_misaligned_corpus(self):
        a = score_grid([0.2, 0.8])
        b = np.zeros((2, 1, 1, 2))
        pair = MergeCandidate(members=(("a", 0), ("b", 0)), cost=0.0)
        # scenes of unequal dims, and datasets that hold no scene
        for corpus in ({"a": [a], "b": [b]}, {"a": [], "b": []}):
            with pytest.raises(MisalignedCorpus):
                merge_cost(pair, corpus)
            with pytest.raises(MisalignedCorpus):
                enumerate_candidates(corpus, 0.1)


def random_corpus(rng, sizes, voxels=32, scenes=2):
    corpus = {}
    for ds, k in sizes.items():
        grids = []
        for _ in range(scenes):
            raw = rng.random((voxels, 1, 1, k))
            raw /= raw.sum(axis=3, keepdims=True)
            grids.append(raw)
        corpus[ds] = grids
    return corpus


class TestEnumerate:
    def test_combinatorics_two_datasets(self):
        rng = rng_stream(1, "enum")
        corpus = random_corpus(rng, {"a": 3, "b": 4})
        cands = enumerate_candidates(corpus, tau=float("inf"))
        # 3 + 4 singletons plus 3 * 4 pairs
        assert len(cands) == 19
        assert sum(1 for c in cands if len(c) == 1) == 7
        assert sum(1 for c in cands if len(c) == 2) == 12

    def test_tau_zero_keeps_singletons_only(self):
        rng = rng_stream(2, "enum")
        corpus = random_corpus(rng, {"a": 3, "b": 3})
        cands = enumerate_candidates(corpus, tau=0.0)
        assert all(len(c) == 1 for c in cands)
        assert len(cands) == 6

    def test_twin_corpus_true_pairs_survive_any_tau(self):
        rng = rng_stream(3, "enum")
        base = random_corpus(rng, {"a": 4})["a"]
        perm = [2, 0, 3, 1]  # b's class i is a's class perm[i]
        twin = [g[..., perm] for g in base]
        corpus = {"a": base, "b": twin}
        cands = enumerate_candidates(corpus, tau=0.0)
        got_pairs = {c.members for c in cands if len(c) == 2}
        want = {(("a", perm[i]), ("b", i)) for i in range(4)}
        assert want <= got_pairs

    def test_deterministic_order(self):
        rng1 = rng_stream(4, "enum")
        rng2 = rng_stream(4, "enum")
        c1 = enumerate_candidates(random_corpus(rng1, {"a": 3, "b": 3}), tau=np.inf)
        c2 = enumerate_candidates(random_corpus(rng2, {"a": 3, "b": 3}), tau=np.inf)
        assert [c.members for c in c1] == [c.members for c in c2]


def spaces_of(sizes):
    return {ds: LabelSpace(tuple(f"{ds}{i}" for i in range(k)), 0) for ds, k in sizes.items()}


class TestSolver:
    def test_tiny_lambda_all_singletons(self):
        # the class-count penalty vanishes, so any positive merge cost loses
        rng = rng_stream(5, "solve")
        sizes = {"a": 3, "b": 4}
        corpus = random_corpus(rng, sizes)
        cands = enumerate_candidates(corpus, tau=np.inf)
        assert min(c.cost for c in cands if len(c) == 2) > 0
        uni = solve_unified(cands, lam=1e-12, spaces=spaces_of(sizes))
        assert len(uni.space) == 7
        assert all(len(c) == 1 for c in uni.selected)

    def test_huge_lambda_merges_maximally(self):
        # lam multiplies the number of unified classes, so a huge lam drives
        # the space down to max(|L_a|, |L_b|)
        rng = rng_stream(5, "solve")
        sizes = {"a": 3, "b": 4}
        corpus = random_corpus(rng, sizes)
        cands = enumerate_candidates(corpus, tau=np.inf)
        uni = solve_unified(cands, lam=1e9, spaces=spaces_of(sizes))
        assert len(uni.space) == 4

    def test_twin_recovery_exact(self):
        rng = rng_stream(6, "solve")
        base = random_corpus(rng, {"a": 5})["a"]
        perm = [4, 2, 0, 1, 3]
        twin = [g[..., perm] for g in base]
        corpus = {"a": base, "b": twin}
        sizes = {"a": 5, "b": 5}
        cands = enumerate_candidates(corpus, tau=0.1)
        uni = solve_unified(cands, lam=0.05, spaces=spaces_of(sizes))
        assert len(uni.space) == 5
        got = {c.members for c in uni.selected}
        want = {(("a", perm[i]), ("b", i)) for i in range(5)}
        assert got == want
        # objective is lam per selected true pair
        assert np.isclose(uni.objective, 5 * 0.05)

    def test_matches_exhaustive_enumeration_two_datasets(self):
        rng = rng_stream(7, "solve")
        for trial in range(20):
            na = int(rng.integers(2, 6))
            nb = int(rng.integers(2, 11 - na))
            sizes = {"a": na, "b": nb}
            spaces = spaces_of(sizes)
            cands = [
                MergeCandidate(members=((ds, c),), cost=0.0)
                for ds, space in spaces.items()
                for c in range(len(space))
            ]
            for i in range(na):
                for j in range(nb):
                    cost = round(float(rng.random()), 6)
                    cands.append(MergeCandidate(members=(("a", i), ("b", j)), cost=cost))
            lam = round(float(rng.uniform(0.05, 0.6)), 6)
            uni = solve_unified(cands, lam, spaces)
            want = exhaustive_minimum(cands, spaces, lam)
            assert uni.objective == want[0]
            assert tuple(sorted(_selection_indices(cands, uni))) == want[2]

    def test_matches_exhaustive_three_datasets(self):
        rng = rng_stream(8, "solve")
        for trial in range(5):
            sizes = {"a": 3, "b": 3, "c": 3}
            corpus = random_corpus(rng, sizes, voxels=16)
            cands = enumerate_candidates(corpus, tau=np.inf)
            lam = round(float(rng.uniform(0.02, 0.3)), 6)
            spaces = spaces_of(sizes)
            uni = solve_unified(cands, lam, spaces)
            want = exhaustive_minimum(cands, spaces, lam)
            assert uni.objective == want[0]

    def test_lambda_monotonicity(self):
        rng = rng_stream(9, "solve")
        sizes = {"a": 4, "b": 4}
        corpus = random_corpus(rng, sizes)
        cands = enumerate_candidates(corpus, tau=np.inf)
        spaces = spaces_of(sizes)
        merges = []
        for lam in (0.001, 0.01, 0.05, 0.2, 1.0, 5.0):
            uni = solve_unified(cands, lam, spaces)
            merges.append(sum(1 for c in uni.selected if len(c) >= 2))
        # the class-count penalty grows with lam, so merging only increases
        assert all(a <= b for a, b in zip(merges, merges[1:]))
        assert merges[0] == 0 and merges[-1] == 4

    def test_infeasible_cover(self):
        spaces = spaces_of({"a": 2})
        cands = [MergeCandidate(members=(("a", 0),), cost=0.0)]
        with pytest.raises(InfeasibleCover):
            solve_unified(cands, 0.1, spaces)

    def test_mapping_invariants_hold(self):
        rng = rng_stream(10, "solve")
        sizes = {"a": 4, "b": 3}
        corpus = random_corpus(rng, sizes)
        cands = enumerate_candidates(corpus, tau=np.inf)
        uni = solve_unified(cands, 0.1, spaces_of(sizes))
        for m in uni.mappings:
            assert np.all(m.matrix.sum(axis=1) == 1)
            assert np.all(m.matrix.sum(axis=0) <= 1)

    def test_pruning_soundness(self):
        rng = rng_stream(11, "solve")
        for trial in range(10):
            sizes = {"a": 3, "b": 4}
            corpus = random_corpus(rng, sizes)
            full = enumerate_candidates(corpus, tau=np.inf)
            max_pair = max(c.cost for c in full if len(c) == 2)
            pruned = enumerate_candidates(corpus, tau=max_pair)
            lam = 0.1
            spaces = spaces_of(sizes)
            a = solve_unified(full, lam, spaces)
            b = solve_unified(pruned, lam, spaces)
            assert a.objective == b.objective
            assert [c.members for c in a.selected] == [c.members for c in b.selected]


def assignment_minimum(pair_cost, lam):
    """Independent two-dataset oracle: the exact cover as an assignment problem.

    Rows are a's labels then one slack row per b label; columns are b's labels
    then one slack column per a label. Pairing a-label i with b-label j costs
    pair_cost[i, j] + lam, a label left alone costs lam (its singleton), and
    slack meets slack for free.
    """
    na, nb = pair_cost.shape
    m = np.full((na + nb, nb + na), np.inf)
    m[:na, :nb] = pair_cost + lam
    m[np.arange(na), nb + np.arange(na)] = lam
    m[na + np.arange(nb), np.arange(nb)] = lam
    m[na:, nb:] = 0.0
    rows, cols = linear_sum_assignment(m)
    return float(m[rows, cols].sum())


class TestAssignmentOracle:
    def test_matches_assignment_at_cli_size(self):
        # the CLI's taxonomies: 9 a32 labels by 8 b64 labels, every pair a candidate
        rng = rng_stream(12, "solve")
        for trial in range(12):
            spaces = spaces_of({"a": 9, "b": 8})
            pair_cost = rng.random((9, 8))
            cands = [
                MergeCandidate(members=((ds, c),), cost=0.0)
                for ds, space in spaces.items()
                for c in range(len(space))
            ]
            cands += [
                MergeCandidate(members=(("a", i), ("b", j)), cost=float(pair_cost[i, j]))
                for i in range(9)
                for j in range(8)
            ]
            lam = float(rng.uniform(0.05, 1.0))
            uni = solve_unified(cands, lam, spaces)
            assert np.isclose(uni.objective, assignment_minimum(pair_cost, lam), rtol=0, atol=1e-9)


def test_cli_import_leaves_scipy_out():
    # numpy is the one runtime dependency; scipy is only a test dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mdocc.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _selection_indices(candidates, unified):
    index = {c.members: i for i, c in enumerate(candidates)}
    return [index[c.members] for c in unified.selected]


class TestTranscode:
    def grid(self, labels, num_classes):
        arr = np.asarray(labels, dtype=np.uint16).reshape(-1, 1, 1)
        return OccupancyGrid((arr.shape[0], 1, 1), 0.5, (0, 0, 0), arr, num_classes)

    def unified_pair(self):
        # a: {empty, car, truck}; b: {empty, vehicle}; car+vehicle pair, truck singleton
        sa = LabelSpace(("empty", "car", "truck"), 0)
        sb = LabelSpace(("empty", "vehicle"), 0)
        pairs = [(("a", 0), ("b", 0)), (("a", 1), ("b", 1))]
        return unified_from_pairs({"a": sa, "b": sb}, pairs), sa, sb

    def test_identity_transform(self):
        # a self-pairing of identical spaces transcodes to an equal grid
        sa = LabelSpace(("empty", "x", "y"), 0)
        sb = LabelSpace(("empty", "x", "y"), 0)
        pairs = [(("a", i), ("b", i)) for i in range(3)]
        uni = unified_from_pairs({"a": sa, "b": sb}, pairs)
        g = self.grid([0, 1, 2, 1], 3)
        out = transcode(g, uni, "a", target_ds="b")
        assert np.array_equal(out.labels, g.labels)

    def test_merge_counts(self):
        uni, sa, sb = self.unified_pair()
        g = self.grid([0, 1, 2, 1, 1], 3)  # 3 cars, 1 truck
        out = transcode(g, uni, "a", target_ds="b")
        # cars map to vehicle; truck has no b preimage and falls to empty
        vehicle = sb.index("vehicle")
        assert int(np.sum(out.labels == vehicle)) == 3
        assert int(np.sum(out.labels == sb.empty_id)) == 2

    def test_round_trip_lands_on_merged_representative(self):
        uni, sa, sb = self.unified_pair()
        g = self.grid([1, 2], 3)
        there = transcode(g, uni, "a", target_ds="b")
        back = transcode(there, uni, "b", target_ds="a")
        # car survives; truck went through empty
        assert back.labels.reshape(-1).tolist() == [1, 0]


class TestUnifiedDoc:
    def test_export_parse_round_trip(self):
        rng = rng_stream(15, "doc")
        sizes = {"a": 4, "b": 3}
        corpus = random_corpus(rng, sizes)
        spaces = spaces_of(sizes)
        uni = solve_unified(enumerate_candidates(corpus, tau=np.inf), 0.1, spaces)
        text = export_unified(uni, lam=0.1, tau=float("inf"))
        again = parse_unified(text, spaces)
        assert again.space == uni.space
        assert again.objective == uni.objective
        for m1, m2 in zip(uni.mappings, again.mappings):
            assert m1.dataset_id == m2.dataset_id
            assert np.array_equal(m1.matrix, m2.matrix)
        assert export_unified(again, lam=0.1, tau=float("inf")) == text

    @pytest.mark.parametrize("edit", [
        ("map a 1 car -> 1", "map a 1 car extra -> 1"),  # unparsable line
        ("map b 0 empty -> 0", "map b 0 empty -> zero"),
        ("map b 0 empty -> 0\nmap b 1 vehicle -> 1\n", ""),  # dataset without map lines
        ("map a 2 truck -> 2", "map a 2 truck -> 2\nmap a 2 truck -> 2"),  # mapped twice
        ("datasets: a,b", "datasets: a,b,c"),  # unknown dataset
        ("datasets: a,b", "datasets: a,b,a"),  # dataset named twice
        ("class 2: a/truck\n", ""),  # class ids not contiguous
        ("empty: 0\n", ""),
        ("format: unified-space v1", "format: unified-space v9"),  # another format
        ("format: unified-space v1\n", ""),  # no format record
        ("objective: 0.0\n", ""),  # no objective
        ("objective: 0.0", "objective: nan"),
        ("objective: 0.0", "objective: inf"),
        # map records that contradict the classes: two swapped targets
        ("map a 1 car -> 1\nmap a 2 truck -> 2", "map a 1 car -> 2\nmap a 2 truck -> 1"),
        ("empty: 0", "empty: 1"),  # names a class other than the one holding a's empty
    ])
    def test_malformed_rejected(self, edit):
        sa = LabelSpace(("empty", "car", "truck"), 0)
        sb = LabelSpace(("empty", "vehicle"), 0)
        spaces = {"a": sa, "b": sb}
        uni = unified_from_pairs(spaces, [(("a", 0), ("b", 0)), (("a", 1), ("b", 1))])
        text = export_unified(uni)
        old, new = edit
        assert old in text
        with pytest.raises(CodecError):
            parse_unified(text.replace(old, new), spaces)


    @staticmethod
    def two_dataset_doc():
        sa = LabelSpace(("empty", "car", "truck"), 0)
        sb = LabelSpace(("empty", "vehicle"), 0)
        spaces = {"a": sa, "b": sb}
        uni = unified_from_pairs(spaces, [(("a", 0), ("b", 0)), (("a", 1), ("b", 1))])
        return export_unified(uni), spaces

    # (old, new, the line refused): a repeated record is refused at its
    # second line, even where both lines agree
    @pytest.mark.parametrize("old, new, bad", [
        ("format: unified-space v1\n", "format: unified-space v1\nformat: unified-space v1\n",
         "format: unified-space v1"),
        ("lambda: \n", "lambda: \nlambda: 0.5\n", "lambda: 0.5"),
        ("tau: \n", "tau: \ntau: 0.1\n", "tau: 0.1"),
        ("objective: 0.0\n", "objective: 0.0\nobjective: 5.0\n", "objective: 5.0"),
        ("datasets: a,b\n", "datasets: a,b\ndatasets: a,b\n", "datasets: a,b"),
        ("empty: 0\n", "empty: 0\nempty: 0\n", "empty: 0"),
        ("class 1: a/car+b/vehicle\n", "class 1: a/car+b/vehicle\nclass 1: a/car+b/vehicle\n",
         "class 1: a/car+b/vehicle"),
        ("cost 2: 0.0\n", "cost 2: 0.0\ncost 2: 0.0\n", "cost 2: 0.0"),
        ("cost 2: 0.0\n", "cost 2: 0.0\ncost 3: 7.0\n", "cost 3: 7.0"),  # no class 3
        ("cost 0: 0.0\n", "cost 99: 7.0\ncost 0: 0.0\n", "cost 99: 7.0"),
        ("lambda: \n", "lambda: banana\n", "lambda: banana"),
        ("lambda: \n", "lambda: inf\n", "lambda: inf"),
        ("lambda: \n", "lambda: nan\n", "lambda: nan"),
        ("tau: \n", "tau: banana\n", "tau: banana"),
        ("tau: \n", "tau: nan\n", "tau: nan"),
    ])
    def test_bad_record_refused_at_its_line(self, old, new, bad):
        text, spaces = self.two_dataset_doc()
        assert old in text
        edited = text.replace(old, new, 1)
        lines = edited.splitlines(keepends=True)
        at = max(k for k, line in enumerate(lines) if line.rstrip("\n") == bad)
        with pytest.raises(CodecError) as raised:
            parse_unified(edited, spaces)
        assert raised.value.offset == len("".join(lines[:at]).encode())

    @pytest.mark.parametrize("lam, tau", [("0.5", "inf"), ("-2.0", "-3"), ("", "0.1")])
    def test_lambda_and_tau_values_load(self, lam, tau):
        # ExperimentConfig's rule: lambda finite, tau any number but nan
        text, spaces = self.two_dataset_doc()
        edited = text.replace("lambda: \n", f"lambda: {lam}\n").replace("tau: \n", f"tau: {tau}\n")
        assert parse_unified(edited, spaces).space == parse_unified(text, spaces).space
