import math

import numpy as np
import pytest
from conftest import traced_peak

from latentmap import benchmark as bm
from latentmap.errors import DataError


def pair_count_ari(a, b):
    """Independent oracle: enumerate all index pairs and count agreements."""
    n = len(a)
    n11 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            n11 += sa and sb
            n10 += sa and not sb
            n01 += (not sa) and sb
    total = math.comb(n, 2)
    sum_a = n11 + n10
    sum_b = n11 + n01
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0 if sum_a == sum_b == n11 else 0.0
    return (n11 - expected) / (max_index - expected)


def brute_force_knn(train_codes, train_labels, query, k, vocab):
    scored = sorted((float(np.sum((query - c) ** 2)), i) for i, c in enumerate(train_codes))
    votes = {}
    for _, i in scored[:k]:
        votes[train_labels[i]] = votes.get(train_labels[i], 0) + 1
    best = max(votes.values())
    for label in vocab:
        if votes.get(label, 0) == best:
            return label


# ---------------------------------------------------------------------------
# accuracy / confusion
# ---------------------------------------------------------------------------

def test_accuracy_all_correct():
    assert bm.accuracy(["a", "b"], ["a", "b"]) == 1.0


def test_accuracy_two_thirds():
    assert bm.accuracy([1, 1, 0], [1, 0, 0]) == pytest.approx(2 / 3)


def test_accuracy_matches_loop_oracle():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, size=50).tolist()
    y_hat = rng.integers(0, 4, size=50).tolist()
    count = sum(1 for a, b in zip(y, y_hat) if a == b)
    assert bm.accuracy(y, y_hat) == count / 50


def test_accuracy_length_mismatch():
    with pytest.raises(DataError):
        bm.accuracy([1], [1, 2])


def test_confusion_perfect_is_diagonal():
    y = ["a", "b", "b", "c"]
    cm = bm.confusion_matrix(y, y, ["a", "b", "c"])
    assert np.array_equal(cm, np.diag([1, 2, 1]))


def test_confusion_total_counts_and_loop_oracle():
    rng = np.random.default_rng(1)
    vocab = ["x", "y", "z"]
    y = [vocab[i] for i in rng.integers(0, 3, size=40)]
    y_hat = [vocab[i] for i in rng.integers(0, 3, size=40)]
    cm = bm.confusion_matrix(y, y_hat, vocab)
    assert cm.sum() == 40
    expected = np.zeros((3, 3), dtype=int)
    for a, b in zip(y, y_hat):
        expected[vocab.index(a), vocab.index(b)] += 1
    assert np.array_equal(cm, expected)
    # accuracy equals trace(confusion)/n, always
    assert bm.accuracy(y, y_hat) == cm.trace() / 40


def test_confusion_unknown_label():
    with pytest.raises(DataError):
        bm.confusion_matrix(["a"], ["q"], ["a", "b"])


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def test_knn_query_on_training_point():
    train = bm.LabeledEmbedding(np.array([[0.0, 0.0], [5.0, 5.0]]), ["a", "b"])
    assert bm.knn_predict(train, np.array([[5.0, 5.0]]), 1) == ["b"]


def test_knn_separated_clusters_perfect():
    rng = np.random.default_rng(2)
    codes = np.vstack([rng.normal(0, 0.1, size=(20, 3)), rng.normal(10, 0.1, size=(20, 3))])
    labels = ["a"] * 20 + ["b"] * 20
    train = bm.LabeledEmbedding(codes, labels)
    for k in (1, 5, 15):
        pred = bm.knn_predict(train, codes, k)
        assert bm.accuracy(labels, pred) == 1.0


def test_knn_six_point_instance_matches_exhaustive_oracle():
    codes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 4.0], [5.0, 4.0], [4.0, 5.0]])
    labels = ["a", "a", "b", "b", "b", "a"]
    train = bm.LabeledEmbedding(codes, labels)
    queries = np.array([[0.5, 0.5], [4.5, 4.5], [2.0, 2.0]])
    pred = bm.knn_predict(train, queries, 3)
    oracle = [brute_force_knn(codes, labels, q, 3, train.vocab) for q in queries]
    assert pred == oracle


def test_knn_random_matches_oracle():
    rng = np.random.default_rng(3)
    codes = rng.normal(size=(30, 4))
    labels = [["a", "b", "c"][i] for i in rng.integers(0, 3, size=30)]
    train = bm.LabeledEmbedding(codes, labels)
    queries = rng.normal(size=(10, 4))
    for k in (1, 4, 7):
        pred = bm.knn_predict(train, queries, k)
        oracle = [brute_force_knn(codes, labels, q, k, train.vocab) for q in queries]
        assert pred == oracle
    # small integer codes: distance ties at the k-th neighbor and vote ties throughout
    codes = rng.integers(0, 3, size=(30, 2)).astype(float)
    train = bm.LabeledEmbedding(codes, labels)
    queries = rng.integers(0, 3, size=(10, 2)).astype(float)
    for k in range(1, 31):
        pred = bm.knn_predict(train, queries, k)
        assert pred == [brute_force_knn(codes, labels, q, k, train.vocab) for q in queries]


def test_knn_one_row_blocks_match_one_block(monkeypatch):
    # small integer codes: distance ties at the k-th neighbor and vote ties
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 3, size=(40, 3)).astype(float)
    train = bm.LabeledEmbedding(codes, [["a", "b", "c"][i] for i in rng.integers(0, 3, size=40)])
    queries = rng.integers(0, 3, size=(25, 3)).astype(float)
    assert 25 * train.codes.size <= bm.KNN_BLOCK_ENTRIES  # one block by default
    whole = [bm.knn_predict(train, queries, k) for k in (1, 4, 9)]
    monkeypatch.setattr(bm, "KNN_BLOCK_ENTRIES", 1)
    assert [bm.knn_predict(train, queries, k) for k in (1, 4, 9)] == whole


def test_knn_memory_does_not_grow_with_the_queries():
    # 400 queries against 1,500 training rows of 10 dims: the differences of
    # all of them would be 48 MB, and their squares as much again; a block
    # holds about 8 MB of each
    rng = np.random.default_rng(9)
    train = bm.LabeledEmbedding(rng.normal(size=(1500, 10)), ["a", "b"] * 750)
    queries = rng.normal(size=(400, 10))
    _, peak = traced_peak(lambda: bm.knn_predict(train, queries, 5))
    assert peak < 25e6, peak


def test_knn_distance_tie_prefers_smaller_index():
    train = bm.LabeledEmbedding(np.array([[1.0, 0.0], [-1.0, 0.0]]), ["a", "b"])
    assert bm.knn_predict(train, np.array([[0.0, 0.0]]), 1) == ["a"]


def test_knn_vote_tie_prefers_vocab_order():
    train = bm.LabeledEmbedding(np.array([[1.0], [2.0]]), ["zz", "aa"])
    # both neighbors vote once; earlier vocab label "aa" wins
    assert bm.knn_predict(train, np.array([[1.5]]), 2) == ["aa"]


def test_knn_bad_k():
    train = bm.LabeledEmbedding(np.zeros((3, 2)), ["a", "a", "b"])
    with pytest.raises(DataError):
        bm.knn_predict(train, np.zeros((1, 2)), 0)
    with pytest.raises(DataError):
        bm.knn_predict(train, np.zeros((1, 2)), 4)


def test_knn_leave_one_out_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 60
    codes = rng.normal(size=(n, 3))
    labels = [["a", "b"][i] for i in rng.integers(0, 2, size=n)]
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        train = bm.LabeledEmbedding(codes[keep], [labels[j] for j in keep])
        pred = bm.knn_predict(train, codes[i][None, :], 1)[0]
        dists = [(float(np.sum((codes[i] - codes[j]) ** 2)), j) for j in keep]
        nearest = min(dists)[1]
        assert pred == labels[nearest]


# ---------------------------------------------------------------------------
# k-fold CV
# ---------------------------------------------------------------------------

def test_kfold_sizes_near_equal():
    e = bm.LabeledEmbedding(np.arange(16.0).reshape(8, 2), list("aabbccdd"))
    report = bm.sweep_k(e, [1], folds=4, seed=0)[0][1]
    assert len(report.fold_accuracies) == 4
    assert report.confusion.sum() == 8  # every point tested exactly once


def test_kfold_partition_property():
    rng = np.random.default_rng(5)
    n = 23
    slices = bm._fold_slices(n, 4, seed=1)
    sizes = sorted(len(s) for s in slices)
    assert max(sizes) - min(sizes) <= 1
    combined = np.sort(np.concatenate(slices))
    assert np.array_equal(combined, np.arange(n))


def test_kfold_perfect_clusters():
    rng = np.random.default_rng(6)
    codes = np.vstack([rng.normal(0, 0.05, size=(12, 2)), rng.normal(8, 0.05, size=(12, 2))])
    e = bm.LabeledEmbedding(codes, ["a"] * 12 + ["b"] * 12)
    report = bm.sweep_k(e, [3], folds=4, seed=2)[0][1]
    assert report.mean == 1.0 and report.std == 0.0
    assert report.confusion.trace() == 24


def test_kfold_deterministic():
    rng = np.random.default_rng(7)
    e = bm.LabeledEmbedding(rng.normal(size=(20, 3)), [["a", "b"][i] for i in rng.integers(0, 2, 20)])
    r1 = bm.sweep_k(e, [3], folds=4, seed=9)[0][1]
    r2 = bm.sweep_k(e, [3], folds=4, seed=9)[0][1]
    assert r1.fold_accuracies == r2.fold_accuracies
    assert np.array_equal(r1.confusion, r2.confusion)


def test_kfold_mean_is_arithmetic_mean():
    rng = np.random.default_rng(8)
    e = bm.LabeledEmbedding(rng.normal(size=(17, 2)), [["a", "b"][i] for i in rng.integers(0, 2, 17)])
    report = bm.sweep_k(e, [2], folds=4, seed=3)[0][1]
    assert report.mean == pytest.approx(float(np.mean(report.fold_accuracies)))
    # confusion row sums equal per-class test counts accumulated over folds
    totals = {label: e.labels.count(label) for label in e.vocab}
    for i, label in enumerate(e.vocab):
        assert report.confusion[i].sum() == totals[label]


def test_kfold_warns_when_class_missing_from_training():
    codes = np.arange(10.0).reshape(5, 2)
    e = bm.LabeledEmbedding(codes, ["a", "a", "b", "a", "a"])
    report = bm.sweep_k(e, [1], folds=5, seed=0)[0][1]
    assert any("absent" in w for w in report.warnings)
    assert len(report.fold_accuracies) == 5  # folds still scored


def test_sweep_single_k_reduces_to_kfold():
    # a one-k sweep is that k's k-fold CV: its entry of a sweep over several k
    rng = np.random.default_rng(9)
    e = bm.LabeledEmbedding(rng.normal(size=(12, 2)), [["a", "b"][i] for i in rng.integers(0, 2, 12)])
    sweep = bm.sweep_k(e, [1, 3, 5], folds=4, seed=4)
    assert [k for k, _ in sweep] == [1, 3, 5]
    for k, report in sweep:
        [(one_k, single)] = bm.sweep_k(e, [k], folds=4, seed=4)
        assert one_k == k
        assert single.fold_accuracies == report.fold_accuracies, k
        assert np.array_equal(single.confusion, report.confusion), k


def test_sweep_reuses_fold_split_across_k():
    rng = np.random.default_rng(10)
    codes = np.vstack([rng.normal(0, 0.05, size=(10, 2)), rng.normal(5, 0.05, size=(10, 2))])
    e = bm.LabeledEmbedding(codes, ["a"] * 10 + ["b"] * 10)
    sweep = bm.sweep_k(e, [1, 3, 5], folds=4, seed=5)
    # perfectly separated: every k gives identical per-fold results on the shared split
    assert all(report.mean == 1.0 for _, report in sweep)


def test_sweep_k_matches_single_k_sweeps():
    # small integer codes: distance ties at the k-th neighbor; 20 rows in 4
    # folds train on 15, so k = 15 votes over every training row
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 3, size=(20, 2)).astype(float)
    e = bm.LabeledEmbedding(codes, [["a", "b", "c"][i] for i in rng.integers(0, 3, size=20)])
    k_values = [4, 1, 2, 4, 15, 7]
    sweep = bm.sweep_k(e, k_values, folds=4, seed=13)
    assert [k for k, _ in sweep] == k_values
    slices = bm._fold_slices(e.n, 4, seed=13)
    for k, report in sweep:
        single = bm.sweep_k(e, [k], folds=4, seed=13)[0][1]
        assert report.fold_accuracies == single.fold_accuracies, k
        assert report.oof_predictions == single.oof_predictions, k
        assert np.array_equal(report.confusion, single.confusion), k
        assert report.warnings == single.warnings, k
        for test_idx in slices:  # each fold against knn_predict on its training rows
            train_idx = [i for i in range(e.n) if i not in set(test_idx)]
            train = bm.LabeledEmbedding(codes[train_idx], [e.labels[i] for i in train_idx],
                                        vocab=e.vocab)
            want = bm.knn_predict(train, codes[test_idx], k)
            assert [report.oof_predictions[i] for i in test_idx] == want, k


def test_k_above_a_splits_training_rows_is_refused_naming_k_and_rows():
    # 60 rows, 3 classes: 4 folds train on 45 rows, a half hold-out on 30
    e = bm.LabeledEmbedding(np.random.default_rng(0).normal(size=(60, 2)),
                            ["abc"[i % 3] for i in range(60)])
    with pytest.raises(DataError, match=r"a split of its 60 rows votes over 45 training rows, "
                                        r"fewer than k=500"):
        bm.sweep_k(e, [45, 500], folds=4, seed=0)
    with pytest.raises(DataError, match=r"votes over 45 training rows, fewer than k=46"):
        bm.sweep_k(e, [46], folds=4, seed=0)
    assert [k for k, _ in bm.sweep_k(e, [45], folds=4, seed=0)] == [45]
    with pytest.raises(DataError, match=r"a split of its 60 rows votes over 30 training rows, "
                                        r"fewer than k=500"):
        bm.holdout_accuracy(e, 500, 0.5, 0)
    with pytest.raises(DataError, match=r"votes over 30 training rows, fewer than k=31"):
        bm.holdout_accuracy(e, 31, 0.5, 0)
    assert 0.0 <= bm.holdout_accuracy(e, 30, 0.5, 0) <= 1.0


def test_train_rows_leave_out_the_largest_test_split():
    assert bm.train_rows(60, folds=4) == 45
    assert bm.train_rows(10, folds=4) == 7  # folds of 3, 3, 2 and 2 rows
    assert bm.train_rows(60, fraction=0.5) == 30
    assert bm.train_rows(10, fraction=0.25) == 8  # round(2.5) = 2 test rows
    with pytest.raises(DataError, match="3 rows cannot fill 4 folds"):
        bm.train_rows(3, folds=4)


def test_default_k_values_include_class_count():
    assert 4 in bm.default_k_values(4)
    assert 7 in bm.default_k_values(7)


def test_sweep_k_equals_train_size_collapses_to_prior():
    # balanced 2-class set; k = full training size makes every prediction the
    # training-split majority. Oracle: recount per fold by brute force.
    rng = np.random.default_rng(11)
    n = 16
    codes = rng.normal(size=(n, 2))
    labels = ["a", "b"] * (n // 2)
    e = bm.LabeledEmbedding(codes, labels)
    folds = 4
    k = n - n // folds  # training size per fold
    report = bm.sweep_k(e, [k], folds=folds, seed=6)[0][1]
    slices = bm._fold_slices(n, folds, seed=6)
    expected = []
    for test_idx in slices:
        train_labels = [labels[i] for i in range(n) if i not in set(test_idx)]
        counts = {lab: train_labels.count(lab) for lab in e.vocab}
        best = max(counts.values())
        majority = next(lab for lab in e.vocab if counts[lab] == best)
        test_labels = [labels[i] for i in test_idx]
        expected.append(test_labels.count(majority) / len(test_labels))
    assert report.fold_accuracies == pytest.approx(expected)


def test_holdout_single_split():
    rng = np.random.default_rng(12)
    codes = np.vstack([rng.normal(0, 0.05, size=(20, 2)), rng.normal(5, 0.05, size=(20, 2))])
    e = bm.LabeledEmbedding(codes, ["a"] * 20 + ["b"] * 20)
    assert bm.holdout_accuracy(e, k_neighbors=3, fraction=0.25, seed=0) == 1.0


# ---------------------------------------------------------------------------
# ARI
# ---------------------------------------------------------------------------

def test_ari_identical_labelings():
    assert bm.ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_ari_permutation_invariant():
    a = ["x", "x", "y", "y", "z"]
    b = [{"x": 2, "y": 0, "z": 7}[v] for v in a]
    assert bm.ari(a, b) == 1.0


def test_ari_hand_case_matches_pair_counting_oracle():
    a = [0, 0, 1, 1]
    b = [0, 0, 1, 2]
    assert bm.ari(a, b) == pytest.approx(pair_count_ari(a, b), abs=1e-12)


def test_ari_symmetric_and_matches_oracle_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        a = rng.integers(0, 4, size=n).tolist()
        b = rng.integers(0, 3, size=n).tolist()
        ours = bm.ari(a, b)
        assert ours == pytest.approx(pair_count_ari(a, b), abs=1e-12)
        assert ours == pytest.approx(bm.ari(b, a), abs=1e-12)
        assert -1.0 <= ours <= 1.0


def test_ari_degenerate_all_singletons():
    assert bm.ari([0, 1, 2], [5, 6, 7]) == 1.0  # same (discrete) partition


def test_ari_degenerate_single_cluster():
    assert bm.ari([1, 1, 1], [2, 2, 2]) == 1.0


def test_ari_degenerate_single_item():
    assert bm.ari([3], [8]) == 1.0  # no pairs at all


def test_ari_singletons_vs_one_cluster():
    # not the degenerate branch: max != expected; formula gives 0
    assert bm.ari([0, 1, 2], [0, 0, 0]) == 0.0


def test_ari_length_mismatch():
    with pytest.raises(DataError):
        bm.ari([0, 1], [0])
