"""Latent-quality evaluation: kNN classification under k-fold cross
validation, plus accuracy, confusion matrices, and the adjusted Rand index.

Tie rules are fixed so every result is deterministic: distance ties resolve
toward the smaller training index, majority-vote ties toward the earlier
label in the vocabulary, and fold assignment comes from one seeded shuffle
split into contiguous near-equal chunks. Cross-validation folds and the
hold-out split share one rule: train on every row outside the test rows, in
index order, and predict the test rows. A k above the training rows of a
split (``train_rows``) is refused by ``check_k``, never capped.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

KNN_BLOCK_ENTRIES = 1 << 20  # [query, training row, dim] differences knn_predict holds at once


@dataclass
class LabeledEmbedding:
    codes: np.ndarray
    labels: list
    vocab: list = None

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        self.labels = list(self.labels)
        if self.codes.ndim != 2 or self.codes.shape[0] != len(self.labels):
            raise DataError("codes/labels size mismatch")
        if self.vocab is None:
            self.vocab = sorted(set(self.labels))
        else:
            self.vocab = list(self.vocab)
        missing = set(self.labels) - set(self.vocab)
        if missing:
            raise DataError(f"labels outside vocabulary: {sorted(missing)[:5]}")

    @property
    def n(self):
        return len(self.labels)


@dataclass
class CvReport:
    fold_accuracies: list
    mean: float
    std: float
    confusion: np.ndarray
    warnings: list = field(default_factory=list)
    oof_predictions: list = field(default_factory=list)  # out-of-fold label per index


def accuracy(y, y_hat) -> float:
    """Fraction of exact matches: (1/n) * sum of [y_hat_i == y_i]."""
    y = list(y)
    y_hat = list(y_hat)
    if len(y) != len(y_hat):
        raise DataError(f"length mismatch: {len(y)} vs {len(y_hat)}")
    if not y:
        raise DataError("empty input")
    return sum(1 for a, b in zip(y, y_hat) if a == b) / len(y)


def confusion_matrix(y, y_hat, vocab) -> np.ndarray:
    """Counts[i, j] = number of true class vocab[i] predicted as vocab[j]."""
    index = {label: i for i, label in enumerate(vocab)}
    out = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    for a, b in zip(y, y_hat):
        if a not in index or b not in index:
            raise DataError(f"label outside vocabulary: {a!r} or {b!r}")
        out[index[a], index[b]] += 1
    return out


def knn_predict(train: LabeledEmbedding, queries, k: int) -> list:
    """Majority label among the k nearest training rows (euclidean).

    dist(x, y) = sqrt(sum_i (x_i - y_i)^2); distance ties prefer the smaller
    training index, vote ties the earlier vocabulary label. Queries are ranked
    in blocks whose differences to the training rows fit ``KNN_BLOCK_ENTRIES``.
    """
    _check_k(k)
    if k > train.n:
        raise DataError(f"k={k} exceeds training size {train.n}")
    return _vote(train, _nearest(train, np.asarray(queries, dtype=np.float64), k))


def _check_k(k):
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")


def check_k(k, n, rows):
    """Refuse a k below 1, or above the ``rows`` training rows a split of ``n`` rows votes over."""
    _check_k(k)
    if k > rows:
        raise DataError(f"a split of its {n} rows votes over {rows} training rows, "
                        f"fewer than k={k}")


def _nearest(train: LabeledEmbedding, queries, k):
    """[query, k] training rows by distance, ties toward the smaller index.

    The ranking is a stable argsort, so the first j columns of a k ranking
    are the j ranking for every j <= k.
    """
    step = max(1, KNN_BLOCK_ENTRIES // max(1, train.codes.size))
    nearest = np.empty((len(queries), k), dtype=np.intp)
    for a in range(0, len(queries), step):
        d2 = ((queries[a:a + step, None, :] - train.codes[None, :, :]) ** 2).sum(axis=2)
        nearest[a:a + step] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nearest


def _vote(train: LabeledEmbedding, nearest):
    """Majority label of each row of ``nearest``; ties go to the earlier vocabulary label."""
    vocab_index = {label: i for i, label in enumerate(train.vocab)}
    votes = np.array([vocab_index[label] for label in train.labels])[nearest]
    v = len(train.vocab)
    counts = np.bincount((np.arange(len(votes))[:, None] * v + votes).ravel(),
                         minlength=len(votes) * v).reshape(-1, v)
    return [train.vocab[i] for i in counts.argmax(axis=1)]  # argmax takes the first max


def check_folds(n, folds):
    """Refuse a fold count below 2 or above the row count ``n``."""
    if folds < 2:
        raise DataError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise DataError(f"{n} rows cannot fill {folds} folds")


def _fold_slices(n, folds, seed):
    check_folds(n, folds)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, folds)]


def _train_split(e: LabeledEmbedding, test_idx) -> LabeledEmbedding:
    """Every row of ``e`` outside ``test_idx``, in index order."""
    train_idx = np.setdiff1d(np.arange(e.n), test_idx)
    return LabeledEmbedding(e.codes[train_idx], [e.labels[i] for i in train_idx], vocab=e.vocab)


def sweep_k(e: LabeledEmbedding, k_values, folds: int, seed: int) -> list:
    """(k, k-fold CV report) per k, on the one fold split the seed gives.

    The seeded shuffle splits the rows into ``folds`` near-equal groups, and
    each group is tested once. Each fold ranks its distances once, at the
    largest k, and each k votes on a prefix of that ranking. A k above the
    training rows of the smallest fold's split is refused before any fold is
    ranked. A class absent from some training split is recorded as a warning
    and the fold is still scored. The confusion matrix counts the
    out-of-fold predictions.
    """
    k_values = list(k_values)
    if not k_values:
        raise DataError("empty k list")
    rows = train_rows(e.n, folds=folds)
    for k in k_values:
        check_k(k, e.n, rows)
    warnings = []
    runs = [([], [None] * e.n) for _ in k_values]  # per k: fold accuracies, out-of-fold labels
    for f, test_idx in enumerate(_fold_slices(e.n, folds, seed)):
        y_true = [e.labels[i] for i in test_idx]
        absent = sorted(lab for lab in e.vocab if e.labels.count(lab) == y_true.count(lab))
        if absent:
            warnings.append(f"fold {f}: classes absent from training split: {absent}")
        train = _train_split(e, test_idx)
        nearest = _nearest(train, e.codes[test_idx], max(k_values))
        for k, (accs, oof) in zip(k_values, runs):
            y_hat = _vote(train, nearest[:, :k])
            for i, pred in zip(test_idx, y_hat):
                oof[i] = pred
            accs.append(accuracy(y_true, y_hat))
    return [(k, CvReport(fold_accuracies=accs, mean=float(np.mean(accs)),
                         std=float(np.std(accs)),
                         confusion=confusion_matrix(e.labels, oof, e.vocab),
                         warnings=list(warnings), oof_predictions=oof))
            for k, (accs, oof) in zip(k_values, runs)]


def default_k_values(n_classes: int) -> list:
    """Small sweep around the class count (the usual accuracy peak)."""
    ks = sorted({1, 3, 5, n_classes, 2 * n_classes + 1})
    return [k for k in ks if k >= 1]


def holdout_size(n, fraction) -> int:
    """Test rows of a hold-out split of ``n`` rows; refuses one without a training row."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"holdout fraction must be in (0, 1), got {fraction}")
    n_test = max(1, int(round(n * fraction)))
    if n_test >= n:
        raise DataError(f"holdout fraction {fraction} of {n} rows leaves no training row")
    return n_test


def train_rows(n, folds=None, fraction=None) -> int:
    """The training rows of the smallest split of ``n`` rows that a k votes over.

    Given ``fraction``, the hold-out split's: n less ``holdout_size``. Else
    the ``folds``-fold split's, which holds out its largest fold, ceil(n /
    folds) rows.
    """
    if fraction is not None:
        return n - holdout_size(n, fraction)
    check_folds(n, folds)
    return n - math.ceil(n / folds)


def holdout_accuracy(e: LabeledEmbedding, k_neighbors: int, fraction: float,
                     seed: int) -> float:
    """Single split: train on (1-fraction), test on fraction."""
    check_k(k_neighbors, e.n, train_rows(e.n, fraction=fraction))
    order = np.random.default_rng(seed).permutation(e.n)
    test_idx = np.sort(order[:holdout_size(e.n, fraction)])
    train = _train_split(e, test_idx)
    y_hat = knn_predict(train, e.codes[test_idx], k_neighbors)
    return accuracy([e.labels[i] for i in test_idx], y_hat)


def ari(a, b) -> float:
    """Adjusted Rand index via the pair-counting contingency formula.

    The maximum index equals the expected index only when both partitions
    are all singletons or both are one cluster (n = 1 is both). The two
    partitions are then the same, and the index is 1.0.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise DataError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise DataError("empty labelings")
    contingency = {}
    counts_a, counts_b = {}, {}
    for x, y in zip(a, b):
        contingency[(x, y)] = contingency.get((x, y), 0) + 1
        counts_a[x] = counts_a.get(x, 0) + 1
        counts_b[y] = counts_b.get(y, 0) + 1
    index = sum(math.comb(c, 2) for c in contingency.values())
    sum_a = sum(math.comb(c, 2) for c in counts_a.values())
    sum_b = sum(math.comb(c, 2) for c in counts_b.values())
    total_pairs = math.comb(n, 2)
    if sum_a == sum_b and sum_a in (0, total_pairs):
        return 1.0
    expected = sum_a * sum_b / total_pairs
    max_index = (sum_a + sum_b) / 2.0
    return (index - expected) / (max_index - expected)
