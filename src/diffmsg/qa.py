"""Quality-assurance gate: predict diffs the generator will handle badly.

Human judges scored generated messages 0-7 against the reference; a diff
whose floor-median score is 0 or 1 is labeled "bad".  Diffs are featurized
as L2-normalized tf/idf over their tokens, and a linear SVM trained by
per-example SGD on the hinge loss separates bad from not-bad.  Evaluation
is 10-fold cross-validation plus a per-score reduction report.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from .bow import BagOfWords, Document, row_sums
from .corpus import (
    Checked,
    CorpusFormatError,
    Schema,
    TokenSequence,
    atomic_write,
    preprocess_source,
    read_json_object,
    read_jsonl,
    schema_problem,
)

QA_MODEL_FORMAT_VERSION = 1

BAD_SCORE_MAX = 1   # median score <= 1 is "bad"
GOOD_SCORE_MIN = 6  # median score >= 6 counts as "good" in the cost metric


def floor_median(scores: list[int] | tuple[int, ...]) -> int:
    """Median rounded down; for an even count, the floor of the mid mean."""
    ordered = sorted(scores)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) // 2


@dataclass(frozen=True)
class GoldRecord:
    """A scored diff from the human study."""

    diff: TokenSequence
    scores: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.scores) <= 3:
            raise ValueError(f"expected 1-3 scores, got {len(self.scores)}")
        for score in self.scores:
            if not 0 <= score <= 7:
                raise ValueError(f"scores must be in [0, 7], got {score}")

    @property
    def median_score(self) -> int:
        return floor_median(self.scores)

    @property
    def is_bad(self) -> bool:
        return self.median_score <= BAD_SCORE_MAX


def load_gold_jsonl(path: str | Path) -> list[GoldRecord]:
    """Read gold records ({"id", "diff", "scores"}) from a JSON-lines file.

    "diff" must be a string and "scores" a list of integers; a bad record
    is a CorpusFormatError naming the line and the key.  Diffs are
    tokenized with the same source pipeline the generator uses; bytes that
    are not UTF-8 decode to U+FFFD.
    """
    records: list[GoldRecord] = []
    for where, raw in read_jsonl(path, Schema({"diff": str, "scores": list[int]})):
        tokens = preprocess_source(raw["diff"])
        try:
            records.append(GoldRecord(diff=tokens, scores=tuple(raw["scores"])))
        except ValueError as exc:  # a score count or range
            raise CorpusFormatError(f"{where}: key 'scores': {exc}") from exc
    return records


def _idf(n_docs: int, doc_freq: np.ndarray) -> np.ndarray:
    """Smoothed idf, ln((1 + D) / (1 + df)) + 1 for each document frequency
    by math.log: positive even for a token in every document."""
    return np.array([math.log((1 + n_docs) / (1 + df)) + 1.0 for df in doc_freq.tolist()])


# L2-normalized tf/idf rows as CSR arrays: (indptr, features, values)
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _tfidf_rows(index: BagOfWords, feature: np.ndarray, idf: np.ndarray) -> Rows:
    """The L2-normalized tf/idf row of every document of index.

    feature maps a term id to its feature, or to -1 for a term outside the
    feature vocabulary, which contributes nothing.  Rows keep
    first-occurrence order, and each norm sums left to right in it.
    """
    mapped = feature[index.terms]
    known = mapped >= 0
    features = mapped[known]
    rows = index.rows[known]
    weighted = index.counts[known] * idf[features]
    indptr = np.searchsorted(rows, np.arange(index.n_docs + 1))
    norms = np.sqrt(row_sums(weighted * weighted, indptr))
    return indptr, features, weighted / norms[rows]


def _margins(weights: np.ndarray, bias: float, rows: Rows) -> np.ndarray:
    """w . x + b for each row, the dot product summed left to right."""
    indptr, features, values = rows
    return row_sums(weights[features] * values, indptr) + bias


@dataclass(frozen=True)
class QaHyper(Checked):
    l2_lambda: Annotated[float, "> 0"] = 1e-4
    epochs: Annotated[int, ">= 1"] = 20
    seed: int = 0


@dataclass
class QaModel:
    feature_vocab: dict[str, int]
    idf: np.ndarray
    weights: np.ndarray
    bias: float
    hyper: QaHyper = field(default_factory=QaHyper)


def _schedule(n: int, hyper: QaHyper) -> list[int]:
    """The position in the training list of each SGD step's example, which
    depends only on n and hyper: the order is reshuffled each epoch with
    the seeded RNG."""
    rng = random.Random(hyper.seed)
    order = list(range(n))
    positions: list[int] = []
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        positions += order
    return positions


def _fit(
    index: BagOfWords, train: list[int], labels: list[float], positions: list[int],
    l2_lambda: float,
) -> tuple[np.ndarray, np.ndarray, float, Rows]:
    """Hinge-loss SGD on the documents `train` of index, in that order.

    The features are the terms those documents hold, numbered in sorted
    order.  Returns (idf, weights, bias) and the tf/idf rows of every
    document of index under those features.

    Step t has eta = 1/(lambda * t), so it shrinks the weights by 1 - 1/t
    and the weights after step t are scaled/t (Pegasos' scaled-vector
    form).  Only a margin violation moves scaled, by (y/lambda) * x, and
    the bias, by y/(lambda * t).
    """
    if len({labels[d] for d in train}) < 2:
        raise ValueError("training requires both bad and not-bad records")
    in_train = np.zeros(index.n_docs, dtype=bool)
    in_train[train] = True
    doc_freq = np.bincount(index.terms[in_train[index.rows]], minlength=len(index.ids))
    present = doc_freq > 0
    feature = np.where(present, np.cumsum(present) - 1, -1)
    idf = _idf(len(train), doc_freq[present])
    rows = _tfidf_rows(index, feature, idf)
    indptr, features, row_values = rows
    examples = []
    for d in train:
        values = row_values[indptr[d] : indptr[d + 1]]
        examples.append((features[indptr[d] : indptr[d + 1]], values,
                         (labels[d] / l2_lambda) * values, labels[d]))

    scaled = np.zeros(len(idf))
    bias = 0.0
    for done, i in enumerate(positions):  # the weights are scaled / done, or 0
        indices, values, step, y = examples[i]
        if y * (values.dot(scaled[indices]) / (done or 1) + bias) < 1.0:
            scaled[indices] += step
            bias += y / (l2_lambda * (done + 1))
    return idf, scaled / len(positions), bias, rows


def train_svm(gold: list[GoldRecord], hyper: QaHyper = QaHyper()) -> QaModel:
    """Hinge-loss SGD on (lambda/2)||w||^2 + mean hinge, y = +1 for bad.

    Per-example step size 1/(lambda * t); the example order is reshuffled
    each epoch with the seeded RNG, so training is deterministic.  The bias
    is trained but not regularized.
    """
    index = BagOfWords([record.diff for record in gold])
    labels = [1.0 if record.is_bad else -1.0 for record in gold]
    positions = _schedule(len(gold), hyper)
    idf, weights, bias, _ = _fit(index, list(range(len(gold))), labels, positions, hyper.l2_lambda)
    return QaModel(index.ids, idf, weights, bias, hyper)


def predict(diff: Document, model: QaModel) -> tuple[bool, float]:
    """(is_bad, margin), the margin w . x + b of diff's tf/idf row; a
    margin of exactly zero resolves to not-bad.  The one scoring call.

    diff is a token sequence or its counts (see bow.Document); both give
    the same margin to the bit.
    """
    index = BagOfWords([diff])
    rows = _tfidf_rows(index, index.lookup(model.feature_vocab), model.idf)
    margin = float(_margins(model.weights, model.bias, rows)[0])
    return margin > 0.0, margin


@dataclass
class CrossValResult:
    predictions: list[bool]      # aligned with the input gold order
    margins: list[float]
    precision: float             # for the positive class "bad"
    recall: float
    fold_indices: list[list[int]]  # original indices held out per fold


def _precision_recall(records: list[GoldRecord], predictions: list[bool]) -> tuple[float, float]:
    tp = sum(1 for r, p in zip(records, predictions) if p and r.is_bad)
    fp = sum(1 for r, p in zip(records, predictions) if p and not r.is_bad)
    fn = sum(1 for r, p in zip(records, predictions) if not p and r.is_bad)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def cross_validate(
    gold: list[GoldRecord], k: int = 10, seed: int = 0, hyper: QaHyper = QaHyper()
) -> CrossValResult:
    """Shuffled k-fold cross-validation; every record predicted exactly once.

    Folds are contiguous slices of the shuffled order with sizes differing
    by at most one.  Each fold's model is the one train_svm fits on the
    other folds' records in shuffled order; the token counts and the SGD
    schedules are shared between folds.  Precision and recall treat "bad"
    as the positive class.
    """
    if len(gold) < k:
        raise ValueError(f"need at least k={k} records, got {len(gold)}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    order = list(range(len(gold)))
    random.Random(seed).shuffle(order)

    base, extra = divmod(len(gold), k)
    fold_sizes = [base + 1 if i < extra else base for i in range(k)]
    folds: list[list[int]] = []
    offset = 0
    for size in fold_sizes:
        folds.append(order[offset : offset + size])
        offset += size

    index = BagOfWords([record.diff for record in gold])
    labels = [1.0 if record.is_bad else -1.0 for record in gold]
    # by training-set size, of which the folds have at most two
    schedules = {n: _schedule(n, hyper) for n in {len(gold) - size for size in fold_sizes}}
    margins = np.zeros(len(gold))
    for held_out in folds:
        held_set = set(held_out)
        train = [i for i in order if i not in held_set]
        _, weights, bias, rows = _fit(index, train, labels, schedules[len(train)], hyper.l2_lambda)
        margins[held_out] = _margins(weights, bias, rows)[held_out]

    predictions = [margin > 0.0 for margin in margins.tolist()]
    precision, recall = _precision_recall(gold, predictions)
    return CrossValResult(
        predictions=predictions,
        margins=margins.tolist(),
        precision=precision,
        recall=recall,
        fold_indices=folds,
    )


@dataclass
class ReductionReport:
    """Fraction of messages the gate would remove, broken down by score."""

    removed_fraction_by_score: dict[int, float]
    count_by_score: Counter[int]
    removed_by_score: Counter[int]
    bad_reduction: float   # fraction of score <= 1 records predicted bad
    good_cost: float       # fraction of score >= 6 records predicted bad


def reduction_report(
    gold: list[GoldRecord], predictions: list[bool]
) -> ReductionReport:
    if len(gold) != len(predictions):
        raise ValueError("every gold record needs exactly one prediction")
    counts = Counter(record.median_score for record in gold)
    removed = Counter(record.median_score for record, bad in zip(gold, predictions) if bad)

    def share(scores) -> float:
        """The fraction of the records with these scores predicted bad; 0 for none."""
        total = sum(counts[score] for score in scores)
        return sum(removed[score] for score in scores) / total if total else 0.0

    return ReductionReport(
        removed_fraction_by_score={score: share([score]) for score in range(8)},
        count_by_score=counts,
        removed_by_score=removed,
        bad_reduction=share(range(BAD_SCORE_MAX + 1)),
        good_cost=share(range(GOOD_SCORE_MIN, 8)),
    )


def save_qa_model(model: QaModel, path: str | Path) -> None:
    payload = {
        "format_version": QA_MODEL_FORMAT_VERSION,
        "feature_vocab": model.feature_vocab,
        "idf": model.idf.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "hyper": asdict(model.hyper),
    }
    atomic_write(path, json.dumps(payload, sort_keys=True) + "\n")


class QaModelError(ValueError):
    """Unreadable or inconsistent QA model file."""


# every key of a saved QA model but "format_version"; "hyper" holds the
# fields of QaHyper
_MODEL_KEYS = Schema({"feature_vocab": dict[str, int], "idf": list[float],
                      "weights": list[float], "bias": float, "hyper": dict})


def load_qa_model(path: str | Path) -> QaModel:
    """Load a model written by save_qa_model.

    Checks the format version, every key and its type (see
    corpus.read_json_object), and that feature_vocab, idf and weights
    agree: one idf and one weight per feature, with the feature indices
    exactly 0..n-1.  Any mismatch is a QaModelError naming the file and key.
    """
    payload = read_json_object(Path(path).read_bytes(), _MODEL_KEYS, str(path), QaModelError,
                               QA_MODEL_FORMAT_VERSION)
    # checked here too: QaHyper's own check would not see a missing key
    hyper_keys = Schema.of(QaHyper)
    if (problem := schema_problem(payload["hyper"], hyper_keys, prefix="hyper.")) is not None:
        raise QaModelError(f"{path}: {problem}")
    vocab, idf, weights = payload["feature_vocab"], payload["idf"], payload["weights"]
    if not len(vocab) == len(idf) == len(weights):
        raise QaModelError(
            f"{path}: keys 'feature_vocab', 'idf' and 'weights' hold {len(vocab)}, {len(idf)} "
            f"and {len(weights)} entries, not one per feature"
        )
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise QaModelError(f"{path}: key 'feature_vocab' indices are not exactly 0..{len(vocab) - 1}")
    return QaModel(
        feature_vocab=vocab,
        idf=np.asarray(idf, dtype=np.float64),
        weights=np.asarray(weights, dtype=np.float64),
        bias=float(payload["bias"]),
        hyper=QaHyper(**{key: payload["hyper"][key] for key in hyper_keys}),
    )
