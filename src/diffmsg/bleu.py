"""Corpus-level BLEU: clipped modified n-gram precisions and brevity penalty.

Scores a whole test set at once (single reference per generated message),
reports the constituent precisions and lengths, supports the diff-length
bucket breakdown, and provides a nearest-neighbor retrieval baseline.
Scores are percentages in [0, 100].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bow import BagOfWords, row_sums
from .corpus import TokenSequence

Pair = tuple[TokenSequence, TokenSequence]  # (generated, reference)

MAX_ORDER = 4  # BLEU-4: precisions p_1..p_4
BUCKET_BOUNDARIES = (25, 50, 75)  # source lengths that bound the buckets


@dataclass(frozen=True)
class BleuReport:
    bleu: float                      # 0..100
    precisions: tuple[float, ...]    # p_1..p_4, percent
    len_gen: int                     # c: total generated length
    len_ref: int                     # r: total reference length
    brevity_penalty: float


def ngram_counts(tokens: TokenSequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_totals(n: int, pairs: list[Pair]) -> tuple[int, int]:
    """Sum clipped and raw n-gram counts over the whole corpus."""
    clipped = 0
    total = 0
    for generated, reference in pairs:
        gen_counts = ngram_counts(generated, n)
        ref_counts = ngram_counts(reference, n)
        for ngram, count in gen_counts.items():
            clipped += min(count, ref_counts[ngram])
            total += count
    return clipped, total


def brevity_penalty(c: int, r: int) -> float:
    """1 if c > r, exp(1 - r/c) otherwise; 0 in the empty-output limit."""
    if c < 0 or r < 0:
        raise ValueError("lengths must be non-negative")
    if c == 0:
        return 1.0 if r == 0 else 0.0
    if c > r:
        return 1.0
    return math.exp(1.0 - r / c)


def corpus_bleu(pairs: list[Pair]) -> BleuReport:
    """Corpus BLEU-4, combining p_1..p_4 with uniform log-space weights.

    Unsmoothed: any zero precision makes the score 0.
    """
    if not pairs:
        raise ValueError("corpus_bleu requires a non-empty list of pairs")
    precisions: list[float] = []
    for n in range(1, MAX_ORDER + 1):
        clipped, total = _clipped_totals(n, pairs)
        precisions.append(clipped / total if total else 0.0)
    c = sum(len(generated) for generated, _ in pairs)
    r = sum(len(reference) for _, reference in pairs)
    bp = brevity_penalty(c, r)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_sum = 0.0  # left to right: sum() compensates float sums from Python 3.12 on
        for p in precisions:
            log_sum += math.log(p)
        score = 100.0 * bp * math.exp(log_sum / MAX_ORDER)
    return BleuReport(
        bleu=score,
        precisions=tuple(100.0 * p for p in precisions),
        len_gen=c,
        len_ref=r,
        brevity_penalty=bp,
    )


@dataclass(frozen=True)
class BleuBucket:
    label: str
    count: int
    report: BleuReport | None  # None for an empty bucket


def bucketed_bleu(
    pairs_with_lengths: list[tuple[int, TokenSequence, TokenSequence]],
) -> list[BleuBucket]:
    """Split pairs by source length and score each bucket independently.

    Buckets are half-open above: (<= 25], (25, 50], (50, 75], (> 75); see
    BUCKET_BOUNDARIES.
    """
    bounds = BUCKET_BOUNDARIES
    labels = [f"<= {bounds[0]}", *(f"> {lo}, <= {hi}" for lo, hi in zip(bounds, bounds[1:])),
              f"> {bounds[-1]}"]
    groups: list[list[Pair]] = [[] for _ in labels]
    for length, generated, reference in pairs_with_lengths:
        index = sum(1 for b in bounds if length > b)
        groups[index].append((generated, reference))
    buckets = []
    for label, group in zip(labels, groups):
        report = corpus_bleu(group) if group else None
        buckets.append(BleuBucket(label=label, count=len(group), report=report))
    return buckets


def _top_k(
    train: BagOfWords, queries: list[TokenSequence], k: int
) -> list[list[tuple[int, float]]]:
    """For each query, the top-k training documents by cosine of unigram counts.

    The cosine is the exact integer dot product over q_norm * norm, and 0.0
    where either norm is zero; ties break toward the lower training index.
    Each query takes one vectorized pass over the index, so memory stays
    that of the index however many queries there are.
    """
    norms = np.sqrt(row_sums(train.counts * train.counts, train.indptr))
    bags = BagOfWords(queries)
    query_norms = np.sqrt(row_sums(bags.counts * bags.counts, bags.indptr))
    train_term = bags.lookup(train.ids)
    ranked = []
    for start, end, query_norm in zip(bags.indptr[:-1], bags.indptr[1:], query_norms):
        # one slot past the training vocabulary takes the unseen tokens (term -1)
        query = np.zeros(len(train.ids) + 1, dtype=np.int64)
        query[train_term[bags.terms[start:end]]] = bags.counts[start:end]
        dots = np.bincount(
            train.rows, weights=query[train.terms] * train.counts, minlength=train.n_docs
        )
        denominator = query_norm * norms
        scores = np.divide(dots, denominator, out=np.zeros(train.n_docs), where=denominator > 0.0)
        top = np.argsort(-scores, kind="stable")[:k]
        ranked.append([(int(i), float(scores[i])) for i in top])
    return ranked


def retrieval_baseline(
    train_pairs: list[Pair], test_sources: list[TokenSequence]
) -> list[TokenSequence]:
    """For each test source, copy the message of the most similar training diff
    (see _top_k; the lowest index wins a tie)."""
    if not train_pairs:
        raise ValueError("retrieval baseline requires a non-empty training set")
    train = BagOfWords([source for source, _ in train_pairs])
    return [list(train_pairs[hits[0][0]][1]) for hits in _top_k(train, test_sources, 1)]


def format_report_table(rows: list[tuple[str, BleuReport]]) -> str:
    """Fixed-width evaluation table: model, BLEU, lengths, p_1..p_4."""
    header = (
        f"{'Model':<16} {'BLEU':>7} {'Len_Gen':>8} {'Len_Ref':>8} "
        f"{'p_1':>6} {'p_2':>6} {'p_3':>6} {'p_4':>6}"
    )
    lines = [header]
    for name, report in rows:
        lines.append(
            f"{name:<16} {report.bleu:>7.2f} {report.len_gen:>8d} {report.len_ref:>8d} "
            + " ".join(f"{p:>6.1f}" for p in report.precisions)
        )
    return "\n".join(lines)
