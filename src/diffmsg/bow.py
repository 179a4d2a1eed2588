"""Bag-of-words index: the token counts of a list of documents as CSR arrays.

The vocabulary is the sorted set of the documents' tokens, and a term id is
a position in it.  Row d of the arrays holds document d's distinct terms in
the order they first occur, with their counts, so a sum over a row adds in
first-occurrence order.  The QA gate's tf/idf features and the retrieval
baseline's cosine ranking both read this one structure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

import numpy as np

from .corpus import TokenSequence

# A document is its tokens, or their counts in first-occurrence order (as
# corpus.source_counts gives them): Counter(doc) is the same for both.
Document = TokenSequence | Mapping[str, int]


class BagOfWords:
    """Token counts of `docs`, built once.

    ids maps each token to its term id, in sorted token order.  Entries
    indptr[d]:indptr[d + 1] of terms and counts belong to document d, and
    rows gives each entry's document.
    """

    def __init__(self, docs: list[Document]) -> None:
        tokens: list[str] = []
        counts: list[int] = []
        lengths = np.zeros(len(docs), dtype=np.int64)
        for d, doc in enumerate(docs):
            bag = Counter(doc)  # a Counter keeps first-occurrence order
            tokens += bag
            counts += bag.values()
            lengths[d] = len(bag)
        self.ids: dict[str, int] = {token: i for i, token in enumerate(sorted(set(tokens)))}
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        self.terms = np.fromiter(map(self.ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        self.counts = np.array(counts, dtype=np.int64)
        self.rows = np.repeat(np.arange(len(docs)), lengths)

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    def lookup(self, ids: dict[str, int]) -> np.ndarray:
        """For each term id, the token's index in `ids`, or -1 if it has none."""
        return np.fromiter((ids.get(t, -1) for t in self.ids), dtype=np.int64, count=len(self.ids))


def row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum each CSR row of values, adding left to right from zero.

    numpy's own reductions add floats pairwise, and Python's sum() adds
    them with compensation from 3.12 on; this order is the plain loop's on
    every version, so float results do not depend on either.
    """
    lengths = np.diff(indptr)
    width = int(lengths.max(initial=0))
    # table row d is CSR row d after a leading zero, where its sum starts; a
    # boolean mask assigns in row-major order, which is the CSR order, and
    # the zeros after a row's end add nothing (a sum started at +0.0 is
    # never -0.0)
    table = np.zeros((len(lengths), width + 1), dtype=values.dtype)
    table[:, 1:][np.arange(width) < lengths[:, None]] = values
    return np.add.accumulate(table, axis=1, out=table)[:, -1]
