"""Tests for the bag-of-words index and its left-to-right row sums."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.bow import BagOfWords, row_sums


def loop_row_sums(values, indptr):
    """The plain loop row_sums must match: each row from 0.0, left to right."""
    sums = []
    for start, end in zip(indptr[:-1], indptr[1:]):
        total = 0.0
        for value in values[start:end]:
            total += value
        sums.append(total)
    return sums


class TestBagOfWords:
    def test_layout(self):
        index = BagOfWords([["b", "a", "b"], [], ["c", "a"]])
        assert index.ids == {"a": 0, "b": 1, "c": 2}
        assert index.n_docs == 3
        assert index.indptr.tolist() == [0, 2, 2, 4]
        # terms in first-occurrence order within each document
        assert index.terms.tolist() == [1, 0, 2, 0]
        assert index.counts.tolist() == [2, 1, 1, 1]
        assert index.rows.tolist() == [0, 0, 2, 2]

    def test_no_documents(self):
        index = BagOfWords([])
        assert index.ids == {} and index.n_docs == 0
        assert index.terms.tolist() == [] and index.rows.tolist() == []

    def test_lookup_marks_absent_tokens(self):
        index = BagOfWords([["x", "y"], ["z"]])
        assert index.lookup({"z": 7, "x": 3}).tolist() == [3, -1, 7]


class TestRowSums:
    @given(
        st.lists(
            st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=12),  # no overflow
            max_size=8,
        )
    )
    @settings(max_examples=300)
    def test_equals_the_left_to_right_loop(self, rows):
        values = np.array([v for row in rows for v in row], dtype=np.float64)
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int64)
        got = row_sums(values, indptr).tolist()
        want = loop_row_sums(values.tolist(), indptr.tolist())
        # compared as bit patterns, so -0.0 and 0.0 differ
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]

    def test_order_matters_and_is_kept(self):
        # 1e16 + 1 + 1 rounds each 1 away; 1 + 1 + 1e16 keeps them
        values = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1e16])
        sums = row_sums(values, np.array([0, 3, 6]))
        assert sums.tolist() == [1e16, 1e16 + 2.0]

    def test_integer_rows(self):
        assert row_sums(np.array([3, 4, 5]), np.array([0, 2, 2, 3])).tolist() == [7, 0, 5]
