"""Tests for corpus BLEU, buckets, and the retrieval baseline.

The reference oracle below recounts every n-gram with plain dict loops and
applies the closed-form combination directly; it shares no code with the
implementation under test.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.bleu import (
    BleuReport,
    brevity_penalty,
    bucketed_bleu,
    corpus_bleu,
    format_report_table,
    retrieval_baseline,
    _top_k,
)
from diffmsg.bow import BagOfWords


def oracle_bleu(pairs, max_order=4):
    """Independent BLEU recount: explicit enumeration, no shared helpers."""
    precisions = []
    for n in range(1, max_order + 1):
        numerator = 0
        denominator = 0
        for gen, ref in pairs:
            gen_grams = [tuple(gen[i : i + n]) for i in range(len(gen) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            for gram in set(gen_grams):
                cnt_gen = gen_grams.count(gram)
                cnt_ref = ref_grams.count(gram)
                numerator += min(cnt_gen, cnt_ref)
                denominator += cnt_gen
        precisions.append(numerator / denominator if denominator else 0.0)
    c = sum(len(g) for g, _ in pairs)
    r = sum(len(rf) for _, rf in pairs)
    if c == 0:
        bp = 1.0 if r == 0 else 0.0
    elif c > r:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r / c)
    if any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp, c, r
    score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_order)
    return score, precisions, bp, c, r


def random_corpus(rng, max_pairs=10, max_len=12, vocab=8):
    tokens = [f"t{i}" for i in range(vocab)]
    n_pairs = rng.randint(1, max_pairs)
    pairs = []
    for _ in range(n_pairs):
        gen = [rng.choice(tokens) for _ in range(rng.randint(0, max_len))]
        ref = [rng.choice(tokens) for _ in range(rng.randint(0, max_len))]
        pairs.append((gen, ref))
    return pairs


class TestModifiedPrecision:
    """The clipped n-gram precisions corpus_bleu reports, in percent."""

    def test_identity_pairs(self):
        pairs = [(list("abcd"), list("abcd")), (list("xyzt"), list("xyzt"))]
        for n in range(1, 5):
            assert corpus_bleu(pairs).precisions[n - 1] == 100.0

    def test_clipping(self):
        # "a a a" against "a": only one of the three unigrams is credited
        report = corpus_bleu([(["a", "a", "a"], ["a"])])
        assert report.precisions[0] == pytest.approx(100 / 3)

    def test_generated_shorter_than_n(self):
        assert corpus_bleu([(["a", "b"], ["a", "b", "c"])]).precisions[2] == 0.0


class TestBrevityPenalty:
    def test_equal_lengths(self):
        assert brevity_penalty(10, 10) == 1.0

    def test_short_generation(self):
        assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1))

    def test_long_generation(self):
        assert brevity_penalty(11, 10) == 1.0

    def test_empty_generation(self):
        assert brevity_penalty(0, 10) == 0.0
        assert brevity_penalty(0, 0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            brevity_penalty(-1, 3)


class TestCorpusBleu:
    def test_identity_is_100(self):
        pairs = [(list("abcde"), list("abcde")), (list("wxyz"), list("wxyz"))]
        assert corpus_bleu(pairs).bleu == 100.0

    def test_zero_precision_unsmoothed(self):
        pairs = [(["a", "b", "c", "d"], ["e", "f", "g", "h"])]
        report = corpus_bleu(pairs)
        assert report.bleu == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([])

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(20240811)
        for _ in range(50):
            pairs = random_corpus(rng)
            report = corpus_bleu(pairs)
            expected, precisions, bp, c, r = oracle_bleu(pairs)
            assert report.bleu == pytest.approx(expected, abs=1e-9)
            assert report.brevity_penalty == pytest.approx(bp, abs=1e-12)
            assert report.len_gen == c and report.len_ref == r
            for got, want in zip(report.precisions, precisions):
                assert got == pytest.approx(100.0 * want, abs=1e-9)

    def test_report_internally_consistent(self):
        rng = random.Random(7)
        pairs = random_corpus(rng)
        report = corpus_bleu(pairs)
        c, r = report.len_gen, report.len_ref
        if c == 0:
            expected_bp = 1.0 if r == 0 else 0.0
        else:
            expected_bp = 1.0 if c > r else math.exp(1 - r / c)
        assert report.brevity_penalty == pytest.approx(expected_bp)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, data):
        seed = data.draw(st.integers(0, 10**6))
        pairs = random_corpus(random.Random(seed))
        shuffled = list(pairs)
        random.Random(seed + 1).shuffle(shuffled)
        assert corpus_bleu(pairs) == corpus_bleu(shuffled)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_duplication_invariance(self, seed):
        pairs = random_corpus(random.Random(seed))
        single = corpus_bleu(pairs)
        doubled = corpus_bleu(pairs + pairs)
        assert doubled.bleu == pytest.approx(single.bleu, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_precisions_bounded(self, seed):
        pairs = random_corpus(random.Random(seed))
        report = corpus_bleu(pairs)
        for p in report.precisions:
            assert 0.0 <= p <= 100.0
        assert 0.0 <= report.bleu <= 100.0


    def test_log_precisions_sum_left_to_right(self):
        # the four log precisions sum to -5.300101488341538 left to right and
        # to -5.3001014883415385 correctly rounded; the score must not depend
        # on whether the Python version compensates float sums
        pairs = [("abdbbabb", "bbbbdcb"), ("daacddcab", "bddcacbd")]
        report = corpus_bleu([(list(gen), list(ref)) for gen, ref in pairs])
        assert report.bleu == 26.579621519910678


class TestBucketedBleu:
    def _pair(self, length):
        return (length, ["a", "b", "c", "d"], ["a", "b", "c", "d"])

    def test_boundary_25_in_first_bucket(self):
        buckets = bucketed_bleu([self._pair(25)])
        assert buckets[0].count == 1
        assert buckets[0].label == "<= 25"
        assert all(b.count == 0 for b in buckets[1:])

    def test_single_bucket_equals_global(self):
        pairs = [self._pair(30), (30, ["x", "y", "z", "w"], ["x", "y", "q", "w"])]
        buckets = bucketed_bleu(pairs)
        whole = corpus_bleu([(g, r) for _, g, r in pairs])
        assert buckets[1].count == 2
        assert buckets[1].report == whole
        assert buckets[0].report is None and buckets[2].report is None

    def test_one_pair_per_bucket(self):
        buckets = bucketed_bleu([self._pair(n) for n in (10, 30, 60, 90)])
        assert [b.count for b in buckets] == [1, 1, 1, 1]

    def test_counts_sum_to_corpus_size(self):
        rng = random.Random(3)
        pairs = [(rng.randint(0, 120), ["a"], ["a"]) for _ in range(57)]
        buckets = bucketed_bleu(pairs)
        assert sum(b.count for b in buckets) == 57


class TestRetrievalBaseline:
    TRAIN = [
        (["alpha", "beta", "gamma"], ["msg", "one"]),
        (["delta", "delta", "eps"], ["msg", "two"]),
        (["zeta", "eta"], ["msg", "three"]),
    ]

    def test_self_retrieval(self):
        out = retrieval_baseline(self.TRAIN, [["delta", "delta", "eps"]])
        assert out == [["msg", "two"]]

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            retrieval_baseline([], [["a"]])

    def test_orthogonal_source_falls_back_to_first(self):
        out = retrieval_baseline(self.TRAIN, [["nothing", "shared"]])
        assert out == [["msg", "one"]]

    def test_nearest_neighbors_ordering(self):
        neighbors = nearest_neighbors([s for s, _ in self.TRAIN], ["alpha", "beta"], k=3)
        assert neighbors[0][0] == 0
        assert neighbors[0][1] > neighbors[1][1]


def nearest_neighbors(train_sources, source, k):
    """_top_k for one query: its k best (training index, cosine) pairs."""
    return _top_k(BagOfWords(train_sources), [source], k)[0]


def brute_force_neighbors(train_sources, source, k):
    """Cosine of unigram counts against every training diff, recounted with
    Counters: the exact integer dot product over the product of the norms,
    0.0 when either norm is zero; ties go to the lower index."""
    query = Counter(source)
    query_norm = math.sqrt(sum(c * c for c in query.values()))
    scored = []
    for index, tokens in enumerate(train_sources):
        counts = Counter(tokens)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        dot = sum(c * counts[token] for token, c in query.items())
        scored.append((index, dot / (query_norm * norm) if query_norm and norm else 0.0))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


# a small alphabet makes repeated diffs and tied scores common; "unseen"
# tokens appear only in queries
_train_diff = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)
_query_diff = st.lists(st.sampled_from(["a", "b", "c", "d", "unseen", "also_unseen"]), max_size=6)


class TestNeighborsAgainstBruteForce:
    @given(st.lists(_train_diff, min_size=1, max_size=12), _query_diff, st.integers(1, 14))
    @settings(max_examples=300, deadline=None)
    def test_nearest_neighbors_equals_recount(self, train_sources, source, k):
        assert nearest_neighbors(train_sources, source, k) == brute_force_neighbors(train_sources, source, k)

    @given(st.lists(_train_diff, min_size=1, max_size=12), st.lists(_query_diff, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_retrieval_copies_the_first_recounted_neighbor(self, train_sources, test_sources):
        train_pairs = [(source, [f"msg{i}"]) for i, source in enumerate(train_sources)]
        expected = [[f"msg{brute_force_neighbors(train_sources, s, 1)[0][0]}"] for s in test_sources]
        assert retrieval_baseline(train_pairs, test_sources) == expected


class TestReportTable:
    def test_layout_and_values(self):
        report = BleuReport(
            bleu=31.92,
            precisions=(38.1, 31.1, 29.5, 29.7),
            len_gen=24344,
            len_ref=22872,
            brevity_penalty=1.0,
        )
        table = format_report_table([("ensemble", report)])
        lines = table.splitlines()
        assert lines[0].split() == ["Model", "BLEU", "Len_Gen", "Len_Ref", "p_1", "p_2", "p_3", "p_4"]
        assert lines[1].split() == [
            "ensemble", "31.92", "24344", "22872", "38.1", "31.1", "29.5", "29.7",
        ]
