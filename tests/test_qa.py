"""Tests for the quality-assurance classifier."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffmsg.bow import BagOfWords
from diffmsg.corpus import CorpusFormatError, preprocess_source, source_counts
from diffmsg.qa import (
    GoldRecord,
    QaHyper,
    QaModel,
    QaModelError,
    cross_validate,
    floor_median,
    load_gold_jsonl,
    load_qa_model,
    predict,
    reduction_report,
    _tfidf_rows,
    save_qa_model,
    train_svm,
)

MARKERS = ["deadlock", "refit", "qqq", "zork", "blorp"]


def separable_gold(n=60, seed=0):
    """Bad records carry one of the marker tokens; good ones never do."""
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(30)]
    records = []
    for i in range(n):
        diff = [rng.choice(vocab) for _ in range(rng.randint(3, 10))]
        if i % 2 == 0:
            diff.insert(rng.randrange(len(diff) + 1), rng.choice(MARKERS))
            scores = (rng.randint(0, 1),)
        else:
            scores = (rng.randint(2, 7),)
        records.append(GoldRecord(diff=diff, scores=scores))
    return records


def tfidf(diff, feature_vocab, idf):
    """L2-normalized tf/idf mapping {feature: value} of one diff, as the
    gate featurizes it; unknown tokens contribute nothing."""
    index = BagOfWords([diff])
    _, features, values = _tfidf_rows(index, index.lookup(feature_vocab), idf)
    return dict(zip(features.tolist(), values.tolist()))


def fitted_idf(diffs):
    """The feature vocabulary and idf that train_svm fits on diffs (two or
    more), labelled bad and not bad in turn."""
    gold = [GoldRecord(diff=diff, scores=(7 * (i % 2),)) for i, diff in enumerate(diffs)]
    model = train_svm(gold, QaHyper(epochs=1))
    return model.feature_vocab, model.idf


def recounted_idf(diffs):
    """Every token, numbered in sorted order, and its smoothed idf
    ln((1 + D) / (1 + df)) + 1, recounted document by document."""
    vocab = {token: i for i, token in enumerate(sorted({t for diff in diffs for t in diff}))}
    idf = [math.log((1 + len(diffs)) / (1 + sum(token in diff for diff in diffs))) + 1.0
           for token in vocab]
    return vocab, np.array(idf)


def oracle_train_svm(gold, hyper):
    """The SGD loop that the scaled-vector form replaced: every step shrinks
    the whole weight vector by 1 - eta * lambda, eta = 1/(lambda * t)."""
    vocab, idf = recounted_idf([record.diff for record in gold])
    examples = []
    for record in gold:
        row = tfidf(record.diff, vocab, idf)
        examples.append((np.array(list(row), dtype=np.intp), np.array(list(row.values())),
                         1.0 if record.is_bad else -1.0))
    rng = random.Random(hyper.seed)
    order = list(range(len(gold)))
    weights = np.zeros(len(idf))
    bias = 0.0
    t = 0
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        for i in order:
            t += 1
            eta = 1.0 / (hyper.l2_lambda * t)
            indices, values, y = examples[i]
            margin = y * (weights[indices] @ values + bias)
            weights *= 1.0 - eta * hyper.l2_lambda
            if margin < 1.0:
                weights[indices] += eta * y * values
                bias += eta * y
    return QaModel(vocab, idf, weights, bias, hyper)


class TestMedianAndLabels:
    @pytest.mark.parametrize(
        "scores,expected",
        [((1, 2), 1), ((2,), 2), ((0, 7, 7), 7), ((3, 4), 3), ((5, 5, 5), 5), ((0, 1), 0)],
    )
    def test_floor_median(self, scores, expected):
        assert floor_median(scores) == expected

    def test_bad_label_boundary(self):
        assert GoldRecord(diff=["x"], scores=(1,)).is_bad
        assert not GoldRecord(diff=["x"], scores=(2,)).is_bad

    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            GoldRecord(diff=["x"], scores=(8,))
        with pytest.raises(ValueError):
            GoldRecord(diff=["x"], scores=())


class TestIdf:
    def test_token_in_every_document(self):
        diffs = [["common", f"x{i}"] for i in range(10)]
        vocab, idf = fitted_idf(diffs)
        assert idf[vocab["common"]] == pytest.approx(1.0)

    def test_token_in_one_of_ten(self):
        diffs = [["common", "rare"]] + [["common"] for _ in range(9)]
        vocab, idf = fitted_idf(diffs)
        assert idf[vocab["rare"]] == pytest.approx(math.log(11 / 2) + 1, abs=1e-12)
        assert idf[vocab["rare"]] == pytest.approx(2.7047480922384253)

    def test_sorted_features_and_idf_equal_the_recount(self):
        diffs = [["b", "a", "b"], ["c"], ["a", "d", "c"], []]
        vocab, idf = fitted_idf(diffs)
        expected_vocab, expected_idf = recounted_idf(diffs)
        assert vocab == expected_vocab
        np.testing.assert_array_equal(idf, expected_idf)


class TestTfidf:
    def test_single_known_token_is_unit(self):
        vocab, idf = fitted_idf([["a", "b"], ["b"]])
        features = tfidf(["a"], vocab, idf)
        assert features == {vocab["a"]: pytest.approx(1.0)}

    def test_empty_diff(self):
        vocab, idf = fitted_idf([["a"], ["b"]])
        assert tfidf([], vocab, idf) == {}

    def test_unknown_tokens_ignored(self):
        vocab, idf = fitted_idf([["a"], ["b"]])
        assert tfidf(["mystery"], vocab, idf) == {}

    def test_equal_counts_equal_idf_split(self):
        vocab, idf = fitted_idf([["a", "b"], ["a", "b"]])
        features = tfidf(["a", "b"], vocab, idf)
        assert features[vocab["a"]] == pytest.approx(1 / math.sqrt(2))
        assert features[vocab["b"]] == pytest.approx(1 / math.sqrt(2))

    def test_l2_norm_one_when_any_token_known(self):
        vocab, idf = fitted_idf([["a", "b", "c"], ["b"]])
        features = tfidf(["a", "b", "b", "zzz"], vocab, idf)
        norm = math.sqrt(sum(v * v for v in features.values()))
        assert norm == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 5))
    @settings(max_examples=30)
    def test_count_scaling_invariance(self, factor):
        vocab, idf = fitted_idf([["a", "b"], ["b", "c"]])
        base = tfidf(["a", "b", "b"], vocab, idf)
        scaled = tfidf(["a", "b", "b"] * factor, vocab, idf)
        assert set(base) == set(scaled)
        for index in base:
            assert scaled[index] == pytest.approx(base[index], abs=1e-12)


class TestTrainSvm:
    def test_separable_training_accuracy(self):
        gold = separable_gold()
        model = train_svm(gold)
        for record in gold:
            is_bad, _ = predict(record.diff, model)
            assert is_bad == record.is_bad

    def test_deterministic(self):
        gold = separable_gold()
        a = train_svm(gold, QaHyper(seed=5))
        b = train_svm(gold, QaHyper(seed=5))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    @pytest.mark.parametrize("overrides, message", [
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"l2_lambda": 0.0}, "l2_lambda must be > 0, got 0.0"),
    ], ids=["no_epochs", "no_regularization"])
    def test_untrainable_hyperparameters_rejected(self, overrides, message):
        # with no epochs the model was all zeros and never flagged a diff;
        # such a QaHyper refuses to be built, so neither function gets one
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_svm(separable_gold(), QaHyper(**overrides))
        with pytest.raises(ValueError, match=f"^{message}$"):
            cross_validate(separable_gold(), k=5, hyper=QaHyper(**overrides))

    def test_single_class_rejected(self):
        gold = [GoldRecord(diff=["x"], scores=(0,)) for _ in range(5)]
        with pytest.raises(ValueError, match="both"):
            train_svm(gold)


class TestPredict:
    def test_zero_model_predicts_not_bad(self):
        vocab, idf = fitted_idf([["a"], ["b"]])
        model = QaModel(vocab, idf, np.zeros(len(vocab)), 0.0)
        is_bad, margin = predict(["a"], model)
        assert not is_bad
        assert margin == 0.0

    def test_marker_feature_triggers_bad(self):
        vocab, idf = fitted_idf([["marker"], ["clean"]])
        weights = np.zeros(len(vocab))
        weights[vocab["marker"]] = 2.0
        model = QaModel(vocab, idf, weights, -0.5)
        assert predict(["marker"], model)[0]
        assert not predict(["clean"], model)[0]

    def test_empty_diff_with_positive_bias(self):
        vocab, idf = fitted_idf([["a"], ["b"]])
        model = QaModel(vocab, idf, np.zeros(len(vocab)), 0.25)
        is_bad, margin = predict([], model)
        assert is_bad
        assert margin == 0.25


class TestCrossValidate:
    def test_every_record_predicted_once_leave_one_out_style(self):
        gold = separable_gold(n=12)
        result = cross_validate(gold, k=12, seed=1)
        assert len(result.predictions) == 12
        sizes = [len(fold) for fold in result.fold_indices]
        assert sum(sizes) == 12
        assert max(sizes) - min(sizes) <= 1

    def test_separable_gold_perfect_scores(self):
        # enough records for the 1/(lambda*t) schedule to settle; with tiny
        # gold sets the late SGD steps are still large and folds get noisy
        gold = separable_gold(n=200)
        result = cross_validate(gold, k=10, seed=3)
        assert result.precision == 1.0
        assert result.recall == 1.0

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(separable_gold(n=6), k=10)

    def test_matches_confusion_recount(self):
        gold = separable_gold(n=40, seed=9)
        result = cross_validate(gold, k=5, seed=2)
        tp = fp = fn = 0
        for record, predicted in zip(gold, result.predictions):
            if predicted and record.is_bad:
                tp += 1
            elif predicted and not record.is_bad:
                fp += 1
            elif not predicted and record.is_bad:
                fn += 1
        assert result.precision == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert result.recall == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)

    @given(st.integers(0, 1000), st.integers(10, 60))
    @settings(max_examples=20, deadline=None)
    def test_fold_partition_properties(self, seed, n):
        rng = random.Random(seed)
        gold = []
        for i in range(n):
            bad = i < 2 or (i >= 4 and rng.random() < 0.5)
            gold.append(
                GoldRecord(
                    diff=[rng.choice("abcdefg") for _ in range(3)] + (["mk"] if bad else []),
                    scores=(rng.randint(0, 1) if bad else rng.randint(2, 7),),
                )
            )
        k = min(10, n)
        result = cross_validate(gold, k=k, seed=seed)
        sizes = [len(fold) for fold in result.fold_indices]
        assert len(sizes) == k
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sorted(i for fold in result.fold_indices for i in fold) == list(range(n))
        assert len(result.predictions) == n


class TestReductionReport:
    def _gold_with_scores(self, scores):
        return [GoldRecord(diff=[f"d{i}"], scores=(s,)) for i, s in enumerate(scores)]

    def test_all_not_bad_predictions(self):
        gold = self._gold_with_scores([0, 1, 3, 6, 7])
        report = reduction_report(gold, [False] * 5)
        assert all(v == 0.0 for v in report.removed_fraction_by_score.values())
        assert report.bad_reduction == 0.0
        assert report.good_cost == 0.0

    def test_all_bad_predictions(self):
        gold = self._gold_with_scores([0, 1, 3, 6, 7])
        report = reduction_report(gold, [True] * 5)
        for score in (0, 1, 3, 6, 7):
            assert report.removed_fraction_by_score[score] == 1.0
        assert report.bad_reduction == 1.0
        assert report.good_cost == 1.0

    def test_matches_brute_force_recount(self):
        rng = random.Random(17)
        scores = [rng.randint(0, 7) for _ in range(200)]
        gold = self._gold_with_scores(scores)
        predictions = [rng.random() < 0.4 for _ in range(200)]
        report = reduction_report(gold, predictions)
        for score in range(8):
            hits = [p for g, p in zip(gold, predictions) if g.median_score == score]
            expected = (sum(hits) / len(hits)) if hits else 0.0
            assert report.removed_fraction_by_score[score] == pytest.approx(expected)
        bad = [p for g, p in zip(gold, predictions) if g.median_score <= 1]
        good = [p for g, p in zip(gold, predictions) if g.median_score >= 6]
        assert report.bad_reduction == pytest.approx(sum(bad) / len(bad))
        assert report.good_cost == pytest.approx(sum(good) / len(good))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reduction_report(self._gold_with_scores([0]), [True, False])


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        gold = separable_gold(n=30)
        model = train_svm(gold)
        path = tmp_path / "qa.json"
        save_qa_model(model, path)
        loaded = load_qa_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.idf, model.idf)
        assert loaded.bias == model.bias
        assert loaded.feature_vocab == model.feature_vocab
        for record in gold[:5]:
            assert predict(record.diff, loaded) == predict(record.diff, model)

    def test_version_check(self, tmp_path):
        path = tmp_path / "qa.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_qa_model(path)

    @staticmethod
    def _edited(tmp_path, edit):
        vocab, idf = fitted_idf([["a", "b"], ["b", "c"]])
        path = tmp_path / "qa.json"
        save_qa_model(QaModel(vocab, idf, np.ones(len(vocab)), 0.5), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("feature_vocab"), "lacks 'feature_vocab'"),
        (lambda m: m["hyper"].pop("epochs"), "lacks 'hyper.epochs'"),
        (lambda m: m.update(bias="0.5"), "key 'bias' must be float, got '0.5'"),
        (lambda m: m["weights"].__setitem__(1, None), r"key 'weights' must be list\[float\], got \[1\.0, None"),
        (lambda m: m["feature_vocab"].update(a=True), r"key 'feature_vocab' must be dict\[str, int\], got \{'a'"),
        (lambda m: m["idf"].pop(), "hold 3, 2 and 3 entries"),
        (lambda m: m["feature_vocab"].update(a=3), r"'feature_vocab' indices are not exactly 0\.\.2"),
        (lambda m: m["weights"].__setitem__(1, math.nan), r"key 'weights' must be list\[float\], got \[1\.0, nan"),
        (lambda m: m["idf"].__setitem__(0, math.inf), r"key 'idf' must be list\[float\], got \[inf, "),
        (lambda m: m.update(bias=-math.inf), "key 'bias' must be float, got -inf"),
        (lambda m: m["hyper"].update(l2_lambda=math.nan), "key 'hyper.l2_lambda' must be float, got nan"),
        (lambda m: m["hyper"].update(epochs=0), "hyper.epochs must be >= 1, got 0$"),
        (lambda m: m["hyper"].update(l2_lambda=-0.5), "hyper.l2_lambda must be > 0, got -0.5$"),
        (lambda m: m["weights"].__setitem__(1, 10**400), r"key 'weights' must be list\[float\]"),
    ], ids=["missing_key", "missing_hyper_key", "bad_type", "bad_element", "bool_index",
            "lengths_disagree", "indices_not_a_range", "nan_weight", "infinite_idf",
            "infinite_bias", "nan_hyper", "no_epochs_hyper", "negative_lambda_hyper",
            "weight_beyond_float_range"])
    def test_inconsistent_model_is_a_named_error(self, tmp_path, edit, message):
        path = self._edited(tmp_path, edit)
        with pytest.raises(QaModelError, match=message) as info:
            load_qa_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_edited_but_consistent_model_loads(self, tmp_path):
        path = self._edited(tmp_path, lambda m: m.update(bias=1, idf=[1, 2, 3]))
        model = load_qa_model(path)
        assert model.bias == 1.0 and model.idf.tolist() == [1.0, 2.0, 3.0]


class TestGoldFile:
    def test_load(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"id": "a", "diff": "fix the bug", "scores": [0, 1]}\n'
            '{"id": "b", "diff": "tweak docs", "scores": [7]}\n'
        )
        records = load_gold_jsonl(path)
        assert len(records) == 2
        assert records[0].is_bad and not records[1].is_bad

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"id": "a", "diff": "x", "scores": [0]}\n{"id": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_gold_jsonl(path)

    @pytest.mark.parametrize(
        "field, key",
        [
            ('"diff": "x", "scores": "35"', "scores"),
            ('"diff": "x", "scores": [2.9]', "scores"),
            ('"diff": "x", "scores": [true]', "scores"),
            ('"diff": null, "scores": [0]', "diff"),
        ],
        ids=["string_scores", "float_score", "bool_score", "null_diff"],
    )
    def test_wrong_type_names_line_and_key(self, tmp_path, field, key):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"id": "a", "diff": "x", "scores": [0]}\n{"id": "b", ' + field + "}\n")
        with pytest.raises(CorpusFormatError, match=f"gold.jsonl: line 2: key '{key}' must be"):
            load_gold_jsonl(path)

    def test_non_utf8_byte_decodes_to_replacement_character(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_bytes(b'{"id": "a", "diff": "caf\xe9 bug", "scores": [0]}\n')
        records = load_gold_jsonl(path)
        assert records[0].diff == ["caf\ufffd", "bug"]


class TestPinnedMargins:
    """Margins of a fixed model, pinned to the bit: featurization may get
    faster but must sum in the same order."""

    def test_margins_unchanged(self):
        model = train_svm(separable_gold(80, seed=5))
        rng = random.Random(11)
        vocab = [f"tok{i}" for i in range(30)] + MARKERS + ["unseen", "also_unseen"]
        queries = [[rng.choice(vocab) for _ in range(n)] for n in (1, 7, 40, 500)]
        assert [predict(q, model)[1] for q in queries] == [
            -5.455098669648695,
            28.006992241584086,
            4.752895100462666,
            7.717609450535294,
        ]
        assert model.bias == 17.381885821398374


class TestGateOnCounts:
    """The gate featurizes a diff's token counts (corpus.source_counts), not
    its tokens: the margin must not move by a bit."""

    LINES = ["+ deadlock ( tok1 )", "- tok2 . refit", "tok3 7807cb6..ca7a229", "qqq_tok4 #1",
             "\u00e9tok5\u00a0tok1", "zork-tok6\u2028tok7", "unseen ; tok8 deadbeef"]

    @pytest.fixture(scope="class")
    def model(self):
        return train_svm(separable_gold(80, seed=5))

    @given(diff=st.lists(st.sampled_from(LINES), min_size=1, max_size=80).map("\n".join))
    @settings(max_examples=200)
    def test_margin_is_bit_identical(self, model, diff):
        tokens = preprocess_source(diff)
        (_, counted), (_, expected) = predict(source_counts(diff), model), predict(tokens, model)
        assert float.hex(counted) == float.hex(expected)
        assert tfidf(source_counts(diff), model.feature_vocab, model.idf) == tfidf(
            tokens, model.feature_vocab, model.idf)


def noisy_gold(n=40, seed=7):
    """Overlapping classes, a token unique to each record and some records
    with no token or with only their unique one, so every held-out fold
    meets unseen tokens and diffs without a known feature."""
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(12)]
    records = []
    for i in range(n):
        bad = i < 2 or rng.random() < 0.4
        if i % 13 == 5:
            diff = []
        elif i % 11 == 3:
            diff = [f"only{i}"]
        else:
            diff = [rng.choice(vocab) for _ in range(rng.randint(1, 12))] + [f"only{i}"]
            if bad and rng.random() < 0.7:
                diff.insert(rng.randrange(len(diff)), rng.choice(MARKERS))
        scores = (rng.randint(0, 1),) if bad else (rng.randint(2, 7), rng.randint(0, 7))
        records.append(GoldRecord(diff=diff, scores=scores))
    return records


class TestCrossValidatePinned:
    """Cross-validation may share work between folds but must give each
    fold exactly the model train_svm fits on that fold's records."""

    def test_margins_and_predictions_pinned(self):
        result = cross_validate(noisy_gold(), k=5, seed=4, hyper=QaHyper(seed=2))
        assert [float.hex(m) for m in result.margins] == PINNED_CV_MARGINS
        assert result.predictions == [m > 0.0 for m in result.margins]

    @given(n=st.integers(10, 60), k=st.integers(5, 10), epochs=st.integers(1, 5),
           l2_lambda=st.sampled_from([1e-4, 1e-2, 1.0]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_margins_match_the_shrinking_loop(self, n, k, epochs, l2_lambda, seed):
        # a third of the records bad and a third not, so every fold trains on both
        gold = [GoldRecord(r.diff, (0,) if i % 3 == 0 else (7,) if i % 3 == 1 else r.scores)
                for i, r in enumerate(noisy_gold(n, seed=seed))]
        hyper = QaHyper(l2_lambda=l2_lambda, epochs=epochs, seed=seed + 1)
        result = cross_validate(gold, k=k, seed=seed, hyper=hyper)
        oracle = np.zeros(n)
        for f, held_out in enumerate(result.fold_indices):
            train = [gold[i] for g, fold in enumerate(result.fold_indices) if g != f for i in fold]
            model = oracle_train_svm(train, hyper)
            oracle[held_out] = [predict(gold[i].diff, model)[1] for i in held_out]
        assume(np.all(np.abs(oracle) > 1e-9))
        largest = np.max(np.abs(oracle))
        assert np.max(np.abs(np.array(result.margins) - oracle)) <= 1e-12 * largest
        assert result.predictions == (oracle > 0.0).tolist()

    @pytest.mark.parametrize("n, k, seed, epochs", [(40, 5, 4, 20), (23, 4, 1, 3), (31, 10, 8, 2)])
    def test_each_fold_is_train_svm_then_predict(self, n, k, seed, epochs):
        gold = noisy_gold(n, seed=seed)
        hyper = QaHyper(epochs=epochs, seed=seed + 1)
        result = cross_validate(gold, k=k, seed=seed, hyper=hyper)
        for f, held_out in enumerate(result.fold_indices):
            # folds are slices of one shuffled order; training keeps that order
            train = [gold[i] for g, fold in enumerate(result.fold_indices) if g != f for i in fold]
            model = train_svm(train, hyper)
            for i in held_out:
                assert predict(gold[i].diff, model) == (result.predictions[i], result.margins[i])


# cross_validate(noisy_gold(), k=5, seed=4, hyper=QaHyper(seed=2)).margins, as float.hex
PINNED_CV_MARGINS = [
    '0x1.6fe09229e0f80p-1', '0x1.9bd77ba9c544cp+3', '-0x1.22760f14b1bf4p+5', '-0x1.ef800368c5110p+5',
    '-0x1.4056c4d2f5860p+3', '-0x1.b96064f93d6a4p+4', '0x1.c3c2b641abe68p+4', '0x1.717f5b608b47ap+4',
    '0x1.52dba051262e0p+3', '0x1.9e2fc80cda8f0p+3', '0x1.02f97e07e0cc8p+4', '-0x1.6de420e51e2e6p+4',
    '0x1.7ef264173cdc0p+1', '-0x1.1ea4595a11bcbp+5', '-0x1.1ae0615a89ec6p+6', '-0x1.2ef5716ce873bp+4',
    '-0x1.19c2413646f10p+2', '-0x1.1b4016aafaa90p+3', '-0x1.4228f3ee6cdcfp+6', '0x1.33c6867e5df74p+4',
    '-0x1.b9c62bf4127e4p+4', '0x1.e253290c48e88p+3', '0x1.8a9efcd94e77cp+4', '0x1.34f9935fa2df4p+5',
    '0x1.8fca0a163857cp+3', '-0x1.b96064f93d6a4p+4', '0x1.cbca700daf6a0p+2', '0x1.0a9a888606a10p+3',
    '-0x1.2106362434ce0p+2', '-0x1.16d61ec22b848p+2', '0x1.e92a973925f70p+2', '-0x1.0f7f654c02642p+5',
    '-0x1.5fcef9ece3368p+4', '-0x1.aa39965c315acp+3', '0x1.3ab9817d60990p+4', '-0x1.9c282edfa36e0p+3',
    '-0x1.0f7f654c02642p+5', '-0x1.ea2493e44d908p+3', '-0x1.e22eca711e164p+4', '-0x1.2000afe92b68cp+4',
]
