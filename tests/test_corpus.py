"""Tests for corpus ingestion, preprocessing, filtering, and splitting."""

import json
import math
import random
import re
import string
import sys
import typing
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.corpus import (
    EOS_ID,
    ID_PLACEHOLDER,
    PAD_ID,
    SPECIALS,
    UNK,
    UNK_ID,
    Commit,
    FilterConfig,
    PreparedCommit,
    Refusal,
    Schema,
    Vocabulary,
    REMOVAL_REASONS,
    apply_filters,
    build_vocab,
    diff_too_large,
    extract_first_sentence,
    ingest_jsonl,
    is_merge_or_rollback,
    preprocess_source,
    preprocess_target,
    read_sequences,
    read_split_files,
    schema_problem,
    source_counts,
    split_dataset,
    strip_commit_ids,
    tokenize,
    write_sequences,
    write_split_files,
)


def make_commit(commit_id="c1", diff="diff text", message="Add a thing"):
    return Commit(commit_id, diff, message)


_ORACLE_PUNCTUATION = frozenset(string.punctuation) - {"_"}


def oracle_tokenize(text):
    """The character-loop tokenizer the compiled regex replaced."""
    tokens = []
    for chunk in text.split():
        word = []
        i = 0
        while i < len(chunk):
            if chunk.startswith(ID_PLACEHOLDER, i):
                if word:
                    tokens.append("".join(word))
                    word = []
                tokens.append(ID_PLACEHOLDER)
                i += len(ID_PLACEHOLDER)
            elif chunk[i] in _ORACLE_PUNCTUATION:
                if word:
                    tokens.append("".join(word))
                    word = []
                tokens.append(chunk[i])
                i += 1
            else:
                word.append(chunk[i])
                i += 1
        if word:
            tokens.append("".join(word))
    return tokens


# Characters where the tokenizer's cases meet: the placeholder's letters,
# underscore, punctuation, whitespace of several kinds (ASCII space,
# no-break space, line separator, the \x1c file separator that
# str.split() treats as whitespace) and non-ASCII letters.
_EDGE_TEXT = st.text(
    alphabet=st.sampled_from(list("<id>_ .,;()#-\u00a0\u2028\x1c\t\néßΩ語a1")),
    max_size=120,
)


class TestIngestJsonl:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = [
            {"id": "a", "diff": "d1", "message": "m1"},
            {"id": "b", "diff": "d2", "message": "m2"},
            {"id": "c", "diff": "d3", "message": "m3"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        commits = list(ingest_jsonl(path))
        assert [c.id for c in commits] == ["a", "b", "c"]
        assert commits[0].diff_text == "d1"
        assert commits[0].message_text == "m1"

    def test_non_utf8_byte_decodes_to_replacement_character(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(
            b'{"id": "a", "diff": "+ caf\xe9 ( x )", "message": "Fix caf\xe9"}\n'
            b'{"id": "b", "diff": "d2", "message": "m2"}\n'
        )
        commits = list(ingest_jsonl(path))
        assert [c.id for c in commits] == ["a", "b"]
        assert commits[0].diff_text == "+ caf\ufffd ( x )"
        assert commits[0].message_text == "Fix caf\ufffd"
        assert tokenize(commits[0].diff_text) == ["+", "caf\ufffd", "(", "x", ")"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(ingest_jsonl(path)) == []

    def test_missing_diff_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"id": "a", "diff": "d", "message": "m"})
            + "\n"
            + json.dumps({"id": "b", "message": "m"})
            + "\n"
        )
        with pytest.raises(Refusal, match="line 2"):
            list(ingest_jsonl(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = json.dumps({"id": "a", "diff": "d", "message": "m"})
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(Refusal, match="duplicate"):
            list(ingest_jsonl(path))

    def test_a_line_is_read_when_the_stream_reaches_it(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        path.write_text('{"id": "a", "diff": "d", "message": "m"}\nnot json\n')
        commits = ingest_jsonl(path)
        assert next(commits).id == "a"
        with pytest.raises(Refusal, match="line 2: invalid JSON"):
            next(commits)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a", "diff": "d", "message": "m"}\nnot json\n')
        with pytest.raises(Refusal, match="line 2"):
            list(ingest_jsonl(path))

    @pytest.mark.parametrize(
        "record, key",
        [
            ({"id": "a", "diff": None, "message": "m"}, "diff"),
            ({"id": "a", "diff": "d", "message": ["Add", "x"]}, "message"),
            ({"id": True, "diff": "d", "message": "m"}, "id"),
        ],
        ids=["null_diff", "list_message", "bool_id"],
    )
    def test_wrong_type_names_line_and_key(self, tmp_path, record, key):
        path = tmp_path / "typed.jsonl"
        good = json.dumps({"id": "ok", "diff": "d", "message": "m"})
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(Refusal, match=f"typed.jsonl: line 2: key '{key}' must be"):
            list(ingest_jsonl(path))

    def test_integer_id_is_read_as_its_digits(self, tmp_path):
        path = tmp_path / "int_id.jsonl"
        path.write_text(json.dumps({"id": 7, "diff": "d", "message": "m"}) + "\n")
        assert [commit.id for commit in ingest_jsonl(path)] == ["7"]

    def test_byte_size_counts_utf8_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "utf8.jsonl"
        path.write_text(json.dumps({"id": "a", "diff": "café", "message": "m"}) + "\n")
        (commit,) = list(ingest_jsonl(path))
        # e-acute is two bytes: five in all, and the cap is inclusive
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", 5)
        assert not diff_too_large(commit.diff_text)
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", 4)
        assert diff_too_large(commit.diff_text)


# Every kind of annotation schema_problem supports.
_ANNOTATIONS = [int, float, str, bool, int | None, float | None, str | None, str | int,
                list[int], list[float], dict[str, int], list, dict]
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
                 | st.floats() | st.text(max_size=4))
_JSON_VALUES = (_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=4)
                | st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=3))


def oracle_admits(value, annotation):
    """The value rule, written out: a bool is not an int, an int may stand
    for a float it converts to, and a float must be finite."""
    if annotation is bool:
        return isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(float(value))
        except OverflowError:
            return False
    if annotation in (str, list, dict):
        return isinstance(value, annotation)
    if annotation == str | int:
        return oracle_admits(value, str) or oracle_admits(value, int)
    if annotation in (list[int], list[float]):
        (item,) = typing.get_args(annotation)
        return isinstance(value, list) and all(oracle_admits(v, item) for v in value)
    if annotation == dict[str, int]:
        return isinstance(value, dict) and all(oracle_admits(v, int) for v in value.values())
    (kind, _) = typing.get_args(annotation)  # X | None
    return value is None or oracle_admits(value, kind)


class TestSchemaProblem:
    @given(st.sampled_from(_ANNOTATIONS), _JSON_VALUES)
    @settings(max_examples=600)
    def test_agrees_with_the_rule(self, annotation, value):
        problem = schema_problem({"k": value}, Schema({"k": annotation}))
        assert (problem is None) == oracle_admits(value, annotation), problem
        if problem is not None:
            assert problem.startswith("key 'k' must be ")

    def test_names_the_first_bad_key_with_a_short_value(self):
        schema = Schema({"a": int, "b": list[float], "c": str})
        assert schema_problem({"a": 1, "b": [0.5] * 100, "c": "x"}, schema) is None
        assert schema_problem({"a": 1, "c": 2}, schema) == "lacks 'b'"
        problem = schema_problem({"a": 1, "b": [math.nan] * 100, "c": 2}, schema)
        assert problem == "key 'b' must be list[float], got [nan, nan, nan, nan, nan, nan, ...]"

    def test_a_range_is_checked_after_the_type_and_admits_none(self):
        schema = Schema({"rate": typing.Annotated[float, "> 0", "< 1"],
                         "cap": typing.Annotated[int | None, ">= 1"]})
        assert schema_problem({"rate": 0.5, "cap": None}, schema) is None
        assert schema_problem({"rate": 1, "cap": 1}, schema) == "rate must be > 0 and < 1, got 1"
        assert schema_problem({"rate": "1", "cap": 1}, schema) == "key 'rate' must be float, got '1'"
        assert schema_problem({"rate": 0.5, "cap": 0}, schema) == "cap must be >= 1, got 0"


def oracle_first_sentence(message_text):
    """The character loop the sentence-end regex replaced."""
    end = len(message_text)
    for i, ch in enumerate(message_text):
        if ch == "\n":
            end = i
            break
        if ch.isspace() and i > 0 and message_text[i - 1] == ".":
            end = i
            break
    return message_text[:end].strip()


# Where sentence ends meet: periods, newlines, other whitespace (ASCII
# space, tab, carriage return, U+00A0, U+2028, \x1c) and plain letters.
_SENTENCE_TEXT = st.text(alphabet=st.sampled_from(list(".\n \t\r\xa0\u2028\x1cab")), max_size=40)


class TestExtractFirstSentence:
    @given(st.one_of(st.text(max_size=120), _SENTENCE_TEXT))
    @settings(max_examples=500)
    def test_matches_character_loop(self, text):
        assert extract_first_sentence(text) == oracle_first_sentence(text)

    def test_period_then_blank_line(self):
        assert extract_first_sentence("Fix NPE in parser.\n\nLong body...") == "Fix NPE in parser."

    def test_single_sentence_kept_whole(self):
        msg = "adds support for 9 inch tablet screen size."
        assert extract_first_sentence(msg) == msg

    def test_empty(self):
        assert extract_first_sentence("") == ""

    def test_period_space_inside_line(self):
        assert extract_first_sentence("Fix parser. Also tweak docs.") == "Fix parser."

    def test_newline_without_period(self):
        assert extract_first_sentence("Add cache\nmore detail") == "Add cache"


class TestStripIds:
    def test_issue_id_in_message(self):
        assert preprocess_target("Fix #1234 crash") == ["Fix", ID_PLACEHOLDER, "crash"]

    def test_commit_ids_in_diff(self):
        assert (
            strip_commit_ids("index 7807cb6..ca7a229")
            == f"index {ID_PLACEHOLDER}..{ID_PLACEHOLDER}"
        )

    def test_no_ids_unchanged(self):
        assert strip_commit_ids("no ids here") == "no ids here"
        assert preprocess_target("no ids here") == ["no", "ids", "here"]

    def test_short_hex_kept(self):
        # six hex chars is below the id threshold
        assert strip_commit_ids("cafe12 is a name") == "cafe12 is a name"

    def test_hex_inside_identifier_kept(self):
        assert strip_commit_ids("deadbeef_handler") == "deadbeef_handler"

    def test_issue_ids_only_apply_to_targets(self):
        assert strip_commit_ids("Fix #1234 crash") == "Fix #1234 crash"


# Hex runs below, at and above the 7-character id threshold, next to ASCII
# and non-ASCII letters, digits, underscores, punctuation and whitespace
# (U+00A0, U+2028 and U+3000 among it), so a bounded prefix cut lands
# inside, before and after every kind of run.
_ID_TEXT = st.lists(
    st.sampled_from([
        "cafe12", "deadbee", "0123456789abcdef", "ABCDEF0", "x", "\xe9", "\u65e5", "_",
        "9", "(", ".", "<id>", " ", "\n", "\t", "\xa0", "\u2028", "\u3000", "+ foo",
        "<id", "<i", ">", "=========", "+ab/cd",
    ]),
    max_size=120,
).map("".join)


class TestPreprocessSource:
    @given(_ID_TEXT, st.integers(min_value=0, max_value=40))
    @settings(max_examples=400)
    def test_limit_is_a_prefix(self, text, limit):
        assert preprocess_source(text, limit) == preprocess_source(text)[: limit + 1]

    def test_cut_moves_to_whitespace_and_the_prefix_grows(self):
        # with limit 1 the first prefix is 16 characters: it would end inside
        # the id, and then hold one token where two are needed
        assert preprocess_source("x" * 10 + " deadbeefcafe tail", 1) == ["x" * 10, ID_PLACEHOLDER]
        assert preprocess_source("y" * 40 + " z w", 1) == ["y" * 40, "z"]

    def test_cut_moves_to_punctuation_but_not_into_the_placeholder(self):
        # a cut before the ">" would split the literal placeholder
        assert preprocess_source("x" * 13 + "<id>.", 1) == ["x" * 13, ID_PLACEHOLDER]
        assert preprocess_source("x" * 13 + " deadbeef>", 1) == ["x" * 13, ID_PLACEHOLDER]

    def test_megabyte_without_whitespace_is_cut_at_punctuation(self):
        # the prefix ends inside the run, so only its head is tokenized
        assert preprocess_source("=" * 1_000_000, 100) == ["="] * 101
        assert preprocess_source("+ab/cd+ef" * 111_112, 4) == ["+", "ab", "/", "cd", "+"]


# Pieces heavy in the separators and id boundaries source_counts relies
# on: whitespace str.split() and re's \s agree on (U+00A0, U+2028, \x1c,
# \n), hex runs next to ASCII and non-ASCII letters, underscores and
# punctuation, and the literal placeholder.
_CHUNK_TEXT = st.lists(
    st.sampled_from([
        "deadbee", "cafe12", "0123456789abcdef", "ABCDEF0", "\xe9", "\u65e5deadbeef", "_",
        "<id>", "<id", "(", ".", "#", "-", "\xa0", "\u2028", "\x1c", "\n", " ", "x", "\xdf",
    ]),
    max_size=60,
).map("".join)


class TestSourceCounts:
    @given(_CHUNK_TEXT, st.integers(min_value=1, max_value=3), st.sampled_from([" ", "\n", "\xa0"]))
    @settings(max_examples=500)
    def test_equals_counting_the_tokens(self, text, repeats, sep):
        text = sep.join([text] * repeats)
        assert list(source_counts(text).items()) == list(Counter(preprocess_source(text)).items())

    def test_repeated_chunks_and_ids(self):
        text = "b a.b\na.b c deadbeef\xa0deadbeef_x\u2028deadbeef"
        assert list(source_counts(text).items()) == [
            ("b", 3), ("a", 2), (".", 2), ("c", 1), (ID_PLACEHOLDER, 2), ("deadbeef_x", 1),
        ]

    def test_empty(self):
        assert source_counts("") == Counter()
        assert source_counts(" \n\xa0") == Counter()


class TestMergeRollback:
    @pytest.mark.parametrize(
        "message,expected",
        [
            ("Merge branch 'dev' into master", True),
            ('Revert "add cache"', True),
            ("Rollback config change", True),
            ("Roll back the deploy", True),
            ("merged upstream\nbody", True),
            ("Add cache layer", False),
            ("Fix merge conflict marker rendering", False),
            ("", False),
        ],
    )
    def test_detection(self, message, expected):
        assert is_merge_or_rollback(message) is expected


class TestTokenize:
    def test_code_call(self):
        assert tokenize("mCursor.deactivate();") == ["mCursor", ".", "deactivate", "(", ")", ";"]

    def test_camelcase_not_split(self):
        assert tokenize("CursorToBulkCursorAdaptor") == ["CursorToBulkCursorAdaptor"]

    def test_empty(self):
        assert tokenize("") == []

    def test_snake_case_not_split(self):
        assert tokenize("my_var = 1") == ["my_var", "=", "1"]

    def test_placeholder_survives(self):
        assert tokenize(f"index {ID_PLACEHOLDER}..{ID_PLACEHOLDER}") == [
            "index",
            ID_PLACEHOLDER,
            ".",
            ".",
            ID_PLACEHOLDER,
        ]

    def test_placeholder_lookalike_is_split(self):
        assert tokenize("<identity>") == ["<", "identity", ">"]

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_matches_character_loop_on_any_text(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(_EDGE_TEXT)
    @settings(max_examples=500)
    def test_matches_character_loop_on_edge_alphabet(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_regex_whitespace_is_str_isspace(self):
        # str.split() splits on exactly the characters str.isspace() accepts.
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent_under_rejoin(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_token_shape_invariants(self, text):
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)
            if token != ID_PLACEHOLDER and len(token) > 1:
                # punctuation only ever appears as single-char tokens
                assert not any(ch in "!\"#$%&'()*+,-./:;<=>?@[\\]^`{|}~" for ch in token)


class TestApplyFilters:
    def test_source_too_long_boundary(self):
        cfg = FilterConfig(max_source_len=100)
        long_diff = " ".join(f"tok{i}" for i in range(101))
        kept, removed, _ = apply_filters([make_commit(diff=long_diff)], cfg)
        assert kept == []
        assert removed["source_too_long"] == 1

    @pytest.mark.parametrize("diff", ["", " \n\t "], ids=["empty", "whitespace"])
    def test_diff_without_a_token_removed(self, diff):
        kept, removed, _ = apply_filters([make_commit(diff=diff), make_commit("c2")])
        assert [commit.id for commit in kept] == ["c2"]
        assert removed["source_empty"] == 1
        assert sum(removed.values()) == 1

    def test_target_boundary_inclusive(self):
        msg = " ".join(f"w{i}" for i in range(30))
        kept, _, _ = apply_filters([make_commit(message=msg)])
        assert len(kept) == 1
        assert len(kept[0].target) == 30

    def test_source_boundary_inclusive(self):
        diff = " ".join(f"tok{i}" for i in range(100))
        kept, _, _ = apply_filters([make_commit(diff=diff)])
        assert len(kept) == 1

    def test_merge_removed(self):
        kept, removed, _ = apply_filters([make_commit(message="Merge branch dev")])
        assert kept == []
        assert removed["merge_or_rollback"] == 1

    def test_oversized_diff_removed(self, monkeypatch):
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", 10)
        kept, removed, _ = apply_filters([make_commit(diff="x" * 11)])
        assert kept == []
        assert removed["diff_too_large"] == 1

    def test_empty_target_removed(self):
        kept, removed, _ = apply_filters([make_commit(message="")])
        assert kept == []
        assert removed["target_empty"] == 1

    def test_counts_reconcile(self):
        commits = [
            make_commit("a"),
            make_commit("b", message="Merge branch x"),
            make_commit("c", diff="y " * 200),
            make_commit("d", message=""),
            make_commit("e", message="Fix crash in parser"),
        ]
        kept, removed, read = apply_filters(iter(commits))
        assert (len(kept), read) == (2, len(commits))
        assert list(removed) == list(REMOVAL_REASONS)
        assert sum(removed.values()) == len(commits) - len(kept) == 3

    def test_kept_order_preserved(self):
        commits = [make_commit(c, message=f"Fix thing {c}") for c in "abc"]
        kept, _, _ = apply_filters(commits)
        assert [k.id for k in kept] == ["a", "b", "c"]

    def test_kept_respects_limits_always(self):
        cfg = FilterConfig(max_source_len=5, max_target_len=3)
        commits = [
            make_commit(str(i), diff="a b c d e f g"[: 2 * i + 1], message="Fix a bug now ok"[: i + 4])
            for i in range(8)
        ]
        kept, _, _ = apply_filters(commits, cfg)
        for item in kept:
            assert len(item.source) <= 5
            assert len(item.target) <= 3

    @pytest.mark.parametrize("count", [99, 100, 101, 102])
    def test_bounded_funnel_at_the_limit_with_id_stripping(self, count):
        # "é" + 12 hex chars is one token before id stripping and two after
        # ("é", "<id>": é is no identifier character to the id pattern);
        # "x" + 12 hex chars stays one token.  The limit applies to the
        # stripped count, here exactly `count` for every diff.
        parts = ["é0123456789ab", "0123456789ab", "x" + "0123456789ab", "a.b"]
        shapes = [" ".join(parts[i % len(parts)] for i in range(n)) for n in range(40)]
        commits = []
        for i, prefix in enumerate(shapes):
            filler = count - len(oracle_tokenize(strip_commit_ids(prefix)))
            diff = prefix + " " + " ".join(f"t{j}" for j in range(filler))
            commits.append(make_commit(f"c{i}", diff=diff, message=f"Fix thing {i}"))
        commits.append(make_commit("hex", diff=" ".join(["deadbeef1"] * count)))
        cfg = FilterConfig(max_source_len=100)
        kept, removed, _ = apply_filters(commits, cfg)
        for commit in commits:
            assert len(oracle_tokenize(strip_commit_ids(commit.diff_text))) == count
        assert len(oracle_tokenize(commits[39].diff_text)) < count
        expected_kept = len(commits) if count <= 100 else 0
        assert len(kept) == expected_kept
        assert removed["source_too_long"] == len(commits) - expected_kept
        for item, commit in zip(kept, commits):
            assert item.source == oracle_tokenize(strip_commit_ids(commit.diff_text))

    def test_bounded_funnel_matches_full_tokenization(self):
        rng = random.Random(3)
        words = ["é0123456789ab", "0123456789abcdef", "foo()", "<id>", "a_b", "x", ";", "\u00a0"]
        commits = [
            make_commit(f"c{i}", diff=" ".join(rng.choice(words) for _ in range(rng.randint(60, 140))),
                        message=f"Fix thing {i}")
            for i in range(200)
        ]
        cfg = FilterConfig(max_source_len=100)
        kept, removed, _ = apply_filters(commits, cfg)
        full_lengths = [len(oracle_tokenize(strip_commit_ids(c.diff_text))) for c in commits]
        assert removed["source_too_long"] == sum(n > 100 for n in full_lengths)
        assert 0 < len(kept) < len(commits)
        for item in kept:
            commit = next(c for c in commits if c.id == item.id)
            assert item.source == oracle_tokenize(strip_commit_ids(commit.diff_text))


class TestBuildVocab:
    def test_uncapped_counts(self):
        vocab = build_vocab([["a", "b"], ["a", "c"]])
        assert len(vocab) == 3 + len(SPECIALS)

    def test_frequency_order_cap(self):
        seqs = [["a"] * 5 + ["b"] * 3 + ["c"]]
        vocab = build_vocab(seqs, cap=2)
        assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
        assert "c" not in vocab.token_to_id

    def test_tie_break_lexicographic(self):
        # brute-force oracle: sort by (-count, token), take the cap
        seqs = [["zeta", "alpha", "midd"] * 2 + ["mega"] * 5]
        counts = {"zeta": 2, "alpha": 2, "midd": 2, "mega": 5}
        oracle = [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:3]
        vocab = build_vocab(seqs, cap=3)
        kept = [t for t in vocab.id_to_token[len(SPECIALS):]]
        assert kept == oracle == ["mega", "alpha", "midd"]

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], cap=0)

    def test_specials_occupy_lowest_indices(self):
        vocab = build_vocab([["x"]])
        assert vocab.id_to_token[: len(SPECIALS)] == list(SPECIALS)
        assert vocab.token_to_id["x"] == len(SPECIALS)

    def test_special_lookalike_tokens_excluded(self):
        vocab = build_vocab([["<pad>", "<eos>", "real"]])
        assert len(vocab) == 1 + len(SPECIALS)

    @given(
        st.lists(
            st.lists(st.text(st.characters(whitelist_categories=["Ll"]), min_size=1, max_size=6)),
            max_size=20,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_in_vocab(self, seqs):
        vocab = build_vocab(seqs)
        for seq in seqs:
            assert vocab.decode(vocab.encode(seq)) == seq

    def test_out_of_vocab_decodes_to_unk(self):
        vocab = build_vocab([["known"]])
        assert vocab.decode(vocab.encode(["known", "unknown"])) == ["known", UNK]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab([["b", "a", "b"]])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = type(vocab).load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id

    @pytest.mark.parametrize("lines, lineno, token", [
        (["a", "b", "a"], 3, "a"),
        (["a", UNK], 2, UNK),
    ], ids=["listed_twice", "special_lookalike"])
    def test_load_rejects_duplicate_token(self, tmp_path, lines, lineno, token):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(Refusal) as info:
            Vocabulary.load(path)
        assert str(info.value) == f"{path}: line {lineno}: duplicate token {token!r}"

    def test_load_names_the_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"a\nb\n\xff\xfe\n")
        with pytest.raises(Refusal) as info:
            Vocabulary.load(path)
        assert str(info.value).startswith(f"{path}: line 3: not UTF-8: ")


def _pairs(n):
    return [PreparedCommit(str(i), [f"s{i}"], [f"t{i}"]) for i in range(n)]


class TestSplitDataset:
    def test_deterministic(self):
        pairs = _pairs(10)
        a = split_dataset(pairs, valid=2, test=2, seed=7)
        b = split_dataset(pairs, valid=2, test=2, seed=7)
        assert [p.id for p in a.train] == [p.id for p in b.train]
        assert [p.id for p in a.valid] == [p.id for p in b.valid]
        assert [p.id for p in a.test] == [p.id for p in b.test]

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(_pairs(3), valid=2, test=2, seed=0)

    def test_parts_disjoint_and_exhaustive(self):
        pairs = _pairs(25)
        split = split_dataset(pairs, valid=5, test=5, seed=3)
        ids = [p.id for p in split.train + split.valid + split.test]
        assert len(ids) == 25
        assert len(set(ids)) == 25

    def test_different_seeds_differ(self):
        pairs = _pairs(50)
        a = split_dataset(pairs, valid=10, test=10, seed=1)
        b = split_dataset(pairs, valid=10, test=10, seed=2)
        assert [p.id for p in a.test] != [p.id for p in b.test]


class TestSequenceFiles:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "seqs.txt"
        seqs = [["a", "b"], [], ["c"]]
        write_sequences(path, seqs)
        assert read_sequences(path) == seqs

    def test_split_files_roundtrip(self, tmp_path):
        split = split_dataset(_pairs(10), valid=2, test=3, seed=4)
        write_split_files(split, tmp_path / "splits")
        assert sorted(p.name for p in (tmp_path / "splits").iterdir()) == [
            f"{part}.{side}.txt" for part in ("test", "train", "valid") for side in ("src", "tgt")
        ]
        restored = read_split_files(tmp_path / "splits", seed=4)
        for part in ("train", "valid", "test"):
            items = getattr(split, part)
            assert getattr(restored, part) == [
                PreparedCommit(f"{part}-{i}", item.source, item.target)
                for i, item in enumerate(items)
            ]
        assert restored.seed == 4

    def test_misaligned_split_files_rejected(self, tmp_path):
        write_split_files(split_dataset(_pairs(6), valid=1, test=1, seed=0), tmp_path)
        with open(tmp_path / "valid.tgt.txt", "a", encoding="utf-8") as handle:
            handle.write("extra\n")
        with pytest.raises(Refusal, match="valid.tgt.txt: files are not line-aligned"):
            read_split_files(tmp_path, seed=0)

    def test_sequence_file_names_the_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_bytes("a b\ncaf\u00e9\n".encode() + b"c \xe9 d\n")
        with pytest.raises(Refusal) as info:
            read_sequences(path)
        assert str(info.value).startswith(f"{path}: line 3: not UTF-8: ")


def test_special_ids_are_stable():
    assert (PAD_ID, UNK_ID, EOS_ID) == (0, 1, 3)
