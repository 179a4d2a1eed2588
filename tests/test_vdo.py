"""Tests for the verb/direct-object subject filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.corpus import PreparedCommit, tokenize
from diffmsg.vdo import DEFAULT_VERBS, default_lexicon, filter_corpus, is_vdo, verb_stem

LEX = default_lexicon()


class TestIsVerb:
    @pytest.mark.parametrize(
        "token,stem",
        [
            ("adds", "add"),          # -s
            ("Fixed", "fix"),         # -ed
            ("fixes", "fix"),         # -es
            ("applies", "apply"),     # -ies -> y
            ("removed", "remove"),    # -ed -> e
            ("using", "use"),         # -ing -> e
            ("cleaning", "clean"),    # -ing
            ("creates", "create"),    # -s after -es fails
            ("Support", "support"),
        ],
    )
    def test_inflections(self, token, stem):
        assert verb_stem(token, LEX) == stem

    @pytest.mark.parametrize("token", ["9", "merge", "Revert", "don", "s", "es", ""])
    def test_non_verbs(self, token):
        assert verb_stem(token, LEX) is None

    def test_default_verbs_are_non_empty_lowercase(self):
        # verb_stem lowercases a token before it looks it up
        assert default_lexicon() is DEFAULT_VERBS
        assert all(verb and verb == verb.lower() for verb in DEFAULT_VERBS)


# Hand-labeled against the documented heuristic: first token must stem to a
# lexicon verb; then, among the next four tokens that are not determiners or
# prepositions, at least one must be neither punctuation nor a verb.
VDO_FIXTURE = [
    ("adds support for 9 inch tablet screen size.", True),
    ("7807cb6 ca7a229", False),
    ("Merge branch x", False),
    ("Fix NPE in parser", True),
    ("fixed a typo in the docs", True),
    ("Update documentation", True),
    ('Revert "add cache"', False),
    ("Rollback config change", False),
    ("Added unit tests for the parser", True),
    ("remove deprecated API calls", True),
    ("refactor", False),
    ("cleanup", False),
    ("bump version to 2.0", True),
    ("Fixes #123", True),
    ("Make the build reproducible", True),
    ("Allow empty passwords in dev mode", True),
    ("Implement retry logic for uploads", True),
    ("Moved the config files to a new directory", True),
    ("Supports multiple screen sizes now", True),
    ("rename foo to bar", True),
    ("Delete old backups", True),
    ("improve error handling", True),
    ("avoid NPE when cache is empty", True),
    ("handle null pointers gracefully", True),
    ("Create LICENSE", True),
    ("Initial commit", False),
    ("WIP", False),
    ("version 1.2.3", False),
    ("Merged upstream changes", False),
    ("Reverted bad deploy", False),
    ("add", False),
    ("adds .", False),
    ("Fix fix fix", False),
    ("Use HTTPS for all API endpoints", True),
    ("Don't crash on empty input", False),
    ("prevent double submission of forms", True),
    ("Enable verbose logging by default", True),
    ("disable the cache for tests", False),
    ("Tests for the tokenizer", True),
    ("Simplify the error handling logic", True),
]


class TestIsVdo:
    def test_fixture_size(self):
        assert len(VDO_FIXTURE) == 40

    @pytest.mark.parametrize("subject,expected", VDO_FIXTURE)
    def test_fixture(self, subject, expected):
        assert is_vdo(tokenize(subject), LEX) is expected

    def test_empty_message(self):
        assert not is_vdo([], LEX)

    def test_accepts_object_past_skip_words(self):
        # skip words do not consume window slots
        assert is_vdo(tokenize("add to the list of known hosts"), LEX)

    @given(st.lists(st.sampled_from("add fix the a . , support tests x1 cache".split()), max_size=8))
    @settings(max_examples=200)
    def test_positive_implies_leading_verb(self, tokens):
        if is_vdo(tokens, LEX):
            assert tokens
            assert verb_stem(tokens[0], LEX) is not None


class TestFilterCorpus:
    def _pairs(self, subjects):
        return [PreparedCommit(str(i), [f"src{i}"], tokenize(s)) for i, s in enumerate(subjects)]

    def test_all_vdo_ratio_one(self):
        pairs = self._pairs(["Fix the race condition", "add missing tests now"])
        kept = filter_corpus(pairs, LEX)
        assert kept == pairs
        assert len(kept) == len(pairs) == 2

    def test_empty_corpus(self):
        assert filter_corpus([], LEX) == []

    def test_mixed_corpus(self):
        pairs = self._pairs(["adds support for 9 inch tablet screens", "7807cb6 ca7a229"])
        kept = filter_corpus(pairs, LEX)
        assert len(kept) == 1 and kept[0] == pairs[0]
        assert len(pairs) - len(kept) == 1

    def test_idempotent(self):
        pairs = self._pairs([s for s, _ in VDO_FIXTURE])
        kept = filter_corpus(pairs, LEX)
        assert filter_corpus(kept, LEX) == kept

    def test_per_pair_independence(self):
        pairs = self._pairs([s for s, _ in VDO_FIXTURE[:10]])
        full_verdicts = {id(p): is_vdo(p.target, LEX) for p in pairs}
        for drop in range(len(pairs)):
            subset = [p for i, p in enumerate(pairs) if i != drop]
            kept = filter_corpus(subset, LEX)
            assert kept == [p for p in subset if full_verdicts[id(p)]]

