"""Corpus ingestion, preprocessing, filtering, and dataset splitting.

Raw commits (a diff plus its message) come in as line-delimited JSON
records.  The pipeline keeps the first sentence of each message, replaces
issue/commit ids with a placeholder, drops merge/rollback commits and
oversized diffs, tokenizes on whitespace and punctuation (CamelCase is
never split), enforces maximum sequence lengths, and finally produces
seeded train/valid/test splits and frequency-capped vocabularies.  It
also holds what the other stages share: Refusal, the one error of a
refused input; read_json_object, the one reader of every JSON input,
with its schema_problem check; and atomic_write, the one writer of every
artifact.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import os
import random
import re
import reprlib
import string
import types
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Iterable, Iterator

TokenSequence = list[str]

# Characters split into single-token punctuation.  Underscore is excluded
# so snake_case identifiers survive as single tokens, mirroring the
# CamelCase rule.
PUNCTUATION = frozenset(string.punctuation) - {"_"}

# Placeholder substituted for stripped ids; kept atomic by tokenize().
ID_PLACEHOLDER = "<id>"

# A token is the placeholder, one punctuation character, or a maximal run
# of anything else that is not whitespace (re's \s is str.isspace, the
# whitespace str.split() splits on).  The placeholder is tried first.
_PUNCT_CLASS = re.escape("".join(sorted(PUNCTUATION)))
_TOKEN_RE = re.compile(rf"{re.escape(ID_PLACEHOLDER)}|[{_PUNCT_CLASS}]|[^\s{_PUNCT_CLASS}]+")

# Special vocabulary symbols, pinned to the four lowest indices.
PAD, UNK, START, EOS = "<pad>", "<unk>", "<start>", "<eos>"
SPECIALS = (PAD, UNK, START, EOS)
PAD_ID, UNK_ID, START_ID, EOS_ID = range(4)

_ISSUE_ID_RE = re.compile(r"#\d+")
# A sentence ends at a newline or at whitespace (str.isspace) after a period.
_SENTENCE_END_RE = re.compile(r"\n|(?<=\.)\s")
# Standalone hexadecimal run of >= 7 chars: commit hashes, full or abbreviated.
_COMMIT_ID_RE = re.compile(r"(?<![0-9A-Za-z_])[0-9a-fA-F]{7,}(?![0-9A-Za-z_])")
# Where a bounded preprocess_source may end its prefix, as no token or id
# goes on there: before whitespace, or punctuation but the placeholder's ">".
_CUT_RE = re.compile(rf"\s|(?<!<id)[{_PUNCT_CLASS}]")
# First prefix preprocess_source tries per token it needs; diff tokens
# average 5-6 characters with their whitespace.
_PREFIX_CHARS_PER_TOKEN = 8

MERGE_ROLLBACK_PREFIXES = ("merge", "revert", "rollback", "roll back")


class Refusal(ValueError):
    """An input or artifact that cannot be used: the file at path (or the
    source a text came from) and the reason, as the text "<path>: <reason>"."""

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")


@contextlib.contextmanager
def refusing(path: str | Path, where: str = "") -> Iterator[None]:
    """Raise a ValueError from the block, which a library function raises
    for its arguments and which names no file, as a Refusal naming path,
    its reason prefixed by where (say "line 3: key 'scores': ")."""
    try:
        yield
    except ValueError as exc:
        raise Refusal(path, where + str(exc)) from exc


@dataclass(frozen=True)
class Commit:
    """A raw diff paired with its human-written message."""

    id: str
    diff_text: str
    message_text: str


def atomic_write(path: str | Path, data: str | Iterable[bytes]) -> None:
    """Write data, text as UTF-8 or byte buffers one by one, so that path
    holds its old bytes or all of data: the parent directory is created,
    and a hidden temp file next to path is fsynced and renamed over path,
    or removed on any exception."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    blocks = [data.encode("utf-8")] if isinstance(data, str) else data
    try:
        with open(tmp, "wb") as handle:
            for block in blocks:
                handle.write(block)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The JSON types of the values each scalar annotation admits: a bool is
# not an int, and an int may stand for a float
_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool},
               type(None): {type(None)}, list: {list}, dict: {dict}}

# The comparisons a bound such as ">= 1" may use
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


@functools.cache
def field_types(cls: type) -> dict:
    """{name: annotation} of a dataclass's fields, Annotated bounds kept:
    its schema (one dict per class, shared by every caller, so read-only)."""
    return typing.get_type_hints(cls, include_extras=True)


def _finite(values: Iterable) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond float range
        return False


def _encodable(value: object) -> bool:
    """value is not a str that UTF-8 cannot encode: one with a lone
    surrogate, which a JSON "\\udXXX" escape outside a pair decodes to."""
    try:  # a non-ASCII str is not empty, and neither is its encoding
        return type(value) is not str or value.isascii() or bool(value.encode("utf-8"))
    except UnicodeEncodeError:
        return False


def _admits(annotation: object) -> Callable[[object], bool]:
    """The test that a value matches annotation: a key of _JSON_TYPES, a
    union of them (float only in float | None), or list[X] or dict[str, X]
    of one (a JSON object's keys are strings).  A float must be finite and
    a str UTF-8 encodable (see _encodable)."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (list, dict):
        kinds = _JSON_TYPES[args[-1]]

        def each(value: object) -> bool:
            if type(value) is not origin:
                return False
            items = value.values() if origin is dict else value
            return (set(map(type, items)) <= kinds and (float not in kinds or _finite(items))
                    and (str not in kinds or all(map(_encodable, items))))
        return each
    members = args if origin in (types.UnionType, typing.Union) else (annotation,)
    kinds = set().union(*(_JSON_TYPES[member] for member in members))
    if float not in kinds:
        return lambda value: type(value) in kinds and _encodable(value)
    return lambda value: type(value) in kinds and (value is None or _finite((value,)))


def _rule(annotation: object) -> tuple[Callable[[object], bool], str, Callable[[object], bool], str]:
    """(type test, type name, range test, range text) of annotation.

    The range comes from Annotated metadata, each item "<op> <number>" with
    op one of _COMPARE, as in Annotated[float, "> 0", "< 1"]; None, where
    the type admits it, is in range, and so is anything without metadata."""
    bounds: tuple[str, ...] = ()
    if typing.get_origin(annotation) is Annotated:
        annotation, bounds = annotation.__origin__, annotation.__metadata__
    tests = [(_COMPARE[op], float(number)) for op, number in map(str.split, bounds)]

    def in_range(value: object) -> bool:
        if value is not None:
            for compare, limit in tests:
                if not compare(value, limit):
                    return False
        return True
    name = annotation.__name__ if annotation in _JSON_TYPES else str(annotation)
    return _admits(annotation), name, in_range, " and ".join(bounds)


class Schema(dict):
    """A record schema, {key: annotation} (see schema_problem), whose rules
    (see _rule) are built once, when it is."""

    def __init__(self, annotations: dict) -> None:
        super().__init__(annotations)
        self.rules = tuple((key, *_rule(annotation)) for key, annotation in self.items())

    @staticmethod
    @functools.cache
    def of(cls: type) -> "Schema":
        """The schema of a dataclass's fields (see field_types), one per class."""
        return Schema(field_types(cls))


def schema_problem(obj: dict, schema: Schema) -> str | None:
    """Describe the first key of schema that obj lacks, holds with a value
    its annotation does not admit (see _admits), or holds out of the
    annotation's range (see _rule), or return None."""
    for key, admits, name, in_range, bounds in schema.rules:
        if key not in obj:
            return f"lacks {key!r}"
        value = obj[key]
        if not admits(value):
            return f"key {key!r} must be {name}, got {reprlib.repr(value)}"
        if not in_range(value):
            return f"{key} must be {bounds}, got {reprlib.repr(value)}"
    return None


class Checked:
    """Base of the frozen config dataclasses: building one checks its fields
    against their annotations (see schema_problem), and a problem is a
    ValueError naming the key, so no unchecked config exists."""

    def __post_init__(self) -> None:
        if (problem := schema_problem(vars(self), Schema.of(type(self)))) is not None:
            raise ValueError(problem)


def read_json_object(data: str | bytes, schema: Schema, path: str | Path,
                     version: int | None = None, where: str | None = None) -> dict:
    """Parse data (text, or bytes that must be UTF-8) read from path, at where
    in it ("line 3"), as a JSON object that matches schema (see schema_problem)
    and, given a version, holds it as the integer "format_version"; anything
    else is a Refusal of path, its reason "[<where>: ]<problem>"."""
    at = "" if where is None else f"{where}: "
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, or not UTF-8
        raise Refusal(path, f"{at}invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise Refusal(path, f"{at}not a JSON object")
    found = obj.get("format_version")
    if version is not None and (type(found), found) != (int, version):
        raise Refusal(path, f"{at}format version {found} != {version}")
    if (problem := schema_problem(obj, schema)) is not None:
        raise Refusal(path, f"{at}{problem}")
    return obj


def read_text_lines(path: str | Path) -> io.StringIO:
    """A UTF-8 text file to iterate over by line, with the line ends open()
    reads; a byte that is not UTF-8 is a Refusal naming the line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise Refusal(path, f"line {line}: not UTF-8: {exc}") from exc


def read_jsonl(path: str | Path, schema: Schema) -> Iterator[tuple[str, dict]]:
    """Yield ("line <n>", object) for each non-blank line of a JSON-lines file.

    Bytes that are not UTF-8 decode to U+FFFD.  A line that read_json_object
    refuses is a Refusal naming the line and the problem.
    """
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                where = f"line {lineno}"
                yield where, read_json_object(line, schema, path, where=where)


_COMMIT_KEYS = Schema({"id": str | int, "diff": str, "message": str})


def _commit(path: str | Path, where: str, record: dict, seen: set[str]) -> Commit:
    """record's Commit, its id added to seen; an empty or seen id is refused."""
    commit_id = str(record["id"])
    if not commit_id:
        raise Refusal(path, f"{where}: empty id")
    if commit_id in seen:
        raise Refusal(path, f"{where}: duplicate id {commit_id!r}")
    seen.add(commit_id)
    return Commit(commit_id, record["diff"], record["message"])


def ingest_jsonl(path: str | Path) -> Iterator[Commit]:
    """The commits of a JSON-lines file, one per line, read as consumed (see read_jsonl).

    Each line must be an object whose "diff" and "message" are strings and
    whose "id" is a non-empty string or an integer.  A Refusal names the
    line and the key of a malformed record, and a duplicate id.
    """
    seen: set[str] = set()
    return (_commit(path, where, record, seen) for where, record in read_jsonl(path, _COMMIT_KEYS))


def extract_first_sentence(message_text: str) -> str:
    """Return the first sentence of a commit message.

    The sentence ends at the earliest of a newline or the whitespace that
    follows a period, so the terminal period itself is retained.
    """
    end = _SENTENCE_END_RE.search(message_text)
    return (message_text[: end.start()] if end else message_text).strip()


def strip_commit_ids(diff_text: str) -> str:
    """Replace each commit hash of a diff, a standalone hex run of 7+
    characters, with the placeholder token."""
    return _COMMIT_ID_RE.sub(ID_PLACEHOLDER, diff_text)


def is_merge_or_rollback(message_text: str) -> bool:
    """True if the first sentence announces a merge, revert, or rollback."""
    first = extract_first_sentence(message_text).lower()
    return first.startswith(MERGE_ROLLBACK_PREFIXES)


def tokenize(text: str) -> TokenSequence:
    """Split on whitespace, then split punctuation into single tokens.

    Identifiers are kept whole (no CamelCase or snake_case splitting) and
    the id placeholder survives as one token.
    """
    return _TOKEN_RE.findall(text)


def preprocess_source(diff_text: str, limit: int | None = None) -> TokenSequence:
    """Diff text -> source tokens: strip commit ids, tokenize.

    With a limit, stops after limit + 1 tokens: enough to tell whether the
    text exceeds the limit.  Only a prefix of the text is processed.  It
    ends before whitespace or punctuation (see _CUT_RE), where no id or
    token continues, so its tokens are the first tokens of the whole text;
    it doubles until it yields limit + 1 tokens or holds the whole text.
    """
    if limit is None:
        return tokenize(strip_commit_ids(diff_text))
    size = _PREFIX_CHARS_PER_TOKEN * (limit + 1)
    while True:
        cut = _CUT_RE.search(diff_text, size)
        end = cut.start() if cut else len(diff_text)
        tokens = _TOKEN_RE.findall(strip_commit_ids(diff_text[:end]))
        if len(tokens) > limit or end == len(diff_text):
            return tokens[: limit + 1]
        size = 2 * end


def source_counts(diff_text: str) -> Counter[str]:
    """Counter(preprocess_source(diff_text)), keys in first-occurrence order.

    Each distinct whitespace-separated chunk of the diff is stripped and
    tokenized once, and a chunk that occurs n times adds its tokens n - 1
    more times.  No id or token spans whitespace, so the counts are exact,
    and the distinct chunks keep first-occurrence order, so the tokens do.
    """
    chunks = Counter(diff_text.split())
    # "\n" is whitespace, as each chunk's neighbours in the diff are, so the
    # id pattern's boundary checks read the same
    stripped = strip_commit_ids("\n".join(chunks))
    counts = Counter(_TOKEN_RE.findall(stripped))
    for chunk, repeats in zip(stripped.split("\n"), chunks.values()):
        if repeats > 1:
            for token in _TOKEN_RE.findall(chunk):
                counts[token] += repeats - 1
    return counts


def preprocess_target(message_text: str) -> TokenSequence:
    """Message text -> target tokens: first sentence, issue ids like "#1234"
    replaced with the placeholder token, tokenize."""
    return tokenize(_ISSUE_ID_RE.sub(ID_PLACEHOLDER, extract_first_sentence(message_text)))


@dataclass(frozen=True)
class FilterConfig(Checked):
    """The limits apply_filters enforces; Hyperparams inherits them."""

    max_source_len: Annotated[int, ">= 1"] = 100
    max_target_len: Annotated[int, ">= 1"] = 30


# Removal reasons, in the order the checks run; the first failing check
# is the one reported.
REMOVAL_REASONS = (
    "merge_or_rollback",
    "diff_too_large",
    "source_too_long",
    "source_empty",
    "target_too_long",
    "target_empty",
)


@dataclass(frozen=True)
class PreparedCommit:
    """A commit after preprocessing: tokenized source/target plus its id."""

    id: str
    source: TokenSequence
    target: TokenSequence


MAX_DIFF_BYTES = 1_048_576  # the largest diff kept or decoded, in UTF-8 bytes


def diff_too_large(diff_text: str) -> bool:
    """The size rule, for prepare and generate alike: the diff's UTF-8
    encoding is over MAX_DIFF_BYTES."""
    return len(diff_text.encode("utf-8")) > MAX_DIFF_BYTES


def apply_filters(
    commits: Iterable[Commit], cfg: FilterConfig = FilterConfig()
) -> tuple[list[PreparedCommit], dict[str, int], int]:
    """Preprocess commits as they stream in; keep those that pass every filter.

    Checks run in REMOVAL_REASONS order; length limits are inclusive.
    Returns the kept commits, in input order, the number removed for each
    reason, keyed in REMOVAL_REASONS order, and the number of commits read.
    """
    removed = dict.fromkeys(REMOVAL_REASONS, 0)
    kept: list[PreparedCommit] = []
    read = 0
    for read, commit in enumerate(commits, start=1):
        if is_merge_or_rollback(commit.message_text):
            removed["merge_or_rollback"] += 1
            continue
        if diff_too_large(commit.diff_text):
            removed["diff_too_large"] += 1
            continue
        source = preprocess_source(commit.diff_text, cfg.max_source_len)
        if len(source) > cfg.max_source_len:
            removed["source_too_long"] += 1
            continue
        if not source:
            removed["source_empty"] += 1
            continue
        target = preprocess_target(commit.message_text)
        if len(target) > cfg.max_target_len:
            removed["target_too_long"] += 1
            continue
        if not target:
            removed["target_empty"] += 1
            continue
        kept.append(PreparedCommit(commit.id, source, target))
    return kept, removed, read


@dataclass
class Vocabulary:
    """Bidirectional token<->index map with reserved special symbols."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: TokenSequence, add_eos: bool = False) -> list[int]:
        ids = [self.token_to_id.get(token, UNK_ID) for token in tokens]
        if add_eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids: list[int]) -> TokenSequence:
        return [self.id_to_token[i] for i in ids]

    def save(self, path: str | Path) -> None:
        # Specials are implicit; line number = id - len(SPECIALS).
        atomic_write(path, "".join(token + "\n" for token in self.id_to_token[len(SPECIALS):]))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by save (see read_text_lines); a token listed
        twice, or spelled like a special symbol, is a Refusal naming the
        line."""
        id_to_token = list(SPECIALS)
        token_to_id = {token: i for i, token in enumerate(id_to_token)}
        for lineno, line in enumerate(read_text_lines(path), start=1):
            token = line.rstrip("\n")
            if token in token_to_id:
                raise Refusal(path, f"line {lineno}: duplicate token {token!r}")
            token_to_id[token] = len(id_to_token)
            id_to_token.append(token)
        return cls(token_to_id, id_to_token)


def build_vocab(sequences: list[TokenSequence], cap: int | None = None) -> Vocabulary:
    """Build a vocabulary from training sequences, most frequent first.

    With a cap, only the cap most frequent tokens are kept; ties at the
    boundary break lexicographically.  Tokens spelled like the special
    symbols are excluded (they would collide with the reserved indices).
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    counts: Counter[str] = Counter()
    for seq in sequences:
        counts.update(seq)
    for special in SPECIALS:
        counts.pop(special, None)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if cap is not None:
        ranked = ranked[:cap]
    id_to_token = list(SPECIALS) + [token for token, _ in ranked]
    token_to_id = {token: i for i, token in enumerate(id_to_token)}
    return Vocabulary(token_to_id, id_to_token)


SPLIT_PARTS = ("train", "valid", "test")


@dataclass
class DatasetSplit:
    train: list[PreparedCommit]
    valid: list[PreparedCommit]
    test: list[PreparedCommit]
    seed: int


def split_dataset(pairs: list[PreparedCommit], valid: int, test: int, seed: int) -> DatasetSplit:
    """Seeded uniform shuffle, then contiguous test/valid/train slices.

    valid and test are counts of pairs; train takes the remainder.
    Deterministic for a fixed seed.
    """
    total = len(pairs)
    if valid + test > total:
        raise ValueError(f"requested valid={valid} + test={test} exceeds corpus size {total}")
    order = list(pairs)
    random.Random(seed).shuffle(order)
    test_part = order[:test]
    valid_part = order[test : test + valid]
    train_part = order[test + valid :]
    return DatasetSplit(train=train_part, valid=valid_part, test=test_part, seed=seed)


def write_sequences(path: str | Path, sequences: list[TokenSequence]) -> None:
    atomic_write(path, (f"{' '.join(seq)}\n".encode("utf-8") for seq in sequences))


def read_sequences(path: str | Path) -> list[TokenSequence]:
    """Read a file written by write_sequences (see read_text_lines)."""
    sequences: list[TokenSequence] = []
    for line in read_text_lines(path):
        line = line.rstrip("\n")
        sequences.append(line.split(" ") if line else [])
    return sequences


def split_paths(split_dir: str | Path, part: str) -> tuple[Path, Path]:
    """The {part}.src.txt and {part}.tgt.txt files of a split directory."""
    return Path(split_dir, f"{part}.src.txt"), Path(split_dir, f"{part}.tgt.txt")


def write_split_files(split: DatasetSplit, out_dir: str | Path) -> None:
    """Write the three line-aligned {part}.src.txt / {part}.tgt.txt file pairs."""
    for part in SPLIT_PARTS:
        items: list[PreparedCommit] = getattr(split, part)
        src_path, tgt_path = split_paths(out_dir, part)
        write_sequences(src_path, [item.source for item in items])
        write_sequences(tgt_path, [item.target for item in items])


def read_split_files(split_dir: str | Path, seed: int) -> DatasetSplit:
    """Read the files write_split_files wrote; ids are "<part>-<line index>".

    A source/target pair that is not line-aligned is a Refusal of the target.
    """
    parts: dict[str, list[PreparedCommit]] = {}
    for part in SPLIT_PARTS:
        src_path, tgt_path = split_paths(split_dir, part)
        sources, targets = read_sequences(src_path), read_sequences(tgt_path)
        if len(sources) != len(targets):
            raise Refusal(tgt_path, f"files are not line-aligned: {len(targets)} lines against "
                                    f"{len(sources)} in {src_path}")
        parts[part] = [
            PreparedCommit(f"{part}-{i}", src, tgt)
            for i, (src, tgt) in enumerate(zip(sources, targets))
        ]
    return DatasetSplit(**parts, seed=seed)
