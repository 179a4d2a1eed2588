"""Corpus ingestion, preprocessing, filtering, and dataset splitting.

Raw commits (a diff plus its message) come in as line-delimited JSON
records or straight from a local git repository.  The pipeline keeps the
first sentence of each message, replaces issue/commit ids with a
placeholder, drops merge/rollback commits and oversized diffs, tokenizes
on whitespace and punctuation (CamelCase is never split), enforces
maximum sequence lengths, and finally produces seeded train/valid/test
splits and frequency-capped vocabularies.
"""

from __future__ import annotations

import json
import random
import re
import string
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

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

# Sides of a commit pair; selects which id patterns strip_ids applies.
SOURCE = "source"
TARGET = "target"

# Special vocabulary symbols, pinned to the four lowest indices.
PAD, UNK, START, EOS = "<pad>", "<unk>", "<start>", "<eos>"
SPECIALS = (PAD, UNK, START, EOS)
PAD_ID, UNK_ID, START_ID, EOS_ID = range(4)

_ISSUE_ID_RE = re.compile(r"#\d+")
# A sentence ends at a newline or at whitespace (str.isspace) after a period.
_SENTENCE_END_RE = re.compile(r"\n|(?<=\.)\s")
# Standalone hexadecimal run of >= 7 chars: commit hashes, full or abbreviated.
_COMMIT_ID_RE = re.compile(r"(?<![0-9A-Za-z_])[0-9a-fA-F]{7,}(?![0-9A-Za-z_])")
_SPACE_RE = re.compile(r"\s")
# First prefix preprocess_source tries per token it needs; diff tokens
# average 5-6 characters with their whitespace.
_PREFIX_CHARS_PER_TOKEN = 8

MERGE_ROLLBACK_PREFIXES = ("merge", "revert", "rollback", "roll back")


class CorpusFormatError(ValueError):
    """Malformed input corpus (bad record, duplicate id, missing field)."""


@dataclass(frozen=True)
class Commit:
    """A raw diff paired with its human-written message."""

    id: str
    diff_text: str
    message_text: str
    byte_size: int

    @classmethod
    def create(cls, commit_id: str, diff_text: str, message_text: str) -> "Commit":
        return cls(commit_id, diff_text, message_text, len(diff_text.encode("utf-8")))


def ingest_jsonl(path: str | Path) -> list[Commit]:
    """Read one commit per line from a JSON-lines file.

    Each line must be an object with "id", "diff", and "message" fields.
    Blank lines are skipped; bytes that are not UTF-8 decode to U+FFFD.
    Raises CorpusFormatError naming the line number for malformed records
    and for duplicate ids.
    """
    commits: list[Commit] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}: line {lineno}: record is not an object")
            missing = [key for key in ("id", "diff", "message") if key not in record]
            if missing:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: missing field(s) {', '.join(missing)}"
                )
            commit_id = str(record["id"])
            if not commit_id:
                raise CorpusFormatError(f"{path}: line {lineno}: empty id")
            if commit_id in seen:
                raise CorpusFormatError(f"{path}: line {lineno}: duplicate id {commit_id!r}")
            seen.add(commit_id)
            commits.append(Commit.create(commit_id, str(record["diff"]), str(record["message"])))
    return commits


@dataclass
class GitIngest:
    """Commits read from a repository plus a count of skipped revisions."""

    commits: list[Commit]
    skipped: int = 0
    warnings: list[str] = field(default_factory=list)


def _run_git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise CorpusFormatError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout


def ingest_git(repo_path: str | Path) -> GitIngest:
    """Read every non-initial revision of a local git repository.

    The diff is taken against the first parent, so merge commits are
    ingested too (they are filtered out later by apply_filters).
    Unreadable revisions are skipped and counted in the result.
    """
    repo = Path(repo_path)
    if not repo.is_dir():
        raise CorpusFormatError(f"{repo}: not a directory")
    probe = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--git-dir"],
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        raise CorpusFormatError(f"{repo}: not a git repository")
    head = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", "HEAD"],
        capture_output=True,
        text=True,
    )
    if head.returncode != 0:  # repository with no commits yet
        return GitIngest([])

    # One record per commit: hash \x01 parents \x01 raw message, NUL-terminated.
    log = _run_git(repo, "log", "--reverse", "-z", "--format=%H%x01%P%x01%B")
    result = GitIngest([])
    for record in log.split("\0"):
        if not record:
            continue
        commit_hash, parents, message = record.split("\x01", 2)
        parent_list = parents.split()
        if not parent_list:  # initial commit has no parent diff
            continue
        diff_proc = subprocess.run(
            ["git", "-C", str(repo), "diff", parent_list[0], commit_hash],
            capture_output=True,
            text=True,
            errors="replace",
        )
        if diff_proc.returncode != 0:
            result.skipped += 1
            result.warnings.append(f"{commit_hash}: {diff_proc.stderr.strip()}")
            continue
        result.commits.append(Commit.create(commit_hash, diff_proc.stdout, message))
    return result


def extract_first_sentence(message_text: str) -> str:
    """Return the first sentence of a commit message.

    The sentence ends at the earliest of a newline or the whitespace that
    follows a period, so the terminal period itself is retained.
    """
    end = _SENTENCE_END_RE.search(message_text)
    return (message_text[: end.start()] if end else message_text).strip()


def strip_ids(text: str, kind: str) -> str:
    """Replace unique ids with the placeholder token.

    Messages (kind=TARGET) carry issue ids like "#1234"; diffs
    (kind=SOURCE) carry commit hashes: standalone hex runs of 7+ chars.
    """
    if kind == TARGET:
        return _ISSUE_ID_RE.sub(ID_PLACEHOLDER, text)
    if kind == SOURCE:
        return _COMMIT_ID_RE.sub(ID_PLACEHOLDER, text)
    raise ValueError(f"kind must be {SOURCE!r} or {TARGET!r}, got {kind!r}")


def is_merge_or_rollback(message_text: str) -> bool:
    """True if the first sentence announces a merge, revert, or rollback."""
    first = extract_first_sentence(message_text).lower()
    return first.startswith(MERGE_ROLLBACK_PREFIXES)


def tokenize(text: str, limit: int | None = None) -> TokenSequence:
    """Split on whitespace, then split punctuation into single tokens.

    Identifiers are kept whole (no CamelCase or snake_case splitting) and
    the id placeholder survives as one token.  With a limit, stops after
    limit + 1 tokens: enough to tell whether the text exceeds the limit.
    """
    if limit is None:
        return _TOKEN_RE.findall(text)
    return [match.group() for match in islice(_TOKEN_RE.finditer(text), limit + 1)]


def preprocess_source(diff_text: str, limit: int | None = None) -> TokenSequence:
    """Diff text -> source tokens: strip commit ids, tokenize (see tokenize's limit).

    With a limit, only a prefix of the text is processed.  It ends before a
    whitespace character, which no id or token spans, so its tokens are the
    first tokens of the whole text; it doubles until it yields limit + 1
    tokens or holds the whole text.
    """
    if limit is None:
        return tokenize(strip_ids(diff_text, SOURCE))
    size = _PREFIX_CHARS_PER_TOKEN * (limit + 1)
    while True:
        space = _SPACE_RE.search(diff_text, size)
        end = space.start() if space else len(diff_text)
        tokens = tokenize(strip_ids(diff_text[:end], SOURCE), limit)
        if len(tokens) > limit or end == len(diff_text):
            return tokens
        size = 2 * end


def preprocess_target(message_text: str) -> TokenSequence:
    """Message text -> target tokens: first sentence, strip issue ids, tokenize."""
    return tokenize(strip_ids(extract_first_sentence(message_text), TARGET))


@dataclass(frozen=True)
class FilterConfig:
    max_source_len: int = 100
    max_target_len: int = 30
    max_diff_bytes: int = 1_048_576


# Removal reasons, in the order the checks run; the first failing check
# is the one reported.
REMOVAL_REASONS = (
    "merge_or_rollback",
    "diff_too_large",
    "source_too_long",
    "target_too_long",
    "target_empty",
)


@dataclass(frozen=True)
class PreparedCommit:
    """A commit after preprocessing: tokenized source/target plus its id."""

    id: str
    source: TokenSequence
    target: TokenSequence


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    removed: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REMOVAL_REASONS}
    )

    @property
    def removed_total(self) -> int:
        return sum(self.removed.values())


def apply_filters(
    commits: list[Commit], cfg: FilterConfig = FilterConfig()
) -> tuple[list[PreparedCommit], FilterReport]:
    """Preprocess commits and keep only the ones that pass every filter.

    Checks run in REMOVAL_REASONS order; length limits are inclusive.
    Input order is preserved for the kept commits.
    """
    report = FilterReport(input_count=len(commits))
    kept: list[PreparedCommit] = []
    for commit in commits:
        if is_merge_or_rollback(commit.message_text):
            report.removed["merge_or_rollback"] += 1
            continue
        if commit.byte_size > cfg.max_diff_bytes:
            report.removed["diff_too_large"] += 1
            continue
        source = preprocess_source(commit.diff_text, cfg.max_source_len)
        if len(source) > cfg.max_source_len:
            report.removed["source_too_long"] += 1
            continue
        target = preprocess_target(commit.message_text)
        if len(target) > cfg.max_target_len:
            report.removed["target_too_long"] += 1
            continue
        if not target:
            report.removed["target_empty"] += 1
            continue
        kept.append(PreparedCommit(commit.id, source, target))
    report.kept_count = len(kept)
    return kept, report


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
        with open(path, "w", encoding="utf-8") as handle:
            for token in self.id_to_token[len(SPECIALS):]:
                handle.write(token + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by save; a token listed twice, or spelled like
        a special symbol, is a CorpusFormatError naming the line."""
        id_to_token = list(SPECIALS)
        token_to_id = {token: i for i, token in enumerate(id_to_token)}
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                token = line.rstrip("\n")
                if token in token_to_id:
                    raise CorpusFormatError(f"{path}: line {lineno}: duplicate token {token!r}")
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


@dataclass
class DatasetSplit:
    train: list[PreparedCommit]
    valid: list[PreparedCommit]
    test: list[PreparedCommit]
    seed: int


def _part_size(requested: int | float, total: int, name: str) -> int:
    if isinstance(requested, bool) or requested is None:
        raise ValueError(f"{name} must be an int count or float fraction")
    if isinstance(requested, float):
        if not 0.0 <= requested <= 1.0:
            raise ValueError(f"{name} fraction must be in [0, 1], got {requested}")
        return int(requested * total + 1e-9)
    if requested < 0:
        raise ValueError(f"{name} count must be >= 0, got {requested}")
    return requested


def split_dataset(
    pairs: list[PreparedCommit],
    valid: int | float,
    test: int | float,
    seed: int,
) -> DatasetSplit:
    """Seeded uniform shuffle, then contiguous test/valid/train slices.

    valid and test are absolute counts (int) or fractions (float) of the
    corpus; train takes the remainder.  Deterministic for a fixed seed.
    """
    total = len(pairs)
    valid_n = _part_size(valid, total, "valid")
    test_n = _part_size(test, total, "test")
    if valid_n + test_n > total:
        raise ValueError(
            f"requested valid={valid_n} + test={test_n} exceeds corpus size {total}"
        )
    order = list(pairs)
    random.Random(seed).shuffle(order)
    test_part = order[:test_n]
    valid_part = order[test_n : test_n + valid_n]
    train_part = order[test_n + valid_n :]
    return DatasetSplit(train=train_part, valid=valid_part, test=test_part, seed=seed)


def write_sequences(path: str | Path, sequences: list[TokenSequence]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for seq in sequences:
            handle.write(" ".join(seq) + "\n")


def read_sequences(path: str | Path) -> list[TokenSequence]:
    sequences: list[TokenSequence] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            sequences.append(line.split(" ") if line else [])
    return sequences


SPLIT_FILE_NAMES = {
    ("train", SOURCE): "train.src.txt",
    ("train", TARGET): "train.tgt.txt",
    ("valid", SOURCE): "valid.src.txt",
    ("valid", TARGET): "valid.tgt.txt",
    ("test", SOURCE): "test.src.txt",
    ("test", TARGET): "test.tgt.txt",
}


def write_split_files(split: DatasetSplit, out_dir: str | Path) -> dict[str, Path]:
    """Write the three line-aligned source/target file pairs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for part_name in ("train", "valid", "test"):
        part: list[PreparedCommit] = getattr(split, part_name)
        src_path = out / SPLIT_FILE_NAMES[(part_name, SOURCE)]
        tgt_path = out / SPLIT_FILE_NAMES[(part_name, TARGET)]
        write_sequences(src_path, [item.source for item in part])
        write_sequences(tgt_path, [item.target for item in part])
        paths[f"{part_name}.src"] = src_path
        paths[f"{part_name}.tgt"] = tgt_path
    return paths
