"""Seeded synthetic inputs for the benchmark: corpora, gold sets, diff streams.

Everything is generated in-process from the seed with numpy and the standard
library; nothing is downloaded and no binary data is committed.  Commit
messages follow one template whose first two words name the edit the diff
makes ("fix check to handle missing values in this module."): every target
has ten tokens and ends in the same phrase.  A model trained for two short
epochs learns that phrase and where it ends, so its BLEU and its output
lengths, and with them the decoding time, barely move from seed to seed,
while a broken model or decoder still drops BLEU to near zero.  Identifier
slots in the messages made beam search (which does not normalise for
length) stop early on some seeds and not on others, and targets that could
go on after the phrase kept runaway hypotheses alive for up to 30 steps.

Each generator function returns the records together with the shares it put in them,
so a run can report the traffic mix it measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_DIFF_BYTES = 1_048_576  # the program's default diff-size cap

_WORDS = """
account action adapter address agent alert archive array asset audit batch
bill block blob bucket buffer build bundle cache callback cart channel chart
chunk claim client cluster column command config cookie counter cursor
customer delta device digest draft dealer entry event export feature field
filter frame graph group handler header image index invoice item job key
label layer ledger limit link list loader lock log mailbox manifest matrix
member message meta metric mode model node notice offset order owner packet
page panel parser patch payload peer plugin policy pool port profile prompt
proxy queue quota reader record region report request result role route
rule sample schema scope score session shard signal slot snapshot socket
source span stage state status stream style task tenant thread ticket timer
token topic trace tracker user value vault vector view volume wallet widget
window worker writer zone
""".split()

_VERBS = """
get set load save build make read write parse format check find fetch send
push pop open close init reset apply merge split update create delete
""".split()

_DIRS = ["src", "lib", "core", "app", "pkg", "server", "client", "util"]


@dataclass
class Names:
    """Per-seed identifier pools; their sizes bound the vocabularies."""

    calls: list[str]
    values: list[str]
    modules: list[str]
    consts: list[str]
    hashes: list[str]


def _names(rng: np.random.Generator, n_calls: int = 120, n_values: int = 120,
           n_modules: int = 40, n_consts: int = 30, n_hashes: int = 200) -> Names:
    def pick(n: int, make) -> list[str]:
        out: set[str] = set()
        while len(out) < n:
            out.add(make())
        return sorted(out)

    def word() -> str:
        return _WORDS[int(rng.integers(len(_WORDS)))]

    def verb() -> str:
        return _VERBS[int(rng.integers(len(_VERBS)))]

    return Names(
        calls=pick(n_calls, lambda: verb() + word().capitalize()),
        values=pick(n_values, lambda: word() + "_" + word()),
        modules=pick(n_modules, lambda: word() + "_" + word()),
        consts=pick(n_consts, lambda: (word() + "_" + word()).upper()),
        hashes=pick(n_hashes, lambda: _hex(rng, 24)),
    )


def _choice(rng: np.random.Generator, items: list[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _hex(rng: np.random.Generator, n: int = 7) -> str:
    return "".join("0123456789abcdef"[int(d)] for d in rng.integers(16, size=n))


def _context_line(rng: np.random.Generator, names: Names) -> str:
    kind = int(rng.integers(5))
    a, b = _choice(rng, names.values), _choice(rng, names.values)
    call = _choice(rng, names.calls)
    if kind == 0:
        return f"    {a} = {call}({b})"
    if kind == 1:
        return f"    if {a} is not None:"
    if kind == 2:
        return f"        return self.{a}"
    if kind == 3:
        return f"    for {a} in {b}:"
    return f"    {call}({a}, {int(rng.integers(100))})"


def _hunk(rng: np.random.Generator, names: Names, changed: list[str],
          context: int, pool: list[str] | None = None) -> list[str]:
    """A unified-diff hunk with `changed` lines inside `context` context lines,
    drawn from `pool` when given (fast for long hunks)."""
    before = int(rng.integers(context + 1))
    start = int(rng.integers(1, 400))
    minus = sum(1 for line in changed if line.startswith("-"))
    plus = sum(1 for line in changed if line.startswith("+"))
    if pool is None:
        around = [" " + _context_line(rng, names) for _ in range(context)]
    else:
        around = [" " + pool[int(i)] for i in rng.integers(len(pool), size=context)]
    lines = [f"@@ -{start},{context + minus} +{start},{context + plus} @@"]
    return lines + around[:before] + changed + around[before:]


def _context(rng: np.random.Generator) -> int:
    """Context lines of an ordinary commit; keeps sources well under 100 tokens."""
    return int(rng.integers(1, 4))


# Message kinds: each pairs a diff edit with a template built from it.
KINDS = ("add", "remove", "fix", "rename", "update")


def _commit(rng: np.random.Generator, names: Names, context: int,
            pool: list[str] | None = None) -> tuple[str, str]:
    """(diff, message) of one templated commit with `context` context lines."""
    module = _choice(rng, names.modules)
    path = f"{_choice(rng, _DIRS)}/{module}.py"
    kind = KINDS[int(rng.integers(len(KINDS)))]
    call, value = _choice(rng, names.calls), _choice(rng, names.values)
    if kind == "add":
        changed = [f"+    {value} = {call}({value})"]
        noun = "call"
    elif kind == "remove":
        changed = [f"-    {call}({value})"]
        noun = "call"
    elif kind == "fix":
        changed = [f"-    if {value} == None:", f"+    if {value} is None:"]
        noun = "check"
    elif kind == "rename":
        new = _choice(rng, names.calls)
        changed = [f"-def {call}(self, {value}):", f"+def {new}(self, {value}):"]
        noun = "method"
    else:
        const = _choice(rng, names.consts)
        old, new_value = int(rng.integers(1, 64)), int(rng.integers(64, 512))
        changed = [f"-{const} = {old}", f"+{const} = {new_value}"]
        noun = "default"
    message = f"{kind} {noun} to handle missing values in this module."
    lines = [f"--- a/{path}", f"+++ b/{path}"] + _hunk(rng, names, changed, context, pool)
    return "\n".join(lines) + "\n", message


def _big_diff(rng: np.random.Generator, names: Names, target_bytes: int) -> str:
    """A diff of about target_bytes bytes: one file edited throughout, one
    added line in three, as in the templated commits, so the QA gate
    treats it as the code diff it is (an all-added diff looks like the
    lock-file churn the gate refuses, and was refused on some seeds)."""
    module = _choice(rng, names.modules)
    lines = [f"--- a/src/{module}.py", f"+++ b/src/{module}.py", "@@ -1,1 +1,1 @@"]
    block = [" +"[i % 3 == 2] + _context_line(rng, names) for i in range(256)]
    size = sum(len(line) + 1 for line in lines)
    i = 0
    while size < target_bytes:
        line = block[i % len(block)]
        lines.append(line)
        size += len(line) + 1
        i += 1
    return "\n".join(lines) + "\n"


def _generated_diff(rng: np.random.Generator, names: Names, lines: int) -> str:
    """Lock-file churn: the kind of diff the QA gate learns to refuse."""
    out = ["--- a/package-lock.json", "+++ b/package-lock.json", f"@@ -1,{lines} +1,{lines} @@"]
    for _ in range(lines):
        sign = "-" if rng.random() < 0.5 else "+"
        out.append(f'{sign}      "integrity": "sha512-{_choice(rng, names.hashes)}=="')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Corpora for `prepare`

# Funnel counters of the `prepare` report that the generator predicts.
_REASONS = ("merge_or_rollback", "diff_too_large", "source_too_long",
            "target_too_long", "target_empty", "vdo_removed")

# Message forms the funnel removes.
_MERGES = ("Merge branch 'feature/{m}' into main", "Revert \"{msg}\"")
_NON_VDO = ("version bump", "wip", "minor cleanup", "typo", "more tests for {m}")


@dataclass
class Corpus:
    """JSON-lines records, the shares the generator put in them, and the
    funnel counts `prepare` must report for them."""

    records: list[dict]
    shares: dict[str, float]
    expected_funnel: dict[str, int]

    def write(self, path: Path) -> int:
        """Write the corpus as JSON lines; returns the byte count."""
        text = "".join(json.dumps(record) + "\n" for record in self.records)
        data = text.encode("utf-8")
        path.write_bytes(data)
        return len(data)


def _funnel(ingested: int, **removed: int) -> dict[str, int]:
    funnel = {reason: 0 for reason in _REASONS}
    funnel.update(removed, ingested=ingested)
    return funnel


def clean_corpus(seed: int, count: int) -> Corpus:
    """Templated commits that all pass the filters."""
    rng = np.random.default_rng([seed, 1])
    names = _names(np.random.default_rng([seed, 0]))
    records = []
    for i in range(count):
        diff, message = _commit(rng, names, _context(rng))
        records.append({"id": f"c{i:06d}", "diff": diff, "message": message})
    return Corpus(records, {"kept": 1.0}, _funnel(count))


# The paper's crawl (Jiang, Armaly and McMillan, ASE 2017, data-set section):
# about 2M commits from the top 1k GitHub projects, about 75k of them left
# after the 1 MB cap and the 100/30-token limits, about 32k after V-DO.
PAPER_CRAWLED, PAPER_AFTER_LIMITS, PAPER_AFTER_VDO = 2_000_000, 75_000, 32_000

# Messy-corpus shares that the paper does not report or that cannot be run
# at benchmark size, per kept commit (see messy_corpus).
LONG_PER_KEPT = 0.3      # diffs over 100 tokens
MERGE_PER_KEPT = 0.1     # merges and reverts
LONG_LINES = (24, 1500)  # context lines of a long diff, log-uniform


def messy_corpus(seed: int, kept: int) -> Corpus:
    """A corpus that exercises every filter of `prepare`, with `kept` commits
    that survive it.

    The V-DO filter removes the paper's share of the commits that pass the
    length limits (1 - 32k/75k, about 57%).  The paper's share of diffs over
    100 tokens (about 25 per kept commit) would leave `prepare` with nothing
    but tokenizing, so there are LONG_PER_KEPT of them instead, sized
    log-uniformly from 24 to 1500 context lines, one in each of equal
    strata, so every seed gives about the same bytes to tokenize: they stay
    the largest removed group by bytes, spread over many records.  Merges and reverts
    (not counted in the paper) are MERGE_PER_KEPT per kept commit; 2% of the
    kept messages carry a second sentence with an issue id.  The tail is one
    diff 48 KB under the 1 MB byte cap (tokenized, then dropped as too long)
    and one just over it.  Records are shuffled.
    """
    rng = np.random.default_rng([seed, 2])
    names = _names(np.random.default_rng([seed, 0]))
    pool = [_context_line(rng, names) for _ in range(512)]
    vdo_removed = 1.0 - PAPER_AFTER_VDO / PAPER_AFTER_LIMITS
    counts = {
        "kept": kept,
        "non_vdo": round(kept * vdo_removed / (1.0 - vdo_removed)),
        "long": round(kept * LONG_PER_KEPT),
        "merge_or_revert": round(kept * MERGE_PER_KEPT),
        "near_1mb": 1,
        "over_1mb": 1,
    }
    drawn = []   # (kind, diff, message)
    for _ in range(kept):
        diff, message = _commit(rng, names, _context(rng))
        if rng.random() < 0.02:
            message += f" Also tidy imports (#{int(rng.integers(1, 9999))})."
        drawn.append(("kept", diff, message))
    for _ in range(counts["non_vdo"]):
        diff, _ = _commit(rng, names, _context(rng))
        template = _NON_VDO[int(rng.integers(len(_NON_VDO)))]
        drawn.append(("non_vdo", diff, template.format(m=_choice(rng, names.modules))))
    low, high = np.log(LONG_LINES[0]), np.log(LONG_LINES[1])
    for i in range(counts["long"]):
        lines = int(np.exp(low + (high - low) * (i + rng.random()) / counts["long"]))
        drawn.append(("long",) + _commit(rng, names, lines, pool))
    for _ in range(counts["merge_or_revert"]):
        diff, message = _commit(rng, names, _context(rng))
        template = _MERGES[int(rng.integers(len(_MERGES)))]
        message = template.format(m=_choice(rng, names.modules), msg=message)
        drawn.append(("merge_or_revert", diff, message))
    for kind, size in (("near_1mb", MAX_DIFF_BYTES - 48_000), ("over_1mb", MAX_DIFF_BYTES + 4_096)):
        drawn.append((kind, _big_diff(rng, names, size), "rewrite generated module"))
    drawn = [drawn[int(j)] for j in rng.permutation(len(drawn))]
    records = [
        {"id": f"m{i:06d}", "diff": f"index {_hex(rng)}..{_hex(rng)} 100644\n" + diff,
         "message": message}
        for i, (_, diff, message) in enumerate(drawn)
    ]
    diff_bytes = {kind: 0 for kind in counts}
    for (kind, _, _), record in zip(drawn, records):
        diff_bytes[kind] += len(record["diff"])
    total_bytes = sum(diff_bytes.values())
    shares = {k: v / len(records) for k, v in counts.items()}
    shares.update({f"{k}_diff_bytes": v / total_bytes for k, v in diff_bytes.items()})
    funnel = _funnel(
        len(records),
        merge_or_rollback=counts["merge_or_revert"],
        diff_too_large=counts["over_1mb"],
        source_too_long=counts["long"] + counts["near_1mb"],
        vdo_removed=counts["non_vdo"],
    )
    return Corpus(records, shares, funnel)


# ---------------------------------------------------------------------------
# QA gold sets and generate streams


def gold_set(seed: int, count: int, bad_share: float = 0.3, noise: float = 0.08) -> list[dict]:
    """Scored diffs for the QA gate.

    Lock-file churn scores 0-1 ("bad"); templated code diffs score 3-7.  A
    `noise` share of records gets the other class's scores, so precision
    and recall stay below 1 and move when the classifier changes.
    """
    rng = np.random.default_rng([seed, 3])
    names = _names(np.random.default_rng([seed, 0]))
    records = []
    for i in range(count):
        bad = rng.random() < bad_share
        if bad:
            diff = _generated_diff(rng, names, int(rng.integers(4, 12)))
        else:
            diff, _ = _commit(rng, names, _context(rng))
        label_bad = bad != (rng.random() < noise)
        n_scores = int(rng.integers(1, 4))
        low, high = (0, 2) if label_bad else (3, 8)
        scores = [int(s) for s in rng.integers(low, high, size=n_scores)]
        records.append({"id": f"g{i:06d}", "diff": diff, "scores": scores})
    return records


@dataclass
class Stream:
    """Raw diffs sent to `generate`, one request each, plus their shares."""

    diffs: list[str]
    warmup: str          # one more templated commit, for an untimed first request
    shares: dict[str, float]


def diff_stream(seed: int, count: int, gated_share: float, large_share: float) -> Stream:
    """A seeded request stream for `generate`.

    `gated_share` of the diffs are lock-file churn that the QA gate refuses;
    `large_share` are code diffs between 256 KB and the 1 MB cap, one of
    them 48 KB under the cap and the others one in each of equal size
    strata, so every seed sends the same spread of sizes; the rest are
    templated commits.  The order is shuffled so the costly requests are
    spread through the pass.  A further templated commit, not in the
    stream, serves as the warm-up request.
    """
    rng = np.random.default_rng([seed, 4])
    names = _names(np.random.default_rng([seed, 0]))
    n_gated = round(count * gated_share)
    n_large = round(count * large_share)
    diffs = [_generated_diff(rng, names, int(rng.integers(4, 12))) for _ in range(n_gated)]
    low, high = 256_000, MAX_DIFF_BYTES - 64_000
    step = (high - low) / max(n_large - 1, 1)
    sizes = [MAX_DIFF_BYTES - 48_000] + [int(low + step * (i + rng.random())) for i in range(n_large - 1)]
    diffs += [_big_diff(rng, names, size) for size in sizes[:n_large]]
    diffs += [_commit(rng, names, _context(rng))[0] for _ in range(count - n_gated - n_large)]
    order = rng.permutation(len(diffs))
    diffs = [diffs[i] for i in order]
    near = sum(1 for d in diffs if len(d.encode("utf-8")) > MAX_DIFF_BYTES - 65_536)
    warmup = _commit(rng, names, _context(rng))[0]
    return Stream(diffs, warmup, {
        "gate_target": n_gated / count,
        "large_256kb_to_1mb": n_large / count,
        "near_1mb": near / count,
    })
