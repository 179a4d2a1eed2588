"""Pipeline orchestration and command-line interface.

Subcommands: prepare, train, generate, evaluate, qa train|crossval|report.
Exit codes are a stable contract: 0 for success with a message, 2 when the
warning stands in for one (the diff is over corpus.MAX_DIFF_BYTES or holds no
source token, the quality gate flagged it, or the model gave an empty
message), 1 for any error, a usage error included.  main reports a refused
input (corpus.Refusal), an OSError or a diverged run; any other exception is a bug and propagates.

A process keeps one loaded run, the vocabularies, the QA model and the
stacked ensemble its last loads read, and reuses each while its files are
unchanged (see _reuse), so in-process callers such as a service that calls
cmd_generate per request read them once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, TypeVar

from . import bleu, corpus, qa
from .corpus import (
    DatasetSplit,
    Refusal,
    Schema,
    Vocabulary,
    apply_filters,
    atomic_write,
    build_vocab,
    diff_too_large,
    field_types,
    ingest_jsonl,
    preprocess_source,
    read_json_object,
    read_split_files,
    refusing,
    source_counts,
    split_dataset,
    split_paths,
    write_split_files,
)
from .nmt import (Hyperparams, ModelParams, beam_search, checkpoint_paths, ensemble_decode,
                  load_checkpoint, source_ids, train)
from .nmt.model import empty_aligned, model_dims, param_count
from .vdo import filter_corpus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2

WARNING_TEXT = "WARNING: unable to generate a reliable commit message for this diff."

_ANY_OBJECT = Schema({})  # a config file is any JSON object; from_json checks its keys


def _in_work_dir(name: str) -> property:
    return property(lambda self: Path(self.work_dir) / name, doc=f"work_dir / {name!r}")


@dataclass(frozen=True)
class PipelineConfig(Hyperparams):
    """Every knob of the pipeline; round-trips through JSON.

    The model and training fields, the filter limits and the seed are the
    inherited Hyperparams fields.  Building one checks them all (see
    corpus.Checked).  Its own fields are two paths with defaults, the
    corpus and the work dir, and the two split sizes."""

    # input corpus, which only prepare reads
    corpus_jsonl: str = "corpus.jsonl"
    # artifact directory
    work_dir: str = "work"
    # split sizes in pairs: the paper's validation and test sets of its 32K-pair corpus
    valid_size: Annotated[int, ">= 0"] = 3000
    test_size: Annotated[int, ">= 0"] = 3000

    @classmethod
    def from_json(cls, text: str | bytes, source: str = "config") -> "PipelineConfig":
        """Parse a config object (see read_json_object); a key that is
        unknown, mistyped or out of range is a Refusal naming source and
        the key."""
        data = read_json_object(text, _ANY_OBJECT, source)
        unknown = set(data) - set(field_types(cls))
        if unknown:
            raise Refusal(source, f"unknown config keys: {', '.join(sorted(unknown))}")
        with refusing(source):  # the message names the key
            return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json(Path(path).read_bytes(), source=str(path))

    # derived paths
    split_dir = _in_work_dir("splits")
    src_vocab_path = _in_work_dir("vocab.src.txt")
    tgt_vocab_path = _in_work_dir("vocab.tgt.txt")
    prepare_report_path = _in_work_dir("prepare_report.json")
    checkpoint_dir = _in_work_dir("checkpoints")
    train_log_path = _in_work_dir("train.log")
    eval_report_path = _in_work_dir("eval_report.txt")
    qa_model_path = _in_work_dir("qa_model.json")


def _not_found(path: str | Path, what: str, stage: str | None = None) -> Refusal:
    """The one error for a missing input or artifact:
    "<path>: <what> not found[; run <stage> first]"."""
    return Refusal(path, f"{what} not found" + (f"; run {stage} first" if stage else ""))


def _existing(path: str | Path, what: str, stage: str | None = None) -> Path:
    """path, if it names a file; else _not_found(path, what, stage)."""
    if not Path(path).is_file():
        raise _not_found(path, what, stage)
    return Path(path)


# A file whose ctime is less than this before a load began may still change
# within one filesystem timestamp tick and keep its stat (git's racy-clean
# rule), so that load is never reused.
RACY_WINDOW_NS = 1_000_000_000

# The loaded run: for each kind of artifact, the key of its last kept load
# and what that load returned (see _reuse).  cmd_prepare, cmd_train and
# cmd_qa train drop it before they write, so an old ensemble is not held
# through training.
_loaded: dict[str, tuple[tuple, object]] = {}

T = TypeVar("T")


def _file_identity(path: Path) -> tuple[int, ...] | None:
    """(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns) of path, or None
    if it cannot be stat'ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _reuse(kind: str, paths: Sequence[Path], run: tuple, load: Callable[[], T]) -> T:
    """load(), or what the kept load of kind returned if it read files of
    the same identities (see _file_identity), which name each file, in the
    same order, for the same run (model dims and seed).

    The files are stat'ed before load reads them.  A load is kept only if
    every file could be stat'ed and its ctime is at least RACY_WINDOW_NS
    before the load began.  A load that raises is not kept, and a miss
    drops the kept load before it loads, so two ensembles are never held."""
    began = time.time_ns()
    identities = tuple(map(_file_identity, paths))
    key = (run, identities)
    kept = _loaded.get(kind)
    if kept is not None and kept[0] == key:
        return kept[1]
    _loaded.pop(kind, None)
    value = load()
    if all(identity is not None and identity[4] <= began - RACY_WINDOW_NS
           for identity in identities):
        _loaded[kind] = (key, value)
    return value


SRC_VOCAB_CAP = 50_000  # prepare keeps this many source tokens, and every target token


def cmd_prepare(config: PipelineConfig) -> dict:
    """Ingest -> preprocess -> filter -> V-DO -> split -> vocabularies.

    The corpus file is resolved, then streamed through the filters one raw
    commit at a time.  Writes split files, vocabulary files, and a JSON
    funnel report: the commits read, then what each stage kept; returns the
    report.  A Refusal names a missing corpus, or the corpus and the stage
    that emptied it; nothing is written before the split.
    """
    _loaded.clear()
    corpus = config.corpus_jsonl  # named by each error below
    filtered, removed, ingested = apply_filters(ingest_jsonl(_existing(corpus, "corpus")), config)
    if not ingested:
        raise Refusal(corpus, "ingest produced no commits")
    if not filtered:
        reasons = ", ".join(f"{k}={v}" for k, v in removed.items() if v)
        raise Refusal(corpus, f"preprocessing filters removed every commit ({reasons})")
    kept = filter_corpus(filtered)
    if not kept:
        raise Refusal(corpus, "verb/direct-object filter removed every commit")
    with refusing(corpus):  # the split sizes exceed the corpus
        split = split_dataset(kept, config.valid_size, config.test_size, config.seed)
    if not split.train:
        raise Refusal(corpus, "split left an empty training set")

    write_split_files(split, config.split_dir)
    src_vocab = build_vocab([item.source for item in split.train], cap=SRC_VOCAB_CAP)
    tgt_vocab = build_vocab([item.target for item in split.train])
    src_vocab.save(config.src_vocab_path)
    tgt_vocab.save(config.tgt_vocab_path)

    report = {
        "ingested": ingested,
        "removed": removed,
        "after_filters": len(filtered),
        "vdo_removed": len(filtered) - len(kept),
        "after_vdo": len(kept),
        "train": len(split.train),
        "valid": len(split.valid),
        "test": len(split.test),
        "src_vocab_size": len(src_vocab),
        "tgt_vocab_size": len(tgt_vocab),
        "seed": config.seed,
    }
    atomic_write(config.prepare_report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


def _load_split(config: PipelineConfig) -> DatasetSplit:
    """The prepared splits; train and evaluate both need a training split."""
    try:
        split = read_split_files(config.split_dir, config.seed)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise _not_found(exc.filename, "split file", "prepare") from exc
    if not split.train:
        raise Refusal(split_paths(config.split_dir, "train")[0], "training split is empty")
    return split


def _load_vocabs(config: PipelineConfig) -> tuple[Vocabulary, Vocabulary]:
    paths = (config.src_vocab_path, config.tgt_vocab_path)
    return _reuse("vocabs", paths, (), lambda: tuple(
        Vocabulary.load(_existing(path, "vocabulary", "prepare")) for path in paths))


def cmd_train(config: PipelineConfig, resume: bool = False) -> list[Path]:
    """Train on the prepared splits; write checkpoints and the training log.

    Returns the run's checkpoints (see checkpoint_paths).  With resume,
    train continues from the last of them; without, or with none, training
    starts from fresh parameters and an empty checkpoint set.  A last
    checkpoint that load_checkpoint refuses, one of another shape or seed
    among them, is a Refusal naming it that leaves the checkpoints and the
    log as they were.  It first drops the loaded run (see _reuse), so no
    ensemble is held through training."""
    _loaded.clear()
    split = _load_split(config)
    src_vocab, tgt_vocab = _load_vocabs(config)
    train(split, src_vocab, tgt_vocab, config, checkpoint_dir=config.checkpoint_dir,
          log_path=config.train_log_path, resume=resume)
    return checkpoint_paths(config.checkpoint_dir)


ENSEMBLE_SIZE = 4  # generate and evaluate decode this many last checkpoints as one model


def _load_ensemble(config: PipelineConfig, src_vocab: Vocabulary,
                   tgt_vocab: Vocabulary) -> ModelParams:
    """The last ENSEMBLE_SIZE checkpoints of the run as one stacked model:
    load_checkpoint checks each one's shape and seed and reads its parameters
    into a row of one (M, N) buffer, read-only once loaded."""
    paths = checkpoint_paths(config.checkpoint_dir)[-ENSEMBLE_SIZE:]
    if not paths:
        raise _not_found(config.checkpoint_dir, "checkpoints", "train")
    dims = model_dims(config, len(src_vocab), len(tgt_vocab))

    def load() -> ModelParams:
        flat = empty_aligned(len(paths), param_count(*dims))
        for path, row in zip(paths, flat):
            load_checkpoint(path, (*dims, config.seed), out=row)
        flat.flags.writeable = False
        return ModelParams.from_flat(flat, *dims)

    return _reuse("ensemble", paths, (*dims, config.seed), load)


def _load_qa_model(config: PipelineConfig) -> qa.QaModel:
    """The QA model of qa train, its arrays read-only."""

    def load() -> qa.QaModel:
        model = qa.load_qa_model(_existing(config.qa_model_path, "QA model", "qa train"))
        model.idf.flags.writeable = model.weights.flags.writeable = False
        return model

    return _reuse("qa", [config.qa_model_path], (), load)


def cmd_generate(config: PipelineConfig, diff_text: str, with_qa: bool) -> tuple[int, str]:
    """Generate a message for one diff, or the warning when a rule by which
    prepare drops a commit refuses it (too large, see diff_too_large, or
    without a source token), when the QA gate flags it, or when the best
    hypothesis is EOS alone.

    Returns (exit_code, output line); never both a message and a warning.
    A missing vocabulary, QA model or checkpoint set is a Refusal naming
    the stage that writes it (see _not_found); the checkpoints are
    the last ENSEMBLE_SIZE of the training run (see checkpoint_paths).
    Each artifact is reused from the loaded run while its files are
    unchanged (see _reuse).
    """
    src_vocab, tgt_vocab = _load_vocabs(config)
    if diff_too_large(diff_text) or not (
            tokens := preprocess_source(diff_text, config.max_source_len)):
        return EXIT_WARNING, WARNING_TEXT
    if with_qa:
        is_bad, _ = qa.predict(source_counts(diff_text), _load_qa_model(config))
        if is_bad:
            return EXIT_WARNING, WARNING_TEXT
    ensemble = _load_ensemble(config, src_vocab, tgt_vocab)
    generated = ensemble_decode(ensemble, source_ids(src_vocab, tokens, config), config.beam_width,
                                config.max_target_len)
    if not generated:
        return EXIT_WARNING, WARNING_TEXT
    return EXIT_OK, " ".join(tgt_vocab.decode(generated))


def cmd_evaluate(config: PipelineConfig, smoke_identity: bool = False) -> str:
    """Score the test split: ensemble BLEU, retrieval baseline, length buckets.

    smoke_identity scores the references against themselves (pipeline
    sanity: BLEU must be exactly 100).  Writes and returns the report.
    """
    split = _load_split(config)
    if not split.test:
        raise Refusal(split_paths(config.split_dir, "test")[0], "test split is empty")
    references = [item.target for item in split.test]
    source_lengths = [len(item.source) for item in split.test]

    if smoke_identity:
        generated = [list(reference) for reference in references]
        model_name = "identity"
    else:
        src_vocab, tgt_vocab = _load_vocabs(config)
        ensemble = _load_ensemble(config, src_vocab, tgt_vocab)
        sources = [source_ids(src_vocab, item.source, config) for item in split.test]
        decoded = beam_search(ensemble, sources, config.beam_width, config.max_target_len)
        generated = [tgt_vocab.decode(ids) for ids in decoded]
        model_name = f"ensemble_{len(ensemble.flat)}"

    pairs = list(zip(generated, references))
    model_report = bleu.corpus_bleu(pairs)

    train_pairs = [(item.source, item.target) for item in split.train]
    baseline_generated = bleu.retrieval_baseline(train_pairs, [item.source for item in split.test])
    baseline_report = bleu.corpus_bleu(list(zip(baseline_generated, references)))

    buckets = bleu.bucketed_bleu(
        [(length, gen, ref) for length, (gen, ref) in zip(source_lengths, pairs)]
    )

    lines = [bleu.format_report_table([(model_name, model_report), ("retrieval", baseline_report)]),
             "", "BLEU by source length:"]
    for bucket in buckets:
        if bucket.report is None:
            lines.append(f"  {bucket.label:<14} n={bucket.count:<6d} (empty)")
        else:
            lines.append(
                f"  {bucket.label:<14} n={bucket.count:<6d} BLEU={bucket.report.bleu:.2f}"
            )
    report_text = "\n".join(lines) + "\n"
    atomic_write(config.eval_report_path, report_text)
    return report_text


def cmd_qa(config: PipelineConfig, subaction: str, gold_path: str) -> str:
    """QA gate actions: fit and save a model, cross-validate, or report."""
    if subaction not in ("train", "crossval", "report"):
        raise ValueError(f"unknown qa subaction {subaction!r}")
    gold = qa.load_gold_jsonl(_existing(gold_path, "gold set"))
    if not gold:
        raise Refusal(gold_path, "gold set is empty")
    hyper = qa.QaHyper(seed=config.seed)
    with refusing(gold_path):  # too few records, or one label only: a fault of the gold set
        if subaction == "train":
            _loaded.clear()
            model = qa.train_svm(gold, hyper)
        else:
            result = qa.cross_validate(gold, k=10, seed=config.seed, hyper=hyper)
    if subaction == "train":
        qa.save_qa_model(model, config.qa_model_path)
        return f"saved QA model for {len(gold)} records to {config.qa_model_path}\n"
    if subaction == "crossval":
        return (
            f"records={len(gold)} folds={len(result.fold_indices)} "
            f"precision={result.precision:.4f} recall={result.recall:.4f}\n"
        )
    report = qa.reduction_report(gold, result.predictions)
    lines = ["removed fraction by median score:"]
    for score in range(8):
        lines.append(
            f"  score {score}: {report.removed_fraction_by_score[score]:.4f} "
            f"({report.removed_by_score[score]}/{report.count_by_score[score]})"
        )
    lines.append(f"bad_reduction={report.bad_reduction:.4f}")
    lines.append(f"good_cost={report.good_cost:.4f}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits EXIT_ERROR like any other error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diffmsg",
        description="Generate one-sentence commit messages from diffs.",
    )
    parser.add_argument("--config", help="path to a JSON pipeline config")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("prepare", help="ingest, filter, split, and build vocabularies")

    train_parser = sub.add_parser("train", help="train the encoder-decoder")
    train_parser.add_argument("--resume", action="store_true", help="continue from the last checkpoint")

    generate_parser = sub.add_parser("generate", help="generate a message for one diff")
    generate_parser.add_argument("--diff", help="diff file path (default: standard input)")
    generate_parser.add_argument("--with-qa", action="store_true", help="gate through the QA model")

    evaluate_parser = sub.add_parser("evaluate", help="score the test split")
    evaluate_parser.add_argument(
        "--smoke-identity", action="store_true",
        help="score references against themselves (sanity check)",
    )

    qa_parser = sub.add_parser("qa", help="quality-assurance model actions")
    qa_parser.add_argument("subaction", choices=["train", "crossval", "report"])
    qa_parser.add_argument("--gold", required=True, help="gold set JSON-lines file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = (PipelineConfig.load(_existing(args.config, "config")) if args.config
                  else PipelineConfig())
        if args.command == "prepare":
            report = cmd_prepare(config)
            print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK
        if args.command == "train":
            paths = cmd_train(config, resume=args.resume)
            print(f"{len(paths)} checkpoint(s) in {config.checkpoint_dir}")
            return EXIT_OK
        if args.command == "generate":
            with (_existing(args.diff, "diff").open("rb") if args.diff
                  else contextlib.nullcontext(sys.stdin.buffer)) as handle:
                # decoding never shortens the text, so one byte past the cap is over it
                diff_text = handle.read(corpus.MAX_DIFF_BYTES + 1).decode("utf-8", errors="replace")
            code, line = cmd_generate(config, diff_text, with_qa=args.with_qa)
            print(line)
            return code
        if args.command == "evaluate":
            print(cmd_evaluate(config, smoke_identity=args.smoke_identity), end="")
            return EXIT_OK
        print(cmd_qa(config, args.subaction, args.gold), end="")  # the one command left: qa
        return EXIT_OK
    except (Refusal, OSError, FloatingPointError) as exc:  # refused input, OS error, diverged run
        named = isinstance(exc, OSError) and exc.filename is not None
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
