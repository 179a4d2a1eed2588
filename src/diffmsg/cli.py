"""Pipeline orchestration and command-line interface.

Subcommands: prepare, train, generate, evaluate, qa train|crossval|report.
Exit codes are a stable contract: 0 for success with a message, 2 when the
warning stands in for one (the diff is over max_diff_bytes, the quality
gate flagged it, or the model gave an empty message), 1 for any error, a
usage error included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from . import bleu, qa
from .corpus import (
    DatasetSplit,
    Vocabulary,
    apply_filters,
    atomic_write,
    build_vocab,
    check_part_size,
    diff_too_large,
    field_types,
    ingest_git,
    ingest_jsonl,
    preprocess_source,
    read_json_object,
    read_split_files,
    source_counts,
    split_dataset,
    write_split_files,
)
from .nmt import (Hyperparams, ModelParams, beam_search, checkpoint_paths, ensemble_decode,
                  load_checkpoint, source_ids, train)
from .nmt.model import param_count
from .vdo import default_lexicon, filter_corpus, load_lexicon

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2

WARNING_TEXT = "WARNING: unable to generate a reliable commit message for this diff."


class PipelineError(RuntimeError):
    """A pipeline stage could not run or produced an empty corpus."""


def _in_work_dir(name: str) -> property:
    return property(lambda self: Path(self.work_dir) / name, doc=f"work_dir / {name!r}")


@dataclass(frozen=True)
class PipelineConfig(Hyperparams):
    """Every knob of the pipeline; round-trips through JSON.

    The model and training fields, the filter limits and the seed are the
    inherited Hyperparams fields.  Building one checks them all (see
    corpus.Checked) and the split sizes (see check_part_size)."""

    # input corpus: exactly one of these
    corpus_jsonl: str | None = None
    git_repo: str | None = None
    # artifact directory
    work_dir: str = "work"
    # split sizes: int counts or float fractions
    valid_size: float = 0.1
    test_size: float = 0.1
    # vocabulary caps (None = keep everything)
    src_vocab_cap: Annotated[int | None, ">= 1"] = 50_000
    tgt_vocab_cap: Annotated[int | None, ">= 1"] = None
    # target-side verb/direct-object filter
    vdo_filter: bool = True
    vdo_lexicon_path: str | None = None
    # QA gate
    qa_lambda: Annotated[float, "> 0"] = 1e-4
    qa_epochs: Annotated[int, ">= 1"] = 20

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("valid_size", "test_size"):
            check_part_size(getattr(self, name), name)

    @classmethod
    def from_json(cls, text: str | bytes, source: str = "config") -> "PipelineConfig":
        """Parse a config object (see read_json_object); a key that is
        unknown, mistyped or out of range is a PipelineError naming source
        and the key."""
        data = read_json_object(text, {}, source, PipelineError)
        unknown = set(data) - set(field_types(cls))
        if unknown:
            raise PipelineError(f"{source}: unknown config keys: {', '.join(sorted(unknown))}")
        try:
            return cls(**data)
        except ValueError as exc:  # the message names the key
            raise PipelineError(f"{source}: {exc}") from exc

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


def _not_found(path: str | Path, what: str, stage: str | None = None) -> PipelineError:
    """The one error for a missing input or artifact:
    "<path>: <what> not found[; run <stage> first]"."""
    return PipelineError(f"{path}: {what} not found" + (f"; run {stage} first" if stage else ""))


def _existing(path: str | Path, what: str, stage: str | None = None) -> Path:
    """path, if it names a file; else _not_found(path, what, stage)."""
    if not Path(path).is_file():
        raise _not_found(path, what, stage)
    return Path(path)


def cmd_prepare(config: PipelineConfig) -> dict:
    """Ingest -> preprocess -> filter -> V-DO -> split -> vocabularies.

    The input files (the corpus, and the lexicon with the V-DO filter on)
    are resolved before any ingest.  Writes split files, vocabulary files,
    and a JSON funnel report whose counts are the lengths of what each
    stage kept; returns the report.  Raises PipelineError for a missing
    input or naming the stage that emptied the corpus.
    """
    if bool(config.corpus_jsonl) == bool(config.git_repo):
        raise PipelineError("config must set exactly one of corpus_jsonl or git_repo")
    lexicon = None
    if config.vdo_filter:
        path = config.vdo_lexicon_path
        lexicon = load_lexicon(_existing(path, "lexicon")) if path else default_lexicon()
    commits = (
        ingest_jsonl(_existing(config.corpus_jsonl, "corpus")) if config.corpus_jsonl
        else ingest_git(config.git_repo)
    )
    if not commits:
        raise PipelineError("ingest produced no commits")

    filtered, removed = apply_filters(commits, config)
    if not filtered:
        reasons = ", ".join(f"{k}={v}" for k, v in removed.items() if v)
        raise PipelineError(f"preprocessing filters removed every commit ({reasons})")
    kept = filtered if lexicon is None else filter_corpus(filtered, lexicon)
    if not kept:
        raise PipelineError("verb/direct-object filter removed every commit")

    split = split_dataset(kept, valid=config.valid_size, test=config.test_size, seed=config.seed)
    if not split.train:
        raise PipelineError("split left an empty training set")

    write_split_files(split, config.split_dir)
    src_vocab = build_vocab([item.source for item in split.train], cap=config.src_vocab_cap)
    tgt_vocab = build_vocab([item.target for item in split.train], cap=config.tgt_vocab_cap)
    src_vocab.save(config.src_vocab_path)
    tgt_vocab.save(config.tgt_vocab_path)

    report = {
        "ingested": len(commits),
        "removed": removed,
        "after_filters": len(filtered),
        "vdo_filter_enabled": config.vdo_filter,
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
    try:
        return read_split_files(config.split_dir, config.seed)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise _not_found(exc.filename, "split file", "prepare") from exc


def _load_vocabs(config: PipelineConfig) -> tuple[Vocabulary, Vocabulary]:
    return tuple(Vocabulary.load(_existing(path, "vocabulary", "prepare"))
                 for path in (config.src_vocab_path, config.tgt_vocab_path))


def _model_dims(config: PipelineConfig, src_vocab: Vocabulary,
                tgt_vocab: Vocabulary) -> tuple[int, int, int, int]:
    """The model the run's config and vocabularies describe, as
    load_checkpoint's dims: every checkpoint a command loads must match it."""
    return config.embed_dim, config.hidden_dim, len(src_vocab), len(tgt_vocab)


def cmd_train(config: PipelineConfig, resume: bool = False) -> list[Path]:
    """Train on the prepared splits; write checkpoints and the training log.

    Returns the run's checkpoints (see checkpoint_paths).  With resume, it
    continues from the last of them; without, or with none, training starts
    from fresh parameters and an empty checkpoint set.  A last checkpoint
    of another shape (see _model_dims) is a CheckpointError, and one of
    another seed a ValueError (see train); either leaves the checkpoints
    and the log as they were."""
    split = _load_split(config)
    src_vocab, tgt_vocab = _load_vocabs(config)
    existing = checkpoint_paths(config.checkpoint_dir) if resume else []
    resume_from = (load_checkpoint(existing[-1], _model_dims(config, src_vocab, tgt_vocab))
                   if existing else None)
    train(split, src_vocab, tgt_vocab, config, checkpoint_dir=config.checkpoint_dir,
          log_path=config.train_log_path, resume_from=resume_from)
    return checkpoint_paths(config.checkpoint_dir)


def _load_ensemble(config: PipelineConfig, src_vocab: Vocabulary,
                   tgt_vocab: Vocabulary) -> ModelParams:
    """The last ensemble_size checkpoints of the run as one stacked model:
    load_checkpoint reads each one's parameters into a row of one (M, N)
    buffer."""
    paths = checkpoint_paths(config.checkpoint_dir)[-config.ensemble_size:]
    if not paths:
        raise _not_found(config.checkpoint_dir, "checkpoints", "train")
    dims = _model_dims(config, src_vocab, tgt_vocab)
    flat = np.empty((len(paths), param_count(*dims)))
    for path, row in zip(paths, flat):
        load_checkpoint(path, dims, out=row)
    return ModelParams.from_flat(flat, *dims)


def cmd_generate(config: PipelineConfig, diff_text: str, with_qa: bool) -> tuple[int, str]:
    """Generate a message for one diff, or the warning when the size rule
    by which prepare drops a commit refuses it (see diff_too_large), when
    the QA gate flags it, or when the best hypothesis is EOS alone.

    Returns (exit_code, output line); never both a message and a warning.
    A missing vocabulary, QA model or checkpoint set is a PipelineError
    naming the stage that writes it (see _not_found); the checkpoints are
    the last ensemble_size of the training run (see checkpoint_paths).
    """
    src_vocab, tgt_vocab = _load_vocabs(config)
    if diff_too_large(diff_text, config):
        return EXIT_WARNING, WARNING_TEXT
    if with_qa:
        model = qa.load_qa_model(_existing(config.qa_model_path, "QA model", "qa train"))
        is_bad, _ = qa.predict(source_counts(diff_text), model)
        if is_bad:
            return EXIT_WARNING, WARNING_TEXT
    ensemble = _load_ensemble(config, src_vocab, tgt_vocab)
    source = source_ids(src_vocab, preprocess_source(diff_text, config.max_source_len), config)
    generated = ensemble_decode(ensemble, source, config.beam_width, config.max_target_len)
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
        raise PipelineError("test split is empty")
    if not split.train:
        raise PipelineError("training split is empty; the retrieval baseline needs it")
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

    lines = [bleu.format_report_table([(model_name, model_report), ("retrieval", baseline_report)])]
    lines.append("")
    lines.append("BLEU by source length:")
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
    gold = qa.load_gold_jsonl(_existing(gold_path, "gold set"))
    if not gold:
        raise PipelineError(f"{gold_path}: gold set is empty")
    hyper = qa.QaHyper(l2_lambda=config.qa_lambda, epochs=config.qa_epochs, seed=config.seed)
    if subaction == "train":
        model = qa.train_svm(gold, hyper)
        qa.save_qa_model(model, config.qa_model_path)
        return f"saved QA model for {len(gold)} records to {config.qa_model_path}\n"
    result = qa.cross_validate(gold, k=10, seed=config.seed, hyper=hyper)
    if subaction == "crossval":
        return (
            f"records={len(gold)} folds={len(result.fold_indices)} "
            f"precision={result.precision:.4f} recall={result.recall:.4f}\n"
        )
    if subaction == "report":
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
    raise PipelineError(f"unknown qa subaction {subaction!r}")


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
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--vdo", choices=["on", "off"], help="override the V-DO filter switch")
    parser.add_argument("--vdo-lexicon", help="override the verb lexicon file path")
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
        config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
        overrides = {"seed": args.seed, "vdo_lexicon_path": args.vdo_lexicon,
                     "vdo_filter": None if args.vdo is None else args.vdo == "on"}
        try:
            config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
        except ValueError as exc:  # the message names the key
            raise PipelineError(f"config: {exc}") from exc

        if args.command == "prepare":
            report = cmd_prepare(config)
            print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK
        if args.command == "train":
            paths = cmd_train(config, resume=args.resume)
            print(f"{len(paths)} checkpoint(s) in {config.checkpoint_dir}")
            return EXIT_OK
        if args.command == "generate":
            raw = _existing(args.diff, "diff").read_bytes() if args.diff else sys.stdin.buffer.read()
            diff_text = raw.decode("utf-8", errors="replace")
            code, line = cmd_generate(config, diff_text, with_qa=args.with_qa)
            print(line)
            return code
        if args.command == "evaluate":
            print(cmd_evaluate(config, smoke_identity=args.smoke_identity), end="")
            return EXIT_OK
        print(cmd_qa(config, args.subaction, args.gold), end="")  # the one command left: qa
        return EXIT_OK
    except Exception as exc:  # uniform error contract: message on stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())
