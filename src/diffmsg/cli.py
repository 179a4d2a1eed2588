"""Pipeline orchestration and command-line interface.

Subcommands: prepare, train, generate, evaluate, qa train|crossval|report.
Exit codes are a stable contract: 0 for success with a message, 2 when the
quality gate emits the warning instead, 1 for any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bleu, qa
from .corpus import (
    DatasetSplit,
    Vocabulary,
    apply_filters,
    atomic_write,
    build_vocab,
    check_part_size,
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
from .nmt import Hyperparams, beam_search, ensemble_decode, load_checkpoint, train
from .vdo import default_lexicon, filter_corpus, load_lexicon

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2

WARNING_TEXT = "WARNING: unable to generate a reliable commit message for this diff."


class PipelineError(RuntimeError):
    """A pipeline stage could not run or produced an empty corpus."""


def _in_work_dir(name: str) -> property:
    return property(lambda self: Path(self.work_dir) / name, doc=f"work_dir / {name!r}")


@dataclass
class PipelineConfig(Hyperparams):
    """Every knob of the pipeline; round-trips through JSON.

    The model and training fields, the filter limits and the seed are the
    inherited Hyperparams fields."""

    # input corpus: exactly one of these
    corpus_jsonl: str | None = None
    git_repo: str | None = None
    # artifact directory
    work_dir: str = "work"
    # split sizes: int counts or float fractions
    valid_size: float = 0.1
    test_size: float = 0.1
    # vocabulary caps (None = keep everything)
    src_vocab_cap: int | None = 50_000
    tgt_vocab_cap: int | None = None
    # target-side verb/direct-object filter
    vdo_filter: bool = True
    vdo_lexicon_path: str | None = None
    # QA gate
    qa_lambda: float = 1e-4
    qa_epochs: int = 20

    def validate(self) -> None:
        """Hyperparams.validate, plus the ranges of the pipeline-only fields."""
        super().validate()
        for name in ("qa_epochs", "src_vocab_cap", "tgt_vocab_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not self.qa_lambda > 0.0:
            raise ValueError(f"qa_lambda must be > 0, got {self.qa_lambda}")
        for name in ("valid_size", "test_size"):
            check_part_size(getattr(self, name), name)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes, source: str = "config") -> "PipelineConfig":
        """Parse a config object (see read_json_object); a key that is
        unknown, mistyped or out of range is a PipelineError naming source
        and the key (see validate)."""
        data = read_json_object(text, {}, source, PipelineError)
        unknown = set(data) - set(field_types(cls))
        if unknown:
            raise PipelineError(f"{source}: unknown config keys: {', '.join(sorted(unknown))}")
        config = cls(**data)
        _check(config, source)
        return config

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


def _check(config: PipelineConfig, source: str = "config") -> None:
    """config.validate() as a PipelineError naming source and the key.

    from_json runs it; every cmd_* runs it too, for configs built in code."""
    try:
        config.validate()
    except ValueError as exc:  # the message names the key
        raise PipelineError(f"{source}: {exc}") from exc


def _lexicon(config: PipelineConfig):
    if config.vdo_lexicon_path:
        return load_lexicon(config.vdo_lexicon_path)
    return default_lexicon()


def cmd_prepare(config: PipelineConfig) -> dict:
    """Ingest -> preprocess -> filter -> V-DO -> split -> vocabularies.

    Writes split files, vocabulary files, and a JSON funnel report; returns
    the report.  Raises PipelineError naming the stage that emptied the
    corpus.
    """
    _check(config)
    if bool(config.corpus_jsonl) == bool(config.git_repo):
        raise PipelineError("config must set exactly one of corpus_jsonl or git_repo")
    commits = (
        ingest_jsonl(config.corpus_jsonl) if config.corpus_jsonl else ingest_git(config.git_repo)
    )
    if not commits:
        raise PipelineError("ingest produced no commits")

    kept, filter_report = apply_filters(commits, config)
    if not kept:
        reasons = ", ".join(f"{k}={v}" for k, v in filter_report.removed.items() if v)
        raise PipelineError(f"preprocessing filters removed every commit ({reasons})")

    vdo_removed = 0
    if config.vdo_filter:
        kept, vdo_report = filter_corpus(kept, _lexicon(config))
        vdo_removed = vdo_report.removed
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
        "removed": dict(filter_report.removed),
        "after_filters": filter_report.kept_count,
        "vdo_filter_enabled": config.vdo_filter,
        "vdo_removed": vdo_removed,
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
    if not config.split_dir.is_dir():
        raise PipelineError(f"{config.split_dir}: splits not found; run prepare first")
    try:
        return read_split_files(config.split_dir, config.seed)
    except FileNotFoundError as exc:
        raise PipelineError(f"{exc.filename}: split file not found; run prepare again") from exc


def _load_vocabs(config: PipelineConfig) -> tuple[Vocabulary, Vocabulary]:
    for path in (config.src_vocab_path, config.tgt_vocab_path):
        if not path.is_file():
            raise PipelineError(f"{path}: vocabulary not found; run prepare first")
    return Vocabulary.load(config.src_vocab_path), Vocabulary.load(config.tgt_vocab_path)


def cmd_train(config: PipelineConfig, resume: bool = False) -> list[Path]:
    """Train on the prepared splits; write checkpoints and the training log."""
    _check(config)
    split = _load_split(config)
    src_vocab, tgt_vocab = _load_vocabs(config)
    resume_from = None
    if resume:
        existing = _checkpoint_paths(config)
        if existing:
            resume_from = load_checkpoint(
                existing[-1],
                expected_src_vocab_size=len(src_vocab),
                expected_tgt_vocab_size=len(tgt_vocab),
            )
    train(
        split,
        src_vocab,
        tgt_vocab,
        config,
        checkpoint_dir=config.checkpoint_dir,
        log_path=config.train_log_path,
        resume_from=resume_from,
    )
    return _checkpoint_paths(config)


def _checkpoint_paths(config: PipelineConfig) -> list[Path]:
    if not config.checkpoint_dir.is_dir():
        return []
    return sorted(config.checkpoint_dir.glob("checkpoint_*.ckpt"))


def _load_ensemble(config: PipelineConfig, src_vocab: Vocabulary, tgt_vocab: Vocabulary):
    paths = _checkpoint_paths(config)
    if not paths:
        raise PipelineError(f"{config.checkpoint_dir}: no checkpoints; run train first")
    selected = paths[-config.ensemble_size:]
    return [
        load_checkpoint(
            path,
            expected_src_vocab_size=len(src_vocab),
            expected_tgt_vocab_size=len(tgt_vocab),
            params_only=True,
        )
        for path in selected
    ]


def cmd_generate(config: PipelineConfig, diff_text: str, with_qa: bool) -> tuple[int, str]:
    """Generate a message for one diff, or the warning when gated.

    Returns (exit_code, output line); never both a message and a warning.
    """
    _check(config)
    src_vocab, tgt_vocab = _load_vocabs(config)
    if with_qa:
        if not config.qa_model_path.is_file():
            raise PipelineError(f"{config.qa_model_path}: QA model not found; run qa train first")
        model = qa.load_qa_model(config.qa_model_path)
        is_bad, _ = qa.predict(source_counts(diff_text), model)
        if is_bad:
            return EXIT_WARNING, WARNING_TEXT
    checkpoints = _load_ensemble(config, src_vocab, tgt_vocab)
    source_tokens = preprocess_source(diff_text, config.max_source_len)
    source_ids = src_vocab.encode(source_tokens[: config.max_source_len], add_eos=True)
    generated = ensemble_decode(
        checkpoints,
        source_ids,
        beam_width=config.beam_width,
        max_len=config.max_target_len,
    )
    return EXIT_OK, " ".join(tgt_vocab.decode(generated))


def cmd_evaluate(config: PipelineConfig, smoke_identity: bool = False) -> str:
    """Score the test split: ensemble BLEU, retrieval baseline, length buckets.

    smoke_identity scores the references against themselves (pipeline
    sanity: BLEU must be exactly 100).  Writes and returns the report.
    """
    _check(config)
    split = _load_split(config)
    if not split.test:
        raise PipelineError("test split is empty")
    references = [item.target for item in split.test]
    source_lengths = [len(item.source) for item in split.test]

    if smoke_identity:
        generated = [list(reference) for reference in references]
        model_name = "identity"
    else:
        src_vocab, tgt_vocab = _load_vocabs(config)
        checkpoints = _load_ensemble(config, src_vocab, tgt_vocab)
        sources = [
            src_vocab.encode(item.source[: config.max_source_len], add_eos=True)
            for item in split.test
        ]
        decoded = beam_search(checkpoints, sources, config.beam_width, config.max_target_len)
        generated = [tgt_vocab.decode(ids) for ids in decoded]
        model_name = f"ensemble_{len(checkpoints)}"

    pairs = list(zip(generated, references))
    model_report = bleu.corpus_bleu(pairs)

    if not split.train:
        raise PipelineError("training split is empty; the retrieval baseline needs it")
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
    _check(config)
    gold = qa.load_gold_jsonl(gold_path)
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
            f"records={len(gold)} folds={len(result.fold_sizes)} "
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        if args.config:
            config = PipelineConfig.load(args.config)
        else:
            config = PipelineConfig()
        if args.seed is not None:
            config.seed = args.seed
        if args.vdo is not None:
            config.vdo_filter = args.vdo == "on"
        if args.vdo_lexicon is not None:
            config.vdo_lexicon_path = args.vdo_lexicon

        if args.command == "prepare":
            report = cmd_prepare(config)
            print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK
        if args.command == "train":
            paths = cmd_train(config, resume=args.resume)
            print(f"{len(paths)} checkpoint(s) in {config.checkpoint_dir}")
            return EXIT_OK
        if args.command == "generate":
            raw = Path(args.diff).read_bytes() if args.diff else sys.stdin.buffer.read()
            diff_text = raw.decode("utf-8", errors="replace")
            code, line = cmd_generate(config, diff_text, with_qa=args.with_qa)
            print(line)
            return code
        if args.command == "evaluate":
            print(cmd_evaluate(config, smoke_identity=args.smoke_identity), end="")
            return EXIT_OK
        if args.command == "qa":
            print(cmd_qa(config, args.subaction, args.gold), end="")
            return EXIT_OK
        raise PipelineError(f"unknown command {args.command!r}")
    except Exception as exc:  # uniform error contract: message on stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())
