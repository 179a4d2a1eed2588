"""End-to-end tests for the pipeline commands and the CLI contract."""

import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.bow import BagOfWords
from diffmsg.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_WARNING,
    WARNING_TEXT,
    PipelineConfig,
    PipelineError,
    cmd_evaluate,
    cmd_generate,
    cmd_prepare,
    cmd_qa,
    cmd_train,
    main,
)
from diffmsg.corpus import (
    EOS_ID,
    ID_PLACEHOLDER,
    FilterConfig,
    apply_filters,
    field_types,
    ingest_jsonl,
)
from diffmsg.nmt import Hyperparams, load_checkpoint, save_checkpoint
from diffmsg.qa import QaHyper, QaModel, save_qa_model
from diffmsg.vdo import default_lexicon, filter_corpus, load_lexicon


def toy_corpus_lines(n=24):
    lines = []
    for i in range(n):
        diff = (
            f"--- a/file_{i % 5}.java +++ b/file_{i % 5}.java "
            f"- old_call_{i} ( x ) + helper_{i} ( x )"
        )
        message = f"add helper_{i} to file_{i % 5}"
        lines.append(json.dumps({"id": f"c{i}", "diff": diff, "message": message}))
    return lines


def write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def toy_config(tmp_path, name="work", **overrides):
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        write_corpus(corpus, toy_corpus_lines())
    settings = dict(
        corpus_jsonl=str(corpus),
        work_dir=str(tmp_path / name),
        valid_size=4,
        test_size=4,
        embed_dim=4,
        hidden_dim=5,
        minibatch_size=4,
        validate_every=2,
        checkpoint_every=2,
        max_epochs=2,
        max_minibatches=4,
        patience=10,
        ensemble_size=4,
        beam_width=2,
        seed=7,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


# (key, type, bounds) of every PipelineConfig field whose annotation declares a range
BOUNDED = [(key, annotation.__origin__, annotation.__metadata__)
           for key, annotation in field_types(PipelineConfig).items()
           if hasattr(annotation, "__metadata__")]


def bound_edge(kind, bound):
    """(the value of type kind at the admitted edge of bound, the first
    value past it, the way out: -1 below a lower bound, +1 above an upper one)."""
    op, number = bound.split()
    is_int = kind in (int, int | None)
    limit = int(number) if is_int else float(number)
    out = -1 if op.startswith(">") else 1

    def step(value, sign):
        return value + sign if is_int else math.nextafter(value, sign * math.inf)
    if op.endswith("="):
        return limit, step(limit, out), out
    return step(limit, -out), limit, out


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        config = toy_config(tmp_path, src_vocab_cap=123, vdo_filter=False)
        restored = PipelineConfig.from_json(json.dumps(dataclasses.asdict(config)))
        assert restored == config

    def test_unknown_key_rejected(self):
        with pytest.raises(PipelineError, match="unknown config keys"):
            PipelineConfig.from_json('{"bogus_knob": 1}')

    def test_every_hyperparameter_is_a_config_field_with_the_same_default(self):
        config_fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
        for field in dataclasses.fields(Hyperparams):
            assert field.name in config_fields, field.name
            assert config_fields[field.name].default == field.default, field.name

    @pytest.mark.parametrize("command", [
        cmd_prepare,
        cmd_train,
        lambda config: cmd_generate(config, "diff", with_qa=True),
        cmd_evaluate,
        lambda config: cmd_qa(config, "crossval", "gold.jsonl"),
    ], ids=["prepare", "train", "generate", "evaluate", "qa"])
    def test_every_command_checks_a_config_built_in_code(self, tmp_path, command):
        # the config checks itself when built, so no command ever runs with it
        with pytest.raises(ValueError, match="^qa_epochs must be >= 1, got 0$"):
            command(dataclasses.replace(toy_config(tmp_path), qa_epochs=0))
        assert not Path(toy_config(tmp_path).work_dir).exists()

    def test_the_bounded_fields(self):
        assert {key: bounds for key, _, bounds in BOUNDED} == {
            "max_source_len": (">= 1",), "max_target_len": (">= 1",),
            "max_diff_bytes": (">= 1",), "embed_dim": (">= 1",), "hidden_dim": (">= 1",),
            "minibatch_size": (">= 1",), "adadelta_rho": ("> 0", "< 1"),
            "adadelta_eps": ("> 0",), "validate_every": (">= 1",),
            "checkpoint_every": (">= 1",), "max_epochs": (">= 1",),
            "max_minibatches": (">= 1",), "patience": (">= 0",), "ensemble_size": (">= 1",),
            "beam_width": (">= 1",), "seed": (">= 0",), "src_vocab_cap": (">= 1",),
            "tgt_vocab_cap": (">= 1",), "qa_lambda": ("> 0",), "qa_epochs": (">= 1",),
        }

    @given(st.sampled_from([(key, kind, bounds, bound)
                            for key, kind, bounds in BOUNDED for bound in bounds]),
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_each_bound_admits_its_edge_and_refuses_past_it(self, case, beyond):
        key, kind, bounds, bound = case
        edge, past, out = bound_edge(kind, bound)
        assert getattr(PipelineConfig.from_json(json.dumps({key: edge})), key) == edge
        value = past + out * beyond
        message = f"config: {key} must be {' and '.join(bounds)}, got {value!r}"
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_json(json.dumps({key: value}))

    def test_negative_seed_is_a_named_error(self, tmp_path, capsys):
        # prepare ran with it, and train failed in numpy without naming the key
        with pytest.raises(PipelineError, match="^config: seed must be >= 0, got -1$"):
            PipelineConfig.from_json('{"seed": -1}')
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(toy_config(tmp_path))))
        assert main(["--config", str(path), "--seed", "-1", "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config: seed must be >= 0, got -1\n"
        assert not Path(toy_config(tmp_path).work_dir).exists()

    def test_mistyped_config_built_in_code_is_a_named_error(self, tmp_path):
        with pytest.raises(ValueError, match="^key 'embed_dim' must be int, got '64'$"):
            cmd_prepare(dataclasses.replace(toy_config(tmp_path), embed_dim="64"))
        assert not Path(toy_config(tmp_path).work_dir).exists()

    @pytest.mark.parametrize("cls", [FilterConfig, Hyperparams, PipelineConfig, QaHyper],
                             ids=lambda cls: cls.__name__)
    def test_a_config_is_frozen_and_refuses_a_bad_value_when_built(self, cls):
        config = cls()
        bounded = {key: annotation for key, annotation in field_types(cls).items()
                   if hasattr(annotation, "__metadata__")}
        assert bounded
        for key in field_types(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, key, getattr(config, key))
        for key, annotation in bounded.items():
            bounds = annotation.__metadata__
            _, past, _ = bound_edge(annotation.__origin__, bounds[0])
            message = f"{key} must be {' and '.join(bounds)}, got {past!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cls(**{key: past})
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(config, **{key: past})


class TestPrepare:
    def test_funnel_reconciles(self, tmp_path):
        lines = toy_corpus_lines(20)
        lines.append(json.dumps({"id": "m", "diff": "d", "message": "Merge branch x"}))
        lines.append(json.dumps({"id": "r", "diff": "d", "message": "Revert y"}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        config = toy_config(tmp_path)
        report = cmd_prepare(config)
        assert report["ingested"] == 22
        assert report["after_filters"] == report["ingested"] - sum(report["removed"].values())
        assert report["after_vdo"] == report["after_filters"] - report["vdo_removed"]
        assert report["train"] + report["valid"] + report["test"] == report["after_vdo"]
        assert (config.split_dir / "train.src.txt").is_file()
        assert config.src_vocab_path.is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = toy_config(tmp_path, name="work_a")
        config_b = toy_config(tmp_path, name="work_b")
        cmd_prepare(config_a)
        cmd_prepare(config_b)
        for rel in [
            "splits/train.src.txt", "splits/train.tgt.txt", "splits/valid.src.txt",
            "splits/valid.tgt.txt", "splits/test.src.txt", "splits/test.tgt.txt",
            "vocab.src.txt", "vocab.tgt.txt", "prepare_report.json",
        ]:
            a = (Path(config_a.work_dir) / rel).read_bytes()
            b = (Path(config_b.work_dir) / rel).read_bytes()
            assert a == b, rel

    def test_git_repo_prepares_the_same_files_as_its_jsonl_corpus(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@example.com",
                       GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@example.com")
            return subprocess.run(["git", "-C", str(repo), *args], check=True,
                                  capture_output=True, encoding="utf-8", env=env).stdout

        git("init", "-q")
        lines = []
        for i in range(25):
            (repo / f"file_{i % 5}.java").write_text(f"helper_{i} ( x )\n")
            git("add", "-A")
            git("commit", "-q", "-m", f"add helper_{i} to file_{i % 5}")
            if i:  # the root commit has no diff to learn from
                record = {
                    "id": git("rev-parse", "HEAD").strip(),
                    "diff": git("diff", "HEAD~1", "HEAD"),
                    "message": git("log", "-1", "--format=format:%B"),
                }
                lines.append(json.dumps(record))
        write_corpus(tmp_path / "repo.jsonl", lines)
        from_git = toy_config(tmp_path, name="from_git", corpus_jsonl=None, git_repo=str(repo))
        from_jsonl = toy_config(
            tmp_path, name="from_jsonl", corpus_jsonl=str(tmp_path / "repo.jsonl")
        )
        report = cmd_prepare(from_git)
        assert report == cmd_prepare(from_jsonl)
        assert report["ingested"] == 24 and report["train"] == 16
        for rel in [
            "splits/train.src.txt", "splits/train.tgt.txt", "splits/valid.src.txt",
            "splits/valid.tgt.txt", "splits/test.src.txt", "splits/test.tgt.txt",
            "vocab.src.txt", "vocab.tgt.txt", "prepare_report.json",
        ]:
            a = (Path(from_git.work_dir) / rel).read_bytes()
            b = (Path(from_jsonl.work_dir) / rel).read_bytes()
            assert a == b, rel

    def test_vdo_on_keeps_no_more_than_off(self, tmp_path):
        lines = toy_corpus_lines(16)
        lines.append(json.dumps({"id": "x", "diff": "some diff", "message": "weird subject line"}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        on = cmd_prepare(toy_config(tmp_path, name="on", vdo_filter=True))
        off = cmd_prepare(toy_config(tmp_path, name="off", vdo_filter=False))
        assert on["after_vdo"] <= off["after_vdo"]
        assert off["vdo_removed"] == 0

    def test_every_diff_too_large_names_size_filter(self, tmp_path):
        lines = [
            json.dumps({"id": str(i), "diff": "x " * 40, "message": f"add thing_{i} here"})
            for i in range(6)
        ]
        write_corpus(tmp_path / "corpus.jsonl", lines)
        config = toy_config(tmp_path, max_diff_bytes=10)
        with pytest.raises(PipelineError, match="diff_too_large"):
            cmd_prepare(config)

    def test_requires_exactly_one_input(self, tmp_path):
        config = dataclasses.replace(toy_config(tmp_path), git_repo="somewhere")
        with pytest.raises(PipelineError, match="exactly one"):
            cmd_prepare(config)

    def test_emitted_lengths_respect_limits(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        for part in ("train", "valid", "test"):
            for line in (config.split_dir / f"{part}.src.txt").read_text().splitlines():
                assert len(line.split()) <= config.max_source_len
            for line in (config.split_dir / f"{part}.tgt.txt").read_text().splitlines():
                assert len(line.split()) <= config.max_target_len


class TestTrainCommand:
    def test_writes_checkpoints_and_log(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        paths = cmd_train(config)
        assert paths, "expected at least one checkpoint"
        assert config.train_log_path.is_file()

    def test_missing_splits_error(self, tmp_path):
        config = toy_config(tmp_path)
        with pytest.raises(PipelineError, match="prepare"):
            cmd_train(config)
        config.split_dir.parent.mkdir()
        config.split_dir.write_text("")  # a file where the split directory belongs
        with pytest.raises(PipelineError, match="split file not found; run prepare first$"):
            cmd_train(config)

    def test_zero_max_minibatches_rejected(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        with pytest.raises(ValueError, match="^max_minibatches must be >= 1, got 0$"):
            cmd_train(dataclasses.replace(config, max_minibatches=0))
        assert not config.checkpoint_dir.exists()

    def test_resume_extends_training(self, tmp_path):
        config = toy_config(tmp_path, max_minibatches=2, checkpoint_every=2)
        cmd_prepare(config)
        first = cmd_train(config)
        more = toy_config(tmp_path, max_minibatches=4, checkpoint_every=2)
        resumed = cmd_train(more, resume=True)
        assert len(resumed) > len(first)
        names = [p.name for p in resumed]
        assert names == sorted(names)

    def test_a_fresh_run_starts_an_empty_checkpoint_set(self, tmp_path):
        config = toy_config(tmp_path, max_minibatches=8, seed=1)
        cmd_prepare(config)
        straight = dataclasses.replace(config, work_dir=str(tmp_path / "straight"),
                                       max_minibatches=6, seed=2)
        shutil.copytree(config.work_dir, straight.work_dir)  # the same splits and vocabularies
        names = [f"checkpoint_{i:08d}.ckpt" for i in (2, 4, 6, 8)]
        assert [p.name for p in cmd_train(config)] == names
        fresh = dataclasses.replace(config, max_minibatches=4, seed=2)
        assert [p.name for p in cmd_train(fresh)] == names[:2]
        assert cmd_evaluate(fresh).splitlines()[1].split()[0] == "ensemble_2"
        # resuming continues the seed-2 run from its checkpoint 4
        resumed = cmd_train(dataclasses.replace(fresh, max_minibatches=6), resume=True)
        assert [p.name for p in resumed] == names[:3]
        assert [p.read_bytes() for p in resumed] == [p.read_bytes() for p in cmd_train(straight)]


class TestGenerate:
    def test_without_qa_always_a_message(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        code, line = cmd_generate(config, "+ helper_1 ( x )", with_qa=False)
        assert code == EXIT_OK
        assert line and line != WARNING_TEXT

    def test_qa_forced_bad_emits_warning(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        vocab = BagOfWords([["anything"]]).ids
        idf = np.ones(len(vocab))  # the idf of a token in the only document
        always_bad = QaModel(vocab, idf, np.zeros(len(vocab)), bias=1.0)
        save_qa_model(always_bad, config.qa_model_path)
        code, line = cmd_generate(config, "+ helper_1 ( x )", with_qa=True)
        assert code == EXIT_WARNING
        assert line == WARNING_TEXT

    def test_qa_gate_requires_model(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        with pytest.raises(PipelineError, match="QA model"):
            cmd_generate(config, "diff", with_qa=True)

    def test_gate_counts_tokens_past_the_decoded_prefix(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        vocab = BagOfWords([[ID_PLACEHOLDER]]).ids
        idf = np.ones(len(vocab))
        # bad exactly when the diff holds a commit id
        save_qa_model(QaModel(vocab, idf, np.full(len(vocab), 2.0), bias=-1.0), config.qa_model_path)
        prefix = " ".join(["+ helper_1 ( x )"] * config.max_source_len)
        assert cmd_generate(config, prefix + " 7807cb6", with_qa=True) == (EXIT_WARNING, WARNING_TEXT)
        code, line = cmd_generate(config, prefix + " helper_2", with_qa=True)
        assert code == EXIT_OK
        assert (code, line) == cmd_generate(config, prefix, with_qa=False)

    def test_zero_ensemble_size_is_a_named_error(self, tmp_path):
        # a config built in code skips from_json; paths[-0:] took every checkpoint
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        with pytest.raises(ValueError, match="^ensemble_size must be >= 1, got 0$"):
            cmd_generate(dataclasses.replace(config, ensemble_size=0), "+ helper_1 ( x )", False)

    def test_diff_over_max_diff_bytes_gets_the_warning(self, tmp_path):
        # one size rule for prepare and generate: UTF-8 bytes, not characters
        # (e-acute is two), inclusive; generate applies it before the QA gate
        at_cap = "+ helper_1 ( caf\u00e9 ) " + "\u00e9" * 60
        over = at_cap + " "
        lines = toy_corpus_lines()
        for name, diff in (("at_cap", at_cap), ("over", over)):
            lines.append(json.dumps({"id": name, "diff": diff, "message": f"add {name} here"}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        config = toy_config(tmp_path, max_diff_bytes=len(at_cap.encode("utf-8")))
        assert len(over) < config.max_diff_bytes
        report = cmd_prepare(config)
        assert report["removed"]["diff_too_large"] == 1
        assert report["after_filters"] == report["ingested"] - 1
        sources = "".join((config.split_dir / f"{part}.src.txt").read_text(encoding="utf-8")
                          for part in ("train", "valid", "test"))
        assert "\u00e9" * 60 in sources
        cmd_train(config)
        vocab = BagOfWords([["anything"]]).ids
        never_bad = QaModel(vocab, np.ones(len(vocab)), np.zeros(len(vocab)), bias=-1.0)
        save_qa_model(never_bad, config.qa_model_path)
        no_cap = dataclasses.replace(config, max_diff_bytes=FilterConfig().max_diff_bytes)
        for with_qa in (False, True):
            code, line = cmd_generate(config, at_cap, with_qa)
            assert code == EXIT_OK and line != WARNING_TEXT
            assert (code, line) == cmd_generate(no_cap, over, with_qa)
            assert cmd_generate(config, over, with_qa) == (EXIT_WARNING, WARNING_TEXT)

    def test_missing_checkpoints_error(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        with pytest.raises(PipelineError, match="checkpoint"):
            cmd_generate(config, "diff", with_qa=False)

    def test_overfit_model_reproduces_training_message(self, tmp_path):
        lines = []
        for i in range(8):
            diff = f"--- a/mod_{i} +++ b/mod_{i} - old_{i} ( ) + fresh_{i} ( )"
            message = f"add fresh_{i} to mod_{i}"
            lines.append(json.dumps({"id": str(i), "diff": diff, "message": message}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        config = toy_config(
            tmp_path,
            valid_size=0,
            test_size=0,
            embed_dim=16,
            hidden_dim=24,
            minibatch_size=8,
            validate_every=10**9,
            checkpoint_every=10**9,
            max_epochs=300,
            max_minibatches=10**9,
            seed=5,
        )
        cmd_prepare(config)
        cmd_train(config)
        code, line = cmd_generate(
            config, "--- a/mod_3 +++ b/mod_3 - old_3 ( ) + fresh_3 ( )", with_qa=False
        )
        assert code == EXIT_OK
        assert line == "add fresh_3 to mod_3"


class TestEvaluate:
    def test_smoke_identity_scores_100(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        report = cmd_evaluate(config, smoke_identity=True)
        assert "identity" in report
        assert " 100.00" in report

    def test_full_report_structure(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        report = cmd_evaluate(config)
        lines = report.splitlines()
        header = lines[0].split()
        assert header[:4] == ["Model", "BLEU", "Len_Gen", "Len_Ref"]
        model_row = lines[1].split()
        baseline_row = lines[2].split()
        # both rows score the same references
        assert model_row[3] == baseline_row[3]
        bucket_lines = [line for line in lines if line.strip().startswith(("<=", ">"))]
        counts = [int(part.split("=")[1]) for line in bucket_lines for part in line.split() if part.startswith("n=")]
        assert sum(counts) == 4  # test split size
        assert config.eval_report_path.is_file()

    def test_missing_test_split_error(self, tmp_path):
        config = toy_config(tmp_path, test_size=0)
        cmd_prepare(config)
        with pytest.raises(PipelineError, match="test split"):
            cmd_evaluate(config, smoke_identity=True)

    def test_empty_training_split_is_refused_before_decoding(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)  # and no train, so decoding would find no checkpoint
        for side in ("src", "tgt"):
            (config.split_dir / f"train.{side}.txt").write_text("")
        with pytest.raises(PipelineError, match="^training split is empty; "):
            cmd_evaluate(config)


def write_gold(path, n=40):
    lines = []
    for i in range(n):
        if i % 2 == 0:
            diff = f"zomg_marker_{i % 3} plain_{i}"
            scores = [0]
        else:
            diff = f"plain_{i} other_{i % 7}"
            scores = [7]
        lines.append(json.dumps({"id": str(i), "diff": diff, "scores": scores}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestQaCommand:
    def test_train_writes_model(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        write_gold(gold)
        config = toy_config(tmp_path)
        out = cmd_qa(config, "train", str(gold))
        assert "saved QA model" in out
        assert config.qa_model_path.is_file()

    def test_crossval_reports_metrics(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        write_gold(gold, n=60)
        config = toy_config(tmp_path)
        out = cmd_qa(config, "crossval", str(gold))
        assert "precision=" in out and "recall=" in out

    def test_report_lists_all_scores(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        write_gold(gold, n=60)
        config = toy_config(tmp_path)
        out = cmd_qa(config, "report", str(gold))
        for score in range(8):
            assert f"score {score}:" in out
        assert "bad_reduction=" in out
        assert "good_cost=" in out

    def test_single_class_gold_errors(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        lines = [json.dumps({"id": str(i), "diff": "x y", "scores": [0]}) for i in range(12)]
        gold.write_text("\n".join(lines) + "\n")
        config = toy_config(tmp_path)
        with pytest.raises(ValueError, match="both"):
            cmd_qa(config, "crossval", str(gold))


class TestMainExitCodes:
    def _config_file(self, tmp_path, **overrides):
        config = toy_config(tmp_path, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        return path, config

    @pytest.mark.parametrize("argv", [
        [], ["--bogus", "prepare"], ["--seed", "abc", "prepare"], ["qa", "nope", "--gold", "g"],
    ], ids=["no_command", "unknown_flag", "bad_seed", "bad_qa_subaction"])
    def test_usage_error_exits_1_with_the_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: diffmsg") and "error: " in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: diffmsg")

    def test_vdo_lexicon_from_the_config_key_and_the_flag(self, tmp_path, capsys):
        lines = [json.dumps({"id": f"c{i}", "diff": f"- old_{i} ( x ) + helper_{i} ( x )",
                             "message": f"{('add', 'fix')[i % 2]} helper_{i} in file_{i % 5}"})
                 for i in range(24)]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, lines)
        lexicon = tmp_path / "verbs.txt"
        lexicon.write_text("add\n", encoding="utf-8")
        kept, _ = apply_filters(ingest_jsonl(corpus), toy_config(tmp_path))
        removed = len(kept) - len(filter_corpus(kept, load_lexicon(lexicon)))
        assert removed != len(kept) - len(filter_corpus(kept, default_lexicon()))
        by_key = toy_config(tmp_path, name="by_key", vdo_lexicon_path=str(lexicon))
        assert cmd_prepare(by_key)["vdo_removed"] == removed
        path, _ = self._config_file(tmp_path, name="by_flag")
        assert main(["--config", str(path), "--vdo-lexicon", str(lexicon), "prepare"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["vdo_removed"] == removed

    def test_missing_vdo_lexicon_is_a_named_error(self, tmp_path, capsys, monkeypatch):
        path, config = self._config_file(tmp_path)
        missing = tmp_path / "no_such_verbs.txt"
        monkeypatch.setattr("diffmsg.cli.ingest_jsonl", lambda path: pytest.fail("ingested"))
        assert main(["--config", str(path), "--vdo-lexicon", str(missing), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {missing}: lexicon not found\n"
        assert not Path(config.work_dir).exists()
        monkeypatch.undo()
        # with the filter off the lexicon is never read
        argv = ["--config", str(path), "--vdo-lexicon", str(missing), "--vdo", "off", "prepare"]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("key, what", [("corpus_jsonl", "corpus"),
                                           ("vdo_lexicon_path", "lexicon")])
    def test_missing_prepare_input_fails_before_ingest(self, tmp_path, capsys, monkeypatch,
                                                       key, what):
        missing = tmp_path / "absent"
        path, config = self._config_file(tmp_path, **{key: str(missing)})
        monkeypatch.setattr("diffmsg.cli.ingest_jsonl", lambda path: pytest.fail("ingested"))
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {missing}: {what} not found\n"
        assert not Path(config.work_dir).exists()

    @pytest.mark.parametrize("command, what", [(["generate", "--diff"], "diff"),
                                               (["qa", "train", "--gold"], "gold set")],
                             ids=["diff", "gold"])
    def test_missing_input_file_is_a_named_error(self, tmp_path, capsys, command, what):
        path, config = self._config_file(tmp_path)
        missing = tmp_path / "absent"
        assert main(["--config", str(path), *command, str(missing)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {missing}: {what} not found\n"
        assert not Path(config.work_dir).exists()

    def test_prepare_then_train_then_generate(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        assert main(["--config", str(path), "generate", "--diff", str(diff_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip()

    def test_non_utf8_diff_is_decoded_with_replacement(self, tmp_path, capsys, monkeypatch):
        path, _ = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        raw = "+ helper_2 ( caf\u00e9 )".encode("latin-1") + b" \xff\xfe\x00 binary"
        diff_file = tmp_path / "latin1.diff"
        diff_file.write_bytes(raw)
        capsys.readouterr()
        code = main(["--config", str(path), "generate", "--diff", str(diff_file)])
        assert code in (EXIT_OK, EXIT_WARNING)
        from_file = capsys.readouterr()
        assert from_file.out.strip() and "error" not in from_file.err
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        assert main(["--config", str(path), "generate"]) == code
        assert capsys.readouterr().out == from_file.out

    def test_non_utf8_corpus_and_gold_are_decoded_with_replacement(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        lines = [line.encode("utf-8") for line in toy_corpus_lines()]
        lines[0] = lines[0].replace(b"old_call_0", b"old_caf\xe9_0")
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        path, _ = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        gold = tmp_path / "gold.jsonl"
        write_gold(gold)
        gold.write_bytes(gold.read_bytes().replace(b"plain_0", b"plain_\xe9"))
        assert main(["--config", str(path), "qa", "train", "--gold", str(gold)]) == EXIT_OK
        assert "error" not in capsys.readouterr().err

    def test_error_exit_code_and_stderr(self, tmp_path, capsys):
        path, _ = self._config_file(tmp_path)
        code = main(["--config", str(path), "train"])  # prepare never ran
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "error:" in captured.err

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "--smoke-identity"]])
    def test_missing_split_file_is_a_named_error(self, tmp_path, capsys, command):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        missing = config.split_dir / "test.tgt.txt"
        missing.unlink()
        capsys.readouterr()
        assert main(["--config", str(path), *command]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {missing}: split file not found; run prepare first\n")

    def test_warning_exit_code(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        main(["--config", str(path), "prepare"])
        main(["--config", str(path), "train"])
        vocab = BagOfWords([["anything"]]).ids
        idf = np.ones(len(vocab))  # the idf of a token in the only document
        save_qa_model(QaModel(vocab, idf, np.zeros(len(vocab)), bias=1.0), config.qa_model_path)
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        code = main(["--config", str(path), "generate", "--diff", str(diff_file), "--with-qa"])
        assert code == EXIT_WARNING
        assert WARNING_TEXT in capsys.readouterr().out

    def test_empty_message_exits_with_the_warning(self, tmp_path, capsys):
        # every model puts nearly all its mass on EOS at the first step, so
        # the best hypothesis is EOS alone
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        for checkpoint_path in config.checkpoint_dir.glob("checkpoint_*.ckpt"):
            checkpoint = load_checkpoint(checkpoint_path)
            checkpoint.params.out_b[EOS_ID] = 1e3
            save_checkpoint(checkpoint, checkpoint_path)
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        capsys.readouterr()
        assert main(["--config", str(path), "generate", "--diff", str(diff_file)]) == EXIT_WARNING
        assert capsys.readouterr().out == WARNING_TEXT + "\n"

    def test_vdo_flag_override(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "--vdo", "off", "prepare"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["vdo_filter_enabled"] is False

    def test_seed_flag_override(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "--seed", "99", "prepare"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 99

    def test_resuming_a_finished_run_reports_and_writes_nothing_new(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        before = {p: p.read_bytes() for p in Path(config.work_dir).rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["--config", str(path), "train", "--resume"]) == EXIT_OK
        assert capsys.readouterr().out == f"2 checkpoint(s) in {config.checkpoint_dir}\n"
        assert {p: p.read_bytes() for p in Path(config.work_dir).rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("text, named", [
        ("[1]", "JSON object"),
        ('{"embed_dim": true}', "'embed_dim' must be int, got True"),
        ('{"ensemble_size": 0}', "ensemble_size must be >= 1, got 0"),
        ('{"qa_epochs": 0}', "qa_epochs must be >= 1, got 0"),
        ('{"qa_lambda": 0}', "qa_lambda must be > 0, got 0"),
        ('{"qa_lambda": -1e-4}', "qa_lambda must be > 0, got -0.0001"),
        ('{"qa_lambda": Infinity}', "key 'qa_lambda' must be float, got inf"),
        ('{"qa_lambda": NaN}', "key 'qa_lambda' must be float, got nan"),
        ('{"adadelta_eps": NaN}', "key 'adadelta_eps' must be float, got nan"),
        ('{"adadelta_eps": Infinity}', "key 'adadelta_eps' must be float, got inf"),
        ('{"max_diff_bytes": 0}', "max_diff_bytes must be >= 1, got 0"),
        ('{"src_vocab_cap": 0}', "src_vocab_cap must be >= 1, got 0"),
        ('{"tgt_vocab_cap": -3}', "tgt_vocab_cap must be >= 1, got -3"),
        ('{"valid_size": 4.0}', "valid_size fraction must be in [0, 1], got 4.0"),
        ('{"test_size": -1}', "test_size count must be >= 0, got -1"),
        ('{"valid_size": 1.5}', "valid_size fraction must be in [0, 1], got 1.5"),
    ], ids=["not_an_object", "bool_for_int", "fails_validate", "qa_epochs_zero", "qa_lambda_zero",
            "qa_lambda_negative", "qa_lambda_infinite", "qa_lambda_nan", "adadelta_eps_nan",
            "adadelta_eps_infinite", "max_diff_bytes_zero", "src_vocab_cap_zero",
            "tgt_vocab_cap_negative", "valid_fraction_above_one", "test_count_negative",
            "valid_fraction_one_and_a_half"])
    def test_bad_config_is_a_named_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and named in err

    def test_int_accepted_where_a_float_is(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"valid_size": 4, "adadelta_eps": 1, "src_vocab_cap": null}')
        config = PipelineConfig.load(path)
        assert (config.valid_size, config.adadelta_eps, config.src_vocab_cap) == (4, 1, None)
