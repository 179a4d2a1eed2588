"""End-to-end tests for the pipeline commands and the CLI contract."""

import collections
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg import cli, qa
from diffmsg.bow import BagOfWords
from diffmsg.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_WARNING,
    WARNING_TEXT,
    PipelineConfig,
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
    MAX_DIFF_BYTES,
    FilterConfig,
    Refusal,
    Vocabulary,
    atomic_write,
    field_types,
)
from diffmsg.nmt import Hyperparams, checkpoint_paths, load_checkpoint, save_checkpoint
from diffmsg.nmt.training import CHECKPOINT_FORMAT_VERSION, adadelta_update
from diffmsg.qa import QA_MODEL_FORMAT_VERSION, QaHyper, QaModel, save_qa_model


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
    is_int = kind is int
    limit = int(number) if is_int else float(number)
    out = -1 if op.startswith(">") else 1

    def step(value, sign):
        return value + sign if is_int else math.nextafter(value, sign * math.inf)
    if op.endswith("="):
        return limit, step(limit, out), out
    return step(limit, -out), limit, out


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        config = toy_config(tmp_path, beam_width=3)
        restored = PipelineConfig.from_json(json.dumps(dataclasses.asdict(config)))
        assert restored == config

    def test_unknown_key_rejected(self):
        with pytest.raises(Refusal, match="unknown config keys"):
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
        with pytest.raises(ValueError, match="^beam_width must be >= 1, got 0$"):
            command(dataclasses.replace(toy_config(tmp_path), beam_width=0))
        assert not Path(toy_config(tmp_path).work_dir).exists()

    def test_the_bounded_fields(self):
        assert {key: bounds for key, _, bounds in BOUNDED} == {
            "max_source_len": (">= 1",), "max_target_len": (">= 1",),
            "embed_dim": (">= 1",), "hidden_dim": (">= 1",),
            "minibatch_size": (">= 1",), "validate_every": (">= 1",),
            "checkpoint_every": (">= 1",), "max_epochs": (">= 1",),
            "max_minibatches": (">= 1",), "patience": (">= 0",), "beam_width": (">= 1",),
            "seed": (">= 0",), "valid_size": (">= 0",), "test_size": (">= 0",),
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
        with pytest.raises(Refusal, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_json(json.dumps({key: value}))

    def test_negative_seed_is_a_named_error(self, tmp_path, capsys):
        # prepare ran with it, and train failed in numpy without naming the key
        with pytest.raises(Refusal, match="^config: seed must be >= 0, got -1$"):
            PipelineConfig.from_json('{"seed": -1}')
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**dataclasses.asdict(toy_config(tmp_path)), "seed": -1}))
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: seed must be >= 0, got -1\n"
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
        assert report["seed"] == config.seed == 7
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

    def test_the_source_vocabulary_keeps_the_cap_most_frequent_tokens(self, tmp_path,
                                                                        monkeypatch):
        monkeypatch.setattr(cli, "SRC_VOCAB_CAP", 5)
        config = toy_config(tmp_path)
        cmd_prepare(config)
        counts = {side: collections.Counter(
            token for line in (config.split_dir / f"train.{side}.txt").read_text().splitlines()
            for token in line.split(" ")) for side in ("src", "tgt")}
        kept = config.src_vocab_path.read_text().splitlines()
        assert len(kept) == 5 < len(counts["src"])
        dropped = counts["src"].keys() - set(kept)
        assert min(counts["src"][token] for token in kept) >= max(
            counts["src"][token] for token in dropped)
        assert sorted(config.tgt_vocab_path.read_text().splitlines()) == sorted(counts["tgt"])

    def test_prepare_removes_a_non_vdo_subject(self, tmp_path):
        lines = toy_corpus_lines(16)
        lines.append(json.dumps({"id": "x", "diff": "some diff", "message": "weird subject line"}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        config = toy_config(tmp_path)
        report = cmd_prepare(config)
        assert (report["vdo_removed"], report["after_vdo"]) == (1, report["after_filters"] - 1)
        kept = [config.split_dir / f"{part}.tgt.txt" for part in ("train", "valid", "test")]
        assert all("weird subject line" not in path.read_text() for path in kept)

    def test_every_diff_too_large_names_size_filter(self, tmp_path, monkeypatch):
        lines = [
            json.dumps({"id": str(i), "diff": "x " * 40, "message": f"add thing_{i} here"})
            for i in range(6)
        ]
        write_corpus(tmp_path / "corpus.jsonl", lines)
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", 10)
        config = toy_config(tmp_path)
        with pytest.raises(Refusal, match="diff_too_large"):
            cmd_prepare(config)

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        # a config without a corpus builds, as generate and evaluate read none, but prepare,
        # the one command that reads a corpus, refuses it before it makes the work dir
        config = dataclasses.replace(toy_config(tmp_path), corpus_jsonl=None)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config: must set corpus_jsonl\n"
        assert not Path(config.work_dir).exists()

    def test_peak_memory_does_not_follow_the_large_diffs_read(self, tmp_path):
        # prepare holds one raw commit at a time: twelve more 1 MB diffs, each
        # removed as source_too_long, leave its traced peak within 2 MiB
        def peak(large):
            lines = toy_corpus_lines(300)
            for k in range(large):
                big = json.dumps({"id": f"big{k}", "diff": "x " * 524_288, "message": "add x"})
                lines.insert(k * len(lines) // large, big)
            write_corpus(tmp_path / f"corpus{large}.jsonl", lines)
            config = toy_config(tmp_path, name=f"work{large}",
                                corpus_jsonl=str(tmp_path / f"corpus{large}.jsonl"))
            tracemalloc.start()
            try:
                report = cmd_prepare(config)
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["removed"]["source_too_long"] == large
            assert report["ingested"] == 300 + large
            return peak_bytes
        assert peak(16) - peak(4) < 2 * 2**20

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
        with pytest.raises(Refusal, match="prepare"):
            cmd_train(config)
        config.split_dir.parent.mkdir()
        config.split_dir.write_text("")  # a file where the split directory belongs
        with pytest.raises(Refusal, match="split file not found; run prepare first$"):
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


def work_files(config):
    """Every file of the work dir, by path, with its bytes."""
    return {path: path.read_bytes() for path in Path(config.work_dir).rglob("*") if path.is_file()}


class TestOneModel:
    """Every command reads the model the config describes: its shape and its
    source length."""

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim"])
    def test_resume_with_another_shape_is_refused(self, tmp_path, key):
        config = toy_config(tmp_path, max_minibatches=2)
        cmd_prepare(config)
        cmd_train(config)
        before = work_files(config)
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        with pytest.raises(Refusal, match=(
                f"^{re.escape(str(last))}: {key} is {getattr(config, key)}, .* give 8$")):
            cmd_train(dataclasses.replace(config, max_minibatches=4, **{key: 8}), resume=True)
        assert work_files(config) == before

    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    def test_a_checkpoint_of_another_shape_is_refused(self, tmp_path, command):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        cmd_train(config)
        other = dataclasses.replace(config, hidden_dim=8)
        with pytest.raises(Refusal,
                           match=r"checkpoint_\d{8}\.ckpt: hidden_dim is 5, .* give 8$"):
            if command == "evaluate":
                cmd_evaluate(other)
            else:
                cmd_generate(other, "+ helper_2 ( x )", with_qa=False)
        assert not config.eval_report_path.exists()

    def test_training_reads_the_sources_cut_to_max_source_len(self, tmp_path):
        config = toy_config(tmp_path, max_source_len=5)
        cmd_prepare(dataclasses.replace(config, max_source_len=100))
        cut = dataclasses.replace(config, work_dir=str(tmp_path / "cut"))
        shutil.copytree(config.work_dir, cut.work_dir)  # the same vocabularies
        lengths = []
        for part in ("train", "valid", "test"):
            path = cut.split_dir / f"{part}.src.txt"
            lines = path.read_text().splitlines()
            lengths += [len(line.split()) for line in lines]
            path.write_text("".join(" ".join(line.split()[:5]) + "\n" for line in lines))
        assert min(lengths) > 5
        cmd_train(config)
        cmd_train(cut)
        assert config.train_log_path.read_text().count("minibatch=") == 2
        trained, expected = ({p.name: p.read_bytes() for p in run.checkpoint_dir.iterdir()}
                             for run in (config, cut))
        assert trained == expected
        assert config.train_log_path.read_bytes() == cut.train_log_path.read_bytes()


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
        with pytest.raises(Refusal, match="QA model"):
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

    def test_diff_over_max_diff_bytes_gets_the_warning(self, tmp_path, monkeypatch):
        # one size rule for prepare and generate: UTF-8 bytes, not characters
        # (e-acute is two), inclusive; generate applies it before the QA gate
        at_cap = "+ helper_1 ( caf\u00e9 ) " + "\u00e9" * 60
        over = at_cap + " "
        lines = toy_corpus_lines()
        for name, diff in (("at_cap", at_cap), ("over", over)):
            lines.append(json.dumps({"id": name, "diff": diff, "message": f"add {name} here"}))
        write_corpus(tmp_path / "corpus.jsonl", lines)
        cap = len(at_cap.encode("utf-8"))
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", cap)
        config = toy_config(tmp_path)
        assert len(over) < cap
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
        for with_qa in (False, True):
            code, line = cmd_generate(config, at_cap, with_qa)
            assert code == EXIT_OK and line != WARNING_TEXT
            with monkeypatch.context() as default_cap:
                default_cap.setattr("diffmsg.corpus.MAX_DIFF_BYTES", MAX_DIFF_BYTES)
                assert (code, line) == cmd_generate(config, over, with_qa)
            assert cmd_generate(config, over, with_qa) == (EXIT_WARNING, WARNING_TEXT)

    def test_missing_checkpoints_error(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)
        with pytest.raises(Refusal, match="checkpoint"):
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
        with pytest.raises(Refusal, match="test split"):
            cmd_evaluate(config, smoke_identity=True)

    def test_empty_training_split_is_refused_before_decoding(self, tmp_path):
        config = toy_config(tmp_path)
        cmd_prepare(config)  # and no train, so decoding would find no checkpoint
        for side in ("src", "tgt"):
            (config.split_dir / f"train.{side}.txt").write_text("")
        named = f"{config.split_dir / 'train.src.txt'}: training split is empty"
        with pytest.raises(Refusal, match=f"^{re.escape(named)}$"):
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

    def test_unknown_subaction_is_refused_before_the_gold_set_is_read(self, tmp_path):
        config = toy_config(tmp_path)
        with pytest.raises(ValueError, match="^unknown qa subaction 'bogus'$"):
            cmd_qa(config, "bogus", str(tmp_path / "absent.jsonl"))

    def test_single_class_gold_errors(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        lines = [json.dumps({"id": str(i), "diff": "x y", "scores": [0]}) for i in range(12)]
        gold.write_text("\n".join(lines) + "\n")
        config = toy_config(tmp_path)
        with pytest.raises(Refusal, match=f"^{re.escape(str(gold))}: .* both"):
            cmd_qa(config, "crossval", str(gold))


def write_format_3(checkpoint, path):
    """Write checkpoint as format 3 laid it out: each GRU's u_zr|u_h joined
    into one (H, 3H) tensor .u, in the parameters and both accumulators."""
    def fused(flat):
        tensors = {}
        for name, tensor in checkpoint.params.like(flat).tensors().items():
            if name.endswith(".u_h"):
                name = name[:-2]
                tensor = np.concatenate([tensors.pop(name + "_zr"), tensor], axis=-1)
            tensors[name] = tensor
        return tensors

    state = checkpoint.optimizer_state
    blocks = [fused(flat) for flat in [checkpoint.params.flat]
              + ([state.grad_sq, state.update_sq] if state is not None else [])]
    header, _ = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), "format_version": 3,
              "tensors": [{"name": name, "shape": list(t.shape)} for name, t in blocks[0].items()]}
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(
        np.concatenate([t.ravel() for t in block.values()]).tobytes() for block in blocks))


def write_format_4(path):
    """Rewrite the checkpoint at path as format 4 wrote it: the same
    payload, the header listing it too, as a tensor manifest and a length."""
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    params = load_checkpoint(path).params
    header.update(format_version=4, payload_bytes=len(payload), tensors=[
        {"name": name, "shape": list(t.shape)} for name, t in params.tensors().items()])
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def edit_checkpoint_header(path, **changes):
    """Rewrite the header of the checkpoint at path with changes."""
    header, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), **changes}
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def cut_to_parameters(path):
    """Rewrite the checkpoint at path in the parameters-only layout format 5
    allowed: its payload cut to the parameter block, its header flagging
    has_optimizer_state false, a key no later format reads.  Returns the
    problem a load now reports."""
    header, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), "has_optimizer_state": False}
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + payload[: len(payload) // 3])
    return f"truncated payload ({len(payload) // 3} bytes, {len(payload)} by the header)"


class TestMainExitCodes:
    def _config_file(self, tmp_path, **overrides):
        config = toy_config(tmp_path, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        return path, config

    @pytest.mark.parametrize("argv", [
        [], ["--bogus", "prepare"], ["--config"], ["qa", "nope", "--gold", "g"],
    ], ids=["no_command", "unknown_flag", "config_no_path", "bad_qa_subaction"])
    def test_usage_error_exits_1_with_the_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: diffmsg") and "error: " in captured.err

    @pytest.mark.parametrize("argv, code", [
        (["--help"], EXIT_OK), (["no-such-command"], EXIT_ERROR),
    ], ids=["help", "usage_error"])
    def test_python_m_diffmsg_exits_as_main_returns(self, argv, code):
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-m", "diffmsg", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == code
        assert (run.stdout if code == EXIT_OK else run.stderr).startswith("usage: diffmsg")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: diffmsg")

    def test_vdo_lexicon_path_is_an_unknown_key(self, tmp_path, capsys):
        config = toy_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**dataclasses.asdict(config), "vdo_lexicon_path": "verbs.txt"}))
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: unknown config keys: vdo_lexicon_path\n"
        assert not Path(config.work_dir).exists()

    @pytest.mark.parametrize("key, what", [("corpus_jsonl", "corpus")])
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

    @pytest.mark.parametrize("is_dir", [False, True], ids=["missing", "directory"])
    def test_missing_config_is_a_named_error(self, tmp_path, capsys, is_dir):
        path = tmp_path / "config.json"
        if is_dir:
            path.mkdir()
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: config not found\n"

    def test_an_os_error_names_its_file_first(self, tmp_path, capsys):
        # a regular file where the work dir belongs
        work = tmp_path / "wfile"
        work.write_text("")
        path, _ = self._config_file(tmp_path, work_dir=str(work))
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {work / 'splits'}: Not a directory\n"

    @pytest.mark.parametrize("command", [["evaluate"], ["generate"]], ids=["evaluate", "generate"])
    def test_a_directory_named_like_a_checkpoint_is_named(self, tmp_path, capsys, command):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        directory = config.checkpoint_dir / "checkpoint_99999999.ckpt"
        directory.mkdir()
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        capsys.readouterr()
        diff = ["--diff", str(diff_file)] if command == ["generate"] else []
        assert main(["--config", str(path), *command, *diff]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {directory}: Is a directory\n"

    def test_a_diverged_training_run_names_the_minibatch_and_tensor(self, tmp_path, capsys,
                                                                    monkeypatch):
        path, _ = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        steps = []

        def diverging(params, grads, optimizer_state):
            adadelta_update(params, grads, optimizer_state)
            steps.append(1)
            if len(steps) == 3:
                params.out_b[0] = np.nan
        monkeypatch.setattr("diffmsg.nmt.training.adadelta_update", diverging)
        capsys.readouterr()
        assert main(["--config", str(path), "train"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: after minibatch 3: non-finite values in parameter out_b\n")

    def test_a_bug_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # main reports refused inputs, OSErrors and a diverged run; anything else is a bug,
        # even where a library ValueError becomes a refusal of the corpus
        path, _ = self._config_file(tmp_path)

        def broken(*args):
            raise TypeError("a bug")
        monkeypatch.setattr("diffmsg.cli.split_dataset", broken)
        with pytest.raises(TypeError, match="^a bug$"):
            main(["--config", str(path), "prepare"])

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

    @pytest.mark.parametrize("source", ["stdin", "file"])
    def test_generate_reads_one_byte_past_the_cap(self, tmp_path, capsys, monkeypatch, source):
        # a diff over MAX_DIFF_BYTES gets the warning however large it is, so no more is read;
        # the cut falls inside the last character, whose replacement keeps the text over the cap
        monkeypatch.setattr("diffmsg.corpus.MAX_DIFF_BYTES", 100)
        path, _ = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        raw = b"+ x" * 33 + " \u00e9".encode("utf-8") + b" + y" * 1000
        reads = []

        class BoundedReads(io.BytesIO):
            def read(self, size=-1):
                assert size is not None and size >= 0, "an unbounded read"
                reads.append(size)
                return super().read(size)

        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(BoundedReads(raw)))
            argv = []
        else:
            diff_file = tmp_path / "big.diff"
            diff_file.write_bytes(raw)
            real_open = Path.open
            monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: BoundedReads(raw)
                                if self == diff_file else real_open(self, *args, **kwargs))
            argv = ["--diff", str(diff_file)]
        capsys.readouterr()
        assert main(["--config", str(path), "generate", *argv]) == EXIT_WARNING
        assert capsys.readouterr().out == WARNING_TEXT + "\n"
        assert reads == [101]

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

    def test_empty_training_split_is_named(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        for side in ("src", "tgt"):
            (config.split_dir / f"train.{side}.txt").write_text("")
        capsys.readouterr()
        assert main(["--config", str(path), "train"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {config.split_dir / 'train.src.txt'}: training split is empty\n")
        assert not config.checkpoint_dir.exists()

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

    def test_format_3_checkpoint_is_refused_by_its_version(self, tmp_path, capsys):
        # format 3 stored each GRU's recurrent weights as one fused (H, 3H) .u
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        checkpoints = sorted(config.checkpoint_dir.glob("checkpoint_*.ckpt"))
        for checkpoint_path in checkpoints:
            checkpoint = load_checkpoint(checkpoint_path)
            write_format_3(checkpoint, checkpoint_path)
        first = checkpoints[-cli.ENSEMBLE_SIZE:][0]
        named = f"{first}: header: format version 3 != {CHECKPOINT_FORMAT_VERSION}"
        for out in (None, np.empty(checkpoint.params.flat.size)):
            with pytest.raises(Refusal, match=f"^{re.escape(named)}$"):
                load_checkpoint(first, out=out)
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        capsys.readouterr()
        assert main(["--config", str(path), "generate", "--diff", str(diff_file)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_format_4_checkpoint_is_refused_by_its_version(self, tmp_path, capsys):
        # format 4 listed the payload's tensors and length in the header
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        checkpoints = sorted(config.checkpoint_dir.glob("checkpoint_*.ckpt"))
        for checkpoint_path in checkpoints:
            write_format_4(checkpoint_path)
        first = checkpoints[-cli.ENSEMBLE_SIZE:][0]
        capsys.readouterr()
        assert main(["--config", str(path), "evaluate"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {first}: header: format version 4 != {CHECKPOINT_FORMAT_VERSION}\n")

    def test_appended_byte_is_a_named_error(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        last = sorted(config.checkpoint_dir.glob("checkpoint_*.ckpt"))[-1]
        payload = len(last.read_bytes().split(b"\n", 1)[1])
        last.write_bytes(last.read_bytes() + b"\0")
        capsys.readouterr()
        assert main(["--config", str(path), "evaluate"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {last}: payload too long ({payload + 1} bytes, {payload} by the header)\n")

    def test_format_1_qa_model_is_refused_by_its_version(self, tmp_path, capsys):
        # format 1 also saved the training hyperparameters, as "hyper"
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        gold = tmp_path / "gold.jsonl"
        write_gold(gold)
        assert main(["--config", str(path), "qa", "train", "--gold", str(gold)]) == EXIT_OK
        model = json.loads(config.qa_model_path.read_text())
        model.update(format_version=1, hyper=dataclasses.asdict(QaHyper()))
        config.qa_model_path.write_text(json.dumps(model, sort_keys=True) + "\n")
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        capsys.readouterr()
        assert main(["--config", str(path), "generate", "--diff", str(diff_file),
                     "--with-qa"]) == EXIT_ERROR
        assert capsys.readouterr().err == (f"error: {config.qa_model_path}: "
                                           f"format version 1 != {QA_MODEL_FORMAT_VERSION}\n")

    @pytest.mark.parametrize("subaction, scores, problem", [
        ("crossval", [0, 7, 0, 7, 0], "need at least k=10 records, got 5"),
        ("report", [0, 7, 0, 7, 0], "need at least k=10 records, got 5"),
        ("train", [0] * 12, "training requires both bad and not-bad records"),
        ("crossval", [0] * 12, "training requires both bad and not-bad records"),
    ], ids=["too_few_crossval", "too_few_report", "one_label_train", "one_label_crossval"])
    def test_unusable_gold_set_is_named(self, tmp_path, capsys, subaction, scores, problem):
        path, _ = self._config_file(tmp_path)
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps({"id": str(i), "diff": f"x_{i} y", "scores": [score]})
                                + "\n" for i, score in enumerate(scores)))
        capsys.readouterr()
        assert main(["--config", str(path), "qa", subaction, "--gold", str(gold)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {gold}: {problem}\n"

    @pytest.mark.parametrize("gate", [[], ["--with-qa"]], ids=["no_gate", "gate"])
    @pytest.mark.parametrize("diff", ["", " \n\t "], ids=["empty", "whitespace"])
    def test_diff_without_a_token_gets_the_warning(self, tmp_path, capsys, diff, gate):
        # prepare drops such a commit (source_empty); generate, gate or not,
        # answers with the warning instead of a message
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        vocab = BagOfWords([["anything"]]).ids
        never_bad = QaModel(vocab, np.ones(len(vocab)), np.zeros(len(vocab)), bias=-1.0)
        save_qa_model(never_bad, config.qa_model_path)
        diff_file = tmp_path / "empty.diff"
        diff_file.write_text(diff)
        capsys.readouterr()
        argv = ["--config", str(path), "generate", "--diff", str(diff_file), *gate]
        assert main(argv) == EXIT_WARNING
        assert capsys.readouterr().out == WARNING_TEXT + "\n"

    def test_evaluate_prints_the_report(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(path), "evaluate"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("Model") and captured.err == ""
        assert captured.out == config.eval_report_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("messages, overrides, problem", [
        ([], {}, "ingest produced no commits"),
        (["Merge branch 'dev'"] * 24, {}, "preprocessing filters removed every commit "
                                         "(merge_or_rollback=24)"),
        (["typo"] * 24, {}, "verb/direct-object filter removed every commit"),
        (None, {"valid_size": 12, "test_size": 12}, "split left an empty training set"),
        (None, {"valid_size": 20, "test_size": 10},
         "requested valid=20 + test=10 exceeds corpus size 24"),
    ], ids=["no_commits", "filters", "vdo", "split", "split_sizes"])
    def test_emptied_corpus_is_named(self, tmp_path, capsys, messages, overrides, problem):
        lines = toy_corpus_lines()
        if messages is not None:
            lines = [json.dumps({**json.loads(line), "message": message})
                     for line, message in zip(lines, messages)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(line + "\n" for line in lines) or "\n", encoding="utf-8")
        path, config = self._config_file(tmp_path, **overrides)
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {corpus}: {problem}\n"
        assert not Path(config.work_dir).exists()

    def test_empty_id_is_named(self, tmp_path, capsys):
        lines = toy_corpus_lines()
        lines[2] = json.dumps({**json.loads(lines[2]), "id": ""})
        write_corpus(tmp_path / "corpus.jsonl", lines)
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {config.corpus_jsonl}: line 3: empty id\n"

    @pytest.mark.parametrize("last, problem", [
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (None, "duplicate id 'c0'"),
    ], ids=["not_json", "duplicate_id"])
    def test_refused_last_line_leaves_a_prepared_run_as_it_was(self, tmp_path, capsys, last,
                                                                problem):
        # the corpus streams through the filters, and nothing is written
        # before the split, so a line refused after a 1 MB diff writes nothing
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        work = Path(config.work_dir)
        before = {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}
        lines = toy_corpus_lines()
        lines.append(json.dumps({"id": "big", "diff": "x " * 524_288, "message": "add x"}))
        lines.append(lines[0] if last is None else last)
        write_corpus(Path(config.corpus_jsonl), lines)
        capsys.readouterr()
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {config.corpus_jsonl}: line {len(lines)}: {problem}\n")
        assert {p: p.read_bytes() for p in work.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("record, problem", [
        (None, "gold set is empty"),
        ({"id": "0", "diff": "x y", "scores": [0, 1, 2, 3]},
         "line 1: key 'scores': expected 1-3 scores, got 4"),
        ({"id": "0", "diff": "x y", "scores": [8]},
         "line 1: key 'scores': scores must be in [0, 7], got 8"),
    ], ids=["empty", "four_scores", "score_8"])
    def test_bad_gold_set_is_named(self, tmp_path, capsys, record, problem):
        path, _ = self._config_file(tmp_path)
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n" if record is None else json.dumps(record) + "\n")
        assert main(["--config", str(path), "qa", "train", "--gold", str(gold)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {gold}: {problem}\n"

    def test_resuming_a_finished_run_reports_and_writes_nothing_new(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        before = {p: p.read_bytes() for p in Path(config.work_dir).rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["--config", str(path), "train", "--resume"]) == EXIT_OK
        assert capsys.readouterr().out == f"2 checkpoint(s) in {config.checkpoint_dir}\n"
        assert {p: p.read_bytes() for p in Path(config.work_dir).rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("change, named", [
        ({"embed_dim": 8}, "{last}: embed_dim is 4, but this run's config and vocabularies give 8"),
        ({"hidden_dim": 8}, "{last}: hidden_dim is 5, but this run's config and vocabularies give 8"),
        ({"seed": 99}, "{last}: seed is 7, but this run's config and vocabularies give 99"),
    ], ids=["embed_dim", "hidden_dim", "seed"])
    def test_resume_of_another_model_exits_1_and_writes_nothing(self, tmp_path, capsys, change,
                                                                named):
        path, config = self._config_file(tmp_path, max_minibatches=2)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        before = work_files(config)
        path.write_text(json.dumps({**dataclasses.asdict(config), "max_minibatches": 4, **change}))
        capsys.readouterr()
        assert main(["--config", str(path), "train", "--resume"]) == EXIT_ERROR
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        assert capsys.readouterr().err == f"error: {named.format(last=last)}\n"
        assert work_files(config) == before

    @pytest.mark.parametrize("kind", ["no_optimizer_state", "seed"])
    def test_a_refused_resume_names_the_checkpoint(self, tmp_path, capsys, kind):
        path, config = self._config_file(tmp_path, max_minibatches=2)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        path.write_text(json.dumps({**dataclasses.asdict(config), "max_minibatches": 4}))
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        if kind == "seed":
            edit_checkpoint_header(last, seed=8)
            problem = "seed is 8, but this run's config and vocabularies give 7"
        else:
            problem = cut_to_parameters(last)
        before = work_files(config)
        capsys.readouterr()
        assert main(["--config", str(path), "train", "--resume"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {last}: {problem}\n"
        assert work_files(config) == before

    @pytest.mark.parametrize("command", [["train", "--resume"], ["evaluate"], ["generate"]],
                             ids=["resume", "evaluate", "generate"])
    def test_a_non_finite_checkpoint_value_names_the_checkpoint(self, tmp_path, capsys, command):
        path, config = self._config_file(tmp_path, max_minibatches=2)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        path.write_text(json.dumps({**dataclasses.asdict(config), "max_minibatches": 4}))
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        header, payload = last.read_bytes().split(b"\n", 1)
        last.write_bytes(header + b"\n" + np.float64(np.nan).tobytes() + payload[8:])
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        before = work_files(config)
        capsys.readouterr()
        diff = ["--diff", str(diff_file)] if command == ["generate"] else []
        assert main(["--config", str(path), *command, *diff]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {last}: non-finite values in parameter src_emb\n"
        assert work_files(config) == before

    @pytest.mark.parametrize("command", [["evaluate"], ["generate"]], ids=["evaluate", "generate"])
    def test_a_checkpoint_of_another_seed_names_the_checkpoint(self, tmp_path, capsys, command):
        # the seed drew the split, so another seed's checkpoints may have trained on its test set
        path, config = self._config_file(tmp_path, max_minibatches=2)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        path.write_text(json.dumps({**dataclasses.asdict(config), "seed": 8}))
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        before = work_files(config)
        capsys.readouterr()
        diff = ["--diff", str(diff_file)] if command == ["generate"] else []
        assert main(["--config", str(path), *command, *diff]) == EXIT_ERROR
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        assert capsys.readouterr().err == (
            f"error: {last}: seed is 7, but this run's config and vocabularies give 8\n")
        assert work_files(config) == before

    @pytest.mark.parametrize("command", [["evaluate"], ["generate"]], ids=["evaluate", "generate"])
    def test_a_checkpoint_without_optimizer_state_names_the_checkpoint(self, tmp_path, capsys,
                                                                       command):
        # the parameters-only layout is no checkpoint, though these commands read only the
        # parameter block
        path, config = self._config_file(tmp_path, max_minibatches=2)
        assert main(["--config", str(path), "prepare"]) == EXIT_OK
        assert main(["--config", str(path), "train"]) == EXIT_OK
        last = config.checkpoint_dir / "checkpoint_00000002.ckpt"
        problem = cut_to_parameters(last)
        diff_file = tmp_path / "one.diff"
        diff_file.write_text("+ helper_2 ( x )")
        before = work_files(config)
        capsys.readouterr()
        diff = ["--diff", str(diff_file)] if command == ["generate"] else []
        assert main(["--config", str(path), *command, *diff]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {last}: {problem}\n"
        assert work_files(config) == before

    @pytest.mark.parametrize("text, named", [
        ("[1]", "JSON object"),
        ('{"embed_dim": true}', "'embed_dim' must be int, got True"),
        ('{"beam_width": 0}', "beam_width must be >= 1, got 0"),
        # Adadelta's constants, the QA gate's QaHyper values, the diff-size cap, the
        # vocabulary caps and the ensemble size are no config keys, whatever their value
        ('{"adadelta_rho": 0.95}', "unknown config keys: adadelta_rho"),
        ('{"qa_epochs": 0}', "unknown config keys: qa_epochs"),
        ('{"qa_lambda": 0}', "unknown config keys: qa_lambda"),
        ('{"qa_lambda": -1e-4}', "unknown config keys: qa_lambda"),
        ('{"qa_lambda": Infinity}', "unknown config keys: qa_lambda"),
        ('{"qa_lambda": NaN}', "unknown config keys: qa_lambda"),
        ('{"adadelta_eps": NaN}', "unknown config keys: adadelta_eps"),
        ('{"adadelta_eps": Infinity}', "unknown config keys: adadelta_eps"),
        ('{"valid_size": NaN}', "key 'valid_size' must be int, got nan"),
        ('{"valid_size": Infinity}', "key 'valid_size' must be int, got inf"),
        ('{"valid_size": -Infinity}', "key 'valid_size' must be int, got -inf"),
        ('{"max_diff_bytes": 0}', "unknown config keys: max_diff_bytes"),
        ('{"max_diff_bytes": 1048576}', "unknown config keys: max_diff_bytes"),
        ('{"src_vocab_cap": 0}', "unknown config keys: src_vocab_cap"),
        ('{"tgt_vocab_cap": -3}', "unknown config keys: tgt_vocab_cap"),
        ('{"src_vocab_cap": 50000}', "unknown config keys: src_vocab_cap"),
        ('{"tgt_vocab_cap": null}', "unknown config keys: tgt_vocab_cap"),
        ('{"ensemble_size": 4}', "unknown config keys: ensemble_size"),
        # a split size is a count of pairs, not a fraction of the corpus
        ('{"valid_size": 4.0}', "key 'valid_size' must be int, got 4.0"),
        ('{"test_size": -1}', "test_size must be >= 0, got -1"),
        ('{"valid_size": 1.5}', "key 'valid_size' must be int, got 1.5"),
        ('{"valid_size": 0.1}', "key 'valid_size' must be int, got 0.1"),
        ('{"valid_size": true}', "key 'valid_size' must be int, got True"),
        # the verb/direct-object filter always runs
        ('{"vdo_filter": false}', "unknown config keys: vdo_filter"),
        # nor is git_repo: the corpus is a JSON-lines file
        ('{"corpus_jsonl": "c.jsonl", "git_repo": "."}', "unknown config keys: git_repo"),
    ], ids=["not_an_object", "bool_for_int", "fails_validate", "adadelta_rho_default",
            "qa_epochs_zero", "qa_lambda_zero", "qa_lambda_negative", "qa_lambda_infinite",
            "qa_lambda_nan", "adadelta_eps_nan", "adadelta_eps_infinite", "valid_size_nan",
            "valid_size_infinite", "valid_size_negative_infinite", "max_diff_bytes_zero",
            "max_diff_bytes_default", "src_vocab_cap_zero", "tgt_vocab_cap_negative",
            "src_vocab_cap_default", "tgt_vocab_cap_default", "ensemble_size_default",
            "valid_fraction_above_one", "test_count_negative", "valid_fraction_one_and_a_half",
            "valid_fraction", "valid_size_bool", "vdo_filter_off", "both_corpora"])
    def test_bad_config_is_a_named_error(self, tmp_path, capsys, monkeypatch, text, named):
        monkeypatch.chdir(tmp_path)  # where the default work_dir would be made
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["--config", str(path), "prepare"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and named in err
        assert not Path(PipelineConfig.work_dir).exists()

    def test_int_accepted_where_a_float_is(self, tmp_path):
        # the config holds no float, so a QA model's "bias" stands in for one
        path = tmp_path / "qa_model.json"
        path.write_text(json.dumps({"format_version": qa.QA_MODEL_FORMAT_VERSION,
                                    "feature_vocab": {"a": 0}, "idf": [1.0], "weights": [0.5],
                                    "bias": 0}))
        bias = qa.load_qa_model(path).bias
        assert (type(bias), bias) == (float, 0.0)
        path = tmp_path / "config.json"
        path.write_text('{"corpus_jsonl": null}')
        assert PipelineConfig.load(path).corpus_jsonl is None


DECODED, GATED = "+ helper_1 ( x )", "zomg_marker_1 plain_3"  # the gold set's QA model flags GATED


def trained_run(tmp_path):
    """A config whose run is prepared and trained, with the QA model of write_gold."""
    config = toy_config(tmp_path)
    cmd_prepare(config)
    cmd_train(config)
    write_gold(tmp_path / "gold.jsonl")
    cmd_qa(config, "train", str(tmp_path / "gold.jsonl"))
    return config


def count_loads(monkeypatch):
    """Counts by (loader, file name) of the checkpoint, vocabulary and QA
    model loads from now on."""
    counts = collections.Counter()

    def spy(name, load):
        def counted(path, *args, **kwargs):
            counts[name, Path(path).name] += 1
            return load(path, *args, **kwargs)
        return counted

    monkeypatch.setattr(cli, "load_checkpoint", spy("checkpoint", cli.load_checkpoint))
    monkeypatch.setattr(Vocabulary, "load", spy("vocabulary", Vocabulary.load))
    monkeypatch.setattr(qa, "load_qa_model", spy("qa", qa.load_qa_model))
    return counts


def generate_outcome(config, diff):
    """cmd_generate's (exit code, line) with the gate, a Refusal as (EXIT_ERROR, its text)."""
    try:
        return cmd_generate(config, diff, with_qa=True)
    except Refusal as exc:
        return EXIT_ERROR, str(exc)


def replace_newest_checkpoint(config, tmp_path):
    # a same-size copy whose first parameter is NaN, through atomic_write
    path = checkpoint_paths(config.checkpoint_dir)[-1]
    header, payload = path.read_bytes().split(b"\n", 1)
    atomic_write(path, [header, b"\n", np.float64(np.nan).tobytes(), payload[8:]])


def append_to_newest_checkpoint(config, tmp_path):
    with open(checkpoint_paths(config.checkpoint_dir)[-1], "ab") as handle:
        handle.write(b"\0")


def resume(config, tmp_path):
    cmd_train(dataclasses.replace(config, max_minibatches=6), resume=True)


def prepare_again(config, tmp_path):
    # six more commits bring new tokens into both vocabularies
    write_corpus(tmp_path / "corpus.jsonl", toy_corpus_lines(30))
    cmd_prepare(config)


def retrain_qa(config, tmp_path):
    gold = tmp_path / "gold.jsonl"
    flipped = [{**record, "scores": [7 - record["scores"][0]]}
               for record in map(json.loads, gold.read_text().splitlines())]
    gold.write_text("".join(json.dumps(record) + "\n" for record in flipped))
    cmd_qa(config, "train", str(gold))


class TestLoadedRun:
    def test_unchanged_artifacts_are_read_once(self, tmp_path, monkeypatch):
        config = trained_run(tmp_path)
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)  # files just written may be reused
        loads = count_loads(monkeypatch)
        first = cmd_generate(config, DECODED, with_qa=True)
        assert first[0] == EXIT_OK
        assert cmd_generate(config, DECODED, with_qa=True) == first
        cmd_evaluate(config)
        checkpoints = checkpoint_paths(config.checkpoint_dir)
        assert len(checkpoints) == 2
        assert loads == {("checkpoint", path.name): 1 for path in checkpoints} | {
            ("vocabulary", "vocab.src.txt"): 1, ("vocabulary", "vocab.tgt.txt"): 1,
            ("qa", "qa_model.json"): 1}

    @pytest.mark.parametrize("change, reread, refused", [
        (replace_newest_checkpoint, "checkpoint", True),
        (append_to_newest_checkpoint, "checkpoint", True), (resume, "checkpoint", False),
        (prepare_again, "vocabulary", True), (retrain_qa, "qa", False),
    ], ids=["checkpoint_replaced", "checkpoint_appended", "resumed", "prepared_again",
            "qa_retrained"])
    def test_a_changed_artifact_is_read_again(self, tmp_path, monkeypatch, change, reread,
                                              refused):
        config = trained_run(tmp_path)
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)
        loads = count_loads(monkeypatch)
        before = [cmd_generate(config, diff, with_qa=True) for diff in (DECODED, GATED)]
        kept = loads.copy()
        assert [cmd_generate(config, diff, with_qa=True) for diff in (DECODED, GATED)] == before
        assert loads == kept
        change(config, tmp_path)
        after = [generate_outcome(config, diff) for diff in (DECODED, GATED)]
        assert sum(n for (name, _), n in loads.items() if name == reread) > sum(
            n for (name, _), n in kept.items() if name == reread)
        cli._loaded.clear()  # what a fresh process reads
        assert [generate_outcome(config, diff) for diff in (DECODED, GATED)] == after
        assert (after[0][0] == EXIT_ERROR) == refused

    @pytest.mark.parametrize("write", [
        lambda config, gold: cmd_prepare(config),
        lambda config, gold: cmd_train(config, resume=True),
        lambda config, gold: cmd_qa(config, "train", gold),
    ], ids=["prepare", "train", "qa_train"])
    def test_a_writer_drops_the_loaded_ensemble(self, tmp_path, monkeypatch, write):
        # so the last ensemble is not held while the command builds the next run
        config = trained_run(tmp_path)
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)
        cmd_generate(config, DECODED, with_qa=True)
        assert {"vocabs", "qa", "ensemble"} <= set(cli._loaded)
        write(config, str(tmp_path / "gold.jsonl"))
        assert "ensemble" not in cli._loaded

    def test_a_hardlinked_copy_of_the_run_is_the_same_load(self, tmp_path, monkeypatch):
        # the loaded run keys on each file's identity, which a hard link shares, not its path
        config = trained_run(tmp_path)
        copy = dataclasses.replace(config, work_dir=str(tmp_path / "copy"))
        shutil.copytree(config.work_dir, copy.work_dir, copy_function=os.link)
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)
        loads = count_loads(monkeypatch)
        first = cmd_generate(config, DECODED, with_qa=True)
        kept = loads.copy()
        assert cmd_generate(copy, DECODED, with_qa=True) == first
        assert loads == kept

    def test_a_file_damaged_in_place_right_after_a_load_is_refused(self, tmp_path):
        assert cli.RACY_WINDOW_NS == 1_000_000_000
        config = trained_run(tmp_path)
        assert cmd_generate(config, DECODED, with_qa=False)[0] == EXIT_OK
        path = checkpoint_paths(config.checkpoint_dir)[-1]
        with open(path, "r+b") as handle:  # the first parameter, at the same size
            handle.seek(len(handle.readline()))
            handle.write(np.float64(np.nan).tobytes())
        named = f"{path}: non-finite values in parameter "
        with pytest.raises(Refusal, match=f"^{re.escape(named)}"):
            cmd_generate(config, DECODED, with_qa=False)

    @pytest.mark.parametrize("since, age, reused", [(min, -1, False), (max, 0, True)],
                             ids=["inside", "past"])
    def test_a_load_is_reused_once_its_files_are_past_the_window(self, tmp_path, monkeypatch,
                                                                   since, age, reused):
        # each load begins RACY_WINDOW_NS + age after the oldest or the newest file changed
        config = trained_run(tmp_path)
        changed = since(os.stat(path).st_ctime_ns for path in Path(config.work_dir).rglob("*"))
        clock = changed + cli.RACY_WINDOW_NS + age
        monkeypatch.setattr(cli, "time", SimpleNamespace(time_ns=lambda: clock))
        loads = count_loads(monkeypatch)
        cmd_generate(config, DECODED, with_qa=True)
        first = loads.copy()
        cmd_generate(config, DECODED, with_qa=True)
        assert loads == (first if reused else first + first)

    def test_reused_buffers_are_read_only(self, tmp_path, monkeypatch):
        config = trained_run(tmp_path)
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)
        ensemble = cli._load_ensemble(config, *cli._load_vocabs(config))
        model = cli._load_qa_model(config)
        assert cli._load_ensemble(config, *cli._load_vocabs(config)) is ensemble
        assert cli._load_qa_model(config) is model
        for array in (ensemble.flat, *ensemble.tensors().values(), model.idf, model.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_in_process_calls_print_what_a_process_prints(self, tmp_path, capsys, monkeypatch):
        config = trained_run(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        monkeypatch.setattr(cli, "RACY_WINDOW_NS", 0)
        loads = count_loads(monkeypatch)
        src = Path(__file__).resolve().parents[1] / "src"
        for name, diff in (("decoded", DECODED), ("gated", GATED), ("empty", "")):
            (tmp_path / f"{name}.diff").write_text(diff)
            for gate in ([], ["--with-qa"]):
                argv = ["--config", str(path), "generate", "--diff", str(tmp_path / f"{name}.diff"),
                        *gate]
                run = subprocess.run([sys.executable, "-m", "diffmsg", *argv], capture_output=True,
                                     text=True, env={**os.environ, "PYTHONPATH": str(src)})
                for call in range(2):
                    kept = loads.copy()
                    assert (main(argv), capsys.readouterr().out) == (run.returncode, run.stdout)
                    if call:
                        assert loads == kept
