"""Tests for corpus.atomic_write and every artifact written through it."""

from pathlib import Path

import numpy as np
import pytest

from diffmsg import corpus
from diffmsg.bow import BagOfWords
from diffmsg.cli import PipelineConfig, cmd_evaluate, cmd_prepare
from diffmsg.corpus import (
    DatasetSplit,
    PreparedCommit,
    atomic_write,
    build_vocab,
    write_split_files,
)
from diffmsg.qa import QaModel, save_qa_model

OLD = b"the previous artifact\n"


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.rglob("*") if p.name.endswith(".tmp"))


class TestAtomicWrite:
    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write(path, "naïve\n")
        assert path.read_bytes() == "naïve\n".encode("utf-8")
        assert leftovers(tmp_path) == []

    def test_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        atomic_write(path, "new\n")
        assert path.read_bytes() == b"new\n"

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
    def test_an_interrupted_write_keeps_the_old_file(self, tmp_path, error):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)

        def blocks():
            yield b"partial"
            raise error

        with pytest.raises(type(error)):
            atomic_write(path, blocks())
        assert path.read_bytes() == OLD
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def toy_split() -> DatasetSplit:
    items = [
        PreparedCommit(str(i), f"file_{i} changed line".split(), f"fix file {i}".split())
        for i in range(6)
    ]
    return DatasetSplit(train=items[:4], valid=items[4:5], test=items[5:], seed=0)


def toy_config(tmp_path: Path) -> PipelineConfig:
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(
        f'{{"id": "c{i}", "diff": "- old_{i} + new_{i}", "message": "add helper_{i}"}}\n'
        for i in range(12)
    ), encoding="utf-8")
    return PipelineConfig(corpus_jsonl=str(corpus_path), work_dir=str(tmp_path / "work"),
                          valid_size=2, test_size=2, seed=3)


def write_vocabulary(tmp_path):
    path = tmp_path / "vocab.src.txt"
    return path, lambda: build_vocab([["a", "b"], ["b"]]).save(path)


def write_splits(tmp_path):
    return tmp_path / "splits" / "train.src.txt", lambda: write_split_files(toy_split(),
                                                                             tmp_path / "splits")


def write_qa_model(tmp_path):
    vocab = BagOfWords([["a", "b"], ["b", "c"]]).ids
    path = tmp_path / "qa_model.json"
    model = QaModel(vocab, np.ones(len(vocab)), np.ones(len(vocab)), 0.5)
    return path, lambda: save_qa_model(model, path)


def write_prepare_report(tmp_path):
    config = toy_config(tmp_path)
    return config.prepare_report_path, lambda: cmd_prepare(config)


def write_eval_report(tmp_path):
    config = toy_config(tmp_path)
    write_split_files(toy_split(), config.split_dir)
    return config.eval_report_path, lambda: cmd_evaluate(config, smoke_identity=True)


# save_checkpoint has its own case: TestCheckpointIO.test_failed_write_leaves_no_checkpoint
@pytest.mark.parametrize("writer", [
    write_vocabulary, write_splits, write_qa_model, write_prepare_report, write_eval_report,
])
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    path, write = writer(tmp_path)
    write()
    assert path.read_bytes() != OLD
    path.write_bytes(OLD)

    class FailingFile:
        """Writes part of the first block it is given, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            self.handle.write(b"part")
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    def failing_open(file, *args, **kwargs):
        handle = open(file, *args, **kwargs)
        return FailingFile(handle) if Path(file).name == f".{path.name}.tmp" else handle

    monkeypatch.setattr(corpus, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert path.read_bytes() == OLD
    assert leftovers(tmp_path) == []
