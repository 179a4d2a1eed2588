"""Every bad artifact is a named error or a warning.

One tiny work dir is built once.  Each example copies it, damages one file
(an artifact of the work dir or an input), runs the commands that read them
through main(), and checks the exit-code contract: 0, 1 or 2, and on 1 an
error "error: <path>: <reason>" whose path (a Refusal's, or an OSError's
file) is the damaged file, an input, or a file under the work dir.  A non-finite value
in a checkpoint, another seed in its header, or a payload cut to its parameter
block must be refused, naming the checkpoint, by every command that reads it.
"""

import contextlib
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmsg.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNING, PipelineConfig, main
from diffmsg.corpus import Refusal
from diffmsg.nmt.model import DIM_KEYS
from test_cli import (cut_to_parameters, edit_checkpoint_header, toy_corpus_lines, write_corpus,
                      write_gold)

# paths are relative to the run's directory, so a damaged work_dir stays inside it
CONFIG = {"corpus_jsonl": "corpus.jsonl", "work_dir": "work", "valid_size": 4, "test_size": 4,
          "embed_dim": 8, "hidden_dim": 8, "minibatch_size": 4, "validate_every": 2,
          "checkpoint_every": 2, "max_epochs": 1, "max_minibatches": 4, "beam_width": 2, "seed": 7}
INPUTS = ("config.json", "gold.jsonl", "diff.txt")
COMMANDS = (["train", "--resume"], ["evaluate"], ["generate", "--diff", "diff.txt"],
            ["generate", "--with-qa", "--diff", "diff.txt"], ["qa", "crossval", "--gold", "gold.jsonl"])
# the commands that read the parameters of every checkpoint (cli.ENSEMBLE_SIZE is 4), and the
# one that reads the whole of the last
DECODERS = COMMANDS[1:4]
LAST_CHECKPOINT = "checkpoint_00000004.ckpt"


@contextlib.contextmanager
def inside(directory):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def run(argv):
    """(exit code, stderr) of main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A prepared and trained work dir with a QA model, and the inputs."""
    root = tmp_path_factory.mktemp("fuzz") / "pristine"
    root.mkdir()
    with inside(root):
        write_corpus(Path("corpus.jsonl"), toy_corpus_lines())
        write_gold(Path("gold.jsonl"))
        Path("diff.txt").write_text("- old_call_2 ( x ) + helper_2 ( x )", encoding="utf-8")
        Path("config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
        for command in (["prepare"], ["train"], ["qa", "train", "--gold", "gold.jsonl"],
                        *DECODERS):  # the QA gate passes the diff on to the checkpoints
            assert run(["--config", "config.json", *command]) == (EXIT_OK, ""), command
    return root


def damage(path, data):
    """Damage the file at path in one way data draws; returns how, and the
    commands that read the damage and so must refuse it."""
    raw = path.read_bytes()
    kinds = ["empty", "cut", "flip", "append"]
    if path.suffix == ".ckpt":
        kinds += ["parameters_only", "seed", "dim", "non_finite"]
    kind = data.draw(st.sampled_from(kinds))
    readers = []
    resumer = [COMMANDS[0]] if path.name == LAST_CHECKPOINT else []  # reads the whole file
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "cut":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    elif kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        mask = data.draw(st.integers(1, 255))
        path.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :])
    elif kind == "append":
        path.write_bytes(raw + data.draw(st.sampled_from([b"\xff", b"\x80\x00", b"\xc3("])))
    elif kind == "parameters_only":
        cut_to_parameters(path)
        readers = [*DECODERS, *resumer]
    elif kind == "seed":
        edit_checkpoint_header(path, seed=data.draw(st.integers(0, 99).filter(lambda s: s != 7)))
        readers = [*DECODERS, *resumer]
    elif kind == "dim":
        key = data.draw(st.sampled_from(DIM_KEYS))
        edit_checkpoint_header(path, **{key: data.draw(st.integers(1, 99))})
    else:  # one payload value; the parameters are the first of three blocks
        header, payload = raw.split(b"\n", 1)
        at = 8 * data.draw(st.integers(0, len(payload) // 8 - 1))
        value = np.float64(data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
        path.write_bytes(header + b"\n" + payload[:at] + value.tobytes() + payload[at + 8 :])
        readers = [*(DECODERS if at < len(payload) // 3 else ()), *resumer]
    return kind, readers


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_file_is_a_named_error_or_a_warning(pristine, data):
    names = sorted(p.relative_to(pristine).as_posix() for p in pristine.rglob("*")
                   if p.is_file() and p.name != "corpus.jsonl")
    work = pristine.parent / "run"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    name = data.draw(st.sampled_from(names))
    kind, readers = damage(work / name, data)
    with inside(work):
        try:  # a damaged work_dir moves the files the commands read
            work_dir = PipelineConfig.load("config.json").work_dir
        except Refusal:
            work_dir = CONFIG["work_dir"]
        for command in COMMANDS:
            code, err = run(["--config", "config.json", *command])
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_WARNING), (name, kind, command, err)
            if code == EXIT_ERROR:
                line = re.fullmatch(r"error: (.+?): .+\n", err, re.S)
                assert line, (name, kind, command, err)
                named = Path(line[1])
                assert named in {Path(name), *map(Path, INPUTS)} or named.is_relative_to(work_dir), (
                    name, kind, command, err)
            if command in readers:
                assert code == EXIT_ERROR and err.startswith(f"error: {name}: "), (
                    name, kind, command, err)
