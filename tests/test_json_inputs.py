"""Every JSON input goes through corpus.read_json_object: a bad one is
refused as a Refusal, naming the file (and the line of a JSON-lines file)
and the problem."""

import pytest

from diffmsg.cli import PipelineConfig
from diffmsg.corpus import Refusal, ingest_jsonl
from diffmsg.nmt import load_checkpoint
from diffmsg.nmt.training import CHECKPOINT_FORMAT_VERSION
from diffmsg.qa import QA_MODEL_FORMAT_VERSION, load_gold_jsonl, load_qa_model

CORPUS_LINE = b'{"id": "a", "diff": "d", "message": "m"}\n'
GOLD_LINE = b'{"id": "a", "diff": "d", "scores": [1]}\n'

# reader -> (file name, load, error class, format version or None, the file
# around one JSON text, where the message names after the path)
INPUTS = {
    "config": ("config.json", PipelineConfig.load, Refusal, None,
               lambda text: text, ""),
    "corpus_line": ("corpus.jsonl", lambda path: list(ingest_jsonl(path)), Refusal, None,
                    lambda text: CORPUS_LINE + text + b"\n", ": line 2"),
    "gold_line": ("gold.jsonl", load_gold_jsonl, Refusal, None,
                  lambda text: GOLD_LINE + text + b"\n", ": line 2"),
    "checkpoint_header": ("model.ckpt", load_checkpoint, Refusal,
                          CHECKPOINT_FORMAT_VERSION, lambda text: text + b"\n" + bytes(64),
                          ": header"),
    "qa_model": ("qa_model.json", load_qa_model, Refusal, QA_MODEL_FORMAT_VERSION,
                 lambda text: text, ""),
}


def bad_json(case, version, lines):
    """(JSON text, the problem named) of one bad case; a JSON-lines reader
    decodes bytes that are not UTF-8 to U+FFFD, which is not JSON here."""
    return {
        "invalid_json": (b'{"id": ', "invalid JSON: Expecting value"),
        "too_deep": (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        "not_an_object": (b'["id"]', "not a JSON object"),
        "not_utf8": (b'{"id": \xff}', "invalid JSON: Expecting value" if lines else
                     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 7"),
        "wrong_version": (b'{"format_version": 99}', f"format version 99 != {version}"),
        "float_version": (f'{{"format_version": {version}.0}}'.encode(),
                          f"format version {version}.0 != {version}"),
    }[case]


CASES = [(reader, case) for reader, spec in INPUTS.items()
         for case in ("invalid_json", "too_deep", "not_an_object", "not_utf8", "wrong_version",
                      "float_version")
         if spec[3] is not None or "version" not in case]


@pytest.mark.parametrize("reader, case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_bad_json_input_is_the_readers_named_error(tmp_path, reader, case):
    name, load, error, version, wrap, at = INPUTS[reader]
    text, problem = bad_json(case, version, lines=at.startswith(": line"))
    path = tmp_path / name
    path.write_bytes(wrap(text))
    with pytest.raises(error) as info:
        load(path)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{path}{at}: {problem}")
