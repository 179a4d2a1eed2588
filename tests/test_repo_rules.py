"""Source rules no behaviour test would see broken, and reruns under two hash seeds."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import diffmsg
from diffmsg.cli import EXIT_ERROR, PipelineConfig, _build_parser, main
from diffmsg.corpus import MAX_DIFF_BYTES, Refusal, field_types
from diffmsg.nmt.training import _HEADER_KEYS, CHECKPOINT_FORMAT_VERSION
from diffmsg.qa import QA_MODEL_FORMAT_VERSION
from test_cli import toy_corpus_lines, write_corpus, write_gold

ROOT = Path(__file__).resolve().parents[1]


def src_lines(pattern):  # (path from the repo root, line) of each src/ line pattern finds
    return [(path.relative_to(ROOT).as_posix(), line) for path in sorted(ROOT.glob("src/**/*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if re.search(pattern, line)]


# corpus.read_json_object is the one JSON reader; nmt.training names, lists
# and resets the checkpoint files, and reads every checkpoint payload; cli's
# loaded run is the one cache keyed on a file's identity
@pytest.mark.parametrize("pattern, home", [
    (r"json\.load", "corpus.py"), (r"checkpoint_[*{]", "nmt/training.py"),
    (r"readinto|np\.fromfile|np\.memmap", "nmt/training.py"), (r"st_ctime_ns", "cli.py"),
], ids=["json_reader", "checkpoint_namer", "checkpoint_reader", "file_identity"])
def test_one_module_does_it(pattern, home):
    assert {path for path, _ in src_lines(pattern)} <= {f"src/diffmsg/{home}"}


def top_level(source, name):
    """The top-level statement of source that defines name, through the next one."""
    return re.search(rf"^(class|def) {name}\b.*?(\n[a-z@][^\n]*|\Z)", source, re.M | re.S).group()


def test_main_catches_no_bug():
    # a refusal, an OSError or a diverged run is an exit-1 error; any other exception is a bug
    # and propagates, so no handler catches everything but atomic_write's, which re-raises
    assert src_lines(r"except Exception\b") == []
    corpus = (ROOT / "src/diffmsg/corpus.py").read_text(encoding="utf-8")
    assert [path for path, _ in src_lines(r"except BaseException\b")] == ["src/diffmsg/corpus.py"]
    assert "except BaseException" in top_level(corpus, "atomic_write")


def test_no_subprocess():
    # prepare reads the config and the corpus file alone; no stage runs another program
    assert src_lines(r"\bsubprocess\b") == []


def test_refusal_is_the_one_exception_class():
    names = ["diffmsg", *(info.name for info in pkgutil.walk_packages(diffmsg.__path__, "diffmsg."))]
    modules = list(map(importlib.import_module, names))
    defined = {f"{module.__name__}.{name}" for module in modules
               for name, value in vars(module).items() if isinstance(value, type)
               and issubclass(value, BaseException) and value.__module__ == module.__name__}
    assert defined == {"diffmsg.corpus.Refusal"}


def test_type_hints_keep_the_annotated_ranges():
    assert [(path, line.lstrip(" ")) for path, line in src_lines("get_type_hints")] == [
        ("src/diffmsg/corpus.py", "return typing.get_type_hints(cls, include_extras=True)")]


def test_a_dataclass_checks_its_fields_only_in_checked():
    assert [path for path, _ in src_lines(r"schema_problem\(vars\(")] == ["src/diffmsg/corpus.py"]
    corpus = (ROOT / "src/diffmsg/corpus.py").read_text(encoding="utf-8")
    checked = top_level(corpus, "Checked")
    assert sum("schema_problem(vars(" in line for line in checked.splitlines()) == 1


def test_the_config_holds_only_paths_and_bounded_ints():
    # one form per value, so corpus.Checked is the config's only check
    for key, annotation in field_types(PipelineConfig).items():
        bounded = typing.get_origin(annotation) is typing.Annotated
        assert annotation is str or (bounded and annotation.__origin__ is int), key
    assert "src/diffmsg/cli.py" not in {path for path, _ in src_lines(r"def __post_init__\b")}


def test_every_setting_comes_from_the_config():
    # one config file describes one run: no flag overrides a config key
    options = {option for action in _build_parser()._actions for option in action.option_strings}
    assert options == {"--config", "-h", "--help"}


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--vdo", "off"], ["--vdo-lexicon", "p"]],
                         ids=["seed", "vdo", "vdo_lexicon"])
def test_a_setting_given_as_a_flag_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exited:
        main([*flag, "prepare"])
    assert exited.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: diffmsg") and "diffmsg: error: " in err


def test_readme_documents_the_formats_written():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert f"### Checkpoint format (version {CHECKPOINT_FORMAT_VERSION})" in lines
    assert f"### QA model format (version {QA_MODEL_FORMAT_VERSION})" in lines


def test_readme_lists_every_checkpoint_header_key():
    # the list "- `key`, `key`: meaning" after "Header keys:" under "### Checkpoint format"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Checkpoint format", 1)[1].split("Header keys:", 1)[1]
    bullets = section.strip("\n").split("\n\n", 1)[0]
    listed = [key for bullet in re.findall(r"^- ((?:`\w+`(?:, )?)+):", bullets, re.M)
              for key in re.findall(r"`(\w+)`", bullet)]
    assert sorted(listed) == sorted({*_HEADER_KEYS, "format_version"})


def test_readme_tables_every_config_key_with_its_default():
    # the rows "| `key` | `default as JSON` | range | meaning |" under "### Config"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme.split("### Config", 1)[1], re.M)
    assert dict(rows) == {key: json.dumps(getattr(PipelineConfig(), key))
                          for key in field_types(PipelineConfig)}
    assert len(rows) == len(field_types(PipelineConfig))


def test_readme_keys_a_config_may_no_longer_set_stay_dropped():
    # the sentence "A config that still sets `key`, ... or `key` exits 1 ..." under "### Config"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config_section = readme.split("### Config", 1)[1]
    sentence = re.search(r"A config\s+that\s+still\s+sets\s(.*?)\sexits\s+1", config_section,
                         re.S).group(1)
    dropped = re.findall(r"`(\w+)`", sentence)
    assert dropped
    for key in dropped:
        assert key not in field_types(PipelineConfig)
        with pytest.raises(Refusal, match=f"^config: unknown config keys: {key}$"):
            PipelineConfig.from_json(json.dumps({key: 1}))


def test_the_diff_cap_is_the_one_the_benchmark_assumes():
    # messy sizes its largest diffs just under and just over benchmarks/workloads.py's cap, and
    # run.py checks that funnel, so a changed cap fails here and not as a wrong benchmark run
    workloads = (ROOT / "benchmarks/workloads.py").read_text(encoding="utf-8")
    (assumed,) = re.findall(r"^MAX_DIFF_BYTES = ([\d_]+)", workloads, re.M)
    assert int(assumed) == MAX_DIFF_BYTES


PIPELINE = """import sys
from diffmsg.cli import main
for command in (["prepare"], ["train"], ["evaluate"], ["qa", "train", "--gold", "../gold.jsonl"]):
    assert main(["--config", "../config.json", *command]) == 0, command
for diff in sys.argv[1:]:
    print("exit", main(["--config", "../config.json", "generate", "--with-qa", "--diff", diff]))
"""


def test_reruns_are_byte_identical_across_hash_seeds(tmp_path):
    # within one process a string always hashes alike, so set order differs only across seeds
    write_corpus(tmp_path / "corpus.jsonl", toy_corpus_lines())
    write_gold(tmp_path / "gold.jsonl")
    (tmp_path / "config.json").write_text(json.dumps({
        "corpus_jsonl": str(tmp_path / "corpus.jsonl"), "work_dir": "work", "embed_dim": 16,
        "hidden_dim": 24, "minibatch_size": 8, "valid_size": 4, "test_size": 4, "max_epochs": 30,
        "validate_every": 20, "checkpoint_every": 20, "seed": 7}))
    diffs = ["other_3 + helper_2 ( x )", "other_5 - old_call_9 ( x )", "zomg_marker_1 x", ""]
    for i, diff in enumerate(diffs):
        (tmp_path / f"{i}.diff").write_text(diff, encoding="utf-8")
    runs = {}
    for seed in (0, 1):  # each run's directory holds its work dir
        (tmp_path / f"seed{seed}").mkdir()
        runs[tmp_path / f"seed{seed}"] = subprocess.Popen(
            [sys.executable, "-c", PIPELINE, *(f"../{i}.diff" for i in range(len(diffs)))],
            cwd=tmp_path / f"seed{seed}", stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(ROOT / "src")})
    outputs = [run.communicate(timeout=120)[0] for run in runs.values()]
    assert [run.returncode for run in runs.values()] == [0, 0] and outputs[0] == outputs[1]
    work = [{p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()} for d in runs]
    assert work[0] == work[1]
