import configparser
import dataclasses
import json
import re
from decimal import Decimal
from pathlib import Path

import pytest

from clover_forge.cli import build_parser, main
from clover_forge.config import SECTIONS, Config, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
CAPTION = " ".join(f"w{j}" for j in range(30))
COST_RATIO = ["cost-ratio", "--metric", "83.90", "--params", "187000000"]


@pytest.fixture(autouse=True)
def no_env_config(monkeypatch):
    monkeypatch.delenv("CLOVER_CONFIG", raising=False)


def write_config(tmp_path, text, name="c.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"image_id": "a", "captions": [CAPTION], "merged_caption": CAPTION}) + "\n"
    )
    return str(path)


def test_sections_place_every_key_once():
    keys = [key for section_keys in SECTIONS.values() for key in section_keys]
    assert keys == [f.name for f in dataclasses.fields(Config)]


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    assert load_config(write_config(tmp_path, block)) == Config()
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert {section: tuple(parser[section]) for section in parser.sections()} == SECTIONS


def test_retired_keys_are_ignored(tmp_path):
    path = write_config(
        tmp_path,
        "[backend]\ndialect = openai-chat\n[corpus]\nsampler = fisher-yates\n"
        "[metrics]\nlog_base_fixed = 10\n",
    )
    assert load_config(path) == Config()


@pytest.mark.parametrize(
    "section, key, raw, kind",
    [
        ("backend", "max_retries", "abc", "an integer"),
        ("backend", "backoff_base_s", "fast", "a number"),
        ("generation", "budget_usd", "lots", "a decimal"),
        ("generation", "strict_parse", "maybe", "a boolean"),
    ],
)
def test_unparsable_value_names_its_key(tmp_path, capsys, section, key, raw, kind):
    path = write_config(tmp_path, f"[{section}]\n{key} = {raw}\n")
    code = main(["--config", path, *COST_RATIO])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: config key [{section}] {key} must be {kind}, got '{raw}'\n"


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("core", "seed", "-1"),
        ("corpus", "min_words", "0"),
        ("backend", "rate_in_usd_per_1k", "-0.001"),
        ("backend", "rate_out_usd_per_1k", "NaN"),
        ("backend", "max_concurrency", "0"),
        ("backend", "max_retries", "-1"),
        ("backend", "backoff_base_s", "-1"),
        ("backend", "max_completion_tokens", "0"),
        ("backend", "max_completion_tokens", "-400"),
        ("generation", "budget_usd", "-1"),
        ("generation", "budget_usd", "NaN"),
        ("generation", "budget_usd", "Infinity"),
    ],
)
def test_out_of_range_value_names_its_key(tmp_path, capsys, section, key, raw):
    path = write_config(tmp_path, f"[{section}]\n{key} = {raw}\n")
    code = main(["--config", path, *COST_RATIO])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: config key [{section}] {key} must be >= ")
    assert "Traceback" not in err


# Every flag that overrides a key: (argv, key, flag value). The file sets each
# key to another value, so the override shows.
FLAGS = [
    (["--seed", "9", "kernel-check"], "seed", 9),
    (["ingest", "--manifest", "m.jsonl", "--min-words", "3"], "min_words", 3),
    (["gen-template", "--bank", "flag_bank.txt"], "templates", "flag_bank.txt"),
    (["gen-qa", "--corpus", "flag.jsonl"], "corpus", "flag.jsonl"),
    (["gen-qa", "--fixtures", "flag_fx"], "fixtures", "flag_fx"),
    (["gen-qa", "--budget", "2.5"], "budget_usd", Decimal("2.5")),
    (["gen-qa", "--lenient"], "strict_parse", False),
    (["cost-estimate", "--budget", "3"], "budget_usd", Decimal("3")),
]
FILE = (
    "[core]\nseed = 4\n[paths]\ncorpus = file.jsonl\ntemplates = file_bank.txt\n"
    "fixtures = file_fx\n[corpus]\nmin_words = 40\n"
    "[generation]\nbudget_usd = 0.50\nstrict_parse = true\n"
)


@pytest.mark.parametrize("argv, key, value", FLAGS, ids=[" ".join(a) for a, _, _ in FLAGS])
def test_flag_overrides_the_file(tmp_path, argv, key, value):
    path = write_config(tmp_path, FILE)
    from_file = load_config(path)
    merged = load_config(path, vars(build_parser().parse_args(argv)))
    assert getattr(merged, key) == value != getattr(from_file, key)
    assert dataclasses.replace(merged, **{key: getattr(from_file, key)}) == from_file


def test_budget_flag_beats_file_and_env_path_is_honoured(tmp_path, monkeypatch, capsys, corpus):
    monkeypatch.setenv("CLOVER_CONFIG", write_config(tmp_path, "[generation]\nbudget_usd = 0.50\n"))
    assert main(["cost-estimate", "--corpus", corpus]) == 0
    assert capsys.readouterr().out.endswith("(within budget $0.50)\n")
    assert main(["cost-estimate", "--corpus", corpus, "--budget", "0.0001"]) == 0
    assert capsys.readouterr().out.endswith("(EXCEEDS budget $0.0001)\n")
    other = write_config(tmp_path, "[generation]\nbudget_usd = 7\n", name="other.ini")
    assert main(["--config", other, "cost-estimate", "--corpus", corpus]) == 0
    assert capsys.readouterr().out.endswith("(within budget $7)\n")


def test_strict_and_lenient_are_exclusive(capsys):
    assert main(["gen-qa", "--strict", "--lenient", "--dry-run"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_min_words_flag_below_one_is_an_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"image_id": "a", "caption": CAPTION}) + "\n")
    out = tmp_path / "corpus.jsonl"
    code = main(["ingest", "--manifest", str(manifest), "--out", str(out), "--min-words", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config key [corpus] min_words must be >= 1")
    assert not out.exists()


def test_percent_in_a_value_is_literal(tmp_path):
    path = write_config(tmp_path, "[backend]\nendpoint = http://x/a%20b\n")
    assert load_config(path).endpoint == "http://x/a%20b"
    assert main(["--config", path, *COST_RATIO]) == 0


@pytest.mark.parametrize(
    "text",
    ["seed = 3\n", "[core]\nseed = 1\n[core]\nseed = 2\n", "[core]\nseed\n"],
    ids=["no-section-header", "duplicate-section", "line-without-value"],
)
def test_malformed_file_is_an_error_naming_the_file(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    code = main(["--config", path, *COST_RATIO])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: config file {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["gen-qa", "--dry-run"], ["cost-estimate"]])
def test_unparsable_budget_flag_is_a_usage_error(capsys, argv):
    assert main([*argv, "--budget", "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: clover-forge ")
    assert err.endswith("argument --budget: invalid decimal value: 'abc'\n")
    assert "Traceback" not in err
