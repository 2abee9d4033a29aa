import dataclasses
import gc
import json
import os
import re
import shlex
import threading
from decimal import Decimal
from pathlib import Path

import pytest

from clover_forge import fewshot, instructions, metrics
from clover_forge.backends import MockBackend
from clover_forge.cli import build_parser, main
from clover_forge.instructions import (
    Instruction,
    Provenance,
    instruction_digest,
    make_dataset,
    make_instruction,
    write_dataset,
)
from clover_forge.jsonio import read_jsonl
from clover_forge.prompts import build_prompt, envelope_digest

DATA = Path(__file__).parent / "data"

COMPLETION = """Question: What tissue is shown?
Answer: The image shows glandular tissue.

Question: Are nuclei regular?
Answer: The nuclei appear regular in the image.

Question: Any signs of inflammation?
Answer: No clear inflammatory infiltrate is visible.

Question: What stain is this?
Answer: The appearance is consistent with hematoxylin and eosin.
"""


@pytest.fixture
def pinned_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(
        "[core]\nseed = 0\ncreated_at = 2026-01-01T00:00:00Z\n"
        "[backend]\nmax_retries = 2\nbackoff_base_s = 0.0\n"
    )
    return str(path)


@pytest.fixture
def corpus_file(tmp_path, pinned_config):
    manifest = tmp_path / "manifest.jsonl"
    with manifest.open("w") as fh:
        for i in range(6):
            caption = " ".join(f"w{i}t{j}" for j in range(30))
            fh.write(
                json.dumps(
                    {"image_id": f"img{i:02d}", "image_ref": f"{i}.png", "caption": caption}
                )
                + "\n"
            )
    out = tmp_path / "corpus.jsonl"
    code = main(
        ["--config", pinned_config, "ingest", "--manifest", str(manifest), "--out", str(out)]
    )
    assert code == 0
    return out


def stage_fixtures(fixture_dir, corpus_path, completion=COMPLETION):
    fixture_dir.mkdir(exist_ok=True)
    for line in corpus_path.read_text().splitlines():
        row = json.loads(line)
        digest = envelope_digest(build_prompt(row["merged_caption"]))
        (fixture_dir / f"{digest}.txt").write_text(completion)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert main(["ingest", "--out", "x.jsonl"]) == 2

    def test_operational_error_is_exit_one(self, capsys, pinned_config):
        code = main(
            ["--config", pinned_config, "cost-ratio", "--metric", "50", "--params", "1000"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCostRatio:
    @pytest.mark.parametrize(
        "metric,params,expected",
        [("83.90", "187000000", "36.93"), ("88.00", "236000000", "37.09"),
         ("54.33", "187000000", "23.91"), ("40.74", "187000000", "17.93")],
    )
    def test_prints_two_decimal_ratio(self, capsys, metric, params, expected):
        assert main(["cost-ratio", "--metric", metric, "--params", params]) == 0
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("metric", ["nan", "inf", "-inf", "-5", "250"])
    def test_non_finite_metric_is_an_error(self, capsys, metric):
        assert main(["cost-ratio", f"--metric={metric}", "--params", "187000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: metric must be finite")
        assert captured.out == ""

    @pytest.mark.parametrize("params", ["1000000", "1" + "0" * 308 + "1", "9" * 401],
                             ids=["1e6", "1e308-plus-1", "401-digits"])
    def test_params_out_of_range_is_an_error(self, capsys, params):
        assert main(["cost-ratio", "--metric", "50", "--params", params]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: trainable_params must exceed 1e6 and be at most")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestDryRun:
    def test_envelope_matches_golden_bytes(self, capsys):
        code = main(
            [
                "gen-qa",
                "--dry-run",
                "--caption",
                "Apoptotic keratinocytes are present within the epidermis.",
            ]
        )
        assert code == 0
        golden = (DATA / "dry_run_envelope.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_digest_emission(self, capsys):
        assert main(["gen-qa", "--dry-run", "--caption", "cap", "--emit", "digest"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == envelope_digest(build_prompt("cap"))

    def test_empty_caption_is_an_error(self, capsys):
        assert main(["gen-qa", "--dry-run", "--caption", "", "--emit", "digest"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: caption is empty\n"
        assert captured.out == ""


class TestPipelineFlow:
    def test_ingest_template_generate_assemble_split_sample(
        self, tmp_path, pinned_config, corpus_file, capsys
    ):
        tmpl = tmp_path / "tmpl.jsonl"
        assert (
            main(
                ["--config", pinned_config, "gen-template", "--corpus", str(corpus_file),
                 "--out", str(tmpl)]
            )
            == 0
        )
        fixtures = tmp_path / "fx"
        stage_fixtures(fixtures, corpus_file)
        gen = tmp_path / "gen.jsonl"
        assert (
            main(
                ["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures), "--out", str(gen)]
            )
            == 0
        )
        hybrid = tmp_path / "hybrid.jsonl"
        assert (
            main(
                ["--config", pinned_config, "assemble", "--gen", str(gen),
                 "--tmpl", str(tmpl), "--out", str(hybrid)]
            )
            == 0
        )
        assert len(hybrid.read_text().splitlines()) == 12

        splits_dir = tmp_path / "splits"
        assert (
            main(
                ["--config", pinned_config, "split-subsets", "--dataset", str(hybrid),
                 "--k", "3", "--out-dir", str(splits_dir)]
            )
            == 0
        )
        sizes = [
            len((splits_dir / f"subset_{i}.jsonl").read_text().splitlines())
            for i in (1, 2, 3)
        ]
        assert sizes == [4, 4, 4]

        sampled = tmp_path / "sampled.jsonl"
        assert (
            main(
                ["--config", pinned_config, "sample-scale", "--dataset", str(hybrid),
                 "--size", "5", "--out", str(sampled)]
            )
            == 0
        )
        assert len(sampled.read_text().splitlines()) == 5

    def test_outputs_byte_identical_across_runs(self, tmp_path, pinned_config, corpus_file):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            assert (
                main(
                    ["--config", pinned_config, "gen-template", "--corpus",
                     str(corpus_file), "--out", str(out)]
                )
                == 0
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_lenient_parse_warnings_go_to_stderr(
        self, tmp_path, pinned_config, corpus_file, capsys
    ):
        fixtures = tmp_path / "fx"
        stage_fixtures(fixtures, corpus_file, COMPLETION.split("\n\n")[0] + "\n")
        gen = tmp_path / "gen.jsonl"
        code = main(["--config", pinned_config, "gen-qa", "--lenient", "--corpus",
                     str(corpus_file), "--fixtures", str(fixtures), "--out", str(gen)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("generated 6 instructions, skipped 0,")
        assert captured.out.count("\n") == 1
        assert captured.err.splitlines() == [
            f"warning: img{i:02d}: expected 4-5 QA pairs, found 1" for i in range(6)
        ]
        assert len(gen.read_text().splitlines()) == 6

    def test_resumed_gen_qa_prints_the_spend_of_the_whole_checkpoint(
        self, tmp_path, pinned_config, corpus_file, capsys
    ):
        fixtures = tmp_path / "fx"
        stage_fixtures(fixtures, corpus_file)
        first_half = tmp_path / "half.jsonl"
        first_half.write_text("".join(corpus_file.read_text().splitlines(keepends=True)[:3]))
        checkpoint = tmp_path / "gen.checkpoint.jsonl"
        for corpus in (first_half, corpus_file):
            assert main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus),
                         "--fixtures", str(fixtures), "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / "gen.jsonl")]) == 0
        costs = [Decimal(row["estimated_cost_usd"]) for _, row in read_jsonl(checkpoint)]
        assert len(costs) == 6
        first, resumed = capsys.readouterr().out.splitlines()
        assert f"spent ${sum(costs[:3], start=Decimal(0))} ->" in first
        assert f"spent ${sum(costs, start=Decimal(0))} ->" in resumed

    def test_lint_subcommand_reports(self, tmp_path, pinned_config, corpus_file, capsys):
        tmpl = tmp_path / "tmpl.jsonl"
        main(["--config", pinned_config, "gen-template", "--corpus", str(corpus_file),
              "--out", str(tmpl)])
        report = tmp_path / "lint.json"
        assert (
            main(["--config", pinned_config, "lint", "--instructions", str(tmpl),
                  "--out", str(report)])
            == 0
        )
        assert "linted 6 instructions" in capsys.readouterr().out
        assert json.loads(report.read_text()) == []


def test_worker_exception_skips_its_record_and_the_run_goes_on(
    tmp_path, pinned_config, corpus_file, capsys
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    third = json.loads(corpus_file.read_text().splitlines()[2])
    fixture = fixtures / f"{envelope_digest(build_prompt(third['merged_caption']))}.txt"
    fixture.unlink()
    fixture.mkdir()
    out = tmp_path / "gen.jsonl"
    code = main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    ids = [f"img{i:02d}" for i in range(6) if i != 2]
    assert [row["image_id"] for _, row in read_jsonl(out)] == ids
    checkpoint = Path(f"{out}.checkpoint.jsonl")
    assert [row["image_id"] for _, row in read_jsonl(checkpoint)] == ids
    [(_, skip)] = read_jsonl(Path(f"{out}.skips.jsonl"))
    assert skip["image_id"] == "img02"
    assert skip["reason"].startswith("worker_error: IsADirectoryError: ")


class TestEvalVqa:
    def test_report_written_and_table_printed(self, tmp_path, capsys):
        examples = tmp_path / "examples.jsonl"
        rows = [
            {"example_id": "1", "question": "q", "reference": "tumor cells visible",
             "prediction": "tumor cells visible", "qtype": "open"},
            {"example_id": "2", "question": "q", "reference": "yes",
             "prediction": "Yes, it is.", "qtype": "closed"},
        ]
        examples.write_text("".join(json.dumps(r) + "\n" for r in rows))
        report = tmp_path / "report.json"
        code = main(["eval-vqa", "--examples", str(examples), "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed accuracy" in out
        obj = json.loads(report.read_text())
        assert obj["closed_accuracy_pct"] == 100.0
        assert obj["open_recall_pct"] == 100.0
        assert len(obj["per_example"]) == 2

    def test_a_blank_reference_is_a_line_numbered_error(self, tmp_path, capsys):
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps({"example_id": "e1", "reference": " \t",
                                        "prediction": "yes", "qtype": "closed"}) + "\n")
        report = tmp_path / "report.json"
        assert main(["eval-vqa", "--examples", str(examples), "--report", str(report)]) == 1
        assert capsys.readouterr() == ("", "error: line 1: example e1: empty reference\n")
        assert not report.exists()

    def test_report_bytes_are_pinned(self, tmp_path, capsys):
        examples = tmp_path / "examples.jsonl"
        rows = [
            {"example_id": "c1", "reference": "no", "prediction": "No, it is not.",
             "qtype": "closed"},
            {"example_id": "o1", "reference": "atypical glands with mucin",
             "prediction": "glands with mucin and necrosis", "qtype": "open"},
            {"example_id": "o2", "reference": "???", "prediction": "anything", "qtype": "open"},
        ]
        examples.write_text("".join(json.dumps(r) + "\n" for r in rows))
        report = tmp_path / "report.json"
        assert main(["eval-vqa", "--examples", str(examples), "--report", str(report)]) == 0
        assert report.read_bytes() == (
            b'{\n'
            b'  "closed_accuracy_pct": 100.0,\n'
            b'  "open_recall_pct": 75.0,\n'
            b'  "recall_pct": 75.0,\n'
            b'  "precision_pct": 60.0,\n'
            b'  "f1_pct": 66.66666666666666,\n'
            b'  "mean_ref_len": 2.5,\n'
            b'  "mean_pred_len": 4.5,\n'
            b'  "n_open": 1,\n'
            b'  "n_closed": 1,\n'
            b'  "warnings": [\n'
            b'    "example o2: reference normalizes empty; excluded"\n'
            b'  ],\n'
            b'  "per_example": [\n'
            b'    {\n'
            b'      "example_id": "o1",\n'
            b'      "qtype": "open",\n'
            b'      "recall": 0.75,\n'
            b'      "precision": 0.6,\n'
            b'      "f1": 0.6666666666666665\n'
            b'    },\n'
            b'    {\n'
            b'      "example_id": "c1",\n'
            b'      "qtype": "closed",\n'
            b'      "correct": true\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )
        assert capsys.readouterr().out == (
            "n_open=1 n_closed=1\n"
            " closed accuracy %: 100.00\n"
            "     open recall %: 75.00\n"
            "          recall %: 75.00\n"
            "       precision %: 60.00\n"
            "              f1 %: 66.67\n"
            "    mean ref words: 2.50\n"
            "   mean pred words: 4.50\n"
            f"report -> {report}\n"
        )

    @pytest.mark.parametrize("polarity", ["yes,", ",no", "Yes,No", "yes,yes", "yes,no,maybe",
                                          "yes no,no"])
    def test_polarity_needs_two_different_normalized_tokens(self, tmp_path, capsys, polarity):
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps({"example_id": "1", "reference": "yes",
                                        "prediction": "yes and no", "qtype": "closed"}) + "\n")
        code = main(["eval-vqa", "--examples", str(examples), f"--polarity={polarity}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --polarity must be two different")
        assert captured.out == ""

    def test_bad_closed_reference_names_its_example(self, tmp_path, capsys):
        examples = tmp_path / "examples.jsonl"
        examples.write_text(json.dumps({"example_id": "c7", "reference": "maybe",
                                        "prediction": "yes", "qtype": "closed"}) + "\n")
        code = main(["eval-vqa", "--examples", str(examples)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: example c7: closed reference must contain exactly "
                                "one of ('yes', 'no'): 'maybe'\n")
        assert captured.out == ""


class TestClinicalCommands:
    def test_fewshot_split_and_to_vqa(self, tmp_path, clinical_manifest, capsys):
        test_wsis = tmp_path / "test_wsis.txt"
        test_wsis.write_text(
            "".join(f"stomach_t{i:02d}\n" for i in (1, 2, 3))
            + "".join(f"stomach_n{i:02d}\n" for i in (1, 2, 3, 4))
        )
        out_dir = tmp_path / "splits"
        code = main(
            ["fewshot-split", "--patches", str(clinical_manifest), "--organ", "stomach",
             "--k", "2", "--test-wsis", str(test_wsis), "--out-dir", str(out_dir)]
        )
        assert code == 0
        files = sorted(out_dir.glob("stomach_k2_r*.jsonl"))
        assert len(files) == 5
        vqa = tmp_path / "vqa.jsonl"
        assert main(["to-vqa", "--patches", str(clinical_manifest), "--out", str(vqa)]) == 0
        # Both outputs are JSONL: one compact object per line.
        (first,), vqa_rows = ([row for _, row in read_jsonl(p)] for p in (files[0], vqa))
        assert len(first["train_wsis"]) == 4
        assert len(vqa_rows) == 7112
        assert vqa_rows[0]["question"].startswith("Is this pathological image")
        for path, rows in ((files[0], [first]), (vqa, vqa_rows)):
            compact = [json.dumps(r, ensure_ascii=False, separators=(",", ":")) for r in rows]
            assert path.read_text(encoding="utf-8").splitlines() == compact

    def test_failed_to_vqa_write_keeps_previous_file(self, tmp_path, monkeypatch):
        patches = tmp_path / "patches.csv"
        patches.write_text(
            "patch_id,wsi_id,organ,label,patch_ref\n"
            + "".join(f"p{i},w1,stomach,tumor,\n" for i in range(3))
        )
        out = tmp_path / "vqa.jsonl"
        assert main(["to-vqa", "--patches", str(patches), "--out", str(out)]) == 0
        before = out.read_bytes()
        good = fewshot.to_vqa(fewshot.ingest_patches(patches))
        unserializable = dataclasses.replace(good[0], example_id=object())
        monkeypatch.setattr(fewshot, "to_vqa", lambda _: good[:1] + [unserializable])
        with pytest.raises(TypeError):
            main(["to-vqa", "--patches", str(patches), "--out", str(out)])
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestKernelAndCost:
    def test_kernel_check_exits_zero_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "kernel.json"
        assert main(["kernel-check", "--out", str(report)]) == 0
        assert "kernel-check passed" in capsys.readouterr().out
        assert json.loads(report.read_text())["passed"] is True

    def test_cost_estimate_prints_projection(self, pinned_config, corpus_file, capsys):
        code = main(
            ["--config", pinned_config, "cost-estimate", "--corpus", str(corpus_file)]
        )
        assert code == 0
        assert "projected worst-case spend" in capsys.readouterr().out


class TestConfig:
    def test_env_var_points_at_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[core]\nseed = 3\n")
        monkeypatch.setenv("CLOVER_CONFIG", str(cfg))
        assert main(["cost-ratio", "--metric", "83.90", "--params", "187000000"]) == 0

    def test_invalid_config_value_is_operational_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[backend]\nmode = live\n")  # live without endpoint
        code = main(
            ["--config", str(cfg), "cost-ratio", "--metric", "1", "--params", "2000000"]
        )
        assert code == 1
        assert "endpoint" in capsys.readouterr().err

    def test_missing_config_file_errors(self, tmp_path, capsys):
        absent = tmp_path / "absent.ini"
        assert main(["--config", str(absent), "kernel-check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(absent) in err
        assert "Traceback" not in err

    def test_outputs_default_under_configured_directory(self, tmp_path):
        cfg = tmp_path / "c.ini"
        out_dir = tmp_path / "artifacts"
        cfg.write_text(f"[core]\noutput_dir = {out_dir}\n")
        manifest = tmp_path / "m.jsonl"
        caption = " ".join(f"w{j}" for j in range(30))
        manifest.write_text(
            json.dumps({"image_id": "a", "image_ref": "a.png", "caption": caption}) + "\n"
        )
        assert main(["--config", str(cfg), "ingest", "--manifest", str(manifest)]) == 0
        assert (out_dir / "corpus.jsonl").exists()
        assert (
            main(["--config", str(cfg), "gen-template",
                  "--corpus", str(out_dir / "corpus.jsonl")])
            == 0
        )
        assert (out_dir / "template_instructions.jsonl").exists()

    def test_config_paths_serve_as_flag_defaults(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        caption = " ".join(f"w{j}" for j in range(30))
        corpus.write_text(
            json.dumps(
                {"image_id": "a", "captions": [caption], "merged_caption": caption}
            )
            + "\n"
        )
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[core]\noutput_dir = {tmp_path / 'outs'}\n[paths]\ncorpus = {corpus}\n"
        )
        assert main(["--config", str(cfg), "cost-estimate"]) == 0
        assert main(["--config", str(cfg), "gen-template"]) == 0


CAPTION = " ".join(f"w{j}" for j in range(30))


def _instruction(n=9, kind="template", pairs=(("Describe the image.", CAPTION),),
                 instruction_id=None):
    """A template-bank instruction row; its id is the digest of its content by default."""
    return {
        "instruction_id": instruction_id
        or instruction_digest(f"img{n}", kind, [q for q, _ in pairs]),
        "image_id": f"img{n}", "kind": kind,
        "turns": [{"question": q, "answer": a} for q, a in pairs],
        "provenance": {"method": "template-bank"},
    }


# Each JSONL input kind: a valid row for line n, and a key such a row cannot lack.
JSONL_ROWS = {
    "instructions": (_instruction, "turns"),
    "examples": (
        lambda n: {"example_id": f"e{n}", "question": "q", "reference": "yes",
                   "prediction": "yes", "qtype": "closed"},
        "reference",
    ),
    "corpus": (
        lambda n: {"image_id": f"img{n}", "image_ref": "", "captions": [CAPTION],
                   "merged_caption": CAPTION, "source": ""},
        "image_id",
    ),
    "fewshot": (lambda n: {"user": f"u{n}", "assistant": f"a{n}"}, "assistant"),
    "checkpoint": (
        lambda n: {"image_id": f"img{n}", "prompt_tokens": 10, "completion_tokens": 5,
                   "estimated_cost_usd": "0.001", "backend_id": "mock", "retries": 0},
        "prompt_tokens",
    ),
}

# Every subcommand that reads JSONL: (input kind, argv with {bad} as that input).
JSONL_COMMANDS = {
    "lint": ("instructions", ["lint", "--instructions", "{bad}"]),
    "assemble": ("instructions", ["assemble", "--gen", "{bad}", "--tmpl", "{bad}",
                                  "--out", "{out}"]),
    "eval-vqa": ("examples", ["eval-vqa", "--examples", "{bad}"]),
    "gen-qa-corpus": ("corpus", ["gen-qa", "--corpus", "{bad}", "--fixtures", "{fixtures}",
                                 "--out", "{out}"]),
    "gen-qa-fewshot": ("fewshot", ["gen-qa", "--dry-run", "--fewshot", "{bad}"]),
    "gen-qa-checkpoint": ("checkpoint", ["gen-qa", "--corpus", "{corpus}", "--fixtures",
                                         "{fixtures}", "--checkpoint", "{bad}",
                                         "--out", "{out}"]),
    "gen-template": ("corpus", ["gen-template", "--corpus", "{bad}", "--out", "{out}"]),
}


def _named(kind: str, path: Path) -> str:
    """The prefix of a bad line's error: the checkpoint, usually a default path that
    the user never typed, is named; every other input is the one its flag names."""
    return f"{path}: " if kind == "checkpoint" else ""


@pytest.mark.parametrize(
    "bad_line", ["not-an-object", "not-json", "missing-key", "not-utf-8", "nested-too-deeply",
                 "integer-too-long"]
)
@pytest.mark.parametrize("command", sorted(JSONL_COMMANDS))
def test_bad_jsonl_line_is_reported_by_line_number(
    tmp_path, pinned_config, corpus_file, capsys, command, bad_line
):
    kind, argv = JSONL_COMMANDS[command]
    make_row, required = JSONL_ROWS[kind]
    row = make_row(3)
    del row[required]
    third = {"not-an-object": b"[1, 2]", "not-json": b"{not json",
             "missing-key": json.dumps(row).encode(),
             "not-utf-8": json.dumps(make_row(3)).encode().replace(b'"', b'"\xff', 1),
             "nested-too-deeply": b"[" * 100_000,
             "integer-too-long": b'{"n": ' + b"1" * 5000 + b"}"}[bad_line]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(
        "".join(json.dumps(make_row(n)) + "\n" for n in (1, 2)).encode() + third + b"\n"
    )
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    paths = {"bad": bad, "corpus": corpus_file, "fixtures": fixtures,
             "out": tmp_path / "out.jsonl"}
    code = main(["--config", pinned_config, *(a.format(**paths) for a in argv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {_named(kind, bad)}line 3: ")
    assert "Traceback" not in err


# A row value of the wrong type or out of range on line 3 of an input whose
# other rows are valid: (input kind, the bad row's values, expected message).
MISTYPED_ROWS = {
    "eval-vqa-prediction-a-number": ("examples", {"prediction": 5}, "prediction must be a string"),
    "eval-vqa-example-id-a-number": ("examples", {"example_id": 7}, "example_id must be a string"),
    "eval-vqa-question-a-list": ("examples", {"question": ["q"]}, "question must be a string"),
    **{
        f"gen-qa-checkpoint-cost-{name}": (
            "checkpoint", {"estimated_cost_usd": cost},
            "estimated_cost_usd must be a finite non-negative decimal string",
        )
        for name, cost in (("nan", "NaN"), ("negative", "-5"), ("overflow", "1e999999999"),
                           ("past-the-sum-range", "1E+999972"))
    },
    "gen-qa-checkpoint-prompt-tokens-text": (
        "checkpoint", {"prompt_tokens": "x"}, "prompt_tokens must be a non-negative integer"
    ),
}
MISTYPED_ARGV = {
    "examples": ["eval-vqa", "--examples", "{bad}", "--report", "{out}"],
    "checkpoint": JSONL_COMMANDS["gen-qa-checkpoint"][1],
}


@pytest.mark.parametrize("case", sorted(MISTYPED_ROWS))
def test_mistyped_row_value_is_a_line_numbered_error(
    tmp_path, pinned_config, corpus_file, capsys, case
):
    kind, values, message = MISTYPED_ROWS[case]
    make_row, _ = JSONL_ROWS[kind]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n"
                           for row in (make_row(1), make_row(2), {**make_row(3), **values})))
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    paths = {"bad": bad, "corpus": corpus_file, "fixtures": fixtures,
             "out": tmp_path / "out" / "out.jsonl"}
    code = main(["--config", pinned_config, *(a.format(**paths) for a in MISTYPED_ARGV[kind])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {_named(kind, bad)}line 3: {message}")
    assert "Traceback" not in err
    assert not paths["out"].parent.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def _patch_row(n, field):
    label = b"tumor" if n % 2 else b"non_tumor"
    return b"p%d,w%d,stomach,%s,%s\n" % (n, n, label, field)


_FEWSHOT_SPLIT = ["fewshot-split", "--organ", "stomach", "--k", "1", "--replicates", "1",
                  "--out-dir", "{out}"]

# Each CSV input: its header, a row for line n holding `field` in its last
# column, a row that the reader rejects, and argv with {bad} as that input.
CSV_INPUTS = {
    "ingest": (
        b"image_id,caption\n",
        lambda n, field: b"img%d,%s\n" % (n, field),
        b",caption\n",
        ["ingest", "--format", "csv", "--manifest", "{bad}", "--out", "{out}"],
    ),
    "to-vqa": (
        b"patch_id,wsi_id,organ,label,patch_ref\n",
        _patch_row,
        b",w9,stomach,tumor,\n",
        ["to-vqa", "--patches", "{bad}", "--out", "{out}"],
    ),
    "fewshot-split-patches": (
        b"patch_id,wsi_id,organ,label,patch_ref\n",
        _patch_row,
        b",w9,stomach,tumor,\n",
        [*_FEWSHOT_SPLIT, "--patches", "{bad}", "--test-wsis", "{wsis}"],
    ),
}

# Bad CSV content from (header, row, rejected row), and the start of stderr.
BAD_CSV = {
    "not-utf-8": (lambda head, row, bad: head + row(1, b"a") + row(2, b"\xff"),
                  "error: line 3: not UTF-8 (byte 0xff)"),
    "oversized-field": (lambda head, row, bad: head + row(1, b"x" * 131_073),
                        "error: line 2: field larger than field limit"),
    "multi-line-field-then-bad-row": (lambda head, row, bad: head + row(1, b'"two\nlines"') + bad,
                                      "error: line 4: missing "),
    "zero-byte": (lambda head, row, bad: b"", "error: line 1: CSV header missing columns: "),
    "extra-field": (lambda head, row, bad: head + row(1, b"a") + row(2, b"a caption, with a comma"),
                    "error: line 3: {over} fields, but the header has {width}\n"),
}


def _clinical_inputs(tmp_path):
    """A patch manifest and a test-WSI list that make one 1-shot stomach split."""
    head, row, _, _ = CSV_INPUTS["to-vqa"]
    patches = tmp_path / "patches.csv"
    patches.write_bytes(head + b"".join(row(n, b"r.png") for n in (1, 2, 3)))
    wsis = tmp_path / "wsis.txt"
    wsis.write_text("w3\n")
    return {"patches": patches, "wsis": wsis, "out": tmp_path / "out"}


@pytest.mark.parametrize("case", sorted(BAD_CSV))
@pytest.mark.parametrize("command", sorted(CSV_INPUTS))
def test_bad_csv_line_is_reported_by_line_number(tmp_path, capsys, command, case):
    head, row, rejected, argv = CSV_INPUTS[command]
    make_bad, expected = BAD_CSV[case]
    width = len(head.split(b","))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(make_bad(head, row, rejected))
    paths = {**_clinical_inputs(tmp_path), "bad": bad}
    code = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(expected.format(over=width + 1, width=width))
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(CSV_INPUTS))
def test_csv_header_after_a_byte_order_mark_is_read(tmp_path, capsys, command):
    head, row, _, argv = CSV_INPUTS[command]
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + head + b"".join(row(n, b"r.png") for n in (1, 2, 3)))
    paths = {**_clinical_inputs(tmp_path), "bad": bom}
    assert main([a.format(**paths) for a in argv]) == 0
    assert capsys.readouterr().err == ""


def test_fewshot_split_rejects_a_test_wsi_that_matches_no_patch(tmp_path, capsys):
    paths = _clinical_inputs(tmp_path)
    with paths["patches"].open("a") as fh:
        fh.write("p9,i1,intestine,tumor,\n")
    argv = [a.format(**paths) for a in (*_FEWSHOT_SPLIT, "--patches", "{patches}",
                                        "--test-wsis", "{wsis}")]
    paths["wsis"].write_text("w3\nw_typo\ni1\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "w_typo" in err and "Traceback" not in err
    # A WSI of the other organ stays legal: one list serves both organs.
    paths["wsis"].write_text("w3\ni1\n")
    assert main(argv) == 0
    (split,) = paths["out"].glob("*.jsonl")
    assert next(read_jsonl(split))[1]["test_wsis"] == ["w3"]


# Patch manifest rows that the schema or its rules refuse, and the start of stderr.
BAD_PATCH_ROWS = {
    "unknown-organ": (b"p1,w1,colon,tumor,\n",
                      "error: line 2: organ must be 'stomach' or 'intestine'"),
    "unknown-label": (b"p1,w1,stomach,malignant,\n",
                      "error: line 2: label must be 'tumor' or 'non_tumor'"),
    "duplicate-patch-id": (b"p1,w1,stomach,tumor,\np1,w2,stomach,tumor,\n",
                           "error: line 3: duplicate patch_id p1"),
    "wsi-with-two-organs": (b"p1,w1,stomach,tumor,\np2,w1,intestine,tumor,\n",
                            "error: line 3: WSI w1 claims organ intestine but was stomach"),
}
PATCH_COMMANDS = ["fewshot-split-patches", "to-vqa"]


@pytest.mark.parametrize("case", sorted(BAD_PATCH_ROWS))
@pytest.mark.parametrize("command", PATCH_COMMANDS)
def test_patch_row_against_the_schema_is_a_line_numbered_error(tmp_path, capsys, command, case):
    head, _, _, argv = CSV_INPUTS[command]
    rows, expected = BAD_PATCH_ROWS[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(head + rows)
    paths = {**_clinical_inputs(tmp_path), "bad": bad}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected)
    assert "Traceback" not in err
    assert not paths["out"].exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", PATCH_COMMANDS)
def test_padded_patch_fields_give_the_bytes_of_unpadded_ones(tmp_path, command):
    head, _, _, argv = CSV_INPUTS[command]
    plain = _clinical_inputs(tmp_path)["patches"].read_bytes()[len(head):]
    padded = b"".join(b",".join(b" %s\t" % f for f in line.split(b",")) + b"\n"
                      for line in plain.splitlines())
    outputs = []
    for name, rows in (("plain", plain), ("padded", padded)):
        bad = tmp_path / f"{name}.csv"
        bad.write_bytes(head + rows)
        paths = {**_clinical_inputs(tmp_path), "bad": bad, "out": tmp_path / name}
        assert main([a.format(**paths) for a in argv]) == 0
        out = paths["out"]
        outputs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir())
                       if out.is_dir() else out.read_bytes())
    assert padded != plain
    assert outputs[0] == outputs[1]


def test_fewshot_split_warns_when_replicates_reuse_training_wsis(tmp_path, capsys):
    paths = _clinical_inputs(tmp_path)
    argv = ["fewshot-split", "--organ", "stomach", "--k", "1", "--out-dir", "{out}",
            "--patches", "{patches}", "--test-wsis", "{wsis}"]
    # One eligible WSI per class leaves one training set for every replicate.
    assert main([a.format(**paths) for a in argv] + ["--replicates", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: 2 of 3 replicates reuse an earlier replicate's "
                            "training WSIs\n")
    assert captured.out.startswith("built 3 1-shot splits for stomach")
    assert len(list(paths["out"].glob("*.jsonl"))) == 3


# Every line-list input: argv with {bad} as that input.
LINE_LIST_COMMANDS = {
    "fewshot-split-test-wsis": [*_FEWSHOT_SPLIT, "--patches", "{patches}", "--test-wsis", "{bad}"],
    "gen-template-bank": ["gen-template", "--corpus", "{corpus}", "--bank", "{bad}",
                          "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(LINE_LIST_COMMANDS))
def test_non_utf8_line_list_is_reported_by_line_number(
    tmp_path, pinned_config, corpus_file, capsys, command
):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"w1\n# comment\nw\xff3\n")
    paths = {**_clinical_inputs(tmp_path), "bad": bad, "corpus": corpus_file}
    code = main(["--config", pinned_config,
                 *(a.format(**paths) for a in LINE_LIST_COMMANDS[command])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 3: not UTF-8 (byte 0xff)")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(LINE_LIST_COMMANDS))
def test_repeated_line_in_a_line_list_names_both_lines(
    tmp_path, pinned_config, corpus_file, capsys, command
):
    bad = tmp_path / "bad.txt"
    bad.write_text("w3\n# w3\n\nw4\n  w3 \n")
    paths = {**_clinical_inputs(tmp_path), "bad": bad, "corpus": corpus_file}
    code = main(["--config", pinned_config,
                 *(a.format(**paths) for a in LINE_LIST_COMMANDS[command])])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: line 5: 'w3' repeats line 1\n"
    assert not paths["out"].exists()


# Input that parses as JSON but holds a wrong value: (bad file lines, sidecar bytes
# or None, argv with {bad} as that input, expected start of stderr).
BAD_VALUES = {
    "ingest-image-id-not-a-string": (
        [{"image_id": "img1", "caption": CAPTION}, {"image_id": 7, "caption": CAPTION}],
        None,
        ["ingest", "--manifest", "{bad}", "--out", "{out}"],
        "error: line 2: image_id must be a string",
    ),
    "ingest-caption-not-a-string": (
        [{"image_id": "img1", "caption": CAPTION}, {"image_id": "img2", "caption": ["a", "b"]}],
        None,
        ["ingest", "--manifest", "{bad}", "--out", "{out}", "--min-words", "1"],
        "error: line 2: caption must be a string",
    ),
    **{
        f"ingest-{key.replace('_', '-')}-not-a-string": (
            [{"image_id": "img1", "caption": CAPTION},
             {"image_id": "img2", "caption": CAPTION, key: value}],
            None,
            ["ingest", "--manifest", "{bad}", "--out", "{out}", "--min-words", "1"],
            f"error: line 2: {key} must be a string",
        )
        for key, value in (("image_ref", ["x", "y"]), ("source", 3))
    },
    **{
        f"corpus-{key.replace('_', '-')}-not-a-string": (
            [JSONL_ROWS["corpus"][0](1), {**JSONL_ROWS["corpus"][0](2), key: 7}],
            None,
            argv,
            f"error: line 2: {key} must be a string",
        )
        for key, argv in (
            ("image_id", ["gen-template", "--corpus", "{bad}", "--out", "{out}"]),
            ("image_ref", ["gen-template", "--corpus", "{bad}", "--out", "{out}"]),
            ("merged_caption", ["cost-estimate", "--corpus", "{bad}"]),
            ("source", ["gen-template", "--corpus", "{bad}", "--out", "{out}"]),
        )
    },
    "corpus-captions-not-a-list": (
        [JSONL_ROWS["corpus"][0](1), {**JSONL_ROWS["corpus"][0](2), "captions": "abc"}],
        None,
        ["gen-template", "--corpus", "{bad}", "--out", "{out}"],
        "error: line 2: captions must be a list",
    ),
    **{
        f"dataset-sidecar-{case}": (
            [JSONL_ROWS["instructions"][0](1)],
            sidecar,
            ["lint", "--instructions", "{bad}"],
            "error: {bad}.manifest.json: invalid JSON",
        )
        for case, sidecar in (
            ("not-json", b"{\n"),
            ("nested-too-deeply", b"[" * 100_000),
            ("not-utf-8", b'{"seed": "\xff"}\n'),
            ("integer-too-long", b'{"seed": ' + b"1" * 5000 + b"}\n"),
        )
    },
    "dataset-sidecar-not-an-object": (
        [JSONL_ROWS["instructions"][0](1)],
        b"[1]\n",
        ["lint", "--instructions", "{bad}"],
        "error: {bad}.manifest.json: expected a JSON object",
    ),
    **{
        f"fewshot-{key}-not-a-string-{command}": (
            [JSONL_ROWS["fewshot"][0](1), {**JSONL_ROWS["fewshot"][0](2), key: value}],
            None,
            argv,
            f"error: line 2: {key} must be a string",
        )
        for key, value in (("user", 5), ("assistant", ["x"]))
        for command, argv in (
            ("dry-run", ["gen-qa", "--dry-run", "--fewshot", "{bad}"]),
            ("gen-qa", ["gen-qa", "--corpus", "{corpus}", "--fewshot", "{bad}", "--out", "{out}"]),
            ("cost-estimate", ["cost-estimate", "--corpus", "{corpus}", "--fewshot", "{bad}"]),
        )
    },
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_input_value_is_an_error_not_a_traceback(
    tmp_path, pinned_config, corpus_file, capsys, case
):
    rows, sidecar, argv, expected = BAD_VALUES[case]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if sidecar is not None:
        (tmp_path / "bad.jsonl.manifest.json").write_bytes(sidecar)
    paths = {"bad": bad, "corpus": corpus_file, "out": tmp_path / "out.jsonl"}
    code = main(["--config", pinned_config, *(a.format(**paths) for a in argv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(expected.format(**paths))
    assert "Traceback" not in err


# Instruction rows that parse as JSON but break one content rule, each with a
# fragment of the error it must give. A row carries the id of its own content,
# so only that rule catches it, except where the stale id is the point.
BAD_INSTRUCTIONS = {
    "empty-answer": (_instruction(pairs=[("Describe the image.", "")]), "empty text in turn 1"),
    "whitespace-question": (_instruction(pairs=[(" \t", CAPTION)]), "empty text in turn 1"),
    "question-edited-id-stale": (
        _instruction(pairs=[("Describe the slide.", CAPTION)],
                     instruction_id=_instruction()["instruction_id"]),
        "does not match its content",
    ),
    "no-turns": (_instruction(pairs=[]), "has no turns"),
    "answer-not-a-string": (_instruction(pairs=[("Describe the image.", 7)]),
                            "turns[0].answer must be a string"),
    "template-with-four-turns": (
        _instruction(pairs=[(f"Question {i}?", CAPTION) for i in range(4)]), "exactly one turn"
    ),
    "kind-changed": (
        {**_instruction(), "kind": "generation"}, "does not match its content"
    ),
    **{
        f"provenance-{name}": (
            {**_instruction(), "provenance": value}, "provenance must be an object"
        )
        for name, value in (("a-string", "x"), ("an-empty-list", []))
    },
    "provenance-values-not-strings": (
        {**_instruction(), "provenance": {"model": 5, "created_at": 7}},
        "provenance.model must be a string or null",
    ),
    "provenance-model-not-a-string": (
        {**_instruction(), "provenance": {"method": "template-bank", "model": 5}},
        "provenance.model must be a string or null",
    ),
}

# Every subcommand that reads an instruction dataset, writing under {out}.
DATASET_COMMANDS = {
    "lint": ["lint", "--instructions", "{bad}", "--out", "{out}/report.json"],
    "sample-scale": ["sample-scale", "--dataset", "{bad}", "--size", "2",
                     "--out", "{out}/sampled.jsonl"],
    "split-subsets": ["split-subsets", "--dataset", "{bad}", "--k", "2", "--out-dir", "{out}"],
    "assemble": ["assemble", "--gen", "{good}", "--tmpl", "{bad}", "--out", "{out}/hybrid.jsonl"],
}


@pytest.mark.parametrize("row", sorted(BAD_INSTRUCTIONS))
@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
def test_invalid_instruction_row_is_rejected_on_read(
    tmp_path, pinned_config, capsys, command, row
):
    bad_row, message = BAD_INSTRUCTIONS[row]
    good_rows = "".join(json.dumps(_instruction(n)) + "\n" for n in (1, 2))
    good = tmp_path / "good.jsonl"
    good.write_text(good_rows)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(good_rows + "\n" + json.dumps(bad_row) + "\n")
    paths = {"bad": bad, "good": good, "out": tmp_path / "out"}
    code = main(["--config", pinned_config,
                 *(a.format(**paths) for a in DATASET_COMMANDS[command])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 4: ")
    assert message in err
    assert "Traceback" not in err
    assert not paths["out"].exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["sample-scale", "split-subsets"])
def test_repeated_instruction_row_is_an_error(tmp_path, pinned_config, capsys, command):
    rows = [_instruction(n) for n in (1, 2, 1)]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    paths = {"bad": bad, "out": tmp_path / "out"}
    code = main(["--config", pinned_config,
                 *(a.format(**paths) for a in DATASET_COMMANDS[command])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line 3: duplicate instruction id {rows[0]['instruction_id']}")
    assert not paths["out"].exists()


@pytest.fixture
def counted_completions(monkeypatch):
    """Every mock completion the CLI makes; each hook in `on_call` gets the call's number."""
    calls = []
    on_call = []
    complete = MockBackend.complete

    def counted(self, envelope, max_tokens):
        calls.append(envelope)
        for hook in on_call:
            hook(len(calls))
        return complete(self, envelope, max_tokens)

    monkeypatch.setattr(MockBackend, "complete", counted)
    return calls, on_call


@pytest.mark.parametrize("target", ["directory", "under-a-file"])
def test_gen_qa_refuses_an_unwritable_out_before_any_backend_call(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys, target
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    if target == "directory":
        out = tmp_path / "outdir"
        out.mkdir()
    else:
        (tmp_path / "afile").write_text("x")
        out = tmp_path / "afile" / "sub" / "gen.jsonl"
    code = main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    calls, _ = counted_completions
    assert calls == []
    assert not Path(f"{out}.checkpoint.jsonl").exists()


def test_gen_qa_refuses_an_out_whose_tmp_is_a_directory_before_any_backend_call(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    out = tmp_path / "gen.jsonl"
    Path(f"{out}.tmp").mkdir()
    code = main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {out}.tmp is a directory\n"
    calls, _ = counted_completions
    assert calls == []
    assert not out.exists()
    assert not Path(f"{out}.checkpoint.jsonl").exists()


@pytest.mark.parametrize("journal", ["--skip-log", "--checkpoint"])
def test_gen_qa_refuses_a_journal_under_a_file_before_any_backend_call_and_leaves_no_file(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys, journal
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    (tmp_path / "afile").write_text("x")
    blocked, out = tmp_path / "afile" / "s.jsonl", tmp_path / "run" / "g.jsonl"
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code = main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures), "--out", str(out), journal, str(blocked)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {blocked}: {tmp_path / 'afile'} is not a directory\n")
    calls, _ = counted_completions
    assert calls == []
    assert not out.parent.exists()
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("damage", ["torn-mid-line", "cost-not-a-number"])
def test_a_bad_checkpoint_line_names_the_checkpoint_before_any_backend_call(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys, damage
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    out = tmp_path / "gen.jsonl"
    argv = ["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
            "--fixtures", str(fixtures), "--out", str(out)]
    assert main(argv) == 0
    checkpoint = Path(f"{out}.checkpoint.jsonl")
    lines = checkpoint.read_bytes().splitlines(keepends=True)
    if damage == "torn-mid-line":  # a write cut off halfway through line 4
        checkpoint.write_bytes(b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        why = "line 4: invalid JSON (Unterminated string"
    else:
        row = {**json.loads(lines[1]), "estimated_cost_usd": "abc"}
        checkpoint.write_bytes(b"".join([lines[0], json.dumps(row).encode() + b"\n", *lines[2:]]))
        why = "line 2: estimated_cost_usd must be a finite non-negative decimal string"
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    calls, _ = counted_completions
    paid = len(calls)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {checkpoint}: {why}")
    assert len(calls) == paid
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_gen_qa_interrupted_keeps_the_previous_output(
    tmp_path, pinned_config, corpus_file, counted_completions
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    out = tmp_path / "gen" / "gen.jsonl"
    argv = ["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
            "--fixtures", str(fixtures), "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    calls, on_call = counted_completions
    first_run = len(calls)

    def interrupt(k):
        if k == first_run + 4:
            raise KeyboardInterrupt

    on_call.append(interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--checkpoint", str(tmp_path / "second.checkpoint.jsonl")])
    after = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    assert after == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_gen_qa_holds_no_committed_instructions(
    tmp_path, pinned_config, counted_completions
):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"image_id": f"img{i:02d}", "image_ref": f"{i}.png",
                    "caption": " ".join(f"w{i}t{j}" for j in range(30))}) + "\n"
        for i in range(40)
    ))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", pinned_config, "ingest", "--manifest", str(manifest),
                 "--out", str(corpus)]) == 0
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus)
    alive = []
    _, on_call = counted_completions
    on_call.append(lambda k: alive.append(
        sum(type(o) is Instruction for o in gc.get_objects())) if k in (1, 20, 40) else None)
    out = tmp_path / "gen.jsonl"
    assert main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus),
                 "--fixtures", str(fixtures), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 40
    assert len(alive) == 3 and max(alive) - alive[0] <= 1, alive


def _live(cls) -> int:
    return sum(type(o) is cls for o in gc.get_objects())


# Each dataset step: its argv, and how many rows it reads from {a} (40 rows) and {b} (40).
STREAMED_STEPS = {
    "lint": (["lint", "--instructions", "{a}", "--out", "{out}/lint.json"], 40),
    "assemble": (["assemble", "--gen", "{a}", "--tmpl", "{b}", "--out", "{out}/h.jsonl"], 80),
    "split-subsets": (["split-subsets", "--dataset", "{a}", "--k", "3", "--out-dir", "{out}"], 40),
    "sample-scale": (["sample-scale", "--dataset", "{a}", "--size", "30",
                      "--out", "{out}/s.jsonl"], 40),
}


@pytest.mark.parametrize("command", sorted(STREAMED_STEPS))
def test_dataset_steps_hold_no_instructions(tmp_path, pinned_config, monkeypatch, command):
    argv, reads = STREAMED_STEPS[command]
    paths = {"a": tmp_path / "a.jsonl", "b": tmp_path / "b.jsonl", "out": tmp_path / "out"}
    for name, kind in (("a", "template"), ("b", "generation")):
        paths[name].write_text("".join(json.dumps(_instruction(n, kind)) + "\n" for n in range(40)))
    alive, calls, digest = [], [0], instructions.instruction_digest

    def counted(*args):  # the reader's id check, once per row read
        calls[0] += 1
        if calls[0] in (1, reads):
            alive.append(_live(Instruction))
        return digest(*args)

    monkeypatch.setattr(instructions, "instruction_digest", counted)
    before = _live(Instruction)
    assert main(["--config", pinned_config, *(a.format(**paths) for a in argv)]) == 0
    assert calls[0] == reads and max(alive) - before <= 3, (before, alive)


def test_eval_vqa_holds_no_examples(tmp_path, pinned_config, monkeypatch):
    examples = tmp_path / "examples.jsonl"
    examples.write_text("".join(json.dumps({"example_id": f"e{n}", "reference": "glands",
                                            "prediction": "glands", "qtype": "open"}) + "\n"
                                for n in range(40)))
    alive, calls, prf = [], [0], metrics.prf

    def counted(*args):  # scores one open example
        calls[0] += 1
        if calls[0] in (1, 40):
            alive.append(_live(metrics.EvalExample))
        return prf(*args)

    monkeypatch.setattr(metrics, "prf", counted)
    before = _live(metrics.EvalExample)
    assert main(["--config", pinned_config, "eval-vqa", "--examples", str(examples)]) == 0
    assert calls[0] == 40 and max(alive) - before <= 3, (before, alive)


def _rows_and_lines(tmp_path) -> tuple[Path, list[str]]:
    """A dataset of both kinds, written by `write_dataset`, and its lines."""
    items = [make_instruction(f"img{n}", "generation",
                              [(f"Question {n} \u00e9?", 'An "answer" \U0001f600'), ("More?", "Yes.")],
                              Provenance("chat-completion", "m", "h", "t")) for n in range(6)]
    items += [make_instruction(f"img{n}", "template", [(f"Describe {n}.", CAPTION)],
                               Provenance("template-bank")) for n in range(6)]
    path = tmp_path / "canonical.jsonl"
    write_dataset(make_dataset(items, seed=4, sources=["parent"]), path)
    return path, path.read_text(encoding="utf-8").splitlines(keepends=True)


def _reordered(line: str) -> str:
    return json.dumps(dict(reversed(json.loads(line).items())), ensure_ascii=False,
                      separators=(",", ":")) + "\n"


# Ways to write a dataset file that the reader takes and the writer would not
# write: each maps the canonical lines to the file's bytes, and mixes them with
# canonical lines, so later lines sit at shifted offsets.
NON_CANONICAL = {
    "crlf": lambda lines: "".join(l[:-1] + "\r\n" if i % 2 else l for i, l in enumerate(lines)),
    "bom": lambda lines: "\ufeff" + "".join(lines),
    "spaced": lambda lines: "".join(json.dumps(json.loads(l), ensure_ascii=False) + "\n"
                                    if i % 3 == 1 else l for i, l in enumerate(lines)),
    "reordered-keys": lambda lines: "".join(_reordered(l) if i % 2 == 0 else l
                                            for i, l in enumerate(lines)),
    "escaped": lambda lines: "".join(json.dumps(json.loads(l), separators=(",", ":")) + "\n"
                                     for l in lines),
    "blank-lines": lambda lines: "\n" + "\n  \n".join(lines) + "\n",
    "no-final-newline": lambda lines: "".join(lines)[:-1],
}


def _same_files(got: Path, want: Path) -> None:
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("variant", sorted(NON_CANONICAL))
def test_split_and_sample_of_a_non_canonical_file_write_the_library_bytes(
    tmp_path, pinned_config, variant
):
    # The bytes that each step writes from the canonical file of the same rows.
    canonical, lines = _rows_and_lines(tmp_path)
    dataset = tmp_path / "in" / "d.jsonl"
    dataset.parent.mkdir()
    dataset.write_bytes(NON_CANONICAL[variant](lines).encode("utf-8"))
    Path(f"{dataset}.manifest.json").write_bytes(Path(f"{canonical}.manifest.json").read_bytes())
    for source, out in ((canonical, tmp_path / "want"), (dataset, tmp_path / "got")):
        assert main(["--config", pinned_config, "split-subsets", "--dataset", str(source),
                     "--k", "3", "--out-dir", str(out / "split")]) == 0
        assert main(["--config", pinned_config, "sample-scale", "--dataset", str(source),
                     "--size", "7", "--out", str(out / "sample" / "s.jsonl")]) == 0
    _same_files(tmp_path / "got" / "split", tmp_path / "want" / "split")
    _same_files(tmp_path / "got" / "sample", tmp_path / "want" / "sample")


# A step whose output replaces its own input: argv, with {in} the input's directory
# and {out} the output's, and the input's name.
IN_PLACE = {
    "sample-scale-out-is-dataset": (
        ["sample-scale", "--dataset", "{in}/d.jsonl", "--size", "5", "--out", "{out}/d.jsonl"],
        "d.jsonl"),
    "sample-scale-dataset-is-out-tmp": (
        ["sample-scale", "--dataset", "{in}/s.jsonl.tmp", "--size", "5", "--out", "{out}/s.jsonl"],
        "s.jsonl.tmp"),
    "assemble-out-is-gen": (
        ["assemble", "--gen", "{in}/g.jsonl", "--tmpl", "{other}", "--out", "{out}/g.jsonl"],
        "g.jsonl"),
    "split-subsets-into-the-input-directory": (
        ["split-subsets", "--dataset", "{in}/subset_1.jsonl", "--k", "3", "--out-dir", "{out}"],
        "subset_1.jsonl"),
}


@pytest.mark.parametrize("case", sorted(IN_PLACE))
def test_a_step_that_replaces_its_input_writes_the_library_bytes(tmp_path, pinned_config, case):
    # The bytes that the same step writes from the same input to another directory.
    argv, name = IN_PLACE[case]
    canonical, lines = _rows_and_lines(tmp_path)
    other = tmp_path / "other.jsonl"
    other.write_text("".join(json.dumps(_instruction(n)) + "\n" for n in range(20, 25)))
    work, source, want = tmp_path / "work", tmp_path / "source", tmp_path / "want"
    for directory in (work, source):
        directory.mkdir()
        (directory / name).write_text(NON_CANONICAL["crlf"](lines), encoding="utf-8")
    for dirs in ({"in": work, "out": work}, {"in": source, "out": want}):
        assert main(["--config", pinned_config,
                     *(a.format(**dirs, other=other) for a in argv)]) == 0
    _same_files(work, want)  # an input that is the output's temp file is replaced, as before


@pytest.mark.parametrize("argv", [
    ["split-subsets", "--dataset", "{fifo}", "--k", "2", "--out-dir", "{out}"],
    ["sample-scale", "--dataset", "{fifo}", "--size", "1", "--out", "{out}/s.jsonl"],
], ids=["split-subsets", "sample-scale"])
def test_a_dataset_that_cannot_be_read_twice_is_refused_before_it_is_opened(
    tmp_path, pinned_config, capsys, argv
):
    fifo, out = tmp_path / "d.jsonl", tmp_path / "out"
    os.mkfifo(fifo)  # with no writer, an open would wait for one
    code = main(["--config", pinned_config, *(a.format(fifo=fifo, out=out) for a in argv)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {fifo}: not a regular file, and subset splitting and scale "
        "sampling read their input twice\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, summary", [
    (["lint", "--instructions", "{fifo}"], "linted 3 instructions: 0 dirty, 0 violations"),
    (["assemble", "--gen", "{fifo}", "--tmpl", "{fifo}.tmpl", "--out", "{fifo}.out"],
     "assembled 4 instructions (0 generation + 4 template) -> {fifo}.out"),
], ids=["lint", "assemble"])
def test_a_step_that_reads_its_input_once_reads_a_pipe(
    tmp_path, pinned_config, capsys, argv, summary
):
    fifo = tmp_path / "d.jsonl"
    os.mkfifo(fifo)
    Path(f"{fifo}.tmpl").write_text(json.dumps(_instruction(3)) + "\n")
    rows = "".join(json.dumps(_instruction(n)) + "\n" for n in range(3))
    writer = threading.Thread(target=fifo.write_text, args=(rows,), daemon=True)
    writer.start()
    code = main(["--config", pinned_config, *(a.format(fifo=fifo) for a in argv)])
    writer.join(timeout=10)
    assert code == 0 and not writer.is_alive()
    assert capsys.readouterr().out == summary.format(fifo=fifo) + "\n"


def test_lint_refuses_a_sidecar_seed_that_no_writer_writes(tmp_path, pinned_config, capsys):
    dataset, _ = _rows_and_lines(tmp_path)
    sidecar = Path(f"{dataset}.manifest.json")
    sidecar.write_text(sidecar.read_text(encoding="utf-8").replace('"seed": 4', '"seed": "x"'),
                       encoding="utf-8")
    assert main(["--config", pinned_config, "lint", "--instructions", str(dataset)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {sidecar}: seed must be a non-negative integer or null\n")


def test_split_subsets_refuses_k_below_one_before_it_decodes_the_dataset(
    tmp_path, pinned_config, capsys
):
    dataset, out_dir = tmp_path / "d.jsonl", tmp_path / "subsets"
    dataset.write_text("{not json\n")
    code = main(["--config", pinned_config, "split-subsets", "--dataset", str(dataset),
                 "--k", "0", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: k must be >= 1, got 0\n")
    assert not out_dir.exists()


def test_split_subsets_refuses_a_later_subset_before_writing_the_first(
    tmp_path, pinned_config, capsys
):
    dataset, out_dir = tmp_path / "d.jsonl", tmp_path / "subsets"
    dataset.write_text("".join(json.dumps(_instruction(n)) + "\n" for n in range(6)))
    (out_dir / "subset_2.jsonl").mkdir(parents=True)
    code = main(["--config", pinned_config, "split-subsets", "--dataset", str(dataset),
                 "--k", "3", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {out_dir / 'subset_2.jsonl'}: it is a directory\n")
    assert [p.name for p in out_dir.iterdir()] == ["subset_2.jsonl"]


def test_assemble_reports_a_conflict_before_a_later_bad_row_of_tmpl(
    tmp_path, pinned_config, capsys
):
    gen, tmpl = tmp_path / "gen.jsonl", tmp_path / "tmpl.jsonl"
    gen.write_text(json.dumps(_instruction(1)) + "\n")
    conflict = _instruction(1, pairs=(("Describe the image.", "Another answer."),))
    bad = {**_instruction(2), "kind": "bogus"}
    tmpl.write_text("".join(json.dumps(row) + "\n" for row in (conflict, bad)))
    code = main(["--config", pinned_config, "assemble", "--gen", str(gen), "--tmpl", str(tmpl),
                 "--out", str(tmp_path / "out" / "h.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: duplicate instruction id {conflict['instruction_id']}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini", "gen.jsonl", "tmpl.jsonl"]


@pytest.mark.parametrize("removal", ["deleted", "null"])
@pytest.mark.parametrize("key", ["counts", "digest"])
def test_lint_refuses_a_sidecar_without_counts_or_digest(
    tmp_path, pinned_config, capsys, key, removal
):
    # Rows of the seed-2 sample beside the sidecar of the seed-1 sample, whose check is gone.
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("".join(json.dumps(_instruction(n)) + "\n" for n in range(12)))
    samples = {seed: tmp_path / f"s{seed}.jsonl" for seed in (1, 2)}
    for seed, out in samples.items():
        assert main(["--config", pinned_config, "--seed", str(seed), "sample-scale",
                     "--dataset", str(dataset), "--size", "4", "--out", str(out)]) == 0
    samples[1].write_bytes(samples[2].read_bytes())
    sidecar = Path(f"{samples[1]}.manifest.json")
    manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    if removal == "deleted":
        del manifest[key]
    else:
        manifest[key] = None
    sidecar.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    code = main(["--config", pinned_config, "lint", "--instructions", str(samples[1]),
                 "--out", str(tmp_path / "lint.json")])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {sidecar}: no {key}\n")
    assert not (tmp_path / "lint.json").exists()


# Every subcommand that writes an atomic output: its argv and the first file it
# writes, under the directory {dir}; {out} is that file.
ATOMIC_OUTPUTS = {
    "ingest": (["ingest", "--manifest", "{manifest}", "--out", "{out}"], "corpus.jsonl"),
    "gen-template": (["gen-template", "--corpus", "{corpus}", "--out", "{out}"], "t.jsonl"),
    "gen-qa": (["gen-qa", "--corpus", "{corpus}", "--fixtures", "{fixtures}", "--out", "{out}"],
               "g.jsonl"),
    "lint": (["lint", "--instructions", "{dataset}", "--out", "{out}"], "lint.json"),
    "assemble": (["assemble", "--gen", "{dataset}", "--tmpl", "{dataset}", "--out", "{out}"],
                 "h.jsonl"),
    "split-subsets": (["split-subsets", "--dataset", "{dataset}", "--k", "2", "--out-dir", "{dir}"],
                      "subset_1.jsonl"),
    "sample-scale": (["sample-scale", "--dataset", "{dataset}", "--size", "2", "--out", "{out}"],
                     "s.jsonl"),
    "eval-vqa": (["eval-vqa", "--examples", "{examples}", "--report", "{out}"], "report.json"),
    "kernel-check": (["kernel-check", "--out", "{out}"], "kernel.json"),
    "fewshot-split": ([*_FEWSHOT_SPLIT[:-1], "{dir}", "--patches", "{patches}",
                       "--test-wsis", "{wsis}"], "stomach_k1_r1.jsonl"),
    "to-vqa": (["to-vqa", "--patches", "{patches}", "--out", "{out}"], "vqa.jsonl"),
}
# The ones whose output is a dataset file with a manifest sidecar.
DATASET_OUTPUTS = ("gen-template", "gen-qa", "assemble", "split-subsets", "sample-scale")


@pytest.mark.parametrize("command,target", [
    (command, target) for command in sorted(ATOMIC_OUTPUTS) for target in ("out", "tmp", "sidecar")
    if target != "sidecar" or command in DATASET_OUTPUTS
])
def test_an_unwritable_output_is_refused_and_the_previous_one_kept(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys, command, target
):
    argv, name = ATOMIC_OUTPUTS[command]
    examples = tmp_path / "examples.jsonl"
    examples.write_text('{"example_id": "1", "reference": "yes", "qtype": "closed"}\n')
    paths = {**_clinical_inputs(tmp_path), "manifest": tmp_path / "manifest.jsonl",
             "corpus": corpus_file, "fixtures": tmp_path / "fx", "dataset": tmp_path / "d.jsonl",
             "examples": examples, "dir": tmp_path / "o", "out": tmp_path / "o" / name}
    stage_fixtures(paths["fixtures"], corpus_file)
    assert main(["--config", pinned_config, "gen-template", "--corpus", str(corpus_file),
                 "--out", str(paths["dataset"])]) == 0
    argv = ["--config", pinned_config, *(a.format(**paths) for a in argv)]
    out, sidecar = paths["out"], Path(f"{paths['out']}.manifest.json")
    blocked, planted = {"out": (out, out), "tmp": (out, Path(f"{out}.tmp")),
                        "sidecar": (sidecar, sidecar)}[target]
    if target != "out":
        assert main(argv) == 0
    planted.unlink(missing_ok=True)  # the sidecar that the first run wrote
    planted.mkdir(parents=True)
    why = "it is a directory" if planted == blocked else f"{planted} is a directory"
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    calls, _ = counted_completions
    paid = len(calls)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {blocked}: {why}\n"
    assert len(calls) == paid
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("journals", [
    {"--out": "g.jsonl", "--checkpoint": "g.jsonl"},
    {"--checkpoint": "j.jsonl", "--skip-log": "j.jsonl"},
    {"--skip-log": "g.jsonl.tmp"},
    {"--checkpoint": "g.jsonl.manifest.json"},
    {"--checkpoint": "g.jsonl.manifest.json.tmp"},
    {"--checkpoint": "sub/../g.jsonl"},
], ids=["checkpoint-is-out", "skip-log-is-checkpoint", "skip-log-is-out-tmp",
        "checkpoint-is-sidecar", "checkpoint-is-sidecar-tmp", "checkpoint-is-out-by-another-path"])
def test_gen_qa_refuses_coinciding_output_paths_before_any_backend_call(
    tmp_path, pinned_config, corpus_file, counted_completions, capsys, journals
):
    fixtures = tmp_path / "fx"
    stage_fixtures(fixtures, corpus_file)
    flags = {"--out": "g.jsonl", **journals}
    (tmp_path / "sub").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code = main(["--config", pinned_config, "gen-qa", "--corpus", str(corpus_file),
                 "--fixtures", str(fixtures),
                 *(a for flag, name in flags.items() for a in (flag, str(tmp_path / name)))])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'g.jsonl'}: --out, its sidecar, their .tmp files, "
        "--checkpoint and --skip-log must be distinct files\n")
    calls, _ = counted_completions
    assert calls == []
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_lint_reports_each_dirty_row_and_its_violations(tmp_path, pinned_config, capsys):
    # The answer starts at offset 38 of the rendered text, after
    # "Question: Describe the image.\nAnswer: ".
    answers = {1: "Glands seen at 40x.", 2: "Scanned on March 3 in 2019.", 3: CAPTION,
               4: "The title mentions gastric glands."}
    rows = {n: _instruction(n, pairs=(("Describe the image.", a),)) for n, a in answers.items()}
    dataset, report = tmp_path / "d.jsonl", tmp_path / "lint.json"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows.values()))
    code = main(["--config", pinned_config, "lint", "--instructions", str(dataset),
                 "--out", str(report)])
    assert code == 0
    assert capsys.readouterr().out == "linted 4 instructions: 3 dirty, 5 violations\n"
    expected = {
        1: [("MAGNIFICATION", [53, 56], "40x")],
        2: [("DATE", [49, 56], "March 3"), ("DATE", [60, 64], "2019")],
        4: [("META_PHRASE", [42, 47], "title"), ("META_PHRASE", [48, 56], "mentions")],
    }
    assert json.loads(report.read_text()) == [
        {"instruction_id": rows[n]["instruction_id"], "image_id": f"img{n}",
         "violations": [{"rule_id": r, "span": s, "excerpt": e} for r, s, e in found]}
        for n, found in expected.items()
    ]


def test_ingest_sample_is_seeded_and_refuses_an_oversample(
    tmp_path, pinned_config, corpus_file, capsys
):
    manifest = corpus_file.parent / "manifest.jsonl"

    def ingest(seed, size, out):
        return main(["--config", pinned_config, "--seed", str(seed), "ingest", "--manifest",
                     str(manifest), "--sample", str(size), "--out", str(out)])

    a, b, c, over = (tmp_path / f"{name}.jsonl" for name in "abcd")
    assert ingest(1, 4, a) == ingest(1, 4, b) == ingest(2, 4, c) == 0
    assert a.read_bytes() == b.read_bytes()
    ids = [[row["image_id"] for _, row in read_jsonl(p)] for p in (a, c)]
    assert len(ids[0]) == len(ids[1]) == 4 and ids[0] != ids[1]
    capsys.readouterr()
    assert ingest(1, 7, over) == 1
    assert capsys.readouterr().err == "error: cannot sample 7 items from a population of 6\n"
    assert not over.exists()


def _readme_commands() -> list[list[str]]:
    """The argv of each `clover-forge` line in README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("clover-forge ")]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) == 15
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_readme_cost_ratio_example_prints_its_stated_ratio(capsys):
    (argv,) = [argv for argv in _readme_commands() if argv[0] == "cost-ratio"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "36.93\n"


@pytest.mark.parametrize("command", ["gen-qa", "cost-estimate", "gen-template"])
def test_a_blank_merged_caption_is_refused_before_any_backend_call(
    tmp_path, pinned_config, counted_completions, capsys, command
):
    corpus, fixtures, out = (tmp_path / "corpus.jsonl", tmp_path / "fx",
                             tmp_path / "run" / "o.jsonl")
    captions = [" ".join(f"w{i}t{j}" for j in range(30)) for i in range(60)]
    captions[50] = ""
    corpus.write_text("".join(
        json.dumps({"image_id": f"img{i}", "captions": [c], "merged_caption": c}) + "\n"
        for i, c in enumerate(captions)))
    fixtures.mkdir()
    for caption in filter(None, captions):
        (fixtures / f"{envelope_digest(build_prompt(caption))}.txt").write_text(COMPLETION)
    argv = {"gen-qa": ["--fixtures", str(fixtures), "--out", str(out)],
            "gen-template": ["--out", str(out)], "cost-estimate": []}[command]
    assert main(["--config", pinned_config, command, "--corpus", str(corpus), *argv]) == 1
    assert capsys.readouterr() == ("", "error: line 51: empty merged_caption for image img50\n")
    calls, _ = counted_completions
    assert calls == []
    assert not out.parent.exists()  # no --out, sidecar, checkpoint or skip log


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ("", ["gen-qa", "--corpus", "{corpus}", "--out", "{out}"],
         "mock backend needs --fixtures pointing at a fixture directory"),
        ("", ["gen-template", "--out", "{out}"],
         "no corpus given: pass --corpus or set [paths] corpus in the config"),
        ("[backend]\nmode = dry\n", ["gen-template", "--corpus", "{corpus}", "--out", "{out}"],
         "backend mode must be live or mock, got 'dry'"),
    ],
    ids=["mock-without-fixtures", "no-corpus", "unknown-mode"],
)
def test_a_run_without_what_it_needs_names_it_and_writes_nothing(
    tmp_path, corpus_file, capsys, config, argv, message
):
    cfg, out = tmp_path / "c.ini", tmp_path / "run" / "o.jsonl"
    cfg.write_text(config)
    capsys.readouterr()
    code = main(["--config", str(cfg),
                 *(a.format(corpus=corpus_file, out=out) for a in argv)])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.parent.exists()


def test_lint_refuses_the_rows_of_one_sample_beside_the_sidecar_of_another(
    tmp_path, pinned_config, capsys
):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("".join(json.dumps(_instruction(n)) + "\n" for n in range(12)))
    samples = {seed: tmp_path / f"s{seed}.jsonl" for seed in (1, 2)}
    for seed, out in samples.items():
        assert main(["--config", pinned_config, "--seed", str(seed), "sample-scale",
                     "--dataset", str(dataset), "--size", "4", "--out", str(out)]) == 0
    samples[1].write_bytes(samples[2].read_bytes())
    sidecars = {seed: json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
                for seed, out in samples.items()}
    assert sidecars[1]["counts"] == sidecars[2]["counts"]
    capsys.readouterr()
    code = main(["--config", pinned_config, "lint", "--instructions", str(samples[1]),
                 "--out", str(tmp_path / "lint.json")])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {samples[1]}.manifest.json: digest "
                                   f"{sidecars[1]['digest']}, but the rows give "
                                   f"{sidecars[2]['digest']}\n")
    assert not (tmp_path / "lint.json").exists()
