import dataclasses
import json
from pathlib import Path

import pytest

from clover_forge import fewshot
from clover_forge.cli import main
from clover_forge.instructions import instruction_digest
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
        first = json.loads(files[0].read_text())
        assert len(first["train_wsis"]) == 4

        vqa = tmp_path / "vqa.jsonl"
        assert main(["to-vqa", "--patches", str(clinical_manifest), "--out", str(vqa)]) == 0
        lines = vqa.read_text().splitlines()
        assert len(lines) == 7112
        row = json.loads(lines[0])
        assert row["question"].startswith("Is this pathological image")

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
        assert main(["kernel-check", "--cases", "50", "--out", str(report)]) == 0
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

    def test_missing_config_file_errors(self, tmp_path):
        assert (
            main(["--config", str(tmp_path / "absent.ini"), "kernel-check", "--cases", "1"])
            == 1
        )

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


@pytest.mark.parametrize("bad_line", ["not-an-object", "not-json", "missing-key"])
@pytest.mark.parametrize("command", sorted(JSONL_COMMANDS))
def test_bad_jsonl_line_is_reported_by_line_number(
    tmp_path, pinned_config, corpus_file, capsys, command, bad_line
):
    kind, argv = JSONL_COMMANDS[command]
    make_row, required = JSONL_ROWS[kind]
    row = make_row(3)
    del row[required]
    third = {"not-an-object": "[1, 2]", "not-json": "{not json",
             "missing-key": json.dumps(row)}[bad_line]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(make_row(n)) + "\n" for n in (1, 2)) + third + "\n")
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    paths = {"bad": bad, "corpus": corpus_file, "fixtures": fixtures,
             "out": tmp_path / "out.jsonl"}
    code = main(["--config", pinned_config, *(a.format(**paths) for a in argv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 3: ")
    assert "Traceback" not in err


# Input that parses as JSON but holds a wrong value: (bad file lines, sidecar text
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
        "error: line 2: captions must be a list of strings",
    ),
    "dataset-sidecar-not-json": (
        [JSONL_ROWS["instructions"][0](1)],
        "{\n",
        ["lint", "--instructions", "{bad}"],
        "error: {bad}.manifest.json: invalid JSON",
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
        (tmp_path / "bad.jsonl.manifest.json").write_text(sidecar)
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
    "answer-not-a-string": (_instruction(pairs=[("Describe the image.", 7)]), "non-string text"),
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
        "provenance method and created_at must be strings",
    ),
    "provenance-model-not-a-string": (
        {**_instruction(), "provenance": {"method": "template-bank", "model": 5}},
        "provenance model and prompt_hash must be strings or null",
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
