"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import functools
import json
import random
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from clover_forge.backends import CostRates, GenerationReceipt, MockBackend, RetryPolicy
from clover_forge.cli import main
from clover_forge.corpus import Corpus, ImageTextRecord, merge_and_filter
from clover_forge.fewshot import ingest_patches, make_kshot, wsi_classes
from clover_forge.generate import (
    estimate_run_cost,
    generate_instructions,
    request_reservation,
)
from clover_forge.instructions import (
    Provenance,
    assemble_hybrid,
    make_dataset,
    make_instruction,
    read_dataset,
    split_subsets,
    write_dataset,
)
from clover_forge.jsonio import read_records
from clover_forge.losses import run_kernel_check
from clover_forge.metrics import EvalExample, cost_ratio, evaluate, prf
from clover_forge.prompts import QAPair, build_prompt, envelope_digest, parse_qa, render_qa

DATA = Path(__file__).parent / "data"


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {name}")
                raise
            print(f"PASS criterion {number}: {name}")

        return wrapper

    return decorate


# 187M / 236M cells: (metric %, params, printed ratio)
EXACT_RATIO_CELLS = [
    (83.90, 187_000_000, 36.93),
    (18.69, 187_000_000, 8.23),
    (89.38, 187_000_000, 39.34),
    (36.95, 187_000_000, 16.26),
    (88.00, 236_000_000, 37.09),
    (10.03, 187_000_000, 4.41),
    (30.51, 187_000_000, 13.43),
    (13.95, 187_000_000, 6.14),
    (54.33, 187_000_000, 23.91),
    (40.74, 187_000_000, 17.93),
    (43.56, 187_000_000, 19.17),
]

# 7B-parameter cells evaluated at 7000M within 0.5% relative
SEVEN_B_CELLS = [
    (63.20, 16.41),
    (7.74, 2.01),
    (91.21, 23.68),
    (37.95, 9.85),
    (57.36, 14.89),
    (30.97, 8.04),
    (36.83, 9.56),
    (57.03, 14.81),
    (30.49, 7.92),
    (37.03, 9.62),
]


@criterion(1, "cost-ratio reproduction")
def test_criterion_1_cost_ratio_reproduction():
    start = time.monotonic()
    for metric, params, printed in EXACT_RATIO_CELLS:
        assert abs(round(cost_ratio(metric, params), 2) - printed) <= 0.01
    for metric, printed in SEVEN_B_CELLS:
        ratio = cost_ratio(metric, 7_000_000_000)
        assert abs(ratio - printed) / printed <= 0.005
    assert time.monotonic() - start < 1.0


REQUIRED_SYSTEM_FRAGMENTS = [
    "As a specialized AI assistant focusing on pathological images",
    "Avoid referencing dates or magnification ratios.",
    "Focus on visual descriptions, including organizational structure, cellular "
    "morphology, potential pathological changes, location, etc.",
    'Avoid using phrases such as "mention", "title", "context", or "narrator". '
    'Instead, refer to information as being "in the image."',
    "When responding to questions, adopt an objective and responsible attitude, "
    "avoiding overconfidence, and refrain from providing medical advice or "
    "diagnostic information. Encourage users to consult healthcare professionals "
    "for more accurate advice.",
    "4-5 question-and-answer pairs",
]


@criterion(2, "prompt fidelity (dry-run envelope vs golden bytes)")
def test_criterion_2_prompt_fidelity(capsys):
    code = main(
        [
            "gen-qa",
            "--dry-run",
            "--caption",
            "Apoptotic keratinocytes are present within the epidermis.",
        ]
    )
    assert code == 0
    emitted = capsys.readouterr().out
    golden = (DATA / "dry_run_envelope.json").read_text(encoding="utf-8")
    assert emitted == golden
    system_text = json.loads(emitted)["messages"][0]["content"]
    for fragment in REQUIRED_SYSTEM_FRAGMENTS:
        assert fragment in system_text


@criterion(3, "parser oracle (200 fuzz round-trips + reference transcript)")
def test_criterion_3_parser_oracle():
    vocab = (
        "tissue cell nucleus gland stroma margin lesion mitosis stain pattern "
        "eosinophilic basophilic infiltrate architecture crypt villous serosa"
    ).split()
    rng = random.Random(20260808)
    for _ in range(200):
        pairs = [
            QAPair(
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10))) + "?",
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 18))) + ".",
            )
            for _ in range(rng.randint(4, 5))
        ]
        assert parse_qa(render_qa(pairs), strict=True).pairs == pairs

    transcript = (DATA / "sample_qa_transcript.txt").read_text(encoding="utf-8")
    result = parse_qa(transcript, strict=True)
    assert len(result.pairs) == 4
    assert result.pairs[0].question == "What is the described condition?"


@criterion(4, "clinical counts from synthetic manifest")
def test_criterion_4_clinical_counts(clinical_manifest):
    records = ingest_patches(clinical_manifest)
    assert len(records) == 7112
    assert Counter((r.organ, r.label) for r in records) == {
        ("stomach", "tumor"): 1136,
        ("stomach", "non_tumor"): 2079,
        ("intestine", "tumor"): 1846,
        ("intestine", "non_tumor"): 2051,
    }


def _synthetic_dataset(kind, n, path, offset=0):
    items = [
        make_instruction(
            f"{kind}-img{i + offset:06d}",
            kind,
            [(f"question {i + offset}?", f"answer text {i + offset}")],
            Provenance(method="synthetic", created_at="2026-01-01T00:00:00Z"),
        )
        for i in range(n)
    ]
    write_dataset(make_dataset(items), path)
    return items


@criterion(5, "dataset mechanics (3x5000 partition, 15K+30K=45K assembly)")
def test_criterion_5_dataset_mechanics(tmp_path):
    generation = _synthetic_dataset("generation", 15_000, tmp_path / "generation.jsonl")
    sizes = split_subsets(tmp_path / "generation.jsonl", 3, 11, tmp_path / "subsets")
    subsets = [read_dataset(tmp_path / "subsets" / f"subset_{i}.jsonl") for i in (1, 2, 3)]
    assert sizes == [len(s) for s in subsets] == [5_000, 5_000, 5_000]
    seen = [iid for s in subsets for iid in s.ids()]
    assert len(seen) == len(set(seen)) == 15_000
    assert set(seen) == {it.instruction_id for it in generation}

    _synthetic_dataset("template", 30_000, tmp_path / "template.jsonl", offset=100_000)
    counts = assemble_hybrid(tmp_path / "generation.jsonl", tmp_path / "template.jsonl",
                             tmp_path / "hybrid.jsonl")
    lines = (tmp_path / "hybrid.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 45_000
    assert Counter(row["kind"] for row in rows) == counts == {"generation": 15_000,
                                                              "template": 30_000}


@criterion(6, "loss-kernel property suite")
def test_criterion_6_loss_kernel_suite():
    start = time.monotonic()
    report = run_kernel_check(seed=0)
    elapsed = time.monotonic() - start
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["likelihood_identity"]["passed"]
    assert by_name["likelihood_identity"]["tolerance"] == 1e-9
    assert by_name["itc_equal_similarity_ln_b"]["passed"]
    assert by_name["itc_equal_similarity_ln_b"]["tolerance"] == 1e-9
    for grad_name in ("itc_gradient", "itm_gradient", "itg_gradient"):
        assert by_name[grad_name]["passed"]
        assert by_name[grad_name]["tolerance"] == 1e-5
    assert report["passed"]
    assert elapsed < 10.0


@criterion(7, "metric property suite (>=500 randomized cases per rule)")
def test_criterion_7_metric_properties():
    vocab = "alpha beta gamma delta epsilon zeta eta theta".split()
    rng = random.Random(7)

    for _ in range(500):
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        assert prf(ref, ref) == (1.0, 1.0, 1.0)
        disjoint_pred = " ".join("outside" for _ in range(rng.randint(1, 4)))
        assert prf(ref, disjoint_pred) == (0.0, 0.0, 0.0)
        pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        recall, precision, f1 = prf(ref, pred)
        if precision + recall > 0:
            assert abs(f1 - 2 * precision * recall / (precision + recall)) <= 1e-12
        else:
            assert f1 == 0.0

    for _ in range(500):
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        extra = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
        assert prf(ref, (pred + " " + extra).strip())[0] >= prf(ref, pred)[0]

    for i in range(500):
        want, other = ("yes", "no") if rng.random() < 0.5 else ("no", "yes")
        style = rng.randrange(4)
        if style == 0:
            pred, expected = f"{want} indeed", True
        elif style == 1:
            pred, expected = f"clearly {other}", False
        elif style == 2:
            pred, expected = f"{want} and {other}", False
        else:
            pred, expected = "uncertain", False
        example = EvalExample(str(i), want, "closed", question="q?", prediction=pred)
        assert (evaluate([example]).closed_accuracy_pct == 100.0) is expected


STOMACH_TEST = [f"stomach_t{i:02d}" for i in (1, 2, 3)] + [
    f"stomach_n{i:02d}" for i in (1, 2, 3, 4)
]
INTESTINE_TEST = [f"intestine_t{i:02d}" for i in range(1, 9)] + [
    f"intestine_n{i:02d}" for i in range(1, 9)
]


@criterion(8, "few-shot protocol on a 38-WSI registry")
def test_criterion_8_fewshot_protocol(clinical_manifest):
    patches = ingest_patches(clinical_manifest)
    assert len({p.wsi_id for p in patches}) == 38
    for organ, test_wsis in (("stomach", STOMACH_TEST), ("intestine", INTESTINE_TEST)):
        classes = wsi_classes([p for p in patches if p.organ == organ])
        for k in (1, 2):
            splits = make_kshot(patches, organ, k, test_wsis, seed=13, replicates=5)
            assert len(splits) == 5
            reference_test = {p.patch_id for p in splits[0].test_patches}
            for split in splits:
                per_class = {"tumor": 0, "non_tumor": 0}
                for wsi in split.train_wsis:
                    per_class[classes[wsi]] += 1
                assert per_class == {"tumor": k, "non_tumor": k}
                assert not set(split.train_wsis) & set(split.test_wsis)
                assert {p.patch_id for p in split.test_patches} == reference_test


CLEAN_COMPLETION = """Question: What tissue is shown?
Answer: The image shows epithelial tissue with regular architecture.

Question: Are nuclei visible?
Answer: Yes, the nuclei appear uniform and evenly spaced.

Question: Is there inflammation?
Answer: There is no clear inflammatory infiltrate in the image.

Question: What staining was applied?
Answer: The tissue appears stained with hematoxylin and eosin.
"""


@criterion(9, "budget guard halts before the cap and receipts stay under it")
def test_criterion_9_budget_guard(tmp_path):
    records = tuple(
        ImageTextRecord(
            image_id=f"img{i:02d}",
            captions=(" ".join(f"tok{i}_{j}" for j in range(30)),),
        )
        for i in range(5)
    )
    corpus = merge_and_filter(Corpus(records=records), min_words=25)
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for record in corpus.records:
        digest = envelope_digest(build_prompt(record.merged_caption))
        (fixtures / f"{digest}.txt").write_text(CLEAN_COMPLETION)

    rates = CostRates(Decimal("0.0015"), Decimal("0.002"))
    per_request = request_reservation(
        build_prompt(corpus.records[0].merged_caption), rates, 512
    )
    budget = per_request * 2 + per_request / 2

    projected = estimate_run_cost(corpus, rates, max_completion_tokens=512)
    assert projected > budget  # the guard must fire mid-run

    class CountingBackend(MockBackend):
        calls = 0

        def complete(self, envelope, max_tokens):
            type(self).calls += 1
            return super().complete(envelope, max_tokens)

    backend = CountingBackend(fixtures)
    result = generate_instructions(
        corpus,
        backend,
        budget_usd=budget,
        rates=rates,
        policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
        checkpoint_path=tmp_path / "checkpoint.jsonl",
        skip_log_path=tmp_path / "skips.jsonl",
    )
    assert result.halted
    assert CountingBackend.calls == 2  # the third request was never sent
    receipts = list(read_records(tmp_path / "checkpoint.jsonl", GenerationReceipt))
    assert len(receipts) == 2
    total = sum((r.estimated_cost_usd for r in receipts), start=Decimal(0))
    assert total <= budget
    for receipt in receipts:
        assert receipt.estimated_cost_usd == rates.cost(
            receipt.prompt_tokens, receipt.completion_tokens
        )
