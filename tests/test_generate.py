import dataclasses
import json
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest

from clover_forge import generate
from clover_forge.backends import (
    CostRates,
    MockBackend,
    RetryPolicy,
    estimate_prompt_tokens,
    estimate_tokens,
)
from clover_forge.corpus import Corpus, ImageTextRecord, merge_and_filter
from clover_forge.errors import BudgetExceededError, CloverError, IntegrityError
from clover_forge.generate import (
    WINDOW_PER_WORKER,
    BudgetLedger,
    estimate_run_cost,
    generate_instructions,
    load_checkpoint,
    request_reservation,
)
from clover_forge.instructions import DatasetWriter, make_dataset, write_dataset
from clover_forge.prompts import build_prompt, envelope_digest, lint_qa, parse_qa

RATES = CostRates(Decimal("0.0015"), Decimal("0.002"))
FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0)

CLEAN_COMPLETION = """Question: What tissue is shown?
Answer: The image shows epithelial tissue with regular architecture.

Question: Are nuclei visible?
Answer: Yes, the nuclei appear uniform and evenly spaced.

Question: Is there inflammation?
Answer: There is no clear inflammatory infiltrate in the image.

Question: What staining was applied?
Answer: The tissue appears stained with hematoxylin and eosin.
"""

DIRTY_COMPLETION = CLEAN_COMPLETION.replace(
    "with regular architecture", "at 40x magnification"
)

SHORT_COMPLETION = """Question: What is shown?
Answer: A tissue section.

Question: Anything else?
Answer: Nothing notable in the image.
"""


def corpus_of(n):
    records = tuple(
        ImageTextRecord(
            image_id=f"img{i:03d}",
            captions=(" ".join(f"w{i}token{j}" for j in range(30)),),
        )
        for i in range(n)
    )
    return merge_and_filter(Corpus(records=records), min_words=25)


def stage_fixture(fixture_dir: Path, caption: str, text: str, fewshot=()):
    fixture_dir.mkdir(exist_ok=True)
    digest = envelope_digest(build_prompt(caption, list(fewshot)))
    (fixture_dir / f"{digest}.txt").write_text(text, encoding="utf-8")


def stage_all(fixture_dir: Path, corpus: Corpus, text=CLEAN_COMPLETION):
    for record in corpus.records:
        stage_fixture(fixture_dir, record.merged_caption, text)


def run(corpus, backend, tmp_path, **kwargs):
    kwargs.setdefault("rates", RATES)
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("budget_usd", Decimal("8.00"))
    kwargs.setdefault("checkpoint_path", tmp_path / "checkpoint.jsonl")
    kwargs.setdefault("skip_log_path", tmp_path / "skips.jsonl")
    return generate_instructions(corpus, backend, **kwargs)


def test_full_mock_run_builds_instruction_per_record(tmp_path):
    corpus = corpus_of(5)
    stage_all(tmp_path / "fx", corpus)
    result = run(corpus, MockBackend(tmp_path / "fx"), tmp_path)
    assert len(result.instructions) == 5
    assert len(result.receipts) == 5
    assert not result.halted
    assert all(it.kind == "generation" for it in result.instructions)
    assert all(len(it.turns) == 4 for it in result.instructions)
    for record, it in zip(corpus.records, result.instructions):
        assert it.image_id == record.image_id
        assert it.provenance.prompt_hash == envelope_digest(
            build_prompt(record.merged_caption)
        )


def test_estimate_matches_hand_token_arithmetic(tmp_path):
    corpus = corpus_of(3)
    projected = estimate_run_cost(corpus, RATES, max_completion_tokens=512)
    hand = Decimal(0)
    for record in corpus.records:
        envelope = build_prompt(record.merged_caption)
        prompt_tokens = sum((len(m.content) + 3) // 4 for m in envelope.messages)
        hand += (
            Decimal(prompt_tokens) * Decimal("0.0015") + Decimal(512) * Decimal("0.002")
        ) / Decimal(1000)
    assert projected == hand


def test_budget_halt_is_clean_and_receipts_stay_under_cap(tmp_path):
    corpus = corpus_of(4)
    stage_all(tmp_path / "fx", corpus)
    per_request = request_reservation(
        build_prompt(corpus.records[0].merged_caption), RATES, 512
    )
    budget = per_request * 2 + per_request / 2  # room for exactly two requests
    result = run(
        corpus,
        MockBackend(tmp_path / "fx"),
        tmp_path,
        budget_usd=budget,
        max_completion_tokens=512,
    )
    assert result.halted
    assert "budget" in result.halt_reason
    assert len(result.receipts) == 2
    assert sum(r.estimated_cost_usd for r in result.receipts) <= budget
    done, receipts = load_checkpoint(tmp_path / "checkpoint.jsonl")
    assert done == {"img000", "img001"}
    assert len(receipts) == 2


def test_resume_skips_checkpointed_records_and_counts_prior_spend(tmp_path):
    corpus = corpus_of(4)
    stage_all(tmp_path / "fx", corpus)
    per_request = request_reservation(
        build_prompt(corpus.records[0].merged_caption), RATES, 512
    )
    first = run(
        corpus, MockBackend(tmp_path / "fx"), tmp_path, budget_usd=per_request * 2
    )
    assert len(first.receipts) == 2

    # resume accounts prior ACTUAL spend; whatever fits beyond it may proceed,
    # already-processed records never rerun
    again = run(
        corpus, MockBackend(tmp_path / "fx"), tmp_path, budget_usd=per_request * 2
    )
    assert all(r.image_id not in {"img000", "img001"} for r in again.receipts)
    prior_spend = sum(r.estimated_cost_usd for r in first.receipts)
    assert (
        prior_spend + sum(r.estimated_cost_usd for r in again.receipts)
        <= per_request * 2
    )

    # a roomier budget on resume finishes the rest without reprocessing
    finish = run(
        corpus, MockBackend(tmp_path / "fx"), tmp_path, budget_usd=per_request * 6
    )
    done, all_receipts = load_checkpoint(tmp_path / "checkpoint.jsonl")
    assert done == {"img000", "img001", "img002", "img003"}
    assert len(all_receipts) == 4
    assert sum(r.estimated_cost_usd for r in all_receipts) <= per_request * 6


def test_strict_mode_skips_dirty_completions_into_log(tmp_path):
    corpus = corpus_of(3)
    fx = tmp_path / "fx"
    stage_fixture(fx, corpus.records[0].merged_caption, CLEAN_COMPLETION)
    stage_fixture(fx, corpus.records[1].merged_caption, DIRTY_COMPLETION)
    stage_fixture(fx, corpus.records[2].merged_caption, "no labels at all here")
    result = run(corpus, MockBackend(fx), tmp_path, strict=True)
    assert [it.image_id for it in result.instructions] == ["img000"]
    reasons = dict(result.skipped)
    assert "lint_violations" in reasons["img001"]
    assert "MAGNIFICATION" in reasons["img001"]
    assert "parse_error" in reasons["img002"]
    logged = [
        json.loads(line)
        for line in (tmp_path / "skips.jsonl").read_text().splitlines()
    ]
    assert {row["image_id"] for row in logged} == {"img001", "img002"}
    # skipped records were still billed: the completion happened
    assert len(result.receipts) == 3


def test_lenient_mode_keeps_dirty_and_short_completions(tmp_path):
    corpus = corpus_of(2)
    fx = tmp_path / "fx"
    stage_fixture(fx, corpus.records[0].merged_caption, DIRTY_COMPLETION)
    stage_fixture(fx, corpus.records[1].merged_caption, SHORT_COMPLETION)
    result = run(corpus, MockBackend(fx), tmp_path, strict=False)
    assert len(result.instructions) == 2
    assert any("4-5" in w for w in result.warnings)


def test_only_strict_mode_lints(tmp_path, monkeypatch):
    corpus = corpus_of(4)
    fx = tmp_path / "fx"
    texts = (CLEAN_COMPLETION, DIRTY_COMPLETION, SHORT_COMPLETION, "no labels at all here")
    for record, text in zip(corpus.records, texts):
        stage_fixture(fx, record.merged_caption, text)
    linted = []

    def counting_lint_qa(pairs):
        linted.append(pairs)
        return lint_qa(pairs)

    monkeypatch.setattr(generate, "lint_qa", counting_lint_qa)

    lenient = run(corpus, MockBackend(fx), tmp_path / "lenient", strict=False)
    assert linted == []
    assert [it.image_id for it in lenient.instructions] == ["img000", "img001", "img002"]
    for it, text in zip(lenient.instructions, texts):
        assert [(t.question, t.answer) for t in it.turns] == [
            (p.question, p.answer) for p in parse_qa(text).pairs
        ]
    assert [r.image_id for r in lenient.receipts] == ["img000", "img001", "img002", "img003"]
    assert [(i, r.split(":")[0]) for i, r in lenient.skipped] == [("img003", "parse_error")]
    assert lenient.warnings == ["img002: expected 4-5 QA pairs, found 2"]

    strict = run(corpus, MockBackend(fx), tmp_path / "strict", strict=True)
    assert linted == [parse_qa(CLEAN_COMPLETION).pairs, parse_qa(DIRTY_COMPLETION).pairs]
    assert [it.image_id for it in strict.instructions] == ["img000"]
    assert [(i, r.split(":")[0]) for i, r in strict.skipped] == [
        ("img001", "lint_violations"), ("img002", "parse_error"), ("img003", "parse_error"),
    ]
    assert "MAGNIFICATION" in dict(strict.skipped)["img001"]


def test_missing_fixture_becomes_backend_skip(tmp_path):
    corpus = corpus_of(2)
    fx = tmp_path / "fx"
    stage_fixture(fx, corpus.records[0].merged_caption, CLEAN_COMPLETION)
    result = run(corpus, MockBackend(fx), tmp_path)
    assert [it.image_id for it in result.instructions] == ["img000"]
    assert result.skipped[0][0] == "img001"
    assert "backend_error" in result.skipped[0][1]


def test_non_utf8_fixture_becomes_backend_skip(tmp_path):
    corpus = corpus_of(3)
    fx = tmp_path / "fx"
    stage_all(fx, corpus)
    digest = envelope_digest(build_prompt(corpus.records[1].merged_caption))
    (fx / f"{digest}.txt").write_bytes(CLEAN_COMPLETION.encode() + b"\xff\n")
    result = run(corpus, MockBackend(fx), tmp_path)
    assert [it.image_id for it in result.instructions] == ["img000", "img002"]
    assert [r.image_id for r in result.receipts] == ["img000", "img002"]
    assert result.skipped == [
        ("img001", f"backend_error: fixture {fx / digest}.txt is not UTF-8")
    ]


class InterruptedBackend(MockBackend):
    def complete(self, envelope, max_tokens):
        raise KeyboardInterrupt


def test_keyboard_interrupt_in_a_worker_is_not_a_skip(tmp_path):
    corpus = corpus_of(3)
    stage_all(tmp_path / "fx", corpus)
    with pytest.raises(KeyboardInterrupt):
        run(corpus, InterruptedBackend(tmp_path / "fx"), tmp_path)


def test_concurrency_does_not_change_output(tmp_path):
    corpus = corpus_of(7)
    stage_all(tmp_path / "fx", corpus)
    serial = run(
        corpus, MockBackend(tmp_path / "fx"), tmp_path / "a", max_concurrency=1
    )
    parallel = run(
        corpus, MockBackend(tmp_path / "fx"), tmp_path / "b", max_concurrency=4
    )
    assert [i.instruction_id for i in serial.instructions] == [
        i.instruction_id for i in parallel.instructions
    ]
    assert serial.receipts == parallel.receipts


def test_zero_budget_rejected(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        run(corpus_of(1), MockBackend(tmp_path), tmp_path, budget_usd=Decimal(0))


def test_concurrency_below_one_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"^max_concurrency must be >= 1, got 0$"):
        run(corpus_of(1), MockBackend(tmp_path), tmp_path, max_concurrency=0)
    assert not (tmp_path / "checkpoint.jsonl").exists()


@pytest.mark.parametrize("cap", [0, -400])
def test_completion_cap_below_one_rejected(tmp_path, cap):
    # A reservation without the completion would admit more than the budget covers.
    stage_all(tmp_path / "fx", corpus_of(1))
    with pytest.raises(ValueError, match="max_completion_tokens must be >= 1"):
        run(corpus_of(1), MockBackend(tmp_path / "fx"), tmp_path, max_completion_tokens=cap)
    assert not (tmp_path / "checkpoint.jsonl").exists()


def test_ledger_refuses_before_any_spend():
    ledger = BudgetLedger(budget_usd=Decimal("1.00"))
    ledger.admit(Decimal("0.60"))
    with pytest.raises(BudgetExceededError, match="exceeds budget"):
        ledger.admit(Decimal("0.60"))
    assert ledger.spent == 0  # refusal happened before anything was sent


def test_empty_corpus_is_a_clean_noop(tmp_path):
    empty = Corpus()
    result = run(empty, MockBackend(tmp_path), tmp_path)
    assert result.instructions == [] and result.receipts == []
    assert not result.halted


def test_receipts_bill_only_final_attempt_usage(tmp_path):
    corpus = corpus_of(1)
    stage_all(tmp_path / "fx", corpus)
    result = run(corpus, MockBackend(tmp_path / "fx"), tmp_path)
    receipt = result.receipts[0]
    assert receipt.completion_tokens == estimate_tokens(CLEAN_COMPLETION)
    assert receipt.retries == 0


class JitterBackend(MockBackend):
    """Mock backend that sleeps a digest-keyed time and logs completion order,
    so requests finish out of input order whenever two run at once."""

    def __init__(self, fixture_dir, prompt_factor=1):
        super().__init__(fixture_dir)
        self.prompt_factor = prompt_factor
        self.finished = []
        self._lock = threading.Lock()

    def complete(self, envelope, max_tokens):
        digest = envelope_digest(envelope)
        time.sleep(int(digest[:4], 16) % 8 * 0.002)
        with self._lock:
            self.finished.append(envelope.messages[-1].content)
        response = super().complete(envelope, max_tokens)
        return dataclasses.replace(
            response, prompt_tokens=estimate_prompt_tokens(envelope) * self.prompt_factor
        )


def test_out_of_order_completions_give_identical_outputs(tmp_path):
    corpus = corpus_of(40)
    fx = tmp_path / "fx"
    stage_all(fx, corpus)
    stage_fixture(fx, corpus.records[5].merged_caption, DIRTY_COMPLETION)
    stage_fixture(fx, corpus.records[9].merged_caption, "no labels at all here")
    (fx / f"{envelope_digest(build_prompt(corpus.records[13].merged_caption))}.txt").unlink()
    per_request = request_reservation(
        build_prompt(corpus.records[0].merged_caption), RATES, 512
    )
    results = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"c{workers}"
        backend = JitterBackend(fx)
        result = run(
            corpus, backend, out, strict=True, max_concurrency=workers,
            budget_usd=per_request * 33 + per_request / 2,
        )
        captions = [r.merged_caption for r in corpus.records[: len(backend.finished)]]
        results[workers] = (
            result.instructions,
            result.receipts,
            result.skipped,
            result.halt_reason,
            (out / "checkpoint.jsonl").read_bytes(),
            (out / "skips.jsonl").read_bytes(),
            backend.finished != captions,
        )
    assert results[1][-1] is False  # one worker completes in input order
    assert results[8][-1] is True  # eight workers did not
    assert results[1][:-1] == results[2][:-1] == results[8][:-1]
    instructions, receipts, skipped, halt_reason = results[8][:4]
    assert len(receipts) == 32 and "budget" in halt_reason
    assert [r.image_id for r in receipts] == [
        r.image_id for r in corpus.records[:33] if r.image_id != "img013"
    ]
    assert [image_id for image_id, _ in skipped] == ["img005", "img009", "img013"]
    assert len(instructions) == 30


def test_receipt_over_its_reservation_stops_admission(tmp_path):
    corpus = corpus_of(100)
    stage_all(tmp_path / "fx", corpus)
    workers = 2
    cap = estimate_tokens(CLEAN_COMPLETION)  # no completion slack to hide the overrun
    backend = JitterBackend(tmp_path / "fx", prompt_factor=2)
    result = run(
        corpus, backend, tmp_path, max_concurrency=workers, max_completion_tokens=cap
    )
    first = result.receipts[0]
    reservation = request_reservation(
        build_prompt(corpus.records[0].merged_caption), RATES, cap
    )
    assert first.estimated_cost_usd > reservation
    assert result.halted
    assert "img000" in result.halt_reason
    assert str(first.estimated_cost_usd) in result.halt_reason
    assert str(reservation) in result.halt_reason
    assert len(result.receipts) - 1 <= WINDOW_PER_WORKER * workers
    assert [r.image_id for r in result.receipts] == corpus.ids()[: len(result.receipts)]


def test_checkpoint_write_failure_stops_workers_and_keeps_partial(tmp_path, monkeypatch):
    corpus = corpus_of(200)
    stage_all(tmp_path / "fx", corpus)
    workers = 2
    rows = []

    def failing_row(receipt):
        if len(rows) == 3:
            raise OSError("disk full")
        rows.append(receipt.image_id)
        return json.dumps({"image_id": receipt.image_id})

    monkeypatch.setattr(generate, "encode_row", failing_row)
    backend = JitterBackend(tmp_path / "fx")
    before = set(threading.enumerate())
    with pytest.raises(CloverError, match="checkpoint write failed") as excinfo:
        run(corpus, backend, tmp_path, max_concurrency=workers)
    partial = excinfo.value.partial
    assert [r.image_id for r in partial.receipts] == ["img000", "img001", "img002", "img003"]
    assert not [t for t in threading.enumerate() if t not in before and t.is_alive()]
    assert len(backend.finished) <= len(partial.receipts) + WINDOW_PER_WORKER * workers


class PooledMockBackend(MockBackend):
    """The mock backend behind a `complete` of its own, so that its requests go
    through the thread pool."""

    def complete(self, envelope, max_tokens):
        return super().complete(envelope, max_tokens)


def test_mock_completions_run_inline_with_the_outputs_of_the_pool(tmp_path, monkeypatch):
    corpus = corpus_of(12)
    fx = tmp_path / "fx"
    stage_all(fx, corpus)
    stage_fixture(fx, corpus.records[3].merged_caption, DIRTY_COMPLETION)
    (fx / f"{envelope_digest(build_prompt(corpus.records[7].merged_caption))}.txt").unlink()
    budget = request_reservation(build_prompt(corpus.records[0].merged_caption), RATES, 512) * 10
    pooled = run(corpus, PooledMockBackend(fx), tmp_path / "pool", strict=True, budget_usd=budget)

    def no_pool(*args, **kwargs):
        raise AssertionError("a mock backend needs no thread pool")

    monkeypatch.setattr(generate, "ThreadPoolExecutor", no_pool)
    inline = run(corpus, MockBackend(fx), tmp_path / "inline", strict=True, budget_usd=budget)
    assert inline.halted and len(inline.skipped) == 2
    for attr in ("instructions", "receipts", "skipped", "halt_reason", "spent"):
        assert getattr(inline, attr) == getattr(pooled, attr), attr
    for name in ("checkpoint.jsonl", "skips.jsonl"):
        assert (tmp_path / "inline" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


@pytest.mark.parametrize("case", ["full", "budget_halt", "all_skipped"])
def test_streamed_dataset_has_the_bytes_of_write_dataset(tmp_path, case):
    corpus = corpus_of(12)
    fx = tmp_path / "fx"
    stage_all(fx, corpus, DIRTY_COMPLETION if case == "all_skipped" else CLEAN_COMPLETION)
    budget = Decimal("8.00")
    if case == "budget_halt":
        budget = request_reservation(build_prompt(corpus.records[0].merged_caption), RATES, 512) * 5
    listed = run(corpus, MockBackend(fx), tmp_path / "list", strict=True, budget_usd=budget)
    write_dataset(make_dataset(listed.instructions, seed=7), tmp_path / "list" / "out.jsonl")
    with DatasetWriter(tmp_path / "stream" / "out.jsonl", seed=7) as writer:
        streamed = run(corpus, MockBackend(fx), tmp_path / "stream", strict=True,
                       budget_usd=budget, sink=writer)
    assert streamed.instructions is writer
    assert len(writer) == len(listed.instructions) == {"full": 12, "budget_halt": 5}.get(case, 0)
    assert streamed.halted == listed.halted == (case == "budget_halt")
    assert len(streamed.skipped) == (12 if case == "all_skipped" else 0)
    for name in ("out.jsonl", "out.jsonl.manifest.json", "checkpoint.jsonl", "skips.jsonl"):
        assert (tmp_path / "stream" / name).read_bytes() == (tmp_path / "list" / name).read_bytes()


def test_a_duplicate_id_in_a_streamed_run_keeps_the_previous_output(tmp_path):
    corpus = corpus_of(6)
    fx = tmp_path / "fx"
    stage_all(fx, corpus)
    out = tmp_path / "out" / "gen.jsonl"
    with DatasetWriter(out, seed=0) as writer:
        run(corpus, MockBackend(fx), tmp_path / "first", sink=writer)
    before = {p: p.read_bytes() for p in out.parent.iterdir()}
    twice = Corpus(records=corpus.records[:3] + corpus.records[1:2] + corpus.records[3:])
    with pytest.raises(IntegrityError, match="duplicate instruction id"):
        with DatasetWriter(out, seed=0) as writer:
            run(twice, MockBackend(fx), tmp_path / "second", sink=writer)
    assert len(writer) == 3
    assert {p: p.read_bytes() for p in out.parent.iterdir()} == before
    assert len(before) == 2
