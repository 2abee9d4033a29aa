"""Batch construction of generation-based instructions.

Records are admitted against the budget in input order before their requests
are sent; each admission reserves an upper bound (estimated prompt cost plus
the completion cap). Requests run on one thread pool for the whole run, and
results commit in input order on the calling thread: ledger, checkpoint, parse,
lint. Admission waits only on commits, never on which request finishes first,
so the processed set and every output byte are the same for any timing.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from pathlib import Path

from .backends import (
    CompletionBackend,
    CostRates,
    GenerationReceipt,
    RetryPolicy,
    complete,
    estimate_prompt_tokens,
)
from .corpus import Corpus
from .errors import BackendError, BudgetExceededError, CloverError, ParseError
from .instructions import Instruction, Provenance, make_instruction
from .jsonio import read_records
from .prompts import PromptEnvelope, build_prompt, envelope_digest, lint_qa, parse_qa

DEFAULT_MAX_COMPLETION_TOKENS = 512
# Admitted-but-uncommitted records per worker: with one, workers idle behind
# every slow request; eight keeps them busy under heavy-tailed latency.
WINDOW_PER_WORKER = 8


@dataclass
class BudgetLedger:
    """Single-writer budget state: reservations are admissions' upper bounds."""

    budget_usd: Decimal
    reserved: Decimal = Decimal(0)
    spent: Decimal = Decimal(0)

    def admit(self, reservation: Decimal) -> None:
        committed = max(self.reserved, self.spent)
        if committed + reservation > self.budget_usd:
            raise BudgetExceededError(
                f"projected spend {committed + reservation} exceeds budget {self.budget_usd}"
            )
        self.reserved += reservation

    def record(self, actual: Decimal) -> None:
        self.spent += actual


@dataclass
class GenerationRun:
    instructions: list[Instruction] = field(default_factory=list)
    receipts: list[GenerationReceipt] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    halted: bool = False
    halt_reason: str = ""
    warnings: list[str] = field(default_factory=list)


def request_reservation(
    envelope: PromptEnvelope, rates: CostRates, max_completion_tokens: int
) -> Decimal:
    return rates.cost(estimate_prompt_tokens(envelope), max_completion_tokens)


def estimate_run_cost(
    corpus: Corpus,
    rates: CostRates,
    fewshot: list[tuple[str, str]] = (),
    max_completion_tokens: int = DEFAULT_MAX_COMPLETION_TOKENS,
    system_text: str | None = None,
) -> Decimal:
    """Projected worst-case spend for a full run; no backend is contacted."""
    total = Decimal(0)
    for record in corpus.records:
        envelope = build_prompt(record.merged_caption, fewshot, system_text)
        total += request_reservation(envelope, rates, max_completion_tokens)
    return total


def _receipt_from_row(row: dict) -> GenerationReceipt:
    return GenerationReceipt(
        image_id=row["image_id"],
        prompt_tokens=row["prompt_tokens"],
        completion_tokens=row["completion_tokens"],
        estimated_cost_usd=Decimal(row["estimated_cost_usd"]),
        backend_id=row["backend_id"],
        retries=row["retries"],
    )


def load_checkpoint(path: str | Path) -> tuple[set[str], list[GenerationReceipt]]:
    """Processed image ids and their receipts from a previous partial run."""
    if not Path(path).exists():
        return set(), []
    receipts = list(read_records(path, _receipt_from_row))
    return {r.image_id for r in receipts}, receipts


def _receipt_row(receipt: GenerationReceipt) -> str:
    row = {**asdict(receipt), "estimated_cost_usd": str(receipt.estimated_cost_usd)}
    return json.dumps(row, ensure_ascii=False, separators=(",", ":"))


def _open_journal(stack: ExitStack, path: str | Path | None):
    """Open an append-only run log, closed when `stack` exits; None for no path."""
    if path is None:
        return None
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return stack.enter_context(open(path, "a", encoding="utf-8"))
    except OSError as exc:
        raise CloverError(f"cannot open run log: {exc}") from exc


def generate_instructions(
    corpus: Corpus,
    backend: CompletionBackend,
    fewshot: list[tuple[str, str]] = (),
    budget_usd: Decimal = Decimal("8.00"),
    strict: bool = False,
    *,
    rates: CostRates,
    policy: RetryPolicy | None = None,
    system_text: str | None = None,
    max_completion_tokens: int = DEFAULT_MAX_COMPLETION_TOKENS,
    max_concurrency: int = 4,
    checkpoint_path: str | Path | None = None,
    skip_log_path: str | Path | None = None,
    created_at: str = "",
) -> GenerationRun:
    """Produce one generation-kind instruction per successfully processed record.

    Strict mode drops records whose completion fails parsing or linting;
    lenient mode keeps them and attaches warnings. A halt is clean: the
    checkpoint already holds every processed record, so the run can resume.
    The run halts before the first record that does not fit the budget, and
    stops admitting at the first receipt that costs more than its reservation.
    """
    if budget_usd <= 0:
        raise ValueError(f"budget_usd must be positive, got {budget_usd}")
    if max_concurrency < 1:
        raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
    policy = policy or RetryPolicy()

    done, prior_receipts = (set(), [])
    if checkpoint_path is not None:
        done, prior_receipts = load_checkpoint(checkpoint_path)
    prior_spend = sum((r.estimated_cost_usd for r in prior_receipts), start=Decimal(0))
    ledger = BudgetLedger(budget_usd=budget_usd, reserved=prior_spend, spent=prior_spend)

    run = GenerationRun()
    model_name = getattr(backend, "model", None)
    pending = (r for r in corpus.records if r.image_id not in done)
    window: deque = deque()
    overrun = False

    with ExitStack() as stack:
        checkpoint_fh = _open_journal(stack, checkpoint_path)
        skip_fh = _open_journal(stack, skip_log_path)
        pool = ThreadPoolExecutor(max_workers=max_concurrency)
        stack.callback(pool.shutdown, cancel_futures=True)

        def log_skip(image_id: str, reason: str) -> None:
            run.skipped.append((image_id, reason))
            if skip_fh is not None:
                skip_fh.write(
                    json.dumps({"image_id": image_id, "reason": reason}, ensure_ascii=False)
                    + "\n"
                )
                skip_fh.flush()

        while True:
            while not run.halted and len(window) < WINDOW_PER_WORKER * max_concurrency:
                record = next(pending, None)
                if record is None:
                    break
                envelope = build_prompt(record.merged_caption, fewshot, system_text)
                reservation = request_reservation(envelope, rates, max_completion_tokens)
                try:
                    ledger.admit(reservation)
                except BudgetExceededError as exc:
                    run.halted = True
                    run.halt_reason = str(exc)
                    break
                future = pool.submit(
                    complete, envelope, backend, policy, rates, max_completion_tokens,
                    record.image_id,
                )
                window.append((record, envelope, reservation, future))
            if not window:
                break
            record, envelope, reservation, future = window.popleft()
            try:
                text, receipt = future.result()
            except BackendError as exc:
                log_skip(record.image_id, f"backend_error: {exc}")
                continue
            ledger.record(receipt.estimated_cost_usd)
            run.receipts.append(receipt)
            if checkpoint_fh is not None:
                try:
                    checkpoint_fh.write(_receipt_row(receipt) + "\n")
                    checkpoint_fh.flush()
                except OSError as exc:
                    err = CloverError(f"checkpoint write failed: {exc}")
                    err.partial = run
                    raise err from exc
            if receipt.estimated_cost_usd > reservation and not overrun:
                overrun = run.halted = True
                run.halt_reason = (
                    f"receipt for {record.image_id} costs {receipt.estimated_cost_usd}, "
                    f"more than its reservation {reservation}"
                )
            try:
                parsed = parse_qa(text, strict=strict)
            except ParseError as exc:
                log_skip(record.image_id, f"parse_error: {exc}")
                continue
            report = lint_qa(parsed.pairs)
            if strict and not report.ok:
                rules = sorted({v.rule_id for v in report.violations})
                log_skip(
                    record.image_id,
                    f"lint_violations: {len(report.violations)} ({', '.join(rules)})",
                )
                continue
            run.warnings.extend(f"{record.image_id}: {w}" for w in parsed.warnings)
            run.instructions.append(
                make_instruction(
                    record.image_id,
                    "generation",
                    [(p.question, p.answer) for p in parsed.pairs],
                    Provenance(
                        method="chat-completion",
                        model=model_name,
                        prompt_hash=envelope_digest(envelope),
                        created_at=created_at,
                    ),
                )
            )
    return run
