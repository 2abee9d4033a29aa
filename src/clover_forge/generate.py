"""Batch construction of generation-based instructions.

Records are admitted against the budget in input order before their requests
are sent; each admission reserves an upper bound (estimated prompt cost plus
the completion cap). Requests run on one thread pool for the whole run (the
mock backend's on the calling thread, each as its record commits), and
results commit in input order on the calling thread: ledger, checkpoint, parse,
and, in strict mode, lint. Admission waits only on commits, never on which
request finishes first, so the processed set and every output byte are the
same for any timing. Each instruction goes to the run's sink as it commits: a
list, or an `instructions.DatasetWriter`, which writes it at once; each receipt
goes only to the checkpoint, the one record of what the runs have paid.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from .backends import (
    CompletionBackend,
    CostRates,
    GenerationReceipt,
    MockBackend,
    RetryPolicy,
    complete,
    estimate_prompt_tokens,
)
from .config import Config
from .corpus import Corpus
from .errors import BackendError, BudgetExceededError, CloverError, ManifestError, ParseError
from .instructions import Instruction, Provenance, make_instruction
from .jsonio import encode_row, read_records, refuse_unwritable
from .prompts import PromptEnvelope, build_prompt, envelope_digest, lint_qa, parse_qa

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
    instructions: list[Instruction] = field(default_factory=list)  # any sink: append, len
    skipped: list[tuple[str, str]] = field(default_factory=list)
    halted: bool = False
    halt_reason: str = ""
    warnings: list[str] = field(default_factory=list)
    # The ledger's spend when the run returns, the resumed checkpoint's included.
    spent: Decimal = Decimal(0)


def request_reservation(
    envelope: PromptEnvelope, rates: CostRates, max_completion_tokens: int
) -> Decimal:
    return rates.cost(estimate_prompt_tokens(envelope), max_completion_tokens)


def estimate_run_cost(
    corpus: Corpus,
    rates: CostRates,
    fewshot: list[tuple[str, str]] = (),
    max_completion_tokens: int = Config.max_completion_tokens,
) -> Decimal:
    """Projected worst-case spend for a full run; no backend is contacted."""
    total = Decimal(0)
    for record in corpus.records:
        envelope = build_prompt(record.merged_caption, fewshot)
        total += request_reservation(envelope, rates, max_completion_tokens)
    return total


def load_checkpoint(path: str | Path) -> tuple[set[str], Decimal]:
    """The image ids that earlier runs processed and what they spent, summed as the
    checkpoint is read. A bad line is a ManifestError, `<path>: line N: …`."""
    done, spent = set(), Decimal(0)
    try:
        for receipt in read_records(path, GenerationReceipt) if Path(path).exists() else ():
            done.add(receipt.image_id)
            spent += receipt.estimated_cost_usd
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    return done, spent


def _open_journal(stack: ExitStack, path: str | Path):
    """Open an append-only run log, closed when `stack` exits."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return stack.enter_context(open(path, "a", encoding="utf-8"))


def generate_instructions(
    corpus: Corpus,
    backend: CompletionBackend,
    fewshot: list[tuple[str, str]] = (),
    budget_usd: Decimal = Config.budget_usd,
    strict: bool = False,
    *,
    rates: CostRates,
    policy: RetryPolicy,
    max_completion_tokens: int = Config.max_completion_tokens,
    max_concurrency: int = Config.max_concurrency,
    checkpoint_path: str | Path,
    skip_log_path: str | Path,
    created_at: str = "",
    sink: list[Instruction] | None = None,
) -> GenerationRun:
    """Produce one generation-kind instruction per successfully processed record.

    Strict mode drops records whose completion fails parsing or linting.
    Lenient mode attaches parse warnings only (leading text, a pair count out
    of range) and does not lint. A halt is clean: the checkpoint already holds
    every processed record, so the run can resume. Both journals are refused, as
    every output is, before either is opened.
    The run halts before the first record that does not fit the budget, and
    stops admitting at the first receipt that costs more than its reservation.
    `run.instructions` is `sink`, or a new list, and gets each row as it commits.
    """
    if budget_usd <= 0:
        raise ValueError(f"budget_usd must be positive, got {budget_usd}")
    if max_concurrency < 1:
        raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
    if max_completion_tokens < 1:
        raise ValueError(f"max_completion_tokens must be >= 1, got {max_completion_tokens}")

    refuse_unwritable(checkpoint_path)
    refuse_unwritable(skip_log_path)
    done, prior_spend = load_checkpoint(checkpoint_path)
    ledger = BudgetLedger(budget_usd=budget_usd, reserved=prior_spend, spent=prior_spend)

    run = GenerationRun() if sink is None else GenerationRun(instructions=sink)
    model_name = getattr(backend, "model", None)
    pending = (r for r in corpus.records if r.image_id not in done)
    window: deque = deque()
    overrun = False

    with ExitStack() as stack:
        checkpoint_fh = _open_journal(stack, checkpoint_path)
        skip_fh = _open_journal(stack, skip_log_path)
        if getattr(type(backend), "complete", None) is MockBackend.complete:
            submit = functools.partial  # a fixture read waits on nothing: no thread switch
        else:
            pool = ThreadPoolExecutor(max_workers=max_concurrency)
            stack.callback(pool.shutdown, cancel_futures=True)
            submit = lambda *call: pool.submit(*call).result

        def log_skip(image_id: str, reason: str) -> None:
            run.skipped.append((image_id, reason))
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
                envelope = build_prompt(record.merged_caption, fewshot)
                reservation = request_reservation(envelope, rates, max_completion_tokens)
                try:
                    ledger.admit(reservation)
                except BudgetExceededError as exc:
                    run.halted = True
                    run.halt_reason = str(exc)
                    break
                result = submit(
                    complete, envelope, backend, policy, rates, max_completion_tokens,
                    record.image_id,
                )
                window.append((record, envelope, reservation, result))
            if not window:
                break
            record, envelope, reservation, result = window.popleft()
            try:
                text, receipt = result()
            except BackendError as exc:
                log_skip(record.image_id, f"backend_error: {exc}")
                continue
            except Exception as exc:
                log_skip(record.image_id, f"worker_error: {type(exc).__name__}: {exc}")
                continue
            ledger.record(receipt.estimated_cost_usd)
            try:
                checkpoint_fh.write(encode_row(receipt) + "\n")
                checkpoint_fh.flush()
            except OSError as exc:
                raise CloverError(f"checkpoint write failed: {exc}") from exc
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
            if strict:
                report = lint_qa(parsed.pairs)
                if not report.ok:
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
                    parsed.pairs,
                    Provenance(
                        method="chat-completion",
                        model=model_name,
                        prompt_hash=envelope_digest(envelope),
                        created_at=created_at,
                    ),
                )
            )
    run.spent = ledger.spent
    return run
