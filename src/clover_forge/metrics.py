"""VQA scoring: closed-end accuracy, open-end token recall, precision/F1,
answer-length statistics, and the performance-per-log-parameter ratio.

Token scoring is duplicate-aware (multiset overlap, extractive-QA style) over
a fixed normalization: lowercase, split on non-alphanumeric runs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal

from .jsonio import read_records

DEFAULT_POLARITY = ("yes", "no")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True, slots=True)
class EvalExample:
    """One scored row; `question` and `prediction` may be absent from a row
    and read as empty."""

    example_id: str
    question: str = field(default="", kw_only=True)
    reference: str
    prediction: str = field(default="", kw_only=True)
    qtype: Literal["open", "closed"]

    def __post_init__(self):
        if not self.reference.strip():
            raise ValueError(f"example {self.example_id}: empty reference")


@dataclass(slots=True)
class OpenScore:
    """An open example's token scores: one `per_example` row."""

    example_id: str
    qtype: Literal["open"] = field(default="open", init=False)
    recall: float
    precision: float
    f1: float


@dataclass(slots=True)
class ClosedScore:
    """A closed example's verdict: one `per_example` row."""

    example_id: str
    qtype: Literal["closed"] = field(default="closed", init=False)
    correct: bool


@dataclass
class MetricsReport:
    """The eval-vqa report document: its fields, in order, are the document's keys."""

    closed_accuracy_pct: float | None = None
    open_recall_pct: float | None = None
    recall_pct: float | None = None
    precision_pct: float | None = None
    f1_pct: float | None = None
    mean_ref_len: float | None = None
    mean_pred_len: float | None = None
    n_open: int = 0
    n_closed: int = 0
    warnings: list[str] = field(default_factory=list)
    per_example: list[OpenScore | ClosedScore] = field(default_factory=list)


def normalize(text: str) -> list[str]:
    """Lowercase and split on maximal non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def prf(ref: str, pred: str) -> tuple[float, float, float]:
    """Multiset token recall, precision, and their harmonic mean."""
    ref_tokens = normalize(ref)
    if not ref_tokens:
        raise ValueError("reference normalizes to zero tokens")
    pred_tokens = normalize(pred)
    overlap = sum((Counter(ref_tokens) & Counter(pred_tokens)).values())
    recall = overlap / len(ref_tokens)
    precision = overlap / len(pred_tokens) if pred_tokens else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return recall, precision, f1


def reference_polarity(ref: str, polarity: tuple[str, str] = DEFAULT_POLARITY) -> str:
    """The unique polarity token carried by a closed reference."""
    tokens = set(normalize(ref))
    present = [p for p in polarity if p in tokens]
    if len(present) != 1:
        raise ValueError(
            f"closed reference must contain exactly one of {polarity}: {ref!r}"
        )
    return present[0]


def _closed_correct(ex: EvalExample, polarity: tuple[str, str] = DEFAULT_POLARITY) -> bool:
    """A closed prediction is correct iff it contains the reference polarity
    token and not the opposite one; carrying both scores incorrect."""
    try:
        want = reference_polarity(ex.reference, polarity)
    except ValueError as exc:
        raise ValueError(f"example {ex.example_id}: {exc}") from None
    other = polarity[1] if want == polarity[0] else polarity[0]
    tokens = set(normalize(ex.prediction))
    return want in tokens and other not in tokens


def cost_ratio(metric_pct: float, trainable_params: int) -> float:
    """Metric percentage divided by log10 of the parameter count in millions."""
    if not (math.isfinite(metric_pct) and 0 <= metric_pct <= 100):
        raise ValueError(f"metric must be finite and within [0, 100], got {metric_pct}")
    # The count in millions is a float, so the ceiling keeps it finite.
    if not 10**6 < trainable_params <= 10**308:
        raise ValueError(
            f"trainable_params must exceed 1e6 and be at most 1e308, got {trainable_params}"
        )
    return metric_pct / math.log10(trainable_params / 10**6)


def evaluate(
    examples: Iterable[EvalExample], polarity: tuple[str, str] = DEFAULT_POLARITY
) -> MetricsReport:
    """Score the examples in one pass and macro-average them into one report.

    Open examples whose reference normalizes empty are excluded with a warning.
    Fields with no examples of the matching type stay None rather than 0. The
    reported F1 is the harmonic mean of the macro recall and macro precision,
    so it is recomputable from the report itself; per-example F1 values are in
    `per_example`, which lists an `OpenScore` per open row and then a
    `ClosedScore` per closed one. A closed reference without exactly one
    polarity token is a ValueError that names its example.
    """
    report = MetricsReport()
    closed_rows: list[ClosedScore] = []
    recall_sum = precision_sum = 0.0
    correct = ref_words = pred_words = 0
    for ex in examples:
        if ex.qtype == "closed":
            ok = _closed_correct(ex, polarity)
            correct += ok
            closed_rows.append(ClosedScore(ex.example_id, ok))
        else:
            try:
                r, p, f = prf(ex.reference, ex.prediction)
            except ValueError:
                report.warnings.append(
                    f"example {ex.example_id}: reference normalizes empty; excluded"
                )
                continue
            recall_sum += r
            precision_sum += p
            report.per_example.append(OpenScore(ex.example_id, r, p, f))
        ref_words += len(ex.reference.split())
        pred_words += len(ex.prediction.split())
    report.n_open, report.n_closed = len(report.per_example), len(closed_rows)
    report.per_example += closed_rows
    if not (report.per_example or report.warnings):
        raise ValueError("evaluate needs at least one example")

    if report.n_open:
        recall = recall_sum / report.n_open
        precision = precision_sum / report.n_open
        report.open_recall_pct = 100.0 * recall
        report.recall_pct = 100.0 * recall
        report.precision_pct = 100.0 * precision
        report.f1_pct = (
            100.0 * 2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
    if report.n_closed:
        report.closed_accuracy_pct = 100.0 * correct / report.n_closed
    if report.per_example:
        report.mean_ref_len = ref_words / len(report.per_example)
        report.mean_pred_len = pred_words / len(report.per_example)
    return report


def read_examples(path: str | Path) -> list[EvalExample]:
    """Load eval examples from JSONL rows of (example_id, question, reference,
    prediction, qtype)."""
    return list(read_records(path, EvalExample))


def format_report(report: MetricsReport) -> str:
    """Plain-text table for standard output."""
    rows = [
        ("closed accuracy %", report.closed_accuracy_pct),
        ("open recall %", report.open_recall_pct),
        ("recall %", report.recall_pct),
        ("precision %", report.precision_pct),
        ("f1 %", report.f1_pct),
        ("mean ref words", report.mean_ref_len),
        ("mean pred words", report.mean_pred_len),
    ]
    lines = [f"n_open={report.n_open} n_closed={report.n_closed}"]
    for label, value in rows:
        shown = "-" if value is None else f"{value:.2f}"
        lines.append(f"{label:>18}: {shown}")
    return "\n".join(lines)
